"""The benchmark's workloads: which `visuomotor` command each one runs, with
which master seeds, and how its outputs are named and hashed.

Shared by the runner (`run.py`), its measured child (`measure.py`) and the
traced rebuild (`traced.py`), so that all three run exactly the same commands.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
OUT_ROOT = DEFAULT_ROOT / ".bench_out"

# Master seeds whose traces are pinned in golden.json. Every run's first
# commands use them, and final_error is reported on them.
GOLDEN_SEEDS = (1, 2)
# The compare-grid scene is fixed so that its golden hashes do not depend on
# --seed; --seed picks the master seeds of the commands after the golden ones.
SCENE_SEED = 0
SCENE_SIZE = 512
STEPS = 5000
ALL_KINDS = ("rm", "minpe", "maxpe", "maxlp")

# Pinned before numpy is imported anywhere. compare-grid runs two worker
# processes on a two-core machine; a multi-threaded BLAS in each would put
# more threads than cores on the machine and make timings depend on the
# scheduler instead of the program.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def pin_blas_threads() -> None:
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str  # "run" or "compare"
    kinds: tuple[str, ...]  # `run` takes one controller; `compare` runs all
    camera: int
    seeds_per_rep: int
    workers: int = 1

    @property
    def cells_per_rep(self) -> int:
        return len(self.kinds) * self.seeds_per_rep


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("run-maxlp", "run", ("maxlp",), camera=32, seeds_per_rep=1),
        Workload("run-rm-cam8", "run", ("rm",), camera=8, seeds_per_rep=1),
        Workload("compare-grid", "compare", ALL_KINDS, camera=32,
                 seeds_per_rep=2, workers=2),
    )
}


def golden_reps(w: Workload) -> list[tuple[int, ...]]:
    """Master seeds of the golden repetitions, one tuple per command."""
    n = w.seeds_per_rep
    return [GOLDEN_SEEDS[i:i + n] for i in range(0, len(GOLDEN_SEEDS), n)]


def timed_rep_seeds(w: Workload, seed: int, index: int) -> tuple[int, ...]:
    """Master seeds of repetition `index` after the golden ones, under
    benchmark seed `seed`.

    Bases are 1000 apart and start above the golden seeds, so no two
    benchmark seeds share a cell while a run makes fewer than 1000 cells.
    """
    base = 1000 * (seed + 1) + index * w.seeds_per_rep
    return tuple(range(base, base + w.seeds_per_rep))


def command_argv(w: Workload, seeds: tuple[int, ...], out: Path,
                 scene: Path | None) -> list[str]:
    argv = [w.subcommand, "--steps", str(STEPS), "--camera", str(w.camera),
            "--out", str(out)]
    if w.subcommand == "run":
        argv += ["--controller", w.kinds[0], "--seed", str(seeds[0])]
    else:
        argv += ["--seeds", ",".join(map(str, seeds)),
                 "--workers", str(w.workers)]
    if scene is not None:
        argv += ["--image", str(scene)]
    return argv


def trace_files(w: Workload, seeds: tuple[int, ...]) -> dict[tuple[str, int], str]:
    """(controller, master seed) -> trace CSV name the command writes."""
    if w.subcommand == "run":
        return {(w.kinds[0], seeds[0]): "trace.csv"}
    return {(k, s): f"trace_{k}_{s}.csv" for k in w.kinds for s in seeds}


def golden_key(w: Workload, kind: str, seed: int) -> str:
    return f"{w.name}/{kind}/{seed}"


def trace_hash(trace) -> str:
    """SHA-256 of the canonical trace: one `t,cam_x,cam_y,cmd,error.hex` line per step."""
    digest = hashlib.sha256()
    for r in trace:
        digest.update(
            f"{r.t},{r.cam_x},{r.cam_y},{r.command.value},{float.hex(r.error)}\n"
            .encode()
        )
    return digest.hexdigest()


def import_program(root: Path) -> None:
    """Put `root/src` first on the import path; fail if the package is absent."""
    src = root / "src"
    if not (src / "visuomotor" / "__init__.py").is_file():
        raise FileNotFoundError(f"no visuomotor package under {src}")
    sys.path.insert(0, str(src))
    import visuomotor  # noqa: F401 - fail here, not mid-run, if it cannot load
