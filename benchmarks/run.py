"""Benchmark of the `visuomotor` command-line tool.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json and explained in
benchmarks/README.md. With --trace 0 the run measures the end-to-end metrics
of the untraced command; with --trace 1 it also rebuilds every command it
ran with each module call timed, and reports the per-module metrics. Either
way it checks the command's outputs and the golden trace hashes, prints one
line per metric and, last, one JSON object. It exits 1 when a check fails
and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

CHILD_TIMEOUT_S = 150  # on top of --seconds; a run must end within 180 s


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=wl.DEFAULT_ROOT,
                        help="checkout whose src/visuomotor is measured "
                             "(default: the one holding this benchmark)")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's golden trace hashes instead "
                             "of checking them")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in wl.BLAS_THREAD_VARS},
    }


def write_scene(out: Path) -> Path:
    from visuomotor import world

    scene = out / "scene.pgm"
    image = world.synthetic_image(wl.SCENE_SIZE, wl.SCENE_SIZE, seed=wl.SCENE_SEED)
    scene.write_bytes(world.to_pgm_p2(image))
    return scene


def run_child(args, w: wl.Workload, out: Path, scene: Path | None) -> dict:
    spec = out / "spec.json"
    spec.write_text(json.dumps({
        "root": str(args.root.resolve()), "workload": w.name, "seed": args.seed,
        "seconds": args.seconds, "out": str(out / "cmd"),
        "scene": str(scene) if scene else None,
    }))
    proc = subprocess.run(
        [sys.executable, str(wl.HERE / "measure.py"), str(spec)],
        stdout=subprocess.PIPE, text=True, check=True,
        timeout=args.seconds + CHILD_TIMEOUT_S,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def check_rep(w: wl.Workload, rep: dict) -> tuple[int, list[str]]:
    """Output checks for one command: (failed cells, problems)."""
    out = Path(rep["dir"])
    seeds = tuple(rep["seeds"])
    name = f"{w.name} seeds={','.join(map(str, seeds))}"
    problems = []
    failed = 0
    for (kind, seed), file in wl.trace_files(w, seeds).items():
        path = out / file
        rows = path.read_bytes().count(b"\n") - 1 if path.is_file() else -1
        if rows != wl.STEPS:
            failed += 1
            problems.append(f"{name}: {file} has {rows} rows, want {wl.STEPS}")
    if rep["code"] != 0:
        problems.append(f"{name}: exit code {rep['code']} {rep['error'] or ''}")
        failed = failed or len(w.kinds) * len(seeds)
    if w.subcommand == "run":
        for file in ("window_actual.pgm", "window_predicted.pgm"):
            if not (out / file).is_file():
                problems.append(f"{name}: {file} missing")
    else:
        summary = out / "summary.csv"
        listed = ({line.split(",")[0] for line in summary.read_text().splitlines()}
                  if summary.is_file() else set())
        missing = [k for k in w.kinds if k not in listed]
        if missing:
            problems.append(f"{name}: summary.csv does not list {missing}")
    return failed, problems


def check_golden(w: wl.Workload, got: dict[str, str], update: bool) -> list[str]:
    stored = json.loads(wl.GOLDEN_PATH.read_text()) if wl.GOLDEN_PATH.is_file() else {}
    expected = [wl.golden_key(w, k, s) for k in w.kinds for s in wl.GOLDEN_SEEDS]
    if update:
        stored.update({key: got[key] for key in expected if key in got})
        wl.GOLDEN_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    problems = []
    for key in expected:
        if key not in got:
            problems.append(f"golden cell {key} produced no trace")
        elif key not in stored:
            problems.append(f"golden cell {key} has no recorded hash")
        elif stored[key] != got[key]:
            problems.append(f"golden hash changed: {key}")
    return problems


def same_files(a: Path, b: Path) -> list[str]:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"{b}: files {names_b} differ from {names_a}"]
    return [f"{b / n}: differs from the untraced command's"
            for n in names_a if (a / n).read_bytes() != (b / n).read_bytes()]


def traced_phase(w: wl.Workload, child: dict, scene: Path | None,
                 untraced_steps_per_s: float) -> tuple[dict, list[str]]:
    """Rebuild every command traced; check it against the untraced outputs."""
    import traced

    problems = []
    commands = []
    for rep in child["reps"]:
        out = Path(rep["dir"])
        untraced_out = out.with_name(out.name + ".untraced")
        out.rename(untraced_out)
        command = traced.traced_command(
            wl.command_argv(w, tuple(rep["seeds"]), out, scene))
        problems += same_files(untraced_out, out)
        commands.append(command)
        if rep["golden"]:
            for cell in command.cells:
                config = cell.result.config
                key = wl.golden_key(w, config.controller.kind.value,
                                    config.master_seed)
                if wl.trace_hash(cell.result.trace) != child["golden"].get(key):
                    problems.append(f"traced rebuild of {key} differs from "
                                    "run_experiment's trace")
    return traced.layer_metrics(commands, untraced_steps_per_s), problems


def end_to_end(w: wl.Workload, child: dict, attempted: int, failed: int) -> dict[str, tuple[float, str, int]]:
    rates = steps_per_s(w, child)
    workers = w.workers if w.subcommand == "compare" else 0
    rss_kb = child["rss_self_kb"] + workers * child["rss_children_kb"]
    return {
        "steps_per_s": (statistics.median(rates), "1/s", len(rates)),
        "setup_s": (statistics.median(child["setup_s"]), "s",
                    len(child["setup_s"])),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
        "final_error": (statistics.median(child["final_errors"]), "mse",
                        len(child["final_errors"])),
        "ok_frac": (1.0 - failed / attempted, "frac", attempted),
    }


def steps_per_s(w: wl.Workload, child: dict) -> list[float]:
    """Configured steps per wall second of each command."""
    return [wl.STEPS * w.cells_per_rep / rep["wall_s"] for rep in child["reps"]]


def main(argv=None) -> int:
    wl.pin_blas_threads()
    args = parse_args(argv)
    try:
        wl.import_program(args.root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"benchmark: cannot load the program: {exc}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    out = wl.OUT_ROOT / f"{w.name}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        scene = write_scene(out) if w.subcommand == "compare" else None
        child = run_child(args, w, out, scene)
        problems = [f"invalid golden run {item}" for item in child["invalid"]]
        attempted = failed = 0
        for rep in child["reps"]:
            rep_failed, rep_problems = check_rep(w, rep)
            attempted += w.cells_per_rep
            failed += rep_failed
            problems += rep_problems
        problems += check_golden(w, child["golden"], args.update_golden)
        if args.trace:
            metrics, traced_problems = traced_phase(
                w, child, scene, statistics.median(steps_per_s(w, child)))
            problems += traced_problems
        else:
            metrics = end_to_end(w, child, attempted, failed)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    reps = len(child["reps"])
    print(f"env: {json.dumps(env)}")
    print(f"workload={w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commands={reps} cells={attempted}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} n={n}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()} if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
