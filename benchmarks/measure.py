"""Measured phase of one benchmark run, in a process of its own so that its
peak resident memory is the command's and not the runner's.

Usage: python3 measure.py SPEC.json   (written by run.py)

Calls `visuomotor.cli.main` in-process, one command per repetition: first
on the workload's golden seeds, capturing their exact traces, then on seeds
derived from the benchmark seed, until the commands have taken the time
budget. Every command is timed; set-up samples are timed between them.
Prints one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import workloads as wl

# Share of each command's wall time spent again, after it and off the clock,
# on set-up samples (at least one per command).
SETUP_SHARE = 0.15


@contextlib.contextmanager
def capture_results(cli):
    """Collect every RunResult the CLI produces, without changing them."""
    captured = []
    run_experiment, run_comparison = cli.run_experiment, cli.run_comparison

    def capturing_run(config, **kwargs):
        result = run_experiment(config, **kwargs)
        captured.append(result)
        return result

    def capturing_compare(*args, **kwargs):
        comparison = run_comparison(*args, **kwargs)
        captured.extend(comparison.results.values())
        return comparison

    cli.run_experiment, cli.run_comparison = capturing_run, capturing_compare
    try:
        yield captured
    finally:
        cli.run_experiment, cli.run_comparison = run_experiment, run_comparison


def run_command(cli, w, seeds, out: Path, scene, golden: bool) -> dict:
    argv = wl.command_argv(w, seeds, out, scene)
    stdout = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - a raising command is a failed rep
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    out.mkdir(parents=True, exist_ok=True)
    (out / "stdout.txt").write_text(stdout.getvalue())
    return {"seeds": list(seeds), "dir": str(out), "code": code,
            "error": error, "wall_s": wall, "golden": golden}


def time_setup(w, master_seed: int, scene) -> float:
    """Seconds for `load_world` + `init_elm` on one command's config."""
    from visuomotor import elm, harness

    config = harness.default_config(
        w.kinds[0], master_seed, camera=w.camera,
        image_source=scene or harness.SYNTHETIC_SOURCE)
    elm_config = replace(config.elm,
                         seed=harness._derived_seeds(master_seed)[0])
    start = time.perf_counter()
    harness.load_world(config)
    elm.init_elm(elm_config)
    return time.perf_counter() - start


def sample_setup(w, master_seed: int, scene, budget_s: float,
                 samples: list[float]) -> None:
    """Append set-up samples until they have taken `budget_s`, at least one."""
    spent = 0.0
    while spent < budget_s or spent == 0.0:
        samples.append(time_setup(w, master_seed, scene))
        spent += samples[-1]


def measure(spec: dict) -> dict:
    wl.import_program(Path(spec["root"]))
    from visuomotor import cli

    w = wl.WORKLOADS[spec["workload"]]
    out = Path(spec["out"])
    scene = spec["scene"]
    reps = []
    with capture_results(cli) as captured:
        for seeds in wl.golden_reps(w):
            reps.append(run_command(cli, w, seeds, out / f"rep{len(reps)}",
                                    scene, golden=True))
    # The commands' peak memory, read before any set-up sample can raise
    # this process's high-water mark. ru_maxrss is in KiB on Linux; for
    # children it is the largest single worker.
    rss_self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    golden = {}
    final_errors = []
    invalid = []
    for result in captured:
        key = wl.golden_key(w, result.config.controller.kind.value,
                            result.config.master_seed)
        golden[key] = wl.trace_hash(result.trace)
        if result.valid and result.metrics is not None:
            final_errors.append(result.metrics.final_error)
        else:
            invalid.append(f"{key}: {result.failure}")

    setup_s = []
    timed_s = sum(rep["wall_s"] for rep in reps)
    sample_setup(w, wl.GOLDEN_SEEDS[0], scene, SETUP_SHARE * timed_s, setup_s)
    index = 0
    while timed_s < spec["seconds"]:
        seeds = wl.timed_rep_seeds(w, spec["seed"], index)
        rep = run_command(cli, w, seeds, out / f"rep{len(reps)}", scene,
                          golden=False)
        reps.append(rep)
        timed_s += rep["wall_s"]
        # Set-up samples are spread over the run, not taken in one burst,
        # so that they see the same machine phases as the commands.
        sample_setup(w, seeds[0], scene, SETUP_SHARE * rep["wall_s"], setup_s)
        index += 1
    return {
        "reps": reps,
        "setup_s": setup_s,
        "golden": golden,
        "final_errors": final_errors,
        "invalid": invalid,
        "rss_self_kb": rss_self_kb,
        "rss_children_kb": rss_children_kb,
    }


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text())
    print(json.dumps(measure(spec)))
