"""Compare a parent and a changed checkout with this benchmark.

    python3 benchmarks/compare.py --parent DIR --change DIR

Both sides are measured by this copy of the benchmark (`run.py --root DIR`),
so benchmark code and settings are identical: every workload, ten pairs per
workload, each run lasting BENCHMARK.json's `run_seconds`. Pair i uses seed
FIRST_SEED + i on both sides and alternates which side runs first. Every run
is printed as it completes; then, per workload and end-to-end metric, each
side's median and quartiles, the change's win count over pairs (ties count
for neither), and a verdict against the bound in BENCHMARK.json:

- gain: the change wins at least 9/10 of the pairs and the medians differ
  by more than the parent's own interquartile distance;
- better: every change run beats every parent run, short of a gain;
- unresolved: either side's interquartile spread, as a share of its median,
  exceeds the bound;
- regression: the change's median is worse than the parent's by more than
  the bound;
- no regression: otherwise.

A run that fails a check, the golden trace hashes included, reports no
metrics, so its pair is left out of the metric verdicts; `ok_frac` therefore
reads 1 in every run that reports it. Failures are judged instead by counting
failed runs on each side: when the change fails more runs than the parent,
the workload's failure verdict is "regression" and no metric of that
workload may read "gain" or "better". The last line is a JSON object with
every run and every verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCHMARK_JSON = wl.DEFAULT_ROOT / "BENCHMARK.json"
WIN_SHARE = 0.9
PAIRS = 10
FIRST_SEED = 100


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, pairs_run: int | None = None) -> dict:
    """Judge paired runs of one metric; `parent[i]` pairs with `change[i]`.

    `pairs_run` counts pairs with a failed side too: wins are a share of it.
    """
    pairs_run = pairs_run or len(parent)
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) > 0 is worse
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    parent_iqr = p_q[2] - p_q[0]
    spread = max(parent_iqr / abs(p_med), (c_q[2] - c_q[0]) / abs(c_med))
    worse_by = sign * (c_med - p_med) / abs(p_med)
    clear_gain = (wins >= WIN_SHARE * pairs_run and worse_by < 0
                  and abs(c_med - p_med) > parent_iqr)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if all_better:
        label = "gain" if clear_gain else "better"
    elif spread > bound:
        label = "unresolved"
    elif worse_by > bound:
        label = "regression"
    elif clear_gain:
        label = "gain"
    else:
        label = "no regression"
    return {
        "parent": {"median": p_med, "q1": p_q[0], "q3": p_q[2]},
        "change": {"median": c_med, "q1": c_q[0], "q3": c_q[2]},
        "wins": wins, "pairs": pairs_run, "spread": spread,
        "worse_by": worse_by, "bound": bound, "verdict": label,
    }


def failure_verdict(parent_failed: int, change_failed: int) -> str:
    return "regression" if change_failed > parent_failed else "no regression"


def withhold_gain(judged: dict) -> None:
    """A metric cannot improve on a workload where the change fails more."""
    if judged["verdict"] in ("gain", "better"):
        judged["verdict"] = "withheld: more failed runs"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(wl.HERE / "run.py"), "--root", str(root),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    if proc.returncode != 0 or not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run_once(sides[side], workload, seed,
                                   spec["run_seconds"])
                    for side in order}
            for side in order:
                runs.append({"workload": workload, "side": side, "seed": seed,
                             "metrics": pair[side]})
                print(f"run {workload} seed={seed} {side}: {pair[side]}", flush=True)
                failed[side] += pair[side] is None
            if pair["parent"] is not None and pair["change"] is not None:
                for side in values:
                    values[side].append(pair[side])
        failures = failure_verdict(failed["parent"], failed["change"])
        report[workload] = {"failed_runs": failed, "failures": failures}
        print(f"{workload:14s} failed runs: parent {failed['parent']}/{PAIRS}, "
              f"change {failed['change']}/{PAIRS}  {failures}")
        if len(values["parent"]) < 2:
            print(f"{workload}: fewer than two complete pairs; no metric verdict")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            judged = verdict([v[name] for v in values["parent"]],
                             [v[name] for v in values["change"]],
                             metric["better"], metric["bound"], PAIRS)
            if failures == "regression":
                withhold_gain(judged)
            report[workload][name] = judged
            print(f"{workload:14s} {name:12s} "
                  f"parent {judged['parent']['median']:.6g} "
                  f"[{judged['parent']['q1']:.6g}, {judged['parent']['q3']:.6g}]  "
                  f"change {judged['change']['median']:.6g} "
                  f"[{judged['change']['q1']:.6g}, {judged['change']['q3']:.6g}]  "
                  f"wins {judged['wins']}/{judged['pairs']}  "
                  f"spread {judged['spread']:.3f} bound {judged['bound']}  "
                  f"{judged['verdict']}")
    print(json.dumps({"runs": runs, "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
