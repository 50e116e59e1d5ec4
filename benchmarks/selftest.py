"""Tests of the benchmark itself, on tiny configs.

    python3 -m pytest benchmarks/selftest.py

The file name keeps these tests out of the package's own test collection.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil

import numpy as np
import pytest

import workloads as wl

wl.import_program(wl.DEFAULT_ROOT)

import compare  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from visuomotor import cli, elm, harness  # noqa: E402

SPEC = json.loads((wl.DEFAULT_ROOT / "BENCHMARK.json").read_text())
TINY = ("--steps", "60", "--camera", "6", "--hidden", "7")


def tiny_config(kind="maxlp", seed=3):
    return harness.default_config(kind, seed, steps=60, camera=6, hidden_count=7)


@pytest.mark.parametrize("kind", wl.ALL_KINDS)
def test_traced_loop_equals_run_experiment(kind):
    config = tiny_config(kind)
    expected = harness.run_experiment(config)
    cell = traced.traced_experiment(config)
    assert cell.result.trace == expected.trace
    assert wl.trace_hash(cell.result.trace) == wl.trace_hash(expected.trace)
    assert np.array_equal(cell.result.elm_state.readout, expected.elm_state.readout)
    assert cell.step_s.size == config.steps


@pytest.mark.parametrize("argv", [
    ["run", "--controller", "maxlp", "--seed", "4", *TINY],
    ["compare", "--seeds", "1,2", "--workers", "2", *TINY],
])
def test_traced_command_writes_the_cli_files(tmp_path, argv):
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    (out / "stdout.txt").write_text(stdout.getvalue())
    shutil.move(out, tmp_path / "cli")
    command = traced.traced_command([*argv, "--out", str(out)])
    assert command.exit_code == cli.EXIT_OK
    assert run.same_files(tmp_path / "cli", out) == []


def test_emitted_names_are_declared(tmp_path):
    w = wl.WORKLOADS["run-rm-cam8"]
    child = {"reps": [{"seeds": [1], "golden": True, "wall_s": 2.0}],
             "setup_s": [0.1, 0.2], "final_errors": [0.1, 0.2],
             "rss_self_kb": 1000, "rss_children_kb": 0}
    e2e = run.end_to_end(w, child, attempted=3, failed=0)
    argv = ["run", "--controller", "maxlp", "--seed", "1", *TINY,
            "--out", str(tmp_path)]
    layers = traced.layer_metrics([traced.traced_command(argv)], 1000.0)
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for emitted, declared in ((e2e, SPEC["end_to_end"]), (layers, SPEC["per_layer"])):
        assert all(pattern.fullmatch(name) for name in emitted)
        assert list(emitted) == [m["name"] for m in declared]
        assert {n: v[1] for n, v in emitted.items()} == {
            m["name"]: m["unit"] for m in declared}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_bytes_per_step_matches_array_nbytes():
    config = tiny_config().elm
    state = elm.init_elm(config)
    expected = (2 * state.hidden_weights.nbytes + 2 * state.hidden_bias.nbytes
                + 4 * state.readout.nbytes + 6 * state.inv_gram.nbytes)
    assert traced.elm_bytes_per_step(config) == expected


def test_trace_hash_repeats_and_tells_seeds_apart():
    first = harness.run_experiment(tiny_config(seed=5)).trace
    again = harness.run_experiment(tiny_config(seed=5)).trace
    other = harness.run_experiment(tiny_config(seed=6)).trace
    assert wl.trace_hash(first) == wl.trace_hash(again)
    assert wl.trace_hash(first) != wl.trace_hash(other)


def test_golden_file_covers_every_cell():
    stored = json.loads(wl.GOLDEN_PATH.read_text())
    expected = {wl.golden_key(w, k, s) for w in wl.WORKLOADS.values()
                for k in w.kinds for s in wl.GOLDEN_SEEDS}
    assert set(stored) == expected


def test_timed_seeds_are_fixed_by_the_seed_and_avoid_golden_seeds():
    for w in wl.WORKLOADS.values():
        seeds = [s for i in range(50) for s in wl.timed_rep_seeds(w, 0, i)]
        assert len(set(seeds)) == len(seeds)
        assert not set(seeds) & set(wl.GOLDEN_SEEDS)
        assert seeds[0] != wl.timed_rep_seeds(w, 1, 0)[0]
        gold = [s for rep in wl.golden_reps(w) for s in rep]
        assert gold == list(wl.GOLDEN_SEEDS)


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "higher", "gain"),
    ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "higher", "regression"),
    ([10, 10.1, 9.9, 10, 10.05], [10.02, 9.95, 10.0, 10.1, 9.97], "higher",
     "no regression"),
    ([10, 14, 7, 12, 9], [9, 13, 8, 11, 10], "higher", "unresolved"),
    ([1.0, 1.01, 0.99, 1.0, 1.0], [0.5, 0.51, 0.49, 0.5, 0.5], "lower", "gain"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, bound=0.1)["verdict"] == expected


def test_failed_runs_withhold_a_gain():
    parent, change = [10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05]
    # Five complete pairs out of ten run: five wins are short of 9/10.
    assert compare.verdict(parent, change, "higher", bound=0.1,
                           pairs_run=10)["verdict"] == "better"
    judged = compare.verdict(parent, change, "higher", bound=0.1)
    assert compare.failure_verdict(parent_failed=0, change_failed=3) == "regression"
    assert compare.failure_verdict(parent_failed=3, change_failed=3) == "no regression"
    compare.withhold_gain(judged)
    assert judged["verdict"] == "withheld: more failed runs"
