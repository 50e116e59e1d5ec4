"""Tests for the command-line interface and its file writers."""

import argparse
import csv
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from visuomotor import cli
from visuomotor.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    _config_from_args,
    main,
    parse_args,
    render_frames,
    write_summary,
    write_trace_csv,
)
from visuomotor.controllers import ControllerKind
from visuomotor.harness import (
    RunResult,
    StepRecord,
    default_config,
    run_comparison,
    run_experiment,
)
from visuomotor.world import CameraState, MotorCommand, WorldImage, load_image


def tiny_args(subcommand, out, extra=()):
    return [
        subcommand,
        "--steps", "10",
        "--camera", "4",
        "--hidden", "5",
        "--out", str(out),
        *extra,
    ]


def tiny_run_result(seed=1, steps=12, kind=ControllerKind.RM):
    from visuomotor.harness import default_config

    config = default_config(kind, seed, steps=steps, camera=4, hidden_count=5)
    return run_experiment(config)


# ---------------------------------------------------------------------------
# Argument parsing


def test_defaults_mirror_standard_experiment():
    args = parse_args(["run", "--controller", "rm", "--seed", "1"])
    assert args.steps == 5000
    assert args.hidden == 30
    assert args.epsilon == 0.2
    assert args.sigma == 0.01
    assert args.camera == 32
    assert args.image == "synthetic"


@pytest.mark.parametrize("subcommand", ["run", "compare"])
def test_flag_defaults_give_default_config(subcommand):
    args = parse_args([subcommand])
    assert _config_from_args(args, "rm", 1) == default_config("rm", 1)


def test_run_flags_cover_default_config_keywords():
    keywords = {
        name for name, p in inspect.signature(default_config).parameters.items()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    }
    assert set(cli._RUN_FLAGS) == keywords


def test_readme_names_every_long_option():
    # Whole options only: "--seeds" does not name "--seed".
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme))
    [subparsers] = [action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    options = {
        option for sub in subparsers.choices.values() for action in sub._actions
        for option in action.option_strings if option.startswith("--")
    }
    assert len(options) > 10
    assert options - {"--help"} - named == set()


def test_epsilon_flag_parsed():
    args = parse_args(["run", "--controller", "minpe", "--epsilon", "0.2"])
    assert args.epsilon == 0.2
    assert args.controller == "minpe"


def test_unknown_controller_is_usage_error(capsys):
    assert main(["run", "--controller", "xyz"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert main(["run", "--bogus", "1"]) == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_bad_seeds_value_is_usage_error(tmp_path, capsys):
    assert main(tiny_args("compare", tmp_path, ["--seeds", "1,x"])) == EXIT_USAGE


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env_out"))
    code = main(["run", "--controller", "rm", "--seed", "1",
                 "--steps", "5", "--camera", "4", "--hidden", "5"])
    assert code == EXIT_OK
    assert (tmp_path / "env_out" / "trace.csv").exists()


# ---------------------------------------------------------------------------
# Trace CSV


def test_trace_csv_shape_and_codes(tmp_path):
    result = tiny_run_result(steps=2)
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path)
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b"t,cam_center_x,cam_center_y,cmd,error"
    assert len(lines) == 4  # header + 2 rows + trailing newline
    assert lines[-1] == b""
    for line in lines[1:3]:
        assert line.split(b",")[3] in (b"U", b"D", b"L", b"R", b"S")


def test_trace_csv_deterministic_bytes(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_trace_csv(tiny_run_result(seed=7), first)
    write_trace_csv(tiny_run_result(seed=7), second)
    assert first.read_bytes() == second.read_bytes()


def test_trace_csv_round_trip(tmp_path):
    result = tiny_run_result(seed=3, steps=25, kind=ControllerKind.MINPE)
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path)
    with open(path, newline="") as handle:
        reparsed = list(csv.DictReader(handle))
    assert len(reparsed) == len(result.trace)
    for original, parsed in zip(result.trace, reparsed):
        # The CSV gives the center of the 4x4 window, not its top-left.
        assert int(parsed["t"]) == original.t
        assert int(parsed["cam_center_x"]) - 2 == original.cam_x
        assert int(parsed["cam_center_y"]) - 2 == original.cam_y
        assert MotorCommand(parsed["cmd"]) == original.command
        assert float(parsed["error"]) == float(format(original.error, ".9g"))


def reference_trace_csv(result, path):
    """The trace CSV as ``csv.writer`` writes it."""
    half_w = result.config.window_w // 2
    half_h = result.config.window_h // 2
    with open(path, "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t", "cam_center_x", "cam_center_y", "cmd", "error"])
        for r in result.trace:
            writer.writerow([r.t, r.cam_x + half_w, r.cam_y + half_h,
                             r.command.value, format(r.error, ".9g")])


@pytest.mark.parametrize("camera", [4, 5])
def test_trace_csv_bytes_equal_csv_writer(tmp_path, camera):
    errors = [
        0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308,
        # Values that round at the ninth significant digit, up and down.
        0.1234567895, 0.12345678949999999, 9.9999999995, 9.9999999994,
        1.0000000005, 123456789.5, 1234567890.0, 0.00012345678951, 1e-5,
    ]
    config = default_config(ControllerKind.RM, 1, steps=1, camera=camera)
    trace = [
        StepRecord(t=t, cam_x=t * 37 % 500, cam_y=t * 11 % 500,
                   command=list(MotorCommand)[t % 5], error=error)
        for t, error in enumerate(errors)
    ]
    # The edge values, a real run's trace, and an empty trace.
    for name, result in [
        ("edges", RunResult(config, trace, None, None)),
        ("run", tiny_run_result(seed=4, steps=40)),
        ("empty", RunResult(config, [], None, None, valid=False)),
    ]:
        fast, reference = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        write_trace_csv(result, fast)
        reference_trace_csv(result, reference)
        assert fast.read_bytes() == reference.read_bytes(), name


def test_trace_csv_reports_window_center(tmp_path):
    result = tiny_run_result(steps=3)
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path)
    rows = path.read_text().strip().split("\n")[1:]
    for row, step in zip(rows, result.trace):
        _, cx, cy, _, _ = row.split(",")
        assert int(cx) == step.cam_x + 2  # window 4 -> half width 2
        assert int(cy) == step.cam_y + 2


# ---------------------------------------------------------------------------
# Summary CSV


def comparison_fixture(seeds=(1, 2)):
    from visuomotor.harness import default_config

    base = default_config(ControllerKind.RM, seeds[0], steps=15, camera=4,
                          hidden_count=5)
    return run_comparison(base, list(ControllerKind), list(seeds))


def test_summary_layout(tmp_path):
    comparison = comparison_fixture()
    path = tmp_path / "summary.csv"
    write_summary(comparison, path)
    text = path.read_text()
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 2
    kind_rows = blocks[0].split("\n")
    assert kind_rows[0].startswith("kind,median_final_error")
    assert len(kind_rows) == 1 + 4  # header + one row per controller
    ranking_rows = blocks[1].split("\n")
    assert ranking_rows[0] == "seed,rank1,rank2,rank3,rank4"
    assert len(ranking_rows) == 1 + 2
    for row in ranking_rows[1:]:
        cells = row.split(",")
        assert sorted(cells[1:]) == sorted(k.value for k in ControllerKind)


def test_summary_stay_fraction_in_unit_range(tmp_path):
    comparison = comparison_fixture()
    path = tmp_path / "summary.csv"
    write_summary(comparison, path)
    for row in path.read_text().split("\n\n")[0].strip().split("\n")[1:]:
        stay = float(row.split(",")[4])
        assert 0.0 <= stay <= 1.0


# ---------------------------------------------------------------------------
# PGM rendering


def render_setup(tmp_path, predicted):
    image = WorldImage(np.full((6, 6), 0.25))
    cam = CameraState(left=1, top=1, width=4, height=4)
    prefix = tmp_path / "window"
    render_frames(image, cam, np.asarray(predicted, dtype=float), prefix)
    return prefix


def test_render_constant_half_quantizes_to_128(tmp_path):
    prefix = render_setup(tmp_path, np.full(16, 0.5))
    data = (tmp_path / "window_predicted.pgm").read_bytes()
    assert data.startswith(b"P5\n4 4\n255\n")
    assert data[len(b"P5\n4 4\n255\n"):] == bytes([128] * 16)


def test_render_identical_prediction_matches_actual(tmp_path):
    prefix = render_setup(tmp_path, np.full(16, 0.25))
    actual = (tmp_path / "window_actual.pgm").read_bytes()
    predicted = (tmp_path / "window_predicted.pgm").read_bytes()
    assert actual == predicted


def test_render_clamps_out_of_range_values(tmp_path):
    render_setup(tmp_path, np.full(16, 1.7))
    data = (tmp_path / "window_predicted.pgm").read_bytes()
    assert data[len(b"P5\n4 4\n255\n"):] == bytes([255] * 16)


def test_rendered_files_parse_as_pgm(tmp_path):
    render_setup(tmp_path, np.linspace(0, 1, 16))
    image = load_image((tmp_path / "window_actual.pgm").read_bytes())
    assert image.pixels.shape == (4, 4)


def test_render_rejects_wrong_size(tmp_path):
    from visuomotor.errors import VisuomotorError

    image = WorldImage(np.zeros((6, 6)))
    cam = CameraState(left=0, top=0, width=4, height=4)
    with pytest.raises(VisuomotorError):
        render_frames(image, cam, np.zeros(9), tmp_path / "x")


# ---------------------------------------------------------------------------
# Subcommands end to end


def test_run_subcommand_writes_outputs(tmp_path):
    code = main(tiny_args("run", tmp_path, ["--controller", "minpe", "--seed", "4"]))
    assert code == EXIT_OK
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "window_actual.pgm").exists()
    assert (tmp_path / "window_predicted.pgm").exists()


def test_run_subcommand_deterministic(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(tiny_args("run", out1, ["--seed", "9"])) == EXIT_OK
    assert main(tiny_args("run", out2, ["--seed", "9"])) == EXIT_OK
    for name in ("trace.csv", "window_actual.pgm", "window_predicted.pgm"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compare_subcommand_writes_summary_and_traces(tmp_path):
    code = main(tiny_args("compare", tmp_path, ["--seeds", "1,2"]))
    assert code == EXIT_OK
    assert (tmp_path / "summary.csv").exists()
    for kind in ControllerKind:
        for seed in (1, 2):
            assert (tmp_path / f"trace_{kind.value}_{seed}.csv").exists()


def test_run_missing_image_is_io_error(tmp_path, capsys):
    code = main(tiny_args("run", tmp_path, ["--image", "/nonexistent/x.pgm"]))
    assert code == cli.EXIT_IO


def test_run_malformed_image_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7 nonsense")
    code = main(tiny_args("run", tmp_path, ["--image", str(bad)]))
    assert code == EXIT_RUNTIME


def test_validate_is_not_a_subcommand(capsys):
    assert main(["validate"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_run_rejects_bad_sigma(tmp_path, capsys, value):
    code = main(tiny_args("run", tmp_path, ["--sigma", value]))
    assert code == EXIT_USAGE
    assert "sigma" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("subcommand", ["run", "compare"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--steps", "0", "steps"),
        ("--hidden", "0", "hidden_count"),
        ("--camera", "0", "camera window"),
        ("--camera", "513", "synthetic scene"),
        ("--epsilon", "2", "epsilon"),
        ("--sigma", "nan", "sigma"),
        ("--window", "0", "window"),
        ("--em-window", "0", "em_window"),
    ],
)
def test_bad_flag_value_is_usage_error(tmp_path, capsys, subcommand, flag, value,
                                       message):
    extra = [flag, value] + (["--seeds", "1"] if subcommand == "compare" else [])
    out = tmp_path / "out"
    assert main(tiny_args(subcommand, out, extra)) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_scene_smaller_than_camera_is_usage_error(tmp_path, capsys):
    small = tmp_path / "small.pgm"
    small.write_bytes(b"P2 3 3 255 " + b"0 " * 9)
    code = main(tiny_args("run", tmp_path / "out", ["--image", str(small)]))
    assert code == EXIT_USAGE
    assert "smaller than the camera window" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()
    assert not (tmp_path / "out").exists()  # checked before the directory is made


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_compare_rejects_fewer_than_one_worker(tmp_path, capsys, monkeypatch,
                                               workers):
    ran = []
    monkeypatch.setattr(cli, "run_comparison", lambda *a, **k: ran.append(a))
    out = tmp_path / "out"
    code = main(tiny_args("compare", out, ["--seeds", "1", "--workers", workers]))
    assert code == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


def test_compare_rejects_repeated_seeds(tmp_path, capsys):
    code = main(tiny_args("compare", tmp_path, ["--seeds", "3,3"]))
    assert code == EXIT_USAGE
    assert "repeats" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


def test_compare_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(tiny_args("compare", out, ["--seeds=1,-2"])) == EXIT_USAGE
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_compare_scene_smaller_than_camera_names_each_failure(tmp_path, capsys):
    small = tmp_path / "small.pgm"
    small.write_bytes(b"P2 3 3 255 " + b"0 " * 9)
    code = main(tiny_args("compare", tmp_path / "out",
                          ["--seeds", "1,2", "--image", str(small)]))
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "failed cells: [" in err
    for kind in ControllerKind:
        for seed in (1, 2):
            assert (f"failed cell {kind.value}/{seed}: ConfigError: 3x3 image is "
                    "smaller than the camera window\n") in err
    # No cell ran, so no seed ranks any kind.
    rank_rows = (tmp_path / "out" / "summary.csv").read_text().split("\n\n")[1]
    assert rank_rows.splitlines()[1:] == ["1,,,,", "2,,,,"]


def test_compare_unreadable_image_is_io_error_before_any_output(tmp_path, capfd):
    missing = tmp_path / "missing.pgm"
    out = tmp_path / "out"
    code = main(tiny_args("compare", out, ["--seeds", "1,2", "--image", str(missing)]))
    assert code == cli.EXIT_IO
    assert str(missing) in capfd.readouterr().err
    assert not out.exists()


def test_compare_worker_that_dies_is_runtime_error(tmp_path, capfd, monkeypatch):
    import multiprocessing
    import os

    from visuomotor import harness

    real_run_lockstep = harness._run_lockstep

    def dying(config, controllers, world=None):
        if config.master_seed == 2:
            os._exit(9)  # as a worker the OOM killer ends
        return real_run_lockstep(config, controllers, world)

    monkeypatch.setattr(harness, "_run_lockstep", dying)
    code = main(tiny_args("compare", tmp_path / "out",
                          ["--seeds", "1,2", "--workers", "2"]))
    assert code == EXIT_RUNTIME
    err = capfd.readouterr().err
    assert "a worker process died" in err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_run_too_long_to_allocate_fails_like_compare(tmp_path, capsys):
    # numpy refuses the first 7 PiB request outright, so nothing is allocated.
    argv = ["run", "--steps", "1000000000000000", "--out", str(tmp_path)]
    assert main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("visuomotor: out of memory: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Package surface


def test_package_exposes_only_version_and_submodules():
    import visuomotor

    assert isinstance(visuomotor.__version__, str)
    public = {name for name in dir(visuomotor) if not name.startswith("_")}
    assert public <= {"cli", "controllers", "elm", "errors", "harness", "world"}
