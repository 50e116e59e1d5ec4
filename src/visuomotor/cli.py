"""Command-line front end: run one experiment, or compare controllers
over seeds. Results land as CSV traces, summary tables and PGM window
dumps."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from . import elm, world
from .controllers import ControllerKind
from .errors import ConfigError, VisuomotorError
from .harness import (
    SYNTHETIC_SOURCE,
    ComparisonResult,
    KindSummary,
    RunResult,
    default_config,
    initial_camera,
    load_world,
    run_comparison,
    run_experiment,
)
from .world import CameraState, MotorCommand, NoiseModel, WorldImage

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_IO = 3

OUT_DIR_ENV = "VISUOMOTOR_OUT"
ALL_KINDS = list(ControllerKind)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this tool reserves 2 for
    # runtime failures and reports usage problems as 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# default_config's keyword-only parameters, each with its flag and help.
# A flag's type and default are its parameter's default's.
_RUN_FLAGS = {
    "steps": ("--steps", None),
    "image_source": ("--image", "PGM path, or 'synthetic' for the built-in scene"),
    "sigma": ("--sigma", "sensor noise level"),
    "epsilon": ("--epsilon", "random-command probability"),
    "hidden_count": ("--hidden", "hidden neuron count"),
    "window": ("--window", "controller lookback window"),
    "em_window": ("--em-window", "sliding-mean width for learning progress"),
    "camera": ("--camera", "camera window side, in pixels"),
}
_DEFAULTS = {name: p.default
             for name, p in inspect.signature(default_config).parameters.items()}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    for name, (flag, text) in _RUN_FLAGS.items():
        default = _DEFAULTS[name]
        parser.add_argument(flag, type=type(default), default=default, help=text)
    parser.add_argument("--out", default=os.environ.get(OUT_DIR_ENV, "out"),
                        help=f"output directory (default: ${OUT_DIR_ENV} or ./out)")


def build_parser() -> _Parser:
    # Every experiment default comes from default_config's signature.
    parser = _Parser(prog="visuomotor", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--controller", choices=[k.value for k in ALL_KINDS],
                     default=_DEFAULTS["kind"].value)
    run.add_argument("--seed", type=int, default=_DEFAULTS["master_seed"])
    _add_run_flags(run)

    compare = sub.add_parser(
        "compare", help="run all four controllers over several seeds"
    )
    compare.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10",
                         help="comma-separated master seeds")
    compare.add_argument("--workers", type=int, default=1,
                         help="parallel processes for the comparison grid, "
                              "at most one per cell; each runs a contiguous "
                              "share of the seed-major cells, its cells of "
                              "each seed in lockstep")
    _add_run_flags(compare)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _config_from_args(args: argparse.Namespace, kind: str, seed: int):
    # argparse stores --em-window's value as args.em_window.
    return default_config(kind, seed, **{
        name: getattr(args, flag[2:].replace("-", "_"))
        for name, (flag, _) in _RUN_FLAGS.items()
    })


def _format_float(value: float) -> str:
    return format(value, ".9g")


def write_trace_csv(result: RunResult, path: str | Path) -> None:
    """One row per step: camera center, command code, prediction error.

    The bytes are ``csv.writer``'s: no field can need quoting, since every
    field is an integer, a command code or a formatted finite float.
    """
    half_w = result.config.window_w // 2
    half_h = result.config.window_h // 2
    # "%.9g" % e formats as format(e, ".9g") does, and "%d" as str does.
    # ``_value_`` is the code ``.value`` returns, read without the enum
    # property's Python-level lookup.
    rows = "".join([
        "%d,%d,%d,%s,%.9g\n" % (t, x + half_w, y + half_h, command._value_, error)
        for t, x, y, command, error in result.trace
    ])
    with open(path, "w", newline="\n") as handle:
        handle.write("t,cam_center_x,cam_center_y,cmd,error\n")
        handle.write(rows)


def write_summary(comparison: ComparisonResult, path: str | Path) -> None:
    """Per-kind medians, then a per-seed ranking table (best first).

    The medians' header is ``KindSummary``'s fields; a kind with no cell
    that ran has a blank row. A seed's rank row lists the kinds whose cell
    ran, padded with blanks to one column per kind.
    """
    columns = [f.name for f in dataclasses.fields(KindSummary)]
    kinds = comparison.kinds
    with open(path, "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for kind in kinds:
            row = comparison.summary.get(kind)
            medians = ([""] * (len(columns) - 1) if row is None else
                       [_format_float(getattr(row, name)) for name in columns[1:]])
            writer.writerow([kind.value] + medians)
        writer.writerow([])
        writer.writerow(["seed"] + [f"rank{i + 1}" for i in range(len(kinds))])
        for seed in comparison.seeds:
            ranked = [kind.value for kind in comparison.rankings[seed]]
            writer.writerow([seed] + ranked + [""] * (len(kinds) - len(ranked)))


def _write_pgm_p5(path: str | Path, gray: np.ndarray) -> None:
    """Write ``quantize``'s uint8 output as a binary PGM."""
    height, width = gray.shape
    header = f"P5\n{width} {height}\n255\n".encode()
    Path(path).write_bytes(header + gray.tobytes())


def render_frames(
    image: WorldImage,
    cam: CameraState,
    predicted: np.ndarray,
    path_prefix: str | Path,
) -> None:
    """Dump the camera window and its forecast side by side as PGM files.

    Writes ``<prefix>_actual.pgm`` and ``<prefix>_predicted.pgm``; the
    forecast is clamped to [0, 1] and quantized round-half-up.
    """
    predicted = np.asarray(predicted, dtype=float)
    if predicted.size != cam.pixel_count:
        raise VisuomotorError(
            f"predicted frame has {predicted.size} values, window needs "
            f"{cam.pixel_count}"
        )
    pixels = image.ensure(cam.top, cam.left, cam.height, cam.width)
    window = pixels[cam.top : cam.top + cam.height, cam.left : cam.left + cam.width]
    prefix = str(path_prefix)
    _write_pgm_p5(prefix + "_actual.pgm", world.quantize(window))
    _write_pgm_p5(
        prefix + "_predicted.pgm",
        world.quantize(predicted.reshape(cam.height, cam.width)),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, args.controller, args.seed)
    image = load_world(config)
    initial_camera(image, config)  # a scene the camera does not fit fails here
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(config, world=image)
    write_trace_csv(result, out_dir / "trace.csv")
    if not result.valid:
        print(f"run aborted after {len(result.trace)} steps: {result.failure}",
              file=sys.stderr)
        return EXIT_RUNTIME
    last = result.trace[-1]
    cam = CameraState(left=last.cam_x, top=last.cam_y,
                      width=config.window_w, height=config.window_h)
    frame = observe_clean(image, cam)
    forecast = elm.predict(
        result.elm_state, frame,
        np.array(world.command_to_velocity(MotorCommand.STAY), dtype=float),
    )
    render_frames(image, cam, forecast, out_dir / "window")
    metrics = result.metrics
    print(f"controller={args.controller} seed={args.seed} steps={config.steps}")
    print(f"final_error={_format_float(metrics.final_error)} "
          f"unique_positions={metrics.unique_positions} "
          f"bbox_area={metrics.bbox_area} "
          f"stay_fraction={_format_float(metrics.stay_fraction)}")
    print(f"trace: {out_dir / 'trace.csv'}")
    return EXIT_OK


def observe_clean(image: WorldImage, cam: CameraState) -> np.ndarray:
    """Noise-free window read (rendering helper)."""
    return world.observe(
        image, cam, NoiseModel(sigma=0.0), np.random.default_rng(0)
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad --seeds value {args.seeds!r}") from None
    if not seeds:
        raise ConfigError("--seeds needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"--seeds repeats a seed: {args.seeds!r}")
    if min(seeds) < 0:
        raise ConfigError(f"--seeds needs non-negative seeds: {args.seeds!r}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    base = _config_from_args(args, ControllerKind.RM, seeds[0])
    # An unreadable scene fails every cell alike, so it fails up front, as
    # in `run`; a malformed or too small one still fails per cell.
    if base.image_source != SYNTHETIC_SOURCE:
        open(base.image_source, "rb").close()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    comparison = run_comparison(base, ALL_KINDS, seeds, workers=args.workers)
    for (kind, seed), result in comparison.results.items():
        write_trace_csv(result, out_dir / f"trace_{kind.value}_{seed}.csv")
    write_summary(comparison, out_dir / "summary.csv")
    failed = {(kind.value, seed): r.failure
              for (kind, seed), r in comparison.results.items() if not r.valid}
    for kind, summary in comparison.summary.items():
        print(f"{kind.value}: median_final_error="
              f"{_format_float(summary.median_final_error)} "
              f"median_unique_positions={summary.median_unique_positions:g} "
              f"median_bbox_area={summary.median_bbox_area:g} "
              f"median_stay_fraction={summary.median_stay_fraction:.3f}")
    print(f"summary: {out_dir / 'summary.csv'}")
    if failed:
        print(f"failed cells: {list(failed)}", file=sys.stderr)
        for (kind, seed), failure in failed.items():
            reason = failure.partition("\n")[0]
            print(f"failed cell {kind}/{seed}: {reason}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        if args.subcommand == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except OSError as exc:
        print(f"visuomotor: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:  # bad flag values, or a scene they cannot fit
        print(f"visuomotor: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VisuomotorError as exc:
        print(f"visuomotor: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except BrokenExecutor:  # a pool worker killed, say by the OOM killer
        print("visuomotor: a worker process died", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
