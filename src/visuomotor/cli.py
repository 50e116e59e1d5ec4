"""Command-line front end: run one experiment, or compare controllers
over seeds. Results land as CSV traces, summary tables and PGM window
dumps."""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from . import elm, world
from .controllers import ControllerKind
from .errors import ConfigError, VisuomotorError
from .harness import (
    ComparisonResult,
    ExperimentConfig,
    RunResult,
    default_config,
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


def _add_run_flags(parser: argparse.ArgumentParser,
                   defaults: ExperimentConfig) -> None:
    parser.add_argument("--steps", type=int, default=defaults.steps)
    parser.add_argument("--image", default=defaults.image_source,
                        help="PGM path, or 'synthetic' for the built-in scene")
    parser.add_argument("--sigma", type=float, default=defaults.noise.sigma,
                        help="sensor noise level")
    parser.add_argument("--epsilon", type=float,
                        default=defaults.controller.epsilon,
                        help="random-command probability")
    parser.add_argument("--hidden", type=int, default=defaults.hidden_count,
                        help="hidden neuron count")
    parser.add_argument("--window", type=int, default=defaults.controller.window,
                        help="controller lookback window")
    parser.add_argument("--em-window", type=int,
                        default=defaults.controller.em_window,
                        help="sliding-mean width for learning progress")
    parser.add_argument("--camera", type=int, default=defaults.window_w,
                        help="camera window side, in pixels")
    parser.add_argument("--out", default=os.environ.get(OUT_DIR_ENV, "out"),
                        help=f"output directory (default: ${OUT_DIR_ENV} or ./out)")


def build_parser() -> _Parser:
    # Every experiment default comes from the config dataclasses.
    defaults = ExperimentConfig()
    parser = _Parser(prog="visuomotor", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--controller", choices=[k.value for k in ALL_KINDS],
                     default=defaults.controller.kind.value)
    run.add_argument("--seed", type=int, default=defaults.master_seed)
    _add_run_flags(run, defaults)

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
    _add_run_flags(compare, defaults)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _config_from_args(args: argparse.Namespace, kind: str, seed: int):
    return default_config(
        kind,
        seed,
        steps=args.steps,
        sigma=args.sigma,
        image_source=args.image,
        epsilon=args.epsilon,
        hidden_count=args.hidden,
        window=args.window,
        em_window=args.em_window,
        camera=args.camera,
    )


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
    """Per-kind medians, then a per-seed ranking table (best first)."""
    with open(path, "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([
            "kind", "median_final_error", "median_unique_positions",
            "median_bbox_area", "median_stay_fraction",
        ])
        for kind in comparison.kinds:
            row = comparison.summary.get(kind)
            if row is None:
                writer.writerow([kind.value, "", "", "", ""])
                continue
            writer.writerow([
                kind.value,
                _format_float(row.median_final_error),
                _format_float(row.median_unique_positions),
                _format_float(row.median_bbox_area),
                _format_float(row.median_stay_fraction),
            ])
        writer.writerow([])
        writer.writerow(
            ["seed"] + [f"rank{i + 1}" for i in range(len(comparison.kinds))]
        )
        for seed in comparison.seeds:
            writer.writerow(
                [seed] + [kind.value for kind in comparison.rankings[seed]]
            )


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
    window = image.pixels[cam.top : cam.top + cam.height,
                          cam.left : cam.left + cam.width]
    prefix = str(path_prefix)
    _write_pgm_p5(prefix + "_actual.pgm", world.quantize(window))
    _write_pgm_p5(
        prefix + "_predicted.pgm",
        world.quantize(predicted.reshape(cam.height, cam.width)),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, args.controller, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    image = load_world(config)
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
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    base = _config_from_args(args, ControllerKind.RM, seeds[0])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    comparison = run_comparison(base, ALL_KINDS, seeds, workers=args.workers)
    for (kind, seed), result in comparison.results.items():
        write_trace_csv(result, out_dir / f"trace_{kind.value}_{seed}.csv")
    write_summary(comparison, out_dir / "summary.csv")
    failed = [(kind.value, seed) for (kind, seed), r in comparison.results.items()
              if not r.valid]
    for kind, summary in comparison.summary.items():
        print(f"{kind.value}: median_final_error="
              f"{_format_float(summary.median_final_error)} "
              f"median_unique_positions={summary.median_unique_positions:g} "
              f"median_bbox_area={summary.median_bbox_area:g} "
              f"median_stay_fraction={summary.median_stay_fraction:.3f}")
    print(f"summary: {out_dir / 'summary.csv'}")
    if failed:
        print(f"failed cells: {failed}", file=sys.stderr)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
