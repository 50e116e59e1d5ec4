"""Tests for the closed-loop runner, metrics and comparisons.

Full-scale behaviour is covered by the acceptance suite; these tests
use small camera windows so each run takes milliseconds.
"""

import collections
import dataclasses
import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from visuomotor import harness
from visuomotor.controllers import ControllerConfig, ControllerKind, ErrorHistory, choose_action
from visuomotor.errors import ConfigError, NumericError
from visuomotor.harness import (
    NOISE_BLOCK_FRAMES,
    ExperimentConfig,
    StepRecord,
    compute_metrics,
    default_config,
    initial_camera,
    load_world,
    run_comparison,
    run_experiment,
)
from visuomotor.elm import (
    ElmConfig,
    forward,
    init_elm,
    predict,
    prediction_error,
    update_online,
)
from visuomotor.world import (
    COMMANDS,
    MotorCommand,
    NoiseModel,
    WorldImage,
    _TiledScene,
    apply_motor,
    command_to_velocity,
    observe,
    synthetic_image,
    to_pgm_p2,
)


def tiny_config(kind=ControllerKind.RM, seed=0, steps=50, sigma=0.01, **kwargs):
    kwargs.setdefault("camera", 4)
    kwargs.setdefault("hidden_count", 6)
    return default_config(kind, seed, steps=steps, sigma=sigma, **kwargs)


def record(t, x, y, cmd=MotorCommand.STAY, error=0.1):
    return StepRecord(t=t, cam_x=x, cam_y=y, command=cmd, error=error)


# ---------------------------------------------------------------------------
# Single runs


def test_single_step_run_contract():
    result = run_experiment(tiny_config(steps=1))
    assert result.valid
    assert len(result.trace) == 1
    assert result.elm_state.samples_seen == 1
    assert result.metrics is not None


def test_same_master_seed_gives_identical_runs():
    config = tiny_config(kind=ControllerKind.MAXLP, seed=42, steps=120)
    one = run_experiment(config)
    two = run_experiment(config)
    assert one.trace == two.trace
    assert one.elm_state.readout.tobytes() == two.elm_state.readout.tobytes()


def test_different_master_seeds_differ():
    a = run_experiment(tiny_config(seed=1, steps=60))
    b = run_experiment(tiny_config(seed=2, steps=60))
    assert a.trace != b.trace


def test_forced_stay_noise_free_error_collapses(monkeypatch):
    stay = COMMANDS.index(MotorCommand.STAY)
    monkeypatch.setattr(harness, "choose_code", lambda *args: stay)
    config = tiny_config(kind=ControllerKind.MINPE, seed=3, steps=60, sigma=0.0)
    result = run_experiment(config)
    errors = [r.error for r in result.trace]
    below = [i for i, e in enumerate(errors) if e < 1e-6]
    assert below and below[0] < 50
    assert all(e < 1e-6 for e in errors[50:])
    assert result.metrics.unique_positions == 1


def test_trace_positions_are_reachable_and_in_bounds():
    config = tiny_config(kind=ControllerKind.MAXPE, seed=9, steps=300)
    result = run_experiment(config)
    world = load_world(config)
    start = initial_camera(world, config)
    previous = (start.left, start.top)
    for step in result.trace:
        dx = abs(step.cam_x - previous[0])
        dy = abs(step.cam_y - previous[1])
        assert dx + dy <= 1
        assert 0 <= step.cam_x <= world.width - config.window_w
        assert 0 <= step.cam_y <= world.height - config.window_h
        previous = (step.cam_x, step.cam_y)


def test_error_curve_finite_for_all_controllers():
    for kind in ControllerKind:
        result = run_experiment(tiny_config(kind=kind, seed=5, steps=200))
        assert result.valid
        assert math.isfinite(result.metrics.final_error)


def test_world_and_elm_init_shared_across_controllers():
    # Only the control policy may differ between kinds at a fixed seed.
    rm = run_experiment(tiny_config(kind=ControllerKind.RM, seed=8, steps=2))
    minpe = run_experiment(tiny_config(kind=ControllerKind.MINPE, seed=8, steps=2))
    assert np.array_equal(
        load_world(rm.config).pixels, load_world(minpe.config).pixels
    )
    assert np.array_equal(
        rm.elm_state.hidden_weights, minpe.elm_state.hidden_weights
    )


def test_elm_seed_derived_from_master_seed():
    config = tiny_config(seed=77, steps=1)
    result = run_experiment(config)
    elm_seed = harness._derived_seeds(77)[0]
    from dataclasses import replace

    from visuomotor.elm import init_elm

    reference = init_elm(replace(config.elm, seed=elm_seed))
    assert np.array_equal(result.elm_state.hidden_weights, reference.hidden_weights)


def test_replaying_history_reproduces_non_random_commands():
    for kind, first_decided in [
        (ControllerKind.MINPE, 1),
        (ControllerKind.MAXPE, 1),
        (ControllerKind.MAXLP, 2),
    ]:
        config = tiny_config(kind=kind, seed=11, steps=150, epsilon=0.0)
        result = run_experiment(config)
        cfg = result.config.controller
        history = ErrorHistory(capacity=cfg.window + cfg.em_window)
        for step in result.trace:
            if step.t >= first_decided:
                replayed = choose_action(kind, history, cfg, np.random.default_rng(0))
                assert replayed == step.command, f"{kind} diverged at t={step.t}"
            history.append(step.t, step.command, step.error)


def test_numeric_failure_flags_partial_trace(monkeypatch):
    calls = {"n": 0}
    real = harness.rls_update

    def failing(state, work, residual, h):
        calls["n"] += 1
        if calls["n"] >= 5:
            raise NumericError("synthetic failure")
        return real(state, work, residual, h)

    monkeypatch.setattr(harness, "rls_update", failing)
    result = run_experiment(tiny_config(steps=20))
    assert not result.valid
    assert "synthetic failure" in result.failure
    assert len(result.trace) == 4
    assert result.metrics is not None


def nan_forecast_at(monkeypatch, step):
    """Make the forecast of closed-loop step ``step`` all NaN: the loop
    makes one forecast per run and step, whatever the controller."""
    calls = {"n": 0}
    real = harness.forecast_into

    def corrupting(state, h, out):
        real(state, h, out)
        calls["n"] += 1
        if calls["n"] == step + 1:
            out[:] = np.nan

    monkeypatch.setattr(harness, "forecast_into", corrupting)


def test_non_finite_error_ends_run_cleanly(monkeypatch):
    nan_forecast_at(monkeypatch, 6)
    result = run_experiment(tiny_config(steps=20))
    assert not result.valid
    assert "nan" in result.failure and "step 6" in result.failure
    assert len(result.trace) == 6
    assert result.metrics is not None
    # The bad sample was not trained on.
    assert result.elm_state.samples_seen == 6
    assert np.all(np.isfinite(result.elm_state.readout))


def test_cli_run_with_non_finite_error_is_runtime_error(monkeypatch, tmp_path, capsys):
    from visuomotor import cli

    nan_forecast_at(monkeypatch, 3)
    argv = ["run", "--steps", "10", "--camera", "4", "--hidden", "5",
            "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_RUNTIME
    assert "run aborted after 3 steps" in capsys.readouterr().err
    assert (tmp_path / "trace.csv").read_text().count("\n") == 4


def test_cli_run_loads_the_scene_once(monkeypatch, tmp_path):
    from visuomotor import cli

    loads = []

    def counting(config):
        loads.append(config.master_seed)
        return load_world(config)

    monkeypatch.setattr(harness, "load_world", counting)
    monkeypatch.setattr(cli, "load_world", counting)
    argv = ["run", "--steps", "5", "--camera", "4", "--hidden", "5",
            "--seed", "3", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert loads == [3]


def test_cli_compare_loads_each_seeds_scene_once(monkeypatch, tmp_path):
    from visuomotor import cli

    loads = []

    def counting(config):
        loads.append(config.master_seed)
        return load_world(config)

    monkeypatch.setattr(harness, "load_world", counting)
    monkeypatch.setattr(cli, "load_world", counting)
    argv = ["compare", "--steps", "5", "--camera", "4", "--hidden", "5",
            "--seeds", "1,2", "--workers", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    # Once per seed, not once per (controller, seed) cell.
    assert loads == [1, 2]


@pytest.fixture
def filled_area(monkeypatch):
    """The areas of the synthetic-scene tile fills made while it is in use."""
    from visuomotor import world

    areas = []
    real_raw_field = world._raw_field

    def counting(waves, rows, cols):
        field = real_raw_field(waves, rows, cols)
        if field.ndim == 2:  # a fill; the extremes' candidates come as a list
            areas.append(field.size)
        return field

    monkeypatch.setattr(world, "_raw_field", counting)
    return areas


def test_rm_run_fills_under_a_quarter_of_the_synthetic_scene(filled_area):
    result = run_experiment(default_config(ControllerKind.RM, 1, camera=8))
    assert result.valid and len(result.trace) == 5000
    assert 0 < sum(filled_area) < 512 * 512 / 4


def test_cli_run_does_not_fill_the_whole_scene(filled_area, tmp_path):
    from visuomotor import cli

    argv = ["run", "--controller", "rm", "--steps", "300", "--camera", "8",
            "--hidden", "5", "--seed", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert 0 < sum(filled_area) < 512 * 512 / 4


def test_each_reactive_step_ensures_its_new_window(monkeypatch):
    # Two blocks of each move in turn: out 32 pixels right, then down, and
    # back.
    moves = iter([MotorCommand.RIGHT] * 32 + [MotorCommand.DOWN] * 32
                 + [MotorCommand.LEFT] * 32 + [MotorCommand.UP] * 32)
    monkeypatch.setattr(harness, "choose_code", lambda *args: COMMANDS.index(next(moves)))
    asked = []
    real_ensure = _TiledScene.ensure

    def recording(image, top, left, height, width):
        asked.append((top, left, height, width))
        return real_ensure(image, top, left, height, width)

    monkeypatch.setattr(_TiledScene, "ensure", recording)
    config = tiny_config(kind=ControllerKind.MINPE, steps=128, camera=4)
    result = run_experiment(config)
    xs = [254] + [r.cam_x for r in result.trace]  # from the centre of 512
    ys = [254] + [r.cam_y for r in result.trace]
    assert max(xs) == max(ys) == 254 + 32 and (xs[-1], ys[-1]) == (254, 254)
    # The start window, before the loop, then one call per step: exactly
    # the window the step moved to.
    assert asked == [(y, x, 4, 4) for x, y in zip(xs, ys)]


def touched_tiles(scene, start, trace, camera):
    """The tiles of a synthetic ``scene`` that the windows at ``start`` and
    along ``trace`` touch."""
    from visuomotor import world

    touched = np.zeros_like(scene._filled)
    xs = [start.left] + [r.cam_x for r in trace]
    ys = [start.top] + [r.cam_y for r in trace]
    for x, y in zip(xs, ys):
        touched[y // world._TILE : (y + camera - 1) // world._TILE + 1,
                x // world._TILE : (x + camera - 1) // world._TILE + 1] = True
    return touched


@pytest.mark.parametrize("camera, trace_hash", [
    (8, "cebf2ab5645901aa70d87a55c86bcb9f74e83a050527c9a069e4fa78323c2137"),
    (32, "11483ef0d8e56cb9ddccb0ebd8ab62ccc66d04302b5b88be58e7415e21dd6988"),
])
def test_babbling_run_fills_only_the_tiles_its_windows_touch(
    monkeypatch, camera, trace_hash
):
    # A babbling run's block knows its positions, so it asks for their
    # windows' bounding box, once per block, and no more of the scene.
    asked = []
    real_ensure = _TiledScene.ensure

    def recording(image, top, left, height, width):
        asked.append((top, left, height, width))
        return real_ensure(image, top, left, height, width)

    monkeypatch.setattr(_TiledScene, "ensure", recording)
    config = default_config(ControllerKind.RM, 1, camera=camera)
    scene = load_world(config)
    result = run_experiment(config, world=scene)
    # Recorded before the blocks asked for less.
    assert trace_sha256(result.trace) == trace_hash
    assert len(asked) == 1 + math.ceil(config.steps / harness._BLOCK_STEPS)
    start = initial_camera(scene, config)
    xs = [start.left] + [r.cam_x for r in result.trace]
    ys = [start.top] + [r.cam_y for r in result.trace]
    blocks = asked[1:]  # the first call is the start window, before the loop
    for t in range(config.steps):
        top, left, height, width = blocks[t // harness._BLOCK_STEPS]
        for x, y in ((xs[t], ys[t]), (xs[t + 1], ys[t + 1])):
            assert left <= x and x + camera <= left + width
            assert top <= y and y + camera <= top + height
    touched = touched_tiles(scene, start, result.trace, camera)
    assert np.array_equal(scene._filled, touched)


# Recorded while a reactive run still asked, at each noise block's start,
# for all the scene the block's steps could reach.
@pytest.mark.parametrize("kind, camera, trace_hash", [
    ("minpe", 8, "6d8250b4a3a7b1df3e5bebcb5bd3950046dc44a18b77a0446d87689c26f9fdff"),
    ("maxpe", 8, "2e24fe8645e6d3d474a5daca4a9f4d5180c672a6b67e304abf846493bd69e44e"),
    ("maxlp", 8, "668fff494b740bb852871233b88423503aea3284a8b6c97da38103cf8d1eb3fb"),
    ("minpe", 32, "a216eb7c19c2559c8c1af5fb59a1895d902c0c1769a6801c47ec7239fcf26862"),
    ("maxpe", 32, "d5f5b3291119756c81480b1c05bd96434bb9e8c2cbcdebcbc1bd7c74f5cb8ac5"),
    ("maxlp", 32, "eeb1436d1d1a1c10191551d9e57bcc9ebe0c5021e14e1d039a565da582261fcf"),
])
def test_reactive_run_fills_only_the_tiles_its_windows_touch(kind, camera, trace_hash):
    config = default_config(ControllerKind(kind), 1, camera=camera)
    scene = load_world(config)
    result = run_experiment(config, world=scene)
    assert trace_sha256(result.trace) == trace_hash
    touched = touched_tiles(scene, initial_camera(scene, config), result.trace, camera)
    assert np.array_equal(scene._filled, touched)


def test_lockstep_group_fills_only_the_tiles_its_runs_touch(monkeypatch):
    # The four runs of a seed share one scene and interleave their asks.
    scenes = []

    def loading(config):
        scenes.append(load_world(config))
        return scenes[-1]

    monkeypatch.setattr(harness, "load_world", loading)
    config = default_config(ControllerKind.RM, 1, camera=32)
    comparison = run_comparison(config, list(ControllerKind), [1])
    [scene] = scenes
    start = initial_camera(scene, config)
    touched = np.zeros_like(scene._filled)
    for result in comparison.results.values():
        assert result.valid
        touched |= touched_tiles(scene, start, result.trace, 32)
    assert np.array_equal(scene._filled, touched)


# Every read must find its pixels filled. The tile counts above cannot see
# a read made before its ensure in the same step; a scene whose unfilled
# pixels are NaN can, since a NaN read reaches the trace or aborts the run.
NAN_SCENE_STEPS = 1500


def nan_scene(config):
    """``load_world(config)``, a fresh synthetic scene, with every pixel NaN
    until its tile is filled."""
    scene = load_world(config)
    assert not scene._filled.any()
    scene._buffer[...] = np.nan
    return scene


@pytest.mark.parametrize("camera", [8, 32])
@pytest.mark.parametrize("kind", list(ControllerKind))
def test_run_reads_only_filled_pixels(kind, camera):
    config = default_config(kind, 1, steps=NAN_SCENE_STEPS, camera=camera)
    clean = run_experiment(config)
    result = run_experiment(config, world=nan_scene(config))
    assert result.valid
    assert_same_run(result, clean.trace, clean.elm_state)


def test_lockstep_group_reads_only_filled_pixels():
    config = default_config(ControllerKind.RM, 1, steps=NAN_SCENE_STEPS, camera=32)
    controllers = [default_config(kind, 1).controller for kind in ControllerKind]
    clean = harness._run_lockstep(config, controllers)
    cells = harness._run_lockstep(config, controllers, nan_scene(config))
    for clean_cell, cell in zip(clean, cells):
        columns, state, failure = harness._outcome(cell)
        clean_columns, clean_state, _ = harness._outcome(clean_cell)
        assert failure is None
        assert [c.tobytes() for c in columns] == [c.tobytes() for c in clean_columns]
        assert state.readout.tobytes() == clean_state.readout.tobytes()


def test_cli_run_reads_only_filled_pixels(monkeypatch, tmp_path, capsys):
    from visuomotor import cli

    def run(out):
        argv = ["run", "--controller", "maxlp", "--steps", str(NAN_SCENE_STEPS),
                "--camera", "8", "--seed", "1", "--out", str(tmp_path / out)]
        assert cli.main(argv) == cli.EXIT_OK
        return capsys.readouterr().out.replace(str(tmp_path / out), "OUT")

    clean = run("clean")
    monkeypatch.setattr(cli, "load_world", nan_scene)
    assert run("nan") == clean
    names = sorted(p.name for p in (tmp_path / "clean").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "nan").iterdir())
    for name in names:
        assert ((tmp_path / "nan" / name).read_bytes()
                == (tmp_path / "clean" / name).read_bytes())


def test_given_world_matches_loaded_world():
    config = tiny_config(kind=ControllerKind.MINPE, seed=12, steps=40)
    given = run_experiment(config, world=load_world(config))
    assert given.trace == run_experiment(config).trace


def trace_sha256(trace):
    digest = hashlib.sha256()
    for r in trace:
        digest.update(
            f"{r.t},{r.cam_x},{r.cam_y},{r.command.value},{float.hex(r.error)}\n"
            .encode()
        )
    return digest.hexdigest()


# Recorded before the closed loop was fused (one hidden-layer pass per
# step, in-place RLS, one-pass MaxLP); any change to the arithmetic or to
# the order of random draws changes them.
PINNED_TRACE_HASHES = {
    ("rm", 1): "66d5adce043b10029ffd75651f1064aeb052e887bf0d23dfaa240e9481fa4b59",
    ("rm", 2): "a37a0f1519ad9cd17828d753a4c33f831127e0551db61eb13af08bbd73be33b4",
    ("minpe", 1): "035e3c4e6b430d3d59b9366a412eb9b844be52157b90c89ca093196f0f57843e",
    ("minpe", 2): "4a961e68e380f11d9e94944000c6aedc50dbd34a3bfb7ea0cc357b77fcdd7fb3",
    ("maxpe", 1): "281a69594fdba3c5d8222b199d1e0ab00fae736030ce555d67468b7ce750b92c",
    ("maxpe", 2): "a7e59449e75a844786ed7648603d5e058dafcdb71f1e17adadbfb32fe37694dd",
    ("maxlp", 1): "64309eba37c6f6a7d0e8e605e6797f9e55a8786687dc127f8e305a2f07686e66",
    ("maxlp", 2): "668ea88a148c3900b01534cfe4fdaaee4aae8dcd2849898533ccc904ade0b521",
}


@pytest.mark.parametrize("seed", [1, 2])
def test_traces_bit_identical_to_pinned_hashes(seed):
    configs = [
        default_config(kind, seed, steps=300, camera=8, hidden_count=10)
        for kind in ControllerKind
    ]
    world = load_world(configs[0])  # the scene depends on the seed alone
    for kind, config in zip(ControllerKind, configs):
        result = run_experiment(config, world=world)
        assert trace_sha256(result.trace) == PINNED_TRACE_HASHES[(kind.value, seed)], kind


# ---------------------------------------------------------------------------
# The fused loop against the public per-step functions


NOISE_BLOCK_STEPS = NOISE_BLOCK_FRAMES // 2


def reference_run(config, world):
    """``run_experiment`` rebuilt from the public, allocating functions, one
    call per stage, as ``benchmarks/traced.py`` rebuilds it."""
    elm_seed, noise_seed, controller_seed, _ = harness._derived_seeds(
        config.master_seed
    )
    noise_rng = np.random.default_rng(noise_seed)
    controller_rng = np.random.default_rng(controller_seed)
    cam = initial_camera(world, config)
    state = init_elm(dataclasses.replace(config.elm, seed=elm_seed))
    cfg = config.controller
    history = ErrorHistory(capacity=cfg.window + cfg.em_window)
    trace = []
    for t in range(config.steps):
        frame = observe(world, cam, config.noise, noise_rng)
        command = choose_action(cfg.kind, history, cfg, controller_rng)
        velocity = command_to_velocity(command)
        forecast = predict(state, frame, velocity)
        cam = apply_motor(world, cam, command)
        next_frame = observe(world, cam, config.noise, noise_rng)
        error = prediction_error(forecast, next_frame)
        state = update_online(state, (np.concatenate([frame, velocity]), next_frame))
        history.append(t, command, error)
        trace.append(record(t, cam.left, cam.top, command, error))
    return trace, state


def wide_config(kind, steps, sigma, seed=4):
    """A 6x4 camera and short controller windows, so that the policies act
    within a few steps."""
    return ExperimentConfig(
        steps=steps,
        hidden_count=5,
        controller=ControllerConfig(kind=kind, window=6, em_window=3),
        noise=NoiseModel(sigma=sigma),
        window_w=6,
        window_h=4,
        master_seed=seed,
    )


# The camera can take 4 positions across and 4 down, so moves often hit
# the border.
SMALL_SCENE = synthetic_image(9, 7, seed=5)


def assert_same_run(result, trace, state):
    assert result.trace == trace
    assert trace_sha256(result.trace) == trace_sha256(trace)  # signs of zeros too
    assert result.elm_state.readout.tobytes() == state.readout.tobytes()
    assert result.elm_state.inv_gram.tobytes() == state.inv_gram.tobytes()
    assert result.elm_state.samples_seen == state.samples_seen == len(trace)


@pytest.mark.parametrize("steps", [
    1, NOISE_BLOCK_STEPS - 1, NOISE_BLOCK_STEPS, NOISE_BLOCK_STEPS + 1,
    2 * NOISE_BLOCK_STEPS + 3, 5 * NOISE_BLOCK_STEPS + 3,
])
@pytest.mark.parametrize("sigma", [0.01, 0.0])
@pytest.mark.parametrize("kind", list(ControllerKind))
def test_run_matches_loop_of_public_functions(kind, sigma, steps):
    config = wide_config(kind, steps, sigma)
    result = run_experiment(config, world=SMALL_SCENE)
    assert result.valid
    assert_same_run(result, *reference_run(config, SMALL_SCENE))


def signed_zero_scene():
    """SMALL_SCENE with a band of -0.0 columns and a row of +0.0 that every
    6x4 window of it covers."""
    pixels = SMALL_SCENE.pixels.copy()
    pixels[:, 3:6] = -0.0
    pixels[3] = 0.0
    return WorldImage(pixels)


@pytest.mark.parametrize("kind", list(ControllerKind))
def test_noise_free_run_matches_reference_on_signed_zero_pixels(kind):
    # Without noise the loop and observe sense each pixel plus +0, which
    # turns a -0.0 pixel into +0.0.
    scene = signed_zero_scene()
    negative = np.signbit(scene.pixels)
    assert negative.any() and (scene.pixels[~negative] == 0.0).any()
    config = wide_config(kind, 2 * NOISE_BLOCK_STEPS + 3, 0.0)
    result = run_experiment(config, world=scene)
    assert result.valid
    assert_same_run(result, *reference_run(config, scene))


def test_small_scene_makes_moves_hit_the_border():
    # RM fills a noise block's rows ahead, clamping the block's whole path
    # at its start, so the runs above must see the border stop a move
    # inside a block, not only at a block's first step.
    for steps in (2 * NOISE_BLOCK_STEPS + 3, 5 * NOISE_BLOCK_STEPS + 3):
        config = wide_config(ControllerKind.RM, steps, 0.01)
        trace, _ = reference_run(config, SMALL_SCENE)
        start = initial_camera(SMALL_SCENE, config)
        positions = [(start.left, start.top)] + [(r.cam_x, r.cam_y) for r in trace]
        blocked = [
            r.t for r, before in zip(trace, positions)
            if r.command is not MotorCommand.STAY and (r.cam_x, r.cam_y) == before
        ]
        assert any(t % NOISE_BLOCK_STEPS for t in blocked)


def scalar_walk(start, moves, upper):
    path = [start]
    for move in moves:
        path.append(min(max(path[-1] + move, 0), upper))
    return path


@pytest.mark.parametrize("upper", [0, 1, 3, 15, 16, 17, 33, 40, 504])
def test_clamped_walk_equals_one_clamped_move_at_a_time(upper):
    rng = np.random.default_rng(upper)
    walks = [rng.integers(-1, 2, length) for length in (0, 1, 2, 300, 3000)]
    # Straight runs reach each bound exactly.
    walks += [np.repeat([-1, 1, 0, 1, -1], 60), np.repeat([1, -1], 600)]
    # From a start on a bound, the first move points outward.
    walks += [np.array([-1, 1, 1]), np.array([1, -1, -1])]
    for start in sorted({0, upper // 2, upper}):
        up, down = np.ones(upper - start + 1, int), -np.ones(start + 1, int)
        # The sum leaves the range only at its last move, or leaves it and
        # comes back, so that the walk was clamped though it ends in range.
        for moves in walks + [up, down, np.r_[up, -up], np.r_[down, -down]]:
            path = harness._clamped_walk(start, moves, upper)
            assert path.tolist() == scalar_walk(start, moves.tolist(), upper)


def test_babbling_path_in_a_mid_sized_scene_matches_reference():
    # In a 38x38 scene a 4x4 camera starts 17 cells from each border: the
    # path meets a border, so it is clamped move by move, and must equal
    # the reference loop's, step by step.
    scene = synthetic_image(38, 38, seed=2)
    for sigma in (0.01, 0.0):
        config = dataclasses.replace(
            tiny_config(seed=6, steps=900, sigma=sigma), hidden_count=5
        )
        trace, state = reference_run(config, scene)
        assert any({r.cam_x, r.cam_y} & {0, 34} for r in trace)
        assert_same_run(run_experiment(config, world=scene), trace, state)


def test_babbling_runs_never_call_choose_code(monkeypatch):
    calls = []
    real = harness.choose_code

    def spy(kind, codes, errors, cfg, rng):
        calls.append(kind)
        return real(kind, codes, errors, cfg, rng)

    monkeypatch.setattr(harness, "choose_code", spy)
    assert run_experiment(tiny_config(steps=40)).valid
    assert calls == []
    kinds = [ControllerKind.RM, ControllerKind.MINPE]
    run_comparison(tiny_config(steps=40), kinds, [1])
    assert calls == [ControllerKind.MINPE] * 40


def abort_cases():
    """(failure, kind, abort_at, sigma) over a run of 2 blocks + 3 steps:
    inside the second block, at its first step, and inside the short final
    block. The case inside the second block at sigma 0.01 has the short id
    ``[rm-]failure``."""
    places = [("inside", NOISE_BLOCK_STEPS + 2), ("first", NOISE_BLOCK_STEPS),
              ("final", 2 * NOISE_BLOCK_STEPS + 1)]
    for kind in (ControllerKind.MAXLP, ControllerKind.RM):
        for failure in ("nan_forecast", "rls_update"):
            for where, abort_at in places:
                for sigma in (0.01, 0.0):
                    if (where, sigma) == ("inside", 0.01):
                        name = ("rm-" if kind is ControllerKind.RM else "") + failure
                    else:
                        name = f"{kind.value}-{failure}-{where}-sigma{sigma:g}"
                    yield pytest.param(failure, kind, abort_at, sigma, id=name)


@pytest.mark.parametrize("failure, kind, abort_at, sigma", list(abort_cases()))
def test_abort_inside_a_noise_block_returns_reference_prefix(
    monkeypatch, failure, kind, abort_at, sigma
):
    # The failure is injected at step abort_at's forecast or RLS update,
    # which every controller makes once per step.
    if failure == "nan_forecast":
        nan_forecast_at(monkeypatch, abort_at)
    else:
        real = harness.rls_update
        calls = {"n": 0}

        def failing(state, work, residual, h):
            calls["n"] += 1
            if calls["n"] == abort_at + 1:
                raise NumericError("synthetic failure")
            real(state, work, residual, h)

        monkeypatch.setattr(harness, "rls_update", failing)
    config = wide_config(kind, 2 * NOISE_BLOCK_STEPS + 3, sigma)
    result = run_experiment(config, world=SMALL_SCENE)
    assert not result.valid
    expected = "synthetic failure" if failure == "rls_update" else f"step {abort_at}"
    assert expected in result.failure
    assert len(result.trace) == abort_at
    reference = reference_run(dataclasses.replace(config, steps=abort_at), SMALL_SCENE)
    assert_same_run(result, *reference)


def test_saturating_logistic_is_silent(monkeypatch):
    # Weights in [-1001, -1000] on a mid-grey scene drive every W x + b
    # below -800, where the logistic's exp(-z) overflows to inf.
    scene = WorldImage(np.full((9, 10), 0.5))
    config = wide_config(ControllerKind.MAXLP, 20, 0.01)
    extreme = dict(weight_init_low=-1001.0, weight_init_high=-1000.0)
    monkeypatch.setattr(
        harness, "init_elm",
        lambda elm: init_elm(dataclasses.replace(elm, **extreme)),
    )
    state = harness.init_elm(config.elm)
    x = np.concatenate([np.full(24, 0.5), [1.0, 0.0]])
    z = state.hidden_weights @ x + state.hidden_bias
    assert z.max() < -800
    with pytest.warns(RuntimeWarning, match="overflow"):
        1.0 / (1.0 + np.exp(-z))  # the bare expression does warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, forecast = forward(state, x)
        assert forecast.tobytes() == predict(state, x[:24], x[24:]).tobytes()
        result = run_experiment(config, world=scene)
    assert np.all(h == 0.0)
    assert result.valid and len(result.trace) == 20
    assert result.elm_state.hidden_weights.max() <= -1000.0


def test_image_file_source(tmp_path):
    from visuomotor.world import load_image, synthetic_image

    image = synthetic_image(24, 24, seed=6)
    path = tmp_path / "scene.pgm"
    data = to_pgm_p2(image)
    path.write_bytes(data)
    config = tiny_config(steps=30, image_source=str(path))
    result = run_experiment(config)
    assert result.valid
    assert np.array_equal(load_world(config).pixels, load_image(data).pixels)


def test_camera_starts_centered():
    config = tiny_config(steps=1)
    world = load_world(config)
    cam = initial_camera(world, config)
    assert cam.left == (world.width - config.window_w) // 2
    assert cam.top == (world.height - config.window_h) // 2


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(steps=0)
    # The derived ELM config is built, and checked, at construction.
    with pytest.raises(ConfigError, match="hidden_count"):
        ExperimentConfig(hidden_count=0)
    # A camera larger than the synthetic scene fails at construction; a
    # file scene is only read, and checked, when a run loads it.
    with pytest.raises(ConfigError, match="does not fit the 512x512 synthetic scene"):
        ExperimentConfig(window_w=513)
    ExperimentConfig(window_w=513, image_source="scene.pgm")


def test_experiment_config_is_flat():
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "steps", "hidden_count", "controller", "noise", "image_source",
        "window_w", "window_h", "master_seed",
    ]


def test_elm_shape_follows_the_camera():
    config = ExperimentConfig(window_w=6, window_h=4)
    assert (config.elm.input_dim, config.elm.output_dim) == (26, 24)
    assert default_config(camera=8).elm.output_dim == 64
    # The height does not follow the width: only default_config squares it.
    assert ExperimentConfig(window_w=8).elm.output_dim == 8 * 32
    assert dataclasses.replace(config, hidden_count=7).elm.hidden_count == 7
    assert ExperimentConfig().elm == ElmConfig(
        input_dim=1026, output_dim=1024, hidden_count=30
    )
    with pytest.raises(AttributeError):
        config.elm = ElmConfig(input_dim=26, output_dim=24, hidden_count=30)


def test_default_config_is_the_config_default():
    assert default_config() == ExperimentConfig()


def test_default_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="xyz"):
        default_config("xyz")


def _float_config_fields():
    from visuomotor.elm import ElmConfig

    shapes = {ElmConfig: dict(input_dim=3, output_dim=1, hidden_count=2)}
    for cls in (NoiseModel, ControllerConfig, ElmConfig):
        for f in dataclasses.fields(cls):
            if f.type == "float":
                yield pytest.param(cls, shapes.get(cls, {}), f.name,
                                   id=f"{cls.__name__}.{f.name}")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls, shape, name", list(_float_config_fields()))
def test_float_config_fields_reject_non_finite(cls, shape, name, value):
    with pytest.raises(ConfigError):
        cls(**shape, **{name: value})


def test_every_float_config_field_is_covered():
    names = {p.id for p in _float_config_fields()}
    assert names == {
        "NoiseModel.sigma", "ControllerConfig.epsilon",
        "ElmConfig.weight_init_low", "ElmConfig.weight_init_high",
        "ElmConfig.bias_init_low", "ElmConfig.bias_init_high",
        "ElmConfig.online_init_scale",
    }


def test_window_must_fit_image(tmp_path):
    from visuomotor.world import synthetic_image

    path = tmp_path / "small.pgm"
    path.write_bytes(to_pgm_p2(synthetic_image(3, 3, seed=0)))
    config = tiny_config(steps=5, image_source=str(path))
    with pytest.raises(ConfigError):
        run_experiment(config)


# ---------------------------------------------------------------------------
# Metrics


def test_metrics_all_stay_trace():
    trace = [record(t, 7, 9) for t in range(20)]
    metrics = compute_metrics(trace)
    assert metrics.unique_positions == 1
    assert metrics.bbox_area == 1
    assert metrics.stay_fraction == 1.0


def test_metrics_walk_right():
    trace = [record(t, 3 + t, 2, cmd=MotorCommand.RIGHT) for t in range(11)]
    metrics = compute_metrics(trace)
    assert metrics.unique_positions == 11
    assert metrics.bbox_area == 11


def test_metrics_final_error_window():
    trace = [record(t, 0, 0, error=1.0) for t in range(150)]
    trace += [record(150 + t, 0, 0, error=0.5) for t in range(100)]
    metrics = compute_metrics(trace)
    assert metrics.final_error == pytest.approx(0.5)


def test_metrics_histogram_sums_to_steps():
    result = run_experiment(tiny_config(seed=13, steps=120))
    counts = collections.Counter(r.command for r in result.trace)
    assert result.metrics.stay_fraction == counts[MotorCommand.STAY] / 120


@pytest.mark.parametrize("seed", range(6))
def test_metrics_histogram_matches_counter(seed):
    rng = np.random.default_rng(seed)
    # Some traces leave some commands out; seed 5's leave out STAY.
    present = rng.choice(len(COMMANDS), size=rng.integers(1, 6), replace=False)
    commands = [COMMANDS[i] for i in rng.choice(present, size=rng.integers(1, 400))]
    trace = [record(t, 0, 0, cmd) for t, cmd in enumerate(commands)]
    counts = collections.Counter(commands)
    stay_share = counts[MotorCommand.STAY] / sum(counts.values())
    assert compute_metrics(trace).stay_fraction == stay_share


def test_metrics_empty_trace_rejected():
    with pytest.raises(ValueError):
        compute_metrics([])


# ---------------------------------------------------------------------------
# Comparisons


def test_comparison_shape_and_summary():
    base = tiny_config(steps=40)
    comparison = run_comparison(base, [ControllerKind.RM], [1, 2])
    assert len(comparison.results) == 2
    finals = [
        comparison.results[(ControllerKind.RM, seed)].metrics.final_error
        for seed in (1, 2)
    ]
    summary = comparison.summary[ControllerKind.RM]
    assert summary.median_final_error == pytest.approx(float(np.median(finals)))
    assert comparison.rankings[1] == [ControllerKind.RM]


def test_comparison_full_grid_rankings():
    base = tiny_config(steps=40)
    kinds = list(ControllerKind)
    comparison = run_comparison(base, kinds, [1, 2, 3])
    assert len(comparison.results) == 12
    for seed in (1, 2, 3):
        assert sorted(comparison.rankings[seed], key=lambda k: k.value) == sorted(
            kinds, key=lambda k: k.value
        )


def test_comparison_overrides_kind_and_seed():
    base = tiny_config(kind=ControllerKind.RM, seed=999, steps=30)
    comparison = run_comparison(base, [ControllerKind.MINPE], [4])
    result = comparison.results[(ControllerKind.MINPE, 4)]
    assert result.config.controller.kind == ControllerKind.MINPE
    assert result.config.master_seed == 4


def test_comparison_isolates_cell_failures(monkeypatch):
    real = harness.choose_code
    calls = {"n": 0}

    def raising_choice(kind, codes, errors, cfg, rng):
        if kind == ControllerKind.MAXPE:
            calls["n"] += 1
            if calls["n"] == NOISE_BLOCK_STEPS + 3:  # inside the second block
                raise RuntimeError("boom")
        return real(kind, codes, errors, cfg, rng)

    base = tiny_config(steps=30)
    solo = run_experiment(dataclasses.replace(base, master_seed=1))
    monkeypatch.setattr(harness, "choose_code", raising_choice)
    comparison = run_comparison(
        base, [ControllerKind.RM, ControllerKind.MAXPE], [1]
    )
    # The RM cell ran in lockstep with the raising one and did not notice.
    rm = comparison.results[(ControllerKind.RM, 1)]
    assert rm.valid
    assert_same_run(rm, solo.trace, solo.elm_state)
    failed = comparison.results[(ControllerKind.MAXPE, 1)]
    assert not failed.valid
    assert failed.trace == [] and failed.elm_state is None
    assert "boom" in failed.failure
    # The traceback survives and names the function that raised.
    assert "Traceback" in failed.failure
    assert "in raising_choice" in failed.failure
    assert ControllerKind.MAXPE not in comparison.summary
    # Only the cells that ran are ranked.
    assert comparison.rankings[1] == [ControllerKind.RM]


def test_run_experiment_raises_what_its_loop_raises(monkeypatch):
    def raising_choice(kind, codes, errors, cfg, rng):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "choose_code", raising_choice)
    with pytest.raises(RuntimeError, match="boom"):
        run_experiment(tiny_config(kind=ControllerKind.MINPE, steps=5))


def test_comparison_fails_every_cell_of_a_seed_whose_set_up_raises(tmp_path):
    small = tmp_path / "small.pgm"
    small.write_bytes(to_pgm_p2(synthetic_image(3, 3, seed=1)))
    base = tiny_config(steps=5, image_source=str(small))
    comparison = run_comparison(base, [ControllerKind.RM, ControllerKind.MINPE], [1, 2])
    for result in comparison.results.values():
        assert not result.valid and result.trace == []
        assert result.failure.startswith("ConfigError: 3x3 image is smaller")
        assert "Traceback" in result.failure


def test_comparison_parallel_matches_sequential():
    base = tiny_config(steps=30)
    kinds = [ControllerKind.RM, ControllerKind.MINPE]
    sequential = run_comparison(base, kinds, [1, 2], workers=1)
    parallel = run_comparison(base, kinds, [1, 2], workers=2)
    for cell, result in sequential.results.items():
        assert parallel.results[cell].trace == result.trace


@pytest.fixture(scope="module")
def small_scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "small.pgm"
    path.write_bytes(to_pgm_p2(SMALL_SCENE))
    return str(path)


def solo_run(base, kind, seed):
    return run_experiment(dataclasses.replace(
        base, master_seed=seed,
        controller=dataclasses.replace(base.controller, kind=kind),
    ))


@pytest.mark.parametrize("steps", [
    1, NOISE_BLOCK_STEPS - 1, NOISE_BLOCK_STEPS, NOISE_BLOCK_STEPS + 1,
    2 * NOISE_BLOCK_STEPS + 3,
])
@pytest.mark.parametrize("sigma", [0.0, 0.01])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_lockstep_grid_cells_equal_solo_runs(small_scene_file, workers, sigma, steps):
    # A fixed draw per case of a subset of the kinds and one to three seeds.
    pick = random.Random(f"{workers} {sigma} {steps}")
    kinds = pick.sample(list(ControllerKind), pick.randint(1, 4))
    seeds = pick.sample(range(1, 100), pick.randint(1, 3))
    base = dataclasses.replace(
        wide_config(ControllerKind.RM, steps, sigma), image_source=small_scene_file
    )
    comparison = run_comparison(base, kinds, seeds, workers=workers)
    assert list(comparison.results) == [(k, s) for k in kinds for s in seeds]
    for (kind, seed), result in comparison.results.items():
        assert result.valid
        solo = solo_run(base, kind, seed)
        assert_same_run(result, solo.trace, solo.elm_state)


def test_lockstep_cell_aborting_mid_block_leaves_its_group_unchanged(
    monkeypatch, small_scene_file
):
    steps, abort_at = 2 * NOISE_BLOCK_STEPS + 3, NOISE_BLOCK_STEPS + 2
    kinds = [ControllerKind.RM, ControllerKind.MINPE, ControllerKind.MAXLP]
    seeds = [1, 2]
    base = dataclasses.replace(
        wide_config(ControllerKind.RM, steps, 0.01), image_source=small_scene_file
    )
    solo = {(k, s): solo_run(base, k, s) for k in kinds for s in seeds}
    short = dataclasses.replace(base, steps=abort_at)
    aborted = solo_run(short, ControllerKind.MINPE, 2)
    # One worker runs seed 1's three cells, then seed 2's, one forecast of
    # each cell per step: seed 2's MinPE makes forecast
    # 3 * steps + 3 * abort_at + 2.
    nan_forecast_at(monkeypatch, 3 * steps + 3 * abort_at + 1)
    comparison = run_comparison(base, kinds, seeds, workers=1)
    for cell, result in comparison.results.items():
        if cell == (ControllerKind.MINPE, 2):
            assert not result.valid
            assert f"step {abort_at}" in result.failure
            assert_same_run(result, aborted.trace, aborted.elm_state)
        else:
            assert result.valid
            assert_same_run(result, solo[cell].trace, solo[cell].elm_state)


def test_lockstep_group_shares_the_hidden_layer_only():
    base = tiny_config(steps=20)
    comparison = run_comparison(base, [ControllerKind.RM, ControllerKind.MAXLP], [1])
    rm, maxlp = (comparison.results[(k, 1)].elm_state
                 for k in (ControllerKind.RM, ControllerKind.MAXLP))
    assert rm.hidden_weights is maxlp.hidden_weights
    assert not rm.hidden_weights.flags.writeable
    assert not np.shares_memory(rm.readout, maxlp.readout)
    assert not np.shares_memory(rm.inv_gram, maxlp.inv_gram)


def test_comparison_pool_has_at_most_one_worker_per_cell(monkeypatch):
    # A process pool forks all its workers at the first submit, so a
    # recorder stands in for it: no test may start a large pool.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(
        harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool
    )
    base = tiny_config(steps=5)
    kinds = [ControllerKind.RM, ControllerKind.MINPE]
    comparison = run_comparison(base, kinds, [1, 2, 3, 4], workers=1000)
    assert sizes == [8]
    assert all(result.valid for result in comparison.results.values())
    run_comparison(base, kinds, [1, 2, 3, 4], workers=3)
    assert sizes == [8, 3]
    # One cell needs no pool at all.
    single = run_comparison(base, kinds[:1], [1], workers=1000)
    assert single.results[(ControllerKind.RM, 1)].valid
    assert sizes == [8, 3]


def test_comparison_requires_nonempty_grid():
    base = tiny_config(steps=10)
    with pytest.raises(ValueError):
        run_comparison(base, [], [1])
    with pytest.raises(ValueError):
        run_comparison(base, [ControllerKind.RM], [])


@pytest.mark.parametrize("workers", [0, -3])
def test_comparison_rejects_fewer_than_one_worker(monkeypatch, workers):
    ran = []
    monkeypatch.setattr(harness, "load_world", ran.append)
    monkeypatch.setattr(harness, "choose_code", ran.append)
    with pytest.raises(ValueError, match="worker"):
        run_comparison(tiny_config(steps=10), [ControllerKind.MINPE], [1], workers)
    assert ran == []


def test_comparison_rejects_repeated_kinds_and_seeds():
    base = tiny_config(steps=10)
    with pytest.raises(ValueError):
        run_comparison(base, [ControllerKind.RM], [3, 3])
    with pytest.raises(ValueError):
        run_comparison(base, [ControllerKind.RM, "rm"], [1])
