"""Tests for the closed-loop runner, metrics and comparisons.

Full-scale behaviour is covered by the acceptance suite; these tests
use small camera windows so each run takes milliseconds.
"""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from visuomotor import harness
from visuomotor.controllers import ControllerConfig, ControllerKind, ErrorHistory, choose_action
from visuomotor.errors import ConfigError, NumericError
from visuomotor.harness import (
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
    NOISE_BLOCK_FRAMES,
    MotorCommand,
    NoiseModel,
    WorldImage,
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
    monkeypatch.setattr(harness, "choose_action", lambda *args: MotorCommand.STAY)
    config = tiny_config(seed=3, steps=60, sigma=0.0)
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
        assert np.all(np.isfinite(result.metrics.mean_error_curve))
        assert len(result.metrics.mean_error_curve) == 200


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

    def failing(state, work, residual):
        calls["n"] += 1
        if calls["n"] >= 5:
            raise NumericError("synthetic failure")
        return real(state, work, residual)

    monkeypatch.setattr(harness, "rls_update", failing)
    result = run_experiment(tiny_config(steps=20))
    assert not result.valid
    assert "synthetic failure" in result.failure
    assert len(result.trace) == 4
    assert result.metrics is not None


def nan_forecast_at(monkeypatch, step):
    """Make the forecast of closed-loop step ``step`` all NaN."""
    calls = {"n": 0}
    real = harness.forward_into

    def corrupting(state, x, work):
        real(state, x, work)
        calls["n"] += 1
        if calls["n"] == step + 1:
            work.forecast[:] = np.nan

    monkeypatch.setattr(harness, "forward_into", corrupting)


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
        elm=harness._elm_config(24, hidden_count=5),
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
    2 * NOISE_BLOCK_STEPS + 3,
])
@pytest.mark.parametrize("sigma", [0.01, 0.0])
@pytest.mark.parametrize("kind", list(ControllerKind))
def test_run_matches_loop_of_public_functions(kind, sigma, steps):
    config = wide_config(kind, steps, sigma)
    result = run_experiment(config, world=SMALL_SCENE)
    assert result.valid
    assert_same_run(result, *reference_run(config, SMALL_SCENE))


def test_small_scene_makes_moves_hit_the_border():
    config = wide_config(ControllerKind.RM, 2 * NOISE_BLOCK_STEPS + 3, 0.01)
    trace, _ = reference_run(config, SMALL_SCENE)
    start = initial_camera(SMALL_SCENE, config)
    positions = [(start.left, start.top)] + [(r.cam_x, r.cam_y) for r in trace]
    blocked = [
        r for r, before in zip(trace, positions)
        if r.command is not MotorCommand.STAY and (r.cam_x, r.cam_y) == before
    ]
    assert blocked


@pytest.mark.parametrize("failure", ["nan_forecast", "rls_update"])
def test_abort_inside_a_noise_block_returns_reference_prefix(monkeypatch, failure):
    abort_at = NOISE_BLOCK_STEPS + 2  # the third step of the second block
    if failure == "nan_forecast":
        nan_forecast_at(monkeypatch, abort_at)
    else:
        real = harness.rls_update
        calls = {"n": 0}

        def failing(state, work, residual):
            calls["n"] += 1
            if calls["n"] == abort_at + 1:
                raise NumericError("synthetic failure")
            real(state, work, residual)

        monkeypatch.setattr(harness, "rls_update", failing)
    config = wide_config(ControllerKind.MAXLP, 2 * NOISE_BLOCK_STEPS + 3, 0.01)
    result = run_experiment(config, world=SMALL_SCENE)
    assert not result.valid
    assert len(result.trace) == abort_at
    reference = reference_run(dataclasses.replace(config, steps=abort_at), SMALL_SCENE)
    assert_same_run(result, *reference)


def test_saturating_logistic_is_silent():
    # Weights in [-1001, -1000] on a mid-grey scene drive every W x + b
    # below -800, where the logistic's exp(-z) overflows to inf.
    scene = WorldImage(np.full((9, 10), 0.5))
    config = dataclasses.replace(
        wide_config(ControllerKind.MAXLP, 20, 0.01),
        elm=ElmConfig(input_dim=26, output_dim=24, hidden_count=5,
                      weight_init_low=-1001.0, weight_init_high=-1000.0),
    )
    state = init_elm(config.elm)
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
    from visuomotor.elm import ElmConfig

    with pytest.raises(ConfigError):
        ExperimentConfig(steps=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(
            elm=ElmConfig(input_dim=10, output_dim=9, hidden_count=3),
            window_w=3, window_h=3,
        )
    with pytest.raises(ConfigError):
        ExperimentConfig(
            elm=ElmConfig(input_dim=1026, output_dim=1024, hidden_count=3),
            window_w=33, window_h=32,
        )


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
    histogram = result.metrics.action_histogram
    assert sum(histogram.values()) == 120
    assert set(histogram) == set(MotorCommand)


def test_metrics_mean_error_curve_matches_direct_average():
    rng = np.random.default_rng(3)
    errors = rng.uniform(0, 1, 250)
    trace = [record(t, 0, 0, error=float(e)) for t, e in enumerate(errors)]
    curve = compute_metrics(trace).mean_error_curve
    for t in (0, 1, 50, 99, 100, 249):
        window = errors[max(0, t - 99) : t + 1]
        assert curve[t] == pytest.approx(window.mean())


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
    real = harness.run_experiment

    def flaky(config, **kwargs):
        if config.controller.kind == ControllerKind.MAXPE:
            raise RuntimeError("boom")
        return real(config, **kwargs)

    monkeypatch.setattr(harness, "run_experiment", flaky)
    base = tiny_config(steps=30)
    comparison = run_comparison(
        base, [ControllerKind.RM, ControllerKind.MAXPE], [1]
    )
    assert comparison.results[(ControllerKind.RM, 1)].valid
    failed = comparison.results[(ControllerKind.MAXPE, 1)]
    assert not failed.valid
    assert "boom" in failed.failure
    # The traceback survives and names the function that raised.
    assert "Traceback" in failed.failure
    assert "in flaky" in failed.failure
    assert ControllerKind.MAXPE not in comparison.summary
    # Failed cells rank last.
    assert comparison.rankings[1][-1] == ControllerKind.MAXPE


def test_comparison_parallel_matches_sequential():
    base = tiny_config(steps=30)
    kinds = [ControllerKind.RM, ControllerKind.MINPE]
    sequential = run_comparison(base, kinds, [1, 2], workers=1)
    parallel = run_comparison(base, kinds, [1, 2], workers=2)
    for cell, result in sequential.results.items():
        assert parallel.results[cell].trace == result.trace


def test_comparison_requires_nonempty_grid():
    base = tiny_config(steps=10)
    with pytest.raises(ValueError):
        run_comparison(base, [], [1])
    with pytest.raises(ValueError):
        run_comparison(base, [ControllerKind.RM], [])


@pytest.mark.parametrize("workers", [0, -3])
def test_comparison_rejects_fewer_than_one_worker(monkeypatch, workers):
    ran = []
    monkeypatch.setattr(harness, "run_experiment", ran.append)
    with pytest.raises(ValueError, match="worker"):
        run_comparison(tiny_config(steps=10), [ControllerKind.RM], [1], workers)
    assert ran == []


def test_comparison_rejects_repeated_kinds_and_seeds():
    base = tiny_config(steps=10)
    with pytest.raises(ValueError):
        run_comparison(base, [ControllerKind.RM], [3, 3])
    with pytest.raises(ValueError):
        run_comparison(base, [ControllerKind.RM, "rm"], [1])
