"""Tests for the extreme learning machine core.

Expected values are either hand-derivable constants or come from
independent oracles defined at the top of this file: pure-Python scalar
loops for algebra, and a readout solved over all samples at once by
``np.linalg.lstsq`` for the recursive solver. The oracles never call the
code paths they check, apart from the hidden layer the batch readout is
solved on.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from visuomotor import world
from visuomotor.elm import (
    ElmConfig,
    ElmState,
    Workspace,
    forecast_into,
    forward,
    hidden_into,
    init_elm,
    predict,
    prediction_error,
    rls_update,
    saturating,
    update_online,
)
from visuomotor.errors import ConfigError, DimensionError, NumericError


# ---------------------------------------------------------------------------
# Independent oracles


def scalar_hidden(weights, bias, x):
    """Element-by-element recomputation of the hidden response."""
    out = []
    for i in range(len(bias)):
        z = bias[i]
        for j in range(len(x)):
            z += weights[i][j] * x[j]
        out.append(1.0 / (1.0 + math.exp(-z)))
    return np.array(out)


def scalar_matvec(matrix, vector):
    rows, cols = matrix.shape
    out = np.zeros(rows)
    for i in range(rows):
        acc = 0.0
        for j in range(cols):
            acc += matrix[i, j] * vector[j]
        out[i] = acc
    return out


def batch_readout(state, pairs):
    """The readout solved over all pairs at once: the minimum-norm least
    squares solution R of R H = Y, H holding one hidden response per
    column, from ``np.linalg.lstsq``."""
    h = np.stack([forward(state, x)[0] for x, _ in pairs])
    y = np.stack([y for _, y in pairs])
    return np.linalg.lstsq(h, y, rcond=None)[0].T


def prediction_gap(state, reference, xs):
    """Relative Frobenius distance between two models' forecasts on xs."""
    ours = np.stack([forward(state, x)[1] for x in xs])
    theirs = np.stack([forward(reference, x)[1] for x in xs])
    return np.linalg.norm(ours - theirs) / np.linalg.norm(theirs)


def small_config(**overrides):
    defaults = dict(input_dim=5, output_dim=3, hidden_count=6, seed=11)
    defaults.update(overrides)
    return ElmConfig(**defaults)


def manual_state(weights, bias, readout):
    weights = np.asarray(weights, dtype=float)
    bias = np.asarray(bias, dtype=float)
    readout = np.asarray(readout, dtype=float)
    return ElmState(
        hidden_weights=weights,
        hidden_bias=bias,
        readout=readout,
        inv_gram=np.eye(weights.shape[0]),
        samples_seen=0,
    )


# ---------------------------------------------------------------------------
# Configuration and initialisation


def test_init_same_seed_identical():
    config = small_config(seed=7)
    a = init_elm(config)
    b = init_elm(config)
    assert np.array_equal(a.hidden_weights, b.hidden_weights)
    assert np.array_equal(a.hidden_bias, b.hidden_bias)
    assert a.hidden_weights.tobytes() == b.hidden_weights.tobytes()


def test_init_standard_experiment_shapes():
    config = ElmConfig(input_dim=1026, output_dim=1024, hidden_count=30, seed=0)
    state = init_elm(config)
    assert state.hidden_weights.shape == (30, 1026)
    assert state.hidden_bias.shape == (30,)
    assert state.readout.shape == (1024, 30)
    assert state.inv_gram.shape == (30, 30)
    assert np.all(state.readout == 0.0)
    assert state.samples_seen == 0


def test_init_inv_gram_is_scaled_identity():
    config = small_config(online_init_scale=1e-8)
    state = init_elm(config)
    assert np.array_equal(state.inv_gram, 1e8 * np.eye(config.hidden_count))


def test_init_respects_ranges():
    config = small_config(
        hidden_count=200,
        weight_init_low=-0.5,
        weight_init_high=0.25,
        bias_init_low=0.1,
        bias_init_high=0.2,
    )
    state = init_elm(config)
    assert state.hidden_weights.min() >= -0.5
    assert state.hidden_weights.max() <= 0.25
    assert state.hidden_bias.min() >= 0.1
    assert state.hidden_bias.max() <= 0.2


def test_init_weights_are_read_only():
    state = init_elm(small_config())
    with pytest.raises(ValueError):
        state.hidden_weights[0, 0] = 1.0
    with pytest.raises(ValueError):
        state.hidden_bias[0] = 1.0


@pytest.mark.parametrize(
    "overrides",
    [
        dict(input_dim=0),
        dict(output_dim=0),
        dict(hidden_count=0),
        dict(weight_init_low=1.0, weight_init_high=-1.0),
        dict(weight_init_low=0.5, weight_init_high=0.5),
        dict(online_init_scale=0.0),
        dict(online_init_scale=-1e-8),
        dict(seed=-1),
    ],
)
def test_invalid_config_rejected(overrides):
    with pytest.raises(ConfigError):
        small_config(**overrides)


# ---------------------------------------------------------------------------
# Hidden layer


def test_hidden_zero_weights_give_half():
    state = manual_state(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)))
    h = forward(state, np.array([0.3, -1.0, 2.0]))[0]
    assert np.all(h == 0.5)


def test_hidden_cancelling_bias_gives_half():
    state = manual_state([[2.0]], [-2.0], [[0.0]])
    assert forward(state, np.array([1.0]))[0] == pytest.approx([0.5])


def test_hidden_matches_scalar_oracle():
    state = init_elm(small_config(input_dim=20, hidden_count=15))
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-2, 2, 20)
        expected = scalar_hidden(state.hidden_weights, state.hidden_bias, x)
        assert np.allclose(forward(state, x)[0], expected, atol=1e-12)


def test_hidden_length_mismatch():
    state = init_elm(small_config())
    with pytest.raises(DimensionError):
        forward(state, np.zeros(4))


def test_hidden_bounded_for_logistic():
    state = init_elm(small_config(input_dim=8, hidden_count=40))
    rng = np.random.default_rng(9)
    h = forward(state, rng.uniform(0, 1, 8))[0]
    assert np.all((h > 0.0) & (h < 1.0))


# ---------------------------------------------------------------------------
# Prediction


def test_predict_zero_readout_is_zero():
    state = init_elm(small_config())
    frame = np.full(3, 0.5)
    assert np.array_equal(predict(state, frame, np.zeros(2)), np.zeros(3))


def test_predict_matches_scalar_oracle():
    config = small_config(input_dim=6, output_dim=4, hidden_count=7)
    state = init_elm(config)
    rng = np.random.default_rng(21)
    state = replace(state, readout=rng.uniform(-1, 1, state.readout.shape))
    frame = rng.uniform(0, 1, 4)
    velocity = rng.uniform(-1, 1, 2)
    x = np.concatenate([frame, velocity])
    expected = scalar_matvec(
        state.readout, scalar_hidden(state.hidden_weights, state.hidden_bias, x)
    )
    assert np.allclose(predict(state, frame, velocity), expected, atol=1e-12)


def test_predict_interpolates_single_training_pair():
    config = small_config(input_dim=5, output_dim=3, hidden_count=6)
    state = init_elm(config)
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0, 1, 5)
    y0 = rng.uniform(0, 1, 3)
    fitted = replace(state, readout=batch_readout(state, [(x0, y0)]))
    got = predict(fitted, x0[:3], x0[3:])
    assert np.max(np.abs(got - y0)) < 1e-6


def test_predict_dimension_errors():
    state = init_elm(small_config())
    with pytest.raises(DimensionError):
        predict(state, np.zeros(2), np.zeros(2))
    with pytest.raises(DimensionError):
        predict(state, np.zeros(3), np.zeros(3))


def test_predict_output_not_clipped():
    # Raw linear readout may leave the pixel range.
    state = manual_state(np.zeros((2, 3)), np.zeros(2), [[10.0, 10.0]])
    out = predict(state, np.zeros(1), np.zeros(2))
    assert out[0] == pytest.approx(10.0)  # 10*0.5 + 10*0.5


# ---------------------------------------------------------------------------
# Online updates


def make_pairs(count, rng, input_dim=6, output_dim=3):
    return [
        (rng.uniform(-2, 2, input_dim), rng.uniform(-1, 1, output_dim))
        for _ in range(count)
    ]


def test_online_first_update_nearly_interpolates():
    config = ElmConfig(
        input_dim=6, output_dim=3, hidden_count=8, online_init_scale=1e-8, seed=3
    )
    state = init_elm(config)
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, 6)
    y = rng.uniform(0.2, 1, 3)
    updated = update_online(state, (x, y))
    got = updated.readout @ forward(updated, x)[0]
    assert np.linalg.norm(got - y) / np.linalg.norm(y) < 1e-4
    assert updated.samples_seen == 1


def test_online_matches_batch_after_200_updates():
    config = ElmConfig(
        input_dim=6, output_dim=3, hidden_count=30, online_init_scale=1e-8, seed=44
    )
    state = init_elm(config)
    pairs = make_pairs(200, np.random.default_rng(15))
    online = state
    for pair in pairs:
        online = update_online(online, pair)
    batch = replace(state, readout=batch_readout(state, pairs))
    held_out = [x for x, _ in make_pairs(50, np.random.default_rng(16))]
    for xs in ([x for x, _ in pairs], held_out):
        assert prediction_gap(online, batch, xs) <= 1e-4
    assert online.samples_seen == 200


def test_online_matches_batch_predictions_on_a_closed_loop_trace():
    # A babbling camera at the default 32x32 scale: most hidden units
    # saturate, so the online and batch readouts differ by about 100%, yet
    # they forecast alike on the trace's own inputs.
    scene = world.synthetic_image(96, 96, seed=1)
    rng = np.random.default_rng(1)
    cam = world.CameraState(left=32, top=32, width=32, height=32)
    noise = world.NoiseModel(sigma=0.01)
    state = init_elm(ElmConfig(input_dim=1026, output_dim=1024, hidden_count=30, seed=1))
    online, pairs = state, []
    for _ in range(300):
        frame = world.observe(scene, cam, noise, rng)
        command = world.COMMANDS[rng.integers(5)]
        cam = world.apply_motor(scene, cam, command)
        x = np.concatenate([frame, world.command_to_velocity(command)])
        pairs.append((x, world.observe(scene, cam, noise, rng)))
        online = update_online(online, pairs[-1])
    batch = replace(state, readout=batch_readout(state, pairs))
    readout_gap = np.linalg.norm(online.readout - batch.readout) / np.linalg.norm(
        batch.readout
    )
    assert readout_gap > 0.5
    assert prediction_gap(online, batch, [x for x, _ in pairs]) < 0.05


def test_online_zero_innovation_keeps_readout():
    config = small_config(input_dim=6, hidden_count=8)
    state = init_elm(config)
    rng = np.random.default_rng(6)
    for pair in make_pairs(20, rng, input_dim=6, output_dim=3):
        state = update_online(state, pair)
    x = rng.uniform(-1, 1, 6)
    y = state.readout @ forward(state, x)[0]
    updated = update_online(state, (x, y))
    assert np.max(np.abs(updated.readout - state.readout)) < 1e-12


def test_online_batch_gap_shrinks_with_init_scale():
    rng = np.random.default_rng(77)
    pairs = make_pairs(100, rng, input_dim=8, output_dim=2)
    gaps = []
    for scale in (1e-4, 1e-6, 1e-8):
        config = ElmConfig(
            input_dim=8, output_dim=2, hidden_count=8,
            online_init_scale=scale, seed=12,
        )
        state = init_elm(config)
        online = state
        for pair in pairs:
            online = update_online(online, pair)
        batch = replace(state, readout=batch_readout(state, pairs))
        gaps.append(prediction_gap(online, batch, [x for x, _ in pairs]))
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_online_keeps_inv_gram_symmetric():
    config = small_config(input_dim=6, hidden_count=10)
    state = init_elm(config)
    for pair in make_pairs(50, np.random.default_rng(1), input_dim=6, output_dim=3):
        state = update_online(state, pair)
        asymmetry = np.max(np.abs(state.inv_gram - state.inv_gram.T))
        assert asymmetry <= 1e-9 * max(np.max(np.abs(state.inv_gram)), 1.0)


def test_online_shares_frozen_weights():
    config = small_config()
    state = init_elm(config)
    updated = update_online(state, (np.full(5, 0.5), np.zeros(3)))
    assert updated.hidden_weights is state.hidden_weights
    assert updated.hidden_bias is state.hidden_bias


def test_online_degenerate_accumulator_raises():
    state = manual_state(np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2)))
    state.inv_gram = -10.0 * np.eye(2)  # forces 1 + h'Ph below zero
    with pytest.raises(NumericError):
        update_online(state, (np.zeros(3), np.zeros(1)))


def test_online_target_length_checked():
    state = init_elm(small_config())
    with pytest.raises(DimensionError):
        update_online(state, (np.zeros(5), np.zeros(4)))


def test_online_deterministic_given_sequence():
    config = small_config(input_dim=6, hidden_count=9)
    pairs = make_pairs(30, np.random.default_rng(55), input_dim=6, output_dim=3)
    states = []
    for _ in range(2):
        state = init_elm(config)
        for pair in pairs:
            state = update_online(state, pair)
        states.append(state)
    assert states[0].readout.tobytes() == states[1].readout.tobytes()
    assert states[0].inv_gram.tobytes() == states[1].inv_gram.tobytes()


def test_online_is_pure_and_matches_in_place_kernel():
    config = small_config(input_dim=6, hidden_count=9)
    state = init_elm(config)
    rng = np.random.default_rng(21)
    for pair in make_pairs(15, rng, input_dim=6, output_dim=3):
        state = update_online(state, pair)
    x, y = make_pairs(1, rng, input_dim=6, output_dim=3)[0]
    readout, inv_gram = state.readout.tobytes(), state.inv_gram.tobytes()

    updated = update_online(state, (x, y))
    assert state.readout.tobytes() == readout
    assert state.inv_gram.tobytes() == inv_gram
    assert state.samples_seen == 15

    twin = replace(
        state, readout=state.readout.copy(), inv_gram=state.inv_gram.copy()
    )
    h, forecast = forward(twin, x)
    assert forecast.tobytes() == predict(state, x[:3], x[3:]).tobytes()
    h_in_place, forecast_in_place = np.empty(9), np.empty(3)
    hidden_into(twin, x, h_in_place)
    forecast_into(twin, h_in_place, forecast_in_place)
    assert h_in_place.tobytes() == h.tobytes()
    assert forecast_in_place.tobytes() == forecast.tobytes()
    rls_update(twin, Workspace(twin), y - forecast, h_in_place)
    assert twin.readout.tobytes() == updated.readout.tobytes()
    assert twin.inv_gram.tobytes() == updated.inv_gram.tobytes()
    assert twin.samples_seen == updated.samples_seen == 16

    # The same elementwise steps, in the same order, as the RLS recursion
    # written out with fresh arrays.
    ph = state.inv_gram @ h
    denom = 1.0 + h @ ph
    expected_readout = state.readout + np.outer(y - state.readout @ h, ph / denom)
    expected_inv_gram = state.inv_gram - np.outer(ph, ph) / denom
    expected_inv_gram = (expected_inv_gram + expected_inv_gram.T) / 2.0
    assert updated.readout.tobytes() == expected_readout.tobytes()
    assert updated.inv_gram.tobytes() == expected_inv_gram.tobytes()


@pytest.mark.parametrize("output_dim, hidden_count", [(1024, 30), (64, 30), (1, 1)])
def test_in_place_kernel_matches_outer_recursion_at_loop_shapes(
    output_dim, hidden_count
):
    # BLAS picks its kernels by shape, so the bit-for-bit match with the
    # np.outer recursion is checked at the closed loop's own shapes, over
    # several steps that reuse one workspace, as the loop does. Every
    # seventh target equals its forecast, so its residual is +0, and
    # np.outer gives -0 where the gain is negative.
    config = ElmConfig(
        input_dim=output_dim + 2, output_dim=output_dim,
        hidden_count=hidden_count, seed=5,
    )
    state = init_elm(config)
    readout, inv_gram = state.readout.copy(), state.inv_gram.copy()
    work = Workspace(state)
    h_in_place, forecast_in_place = np.empty(hidden_count), np.empty(output_dim)
    rng = np.random.default_rng(17)
    for _ in range(6):
        x = np.concatenate([rng.uniform(0, 1, output_dim), rng.integers(-1, 2, 2)])
        y = rng.uniform(0, 1, output_dim)
        h, forecast = forward(state, x)
        y[1::7] = forecast[1::7]
        hidden_into(state, x, h_in_place)
        forecast_into(state, h_in_place, forecast_in_place)
        rls_update(state, work, y - forecast_in_place, h_in_place)

        ph = inv_gram @ h
        denom = 1.0 + h @ ph
        readout = readout + np.outer(y - readout @ h, ph / denom)
        inv_gram = inv_gram - np.outer(ph, ph) / denom
        inv_gram = (inv_gram + inv_gram.T) / 2.0
        assert state.readout.tobytes() == readout.tobytes()
        assert state.inv_gram.tobytes() == inv_gram.tobytes()


@pytest.mark.parametrize("output_dim, hidden_count", [(1024, 30), (64, 30)])
def test_in_place_kernel_keeps_inv_gram_symmetric_bit_for_bit(
    output_dim, hidden_count
):
    # rls_update does not re-symmetrise P: its step is symmetric by itself.
    config = ElmConfig(
        input_dim=output_dim + 2, output_dim=output_dim,
        hidden_count=hidden_count, seed=6,
    )
    state = init_elm(config)
    work = Workspace(state)
    h, forecast = np.empty(hidden_count), np.empty(output_dim)
    rng = np.random.default_rng(18)
    with saturating():
        for _ in range(50):
            x = np.concatenate(
                [rng.uniform(0, 1, output_dim), rng.integers(-1, 2, 2)]
            )
            hidden_into(state, x, h)
            forecast_into(state, h, forecast)
            rls_update(state, work, rng.uniform(0, 1, output_dim) - forecast, h)
    assert state.samples_seen == 50
    assert not np.array_equal(state.inv_gram, init_elm(config).inv_gram)
    assert state.inv_gram.tobytes() == state.inv_gram.T.copy().tobytes()


def test_in_place_kernel_failure_changes_nothing():
    state = manual_state(np.zeros((2, 3)), np.zeros(2), np.ones((1, 2)))
    state.inv_gram = -10.0 * np.eye(2)
    h, forecast = np.empty(2), np.empty(1)
    hidden_into(state, np.zeros(3), h)
    forecast_into(state, h, forecast)
    with pytest.raises(NumericError):
        rls_update(state, Workspace(state), np.zeros(1) - forecast, h)
    assert np.array_equal(state.readout, np.ones((1, 2)))
    assert np.array_equal(state.inv_gram, -10.0 * np.eye(2))
    assert state.samples_seen == 0


# ---------------------------------------------------------------------------
# Bit-identity assumptions of the closed loop's kernels
#
# The closed loop computes a babbling run's hidden responses a noise block
# at a time, from a stack of input rows, and uses np.dot for its products.
# Its traces stay the same bits only while numpy and BLAS behave as below;
# each assertion names the behaviour it relies on.


def activate(state, z):
    """The bias and the logistic, elementwise and in place, as the loop
    applied them before stacking."""
    z += state.hidden_bias
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    return z


def one_hidden_response(state, x):
    """h for one input, as the loop computed it before stacking: matmul on
    a 1-D input, then the bias and the logistic."""
    return activate(state, np.matmul(state.hidden_weights, x))


def input_rows(rng, input_dim, count, scale):
    """Input rows laid out as the loop's row buffer: row (j, 0) is step j's
    input, a frame then a velocity, and row (j, 1) its target, so the
    inputs form a strided stack."""
    rows = np.empty((count, 2, input_dim))
    rows[:, 0, :-2] = rng.uniform(0, 1, (count, input_dim - 2)) * scale
    rows[:, 0, -2:] = rng.integers(-1, 2, (count, 2))
    rows[:, 1] = rng.uniform(0, 1, (count, input_dim))
    return rows


@pytest.mark.parametrize("scale", [1.0, 1000.0], ids=["unit", "saturating"])
@pytest.mark.parametrize("input_dim", [66, 1026])
def test_stacked_hidden_layer_equals_one_input_at_a_time(input_dim, scale):
    # At scale 1000 many units sit far below -709, where exp(-z) overflows
    # and the unit saturates at 0, and many far above; under saturating()
    # that must stay silent (tier-1 turns a RuntimeWarning into an error).
    state = init_elm(ElmConfig(
        input_dim=input_dim, output_dim=input_dim - 2, hidden_count=30, seed=9,
    ))
    weights = state.hidden_weights
    rng = np.random.default_rng(input_dim)
    rows = input_rows(rng, input_dim, 16, scale)
    single = np.empty(30)
    for count in range(1, 17):
        stack = rows[:count, 0]
        assert not stack.flags.c_contiguous or count == 1
        products = np.empty((count, 30))
        np.matmul(weights, stack[..., None], out=products[..., None])
        hidden = np.empty((16, 30))
        with saturating():
            activated = activate(state, products.copy())
            hidden_into(state, stack, hidden[:count])
            for j in range(count):
                x = stack[j]
                one = one_hidden_response(state, x)
                assert products[j].tobytes() == np.matmul(weights, x).tobytes(), (
                    f"matmul on a stack of {count} inputs no longer runs, for item "
                    f"{j}, the BLAS gemv that matmul runs on one input"
                )
                assert activated[j].tobytes() == one.tobytes(), (
                    f"the bias and the logistic on a ({count}, 30) stack no longer "
                    f"round like the same ufuncs on one row (item {j}): numpy's "
                    "elementwise loops now depend on the array's shape"
                )
                assert hidden[j].tobytes() == one.tobytes(), (
                    f"hidden_into's row {j} of a stack of {count} is not matmul on "
                    "the stack followed by the bias and the logistic"
                )
                hidden_into(state, x.copy(), single)
                assert single.tobytes() == one.tobytes(), (
                    "hidden_into's h for one input is not matmul on that input "
                    "followed by the bias and the logistic"
                )
    if scale > 1.0:
        assert np.any(hidden == 0.0) and np.any(hidden == 1.0)


@pytest.mark.parametrize("output_dim", [64, 1024])
def test_dot_products_equal_the_matmul_they_replace(output_dim):
    state = init_elm(ElmConfig(
        input_dim=output_dim + 2, output_dim=output_dim, hidden_count=30, seed=4,
    ))
    rng = np.random.default_rng(output_dim)
    state.readout[...] = rng.normal(size=state.readout.shape)
    p = rng.normal(size=(30, 30))
    state.inv_gram[...] = p @ p.T
    with saturating():
        stack = np.empty((16, 30))
        hidden_into(state, input_rows(rng, output_dim + 2, 16, 1.0)[:, 0], stack)
    residual = rng.uniform(-1, 1, output_dim)
    forecast = np.empty(output_dim)
    # A row of a stack of responses, as a babbling run passes it, and a
    # fresh vector, as a reactive run's workspace holds it.
    for h in (stack[5], stack[5].copy()):
        forecast_into(state, h, forecast)
        assert forecast.tobytes() == np.matmul(state.readout, h).tobytes(), (
            "np.dot(matrix, vector) no longer runs the BLAS gemv that matmul runs"
        )
        ph = np.dot(state.inv_gram, h)
        assert ph.tobytes() == np.matmul(state.inv_gram, h).tobytes(), (
            "np.dot(P, h) no longer runs the BLAS gemv that matmul runs"
        )
        assert np.dot(h, ph).tobytes() == np.matmul(h, ph).tobytes(), (
            "np.dot of two vectors no longer runs the BLAS dot that matmul runs"
        )
    assert np.dot(residual, residual).tobytes() == (residual @ residual).tobytes(), (
        "np.dot(r, r) no longer runs the BLAS dot that r @ r runs"
    )


# ---------------------------------------------------------------------------
# Prediction error


def test_error_zero_for_identical():
    v = np.array([0.2, 0.4, 0.6])
    assert prediction_error(v, v.copy()) == 0.0


def test_error_simple_arithmetic():
    assert prediction_error(np.ones(4), np.zeros(4)) == 1.0


def test_error_matches_scalar_loop():
    rng = np.random.default_rng(40)
    a = rng.uniform(0, 1, 257)
    b = rng.uniform(0, 1, 257)
    expected = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)) / 257
    assert abs(prediction_error(a, b) - expected) < 1e-12


def test_error_nonnegative_and_zero_only_when_equal():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = rng.uniform(0, 1, 16)
        b = a.copy()
        assert prediction_error(a, b) == 0.0
        b[int(rng.integers(16))] += 1e-6
        assert prediction_error(a, b) > 0.0


def test_error_length_mismatch():
    with pytest.raises(DimensionError):
        prediction_error(np.zeros(3), np.zeros(4))
