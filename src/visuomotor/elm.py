"""Extreme learning machine: a single hidden layer of fixed random
logistic units (Huang, Zhu and Siew 2006) and a linear readout kept up
to date sample by sample with recursive least squares (``update_online``,
after OS-ELM: Liang et al. 2006, IEEE TNN).

``init_elm`` draws an ``ElmState`` for an ``ElmConfig``: the fixed hidden
layer, a zero readout and the accumulator the recursion keeps. A state
lives for one closed-loop run; nothing here writes it to a file.

As ``online_init_scale`` goes to zero, the recursive readout approaches
the minimum-norm least-squares readout over all samples seen, when the
hidden layer is well conditioned. At the default scale of the
closed-loop experiment it is badly conditioned (many saturated units,
some constant): there the two readouts agree on their predictions but
their parameters can differ by about 100%.

In-place kernels do the arithmetic: ``hidden_into`` writes the hidden
responses to one input or to a stack of inputs, ``forecast_into`` the
forecast from a response, and ``rls_update`` folds one residual into the
readout and the accumulator. They write only into their ``out``
arguments, a ``Workspace`` and the state, so the closed loop allocates
its buffers once per run, each run's rows in a cell of its own, and its
steps allocate no array data. Each
kernel's result is the same bits as the expression with fresh arrays it
replaces; its docstring says why, and ``tests/test_elm.py`` checks each
assumption. The kernels check nothing and run under ``saturating()``.
``forward``, ``predict`` and ``update_online`` are the checked, pure
entries over the same kernels, and ``prediction_error`` scores a
forecast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionError, NumericError


def _logistic(z: np.ndarray) -> None:
    # 1 / (1 + exp(-z)), in place; negation is exact and addition commutes.
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


def saturating() -> np.errstate:
    """The floating-point context the kernels run in: the logistic's
    ``exp`` overflows for inputs below about -709, which saturates the
    unit cleanly at 0, and here does so without a warning."""
    return np.errstate(over="ignore")


@dataclass(frozen=True)
class ElmConfig:
    """Network shape, initialisation ranges and online regularisation.

    ``input_dim`` is the sensor dimension plus the motor dimension,
    ``output_dim`` the sensor dimension alone. ``online_init_scale`` is
    the ridge scale delta used to seed the recursive solver; smaller
    values track the least-squares readout over all samples more closely.
    """

    input_dim: int
    output_dim: int
    hidden_count: int
    weight_init_low: float = -1.0
    weight_init_high: float = 1.0
    bias_init_low: float = 0.0
    bias_init_high: float = 1.0
    online_init_scale: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError("input_dim and output_dim must be positive")
        if self.hidden_count < 1:
            raise ConfigError("hidden_count must be at least 1")
        # Each chain is False when a value in it is NaN or +-inf.
        if not -np.inf < self.weight_init_low < self.weight_init_high < np.inf:
            raise ConfigError("weight init bounds must be finite, low below high")
        if not -np.inf < self.bias_init_low <= self.bias_init_high < np.inf:
            raise ConfigError("bias init bounds must be finite, low not above high")
        if not 0 < self.online_init_scale < np.inf:
            raise ConfigError("online_init_scale must be finite and positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class ElmState:
    """Weights of one network plus the recursive-solver accumulator.

    ``hidden_weights`` and ``hidden_bias`` are drawn once and never
    change afterwards (the arrays are marked read-only). ``inv_gram``
    tracks the inverse of the regularised hidden-feature Gram matrix
    used by ``update_online``.
    """

    hidden_weights: np.ndarray  # (hidden_count, input_dim), read-only
    hidden_bias: np.ndarray  # (hidden_count,), read-only
    readout: np.ndarray  # (output_dim, hidden_count)
    inv_gram: np.ndarray  # (hidden_count, hidden_count)
    samples_seen: int

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.readout.shape[0]

    @property
    def hidden_count(self) -> int:
        return self.hidden_weights.shape[0]


def init_elm(config: ElmConfig) -> ElmState:
    """Draw the fixed hidden layer and start with a zero readout.

    The same seed always produces bit-identical weights. The readout is
    all zeros and ``inv_gram`` starts at ``I / online_init_scale``.
    """
    rng = np.random.default_rng(config.seed)
    weights = rng.uniform(
        config.weight_init_low,
        config.weight_init_high,
        (config.hidden_count, config.input_dim),
    )
    bias = rng.uniform(
        config.bias_init_low, config.bias_init_high, config.hidden_count
    )
    weights.setflags(write=False)
    bias.setflags(write=False)
    readout = np.zeros((config.output_dim, config.hidden_count))
    inv_gram = np.eye(config.hidden_count) / config.online_init_scale
    return ElmState(
        hidden_weights=weights,
        hidden_bias=bias,
        readout=readout,
        inv_gram=inv_gram,
        samples_seen=0,
    )


class Workspace:
    """The buffers ``rls_update`` writes into, sized for one network's shape."""

    def __init__(self, state: ElmState):
        p, m = state.output_dim, state.hidden_count
        self.ph = np.empty(m)  # P h
        self.gain = np.empty(m)
        self.readout_step = np.empty((p, m))  # the two rank-one products
        self.gram_step = np.empty((m, m))
        # Column and row views of the rank-one products' factors.
        self.gain_row = self.gain[None, :]
        self.ph_col = self.ph[:, None]
        self.ph_row = self.ph[None, :]


def hidden_into(state: ElmState, x: np.ndarray, out: np.ndarray) -> None:
    """Write h = g(Wx + b), g the logistic, into ``out``: for one input,
    ``x`` of length ``input_dim`` and ``out`` of length ``hidden_count``;
    for a stack of inputs, ``x`` (k, ``input_dim``) and ``out``
    (k, ``hidden_count``), one response per row. The rows of ``x`` may lie
    apart in memory, but each row, and ``out``, must be contiguous.

    This is the one hidden-layer code path. ``matmul`` treats each input
    as an (``input_dim``, 1) matrix and runs one BLAS gemv per stack item,
    with the arguments ``W @ x`` passes for one input, so every response is
    the same bits whether computed alone or in a stack. (``np.dot`` on a
    stack would run one gemm, which may round differently.) The bias and
    the logistic are elementwise, on contiguous data either way. Run it
    under ``saturating()``.
    """
    np.matmul(state.hidden_weights, x[..., None], out=out[..., None])
    out += state.hidden_bias
    _logistic(out)


def forecast_into(state: ElmState, h: np.ndarray, out: np.ndarray) -> None:
    """Write the forecast ``readout @ h`` into ``out``.

    ``np.dot`` of a matrix and a vector is the BLAS gemv that ``matmul``
    runs, with the same arguments, so the values equal ``readout @ h``; it
    costs less per call than the ``matmul`` ufunc.
    """
    np.dot(state.readout, h, out=out)


def forward(state: ElmState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden response h = g(Wx + b) and forecast ``readout @ h`` for one
    input vector (frame and velocity concatenated), as fresh arrays."""
    x = np.asarray(x, dtype=float)
    if x.shape != (state.input_dim,):
        raise DimensionError(
            f"input has shape {x.shape}, expected ({state.input_dim},)"
        )
    h = np.empty(state.hidden_count)
    forecast = np.empty(state.output_dim)
    with saturating():
        hidden_into(state, x, h)
        forecast_into(state, h, forecast)
    return h, forecast


def predict(state: ElmState, frame: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Forecast the next sensor frame from the current frame and velocity.

    Returns the raw linear readout; values are not clipped to the pixel
    range.
    """
    frame = np.asarray(frame, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if frame.shape != (state.output_dim,):
        raise DimensionError(
            f"frame has shape {frame.shape}, expected ({state.output_dim},)"
        )
    if velocity.shape != (state.input_dim - state.output_dim,):
        raise DimensionError(
            f"velocity has shape {velocity.shape}, "
            f"expected ({state.input_dim - state.output_dim},)"
        )
    return forward(state, np.concatenate([frame, velocity]))[1]


def update_online(
    state: ElmState, pair: tuple[np.ndarray, np.ndarray]
) -> ElmState:
    """Fold one sample into a copy of the readout with recursive least
    squares (see ``rls_update``); ``state`` itself is left unchanged."""
    x, y = pair
    h, forecast = forward(state, x)
    y = np.asarray(y, dtype=float)
    if y.shape != (state.output_dim,):
        raise DimensionError(
            f"target has shape {y.shape}, expected ({state.output_dim},)"
        )
    updated = replace(
        state, readout=state.readout.copy(), inv_gram=state.inv_gram.copy()
    )
    with saturating():
        rls_update(updated, Workspace(state), y - forecast, h)
    return updated


def rls_update(
    state: ElmState, work: Workspace, residual: np.ndarray, h: np.ndarray
) -> None:
    """Fold one sample into ``state`` in place with recursive least squares.

    ``h`` is the hidden response to the sample's input and ``residual``
    the sample's target minus the forecast ``readout @ h``. ``h`` is only
    read, so a row of a stack of responses serves without a copy. With P
    the inverse-Gram accumulator: ``k = P h / (1 + h' P h)``,
    ``readout += residual k'`` and ``P -= (P h)(P h)' / (1 + h' P h)``.
    P stays exactly symmetric, bit for bit, if it starts so. A
    denominator that is not finite and positive raises ``NumericError``
    before the state is changed.
    """
    ph = work.ph
    # np.dot runs the BLAS gemv and dot that matmul does for these
    # operands, so the values are the same, at less cost per call.
    np.dot(state.inv_gram, h, out=ph)
    denom = 1.0 + np.dot(h, ph)
    if not math.isfinite(denom) or denom <= 0.0:
        raise NumericError(
            f"recursive update denominator is {denom!r}; accumulator degenerate"
        )
    np.divide(ph, denom, out=work.gain)
    # Both rank-one products are (n, 1) @ (1, m) matrix products, which BLAS
    # forms about twice as fast as np.outer. Each entry is still one rounded
    # multiply with nothing summed, so the values equal np.outer's; at most
    # the sign of a zero product differs, and adding a zero of either sign
    # to an entry of R or P can change only the sign of a zero entry, never
    # a value.
    np.dot(residual[:, None], work.gain_row, out=work.readout_step)
    state.readout += work.readout_step
    # P - (P h)(P h)' / denom, each step elementwise and in the order of the
    # expression with fresh arrays. Entries (i, j) and (j, i) of the step
    # are ph_i ph_j / denom and ph_j ph_i / denom, equal because
    # multiplication commutes. Only a zero's sign might differ between them,
    # and that shows in P - step only where P holds -0, which I / delta does
    # not and no subtraction creates. So a symmetric P stays symmetric bit
    # for bit, and ``init_elm`` starts it so. Re-symmetrising would change
    # nothing: for a symmetric P short of overflow, (P + P') / 2 = 2P / 2 = P
    # exactly.
    step = work.gram_step
    np.dot(work.ph_col, work.ph_row, out=step)
    step /= denom
    state.inv_gram -= step
    state.samples_seen += 1


def prediction_error(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean-square discrepancy per sensor component."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.ndim != 1 or predicted.shape != actual.shape:
        raise DimensionError(
            f"length mismatch: {predicted.shape} vs {actual.shape}"
        )
    if predicted.size == 0:
        raise DimensionError("vectors must be non-empty")
    diff = predicted - actual
    return float(diff @ diff) / predicted.size
