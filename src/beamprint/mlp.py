"""Fully-connected position regressor, written against plain numpy.

Architecture: configurable hidden stack with tanh or relu, linear output
of width 2 (the x, y estimate in normalized label space). Training is
mini-batch adam on mean squared error with early stopping on the
training loss. Everything is deterministic given (seed, data, config).

How a training step runs: before the first epoch, train builds each
batch's step program, a flat tuple of (numpy function, args) calls
whose args are fixed views (the batch's rows of the shuffled epoch
buffers, the workspace buffers, the layer views and their transposes),
and a step runs `for fn, args in program: fn(*args)` for the forward
and backward pass. Adam then updates both moments as one stack, from
the gradient and its square stacked in one buffer. loss_and_gradients
and adam_step run the same program and update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from .configfile import decode, from_dict, to_dict
from .errors import ConfigurationError, DataError, TrainingDivergenceError
from .features import FeatureSet, NormalizationStats, apply, apply_labels, invert_labels

OUTPUT_WIDTH = 2

_ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class MlpConfig:
    hidden_layers: Tuple[int, ...] = (64,)
    activation: str = "tanh"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 20
    min_delta: float = 1e-4
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # the ranges leave out NaN and infinity, which CLI flags and the API
        # bring past the file codec's finite-number rule
        if not self.hidden_layers or any(w < 1 for w in self.hidden_layers):
            raise ConfigurationError("hidden layer widths must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigurationError(f"learning_rate must be a finite positive number, got {self.learning_rate!r}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigurationError("adam betas beta1 and beta2 must lie in [0, 1)")
        if not 0 < self.epsilon < np.inf:
            raise ConfigurationError(f"adam epsilon must be a finite positive number, got {self.epsilon!r}")
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be positive")
        if self.max_epochs < 1:
            raise ConfigurationError("max epochs must be positive")
        if self.patience < 1:
            raise ConfigurationError("early-stopping patience must be positive")
        if not 0 <= self.min_delta < np.inf:
            raise ConfigurationError("early-stopping min_delta must be a finite non-negative number")
        if self.rng_seed < 0:
            raise ConfigurationError(f"rng_seed must be non-negative, got {self.rng_seed}")


def _views(flat: np.ndarray, shapes) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-layer weight and bias views of a flat buffer laid out as
    W0, b0, W1, b1, ... for weight shapes (fan_in, fan_out)."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in shapes:
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


@dataclass
class MlpModel:
    """Weights and biases live in one flat float64 buffer, `params`;
    construction copies the given layers into it, and `weights` and
    `biases` are then per-layer views, so an in-place update of either
    side is seen by the other. Two models are equal when their params,
    config, normalizer and loss history are."""

    weights: List[np.ndarray]  # layer l maps (fan_in,) -> (fan_out,), stored (fan_in, fan_out)
    biases: List[np.ndarray]
    config: MlpConfig
    normalizer: Optional[NormalizationStats] = None
    loss_history: List[float] = field(default_factory=list)
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        layers = [*self.weights, *self.biases]
        self.params = np.empty(sum(a.size for a in layers))
        self.weights, self.biases = _views(self.params, [w.shape for w in self.weights])
        for view, layer in zip([*self.weights, *self.biases], layers):
            view[...] = layer

    def __eq__(self, other) -> bool:
        if not isinstance(other, MlpModel):
            return NotImplemented
        return (
            np.array_equal(self.params, other.params)
            and self.config == other.config
            and self.normalizer == other.normalizer
            and self.loss_history == other.loss_history
        )

    @property
    def input_width(self) -> int:
        return self.weights[0].shape[0]


@dataclass(frozen=True)
class TrainReport:
    epochs_run: int
    final_loss: float
    loss_history: Tuple[float, ...]
    stopped_early: bool

    @property
    def stop_reason(self) -> str:
        return "patience" if self.stopped_early else "max_epochs"


def init_model(config: MlpConfig, input_width: int) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic in the seed."""
    if input_width < 1:
        raise ConfigurationError("input width must be positive")
    rng = np.random.default_rng(config.rng_seed)
    widths = [input_width, *config.hidden_layers, OUTPUT_WIDTH]
    weights = []
    biases = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, config=config)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def forward(model: MlpModel, values: np.ndarray) -> np.ndarray:
    """Raw network output in normalized label space.

    Accepts a single vector or a batch; the input is expected to be
    normalized already (predict() handles the full raw-to-metres path).
    """
    x = np.asarray(values, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.input_width:
        raise DataError(f"input width {x.shape[1]} does not match model width {model.input_width}")
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = x @ w
        z += b
        x = z if l == last else _activate(z, model.config.activation)
    return x[0] if single else x


def loss_and_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """MSE over the batch and both output dims, with exact gradients.

    Returns (loss, weight_grads, bias_grads) where the gradient lists
    line up with model.weights and model.biases; they are views into one
    flat row laid out like model.params (the first row of the workspace's
    gradient stack). This runs train's step program once, on a workspace
    made for the one batch.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0], OUTPUT_WIDTH):
        raise DataError("loss needs x of shape (n, d) and y of shape (n, 2)")
    ws = _Workspace(model, x.shape[0])
    diff = np.empty(y.shape)
    for fn, args in _step_program(model, ws, x, y, diff):
        fn(*args)
    loss = _batch_sums(diff, x.shape[0])[0] / diff.size
    return loss, ws.grads_w, ws.grads_b


@dataclass
class AdamState:
    """First and second moment estimates, flat in the layout of
    model.params. Construction copies them into the two rows of one
    buffer, `moments`; `m` and `v` are then views of those rows, which
    adam updates as one stack."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    moments: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.moments = np.array([self.m, self.v], dtype=np.float64)
        self.m, self.v = self.moments


def init_adam(model: MlpModel) -> AdamState:
    return AdamState(m=np.zeros_like(model.params), v=np.zeros_like(model.params))


def adam_step(model: MlpModel, grads_w, grads_b, state: AdamState) -> None:
    """One adam update of every parameter from per-layer gradients, with
    the model's config: the step's update, run on a workspace the
    gradients are copied into."""
    _check_layers(model)
    ws = _Workspace(model, 0)
    for view, layer in zip([*ws.grads_w, *ws.grads_b], [*grads_w, *grads_b]):
        view[...] = layer
    _adam(model, ws, state)


class _Workspace:
    """Every buffer a training step on a batch of `rows` rows writes: per
    layer the pre-activation and the delta, per hidden layer the
    activation and its derivative, the flat gradient (laid out like
    model.params, with its per-layer views) stacked over its square as
    adam's moments are stacked, and adam's scratch, constants and
    [b1, b2] and [1 - b1, 1 - b2] rows. train makes one per distinct
    batch row count (the full batch and the short last one) and reuses
    it for every step."""

    def __init__(self, model: MlpModel, rows: int) -> None:
        shapes = [w.shape for w in model.weights]
        widths = [fan_out for _, fan_out in shapes]
        self.pre = [np.empty((rows, w)) for w in widths]
        self.delta = [np.empty((rows, w)) for w in widths]
        self.acts = [np.empty((rows, w)) for w in widths[:-1]]
        self.deriv = [np.empty((rows, w)) for w in widths[:-1]]
        self.grad_sq = np.empty((2, model.params.size))
        self.grad, self.sq = self.grad_sq
        self.grads_w, self.grads_b = _views(self.grad, shapes)
        self.scratch = np.empty_like(self.grad_sq)
        self.step, self.denom = self.scratch
        config = model.config
        b1, b2 = config.beta1, config.beta2
        self.lr, self.eps = np.array(config.learning_rate), np.array(config.epsilon)
        # full rows, not a (2, 1) column: numpy's fast path takes only
        # operands of one shape
        self.decay = np.repeat([[b1], [b2]], model.params.size, axis=1)
        self.gain = np.repeat([[1 - b1], [1 - b2]], model.params.size, axis=1)


def _step_program(model: MlpModel, ws: _Workspace, x: np.ndarray, y: np.ndarray, diff: np.ndarray) -> tuple:
    """Forward and backward pass of the batch (x, y) as a flat tuple of
    (numpy function, args) calls on fixed views, which write the output
    residual into `diff` and the gradient of the MSE into ws.grad: a step
    is `for fn, args in program: fn(*args)`. train builds one per batch,
    on views of its epoch buffers, and runs it every epoch.

    Every matmul is np.dot into a workspace buffer: on these small shapes
    it gives the bits of `@` at about half the call cost. The output
    delta 2 * diff / diff.size is diff / (diff.size / 2) in one call: the
    doubling is exact, so the bits are the same. Scalars are 0-d arrays:
    numpy would convert a Python float on every call.
    """
    last = len(model.weights) - 1
    tanh = model.config.activation == "tanh"
    zero, one, rows = np.array(0.0), np.array(1.0), np.array(diff.size / 2)
    calls = []
    a = x
    for l in range(last + 1):
        z = ws.pre[l]
        calls += [(np.dot, (a, model.weights[l], z)), (np.add, (z, model.biases[l], z))]
        if l < last:
            a = ws.acts[l]
            calls.append((np.tanh, (z, a)) if tanh else (partial(np.maximum, out=a), (z, zero)))
    delta = ws.delta[last]
    calls += [(np.subtract, (z, y, diff)), (np.divide, (diff, rows, delta))]
    for l in range(last, -1, -1):
        a = ws.acts[l - 1] if l else x
        calls += [(np.dot, (a.T, delta, ws.grads_w[l])), (np.add.reduce, (delta, 0, None, ws.grads_b[l]))]
        if l:
            d = ws.deriv[l - 1]
            if tanh:  # a is tanh(pre[l - 1]): its derivative without a second tanh
                calls += [(np.multiply, (a, a, d)), (np.subtract, (one, d, d))]
            else:
                calls.append((np.greater, (ws.pre[l - 1], zero, d)))
            delta, below = ws.delta[l - 1], delta
            calls += [(np.dot, (below, model.weights[l].T, delta)), (np.multiply, (delta, d, delta))]
    return tuple(calls)


def _adam(model: MlpModel, ws: _Workspace, state: AdamState) -> None:
    """One adam update of model.params from the flat gradient ws.grad,
    element-wise over flat buffers, with both moments as one stack:
    [m, v] = [b1, b2] * [m, v] + [1 - b1, 1 - b2] * [g, g**2]. Every
    element keeps the order of the per-layer update m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g**2, w -= (lr * (m / corr1)) / (sqrt(v / corr2) + eps),
    so results match it bit for bit."""
    config = model.config
    state.t += 1
    corr1 = 1.0 - config.beta1**state.t
    corr2 = 1.0 - config.beta2**state.t
    step, denom, moments = ws.step, ws.denom, state.moments
    np.square(ws.grad, ws.sq)
    np.multiply(ws.grad_sq, ws.gain, ws.scratch)
    moments *= ws.decay
    moments += ws.scratch
    np.divide(state.m, corr1, step)
    step *= ws.lr
    np.divide(state.v, corr2, denom)
    np.sqrt(denom, denom)
    denom += ws.eps
    step /= denom
    model.params -= step


def _check_layers(model: MlpModel) -> None:
    """Refuse a model whose layers are not the views of model.params,
    which adam updates: an array put in place of a view would not be."""
    if not all(a.base is model.params for a in [*model.weights, *model.biases]):
        raise ConfigurationError(
            "model layers are not views of model.params; write into them in place "
            "(model.weights[l][...] = ...) instead of replacing them"
        )


def _batch_sums(res: np.ndarray, batch: int) -> List[float]:
    """Each batch's sum of squared residuals, in the bits of
    (diff * diff).sum() on that batch, for `res` the (n, 2) residuals of
    consecutive batches of `batch` rows (the last may be short); squares
    `res` in place. A full batch is one contiguous row of 2 * batch
    values, which numpy's pairwise sum reduces as it does the batch."""
    np.multiply(res, res, out=res)
    full = res.shape[0] // batch
    sums = np.add.reduce(res[: full * batch].reshape(full, OUTPUT_WIDTH * batch), axis=1).tolist()
    if full * batch < res.shape[0]:
        sums.append(float(np.add.reduce(res[full * batch :], axis=None)))
    return sums


def train(model: MlpModel, train_set: FeatureSet) -> TrainReport:
    """Mini-batch adam with early stopping on the epoch training loss,
    as model.config sets them.

    The model's bound normalizer maps features and labels into training
    space; the per-epoch loss is the batch-size weighted mean of batch
    losses. An epoch that fails to beat the best loss by min_delta
    burns one unit of patience; running out of patience stops training
    with the last (not best) weights kept.
    """
    config = model.config
    _check_layers(model)
    if model.normalizer is None:
        raise ConfigurationError("model needs a bound normalizer before training")
    if len(train_set) < 1:
        raise DataError("training needs at least one feature vector")

    x = apply(model.normalizer, train_set.values)
    y = apply_labels(model.normalizer, train_set.labels)
    n = x.shape[0]
    batch = config.batch_size
    rng = np.random.default_rng(config.rng_seed)
    state = init_adam(model)

    x_epoch = np.empty_like(x)
    y_epoch = np.empty_like(y)
    res = np.empty((n, OUTPUT_WIDTH))  # every batch's output residual
    spaces = {}
    steps = []
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        if stop - start not in spaces:
            spaces[stop - start] = _Workspace(model, stop - start)
        ws = spaces[stop - start]
        program = _step_program(model, ws, x_epoch[start:stop], y_epoch[start:stop], res[start:stop])
        steps.append((program, ws, stop - start))

    history: List[float] = []
    best: Optional[float] = None
    wait = 0
    stopped_early = False
    for _ in range(config.max_epochs):
        perm = rng.permutation(n)
        # mode="clip" gathers straight into out, where the default
        # "raise" gathers into a temporary first; a permutation is in range
        np.take(x, perm, axis=0, out=x_epoch, mode="clip")
        np.take(y, perm, axis=0, out=y_epoch, mode="clip")
        for program, ws, _ in steps:
            for fn, args in program:
                fn(*args)
            _adam(model, ws, state)
        # each batch's mean squared error, weighted by its rows, in batch order
        epoch_loss = 0.0
        for total, (_, _, rows) in zip(_batch_sums(res, batch), steps):
            epoch_loss += total / (rows * OUTPUT_WIDTH) * rows
        epoch_loss /= n
        if not np.isfinite(epoch_loss):
            raise TrainingDivergenceError(
                f"training loss became non-finite at epoch {len(history) + 1}"
            )
        history.append(epoch_loss)
        if best is None or epoch_loss < best - config.min_delta:
            best = epoch_loss
            wait = 0
        else:
            wait += 1
            if wait >= config.patience:
                stopped_early = True
                break

    model.loss_history = history
    return TrainReport(
        epochs_run=len(history),
        final_loss=history[-1],
        loss_history=tuple(history),
        stopped_early=stopped_early,
    )


def predict(model: MlpModel, values: np.ndarray) -> np.ndarray:
    """Positions in metres for raw (unnormalized) feature vectors."""
    if model.normalizer is None:
        raise ConfigurationError("model needs a bound normalizer before predicting")
    z = apply(model.normalizer, values)
    out = forward(model, z)
    return invert_labels(model.normalizer, out)


# ---------------------------------------------------------------------------
# Serialization


def mlp_to_dict(model: MlpModel) -> dict:
    return {
        "config": to_dict(model.config),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "normalizer": None if model.normalizer is None else normalizer_to_dict(model.normalizer),
        "loss_history": list(model.loss_history),
    }


def _layer_array(raw, shape: Tuple[int, ...], name: str) -> np.ndarray:
    """One serialized layer as float64, refused unless it is a nested
    list of `shape` holding only finite JSON numbers."""
    try:
        cells = np.array(raw, dtype=object)
    except ValueError as e:  # ragged below the first level
        raise ConfigurationError(f"mlp {name} is not a regular array: {e}") from e
    if cells.shape != shape:
        raise ConfigurationError(f"mlp {name} has shape {cells.shape}, its layer chain needs {shape}")
    # bool is an int subclass; a JSON true is no weight
    if not set(map(type, cells.flat)) <= {int, float}:
        raise ConfigurationError(f"mlp {name} holds a non-numeric entry")
    try:
        out = cells.astype(np.float64)
    except OverflowError as e:  # a JSON integer past float range
        raise ConfigurationError(f"mlp {name} holds a number past float range") from e
    if not np.isfinite(out).all():
        raise ConfigurationError(f"mlp {name} holds a non-finite entry")
    return out


def normalizer_to_dict(stats: NormalizationStats) -> dict:
    return {
        "feature_mean": stats.feature_mean.tolist(),
        "feature_std": stats.feature_std.tolist(),
        "label_mean": stats.label_mean.tolist(),
        "label_std": stats.label_std.tolist(),
        "fit_on_train": stats.fit_on_train,
    }


def normalizer_from_dict(d, input_width: int) -> NormalizationStats:
    """Stats for a model of `input_width` features, refused unless the
    feature arrays have that width, the label arrays width 2, every
    entry is finite and every std is positive."""
    widths = {
        "feature_mean": input_width,
        "feature_std": input_width,
        "label_mean": OUTPUT_WIDTH,
        "label_std": OUTPUT_WIDTH,
    }
    if not isinstance(d, dict) or set(d) - {"fit_on_train"} != set(widths):
        raise ConfigurationError(f"mlp normalizer must be an object of {sorted(widths)} and fit_on_train")
    arrays = {name: _layer_array(d[name], (w,), f"normalizer {name}") for name, w in widths.items()}
    for name in ("feature_std", "label_std"):
        if not (arrays[name] > 0).all():
            raise ConfigurationError(f"mlp normalizer {name} holds a std that is not positive")
    return NormalizationStats(
        **arrays, fit_on_train=decode(bool, d.get("fit_on_train", True), "mlp normalizer.fit_on_train")
    )


def mlp_from_dict(d: dict) -> MlpModel:
    """Rebuild a model, checking that its layers chain input -> hidden
    layers of the config -> 2 outputs and that the normalizer's feature
    and label arrays have the input and output widths."""
    try:
        raw_w, raw_b = d["weights"], d["biases"]
        config = from_dict(MlpConfig, d["config"], "mlp config")
    except KeyError as e:
        raise ConfigurationError(f"mlp blob is missing key {e}") from e
    loss_history = list(decode(Tuple[float, ...], d.get("loss_history", []), "mlp loss_history"))
    if not isinstance(raw_w, list) or not isinstance(raw_b, list):
        raise ConfigurationError("mlp weights and biases must be lists of layers")
    widths = [
        len(raw_w[0]) if raw_w and isinstance(raw_w[0], list) else 0,
        *config.hidden_layers,
        OUTPUT_WIDTH,
    ]
    if len(raw_w) != len(widths) - 1 or len(raw_b) != len(widths) - 1:
        raise ConfigurationError(
            f"mlp blob has {len(raw_w)} weight and {len(raw_b)} bias layers, "
            f"hidden layers {list(config.hidden_layers)} need {len(widths) - 1}"
        )
    weights = [
        _layer_array(raw, (widths[l], widths[l + 1]), f"weights[{l}]") for l, raw in enumerate(raw_w)
    ]
    biases = [_layer_array(raw, (widths[l + 1],), f"biases[{l}]") for l, raw in enumerate(raw_b)]
    norm = d.get("normalizer")
    return MlpModel(
        weights=weights,
        biases=biases,
        config=config,
        normalizer=None if norm is None else normalizer_from_dict(norm, widths[0]),
        loss_history=loss_history,
    )
