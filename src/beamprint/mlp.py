"""Fully-connected position regressor, written against plain numpy.

Architecture: configurable hidden stack with tanh or relu, linear output
of width 2 (the x, y estimate in normalized label space). Training is
mini-batch adam on mean squared error with early stopping on the
training loss. Everything is deterministic given (seed, data, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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


def validate_mlp_config(config: MlpConfig) -> None:
    # the ranges leave out NaN and infinity, which CLI flags and the API
    # bring past the file codec's finite-number rule
    if not config.hidden_layers or any(w < 1 for w in config.hidden_layers):
        raise ConfigurationError("hidden layer widths must be positive")
    if config.activation not in _ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {config.activation!r}")
    if not 0 < config.learning_rate < np.inf:
        raise ConfigurationError(f"learning_rate must be a finite positive number, got {config.learning_rate!r}")
    if not 0 <= config.beta1 < 1 or not 0 <= config.beta2 < 1:
        raise ConfigurationError("adam betas beta1 and beta2 must lie in [0, 1)")
    if not 0 < config.epsilon < np.inf:
        raise ConfigurationError(f"adam epsilon must be a finite positive number, got {config.epsilon!r}")
    if config.batch_size < 1:
        raise ConfigurationError("batch size must be positive")
    if config.max_epochs < 1:
        raise ConfigurationError("max epochs must be positive")
    if config.patience < 1:
        raise ConfigurationError("early-stopping patience must be positive")
    if not 0 <= config.min_delta < np.inf:
        raise ConfigurationError("early-stopping min_delta must be a finite non-negative number")
    if config.rng_seed < 0:
        raise ConfigurationError(f"rng_seed must be non-negative, got {config.rng_seed}")


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
    side is seen by the other."""

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
    validate_mlp_config(config)
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


def _forward_cached(model: MlpModel, x: np.ndarray):
    acts = [x]
    pre = []
    last = len(model.weights) - 1
    a = x
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w
        z += b
        pre.append(z)
        a = z if l == last else _activate(z, model.config.activation)
        acts.append(a)
    return acts, pre


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
    acts, _ = _forward_cached(model, x)
    out = acts[-1]
    return out[0] if single else out


def loss_and_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """MSE over the batch and both output dims, with exact gradients.

    Returns (loss, weight_grads, bias_grads) where the gradient lists
    line up with model.weights and model.biases; they are views into one
    flat buffer laid out like model.params.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0], OUTPUT_WIDTH):
        raise DataError("loss needs x of shape (n, d) and y of shape (n, 2)")
    n = x.shape[0]
    acts, pre = _forward_cached(model, x)
    diff = acts[-1] - y
    loss = float((diff * diff).sum()) / diff.size  # np.mean, bit for bit, without its wrapper

    grads_w, grads_b = _views(np.empty_like(model.params), [w.shape for w in model.weights])
    tanh = model.config.activation == "tanh"
    delta = 2.0 * diff / (n * OUTPUT_WIDTH)
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[l].T, delta, out=grads_w[l])
        delta.sum(axis=0, out=grads_b[l])
        if l > 0:
            delta = delta @ model.weights[l].T
            if tanh:
                # acts[l] is tanh(pre[l - 1]): its derivative without a second tanh
                a = acts[l]
                delta *= 1.0 - a * a
            else:
                delta *= pre[l - 1] > 0.0
    return loss, grads_w, grads_b


@dataclass
class AdamState:
    """First and second moment estimates, flat in the layout of model.params."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(model: MlpModel) -> AdamState:
    return AdamState(m=np.zeros_like(model.params), v=np.zeros_like(model.params))


def _flat_base(arrays: Sequence[np.ndarray], size: int) -> Optional[np.ndarray]:
    """The 1-d float64 buffer of `size` that every array views, or None."""
    base = arrays[0].base
    if not isinstance(base, np.ndarray) or base.shape != (size,) or base.dtype != np.float64:
        return None
    return base if all(a.base is base for a in arrays) else None


def adam_step(model: MlpModel, grads_w, grads_b, state: AdamState, config: MlpConfig) -> None:
    """One adam update of every parameter, element-wise over flat buffers.

    Gradients that view one flat buffer in the layout of model.params, as
    loss_and_gradients returns them, are read in place; any other arrays
    are gathered into one first. Every expression keeps the order of the
    per-layer update m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
    w -= (lr * (m / corr1)) / (sqrt(v / corr2) + eps), so results match
    it bit for bit.
    """
    layers = [*grads_w, *grads_b]
    g = _flat_base(layers, state.m.size)
    if g is None:
        g = np.empty_like(state.m)
        flat_w, flat_b = _views(g, [w.shape for w in model.weights])
        for view, layer in zip([*flat_w, *flat_b], layers):
            view[...] = layer
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    m, v = state.m, state.v
    step = np.multiply(g, 1 - b1)
    m *= b1
    m += step
    np.square(g, out=step)
    step *= 1 - b2
    v *= b2
    v += step
    np.divide(m, corr1, out=step)
    step *= config.learning_rate
    denom = np.divide(v, corr2)
    np.sqrt(denom, out=denom)
    denom += config.epsilon
    step /= denom
    if _flat_base([*model.weights, *model.biases], model.params.size) is model.params:
        model.params -= step
    else:
        # a caller swapped in its own layer arrays: update those
        step_w, step_b = _views(step, [w.shape for w in model.weights])
        for layer, delta in zip([*model.weights, *model.biases], [*step_w, *step_b]):
            layer -= delta


def train(model: MlpModel, train_set: FeatureSet, config: Optional[MlpConfig] = None) -> TrainReport:
    """Mini-batch adam with early stopping on the epoch training loss.

    The model's bound normalizer maps features and labels into training
    space; the per-epoch loss is the batch-size weighted mean of batch
    losses. An epoch that fails to beat the best loss by min_delta
    burns one unit of patience; running out of patience stops training
    with the last (not best) weights kept.
    """
    config = config or model.config
    validate_mlp_config(config)
    if model.normalizer is None:
        raise ConfigurationError("model needs a bound normalizer before training")
    if len(train_set) < 1:
        raise DataError("training needs at least one feature vector")

    x = apply(model.normalizer, train_set.values)
    y = apply_labels(model.normalizer, train_set.labels)
    n = x.shape[0]
    rng = np.random.default_rng(config.rng_seed)
    state = init_adam(model)

    history: List[float] = []
    best: Optional[float] = None
    wait = 0
    stopped_early = False
    for _ in range(config.max_epochs):
        perm = rng.permutation(n)
        x_epoch = x[perm]
        y_epoch = y[perm]
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            xb = x_epoch[start : start + config.batch_size]
            loss, gw, gb = loss_and_gradients(model, xb, y_epoch[start : start + config.batch_size])
            adam_step(model, gw, gb, state, config)
            epoch_loss += loss * len(xb)
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
    validate_mlp_config(config)
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
