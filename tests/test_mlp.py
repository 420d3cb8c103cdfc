import hashlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from beamprint.configfile import from_dict, to_dict
from beamprint.errors import ConfigurationError, DataError, TrainingDivergenceError
from beamprint.features import FeatureConfig, FeatureSet, apply, apply_labels, fit_normalizer
from beamprint.mlp import (
    AdamState,
    MlpConfig,
    MlpModel,
    adam_step,
    forward,
    init_adam,
    init_model,
    loss_and_gradients,
    mlp_from_dict,
    mlp_to_dict,
    predict,
    train,
)


def feature_set(values, labels):
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return FeatureSet(
        values=values,
        labels=labels,
        config=FeatureConfig(),
        reasons=np.zeros(values.shape[0], dtype=np.int8),
    )


# ---------------------------------------------------------------------------
# initialization


def test_init_glorot_bounds():
    # 7 inputs, one hidden layer of 64: bound is sqrt(6/71)
    model = init_model(MlpConfig(hidden_layers=(64,)), input_width=7)
    bound = math.sqrt(6.0 / 71.0)
    assert bound == pytest.approx(0.2907, abs=5e-4)
    w = model.weights[0]
    assert w.shape == (7, 64)
    assert np.abs(w).max() <= bound
    # uniform fill should get close to the bound with 448 draws
    assert np.abs(w).max() > 0.9 * bound
    out = model.weights[1]
    assert out.shape == (64, 2)
    assert np.abs(out).max() <= math.sqrt(6.0 / 66.0)
    assert all(np.all(b == 0.0) for b in model.biases)


def test_init_deterministic_in_seed():
    a = init_model(MlpConfig(rng_seed=5), input_width=9)
    b = init_model(MlpConfig(rng_seed=5), input_width=9)
    c = init_model(MlpConfig(rng_seed=6), input_width=9)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


def test_init_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        init_model(MlpConfig(hidden_layers=()), input_width=4)
    with pytest.raises(ConfigurationError):
        init_model(MlpConfig(activation="sigmoid"), input_width=4)
    with pytest.raises(ConfigurationError):
        init_model(MlpConfig(), input_width=0)
    with pytest.raises(ConfigurationError):
        init_model(MlpConfig(batch_size=0), input_width=4)


@pytest.mark.parametrize("key", ["learning_rate", "beta1", "beta2", "epsilon", "min_delta"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_init_rejects_non_finite_numbers(key, bad):
    # CLI flags reach the config without the file codec's finite rule
    with pytest.raises(ConfigurationError, match=key):
        init_model(replace(MlpConfig(), **{key: bad}), input_width=4)


def test_init_rejects_a_negative_seed():
    with pytest.raises(ConfigurationError, match="rng_seed"):
        init_model(MlpConfig(rng_seed=-1), input_width=4)


# ---------------------------------------------------------------------------
# forward pass


def hand_model(activation="tanh"):
    # fixed tiny net: 2 -> 2 -> 2, hand-pickable numbers, written in place
    model = init_model(MlpConfig(hidden_layers=(2,), activation=activation), input_width=2)
    model.weights[0][...] = [[1.0, 0.0], [0.0, -1.0]]
    model.biases[0][...] = [0.5, 0.0]
    model.weights[1][...] = [[2.0, 1.0], [0.0, 1.0]]
    model.biases[1][...] = [0.0, -1.0]
    return model


def test_forward_hand_computed_tanh():
    model = hand_model("tanh")
    x = np.array([1.0, 2.0])
    h = np.tanh([1.5, -2.0])
    expect = np.array([2.0 * h[0], h[0] + h[1] - 1.0])
    assert np.allclose(forward(model, x), expect)


def test_forward_hand_computed_relu():
    model = hand_model("relu")
    x = np.array([1.0, 2.0])
    h = np.array([1.5, 0.0])  # relu clips the negative pre-activation
    expect = np.array([2.0 * h[0], h[0] + h[1] - 1.0])
    assert np.allclose(forward(model, x), expect)


def test_forward_linear_output_layer():
    # output must not be squashed: feed values far outside tanh range
    model = hand_model("tanh")
    model.weights[1] *= 100.0
    out = forward(model, np.array([1.0, 2.0]))
    assert np.abs(out).max() > 10.0


def test_forward_batch_matches_single():
    model = init_model(MlpConfig(hidden_layers=(5, 3)), input_width=4)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4))
    batch = forward(model, x)
    assert batch.shape == (6, 2)
    for i in range(6):
        assert np.allclose(batch[i], forward(model, x[i]))


def test_forward_rejects_width_mismatch():
    model = init_model(MlpConfig(), input_width=4)
    with pytest.raises(DataError):
        forward(model, np.zeros(5))


# ---------------------------------------------------------------------------
# loss and gradients


def test_loss_is_mse_over_batch_and_dims():
    model = hand_model()
    x = np.array([[1.0, 2.0], [0.0, 0.0]])
    y = np.zeros((2, 2))
    pred = forward(model, x)
    expect = float(np.mean((pred - y) ** 2))
    loss, _, _ = loss_and_gradients(model, x, y)
    assert loss == pytest.approx(expect, abs=1e-15)


def finite_difference_grads(model, x, y, step=1e-5):
    gw = [np.zeros_like(w) for w in model.weights]
    gb = [np.zeros_like(b) for b in model.biases]
    for arr, grad in list(zip(model.weights, gw)) + list(zip(model.biases, gb)):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up, _, _ = loss_and_gradients(model, x, y)
            flat[i] = keep - step
            down, _, _ = loss_and_gradients(model, x, y)
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * step)
    return gw, gb


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gradients_match_finite_differences(activation, rng):
    # small randomized check; the acceptance suite runs the big sweep
    for _ in range(5):
        width = int(rng.integers(2, 7))
        model = init_model(
            MlpConfig(hidden_layers=(width,), activation=activation, rng_seed=int(rng.integers(1000))),
            input_width=int(rng.integers(2, 6)),
        )
        x = rng.normal(size=(4, model.input_width))
        y = rng.normal(size=(4, 2))
        _, gw, gb = loss_and_gradients(model, x, y)
        fw, fb = finite_difference_grads(model, x, y)
        for a, b in zip(gw + gb, fw + fb):
            denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
            assert np.max(np.abs(a - b) / denom) < 1e-4


def test_gradient_shapes_and_validation():
    model = init_model(MlpConfig(hidden_layers=(3,)), input_width=4)
    x = np.zeros((5, 4))
    y = np.zeros((5, 2))
    _, gw, gb = loss_and_gradients(model, x, y)
    assert [g.shape for g in gw] == [(4, 3), (3, 2)]
    assert [g.shape for g in gb] == [(3,), (2,)]
    with pytest.raises(DataError):
        loss_and_gradients(model, x, np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# adam


def test_adam_first_step_direction_and_size():
    # with bias correction the first update is lr * g / (|g| + eps),
    # essentially +-lr regardless of gradient magnitude
    model = init_model(MlpConfig(learning_rate=1e-3), input_width=2)
    w0 = [w.copy() for w in model.weights]
    state = init_adam(model)
    gw = [np.full_like(w, 0.5) for w in model.weights]
    gb = [np.full_like(b, -2.0) for b in model.biases]
    adam_step(model, gw, gb, state)
    for before, after in zip(w0, model.weights):
        assert np.allclose(before - after, 1e-3, atol=1e-9)
    for b in model.biases:
        assert np.allclose(b, 1e-3, atol=1e-9)
    assert state.t == 1


def test_adam_zero_gradient_keeps_weights():
    model = init_model(MlpConfig(), input_width=2)
    w0 = [w.copy() for w in model.weights]
    state = init_adam(model)
    gw = [np.zeros_like(w) for w in model.weights]
    gb = [np.zeros_like(b) for b in model.biases]
    adam_step(model, gw, gb, state)
    assert all(np.array_equal(a, b) for a, b in zip(w0, model.weights))


def test_adam_states_compare_by_step_count_and_moments():
    model = init_model(MlpConfig(), input_width=2)
    assert init_adam(model) == init_adam(model)
    stepped = init_adam(model)
    stepped.t = 1
    assert init_adam(model) != stepped
    for moment in ("m", "v"):
        changed = init_adam(model)
        getattr(changed, moment)[-1] = 1e-12
        assert changed != init_adam(model) and changed == changed
    assert init_adam(model) != "state"


def oracle_adam_step(weights, biases, grads_w, grads_b, moments, t, config):
    """Reference: the per-layer adam update on separate arrays, as it was
    before parameters moved into one flat buffer. `moments` holds m_w,
    v_w, m_b, v_b lists; arrays are replaced or updated in place."""
    m_w, v_w, m_b, v_b = moments
    b1, b2 = config.beta1, config.beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for l in range(len(weights)):
        m_w[l] = b1 * m_w[l] + (1 - b1) * grads_w[l]
        v_w[l] = b2 * v_w[l] + (1 - b2) * grads_w[l] ** 2
        m_hat = m_w[l] / corr1
        v_hat = v_w[l] / corr2
        weights[l] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)

        m_b[l] = b1 * m_b[l] + (1 - b1) * grads_b[l]
        v_b[l] = b2 * v_b[l] + (1 - b2) * grads_b[l] ** 2
        m_hat = m_b[l] / corr1
        v_hat = v_b[l] / corr2
        biases[l] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)


def oracle_loss_and_gradients(model, x, y):
    """Reference: the backward pass with separately allocated gradients and
    the activation derivative recomputed from the pre-activations."""
    acts, pre = [x], []
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        pre.append(z)
        last = l == len(model.weights) - 1
        acts.append(z if last else (np.tanh(z) if model.config.activation == "tanh" else np.maximum(z, 0.0)))
    diff = acts[-1] - y
    loss = float(np.mean(diff * diff))
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = 2.0 * diff / (x.shape[0] * 2)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = acts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            if model.config.activation == "tanh":
                t = np.tanh(pre[l - 1])
                grad = 1.0 - t * t
            else:
                grad = (pre[l - 1] > 0.0).astype(np.float64)
            delta = (delta @ model.weights[l].T) * grad
    return loss, grads_w, grads_b


@pytest.mark.parametrize("hidden", [(5,), (6, 4)])
def test_adam_step_matches_per_layer_oracle(hidden):
    config = MlpConfig(hidden_layers=hidden, learning_rate=3e-3, beta1=0.8, beta2=0.99)
    model = init_model(config, input_width=3)
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    moments = tuple([np.zeros_like(a) for a in arrays] for arrays in (weights, weights, biases, biases))
    state = init_adam(model)
    rng = np.random.default_rng(31)
    for t in range(1, 51):
        # gradients of every scale, some exactly zero
        gw = [rng.normal(size=w.shape) * 10.0 ** rng.integers(-6, 3) for w in weights]
        gb = [rng.normal(size=b.shape) * (rng.random(b.shape) < 0.7) for b in biases]
        oracle_adam_step(weights, biases, gw, gb, moments, t, config)
        adam_step(model, gw, gb, state)
        assert state.t == t
        for got, want in zip(model.weights + model.biases, weights + biases):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_loss_and_gradients_match_oracle(activation, rng):
    model = init_model(MlpConfig(hidden_layers=(9, 5), activation=activation, rng_seed=2), input_width=4)
    for batch in (1, 7, 32):
        x = rng.normal(size=(batch, 4))
        y = rng.normal(size=(batch, 2))
        loss, gw, gb = loss_and_gradients(model, x, y)
        want_loss, want_w, want_b = oracle_loss_and_gradients(model, x, y)
        assert loss == want_loss
        for got, want in zip(gw + gb, want_w + want_b):
            assert np.array_equal(got, want)


def oracle_train(config, ts):
    """Reference training loop: x[idx] batches through the oracle backward
    pass and per-layer adam, each batch's loss added as it is computed,
    and the same stopping rule. Returns the trained model, loss history
    and whether patience ran out."""
    model = init_model(config, input_width=ts.values.shape[1])
    model.normalizer = fit_normalizer(ts)
    weights, biases = model.weights, model.biases
    moments = tuple([np.zeros_like(a) for a in arrays] for arrays in (weights, weights, biases, biases))
    x = apply(model.normalizer, ts.values)
    y = apply_labels(model.normalizer, ts.labels)
    rng = np.random.default_rng(config.rng_seed)
    t = 0
    history = []
    best, wait = None, 0
    for _ in range(config.max_epochs):
        perm = rng.permutation(len(x))
        epoch_loss = 0.0
        for start in range(0, len(x), config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, gw, gb = oracle_loss_and_gradients(model, x[idx], y[idx])
            t += 1
            oracle_adam_step(weights, biases, gw, gb, moments, t, config)
            epoch_loss += loss * len(idx)
        history.append(epoch_loss / len(x))
        if best is None or history[-1] < best - config.min_delta:
            best, wait = history[-1], 0
        else:
            wait += 1
            if wait >= config.patience:
                return model, history, True
    return model, history, False


# (rows, batch size, max_epochs, patience, min_delta): batches of every
# size up to past numpy's 128-value pairwise-sum block (100 and 256 rows
# of two outputs), with and without a short last batch; a 1-row tail; one
# batch of all rows or of more than there are; and a stop on patience
ORACLE_RUNS = {
    "b1": (300, 1, 3, 10**9, 0.0),
    "b8-tail4": (300, 8, 3, 10**9, 0.0),
    "b32-tail12": (300, 32, 3, 10**9, 0.0),
    "b100": (300, 100, 3, 10**9, 0.0),
    "b256-tail44": (300, 256, 3, 10**9, 0.0),
    "b32-tail1": (33, 32, 3, 10**9, 0.0),
    "b33-one-batch": (33, 33, 3, 10**9, 0.0),
    "b64-past-n": (33, 64, 3, 10**9, 0.0),
    "patience-stop": (300, 32, 40, 2, 0.05),
}


def assert_train_matches_oracle(config, ts):
    """train against the oracle loop on `ts`, as bits; returns whether
    training stopped on patience."""
    model = init_model(config, input_width=ts.values.shape[1])
    model.normalizer = fit_normalizer(ts)
    report = train(model, ts)
    ref, history, stopped = oracle_train(config, ts)
    assert report.stopped_early == stopped
    assert np.array(model.loss_history).view(np.uint64).tolist() == np.array(history).view(np.uint64).tolist()
    assert np.array_equal(model.params.view(np.uint64), ref.params.view(np.uint64))
    return stopped


def oracle_config(run, **kwargs):
    """The training config of an ORACLE_RUNS case."""
    rows, batch, max_epochs, patience, min_delta = ORACLE_RUNS[run]
    return MlpConfig(
        batch_size=batch, max_epochs=max_epochs, patience=patience, min_delta=min_delta, rng_seed=9, **kwargs
    )


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("hidden", [(6,), (6, 4), (1,)], ids=["h6", "h6x4", "h1"])
@pytest.mark.parametrize("run", sorted(ORACLE_RUNS))
def test_train_steps_match_oracle_loop(run, hidden, activation):
    # the training loop (one step program per batch, np.dot into its
    # workspace, the stacked adam update, epoch loss summed once) against
    # the oracle loop, as bits
    ts = toy_training_set(n=ORACLE_RUNS[run][0], seed=4)
    stopped = assert_train_matches_oracle(oracle_config(run, hidden_layers=hidden, activation=activation), ts)
    assert stopped == (run == "patience-stop")


@pytest.mark.parametrize(
    "hidden, activation, width",
    [((6, 5, 4), "relu", 3), ((128, 128), "tanh", 13)],
    ids=["relu-h6x5x4", "tanh-13-h128x128"],
)
@pytest.mark.parametrize("run", ["b32-tail12", "b32-tail1", "patience-stop"])
def test_deeper_and_wider_train_steps_match_oracle_loop(run, hidden, activation, width):
    # three hidden layers, and the 13 -> 128 -> 128 shape of a network
    # sweep arm: more layers in each step program, matmuls past BLAS's
    # small-matrix paths
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.0, 1.0, size=(ORACLE_RUNS[run][0], width))
    ts = feature_set(x, np.column_stack([x[:, 0] + 0.5 * x[:, 1], x[:, 2] - x[:, 0]]))
    stopped = assert_train_matches_oracle(oracle_config(run, hidden_layers=hidden, activation=activation), ts)
    assert stopped == (run == "patience-stop")


def test_one_full_batch_epoch_is_loss_and_gradients_then_adam_step():
    # train's step program and adam against the public calls it shares
    # them with: a one-epoch fit whose one batch holds every row
    ts = toy_training_set(n=50, seed=8)
    config = MlpConfig(hidden_layers=(7, 3), batch_size=64, max_epochs=1, rng_seed=13)
    fitted = init_model(config, input_width=3)
    fitted.normalizer = fit_normalizer(ts)
    train(fitted, ts)
    model = init_model(config, input_width=3)
    perm = np.random.default_rng(config.rng_seed).permutation(len(ts))
    x = apply(fitted.normalizer, ts.values)[perm]
    y = apply_labels(fitted.normalizer, ts.labels)[perm]
    loss, gw, gb = loss_and_gradients(model, x, y)
    adam_step(model, gw, gb, init_adam(model))
    assert np.array_equal(model.params.view(np.uint64), fitted.params.view(np.uint64))
    assert loss == pytest.approx(fitted.loss_history[0], rel=1e-15)


def test_parameters_share_one_flat_buffer():
    model = init_model(MlpConfig(hidden_layers=(4, 3)), input_width=5)
    assert model.params.shape == (5 * 4 + 4 + 4 * 3 + 3 + 3 * 2 + 2,)
    for layer in model.weights + model.biases:
        assert layer.base is model.params

    def offsets(arrays, base):
        return [a.ctypes.data - base.ctypes.data for a in arrays]

    # the gradients are laid out like model.params in the first row of one
    # buffer, whose second row adam squares them into
    _, gw, gb = loss_and_gradients(model, np.ones((3, 5)), np.zeros((3, 2)))
    grad = gw[0].base
    assert all(g.base is grad for g in gw + gb)
    assert grad.shape == (2, model.params.size)
    assert offsets(gw + gb, grad) == offsets(model.weights + model.biases, model.params)
    # adam's two moments are the two rows of one buffer
    state = init_adam(model)
    assert state.m.base is state.v.base is state.moments
    assert offsets([state.m, state.v], state.moments) == [0, model.params.nbytes]


def test_train_and_adam_step_refuse_swapped_layers():
    # adam updates model.params, so an array put in place of a layer view
    # would be left behind; both entry points refuse it and change nothing
    ts = toy_training_set()
    model = init_model(MlpConfig(hidden_layers=(6,), max_epochs=3), input_width=3)
    model.normalizer = fit_normalizer(ts)
    model.weights[0] = model.weights[0].copy()
    params = model.params.copy()
    state = init_adam(model)
    gw = [np.full_like(w, 0.25) for w in model.weights]
    gb = [np.full_like(b, -1.5) for b in model.biases]
    with pytest.raises(ConfigurationError, match="in place"):
        adam_step(model, gw, gb, state)
    with pytest.raises(ConfigurationError, match="in place"):
        train(model, ts)
    assert np.array_equal(model.params.view(np.uint64), params.view(np.uint64))
    assert state.t == 0 and not state.m.any()
    assert model.loss_history == []


# ---------------------------------------------------------------------------
# training loop


def toy_training_set(n=64, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 3))
    y = np.column_stack([x[:, 0] + 0.5 * x[:, 1], x[:, 2] - x[:, 0]])
    return feature_set(x, y)


def test_train_requires_normalizer():
    model = init_model(MlpConfig(), input_width=3)
    with pytest.raises(ConfigurationError):
        train(model, toy_training_set())


def test_train_reduces_loss_and_records_history():
    ts = toy_training_set()
    model = init_model(MlpConfig(max_epochs=40, patience=40), input_width=3)
    model.normalizer = fit_normalizer(ts)
    report = train(model, ts)
    assert report.epochs_run == len(report.loss_history) == len(model.loss_history)
    assert report.final_loss == report.loss_history[-1]
    assert report.loss_history[-1] < report.loss_history[0]


def test_train_bit_for_bit_deterministic():
    ts = toy_training_set()
    outs = []
    for _ in range(2):
        model = init_model(MlpConfig(max_epochs=10, rng_seed=3), input_width=3)
        model.normalizer = fit_normalizer(ts)
        train(model, ts)
        outs.append(model)
    a, b = outs
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
    assert a.loss_history == b.loss_history


def test_train_shuffle_seed_changes_path():
    ts = toy_training_set()
    losses = []
    init = init_model(MlpConfig(max_epochs=5, rng_seed=0), input_width=3)
    for seed in (0, 1):
        # same init, different shuffle
        model = MlpModel(init.weights, init.biases, MlpConfig(max_epochs=5, rng_seed=seed))
        model.normalizer = fit_normalizer(ts)
        train(model, ts)
        losses.append(model.loss_history)
    assert losses[0] != losses[1]


def test_early_stop_patience_one_infinite_delta_runs_two_epochs():
    # an infinite min_delta is refused like every non-finite number; the
    # largest finite one asks as much: the first epoch sets the baseline,
    # the second cannot beat it by that much, so training halts at epoch 2
    with pytest.raises(ConfigurationError, match="min_delta"):
        init_model(MlpConfig(patience=1, min_delta=float("inf")), input_width=3)
    ts = toy_training_set()
    model = init_model(
        MlpConfig(max_epochs=100, patience=1, min_delta=sys.float_info.max), input_width=3
    )
    model.normalizer = fit_normalizer(ts)
    report = train(model, ts)
    assert report.epochs_run == 2
    assert report.stopped_early


def test_early_stop_keeps_last_weights():
    # run A: unrestricted 30 epochs. run B: same but patience forces a
    # stop; B's weights must equal A's at the stopping epoch (last, not
    # best, weights are kept)
    ts = toy_training_set()
    a = init_model(MlpConfig(max_epochs=30, patience=10**9, rng_seed=2), input_width=3)
    a.normalizer = fit_normalizer(ts)
    report_a = train(a, ts)

    b = init_model(MlpConfig(max_epochs=30, patience=3, min_delta=1.0, rng_seed=2), input_width=3)
    b.normalizer = fit_normalizer(ts)
    report_b = train(b, ts)
    assert report_b.stopped_early
    assert report_b.epochs_run < report_a.epochs_run
    assert report_b.loss_history == report_a.loss_history[: report_b.epochs_run]


def test_max_epochs_without_stop():
    ts = toy_training_set()
    model = init_model(MlpConfig(max_epochs=7, patience=10**9), input_width=3)
    model.normalizer = fit_normalizer(ts)
    report = train(model, ts)
    assert report.epochs_run == 7
    assert not report.stopped_early


def test_divergence_raises():
    # adam steps are ~lr in size, so an absurd rate walks the output
    # layer past 1e154 and the squared error overflows to inf
    ts = toy_training_set()
    model = init_model(MlpConfig(learning_rate=1e160, max_epochs=50), input_width=3)
    model.normalizer = fit_normalizer(ts)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergenceError):
        train(model, ts)


def test_predict_maps_back_to_metres():
    # labels live far from the origin; predict must undo the label z-score
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, size=(128, 3))
    y = np.column_stack([100.0 + 20.0 * x[:, 0], 500.0 + 10.0 * x[:, 1]])
    ts = feature_set(x, y)
    model = init_model(MlpConfig(max_epochs=200, patience=200), input_width=3)
    model.normalizer = fit_normalizer(ts)
    train(model, ts)
    pred = predict(model, x)
    assert np.mean(np.linalg.norm(pred - y, axis=1)) < 2.0
    assert 80.0 < pred[:, 0].mean() < 120.0


# ---------------------------------------------------------------------------
# serialization


def test_config_round_trip():
    cfg = MlpConfig(hidden_layers=(32, 16), activation="relu", rng_seed=9)
    assert from_dict(MlpConfig, to_dict(cfg), "mlp config") == cfg


def test_config_unknown_key():
    d = to_dict(MlpConfig())
    d["momentum"] = 0.9
    with pytest.raises(ConfigurationError):
        from_dict(MlpConfig, d, "mlp config")


def test_model_round_trip():
    ts = toy_training_set()
    model = init_model(MlpConfig(max_epochs=3), input_width=3)
    model.normalizer = fit_normalizer(ts)
    train(model, ts)
    back = mlp_from_dict(mlp_to_dict(model))
    assert all(np.array_equal(a, b) for a, b in zip(back.weights, model.weights))
    assert back.loss_history == model.loss_history
    assert np.allclose(predict(back, ts.values), predict(model, ts.values))


# ---------------------------------------------------------------------------
# golden digests of trained weights, biases and loss history, taken before
# training moved to one flat parameter buffer; a change in the order of
# any floating-point operation shows here. tanh and matmul have per-CPU
# and per-release kernels in numpy and BLAS, so the digests (taken with
# numpy 2.4.6 and OpenBLAS 0.3.31 on an x86-64 AVX-512 host) are checked
# only where those kernels give the same bits; the oracle tests above
# compare the arithmetic exactly on any platform.


def float_kernels_digest():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(24, 7))
    w1 = rng.normal(size=(7, 64))
    w2 = rng.normal(size=(64, 2))
    h = np.tanh(x @ w1)
    d = rng.normal(size=(24, 2))
    parts = [np.tanh(np.linspace(-5.0, 5.0, 2001)), h, h @ w2, h.T @ d, d @ w2.T, x.T @ (d @ w2.T)]
    return hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts)).hexdigest()


GOLDEN_FLOAT_KERNELS = "b981e2f930a41235745a4d3fa617f47b2d7a23892a6999514338706e41fd0354"


def radio_kernels_digest():
    """The radio model's transcendental kernels over fixed inputs:
    np.arctan2 for site azimuth and elevation, np.log10 for path loss.
    Where numpy dispatches other kernels for them (AVX-512 off, another
    CPU or release), their last bits move, and every RSRP value with them."""
    grid = np.linspace(-400.0, 400.0, 321)
    dx, dy = np.meshgrid(grid, grid)
    parts = [np.arctan2(dy, dx), np.arctan2(-23.5, np.abs(grid) + 0.25), np.log10(np.geomspace(0.05, 5e6, 20001))]
    return hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts)).hexdigest()


GOLDEN_RADIO_KERNELS = "a4bee262d3ce75b6a71eb1ed50ad331215e0d0ab34ce1e6687f78ea4b9b6e848"

# for golden digests of data swept by the radio model (numpy 2.4.6, x86-64
# AVX-512); the oracle tests of the same code run everywhere
radio_kernels_as_pinned = pytest.mark.skipif(
    radio_kernels_digest() != GOLDEN_RADIO_KERNELS,
    reason="numpy arctan2/log10 kernels differ from those the radio-derived digests were taken with",
)


def golden_set(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 7))
    x[:, 5:] = rng.integers(0, 4, size=(n, 2))  # id-like integer columns
    y = np.column_stack([np.tanh(x[:, 0]) + 0.3 * x[:, 5], x[:, 1] * x[:, 2] - 0.2 * x[:, 6]])
    return feature_set(x, 100.0 * y)


def model_digest(model):
    h = hashlib.sha256()
    for a in [*model.weights, *model.biases, np.array(model.loss_history)]:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


GOLDEN_TRAINING = {
    # name: (config, rows, data seed, stops on patience, digest)
    "tanh-h64": (
        MlpConfig(hidden_layers=(64,), max_epochs=80, patience=2, min_delta=1e-3),
        256,
        11,
        True,
        "32b1ab459b138ea907e69e4b7bee620caeec33de0119838f544cf7510f17dedc",
    ),
    "relu-h64x32": (
        MlpConfig(hidden_layers=(64, 32), activation="relu", max_epochs=80, patience=2, min_delta=1e-3, rng_seed=4),
        256,
        12,
        True,
        "7547259babbb489ab227050adfa3d8a5e04091fc65fb187a7613e0acb3776c2f",
    ),
    "batch-remainder": (
        MlpConfig(hidden_layers=(16,), batch_size=24, max_epochs=80, patience=2, min_delta=1e-2, rng_seed=5),
        203,
        13,
        True,
        "e586c9a6086b6a45e35dd8e5a0e290f505817cca481d5db5877d4f2d218d1f05",
    ),
    "max-epochs": (
        MlpConfig(hidden_layers=(8,), max_epochs=15, patience=10**9, rng_seed=6),
        100,
        14,
        False,
        "9bffd48c423701300d3149e962a2942b15d475fc74529924f4539fa0ffb516ac",
    ),
}


@pytest.mark.skipif(
    float_kernels_digest() != GOLDEN_FLOAT_KERNELS,
    reason="numpy/BLAS float kernels differ from those the digests were taken with",
)
@pytest.mark.parametrize("name", sorted(GOLDEN_TRAINING))
def test_training_matches_golden_digest(name):
    config, n, seed, stops_early, digest = GOLDEN_TRAINING[name]
    ts = golden_set(n, seed)
    model = init_model(config, input_width=7)
    model.normalizer = fit_normalizer(ts)
    report = train(model, ts)
    assert report.stopped_early == stops_early
    assert model_digest(model) == digest
