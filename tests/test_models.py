import json
import warnings

import numpy as np
import pytest

from setgen import nn
from setgen.core import (Dataset, FlatPair, SetSample, TrainingError, ValidationError,
                         json_hash)
from setgen.models import (
    LabelModel,
    MultiLabelBaseline,
    SequenceModel,
    TrainConfig,
    checkpoint,
    from_checkpoint,
    gradient_check,
    load_checkpoint,
    save_checkpoint,
    train_label_model,
    train_multilabel_baseline,
    train_sequence_model,
)
from setgen.lambda_net import GateExamples, LambdaNet, train_lambda_net
from tests.conftest import greedy_decode


def zeroed(model):
    for p in model.params.values():
        p[...] = 0.0
    return model


# --- label model -------------------------------------------------------------


def test_zero_initialized_softmax_is_uniform():
    m = zeroed(LabelModel(4, 5, (8,), seed=0))
    probs = m.posterior((1.0, -2.0, 0.5, 3.0))
    assert np.allclose(probs, 0.2)


def test_posterior_is_valid_distribution_under_random_params():
    rng = np.random.default_rng(1)
    for seed in range(5):
        m = LabelModel(6, 4, (10,), seed=seed)
        for _ in range(20):
            probs = m.posterior(tuple(rng.normal(size=6)))
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) < 1e-9


def test_posterior_is_pure():
    m = LabelModel(3, 3, (5,), seed=2)
    x = (0.3, -1.0, 2.0)
    assert np.array_equal(m.posterior(x), m.posterior(x))


def test_posterior_rejects_dimension_mismatch():
    m = LabelModel(3, 3, (5,), seed=2)
    with pytest.raises(ValidationError):
        m.posterior((1.0, 2.0))


def test_hand_set_logits_softmax_values():
    # direct softmax of logits (1, 0, 0)
    m = zeroed(LabelModel(1, 3, hidden_sizes=(), seed=0))
    m.params["W0"][0, 0] = 1.0
    probs = m.posterior((1.0,))
    assert probs == pytest.approx([0.5761, 0.2119, 0.2119], abs=5e-4)


def test_separable_classes_reach_perfect_accuracy():
    rng = np.random.default_rng(4)
    pairs = []
    xs = []
    for i in range(200):
        cls = i % 2
        x = tuple(rng.normal(loc=(3.0 if cls else -3.0), scale=0.5, size=2).tolist())
        xs.append((x, cls))
        pairs.append(FlatPair(x=x, y_elem=cls, group_id=i))
    cfg = TrainConfig(learning_rate=5e-2, batch_size=20, epochs=40, seed=0)
    m = train_label_model(pairs, cfg, n_labels=2, hidden_sizes=(8,))
    held_out = [(tuple(rng.normal(loc=(3.0 if c else -3.0), scale=0.5, size=2).tolist()), c)
                for c in (0, 1) for _ in range(25)]
    acc = np.mean([int(np.argmax(m.posterior(x))) == c for x, c in held_out])
    assert acc == 1.0


def test_multi_target_input_splits_posterior_mass():
    # one input flattened into targets {A, B} over {A, B, C}
    x = (1.0, 0.0)
    pairs = [FlatPair(x=x, y_elem=0, group_id=0), FlatPair(x=x, y_elem=1, group_id=0)]
    cfg = TrainConfig(learning_rate=0.1, batch_size=2, epochs=300, seed=0)
    m = train_label_model(pairs, cfg, n_labels=3, hidden_sizes=(4,))
    probs = m.posterior(x)
    assert probs == pytest.approx([0.5, 0.5, 0.0], abs=0.05)


def test_training_loss_is_nonincreasing_overall():
    rng = np.random.default_rng(5)
    pairs = [FlatPair(x=tuple(rng.normal(size=3).tolist()), y_elem=int(rng.integers(3)),
                      group_id=i) for i in range(60)]
    cfg = TrainConfig(learning_rate=1e-2, batch_size=60, epochs=30, seed=1)
    m = train_label_model(pairs, cfg, n_labels=3, hidden_sizes=(6,))
    # full-batch training: loss decreases monotonically up to tiny numerical slack
    diffs = np.diff(m.train_losses)
    assert np.all(diffs <= 1e-6)


def test_training_is_bit_deterministic():
    rng = np.random.default_rng(6)
    pairs = [FlatPair(x=tuple(rng.normal(size=3).tolist()), y_elem=int(rng.integers(4)),
                      group_id=i) for i in range(40)]
    cfg = TrainConfig(learning_rate=1e-3, batch_size=7, epochs=5, seed=9)
    m1 = train_label_model(pairs, cfg, n_labels=4, hidden_sizes=(5,))
    m2 = train_label_model(pairs, cfg, n_labels=4, hidden_sizes=(5,))
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])
    assert m1.train_losses == m2.train_losses


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_divergence_raises_training_error():
    pairs = [FlatPair(x=(1e3, -1e3), y_elem=1, group_id=0),
             FlatPair(x=(-1e3, 1e3), y_elem=0, group_id=1)]
    # one step at this rate overflows the weights; the next loss is non-finite
    cfg = TrainConfig(learning_rate=1e308, batch_size=2, epochs=3, seed=0)
    with pytest.raises(TrainingError, match="epoch"):
        train_label_model(pairs, cfg, n_labels=2, hidden_sizes=())


def test_adam_in_place_step_matches_textbook_update():
    rng = np.random.default_rng(11)
    shapes = {"W": (6, 4), "b": (4,), "scalar": (), "single": (1,)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = nn.Adam(params, lr)
    for t in range(1, 51):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.uniform(-4, 2) for k, s in shapes.items()}
        opt.step(grads)
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            m_hat = m[k] / (1.0 - b1 ** t)
            v_hat = v[k] / (1.0 - b2 ** t)
            ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in shapes:
            assert np.array_equal(params[k], ref[k]), (t, k)


class PerParameterAdam:
    """Textbook Adam, one parameter array at a time, in the library's association order."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, grads):
        self.t += 1
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            m_hat = self.m[k] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[k] / (1.0 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _label_pairs(n=40, n_labels=4):
    rng = np.random.default_rng(21)
    return [FlatPair(x=tuple(rng.normal(size=3).tolist()), y_elem=int(rng.integers(n_labels)),
                     group_id=i) for i in range(n)]


def _gate_examples(n=24, vocab=5):
    rng = np.random.default_rng(22)
    targets = (rng.uniform(size=(n, vocab)) < 0.3).astype(float)
    targets[0] = 0.0
    targets[0, 0] = 1.0  # both classes present
    return GateExamples(rng.normal(size=(n, vocab)), rng.integers(1, 4, size=n), targets)


def _fit_sequence_model():
    flat = [FlatPair(x=(1, 2), y_elem=(3, 10), group_id=0),
            FlatPair(x=(4,), y_elem=(5, 6, 10), group_id=1),
            FlatPair(x=(7, 8, 9), y_elem=(10,), group_id=2)]
    cfg = TrainConfig(learning_rate=1e-2, batch_size=2, epochs=6, seed=11)
    return train_sequence_model(flat, cfg, input_vocab=10, vocab=11, max_len=3,
                                embed_dim=6, enc_hidden=5, dec_hidden=7)


FAMILY_FITS = {
    "label": lambda: train_label_model(
        _label_pairs(), TrainConfig(learning_rate=1e-2, batch_size=7, epochs=5, seed=9),
        n_labels=4, hidden_sizes=(5,)),
    "baseline": lambda: train_multilabel_baseline(
        Dataset(kind="labels", universe=4, input_dim=3, samples=tuple(
            SetSample(x=p.x, y=tuple(sorted({p.y_elem, (p.y_elem + 1) % 4})))
            for p in _label_pairs())),
        TrainConfig(learning_rate=1e-2, batch_size=7, epochs=5, seed=9), hidden_sizes=(5,)),
    "sequence": _fit_sequence_model,
    "gate-recurrent": lambda: train_lambda_net(
        _gate_examples(), "recurrent", TrainConfig(learning_rate=1e-2, batch_size=8, epochs=4,
                                                   seed=3), max_len=3, hidden=4),
    "gate-windowed": lambda: train_lambda_net(
        _gate_examples(), "windowed", TrainConfig(learning_rate=1e-2, batch_size=8, epochs=4,
                                                  seed=3), max_len=3, filters=3, dense=4),
}


@pytest.mark.parametrize("family", sorted(FAMILY_FITS))
def test_fit_is_bit_identical_to_per_parameter_adam(family, monkeypatch):
    flat = FAMILY_FITS[family]()
    monkeypatch.setattr(nn, "Adam", PerParameterAdam)
    ref = FAMILY_FITS[family]()
    assert list(flat.params) == list(ref.params)
    for k in ref.params:
        assert np.array_equal(flat.params[k], ref.params[k]), k
    assert np.array_equal(flat.train_losses, ref.train_losses)


def test_adam_keeps_params_and_sees_in_place_writes():
    rng = np.random.default_rng(12)
    shapes = {"W": (3, 2), "b": (2,), "scalar": (), "single": (1,)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    opt, ref_opt = nn.Adam(params, 1e-2), PerParameterAdam(ref, 1e-2)
    assert list(params) == list(shapes)
    for k, s in shapes.items():
        assert params[k].shape == s
        assert np.array_equal(params[k], ref[k])
    for t in range(3):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        opt.step(grads)
        ref_opt.step(grads)
        # a write through the dict must reach the optimizer's next step
        params["W"][0] = t
        ref["W"][0] = t
        params["scalar"][...] = -t
        ref["scalar"][...] = -t
    opt.step(grads)
    ref_opt.step(grads)
    for k in shapes:
        assert np.array_equal(params[k], ref[k]), k


def test_checkpoint_round_trip_after_fit(tmp_path):
    m = _fit_sequence_model()
    path = tmp_path / "fitted.json"
    save_checkpoint(m, str(path))
    back = load_checkpoint(str(path))
    assert list(back.params) == list(m.params)
    for k in m.params:
        assert np.array_equal(back.params[k], m.params[k]), k
    assert np.array_equal(m.step_posterior((1, 2), (3,)), back.step_posterior((1, 2), (3,)))
    assert json_hash(checkpoint(m)) == json_hash(checkpoint(back))


# --- multi-label baseline -------------------------------------------------------


def test_untrained_zero_weight_baseline_outputs_half():
    m = zeroed(MultiLabelBaseline(3, 4, (5,), seed=0))
    assert np.allclose(m.probabilities((1.0, 2.0, 3.0)), 0.5)


def test_baseline_thresholding():
    m = MultiLabelBaseline(1, 3, hidden_sizes=(), seed=0, threshold=0.5)
    # hand-set scores so sigmoids are (0.9, 0.2, 0.6)
    logit = lambda p: np.log(p / (1 - p))
    m.params["W0"][...] = 0.0
    m.params["b0"][:] = [logit(0.9), logit(0.2), logit(0.6)]
    assert m.predict_set((0.0,)) == frozenset({0, 2})


def test_baseline_learns_constant_label():
    rng = np.random.default_rng(7)
    samples = tuple(
        SetSample(x=tuple(rng.normal(size=3).tolist()),
                  y=tuple(sorted({1} | set(map(int, rng.choice(3, size=1))))))
        for _ in range(40)
    )
    ds = Dataset(kind="labels", samples=samples, universe=3, input_dim=3)
    cfg = TrainConfig(learning_rate=5e-2, batch_size=10, epochs=60, seed=0)
    m = train_multilabel_baseline(ds, cfg, hidden_sizes=(6,))
    for s in samples[:10]:
        assert m.probabilities(s.x)[1] >= m.threshold
    # the threshold is the model's own, not a training keyword
    with pytest.raises(ValidationError, match="threshold"):
        train_multilabel_baseline(ds, cfg, threshold=0.3)


# --- sequence model --------------------------------------------------------------


def copy_task_model(epochs=120, seed=1):
    rng = np.random.default_rng(0)
    xs = [tuple(map(int, f"{i:03d}")) for i in range(1000)]
    rng.shuffle(xs)
    train, test = xs[:350], xs[350:400]
    flat = [FlatPair(x=x, y_elem=x + (10,), group_id=i) for i, x in enumerate(train)]
    cfg = TrainConfig(learning_rate=5e-3, batch_size=15, epochs=epochs, seed=seed)
    model = train_sequence_model(flat, cfg, input_vocab=10, vocab=11, max_len=4,
                                 embed_dim=16, enc_hidden=32, dec_hidden=32)
    return model, train, test


@pytest.fixture(scope="module")
def copy_model():
    return copy_task_model()


def test_copy_task_held_out_accuracy(copy_model):
    model, _, test = copy_model
    acc = np.mean([greedy_decode(model, x) == x + (10,) for x in test])
    assert acc >= 0.95


def test_untrained_step_posteriors_are_distributions():
    m = SequenceModel(input_vocab=10, vocab=11, max_len=4, embed_dim=8,
                      enc_hidden=6, dec_hidden=9, seed=3)
    for prefix in [(), (4,), (4, 7)]:
        p = m.step_posterior((1, 2, 3), prefix)
        assert p.shape == (11,)
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) < 1e-9


def test_step_posterior_is_pure():
    m = SequenceModel(input_vocab=10, vocab=11, max_len=4, embed_dim=8,
                      enc_hidden=6, dec_hidden=9, seed=3)
    a = m.step_posterior((1, 2), (5,))
    b = m.step_posterior((1, 2), (5,))
    assert np.array_equal(a, b)


def test_step_posterior_rejects_bad_prefix():
    m = SequenceModel(input_vocab=10, vocab=11, max_len=3, embed_dim=4,
                      enc_hidden=4, dec_hidden=4, seed=0)
    with pytest.raises(ValidationError):
        m.step_posterior((1,), (2, 10))  # interior end token
    with pytest.raises(ValidationError):
        m.step_posterior((1,), (1, 2, 3))  # prefix not below max_len


def test_memorization_of_single_sequence():
    x = (3, 1, 4)
    y = (2, 7, 10)
    flat = [FlatPair(x=x, y_elem=y, group_id=0)] * 4
    cfg = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=150, seed=0)
    m = train_sequence_model(flat, cfg, input_vocab=10, vocab=11, max_len=3,
                             embed_dim=8, enc_hidden=8, dec_hidden=10)
    assert greedy_decode(m, x) == y
    for j in range(len(y)):
        assert int(np.argmax(m.step_posterior(x, y[:j]))) == y[j]


def test_teacher_forced_loss_matches_stepwise_cross_entropy():
    m = SequenceModel(input_vocab=10, vocab=11, max_len=5, embed_dim=8,
                      enc_hidden=7, dec_hidden=9, seed=5)
    pairs = [((1, 2, 3), (4, 5, 10)), ((9, 8), (0, 10))]
    loss = m.loss_and_grads(pairs)[0]
    manual = 0.0
    for x, y in pairs:
        for j in range(len(y)):
            probs = m.step_posterior(x, y[:j])
            manual += -np.log(probs[y[j]])
    assert loss == pytest.approx(manual / len(pairs), abs=1e-6)


def test_sequence_training_rejects_overlong_target():
    flat = [FlatPair(x=(1,), y_elem=(1, 2, 3, 10), group_id=0)]
    cfg = TrainConfig(epochs=1, seed=0)
    with pytest.raises(ValidationError):
        train_sequence_model(flat, cfg, input_vocab=10, vocab=11, max_len=3)


def test_sequence_training_is_bit_deterministic():
    flat = [FlatPair(x=(1, 2), y_elem=(3, 10), group_id=0),
            FlatPair(x=(4,), y_elem=(5, 10), group_id=1)]
    cfg = TrainConfig(learning_rate=1e-3, batch_size=2, epochs=4, seed=11)
    kw = dict(input_vocab=10, vocab=11, max_len=2, embed_dim=6, enc_hidden=5, dec_hidden=7)
    m1 = train_sequence_model(flat, cfg, **kw)
    m2 = train_sequence_model(flat, cfg, **kw)
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


# --- gradient checks ----------------------------------------------------------------


def test_gradient_check_label_model():
    rng = np.random.default_rng(0)
    for seed in (0, 1, 2):
        m = LabelModel(4, 3, (5,), seed=seed)
        batch = (rng.normal(size=(3, 4)), rng.integers(0, 3, size=3))
        assert gradient_check(m, batch, eps=1e-4) < 1e-4


def test_gradient_check_baseline():
    rng = np.random.default_rng(1)
    m = MultiLabelBaseline(4, 3, (5,), seed=0)
    batch = (rng.normal(size=(3, 4)), (rng.uniform(size=(3, 3)) > 0.5).astype(float))
    assert gradient_check(m, batch, eps=1e-4) < 1e-4


def test_gradient_check_sequence_model_variable_lengths():
    m = SequenceModel(input_vocab=5, vocab=4, max_len=4, embed_dim=4,
                      enc_hidden=3, dec_hidden=5, seed=2)
    batch = [((1, 2, 0), (0, 1, 3)), ((2,), (2, 3)), ((4, 3, 1), (3,))]
    assert gradient_check(m, batch, eps=1e-4) < 1e-4


def test_gradient_check_near_zero_gradient_uses_guard():
    # saturated single-sample fit: both gradients ~ 0 without division blow-up
    m = LabelModel(1, 2, hidden_sizes=(), seed=0)
    m.params["W0"][0] = [60.0, -60.0]
    err = gradient_check(m, (np.array([[1.0]]), np.array([0])), eps=1e-4)
    assert np.isfinite(err)


def test_gradient_check_rejects_bad_eps():
    m = LabelModel(2, 2, (3,), seed=0)
    with pytest.raises(ValidationError):
        gradient_check(m, (np.zeros((1, 2)), np.zeros(1, dtype=int)), eps=1e-2)


# --- checkpoints ----------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    m = SequenceModel(input_vocab=10, vocab=11, max_len=3, embed_dim=6,
                      enc_hidden=5, dec_hidden=7, seed=8)
    path = tmp_path / "m.json"
    save_checkpoint(m, str(path))
    back = load_checkpoint(str(path))
    x = (1, 2, 3)
    assert np.array_equal(m.step_posterior(x), back.step_posterior(x))
    assert json_hash(checkpoint(m)) == json_hash(checkpoint(back))


def test_checkpoint_rejects_version_mismatch(tmp_path):
    m = LabelModel(2, 2, (3,), seed=0)
    doc = checkpoint(m)
    doc["format_version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="version"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("model", [
    LabelModel(3, 4, (5,), seed=1),
    MultiLabelBaseline(3, 4, (5,), seed=1, threshold=0.3),
    SequenceModel(input_vocab=5, vocab=4, max_len=3, embed_dim=3, enc_hidden=2,
                  dec_hidden=3, seed=1),
    LambdaNet("recurrent", 4, max_len=3, hidden=2, seed=1),
    LambdaNet("windowed", 4, max_len=3, filters=2, dense=3, seed=1),
], ids=lambda m: m.family)
def test_every_family_round_trips_through_one_codec(model):
    doc = checkpoint(model)
    back = from_checkpoint(json.loads(json.dumps(doc)))
    assert type(back) is type(model)
    assert checkpoint(back) == doc


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(family="lambda-recurrent"),  # family and arch disagree
    lambda doc: doc["params"].update(extra=[0.0]),
    lambda doc: doc["params"].pop("W1"),
    lambda doc: doc["params"]["b1"].pop(),
    lambda doc: doc["arch"].update(bogus=1),
    lambda doc: doc.pop("arch"),
])
def test_from_checkpoint_refuses_a_malformed_document(corrupt):
    doc = checkpoint(LambdaNet("windowed", 4, max_len=3, filters=2, dense=3, seed=1))
    corrupt(doc)
    with pytest.raises(ValidationError):
        from_checkpoint(doc)


# --- LSTM kernels against a per-step reference --------------------------------------
#
# The reference is the straightforward formulation: an exp-based sigmoid with
# sign masks, the input projection inside every step, and every weight
# gradient accumulated step by step.  The library batches the projections and
# weight gradients over time, which changes only the summation order.


def masked_sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_step_forward(x, h_prev, c_prev, Wx, Wh, b):
    H = h_prev.shape[1]
    a = x @ Wx + h_prev @ Wh + b
    i = masked_sigmoid(a[:, :H])
    f = masked_sigmoid(a[:, H:2 * H])
    g = np.tanh(a[:, 2 * H:3 * H])
    o = masked_sigmoid(a[:, 3 * H:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (x, h_prev, c_prev, i, f, g, o, tc)


def ref_step_backward(dh, dc, cache, Wx, Wh):
    """(dx, dh_prev, dc_prev, dWx, dWh, db) of one step."""
    x, h_prev, c_prev, i, f, g, o, tc = cache
    dct = dc + dh * o * (1.0 - tc * tc)
    da = np.concatenate([dct * g * i * (1.0 - i), dct * c_prev * f * (1.0 - f),
                         dct * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1)
    return da @ Wx.T, da @ Wh.T, dct * f, x.T @ da, h_prev.T @ da, np.sum(da, axis=0)


def ref_sequence_loss_and_grads(m, pairs):
    p = m.params
    X, in_mask, Y, out_mask = m._pack(pairs)
    B, t_out = Y.shape
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    h = np.zeros((B, m.enc_hidden))
    c = np.zeros((B, m.enc_hidden))
    enc = []
    for t in range(X.shape[1]):
        h_new, c_new, cache = ref_step_forward(p["E_in"][X[:, t]], h, c,
                                               p["enc_Wx"], p["enc_Wh"], p["enc_b"])
        mk = in_mask[:, t:t + 1]
        h = mk * h_new + (1.0 - mk) * h
        c = mk * c_new + (1.0 - mk) * c
        enc.append(cache)
    h_enc, c_enc = h, c
    h = h_enc @ p["br_Wh"] + p["br_bh"]
    c = c_enc @ p["br_Wc"] + p["br_bc"]
    loss = 0.0
    dec = []
    for t in range(t_out):
        tok = np.full(B, m.start) if t == 0 else Y[:, t - 1]
        h, c, cache = ref_step_forward(p["E_out"][tok], h, c,
                                       p["dec_Wx"], p["dec_Wh"], p["dec_b"])
        logits = h @ p["proj_W"] + p["proj_b"]
        loss -= float(np.sum(out_mask[:, t] * nn.log_softmax(logits)[np.arange(B), Y[:, t]]))
        d = nn.softmax(logits)
        d[np.arange(B), Y[:, t]] -= 1.0
        dec.append((cache, h, d * out_mask[:, t:t + 1] / B, tok))
    dh = np.zeros((B, m.dec_hidden))
    dc = np.zeros((B, m.dec_hidden))
    for cache, h_t, d, tok in reversed(dec):
        grads["proj_W"] += h_t.T @ d
        grads["proj_b"] += np.sum(d, axis=0)
        dx, dh, dc, dWx, dWh, db = ref_step_backward(dh + d @ p["proj_W"].T, dc, cache,
                                                     p["dec_Wx"], p["dec_Wh"])
        grads["dec_Wx"] += dWx
        grads["dec_Wh"] += dWh
        grads["dec_b"] += db
        np.add.at(grads["E_out"], tok, dx)
    grads["br_Wh"] += h_enc.T @ dh
    grads["br_bh"] += np.sum(dh, axis=0)
    grads["br_Wc"] += c_enc.T @ dc
    grads["br_bc"] += np.sum(dc, axis=0)
    dh = dh @ p["br_Wh"].T
    dc = dc @ p["br_Wc"].T
    for t in reversed(range(X.shape[1])):
        mk = in_mask[:, t:t + 1]
        dx, dh_prev, dc_prev, dWx, dWh, db = ref_step_backward(dh * mk, dc * mk, enc[t],
                                                               p["enc_Wx"], p["enc_Wh"])
        grads["enc_Wx"] += dWx
        grads["enc_Wh"] += dWh
        grads["enc_b"] += db
        dh = dh_prev + dh * (1.0 - mk)
        dc = dc_prev + dc * (1.0 - mk)
        np.add.at(grads["E_in"], X[:, t], dx * mk)
    return loss / B, grads


def ref_gate_grads(net, feats, dscores):
    p = net.params
    B, V, _ = feats.shape
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    h = np.zeros((B, net.hidden))
    c = np.zeros((B, net.hidden))
    caches = {"enc": [], "dec": []}
    outs = []
    for part in ("enc", "dec"):
        for t in range(V):
            h, c, cache = ref_step_forward(feats[:, t], h, c, p[f"{part}_Wx"],
                                           p[f"{part}_Wh"], p[f"{part}_b"])
            caches[part].append(cache)
            if part == "dec":
                outs.append(h)
    dh = np.zeros((B, net.hidden))
    dc = np.zeros((B, net.hidden))
    for part in ("dec", "enc"):
        for t in reversed(range(V)):
            if part == "dec":
                d = dscores[:, t:t + 1]
                grads["out_W"] += outs[t].T @ d
                grads["out_b"] += np.sum(d, axis=0)
                dh = dh + d @ p["out_W"].T
            _, dh, dc, dWx, dWh, db = ref_step_backward(dh, dc, caches[part][t],
                                                        p[f"{part}_Wx"], p[f"{part}_Wh"])
            grads[f"{part}_Wx"] += dWx
            grads[f"{part}_Wh"] += dWh
            grads[f"{part}_b"] += db
    return grads


def assert_grads_close(got, want, rtol=1e-10):
    assert got.keys() == want.keys()
    for k in want:
        assert got[k].shape == want[k].shape, k
        scale = max(np.max(np.abs(want[k])), 1e-300)
        assert np.max(np.abs(got[k] - want[k])) <= rtol * scale, k


def test_sigmoid_matches_masked_reference_without_warnings():
    rng = np.random.default_rng(4)
    z = np.concatenate([np.linspace(-1e3, 1e3, 20001), rng.normal(scale=8.0, size=20000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = nn.sigmoid(z)
    assert np.max(np.abs(got - masked_sigmoid(z))) <= 4e-16
    assert got[0] == 0.0 and got[20000] == 1.0


@pytest.mark.parametrize("pairs", [
    [((1, 2, 6, 0), (0, 1, 3, 5)), ((2,), (2, 5)), ((4, 3, 1), (5,)), ((5, 5), (4, 4, 4, 5))],
    [((1, 2, 6), (0, 1, 3, 5)), ((2, 0, 0), (2, 5)), ((4, 3, 1), (5,))],  # nothing masked
])
def test_sequence_grads_match_per_step_reference(pairs):
    m = SequenceModel(input_vocab=7, vocab=6, max_len=5, embed_dim=6,
                      enc_hidden=5, dec_hidden=8, seed=4)
    rng = np.random.default_rng(2)
    for p in m.params.values():
        p += rng.normal(scale=0.3, size=p.shape)  # nonzero biases, less symmetric states
    loss, grads = m.loss_and_grads(pairs)
    ref_loss, ref = ref_sequence_loss_and_grads(m, pairs)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert_grads_close(grads, ref)


def test_recurrent_gate_grads_match_per_step_reference():
    net = LambdaNet("recurrent", 6, max_len=4, hidden=5, seed=3)
    rng = np.random.default_rng(5)
    for p in net.params.values():
        p += rng.normal(scale=0.3, size=p.shape)
    feats = rng.normal(size=(4, 6, 3))
    targets = (rng.uniform(size=(4, 6)) < 0.3).astype(float)
    weights = np.where(targets > 0.5, 2.5, 1.0)
    scores, _ = net._forward_recurrent(feats)
    _, dscores = nn.binary_cross_entropy(scores, targets, weights)
    _, grads = net.loss_and_grads((feats, targets, weights))
    assert_grads_close(grads, ref_gate_grads(net, feats, dscores))


def test_shared_softmax_and_bincount_scatter_match_their_references_bit_for_bit():
    rng = np.random.default_rng(6)
    logits = rng.normal(scale=4.0, size=(40, 11))
    targets = rng.integers(0, 11, size=40)
    picked, probs = nn.picked_log_softmax(logits, targets)
    assert np.array_equal(picked, nn.log_softmax(logits, axis=1)[np.arange(40), targets])
    assert np.array_equal(probs, nn.softmax(logits, axis=1))
    index = rng.integers(0, 7, size=600)  # every row index repeats
    rows = rng.normal(size=(600, 30))
    want = np.zeros((9, 30))
    np.add.at(want, index, rows)
    assert np.array_equal(nn.scatter_rows(index, rows, (9, 30)), want)
