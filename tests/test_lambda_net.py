import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from setgen import lambda_net, nn
from setgen.core import Dataset, SetSample, TrainingError, ValidationError, seq_from_str
from setgen.lambda_net import (
    GateExamples,
    LambdaNet,
    _features,
    build_lambda_training_set,
    gate_accuracy,
    train_lambda_net,
)
from setgen.models import LabelModel, TrainConfig, checkpoint, from_checkpoint
from setgen.penalty import prefix_nodes
from tests.conftest import PositiveTokenOracle, PrefixStepper, gradient_check
from tests.test_penalty import OracleStepper, seq_dataset

VOCAB = 11


class SeparableLogits(PrefixStepper):
    """Stepper whose logits put every positive token a fixed margin above noise."""

    def __init__(self, dataset, margin=2.0, noise=0.3, seed=0):
        super().__init__(dataset)
        self.margin = margin
        self.rng = np.random.default_rng(seed)
        self.noise = noise

    def logits(self, positives):
        logits = self.rng.uniform(0, self.noise, size=self.vocab)
        for t in positives:
            logits[t] += self.margin
        return logits


def separable_examples(rng, n=300, vocab=VOCAB, max_pos=3, margin=2.0):
    logits = np.empty((n, vocab))
    positions = np.empty(n, dtype=int)
    targets = np.zeros((n, vocab))
    for i in range(n):
        k = int(rng.integers(1, max_pos + 1))
        pos = rng.choice(vocab, size=k, replace=False)
        logits[i] = rng.uniform(0.0, 1.0, size=vocab)
        logits[i, pos] += margin
        targets[i, pos] = 1
        positions[i] = rng.integers(1, 4)
    return GateExamples(logits, positions, targets)


def subset(examples, idx):
    return GateExamples(examples.logits[idx], examples.positions[idx], examples.targets[idx])


def gate_batch(examples):
    """The loss batch ``train_lambda_net`` forms from whole examples: their rows."""
    return (examples.logits, examples.positions, examples.targets)


# --- training-set construction ---------------------------------------------------


def test_single_target_single_positive_per_position():
    ds = seq_dataset([["2"]], max_len=2)
    examples = build_lambda_training_set(OracleStepper(ds), ds)
    (first,) = np.flatnonzero(examples.positions == 1)
    assert sum(examples.targets[first]) == 1
    assert examples.targets[first, 2] == 1


def test_positive_count_equals_target_length_for_single_target():
    ds = seq_dataset([["0551"]], max_len=5)
    sep = SeparableLogits(ds)
    examples = build_lambda_training_set(sep, ds)
    # one unbranched target: one positive at each of its 5 positions (incl end)
    assert len(examples) == 5
    assert np.sum(examples.targets) == 5


def test_branching_targets_two_positives_at_branch_point():
    # "ab", "ac" with a=1, b=2, c=3
    samples = (SetSample(x=(0,), y=((1, 2, 10), (1, 3, 10))),)
    ds = Dataset(kind="sequences", samples=samples, universe=11, max_len=3,
                 input_vocab=10)
    examples = build_lambda_training_set(SeparableLogits(ds), ds)
    at_two = examples.targets[examples.positions == 2]
    assert len(at_two) == 1
    assert sum(at_two[0]) == 2


def test_example_build_matches_per_prefix_reference():
    ds = seq_dataset([["0551", "052"], ["3"], ["41", "4", "77"]], max_len=5)
    sep = SeparableLogits(ds)
    examples = build_lambda_training_set(sep, ds)
    ref = SeparableLogits(ds)  # same seed, so the same noise in the same order
    want = []
    for sample in ds.samples:
        for prefix, logits, nexts in prefix_nodes(ref, sample):
            want.append((logits, len(prefix) + 1,
                         [1.0 if k in nexts else 0.0 for k in range(ds.universe)]))
    assert len(examples) == len(want)
    for i, (logits, position, targets) in enumerate(want):
        assert np.array_equal(examples.logits[i], logits)
        assert examples.positions[i] == position
        assert examples.targets[i].tolist() == targets
    # A label sample is one example at position 1: its row of one batched
    # ``scores`` call, with its labels as targets.
    labels = Dataset(kind="labels", samples=(SetSample(x=(0.0, 1.0), y=(0, 2)),
                                             SetSample(x=(1.0, 0.0), y=(1,)),
                                             SetSample(x=(0.5, 0.5), y=(0, 1, 2))),
                     universe=4, input_dim=2)
    model = LabelModel(2, 4, (5,), seed=1)
    examples = build_lambda_training_set(model, labels)
    want_logits = model.scores(np.array([s.x for s in labels.samples]))
    want_targets = np.zeros((3, 4))
    for i, sample in enumerate(labels.samples):
        want_targets[i, list(sample.y)] = 1.0
    assert examples.logits.tobytes() == want_logits.tobytes()
    assert examples.positions.tolist() == [1, 1, 1]
    assert examples.targets.tobytes() == want_targets.tobytes()


def test_gate_examples_check_their_arrays():
    logits = np.zeros((2, 3))
    with pytest.raises(ValidationError, match="one target per token"):
        GateExamples(logits, [1, 2], np.zeros((2, 4)))
    with pytest.raises(ValidationError, match="one position per example"):
        GateExamples(logits, [1], np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="1-based"):
        GateExamples(logits, [0, 2], np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="0 or 1"):
        GateExamples(logits, [1, 2], np.full((2, 3), 0.5))


def test_label_training_set_targets_are_label_sets():
    ds = Dataset(kind="labels",
                 samples=(SetSample(x=(0.0, 1.0), y=(0, 2)),), universe=3, input_dim=2)
    model = LabelModel(2, 3, (4,), seed=0)
    ex = build_lambda_training_set(model, ds)
    assert ex.targets.tolist() == [[1, 0, 1]]
    assert ex.positions.tolist() == [1]
    assert np.array_equal(ex.logits, model.scores(np.array([[0.0, 1.0]])))


# --- training ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["recurrent", "windowed"])
def test_separable_logits_reach_high_token_accuracy(variant):
    rng = np.random.default_rng(5)
    examples = separable_examples(rng, n=400)
    train, held_out = subset(examples, slice(320)), subset(examples, slice(320, None))
    cfg = TrainConfig(learning_rate=5e-3, batch_size=32, epochs=80, seed=1)
    net = train_lambda_net(train, variant, cfg, max_len=3)
    assert gate_accuracy(net, held_out) >= 0.99


def test_untrained_net_outputs_in_unit_interval():
    net = LambdaNet("recurrent", VOCAB, max_len=3, seed=2)
    probs = net.scores(np.linspace(-3, 3, VOCAB), 2)
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_training_is_deterministic_under_seed():
    rng = np.random.default_rng(6)
    examples = separable_examples(rng, n=60)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=5, seed=3)
    a = train_lambda_net(examples, "windowed", cfg, max_len=3)
    b = train_lambda_net(examples, "windowed", cfg, max_len=3)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_single_class_input_is_rejected():
    rng = np.random.default_rng(7)
    examples = GateExamples(rng.uniform(size=(10, 4)), np.ones(10, dtype=int),
                            np.zeros((10, 4)))
    with pytest.raises(TrainingError, match="single-class"):
        train_lambda_net(examples, "recurrent", TrainConfig(epochs=1, seed=0))


# --- classification ---------------------------------------------------------------


def test_classify_positives_thresholds_scores():
    net = LambdaNet("windowed", 3, max_len=2, seed=0)
    net.scores = lambda logits, position: np.array([0.9, 0.1, 0.6])
    assert net.classify(None, 1) == frozenset({0, 2})


def test_classify_positives_empty_when_all_below_threshold():
    net = LambdaNet("windowed", 3, max_len=2, seed=0)
    net.scores = lambda logits, position: np.array([0.1, 0.2, 0.3])
    assert net.classify(None, 1) == frozenset()


def test_classify_positives_is_pure():
    net = LambdaNet("recurrent", VOCAB, max_len=3, seed=4)
    logits = np.linspace(-1, 2, VOCAB)
    assert net.classify(logits, 1) == net.classify(logits, 1)


def test_converged_gate_reproduces_prefix_continuation():
    rng = np.random.default_rng(8)
    target_sets = []
    for _ in range(120):
        n = int(rng.integers(1, 4))
        strs = {"".join(str(d) for d in rng.integers(0, 10, size=rng.integers(1, 5)))
                for _ in range(n)}
        target_sets.append(sorted(strs))
    ds = seq_dataset(target_sets, max_len=6)
    sep = SeparableLogits(ds)
    examples = build_lambda_training_set(sep, ds)
    cfg = TrainConfig(learning_rate=5e-3, batch_size=32, epochs=60, seed=0)
    net = train_lambda_net(examples, "windowed", cfg, max_len=6)
    exact = 0
    for logits, position, targets in zip(examples.logits, examples.positions,
                                         examples.targets):
        want = frozenset(k for k, t in enumerate(targets) if t)
        got = net.classify(logits, position)
        exact += int(got == want)
    assert exact / len(examples) >= 0.99


def test_oracle_gate_matches_position_candidates():
    targets = [seq_from_str("40", VOCAB), seq_from_str("41", VOCAB)]
    oracle = PositiveTokenOracle(targets, VOCAB)
    assert oracle.classify(None, 1, ()) == frozenset({4})
    assert oracle.classify(None, 2, (4,)) == frozenset({0, 1})
    assert oracle.classify(None, 3, (4, 0)) == frozenset({10})
    assert oracle.classify(None, 1, (9,)) == frozenset()


# --- gradients and checkpoints ------------------------------------------------------


@pytest.mark.parametrize("variant", ["recurrent", "windowed"])
def test_gradient_check_gate(variant):
    rng = np.random.default_rng(9)
    examples = separable_examples(rng, n=3, vocab=5)
    net = LambdaNet(variant, 5, max_len=3, hidden=4, filters=3, dense=4, pos_weight=2.5,
                    seed=1)
    batch = gate_batch(examples)
    assert gradient_check(net, batch, eps=1e-4) < 1e-4


def test_gate_checkpoint_round_trip(tmp_path):
    from setgen.models import load_checkpoint, save_checkpoint

    net = LambdaNet("windowed", VOCAB, max_len=4, pos_weight=8.6, seed=5)
    path = tmp_path / "gate.json"
    save_checkpoint(net, str(path))
    back = load_checkpoint(str(path))
    logits = np.linspace(-2, 1, VOCAB)
    assert np.array_equal(net.scores(logits, 2), back.scores(logits, 2))
    assert back.variant == "windowed"
    assert back.pos_weight == 8.6


def _raw_scores(net, logits, position):
    inputs = net._inputs(np.asarray(logits, dtype=float)[None, :], np.array([position]))
    return net._forward(*inputs)[0][0]


@pytest.mark.parametrize("variant", ["recurrent", "windowed"])
def test_scores_undo_the_class_weight_prior_shift(variant):
    rng = np.random.default_rng(10)
    examples = separable_examples(rng, n=40)
    targets = examples.targets
    n_pos = targets.sum()
    cfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=2, seed=0)
    net = train_lambda_net(examples, variant, cfg, max_len=3)
    assert net.pos_weight == (targets.size - n_pos) / n_pos
    assert net.pos_weight > 2.0
    logits = examples.logits[0]
    raw = _raw_scores(net, logits, 2)
    want = 1.0 / (1.0 + np.exp(-(raw - np.log(net.pos_weight))))
    np.testing.assert_allclose(net.scores(logits, 2), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("variant", ["recurrent", "windowed"])
def test_batched_scores_equal_single_row_calls(variant):
    rng = np.random.default_rng(14)
    examples = separable_examples(rng, n=12)
    net = LambdaNet(variant, VOCAB, max_len=3, hidden=5, seed=6)
    batched = net.scores(examples.logits, examples.positions)
    assert batched.shape == examples.logits.shape
    for row, logits, position in zip(batched, examples.logits, examples.positions):
        np.testing.assert_allclose(row, net.scores(logits, position), rtol=1e-12, atol=0)


def test_checkpoint_without_pos_weight_loads_unweighted():
    net = LambdaNet("recurrent", VOCAB, max_len=4, hidden=6, pos_weight=5.0, seed=3)
    doc = checkpoint(net)
    del doc["arch"]["pos_weight"]
    back = from_checkpoint(doc)
    assert back.pos_weight == 1.0
    logits = np.linspace(-2, 1, VOCAB)
    raw = _raw_scores(back, logits, 1)
    assert np.array_equal(back.scores(logits, 1), nn.sigmoid(raw))


def _loop_windows(logits, radius):
    """Reference rank windows, one Python slice per token."""
    v = len(logits)
    centered = logits - np.max(logits)
    order = np.lexsort((np.arange(v), -centered))
    ranked = centered[order]
    padded = np.concatenate([np.full(radius, ranked[0]), ranked, np.full(radius, ranked[-1])])
    windows = np.empty((v, 2 * radius + 1))
    for r, k in enumerate(order):
        windows[k] = padded[r:r + 2 * radius + 1]
    return windows


@pytest.mark.parametrize("radius", [1, 2, 4])
def test_window_features_match_loop_reference(radius):
    rng = np.random.default_rng(radius)
    vectors = [rng.normal(size=VOCAB), rng.integers(0, 3, size=VOCAB).astype(float),
               np.zeros(VOCAB), rng.normal(size=3)]
    for logits in vectors:
        windows, _ = _features(logits[None, :], np.array([2]), 4, radius)
        assert np.array_equal(windows[0], _loop_windows(logits, radius))
    # Stacked rows: random, tied and all-equal rows together, and V=3 rows.
    stacks = [
        np.concatenate([rng.normal(size=(6, VOCAB)),
                        rng.integers(0, 3, size=(6, VOCAB)).astype(float),
                        np.zeros((2, VOCAB)), np.full((2, VOCAB), 1.5)]),
        rng.normal(size=(5, 3)),
    ]
    for stack in stacks:
        windows, _ = _features(stack, np.arange(1, len(stack) + 1), 16, radius)
        for row, got in zip(stack, windows):
            assert np.array_equal(got, _loop_windows(row, radius))


def test_maxpool_matches_take_along_axis_reference():
    rng = np.random.default_rng(12)
    x = rng.integers(0, 3, size=(5, 4, 3)).astype(float)  # ties pick the first max
    out, cache = nn.maxpool_forward(x)
    idx = np.argmax(x, axis=2)[:, :, None]
    assert np.array_equal(out, np.take_along_axis(x, idx, axis=2)[:, :, 0])
    dout = rng.normal(size=out.shape)
    want = np.zeros(x.shape)
    np.put_along_axis(want, idx, dout[:, :, None], axis=2)
    assert np.array_equal(nn.maxpool_backward(dout, cache), want)


@pytest.mark.parametrize("variant", ["recurrent", "windowed"])
def test_both_gates_batch_whole_examples(variant, monkeypatch):
    rng = np.random.default_rng(13)
    n, k, epochs = 23, 5, 2
    examples = separable_examples(rng, n=n)
    batches = []
    real = LambdaNet.loss_and_grads

    def spy(self, batch):
        batches.append(batch)
        return real(self, batch)

    monkeypatch.setattr(LambdaNet, "loss_and_grads", spy)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=k, epochs=epochs, seed=0)
    train_lambda_net(examples, variant, cfg, max_len=3)
    assert len(batches) == epochs * math.ceil(n / k)
    # Every batch array holds whole examples: one logits, position and target row each.
    whole = gate_batch(examples)
    blocks = {tuple(a[i].tobytes() for a in whole): i for i in range(n)}
    per_epoch = math.ceil(n / k)
    for epoch in range(epochs):
        seen = []
        for arrays in batches[epoch * per_epoch:(epoch + 1) * per_epoch]:
            assert arrays[0].shape[1] == VOCAB and arrays[0].shape[0] <= k
            for r in range(arrays[0].shape[0]):
                seen.append(blocks[tuple(a[r].tobytes() for a in arrays)])
        assert sorted(seen) == list(range(n))


# --- per-batch features: memory and bit-identity ------------------------------------

# SHA-256 of a small fit's parameters (name, then C-order float64 bytes, in
# name order), recorded from the code that built every example's features
# before the first batch.  Per-batch features must fit the same bits.
PINNED_FITS = {
    "recurrent": "a9505ecc780a74eb77c60954a152b8016c0a006b80cc7a649a7e3a72dc2e072b",
    "windowed": "c363db8262ac8898c5ca1eb99ec9563a61c5246db1e273c3d0e33a509047184c",
}


@pytest.mark.parametrize("variant", ["recurrent", "windowed"])
def test_gate_fits_are_pinned_to_whole_set_features(variant):
    examples = separable_examples(np.random.default_rng(21), n=50)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=8, epochs=3, seed=4)
    net = train_lambda_net(examples, variant, cfg, max_len=3, hidden=6)
    digest = hashlib.sha256()
    for name in sorted(net.params):
        digest.update(name.encode())
        digest.update(net.params[name].tobytes())
    assert digest.hexdigest() == PINNED_FITS[variant]


def test_features_are_built_one_batch_at_a_time(monkeypatch):
    rng = np.random.default_rng(15)
    examples = separable_examples(rng, n=40)
    rows = []
    real = lambda_net._features

    def spy(logits, *args):
        rows.append(len(logits))
        return real(logits, *args)

    monkeypatch.setattr(lambda_net, "_features", spy)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=6, epochs=2, seed=0)
    for variant in ("recurrent", "windowed"):
        train_lambda_net(examples, variant, cfg, max_len=3)
    assert len(rows) == 2 * cfg.epochs * math.ceil(40 / 6)
    assert max(rows) <= cfg.batch_size


def test_windowed_fit_memory_stays_far_below_its_feature_size():
    n, v = 5000, 100
    rng = np.random.default_rng(16)
    examples = GateExamples(rng.normal(size=(n, v)), rng.integers(1, 4, size=n),
                            (rng.uniform(size=(n, v)) < 0.1).astype(float))
    cfg = TrainConfig(learning_rate=1e-3, batch_size=15, epochs=1, seed=0)
    tracemalloc.start()
    try:
        train_lambda_net(examples, "windowed", cfg, max_len=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Below one (N, V) float array, a ninth of the (N, V, 2r+5) features at
    # r=2: neither features nor weights exist for all N, and a batch's
    # activations (B*V token rows) stay about 2 MB.
    assert peak < n * v * 8


# --- input refusals ---------------------------------------------------------------


@pytest.mark.parametrize("variant, kwargs, match", [
    ("convolutional", {}, "unknown gate variant"),
    ("recurrent", {"threshold": 0.0}, r"\(0, 1\)"),
    ("windowed", {"threshold": 1.0}, r"\(0, 1\)"),
    ("windowed", {"threshold": -0.2}, r"\(0, 1\)"),
    ("recurrent", {"pos_weight": 0.0}, "must be positive"),
    ("windowed", {"pos_weight": -3.0}, "must be positive"),
    ("windowed", {"pos_weight": float("nan")}, "must be positive"),
    ("windowed", {"kernel": 6, "radius": 2}, "kernel cannot exceed the window width"),
    ("windowed", {"pos_weight": float("inf")}, "must be positive and finite"),
])
def test_gate_constructor_refuses_bad_settings(variant, kwargs, match):
    with pytest.raises(ValidationError, match=match):
        LambdaNet(variant, VOCAB, max_len=3, **kwargs)


@pytest.mark.parametrize("variant", ["recurrent", "windowed"])
def test_scores_refuse_a_wrong_row_width_or_position_count(variant):
    net = LambdaNet(variant, VOCAB, max_len=3, seed=0)
    for logits in (np.zeros(VOCAB + 1), np.zeros((2, VOCAB - 1)), np.zeros((1, 2, VOCAB))):
        with pytest.raises(ValidationError, match=f"expected {VOCAB} scores per row"):
            net.scores(logits, 1)
    with pytest.raises(ValidationError, match="one position per score row"):
        net.scores(np.zeros((3, VOCAB)), [1, 2])
    with pytest.raises(ValidationError, match="one position per score row"):
        net.scores(np.zeros((2, VOCAB)), 1)


def test_no_examples_train_no_gate_and_score_no_accuracy():
    empty = GateExamples(np.zeros((0, VOCAB)), np.zeros(0, dtype=int), np.zeros((0, VOCAB)))
    assert len(empty) == 0
    with pytest.raises(ValidationError, match="no gate training examples"):
        train_lambda_net(empty, "windowed", TrainConfig(epochs=1, seed=0), max_len=3)
    assert gate_accuracy(LambdaNet("recurrent", VOCAB, max_len=3, seed=0), empty) is None
