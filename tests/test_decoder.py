import math

import numpy as np
import pytest

from setgen import nn
from setgen.core import Dataset, SetSample, ValidationError, seq_from_str
from setgen.decoder import (
    decode_sequence_set,
    decode_set,
    penalized_argmax,
    position_tokens,
)
from setgen.models import SequenceModel
from setgen.penalty import (
    MarginRecord,
    PenaltyParams,
    margin_stats,
    solve_lambda,
    solve_lambda_per_position,
)
from tests.conftest import (
    OracleLabelPosterior,
    PositiveTokenOracle,
    PrefixStepper,
    greedy_decode,
)
from tests.test_penalty import OracleStepper, seq_dataset


def eq1_decode(probs, lam, max_iters=100):
    """Reference decoder without counters: penalize produced labels once, stop
    the moment the argmax lands on something already produced."""
    z: list[int] = []
    trace: list[int] = []
    for _ in range(max_iters):
        scores = np.array(probs, dtype=float)
        for l in z:
            scores[l] -= lam
        y = int(np.argmax(scores))
        trace.append(y)
        if y in z:
            return z, trace
        z.append(y)
    return z, trace


def counter_decode(probs, lam, rho):
    """Reference decoder with dict counters and the robust stop rule: stop at a
    repeat once total productions reach ``(1 + rho) x |distinct|``."""
    counts: dict[int, int] = {}
    trace: list[int] = []
    while True:
        scores = np.array(probs, dtype=float)
        for label, count in counts.items():
            scores[label] -= lam * count
        y = int(np.argmax(scores))
        trace.append(y)
        repeat = y in counts
        counts[y] = counts.get(y, 0) + 1
        if repeat and sum(counts.values()) >= (1.0 + rho) * len(counts):
            return list(counts), trace


class Posterior:
    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)

    def posterior(self, x):
        return self.probs


# --- penalized argmax ---------------------------------------------------------


def test_penalized_argmax_unpenalized_first_pick():
    assert penalized_argmax(np.array([0.5, 0.3, 0.2]), np.zeros(3), 0.25) == 0


def test_penalized_argmax_after_one_production():
    counts = np.array([1.0, 0.0, 0.0])
    assert penalized_argmax(np.array([0.5, 0.3, 0.2]), counts, 0.25) == 1


def test_penalized_argmax_repeat_pick():
    counts = np.array([1.0, 1.0, 0.0])
    # 0: 0.25, 1: 0.05, 2: 0.2 -> the repeat of label 0 wins
    assert penalized_argmax(np.array([0.5, 0.3, 0.2]), counts, 0.25) == 0


def test_penalized_argmax_ties_break_to_smallest_id():
    assert penalized_argmax(np.array([0.4, 0.4, 0.2]), np.zeros(3), 0.1) == 0


def test_penalized_argmax_rejects_nonfinite_penalty():
    with pytest.raises(ValidationError):
        penalized_argmax(np.array([1.0]), np.zeros(1), float("nan"))


# --- label-set decoding ----------------------------------------------------------


def test_decode_set_hand_trace_rho_zero():
    res = decode_set(Posterior([0.5, 0.3, 0.2]), 0.25, None, rho=0.0)
    assert res.label_set == {0, 1}
    assert res.trace == (0, 1, 0)
    assert res.repeats == 1


def test_decode_set_hand_trace_rho_half():
    res = decode_set(Posterior([0.5, 0.3, 0.2]), 0.25, None, rho=0.5)
    # after the repeat, total count 3 >= 1.5 * 2, so the same set comes back
    assert res.label_set == {0, 1}
    assert res.trace == (0, 1, 0)


def test_decode_set_singleton_when_penalty_below_top_gap():
    # the first element always enters; with the penalized top still ahead of
    # the runner-up the second pick repeats it and the loop stops
    res = decode_set(Posterior([0.05, 0.9, 0.05]), 0.5, None, rho=0.0)
    assert res.label_set == {1}
    assert res.trace == (1, 1)


def test_decode_set_rho_zero_matches_reference_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        probs = rng.dirichlet(np.ones(n))
        lam = float(rng.uniform(-0.2, 0.6))
        res = decode_set(Posterior(probs), lam, None, rho=0.0)
        ref_z, ref_trace = eq1_decode(probs, lam)
        assert list(res.trace) == ref_trace
        assert list(res.labels) == ref_z


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.9, 0.999])
def test_decode_set_matches_a_counter_reference_and_its_step_bound(rho):
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 16))
        probs = np.round(rng.dirichlet(np.ones(n)), 2)  # rounding makes ties
        lam = float(rng.uniform(-1.0, 1.0))
        res = decode_set(Posterior(probs), lam, None, rho=rho)
        ref_z, ref_trace = counter_decode(probs, lam, rho)
        assert list(res.trace) == ref_trace
        assert list(res.labels) == ref_z
        assert res.iterations <= n + max(1, math.ceil(rho * n))


def test_decode_set_rho_half_keeps_everything_rho_zero_produced():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        probs = rng.dirichlet(np.ones(n))
        lam = float(rng.uniform(0.0, 0.5))
        strict = decode_set(Posterior(probs), lam, None, rho=0.0)
        robust = decode_set(Posterior(probs), lam, None, rho=0.5)
        assert strict.label_set <= robust.label_set


def test_decode_set_order_free_under_relabeling():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = 8
        probs = rng.dirichlet(np.ones(n))
        lam = float(rng.uniform(0.0, 0.3))
        perm = rng.permutation(n)
        base = decode_set(Posterior(probs), lam, None).label_set
        permuted_probs = np.empty(n)
        permuted_probs[perm] = probs  # label i becomes perm[i]
        relabeled = decode_set(Posterior(permuted_probs), lam, None).label_set
        assert relabeled == {int(perm[l]) for l in base}


def test_oracle_posterior_with_calibrated_penalty_is_exact():
    rng = np.random.default_rng(3)
    universe = 8
    samples = []
    for i in range(60):
        k = int(rng.integers(3, 6))  # sizes 3..5 keep the solve interior
        members = tuple(sorted(rng.choice(universe, size=k, replace=False).tolist()))
        samples.append(SetSample(x=(float(i),), y=members))
    ds = Dataset(kind="labels", samples=tuple(samples), universe=universe, input_dim=1)
    oracle = OracleLabelPosterior({s.x: s.y_set for s in samples}, universe)
    sol = solve_lambda(margin_stats(oracle, ds))
    assert sol.feasible
    for s in samples:
        res = decode_set(oracle, sol.value, s.x, rho=0.0)
        assert res.label_set == s.y_set


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_position_tokens_on_a_scalar_penalty_match_decode_set(rho):
    # the label-set decode is the one-position case of the sequence rule
    rng = np.random.default_rng(7)
    for _ in range(300):
        logits = rng.normal(scale=2.0, size=int(rng.integers(2, 12)))
        lam = float(rng.uniform(-0.2, 0.6))
        res = decode_set(Posterior(nn.softmax(logits)), lam, None, rho=rho)
        penalty = PenaltyParams(variant="per-position", values=(lam,))
        got = position_tokens(penalty, logits, 1, rho=rho)
        assert got == (list(res.labels), res.iterations, res.repeats)


# --- stopping criterion ------------------------------------------------------------


def test_stop_rule_counts_repeats():
    res = decode_set(Posterior([0.5, 0.3, 0.2]), 0.25, None, rho=0.5)
    assert res.trace == (0, 1, 0)  # the repeat stops it: 3 >= 1.5 * 2
    assert res.repeats == 1
    res = decode_set(Posterior([0.4, 0.3, 0.2, 0.1]), 0.25, None, rho=0.5)
    # the first repeat leaves 4 < 1.5 * 3, so label 3 still enters; the
    # second repeat stops it: 6 >= 1.5 * 4
    assert res.trace == (0, 1, 2, 0, 3, 1)
    assert res.labels == (0, 1, 2, 3) and res.repeats == 2


def test_stop_rule_requires_more_repeats_at_higher_rho():
    # every label enters before the first repeat; the repeats then cycle
    res = decode_set(Posterior([0.4, 0.35, 0.25]), 0.2, None, rho=0.9)
    assert res.labels == (0, 1, 2)
    # 4 < 1.9 * 3 after the first repeat, 5 < 5.7 after the second, 6 >= 5.7
    assert res.trace == (0, 1, 2, 0, 1, 2)
    assert res.repeats == 3


def test_decode_set_rejects_bad_rho():
    for rho in (1.0, -0.1):
        with pytest.raises(ValidationError, match="rho"):
            decode_set(Posterior([0.6, 0.4]), 0.1, None, rho=rho)


@pytest.mark.parametrize("probs", [[], [[0.6, 0.4], [0.5, 0.5]]])
def test_decode_set_refuses_a_posterior_that_is_not_a_nonempty_vector(probs):
    with pytest.raises(ValidationError, match="posterior"):
        decode_set(Posterior(probs), 0.1, None)


# --- sequence-set decoding ------------------------------------------------------------


def stub_sequence_model(seed=0):
    return SequenceModel(input_vocab=10, vocab=11, max_len=10, embed_dim=4,
                         enc_hidden=3, dec_hidden=4, seed=seed)


def oracle_penalty(targets, vocab=11):
    return PenaltyParams(variant="learned",
                         classifier=PositiveTokenOracle(targets, vocab))


def test_sequence_decode_with_oracle_gate_worked_example():
    targets = [seq_from_str("2", 11), seq_from_str("10551", 11)]
    x = tuple(int(c) for c in "00490000349172105519")
    res = decode_sequence_set(stub_sequence_model(), oracle_penalty(targets), x)
    assert res.sequences == frozenset(targets)
    assert not res.truncated


def test_sequence_decode_with_oracle_gate_random_target_sets():
    rng = np.random.default_rng(4)
    model = stub_sequence_model()
    from setgen.tasks import targets as task_targets

    for _ in range(25):
        x = tuple(map(int, rng.integers(0, 10, size=20)))
        targets = list(task_targets("task2", x))
        if not targets:
            continue
        res = decode_sequence_set(model, oracle_penalty(targets), x)
        assert res.sequences == frozenset(targets)


def test_sequence_decode_per_position_oracle_stepper_is_exact():
    ds = seq_dataset([["12", "13", "2"], ["404", "44", "9"]], max_len=4)
    model = OracleStepper(ds)
    params = solve_lambda_per_position(model, ds)
    assert all(s.feasible for s in params.solutions)
    for s in ds.samples:
        res = decode_sequence_set(model, params, s.x)
        assert res.sequences == s.y_set


def test_sequence_decode_memorized_model_matches_greedy():
    from setgen.core import FlatPair
    from setgen.models import TrainConfig, train_sequence_model

    x = (3, 1, 4)
    y = (2, 7, 10)
    flat = [FlatPair(x=x, y_elem=y, group_id=0)] * 4
    cfg = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=150, seed=0)
    model = train_sequence_model(flat, cfg, input_vocab=10, vocab=11, max_len=3,
                                 embed_dim=8, enc_hidden=8, dec_hidden=10)
    ds = Dataset(kind="sequences", samples=(SetSample(x=x, y=(y,)),),
                 universe=11, max_len=3, input_vocab=10)
    params = solve_lambda_per_position(model, ds)
    res = decode_sequence_set(model, params, x)
    assert res.sequences == frozenset({y})
    assert greedy_decode(model, x) == y


def test_sequence_decode_all_rejected_gives_empty_set_and_flag():
    class RejectAll:
        def classify(self, logits, position, prefix=None):
            return frozenset()

    penalty = PenaltyParams(variant="learned", classifier=RejectAll())
    res = decode_sequence_set(stub_sequence_model(), penalty, (1, 2, 3))
    assert res.sequences == frozenset()
    assert res.dead_ends == 1


@pytest.mark.parametrize("max_branches", [0, -1])
def test_sequence_decode_refuses_a_branch_cap_below_one(max_branches):
    with pytest.raises(ValidationError, match="max_branches"):
        decode_sequence_set(stub_sequence_model(), oracle_penalty([]), (1,),
                            max_branches=max_branches)


def test_sequence_decode_branch_cap_reports_drops():
    class EmitEverything:
        def classify(self, logits, position, prefix=None):
            return frozenset(range(10))  # every digit, never the end token

    penalty = PenaltyParams(variant="learned", classifier=EmitEverything())
    res = decode_sequence_set(stub_sequence_model(), penalty, (1,), max_branches=16)
    assert res.dropped_branches > 0
    assert res.truncated
    assert res.sequences == frozenset()


def test_sequence_decode_reports_an_overlong_branch_without_drops():
    class EmitOneDigit:
        def classify(self, logits, position, prefix=None):
            return frozenset({3})  # one digit at every position, never the end token

    penalty = PenaltyParams(variant="learned", classifier=EmitOneDigit())
    res = decode_sequence_set(stub_sequence_model(), penalty, (1,))
    assert res.truncated
    assert res.dropped_branches == 0 and res.dead_ends == 0
    assert res.sequences == frozenset()


class CountingStepper(PrefixStepper):
    """Flat scores over a dataset's targets; counts its decoder steps."""

    steps = 0

    def decode_step(self, h, c, token):
        self.steps += 1
        return super().decode_step(h, c, token)

    def logits(self, positives):
        return np.zeros(self.vocab)


def test_sequence_decode_steps_only_the_branches_the_cap_keeps():
    # 100 two-digit targets: the oracle gate floods each position with 10 tokens
    ds = seq_dataset([[f"{a}{b}" for a in range(10) for b in range(10)]], max_len=3)
    model = CountingStepper(ds)
    (sample,) = ds.samples
    res = decode_sequence_set(model, oracle_penalty(sample.y), sample.x, max_branches=2)
    assert res.dropped_branches == 8 + 18
    assert len(res.sequences) == 2
    assert model.steps == 1 + 2 + 2  # the start token, then each kept branch once


def test_sequence_decode_determinism():
    targets = [seq_from_str("12", 11), seq_from_str("9", 11)]
    x = (1, 2, 9)
    model = stub_sequence_model()
    a = decode_sequence_set(model, oracle_penalty(targets), x)
    b = decode_sequence_set(model, oracle_penalty(targets), x)
    assert a == b
