import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setgen import nn
from setgen.core import Dataset, SetSample, ValidationError
from setgen.models import SequenceModel
from setgen.penalty import (
    FeasibleInterval,
    MarginRecord,
    PenaltyParams,
    _hinge_objective,
    margin_records,
    margin_stats,
    prefix_nodes,
    solve_lambda,
    solve_lambda_per_position,
)
from tests.conftest import PrefixStepper, position_candidates

GRID = np.arange(-1.0, 1.0 + 1e-4, 1e-4)


def random_records(rng, n_groups=None):
    """Records built the way margin_stats builds them, from random posteriors."""
    n_groups = n_groups or int(rng.integers(1, 6))
    records = []
    while not records:
        for _ in range(n_groups):
            k = int(rng.integers(2, 51))
            probs = rng.uniform(size=k)
            probs /= probs.sum()
            n_pos = int(rng.integers(1, k))
            pos = rng.choice(k, size=n_pos, replace=False)
            neg = np.setdiff1d(np.arange(k), pos)
            l_pos_min = float(probs[pos].min())
            l_neg_max = float(probs[neg].max())
            for i in pos:
                records.append(MarginRecord(p=float(probs[i]), l_pos_min=l_pos_min,
                                            l_neg_max=l_neg_max))
    return records


def grid_solve(records):
    """Exhaustive oracle over the grid: objective value and feasibility."""
    p = np.array([r.p for r in records])
    los = p - np.array([r.l_pos_min for r in records])
    his = p - np.array([r.l_neg_max for r in records])
    diffs = p - np.array([r.p_hat for r in records])
    feas = (GRID[:, None] >= los[None, :] - 1e-12).all(axis=1)
    feas &= (GRID[:, None] <= his[None, :] + 1e-12).all(axis=1)
    quad = ((diffs[None, :] - GRID[:, None]) ** 2).sum(axis=1)
    if feas.any():
        best = quad[feas].min()
        return best, True
    viol = np.maximum(0.0, los[None, :] - GRID[:, None]).sum(axis=1)
    viol += np.maximum(0.0, GRID[:, None] - his[None, :]).sum(axis=1)
    total = quad + 1e3 * viol
    return total[np.argmin(total)], False


def objective(records, lam):
    return sum((r.p - r.p_hat - lam) ** 2 for r in records)


class FixedPosterior:
    def __init__(self, table):
        self.table = table

    def posterior(self, x):
        return np.asarray(self.table[x], dtype=float)


# --- margin records -------------------------------------------------------------


def test_margin_record_midpoint():
    r = MarginRecord(p=0.6, l_pos_min=0.4, l_neg_max=0.2)
    assert r.p_hat == pytest.approx(0.3)


def test_margin_record_validation():
    with pytest.raises(ValidationError):
        MarginRecord(p=0.3, l_pos_min=0.5, l_neg_max=0.1)
    with pytest.raises(ValidationError):
        MarginRecord(p=1.5, l_pos_min=0.5, l_neg_max=0.1)


def test_margin_stats_two_positive_group():
    ds = Dataset(kind="labels",
                 samples=(SetSample(x=(0.0,), y=(0, 1)),), universe=3, input_dim=1)
    model = FixedPosterior({(0.0,): [0.6, 0.4, 0.2]})
    records = margin_stats(model, ds)
    assert len(records) == 2
    assert records[0] == MarginRecord(p=0.6, l_pos_min=0.4, l_neg_max=0.2)
    assert records[1] == MarginRecord(p=0.4, l_pos_min=0.4, l_neg_max=0.2)
    assert records[0].p_hat == pytest.approx(0.3)


def test_margin_stats_singleton_positive():
    ds = Dataset(kind="labels",
                 samples=(SetSample(x=(0.0,), y=(0,)),), universe=3, input_dim=1)
    model = FixedPosterior({(0.0,): [0.9, 0.05, 0.05]})
    (rec,) = margin_stats(model, ds)
    assert rec == MarginRecord(p=0.9, l_pos_min=0.9, l_neg_max=0.05)
    assert rec.p_hat == pytest.approx(0.475)


def test_margin_stats_skips_full_universe_group(caplog):
    ds = Dataset(kind="labels",
                 samples=(SetSample(x=(0.0,), y=(0, 1)), SetSample(x=(1.0,), y=(0,))),
                 universe=2, input_dim=1)
    model = FixedPosterior({(0.0,): [0.5, 0.5], (1.0,): [0.8, 0.2]})
    with caplog.at_level(logging.WARNING):
        records = margin_stats(model, ds)
    assert len(records) == 1  # only the second group contributes
    assert "skipped" in caplog.text


def test_margin_stats_keeps_samples_with_the_same_input_apart():
    ds = Dataset(kind="labels",
                 samples=(SetSample(x=(0.0,), y=(0,)), SetSample(x=(0.0,), y=(1, 2))),
                 universe=4, input_dim=1)
    model = FixedPosterior({(0.0,): [0.4, 0.3, 0.2, 0.1]})
    assert margin_stats(model, ds) == [
        MarginRecord(p=0.4, l_pos_min=0.4, l_neg_max=0.3),
        MarginRecord(p=0.3, l_pos_min=0.2, l_neg_max=0.4),
        MarginRecord(p=0.2, l_pos_min=0.2, l_neg_max=0.4),
    ]


@pytest.mark.parametrize("samples", [(), (SetSample(x=(0.0,), y=(1,)),
                                          SetSample(x=(1.0,), y=()))])
def test_margin_stats_refuses_empty_dataset_and_empty_target_set(samples):
    ds = Dataset(kind="labels", samples=samples, universe=2, input_dim=1)
    model = FixedPosterior({(0.0,): [0.5, 0.5], (1.0,): [0.5, 0.5]})
    with pytest.raises(ValidationError):
        margin_stats(model, ds)


# --- scalar solve ------------------------------------------------------------------


def test_solve_lambda_worked_example():
    records = [MarginRecord(p=0.6, l_pos_min=0.4, l_neg_max=0.2),
               MarginRecord(p=0.4, l_pos_min=0.4, l_neg_max=0.2)]
    sol = solve_lambda(records)
    assert sol.value == pytest.approx(0.2, abs=1e-9)
    assert sol.feasible
    assert sol.interval.lo == pytest.approx(0.2)
    assert sol.interval.hi == pytest.approx(0.2)


def test_solve_lambda_single_record_interior():
    sol = solve_lambda([MarginRecord(p=1.0, l_pos_min=1.0, l_neg_max=0.0)])
    assert sol.value == pytest.approx(0.5)
    assert sol.candidate == "interior"
    assert (sol.interval.lo, sol.interval.hi) == (0.0, 1.0)


def test_solve_lambda_infeasible_lands_between_bounds():
    records = [MarginRecord(p=0.5, l_pos_min=0.2, l_neg_max=0.45),
               MarginRecord(p=0.3, l_pos_min=0.3, l_neg_max=0.2)]
    sol = solve_lambda(records)
    assert not sol.feasible
    assert sol.interval.empty
    assert 0.05 - 1e-6 <= sol.value <= 0.3 + 1e-6


def test_solve_lambda_empty_input():
    with pytest.raises(ValidationError):
        solve_lambda([])


def test_solve_lambda_matches_grid_oracle():
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(100):
        records = random_records(rng)
        sol = solve_lambda(records)
        oracle_obj, oracle_feasible = grid_solve(records)
        if sol.feasible == oracle_feasible:
            agree += 1
            if sol.feasible:
                assert objective(records, sol.value) <= oracle_obj + 1e-3
        else:
            # grid can only miss feasibility in intervals narrower than 2 steps
            assert sol.interval.hi - sol.interval.lo < 2e-4
    assert agree >= 99


def near_uniform_records(rng, n_groups=4):
    """Well-separated groups (positives nearly uniform), usually feasible."""
    records = []
    for _ in range(n_groups):
        k = int(rng.integers(2, 9))
        pos_mass = rng.uniform(0.85, 0.99)
        pos = pos_mass * (1.0 + rng.uniform(-0.02, 0.02, size=k))
        pos = pos / pos.sum() * pos_mass
        l_neg_max = float(rng.uniform(0.0, (1.0 - pos_mass) / 2))
        l_pos_min = float(pos.min())
        for p in pos:
            records.append(MarginRecord(p=float(p), l_pos_min=l_pos_min,
                                        l_neg_max=l_neg_max))
    return records


def test_solve_lambda_margin_semantics_when_feasible():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        records = near_uniform_records(rng)
        sol = solve_lambda(records)
        if not sol.feasible:
            continue
        checked += 1
        for r in records:
            assert r.p - sol.value >= r.l_neg_max - 1e-9
            assert r.p - sol.value <= r.l_pos_min + 1e-9
    assert checked > 20


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0.3, 1.0), st.floats(0.0, 0.3), st.floats(0.0, 0.3)),
    min_size=1, max_size=12,
), st.randoms(use_true_random=False))
def test_solve_lambda_permutation_invariant(raw, pyrandom):
    records = [MarginRecord(p=p, l_pos_min=min(lp, p), l_neg_max=ln) for p, lp, ln in raw]
    sol = solve_lambda(records)
    shuffled = list(records)
    pyrandom.shuffle(shuffled)
    sol2 = solve_lambda(shuffled)
    assert sol2.value == pytest.approx(sol.value, abs=1e-12)
    assert sol2.candidate == sol.candidate


def record_arrays(records):
    p = np.array([r.p for r in records])
    los = p - np.array([r.l_pos_min for r in records])
    his = p - np.array([r.l_neg_max for r in records])
    diffs = p - np.array([r.p_hat for r in records])
    return diffs, los, his


def test_solve_lambda_infeasible_is_exact_minimizer():
    """No point of a 1e-5 grid around the coarse winner beats the solver."""
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        records = random_records(rng)
        sol = solve_lambda(records)
        if sol.feasible:
            continue
        checked += 1
        diffs, los, his = record_arrays(records)
        coarse = np.linspace(-1.0, 1.0, 2001)
        center = coarse[np.argmin(_hinge_objective(diffs, los, his, coarse))]
        fine = np.arange(center - 2e-3, center + 2e-3, 1e-5)
        best = _hinge_objective(diffs, los, his, fine).min()
        got = _hinge_objective(diffs, los, his, sol.value)[0]
        assert got <= best + 1e-12 * abs(best)


def test_solve_lambda_infeasible_memory_is_linear():
    rng = np.random.default_rng(3)
    n = 100_000
    p = rng.uniform(0.3, 1.0, n)
    l_pos_min = np.maximum(p - rng.uniform(0.0, 0.3, n), 0.0)
    l_neg_max = rng.uniform(0.0, 0.3, n)
    records = [MarginRecord(p=float(a), l_pos_min=float(b), l_neg_max=float(c))
               for a, b, c in zip(p, l_pos_min, l_neg_max)]
    tracemalloc.start()
    try:
        sol = solve_lambda(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not sol.feasible
    assert peak < 64 * 2**20  # a grid x records scan would need gigabytes


# --- position candidates -------------------------------------------------------------


def seqs(*strs, vocab=11):
    from setgen.core import seq_from_str

    return [seq_from_str(s, vocab) for s in strs]


def test_position_candidates_first_position():
    pos, neg = position_candidates(seqs("2", "10551"), (), 11)
    assert pos == frozenset({1, 2})
    assert neg == frozenset(range(11)) - {1, 2}


def test_position_candidates_completed_target_emits_end_token():
    pos, _ = position_candidates(seqs("2"), (2,), 11)
    assert pos == frozenset({10})


def test_position_candidates_branching_prefix():
    # targets "ab", "ac" over a 4-token vocabulary {a=0, b=1, c=2, end=3}
    targets = [(0, 1, 3), (0, 2, 3)]
    pos, neg = position_candidates(targets, (0,), 4)
    assert pos == frozenset({1, 2})
    assert neg == frozenset({0, 3})


def test_position_candidates_rejects_unmatched_prefix():
    with pytest.raises(ValidationError):
        position_candidates(seqs("2"), (5,), 11)


def test_prefix_nodes_walk_each_prefix_once_and_match_a_replay():
    targets = tuple(sorted(seqs("12", "13", "2")))
    sample = SetSample(x=(4, 0, 7), y=targets)
    model = SequenceModel(input_vocab=10, vocab=11, max_len=4, embed_dim=5,
                          enc_hidden=4, dec_hidden=6, seed=2)
    nodes = list(prefix_nodes(model, sample))
    assert [(p, n) for p, _, n in nodes] == [
        ((), [1, 1, 2]), ((1,), [2, 3]), ((1, 2), [10]), ((1, 3), [10]), ((2,), [10])]
    for prefix, logits, nexts in nodes:
        assert set(nexts) == position_candidates(targets, prefix, 11)[0]
        k = len(prefix)
        assert len(nexts) == sum(len(t) > k and t[:k] == prefix for t in targets)
        h, c = model.encode(sample.x)
        replay, h, c = model.decode_step(h, c, model.start)
        for tok in prefix:
            replay, h, c = model.decode_step(h, c, tok)
        assert np.array_equal(logits, replay)
        assert np.array_equal(model.step_logits(sample.x, prefix), replay)


def test_margin_records_one_per_produced_element():
    probs = np.array([0.5, 0.3, 0.2])
    records = margin_records(probs, [0, 1, 1])
    assert records == [MarginRecord(p=p, l_pos_min=0.3, l_neg_max=0.2)
                       for p in (0.5, 0.3, 0.3)]
    assert margin_records(probs, [0, 1, 2]) == []


# --- per-position solve ----------------------------------------------------------------


class OracleStepper(PrefixStepper):
    """Logits 0.0 on the positive continuations and -inf elsewhere, so the
    posterior is exactly uniform over the positives."""

    def logits(self, positives):
        out = np.full(self.vocab, -np.inf)
        out[sorted(positives)] = 0.0
        return out


def seq_dataset(target_strs_per_sample, max_len, vocab=11):
    samples = []
    for i, strs in enumerate(target_strs_per_sample):
        y = tuple(sorted(seqs(*strs, vocab=vocab)))
        x = tuple(int(c) for c in str(i).zfill(3))  # unique digit-string input
        samples.append(SetSample(x=x, y=y))
    return Dataset(kind="sequences", samples=tuple(samples), universe=vocab,
                   max_len=max_len, input_vocab=10)


def test_per_position_short_targets_carry_forward():
    ds = seq_dataset([["3"], ["7"]], max_len=4)
    params = solve_lambda_per_position(OracleStepper(ds), ds)
    assert params.variant == "per-position"
    assert len(params.values) == 4
    assert not params.solutions[0].carried and not params.solutions[1].carried
    assert params.solutions[2].carried and params.solutions[3].carried
    assert params.values[1] == params.values[2] == params.values[3]


def test_per_position_matches_scalar_on_first_position():
    ds = seq_dataset([["3"], ["7", "2"]], max_len=2)
    model = OracleStepper(ds)
    params = solve_lambda_per_position(model, ds)
    # rebuild position-1 records by hand and solve them with the scalar path
    records = []
    for s in ds.samples:
        pos, neg = position_candidates(s.y, (), ds.universe)
        probs = nn.softmax(model.logits(pos))
        l_pos_min = float(min(probs[t] for t in pos))
        l_neg_max = float(max(probs[t] for t in neg))
        for t in sorted(seq[0] for seq in s.y):
            records.append(MarginRecord(p=float(probs[t]), l_pos_min=l_pos_min,
                                        l_neg_max=l_neg_max))
    scalar = solve_lambda(records)
    assert params.values[0] == pytest.approx(scalar.value, abs=1e-12)


def test_per_position_feasible_under_memorizing_model():
    ds = seq_dataset([["21", "3"], ["404", "44"], ["9"]], max_len=4)
    params = solve_lambda_per_position(OracleStepper(ds), ds)
    assert all(s.feasible for s in params.solutions)


def test_penalty_params_round_trip():
    ds = seq_dataset([["21", "3"]], max_len=3)
    params = solve_lambda_per_position(OracleStepper(ds), ds)
    back = PenaltyParams.from_dict(params.to_dict())
    assert back.values == params.values
    assert [s.carried for s in back.solutions] == [s.carried for s in params.solutions]


def test_penalty_params_validation():
    with pytest.raises(ValidationError):
        PenaltyParams(variant="scalar", value=float("nan"))
    with pytest.raises(ValidationError):
        PenaltyParams(variant="per-position", values=())
    with pytest.raises(ValidationError):
        PenaltyParams(variant="bogus")


def test_feasible_interval_empty_flag():
    assert FeasibleInterval(0.3, 0.1).empty
    assert not FeasibleInterval(0.1, 0.3).empty
