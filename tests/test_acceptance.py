"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or in the captured output of a failing run).  The two desk-scale directional
experiments (criteria 7 and 8) train real models at N=1000 under pinned
seeds; they are the long poles, marked ``slow``, and assert orderings only,
never absolute scores.
"""

import functools
import time

import numpy as np
import pytest

from setgen.cli import reproduce
from setgen.decoder import decode_sequence_set, decode_set
from setgen.lambda_net import LambdaNet
from setgen.metrics import edit_distance, f1_set, mean_edit_distance
from setgen.models import LabelModel, MultiLabelBaseline, SequenceModel
from setgen.penalty import MarginRecord, PenaltyParams, margin_stats, solve_lambda
from setgen.tasks import TaskSpec, generate, targets
from tests.conftest import OracleLabelPosterior, PositiveTokenOracle, gradient_check
from tests.test_decoder import Posterior, eq1_decode
from tests.test_lambda_net import gate_batch, separable_examples
from tests.test_penalty import grid_solve, objective, random_records

PINNED_SEED = 20240601


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {desc}", flush=True)
                raise
            print(f"[PASS] criterion {num}: {desc}", flush=True)
        return wrapper
    return deco


@criterion(1, "closed-form penalty matches the grid-search oracle")
def test_c1_lambda_closed_form_vs_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(PINNED_SEED)
    agree = 0
    n_cases = 200
    for _ in range(n_cases):
        records = random_records(rng)
        sol = solve_lambda(records)
        oracle_obj, oracle_feasible = grid_solve(records)
        if sol.feasible == oracle_feasible:
            agree += 1
            if sol.feasible:
                assert objective(records, sol.value) <= oracle_obj + 1e-3
        else:
            # classification may differ only on intervals thinner than the grid
            assert abs(sol.interval.hi - sol.interval.lo) < 2e-4
    assert agree >= 0.99 * n_cases
    assert time.perf_counter() - t0 < 10.0


@criterion(2, "label decoding is exact with an oracle posterior and solved penalty")
def test_c2_end_to_end_exactness_labels():
    t0 = time.perf_counter()
    ds = generate(TaskSpec(task="threshold", n=500, seed=PINNED_SEED))
    oracle = OracleLabelPosterior({s.x: s.y_set for s in ds.samples}, ds.universe)
    sol = solve_lambda(margin_stats(oracle, ds))
    exact = 0
    for s in ds.samples:
        res = decode_set(oracle, sol.value, s.x, rho=0.0)
        exact += int(res.label_set == s.y_set)
    assert exact == len(ds.samples)
    assert time.perf_counter() - t0 < 5.0


@criterion(3, "sequence decoding with the continuation oracle reproduces the truth")
def test_c3_end_to_end_exactness_sequences():
    t0 = time.perf_counter()
    model = SequenceModel(input_vocab=10, vocab=11, max_len=10, embed_dim=4,
                          enc_hidden=3, dec_hidden=4, seed=0)
    rng = np.random.default_rng(PINNED_SEED)
    inputs = [tuple(int(c) for c in "00490000349172105519")]  # worked example first
    inputs += [tuple(map(int, rng.integers(0, 10, size=20))) for _ in range(500)]
    for x in inputs:
        truth = targets("task2", x)
        pen = PenaltyParams(variant="learned",
                            classifier=PositiveTokenOracle(list(truth), 11))
        res = decode_sequence_set(model, pen, x)
        assert res.sequences == frozenset(truth)
    assert time.perf_counter() - t0 < 30.0


@criterion(4, "worked-example fixtures hold exactly")
def test_c4_worked_example_fixtures():
    assert targets("task1", (3, 3, 8, 7, 4)) == ((3, 10), (8, 10))
    assert targets("threshold", (1.01,)) == tuple(range(2, 11))
    assert targets("threshold", (9.5,)) == (10,)


@criterion(5, "rho=0 reduces to plain repeat-stop decoding; rho=0.5 only adds")
def test_c5_stopping_criterion_reduction():
    rng = np.random.default_rng(PINNED_SEED)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, n + 1))
        truth = set(rng.choice(n, size=k, replace=False).tolist())
        probs = rng.dirichlet(np.ones(n)) * 0.2
        for t in truth:
            probs[t] += 0.8 / k
        probs /= probs.sum()
        lam = float(rng.uniform(0.0, 0.6))
        strict = decode_set(Posterior(probs), lam, None, rho=0.0)
        ref_z, ref_trace = eq1_decode(probs, lam)
        assert list(strict.trace) == ref_trace
        assert list(strict.labels) == ref_z
        robust = decode_set(Posterior(probs), lam, None, rho=0.5)
        assert (strict.label_set & truth) <= robust.label_set


@criterion(6, "analytic gradients match central differences for every family")
def test_c6_gradient_checks_all_families():
    t0 = time.perf_counter()
    rng = np.random.default_rng(PINNED_SEED)
    for seed in (0, 1, 2):
        m = LabelModel(4, 3, (5,), seed=seed)
        batch = (rng.normal(size=(3, 4)), rng.integers(0, 3, size=3))
        assert gradient_check(m, batch, eps=1e-4) < 1e-4

        b = MultiLabelBaseline(4, 3, (5,), seed=seed)
        batch = (rng.normal(size=(3, 4)), (rng.uniform(size=(3, 3)) > 0.5).astype(float))
        assert gradient_check(b, batch, eps=1e-4) < 1e-4

        s = SequenceModel(input_vocab=5, vocab=4, max_len=4, embed_dim=4,
                          enc_hidden=3, dec_hidden=5, seed=seed)
        batch = [((1, 2, 0), (0, 1, 3)), ((2,), (2, 3)), ((4, 3, 1), (3,))]
        assert gradient_check(s, batch, eps=1e-4) < 1e-4

        examples = separable_examples(rng, n=3, vocab=5)
        rec = LambdaNet("recurrent", 5, max_len=3, hidden=4, pos_weight=2.0, seed=seed)
        assert gradient_check(rec, gate_batch(examples), eps=1e-4) < 1e-4

        win = LambdaNet("windowed", 5, max_len=3, filters=3, dense=4, pos_weight=2.0, seed=seed)
        assert gradient_check(win, gate_batch(examples), eps=1e-4) < 1e-4
    assert time.perf_counter() - t0 < 60.0


@criterion(9, "metric suite: tagged examples plus 10,000-case property fuzz")
def test_c9_metric_unit_suite():
    t0 = time.perf_counter()
    assert f1_set({3, 8}, {3, 8}) == 1.0
    assert f1_set({3}, {3, 8}) == pytest.approx(2 * (1 * 0.5) / 1.5)
    assert f1_set(set(), {3}) == 0.0
    assert edit_distance("ab", "ab") == 0
    assert edit_distance("ab", "abc") == 1
    assert edit_distance("10551", "2") == 5
    assert mean_edit_distance({"x"}, {"x"}) == 0.0
    assert mean_edit_distance({"a", "bb"}, {"a"}) == pytest.approx(1.0)
    assert mean_edit_distance({(2,), (1, 0, 5, 5, 1)}, set()) == pytest.approx(3.0)

    rng = np.random.default_rng(PINNED_SEED)
    for _ in range(10_000):
        lens = rng.integers(0, 10, size=3)
        a, b, c = ("".join(str(d) for d in rng.integers(0, 10, size=l)) for l in lens)
        dab = edit_distance(a, b)
        assert dab == edit_distance(b, a)
        assert dab <= edit_distance(a, c) + edit_distance(c, b)
        assert (dab == 0) == (a == b)
        sa = set(rng.choice(20, size=rng.integers(0, 5), replace=False).tolist())
        sb = set(rng.choice(20, size=rng.integers(0, 5), replace=False).tolist())
        assert f1_set(sa, sb) == f1_set(sb, sa)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.slow
@criterion(7, "desk-scale directional orderings on the leading-digit task")
def test_c7_task1_directional(tmp_path):
    t0 = time.perf_counter()
    doc, ok = reproduce("task1", str(tmp_path / "task1"), n=1000, seed=7, epochs=60)
    cols = doc["columns"]
    assert cols["ssg-windowed"] > cols["multi-label"]
    assert cols["ssg-windowed"] > cols["ssg-s"]
    assert cols["ssg-recurrent"] > cols["ssg-s"]
    assert ok
    assert time.perf_counter() - t0 < 30 * 60


@pytest.mark.slow
@criterion(8, "desk-scale directional orderings on the substring-set task")
def test_c8_task2_directional(tmp_path):
    t0 = time.perf_counter()
    doc, ok = reproduce("task2", str(tmp_path / "task2"), n=1000, seed=7, epochs=60)
    cols = doc["columns"]
    assert cols["ssg-windowed"] < cols["ssg-s"]
    assert cols["ssg-recurrent"] < cols["ssg-s"]
    assert doc["not_applicable"] == ["multi-label"]
    assert ok
    assert time.perf_counter() - t0 < 45 * 60


@criterion(10, "pinned-seed reproduce runs are byte-identical")
def test_c10_reproduce_determinism(tmp_path):
    import filecmp
    import os

    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        reproduce("task1", str(out), n=100, seed=7, epochs=8)
        outs.append(out)
    mismatches = []
    for root, _, files in os.walk(outs[0]):
        rel = os.path.relpath(root, outs[0])
        for fname in files:
            a = os.path.join(root, fname)
            b = os.path.join(outs[1], rel, fname)
            if not filecmp.cmp(a, b, shallow=False):
                mismatches.append(os.path.join(rel, fname))
    assert not mismatches, f"non-identical report files: {mismatches}"
