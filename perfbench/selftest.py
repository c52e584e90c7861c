"""Tests of the benchmark's output checks, on small inputs.

    python3 -m pytest -q perfbench/selftest.py

Each check is compared with the library function it stands apart from, on
inputs small enough to run in seconds, so that a check that passes wrong
output, or fails right output, shows here rather than in a benchmark run.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from setgen import decoder, lambda_net, models, penalty, tasks  # noqa: E402
from setgen.core import SetSample, flatten  # noqa: E402


class FixedPosterior:
    def __init__(self, probs):
        self.probs = probs

    def posterior(self, x):
        return self.probs


def test_label_closed_form_matches_decode_set():
    rng = np.random.default_rng(0)
    compared = 0
    for _ in range(5000):
        probs = rng.dirichlet(np.full(11, rng.uniform(0.2, 3.0)))
        lam = float(rng.uniform(-0.2, 0.8))
        want, decidable = checks.label_set_closed_form(probs, lam)
        got = decoder.decode_set(FixedPosterior(probs), lam, None).label_set
        if decidable:
            assert got == want
            compared += 1
    assert compared > 4900


def test_label_closed_form_flags_ties():
    probs = np.array([0.4, 0.4, 0.2])
    assert not checks.label_set_closed_form(probs, 0.1)[1]
    probs = np.array([0.5, 0.3, 0.2])
    assert not checks.label_set_closed_form(probs, 0.2)[1]  # 0.3 sits on the cut
    assert checks.label_set_closed_form(probs, 0.25) == (frozenset({0, 1}), True)


@pytest.fixture(scope="module")
def task2_fit():
    """A briefly trained task2 model, its per-position penalty and two gates."""
    data = tasks.generate(tasks.TaskSpec(task="task2", n=80, seed=3))
    cfg = models.TrainConfig(epochs=4, seed=3, learning_rate=0.01, batch_size=30)
    model = models.train_sequence_model(flatten(data), cfg, input_vocab=10, vocab=11,
                                        max_len=10, embed_dim=12, enc_hidden=12,
                                        dec_hidden=24)
    examples = lambda_net.build_lambda_training_set(model, data)
    gate_cfg = replace(cfg, epochs=2)
    gates = {v: lambda_net.train_lambda_net(examples, v, gate_cfg, max_len=10)
             for v in ("recurrent", "windowed")}
    held_out = tasks.generate(tasks.TaskSpec(task="task2", n=12, seed=4)).samples
    return model, gates, held_out


def _compare(model, pen, rule, samples):
    sizes = []
    for s in samples:
        got = decoder.decode_sequence_set(model, pen, s.x)
        want, decidable, _ = checks.search_sequence_set(model, s.x, rule, model.max_len)
        assert decidable and not got.dropped_branches
        assert frozenset(got.sequences) == want
        sizes.append(len(want))
    return sizes


# Cuts well below the default 0.5, so that the briefly trained gates emit
# several tokens per position and the frontier branches into wide sets.
LOW_CUTS = {"recurrent": 0.13, "windowed": 0.12}


def test_sequence_search_matches_decoder_for_gates(task2_fit):
    model, gates, held_out = task2_fit
    for variant, gate in gates.items():
        gate.threshold = LOW_CUTS[variant]
        pen = penalty.PenaltyParams(variant="learned", classifier=gate)
        sizes = _compare(model, pen, checks.gate_tokens(model, gate), held_out)
        assert max(sizes) >= 10


def test_sequence_search_matches_decoder_for_per_position(task2_fit):
    model, _, held_out = task2_fit
    pen = penalty.PenaltyParams(variant="per-position", values=(0.01,) * 10)
    sizes = _compare(model, pen, checks.per_position_tokens(model, pen), held_out)
    assert max(sizes) >= 5


def test_sequence_search_tells_another_cut_apart(task2_fit):
    """The search follows the gate it is given, so a decoder at another cut fails it."""
    model, gates, held_out = task2_fit
    gate = gates["windowed"]
    pen = penalty.PenaltyParams(variant="learned", classifier=gate)
    gate.threshold = LOW_CUTS["windowed"]
    rule = checks.gate_tokens(model, gate)
    wide = [checks.search_sequence_set(model, s.x, rule, model.max_len)[0]
            for s in held_out]
    gate.threshold = 0.5
    narrow = [frozenset(decoder.decode_sequence_set(model, pen, s.x).sequences)
              for s in held_out]
    assert wide != narrow


def test_sequence_search_gives_up_where_the_decoder_drops(task2_fit):
    model, gates, held_out = task2_fit
    gate = gates["windowed"]
    gate.threshold = 0.06  # nearly every token passes
    pen = penalty.PenaltyParams(variant="learned", classifier=gate)
    got = decoder.decode_sequence_set(model, pen, held_out[0].x, max_branches=16)
    _, decidable, nodes = checks.search_sequence_set(
        model, held_out[0].x, checks.gate_tokens(model, gate), model.max_len, 16)
    assert got.dropped_branches and not decidable and nodes == 16 * model.max_len + 1


def _records(rng, n, feasible):
    """Margin records; with ``feasible`` every negative sits 0.2 below its group."""
    out = []
    for _ in range(n):
        pos = rng.uniform(0.5, 0.9)
        p = min(1.0, pos + rng.uniform(0.0, 0.1))
        neg = pos - rng.uniform(0.2, 0.5) if feasible else rng.uniform(0.0, 0.95)
        out.append(penalty.MarginRecord(p=p, l_pos_min=pos, l_neg_max=neg))
    return out


@pytest.mark.parametrize("n", [1, 7, 50, 300])
def test_chunked_objective_matches_dense(n):
    rng = np.random.default_rng(n)
    diffs, los, his = checks.record_arrays(_records(rng, n, False))
    grid = np.linspace(-1.0, 1.0, 333)
    dense = penalty._hinge_objective(np.sort(diffs), np.sort(los), np.sort(his), grid)
    for chunk in (1, 5, 64, 1000):
        chunked = checks.hinge_objective(grid, diffs, los, his, penalty.HINGE_WEIGHT, chunk)
        np.testing.assert_allclose(chunked, dense, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_scalar_check_accepts_the_solver_and_rejects_a_shifted_value(seed):
    rng = np.random.default_rng(seed)
    records = _records(rng, 200, feasible=seed % 2 == 0)
    sol = penalty.solve_lambda(records)
    assert sol.feasible == (seed % 2 == 0)
    assert checks.check_scalar_solution(records, sol, penalty.HINGE_WEIGHT) == []
    moved = replace(sol, value=sol.value + 0.01)
    assert checks.check_scalar_solution(records, moved, penalty.HINGE_WEIGHT) != []


def test_target_checks_flag_a_corrupted_sample():
    data = tasks.generate(tasks.TaskSpec(task="threshold", n=20, seed=1))
    assert checks.check_targets("threshold", data.samples) == []
    bad = SetSample(x=data.samples[0].x, y=data.samples[0].y[1:])
    assert checks.check_targets("threshold", (bad,)) != []
    data = tasks.generate(tasks.TaskSpec(task="task2", n=20, seed=1))
    assert checks.check_targets("task2", data.samples) == []
    bad = SetSample(x=data.samples[0].x, y=data.samples[0].y + ((1, 2, 10),))
    assert checks.check_targets("task2", (bad,)) != []


def test_loss_check():
    assert checks.check_losses("m", [2.0, 1.5, 1.0]) == []
    assert checks.check_losses("m", [1.0, 1.5]) != []
    assert checks.check_losses("m", [2.0, float("nan"), 1.0]) != []
