"""Evaluation: per-sample set F1, Levenshtein distance, pairwise set edit distance.

Note on the sequence-set score: the mean edit distance crosses *every*
(truth, prediction) pair, so a perfect prediction of a multi-element set does
NOT score 0 — the cross-pairs between distinct true elements contribute.
Zero is reached only for identical singleton sets.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .core import ValidationError


def f1_set(pred: Iterable, truth: Iterable) -> float:
    """F1 between two sets; both empty scores 1.0, one empty scores 0.0."""
    p = set(pred)
    t = set(truth)
    if not p and not t:
        return 1.0
    if not p or not t:
        return 0.0
    hits = len(p & t)
    precision = hits / len(p)
    recall = hits / len(t)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def edit_distance(a: Sequence, b: Sequence) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,  # delete
                cur[j - 1] + 1,  # insert
                prev[j - 1] + (ca != cb),  # substitute / match
            )
        prev = cur
    return prev[-1]


def mean_edit_distance(truth: Iterable[Sequence], pred: Iterable[Sequence]) -> float:
    """Mean Levenshtein distance over all (truth, prediction) pairs.

    An empty side is replaced by the singleton {empty sequence} before the
    formula applies, so an empty prediction is penalized in proportion to the
    target lengths rather than dividing by zero.
    """
    ts = sorted(set(tuple(s) for s in truth))
    ps = sorted(set(tuple(s) for s in pred))
    if not ts:
        ts = [()]
    if not ps:
        ps = [()]
    total = sum(edit_distance(t, p) for t in ts for p in ps)
    return total / (len(ts) * len(ps))


@dataclass
class EvalReport:
    """Per-sample scores plus their aggregate for one decode run."""

    metric: str
    per_sample: list[float]
    aggregate: float
    exact_match_rate: float
    n_samples: int
    n_truncated: int = 0
    n_both_empty: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(predictions: Sequence[Iterable], truths: Sequence[Iterable], metric: str,
             n_truncated: int = 0) -> EvalReport:
    """Score aligned predictions against ground-truth sets.

    ``metric`` is ``"mF1"`` (higher is better; label sets or sequence sets)
    or ``"mED"`` (lower is better; sequence sets).  Elements must already be
    hashable (ints or token tuples, end markers stripped by the caller).
    """
    if len(predictions) != len(truths):
        raise ValidationError(
            f"{len(predictions)} predictions for {len(truths)} samples"
        )
    if metric not in ("mF1", "mED"):
        raise ValidationError(f"unknown metric {metric!r}")
    scores: list[float] = []
    exact = 0
    both_empty = 0
    for pred, truth in zip(predictions, truths):
        p = set(tuple(e) if isinstance(e, (list, tuple)) else e for e in pred)
        t = set(tuple(e) if isinstance(e, (list, tuple)) else e for e in truth)
        if p == t:
            exact += 1
        if not p and not t:
            both_empty += 1
        if metric == "mF1":
            scores.append(f1_set(p, t))
        else:
            scores.append(mean_edit_distance(t, p))
    aggregate = sum(scores) / len(scores) if scores else 0.0
    return EvalReport(
        metric=metric,
        per_sample=scores,
        aggregate=aggregate,
        exact_match_rate=exact / len(scores) if scores else 0.0,
        n_samples=len(scores),
        n_truncated=n_truncated,
        n_both_empty=both_empty,
    )
