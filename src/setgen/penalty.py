"""Max-margin calibration of the repeat penalty.

The scalar penalty is the minimizer of a one-dimensional quadratic subject to
box constraints collected from every flattened pair: the penalized posterior
of a produced element must stay above the best negative and below the worst
unproduced positive.  The minimizer is therefore either the unconstrained
mean clipped to the interval.  When the constraints conflict (interval
empty) the exact minimizer of the quadratic plus weighted hinge penalties is
a graceful compromise, and the result is flagged infeasible.

Sequence sets get one penalty per output position, each solved the same way
on records built from teacher-forced next-token posteriors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import nn
from .core import Dataset, SetSample, TokenSeq, ValidationError
from .models import DecoderSession

log = logging.getLogger(__name__)

HINGE_WEIGHT = 1e3  # constraint-violation weight in the infeasible fallback


@dataclass(frozen=True)
class MarginRecord:
    """Per-pair statistics: positive posterior and its group's ranking bounds.

    ``l_pos_min``/``l_neg_max`` are the minimum positive and maximum negative
    posteriors within the pair's group; ``p_hat`` is their midpoint.
    """

    p: float
    l_pos_min: float
    l_neg_max: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.l_pos_min <= 1.0
                and 0.0 <= self.l_neg_max <= 1.0):
            raise ValidationError("margin statistics must be probabilities")
        if self.l_pos_min > self.p + 1e-12:
            raise ValidationError("l_pos_min cannot exceed the pair's own posterior")

    @property
    def p_hat(self) -> float:
        return (self.l_neg_max + self.l_pos_min) / 2.0


@dataclass(frozen=True)
class FeasibleInterval:
    """Intersection of all per-record penalty bounds."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


@dataclass(frozen=True)
class LambdaSolution:
    """One solved penalty: value, interval, and which candidate won."""

    value: float
    interval: FeasibleInterval
    candidate: str  # "interior" | "boundary-low" | "boundary-high" | "infeasible"
    objective: float
    carried: bool = False  # true when copied forward into a record-free position

    @property
    def feasible(self) -> bool:
        return self.candidate != "infeasible"

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "lo": self.interval.lo,
            "hi": self.interval.hi,
            "candidate": self.candidate,
            "objective": self.objective,
            "feasible": self.feasible,
            "carried": self.carried,
        }


@dataclass
class PenaltyParams:
    """The calibrated penalty in one of three variants.

    ``scalar`` carries one value; ``per-position`` one value per output
    position; ``learned`` delegates to a classifier object exposing
    ``classify(logits, position_id, prefix=None) -> frozenset[int]``.
    ``model_hash`` records the base-model checkpoint the calibration ran
    against; decoding refuses a mismatch unless overridden.
    """

    variant: str  # "scalar" | "per-position" | "learned"
    value: float | None = None
    values: tuple[float, ...] | None = None
    solutions: tuple[LambdaSolution, ...] = ()
    classifier: object | None = None
    classifier_ref: str | None = None
    model_hash: str | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("scalar", "per-position", "learned"):
            raise ValidationError(f"unknown penalty variant {self.variant!r}")
        if self.variant == "scalar" and (self.value is None or not np.isfinite(self.value)):
            raise ValidationError("scalar penalty requires a finite value")
        if self.variant == "per-position":
            if not self.values or any(not np.isfinite(v) for v in self.values):
                raise ValidationError("per-position penalty requires finite values")
        if not all(ref is None or isinstance(ref, str)
                   for ref in (self.classifier_ref, self.model_hash)):
            raise ValidationError("classifier_ref and model_hash must be strings")

    def position_value(self, position: int) -> float:
        """Penalty for 1-based output position; positions past the table reuse the last."""
        if self.variant == "scalar":
            return float(self.value)
        if self.variant == "per-position":
            return float(self.values[min(position, len(self.values)) - 1])
        raise ValidationError("learned penalties have no scalar value")

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "value": self.value,
            "values": list(self.values) if self.values is not None else None,
            "feasibility": [s.to_dict() for s in self.solutions],
            "classifier_ref": self.classifier_ref,
            "model_hash": self.model_hash,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PenaltyParams":
        sols = tuple(
            LambdaSolution(
                value=s["value"],
                interval=FeasibleInterval(s["lo"], s["hi"]),
                candidate=s["candidate"],
                objective=s["objective"],
                carried=s.get("carried", False),
            )
            for s in doc.get("feasibility", [])
        )
        value, values = doc.get("value"), doc.get("values")
        return cls(
            variant=doc["variant"],
            value=float(value) if value is not None else None,
            values=tuple(map(float, values)) if values is not None else None,
            solutions=sols,
            classifier_ref=doc.get("classifier_ref"),
            model_hash=doc.get("model_hash"),
        )


def margin_records(probs: np.ndarray, produced) -> list[MarginRecord]:
    """One record per produced element of a single posterior.

    The positives are the distinct produced elements and the negatives every
    other entry of ``probs``; every record carries the minimum positive and
    maximum negative posterior.  Without negatives there is no bound, so no
    records.
    """
    positives = sorted(set(produced))
    negatives = sorted(set(range(len(probs))).difference(positives))
    if not negatives:
        return []
    l_pos_min = float(np.min(probs[positives]))
    l_neg_max = float(np.max(probs[negatives]))
    return [MarginRecord(p=float(probs[k]), l_pos_min=l_pos_min, l_neg_max=l_neg_max)
            for k in produced]


def margin_stats(model, dataset: Dataset) -> list[MarginRecord]:
    """One record per (sample, target label) of a label dataset, in sample order.

    Samples whose negative set is empty (targets covering the whole universe)
    contribute nothing and are logged, since no negative bounds exist there.
    """
    if dataset.kind != "labels":
        raise ValidationError("margin_stats expects a label dataset")
    if not dataset.samples:
        raise ValidationError("margin_stats needs at least one sample")
    records: list[MarginRecord] = []
    skipped = 0
    for i, sample in enumerate(dataset.samples):
        if not sample.y:
            raise ValidationError(f"sample {i} has an empty target set")
        recs = margin_records(np.asarray(model.posterior(sample.x), dtype=float), sample.y)
        if not recs:
            skipped += 1
        records.extend(recs)
    if skipped:
        log.warning("margin_stats: skipped %d sample(s) with empty negative sets", skipped)
    return records


def _objective(diffs: np.ndarray, lam: float) -> float:
    return float(np.sum((diffs - lam) ** 2))


def _hinge_objective(diffs: np.ndarray, los: np.ndarray, his: np.ndarray,
                     lam: float | np.ndarray):
    lam = np.atleast_1d(np.asarray(lam, dtype=float))[:, None]
    quad = np.sum((diffs[None, :] - lam) ** 2, axis=1)
    viol = np.sum(np.maximum(0.0, los[None, :] - lam), axis=1)
    viol += np.sum(np.maximum(0.0, lam - his[None, :]), axis=1)
    return quad + HINGE_WEIGHT * viol


def solve_lambda(records: list[MarginRecord]) -> LambdaSolution:
    """Closed-form penalty fit: the mean gap clipped to the feasible interval.

    With an empty interval, returns the exact minimizer of the quadratic plus
    hinge penalties on every per-record bound, flagged infeasible.  O(N log N)
    time and O(N) memory.
    """
    if not records:
        raise ValidationError("solve_lambda requires at least one margin record")
    p = np.asarray([r.p for r in records])
    # Sorted so that every sum below runs in one order whatever the record
    # order, which makes the result bit-identical under permutation.
    los = np.sort(p - np.asarray([r.l_pos_min for r in records]))
    his = np.sort(p - np.asarray([r.l_neg_max for r in records]))
    diffs = np.sort(p - np.asarray([r.p_hat for r in records]))
    interval = FeasibleInterval(lo=float(los[-1]), hi=float(his[0]))

    if not interval.empty:
        lam = min(max(float(np.mean(diffs)), interval.lo), interval.hi)
        candidate = ("boundary-low" if lam == interval.lo else
                     "boundary-high" if lam == interval.hi else "interior")
        return LambdaSolution(value=lam, interval=interval, candidate=candidate,
                              objective=_objective(diffs, lam))

    # Infeasible: the hinge objective is convex and piecewise quadratic with
    # knots at every bound.  Its right slope
    #   2(n*lam - sum d) - W*#{lo > lam} + W*#{hi <= lam}
    # never decreases, so the minimizer lies on the piece left of the first
    # knot where that slope is non-negative: the piece's stationary point,
    # clipped to the piece.  Every gap d = (lo + hi)/2 lies at or below the
    # last knot, so the slope there is at least W*n.
    n = diffs.size
    total = float(np.sum(diffs))
    knots = np.unique(np.concatenate([los, his]))
    lo_above = n - np.searchsorted(los, knots, side="right")
    hi_below = np.searchsorted(his, knots, side="right")
    slope = 2.0 * (n * knots - total) + HINGE_WEIGHT * (hi_below - lo_above)
    k = int(np.argmax(slope >= 0.0))
    if k == 0:
        left, above, below = -np.inf, n, 0
    else:
        left, above, below = knots[k - 1], lo_above[k - 1], hi_below[k - 1]
    stationary = (total + HINGE_WEIGHT / 2.0 * (above - below)) / n
    lam = float(min(max(stationary, left), knots[k]))
    return LambdaSolution(value=lam, interval=interval, candidate="infeasible",
                          objective=_objective(diffs, lam))


def prefix_nodes(model, sample: SetSample):
    """Teacher-forced walk over the distinct prefixes of one sample's targets.

    Yields ``(prefix, logits, nexts)`` in sorted prefix order from one
    ``DecoderSession``; ``nexts`` holds the next token of every target that
    extends the prefix, one entry per target, so ``set(nexts)`` is the set
    of tokens that keep the prefix on some target.
    """
    nexts: dict[TokenSeq, list[int]] = {}
    for target in sample.y:
        for k in range(len(target)):
            nexts.setdefault(tuple(target[:k]), []).append(int(target[k]))
    session = DecoderSession(model, sample.x)
    for prefix in sorted(nexts):
        yield prefix, session.logits_for(prefix), nexts[prefix]


def solve_lambda_per_position(model, dataset: Dataset) -> PenaltyParams:
    """One closed-form penalty per output position of a sequence dataset.

    Records at position j come from the teacher-forced next-token posterior
    of every (sample, target) pair whose target reaches that position.
    Positions with no records inherit the previous position's value and are
    flagged as carried.
    """
    if dataset.kind != "sequences":
        raise ValidationError("per-position calibration expects a sequence dataset")
    max_len = dataset.max_len
    per_position: list[list[MarginRecord]] = [[] for _ in range(max_len)]
    for sample in dataset.samples:
        if not sample.y:
            continue
        for prefix, logits, nexts in prefix_nodes(model, sample):
            per_position[len(prefix)].extend(margin_records(nn.softmax(logits), nexts))
    solutions: list[LambdaSolution] = []
    last: LambdaSolution | None = None
    n_empty = 0
    for j in range(max_len):
        if per_position[j]:
            last = solve_lambda(per_position[j])
            solutions.append(last)
        else:
            n_empty += 1
            if last is None:
                raise ValidationError("no margin records at any position; is the model trained?")
            solutions.append(LambdaSolution(value=last.value, interval=last.interval,
                                            candidate=last.candidate,
                                            objective=last.objective, carried=True))
    if n_empty:
        log.info("per-position calibration: %d position(s) carried forward", n_empty)
    return PenaltyParams(
        variant="per-position",
        values=tuple(s.value for s in solutions),
        solutions=tuple(solutions),
    )
