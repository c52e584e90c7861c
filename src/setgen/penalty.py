"""Max-margin calibration of the repeat penalty.

The penalty at one output position is the minimizer of a one-dimensional
quadratic subject to box constraints collected from every node there: the
penalized posterior of a produced element must stay above the best negative
and below the worst unproduced positive.  The minimizer is therefore the
unconstrained mean clipped to the interval.  When the constraints conflict
(interval empty) the exact minimizer of the quadratic plus weighted hinge
penalties is a graceful compromise, and the result is flagged infeasible.

Calibration reads one node table, :func:`position_nodes`: the base model's
scores at every node the targets visit, one per distinct target prefix of a
sequence sample and one at position 1 per label sample.  Each position is
solved on its own nodes, so a label set's penalty is the per-position
penalty of its one position; the gate examples of :mod:`setgen.lambda_net`
are the same table.

Records are held as a struct of arrays (:class:`MarginRecords`): aligned
``p``, ``l_pos_min`` and ``l_neg_max`` vectors, built in one vectorized pass
over an (N, V) matrix of posteriors and produced-element counts, and read
directly by the solver.  A list of single :class:`MarginRecord` objects is
accepted wherever records are read, and gives the same solution bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

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


@dataclass(frozen=True, eq=False)
class MarginRecords:
    """Margin records as aligned float arrays, one entry per record.

    Holds what a list of :class:`MarginRecord` holds, checked once with the
    same two rules.  ``len`` counts the records and iteration yields them as
    :class:`MarginRecord` objects.
    """

    p: np.ndarray
    l_pos_min: np.ndarray
    l_neg_max: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p", "l_pos_min", "l_neg_max"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        p, pos, neg = self.p, self.l_pos_min, self.l_neg_max
        if p.ndim != 1 or not p.shape == pos.shape == neg.shape:
            raise ValidationError("margin statistics must be aligned 1-D arrays")
        if not all(np.all((0.0 <= a) & (a <= 1.0)) for a in (p, pos, neg)):
            raise ValidationError("margin statistics must be probabilities")
        if np.any(pos > p + 1e-12):
            raise ValidationError("l_pos_min cannot exceed the pair's own posterior")

    @classmethod
    def of(cls, records) -> "MarginRecords":
        """The arrays of any iterable of :class:`MarginRecord`."""
        records = list(records)
        return cls(p=np.asarray([r.p for r in records], dtype=float),
                   l_pos_min=np.asarray([r.l_pos_min for r in records], dtype=float),
                   l_neg_max=np.asarray([r.l_neg_max for r in records], dtype=float))

    @property
    def p_hat(self) -> np.ndarray:
        return (self.l_neg_max + self.l_pos_min) / 2.0

    def __len__(self) -> int:
        return self.p.shape[0]

    def __iter__(self):
        for p, pos, neg in zip(self.p.tolist(), self.l_pos_min.tolist(),
                               self.l_neg_max.tolist()):
            yield MarginRecord(p=p, l_pos_min=pos, l_neg_max=neg)


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
    """The calibrated penalty in one of two variants.

    ``per-position`` carries one value per output position (a label set has
    one position, so one value); ``learned`` delegates to a classifier object
    exposing ``classify(logits, position_id, prefix=None) -> frozenset[int]``.
    ``model_hash`` records the base-model checkpoint the calibration ran
    against; reading a run refuses a mismatch.
    """

    variant: str  # "per-position" | "learned"
    values: tuple[float, ...] | None = None
    solutions: tuple[LambdaSolution, ...] = ()
    classifier: object | None = None
    model_hash: str | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("per-position", "learned"):
            raise ValidationError(f"unknown penalty variant {self.variant!r}")
        if self.variant == "per-position" and (
                not self.values or any(not np.isfinite(v) for v in self.values)):
            raise ValidationError("per-position penalty requires finite values")
        if not (self.model_hash is None or isinstance(self.model_hash, str)):
            raise ValidationError("model_hash must be a string")

    def position_value(self, position: int) -> float:
        """Penalty for 1-based output position; positions past the table reuse the last."""
        if position < 1:
            raise ValidationError(f"output positions start at 1, got {position}")
        if self.variant == "per-position":
            return float(self.values[min(position, len(self.values)) - 1])
        raise ValidationError("learned penalties have no per-position value")

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "values": list(self.values) if self.values is not None else None,
            "feasibility": [s.to_dict() for s in self.solutions],
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
        variant, values = doc["variant"], doc.get("values")
        if variant == "scalar":  # an older file's form of the one-value per-position penalty
            variant, values = "per-position", [doc["value"]]
        return cls(
            variant=variant,
            values=tuple(map(float, values)) if values is not None else None,
            solutions=sols,
            model_hash=doc.get("model_hash"),
        )


def margin_records(probs: np.ndarray, counts: np.ndarray) -> MarginRecords:
    """One record per produced occurrence, from (N, V) posteriors in one pass.

    ``counts[i, k]`` is how often element ``k`` was produced in row ``i``.
    A row's positives are its produced elements and its negatives every
    other entry; every record of the row carries the row's minimum positive
    and maximum negative posterior.  Records run row by row, in increasing
    element order within a row, one per occurrence.  A row without negatives
    has no bound, so it gives no records.
    """
    probs = np.asarray(probs, dtype=float)
    counts = np.asarray(counts)
    positive = counts > 0
    l_pos_min = np.where(positive, probs, np.inf).min(axis=1)
    l_neg_max = np.where(positive, -np.inf, probs).max(axis=1)
    rows, cols = np.nonzero(positive & ~positive.all(axis=1, keepdims=True))
    reps = counts[rows, cols]
    return MarginRecords(p=np.repeat(probs[rows, cols], reps),
                         l_pos_min=np.repeat(l_pos_min[rows], reps),
                         l_neg_max=np.repeat(l_neg_max[rows], reps))


def _objective(diffs: np.ndarray, lam: float) -> float:
    return float(np.sum((diffs - lam) ** 2))


def _hinge_objective(diffs: np.ndarray, los: np.ndarray, his: np.ndarray,
                     lam: float | np.ndarray):
    lam = np.atleast_1d(np.asarray(lam, dtype=float))[:, None]
    quad = np.sum((diffs[None, :] - lam) ** 2, axis=1)
    viol = np.sum(np.maximum(0.0, los[None, :] - lam), axis=1)
    viol += np.sum(np.maximum(0.0, lam - his[None, :]), axis=1)
    return quad + HINGE_WEIGHT * viol


def solve_lambda(records) -> LambdaSolution:
    """Closed-form penalty fit: the mean gap clipped to the feasible interval.

    ``records`` is a :class:`MarginRecords` or any iterable of
    :class:`MarginRecord`.  With an empty interval, returns the exact
    minimizer of the quadratic plus hinge penalties on every per-record
    bound, flagged infeasible.  O(N log N) time and O(N) memory.
    """
    if not isinstance(records, MarginRecords):
        records = MarginRecords.of(records)
    if not len(records):
        raise ValidationError("solve_lambda requires at least one margin record")
    p = records.p
    # Sorted so that every sum below runs in one order whatever the record
    # order, which makes the result bit-identical under permutation.
    los = np.sort(p - records.l_pos_min)
    his = np.sort(p - records.l_neg_max)
    diffs = np.sort(p - records.p_hat)
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
    ``DecoderSession``, which a sample without targets never opens; ``nexts``
    holds the next token of every target that extends the prefix, one entry
    per target, so ``set(nexts)`` is the set of tokens that keep the prefix
    on some target.
    """
    nexts: dict[TokenSeq, list[int]] = {}
    for target in sample.y:
        for k in range(len(target)):
            nexts.setdefault(tuple(target[:k]), []).append(int(target[k]))
    session = DecoderSession(model, sample.x) if nexts else None
    for prefix in sorted(nexts):
        yield prefix, session.logits_for(prefix), nexts[prefix]


def position_nodes(model, dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node calibration sees: (N, V) logits, (N,) 1-based positions, (N, V) counts.

    A label sample is one node at position 1, its row of one batched
    ``model.scores`` call, whose counts mark its labels.  A sequence sample
    gives its :func:`prefix_nodes` at position ``len(prefix) + 1``, whose
    counts hold how many targets continue the prefix with each token.
    """
    vocab = dataset.universe
    if dataset.kind == "labels":
        n = len(dataset.samples)
        X = np.asarray([s.x for s in dataset.samples], dtype=float).reshape(n, dataset.input_dim)
        counts = np.zeros((n, vocab), dtype=np.intp)
        counts[[i for i, s in enumerate(dataset.samples) for _ in s.y],
               [k for s in dataset.samples for k in s.y]] = 1
        return np.asarray(model.scores(X), dtype=float), np.ones(n, dtype=np.intp), counts
    # Gathered as the bytes of row-major arrays: a node costs no array object.
    logits, counts, positions = bytearray(), bytearray(), []
    for sample in dataset.samples:
        for prefix, row, nexts in prefix_nodes(model, sample):
            logits += np.asarray(row, dtype=float).tobytes()
            counts += np.bincount(nexts, minlength=vocab).tobytes()
            positions.append(len(prefix) + 1)
    return (np.frombuffer(logits).reshape(-1, vocab), np.asarray(positions, dtype=np.intp),
            np.frombuffer(counts, dtype=np.intp).reshape(-1, vocab))


def _records_at(nodes: tuple, position: int) -> MarginRecords:
    """:func:`margin_records` of the nodes at one position, through one softmax.

    A node that produces the whole universe has no negative bound; it is logged.
    """
    logits, positions, counts = nodes
    at = positions == position
    logits, counts = logits[at], counts[at]
    skipped = int(np.count_nonzero(counts.all(axis=1)))
    if skipped:
        log.warning("skipped %d node(s) at position %d with empty negative sets",
                    skipped, position)
    return margin_records(nn.softmax(logits, axis=1), counts)


def margin_stats(model, dataset: Dataset) -> MarginRecords:
    """The margin records of the :func:`position_nodes` at position 1, in sample order.

    On a label dataset: one record per (sample, target label).  Refuses an
    empty dataset and a sample without targets.
    """
    if not dataset.samples:
        raise ValidationError("margin_stats needs at least one sample")
    for i, sample in enumerate(dataset.samples):
        if not sample.y:
            raise ValidationError(f"sample {i} has an empty target set")
    return _records_at(position_nodes(model, dataset), 1)


def solve_lambda_per_position(model, dataset: Dataset) -> PenaltyParams:
    """One closed-form penalty per position 1..``max_len`` of the :func:`position_nodes`.

    A position without records inherits the previous position's value,
    flagged as carried.  A label dataset declares no ``max_len``: it has one
    position, so its penalty holds one value.
    """
    nodes = position_nodes(model, dataset)
    solutions: list[LambdaSolution] = []
    for j in range(1, (dataset.max_len or 1) + 1):
        records = _records_at(nodes, j)
        if len(records):
            solutions.append(solve_lambda(records))
        elif not solutions:
            raise ValidationError("no margin records at any position; is the model trained?")
        else:
            solutions.append(replace(solutions[-1], carried=True))
    n_carried = sum(s.carried for s in solutions)
    if n_carried:
        log.info("per-position calibration: %d position(s) carried forward", n_carried)
    return PenaltyParams(variant="per-position", values=tuple(s.value for s in solutions),
                         solutions=tuple(solutions))
