"""Set decoding: repeated penalized argmax with memory and a robust stop rule.

Label sets: the posterior is fixed per input; each step picks the best label
after subtracting ``count * penalty`` from every already-produced label, so
the argmax walks down the posterior one new element at a time.  With
``rho = 0`` the loop ends at the first repeat; larger ``rho`` tolerates noisy
repeats by running until total productions reach ``(1 + rho) x |distinct|``.

Sequence sets: partial answers expand breadth-wise position by position.
Each live partial takes its continuation tokens from :func:`position_tokens`:
the same penalized-argmax loop (per-position penalties, fresh memory per
branch) or a learned gate.  A label set is the one-position case of that
rule.  End-of-sequence tokens move a branch into the completed set; a branch
whose tokens come back empty simply ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .core import TokenSeq, ValidationError
from .models import DecoderSession, content_hash
from .penalty import PenaltyParams

GATHER_CAP_FACTOR = 4  # iteration cap: 4x the number of candidates


@dataclass
class DecodeState:
    """Memory of produced elements with per-element production counters."""

    rho: float = 0.0
    z: list[int] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError("rho must lie in [0, 1)")

    def record(self, label: int) -> bool:
        """Count a production; returns True when it was a repeat."""
        if label in self.z:
            self.counts[self.z.index(label)] += 1
            return True
        self.z.append(label)
        self.counts.append(1)
        return False

    def should_stop(self) -> bool:
        """Robust criterion; meaningful only right after a repeat."""
        return sum(self.counts) >= (1.0 + self.rho) * len(self.z)


def penalized_argmax(probs: np.ndarray, state: DecodeState, lam: float) -> int:
    """Best label under the memory penalty ``count * lam``; smallest id wins ties."""
    if not np.isfinite(lam):
        raise ValidationError("penalty must be finite")
    scores = np.asarray(probs, dtype=float).copy()
    for label, count in zip(state.z, state.counts):
        scores[label] -= lam * count
    return int(np.argmax(scores))  # argmax returns the first (smallest) index on ties


def _gather(probs: np.ndarray, lam: float, rho: float, max_iters: int):
    """Repeated penalized argmax until the robust stop rule fires.

    Returns (state, trace, truncated); the produced set is ``state.z`` in
    production order.
    """
    state = DecodeState(rho=rho)
    trace: list[int] = []
    for _ in range(max_iters):
        y = penalized_argmax(probs, state, lam)
        trace.append(y)
        repeat = state.record(y)
        if repeat and state.should_stop():
            return state, trace, False
    return state, trace, True


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one label-set decode."""

    labels: tuple[int, ...]  # production order
    iterations: int
    repeats: int
    truncated: bool
    trace: tuple[int, ...]

    @property
    def label_set(self) -> frozenset[int]:
        return frozenset(self.labels)


def decode_set(model, lam: float, x, rho: float = 0.0,
               max_iters: int | None = None) -> DecodeResult:
    """Produce a label set from any model exposing ``posterior(x)``.

    ``max_iters`` defaults to four times the universe size; hitting it flags
    truncation instead of raising, since a badly calibrated penalty can cycle.
    """
    probs = np.asarray(model.posterior(x), dtype=float)
    if max_iters is None:
        max_iters = GATHER_CAP_FACTOR * probs.shape[0]
    state, trace, truncated = _gather(probs, lam, rho, max_iters)
    return DecodeResult(
        labels=tuple(state.z),
        iterations=len(trace),
        repeats=len(trace) - len(state.z),
        truncated=truncated,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class SequenceDecodeResult:
    """Outcome of one sequence-set decode."""

    sequences: frozenset[TokenSeq]  # completed, end token included
    iterations: int
    repeats: int
    truncated: bool
    dead_ends: int
    dropped_branches: int


def verify_penalty_binding(model, penalty: PenaltyParams) -> None:
    """Refuse to decode with a penalty calibrated against a different model."""
    if penalty.model_hash is None:
        return
    actual = content_hash(model)
    if actual != penalty.model_hash:
        raise ValidationError(
            "penalty was calibrated against a different model checkpoint "
            f"({penalty.model_hash[:12]}... vs {actual[:12]}...)"
        )


def position_tokens(penalty: PenaltyParams, logits: np.ndarray, position: int,
                    prefix: TokenSeq = (), rho: float = 0.0):
    """The tokens one output position emits from the base model's scores there.

    A learned penalty's gate classifies the scores (reading ``prefix`` too,
    if it wants it); any other penalty runs the penalized-argmax gather on
    their softmax with that position's value and a fresh memory.  Returns
    ``(tokens, iterations, repeats, truncated)``; the tokens are sorted for a
    gate and in production order for a gather.
    """
    if penalty.variant == "learned":
        return sorted(penalty.classifier.classify(logits, position, prefix)), 1, 0, False
    state, trace, truncated = _gather(nn.softmax(logits), penalty.position_value(position),
                                      rho, GATHER_CAP_FACTOR * len(logits))
    return list(state.z), len(trace), len(trace) - len(state.z), truncated


def decode_sequence_set(model, penalty: PenaltyParams, x, rho: float = 0.0,
                        max_branches: int = 1024) -> SequenceDecodeResult:
    """Breadth-wise set-of-sequences decode.

    ``penalty`` must be per-position or learned; each branch emits the
    tokens :func:`position_tokens` picks.  Branches that reach the model's
    ``max_len`` without the end token are discarded and flagged; the live
    frontier is capped at ``max_branches`` to keep miscalibrated penalties
    from expanding exponentially.  Branches are scored through one
    ``DecoderSession``, so a branch the cap drops is never stepped.
    """
    if penalty.variant == "scalar":
        raise ValidationError("sequence decoding needs a per-position or learned penalty")
    if penalty.variant == "learned" and penalty.classifier is None:
        raise ValidationError("learned penalty has no classifier attached")
    verify_penalty_binding(model, penalty)
    max_len = model.max_len
    eos = model.eos
    session = DecoderSession(model, x)
    completed: set[TokenSeq] = set()
    branches: list[TokenSeq] = [()]
    iterations = 0
    repeats = 0
    dead_ends = 0
    dropped = 0
    overlong = 0
    truncated_gather = False
    for j in range(1, max_len + 1):
        frontier: list[TokenSeq] = []
        for prefix in branches:
            tokens, iters, reps, trunc = position_tokens(
                penalty, session.logits_for(prefix), j, prefix, rho)
            iterations += iters
            repeats += reps
            truncated_gather = truncated_gather or trunc
            if not tokens:
                dead_ends += 1
                continue
            for tok in tokens:
                if tok == eos:
                    completed.add(prefix + (eos,))
                elif j < max_len:
                    frontier.append(prefix + (tok,))
                else:
                    overlong += 1
        if len(frontier) > max_branches:
            dropped += len(frontier) - max_branches
            frontier = frontier[:max_branches]
        branches = frontier
        if not branches:
            break
    return SequenceDecodeResult(
        sequences=frozenset(completed),
        iterations=iterations,
        repeats=repeats,
        truncated=truncated_gather or overlong > 0 or dropped > 0,
        dead_ends=dead_ends,
        dropped_branches=dropped,
    )
