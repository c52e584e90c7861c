"""Set decoding: repeated penalized argmax with memory and a robust stop rule.

Label sets: the posterior is fixed per input; one (V,) count vector is the
memory, and each step picks the best label after subtracting
``count * penalty``, so the argmax walks down the posterior one new element
at a time.  The loop stops at a repeat once total productions reach
``(1 + rho) x |distinct|``: with ``rho = 0`` at the first repeat.  Every
repeat before the stop adds one production and no new label, so a decode
ends within ``V + max(1, ceil(rho V)) <= 2V`` steps.

Sequence sets: partial answers expand breadth-wise position by position.
Each live partial takes its continuation tokens from :func:`position_tokens`:
the same penalized-argmax loop (per-position penalties, fresh memory per
branch) or a learned gate.  A label set is the one-position case of that
rule.  End-of-sequence tokens move a branch into the completed set; a branch
whose tokens come back empty simply ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .core import TokenSeq, ValidationError
from .models import DecoderSession
from .penalty import PenaltyParams


def penalized_argmax(probs: np.ndarray, counts: np.ndarray, lam: float) -> int:
    """Best label under the memory penalty ``counts * lam``; smallest id wins ties."""
    if not np.isfinite(lam):
        raise ValidationError("penalty must be finite")
    return int(np.argmax(probs - lam * counts))  # argmax returns the first index on ties


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one label-set decode."""

    labels: tuple[int, ...]  # distinct, in production order
    trace: tuple[int, ...]  # every production, repeats included

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def repeats(self) -> int:
        return len(self.trace) - len(self.labels)

    @property
    def label_set(self) -> frozenset[int]:
        return frozenset(self.labels)


def _gather(probs: np.ndarray, lam: float, rho: float) -> DecodeResult:
    """Repeated penalized argmax until the robust stop rule fires."""
    if not 0.0 <= rho < 1.0:
        raise ValidationError("rho must lie in [0, 1)")
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValidationError("posterior must be a non-empty vector")
    counts = np.zeros(probs.shape[0])
    labels: list[int] = []
    trace: list[int] = []
    while True:
        y = penalized_argmax(probs, counts, lam)
        trace.append(y)
        if counts[y] == 0:
            labels.append(y)
        elif len(trace) >= (1.0 + rho) * len(labels):
            return DecodeResult(tuple(labels), tuple(trace))
        counts[y] += 1


def decode_set(model, lam: float, x, rho: float = 0.0) -> DecodeResult:
    """Produce a label set from any model exposing ``posterior(x)``, within
    ``V + max(1, ceil(rho V))`` steps for a V-label posterior."""
    return _gather(model.posterior(x), lam, rho)


@dataclass(frozen=True)
class SequenceDecodeResult:
    """Outcome of one sequence-set decode."""

    sequences: frozenset[TokenSeq]  # completed, end token included
    iterations: int
    repeats: int
    truncated: bool
    dead_ends: int
    dropped_branches: int


def position_tokens(penalty: PenaltyParams, logits: np.ndarray, position: int,
                    prefix: TokenSeq = (), rho: float = 0.0):
    """The tokens one output position emits from the base model's scores there.

    A learned penalty's gate classifies the scores (reading ``prefix`` too,
    if it wants it); any other penalty runs the penalized-argmax gather on
    their softmax with that position's value and a fresh memory.  Returns
    ``(tokens, iterations, repeats)``; the tokens are sorted for a gate and
    in production order for a gather.
    """
    if penalty.variant == "learned":
        return sorted(penalty.classifier.classify(logits, position, prefix)), 1, 0
    res = _gather(nn.softmax(logits), penalty.position_value(position), rho)
    return list(res.labels), res.iterations, res.repeats


def decode_sequence_set(model, penalty: PenaltyParams, x, rho: float = 0.0,
                        max_branches: int = 1024) -> SequenceDecodeResult:
    """Breadth-wise set-of-sequences decode.

    Each branch emits the tokens :func:`position_tokens` picks.  Branches
    that reach the model's ``max_len`` without the end token are discarded
    and flagged; the live frontier is capped at ``max_branches`` to keep
    miscalibrated penalties from expanding exponentially.  Branches are
    scored through one ``DecoderSession``, so a branch the cap drops is
    never stepped.
    """
    if penalty.variant == "learned" and penalty.classifier is None:
        raise ValidationError("learned penalty has no classifier attached")
    if max_branches < 1:
        raise ValidationError("max_branches must be at least 1")
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
    for j in range(1, max_len + 1):
        frontier: list[TokenSeq] = []
        for prefix in branches:
            tokens, iters, reps = position_tokens(
                penalty, session.logits_for(prefix), j, prefix, rho)
            iterations += iters
            repeats += reps
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
        truncated=overlong > 0 or dropped > 0,
        dead_ends=dead_ends,
        dropped_branches=dropped,
    )
