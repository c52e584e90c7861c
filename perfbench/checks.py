"""Output checks computed apart from the library's own code paths.

Every check re-derives the expected result from a definition: the task's
target rule, the penalty's constraint interval, the closed form of
penalized repeated argmax at ``rho = 0``, or a depth-first search over
teacher-forced prefixes.  None compares against a stored copy of earlier
output.  A result whose score lies within ``TIE_EPS`` of a decision cut is
reported as unchecked: there the float order of two equal-looking values
decides, and the closed form cannot say which way.
"""

from __future__ import annotations

import math

import numpy as np

TIE_EPS = 1e-9
GRID_CHUNK = 64  # grid points per block of the chunked hinge scan
EOS = 10  # end token of the digit vocabulary (ids 0-9 are digits)


# --- generated targets ----------------------------------------------------------


def threshold_targets(x: float) -> tuple[int, ...]:
    """Integers y with x < y <= 10, in increasing order."""
    return tuple(y for y in range(math.floor(x) + 1, 11) if y > x)


def task2_targets(digits) -> set[tuple[int, ...]]:
    """Substrings a[s:e] of the last ten digits for the five leading index pairs.

    Each target is a token tuple closed by the end token, as the library
    stores complete sequences.
    """
    digits = [int(d) for d in digits]
    a = digits[10:]
    out = set()
    for i in range(5):
        s, e = digits[2 * i], digits[2 * i + 1]
        if s < e:
            out.add(tuple(a[s:e]) + (EOS,))
    return out


def check_targets(task: str, samples) -> list[str]:
    """Messages for every sample whose stored target differs from the rule."""
    bad = []
    for i, s in enumerate(samples):
        if task == "threshold":
            ok = tuple(sorted(s.y)) == threshold_targets(s.x[0])
        else:
            ok = set(s.y) == task2_targets(s.x) and len(set(s.y)) == len(s.y)
        if not ok:
            bad.append(f"sample {i}: target {s.y!r} breaks the {task} rule")
    return bad


def check_losses(name: str, losses) -> list[str]:
    """A fit must report finite per-epoch losses that end below where they began."""
    losses = [float(v) for v in losses]
    if not losses:
        return [f"{name}: no epoch losses"]
    if not all(math.isfinite(v) for v in losses):
        return [f"{name}: non-finite epoch loss"]
    if not losses[-1] < losses[0]:
        return [f"{name}: last epoch loss {losses[-1]:.6g} not below first {losses[0]:.6g}"]
    return []


# --- scalar penalty ---------------------------------------------------------------


def record_arrays(records):
    """(diffs, lower bounds, upper bounds) of the margin records, one entry each."""
    p = np.array([r.p for r in records])
    pos = np.array([r.l_pos_min for r in records])
    neg = np.array([r.l_neg_max for r in records])
    return p - (pos + neg) / 2.0, p - pos, p - neg


def hinge_objective(lam, diffs, los, his, weight: float, chunk: int = GRID_CHUNK):
    """Quadratic gap loss plus weighted bound violations at each grid value.

    Evaluated ``chunk`` grid points at a time so memory stays at
    ``chunk x records`` floats whatever the grid size.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.empty(lam.shape[0])
    for start in range(0, lam.shape[0], chunk):
        g = lam[start:start + chunk, None]
        quad = np.sum((diffs[None, :] - g) ** 2, axis=1)
        viol = np.sum(np.maximum(0.0, los[None, :] - g), axis=1)
        viol += np.sum(np.maximum(0.0, g - his[None, :]), axis=1)
        out[start:start + chunk] = quad + weight * viol
    return out


def grid_minimum(diffs, los, his, weight: float) -> tuple[float, float]:
    """(argmin, min) of the hinge objective over a two-level grid on [-1, 1].

    Gaps are differences of probabilities, so the minimizer lies in [-1, 1];
    the objective is convex, so the fine pass around the coarse winner
    brackets it.  The fine step (1e-5) is coarser than any solver that
    claims to reach the optimum should need.
    """
    coarse = np.linspace(-1.0, 1.0, 2001)
    vals = hinge_objective(coarse, diffs, los, his, weight)
    center = coarse[int(np.argmin(vals))]
    fine = np.linspace(center - 1e-3, center + 1e-3, 201)
    fvals = hinge_objective(fine, diffs, los, his, weight)
    k = int(np.argmin(fvals))
    return float(fine[k]), float(fvals[k])


def check_scalar_solution(records, sol, weight: float) -> list[str]:
    """Interval ends from the records; the value by clip or by the grid bound."""
    diffs, los, his = record_arrays(records)
    lo, hi = float(np.max(los)), float(np.min(his))
    bad = []
    if not (math.isclose(sol.interval.lo, lo, abs_tol=1e-12)
            and math.isclose(sol.interval.hi, hi, abs_tol=1e-12)):
        bad.append(f"interval ({sol.interval.lo}, {sol.interval.hi}) != ({lo}, {hi})")
    if lo <= hi:
        want = min(max(float(np.mean(diffs)), lo), hi)
        if not math.isclose(sol.value, want, abs_tol=1e-12):
            bad.append(f"feasible value {sol.value} != clip(mean, lo, hi) = {want}")
        if not sol.feasible:
            bad.append("feasible interval but the solution is flagged infeasible")
    else:
        got = float(hinge_objective(sol.value, diffs, los, his, weight)[0])
        _, best = grid_minimum(diffs, los, his, weight)
        if got > best + 1e-9 * max(1.0, abs(best)):
            bad.append(f"infeasible value {sol.value}: objective {got} above grid best {best}")
        if sol.feasible:
            bad.append("empty interval but the solution is flagged feasible")
    return bad


# --- label sets -----------------------------------------------------------------


def label_set_closed_form(probs, lam: float):
    """Label set of penalized repeated argmax at rho 0, and whether it is decidable.

    The first pick is the argmax; every later pick must beat the first
    pick's penalized score ``max p - lam``, so the set is the argmax plus
    every label strictly above that cut.  Another label within ``TIE_EPS``
    of the cut or of the maximum leaves the outcome to index order: such
    inputs are reported as undecidable.
    """
    probs = np.asarray(probs, dtype=float)
    top = int(np.argmax(probs))
    cut = probs[top] - lam
    labels = {top} | {int(k) for k in np.flatnonzero(probs > cut)}
    others = np.delete(probs, top)
    decidable = not (np.any(np.abs(others - cut) < TIE_EPS)
                     or np.any(np.abs(others - probs[top]) < TIE_EPS))
    return frozenset(labels), decidable


# --- sequence sets --------------------------------------------------------------


def search_sequence_set(model, x, tokens_at, max_len: int, max_branches: int = 1024):
    """Complete sequences reachable from the empty prefix, by depth-first search.

    ``tokens_at(x, prefix, position)`` returns (token set, decidable) for
    the node.  The end token completes a sequence; other tokens extend the
    prefix while it is shorter than ``max_len``; a non-end token at the last
    position is discarded.  A decoder that keeps at most ``max_branches``
    prefixes per position and drops none visits at most ``max_branches``
    nodes per position, so a search that needs more stops and reports the
    sample undecidable.  Returns (sequences, decidable, nodes).
    """
    eos = model.eos
    budget = max_branches * max_len + 1
    found = set()
    decidable = True
    nodes = 0
    stack = [()]
    while stack:
        if nodes == budget:
            return frozenset(found), False, nodes
        prefix = stack.pop()
        j = len(prefix) + 1
        tokens, ok = tokens_at(x, prefix, j)
        nodes += 1
        decidable = decidable and ok
        for tok in tokens:
            if tok == eos:
                found.add(prefix + (eos,))
            elif j < max_len:
                stack.append(prefix + (int(tok),))
    return frozenset(found), decidable, nodes


def per_position_tokens(model, penalty):
    """Node rule for a per-position penalty: the closed form on step_posterior."""
    def tokens_at(x, prefix, j):
        probs = model.step_posterior(x, prefix)
        return label_set_closed_form(probs, penalty.position_value(j))
    return tokens_at


def gate_tokens(model, gate):
    """Node rule for a learned gate on teacher-forced step logits.

    The rule is ``classify``'s, tokens whose emit probability clears the
    threshold, evaluated from the gate's ``scores`` so that the same
    probabilities also tell whether any token sits on the cut.
    """
    def tokens_at(x, prefix, j):
        scores = gate.scores(model.step_logits(x, prefix), j)
        tokens = frozenset(int(k) for k in np.flatnonzero(scores >= gate.threshold))
        return tokens, not np.any(np.abs(scores - gate.threshold) < TIE_EPS)
    return tokens_at
