"""Ground-truth generators and dataset builders for the synthetic benchmarks.

Three synthetic tasks plus a sparse-file ingestion path.  :func:`targets`
states each task's rule once, on the input tuple a sample stores:

* ``threshold``: input ``(v,)`` with v < 10; the targets are the labels y
  with v < y <= 10.  Emitted as a label dataset whose label ids are the
  integer values themselves (universe 11, id 0 unused).
* ``task1``: input digits whose leading digit m counts the leading digits
  that form the target set (duplicates collapse).  Emitted as a sequence
  dataset with one-digit targets so the encoder-decoder pipeline applies;
  the sigmoid baseline uses the label view via ``task1_label_view``.
* ``task2``: input of 20 digits; the first ten form five (start, end) index
  pairs into the last ten, and the targets are the distinct non-empty slices
  those pairs select.
* ``load_multilabel``: "labels-comma-separated, space, sparse index:value
  pairs" text files, one sample per line.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, SetSample, ValidationError

SYNTHETIC_TASKS = ("threshold", "task1", "task2")
DIGIT_VOCAB = 11  # digits 0-9 plus the end token (id 10)
TASK1_MAX_INPUT_LEN = 10  # longest task1 input; the label view featurizes to this width


def targets(task: str, x: tuple) -> tuple:
    """The sorted targets a synthetic task's rule gives ``x``, both as a sample stores them.

    * threshold: ``x = (v,)``; the labels y with v < y <= 10 (none, with a
      warning, for v >= 10).
    * task1: digits whose leading one, m >= 1, counts the leading digits
      that form the set; each distinct digit d gives the target ``(d, end)``.
    * task2: exactly 20 digits; the pairs (x[0], x[1]) ... (x[8], x[9])
      select slices a[s:e] of a = x[10:], and each distinct non-empty slice
      is a target, closed by the end token.
    """
    if task == "threshold":
        if len(x) != 1:
            raise ValidationError(f"threshold input must be one number, got {x!r}")
        if x[0] >= 10:
            warnings.warn(f"threshold input {x[0]} >= 10 yields an empty target set")
        return tuple(y for y in range(1, 11) if y > x[0])
    if not all(isinstance(t, int) and 0 <= t <= 9 for t in x):
        raise ValidationError(f"{task} input must hold digits 0-9, got {x!r}")
    end = (DIGIT_VOCAB - 1,)
    if task == "task1":
        m = x[0] if x else 0
        if not 1 <= m <= len(x):
            raise ValidationError(f"task1 input needs a leading digit m >= 1 and at least "
                                  f"m digits, got {x!r}")
        return tuple((d,) + end for d in sorted(set(x[:m])))
    if len(x) != 20:
        raise ValidationError(f"task2 input must be exactly 20 digits, got {x!r}")
    a = x[10:]
    return tuple(sorted({a[s:e] + end for s, e in zip(x[0:10:2], x[1:10:2]) if s < e}))


@dataclass(frozen=True)
class TaskSpec:
    """What to generate: task tag, sample count, seed."""

    task: str  # one of SYNTHETIC_TASKS
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValidationError("sample count must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.task not in SYNTHETIC_TASKS:
            raise ValidationError(f"unknown task {self.task!r}")


def _draw_input(task: str, rng: np.random.Generator) -> tuple:
    """One input of ``task``, uniform per task, as a sample stores it."""
    if task == "threshold":
        return (float(rng.uniform(0.0, 10.0)),)
    if task == "task1":
        m = int(rng.integers(1, 10))
        # Length is drawn from 2..10 conditionally on m so |x| >= m always
        # holds while the leading digit stays uniform on 1..9.
        length = int(rng.integers(max(2, m), TASK1_MAX_INPUT_LEN + 1))
        return (m, *map(int, rng.integers(0, 10, size=length - 1)))
    return tuple(map(int, rng.integers(0, 10, size=20)))


def generate(spec: TaskSpec) -> Dataset:
    """Draw ``spec.n`` samples with inputs uniform per task and exact targets.

    Deterministic under the spec's seed.  Every emitted sample's targets come
    from :func:`targets` (the generator self-check in the test suite
    re-derives them independently).
    """
    rng = np.random.default_rng(spec.seed)
    inputs = [_draw_input(spec.task, rng) for _ in range(spec.n)]
    samples = tuple(SetSample(x=x, y=targets(spec.task, x)) for x in inputs)
    if spec.task == "threshold":
        return Dataset(kind="labels", samples=samples, universe=11, input_dim=1)
    # A task1 target is one digit and a task2 target at most 9, plus the end token.
    return Dataset(kind="sequences", samples=samples, universe=DIGIT_VOCAB,
                   max_len=2 if spec.task == "task1" else 10, input_vocab=10)


def split_train_test(dataset: Dataset, train_frac: float = 0.7, seed: int = 0
                     ) -> tuple[Dataset, Dataset]:
    """Seed-deterministic disjoint split covering all samples; each side holds one or more."""
    if not 0.0 < train_frac < 1.0:
        raise ValidationError("train fraction must lie in (0, 1)")
    if len(dataset.samples) < 2:
        raise ValidationError(f"a train/test split needs at least 2 samples, "
                              f"the dataset holds {len(dataset.samples)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset.samples))
    cut = int(round(train_frac * len(order)))
    cut = min(max(cut, 1), len(order) - 1)
    return tuple(replace(dataset, samples=tuple(dataset.samples[i] for i in part))
                 for part in (order[:cut], order[cut:]))


def featurize_digits(x: tuple[int, ...], max_len: int) -> tuple[float, ...]:
    """One-hot encode a digit-token input, zero-padded to ``max_len`` positions."""
    if len(x) > max_len:
        raise ValidationError(f"input length {len(x)} exceeds featurizer max_len {max_len}")
    vec = np.zeros(max_len * 10)
    for i, d in enumerate(x):
        vec[i * 10 + d] = 1.0
    return tuple(vec.tolist())


def task1_label_view(dataset: Dataset) -> Dataset:
    """Reshape a task1 sequence dataset into a label dataset for the baseline.

    Single-digit sequence targets become digit labels (universe 10); digit
    inputs are one-hot featurized to a fixed-size vector.
    """
    samples = []
    for s in dataset.samples:
        labels = tuple(sorted(seq[0] for seq in s.y))
        samples.append(SetSample(x=featurize_digits(s.x, TASK1_MAX_INPUT_LEN), y=labels))
    return Dataset(
        kind="labels",
        samples=tuple(samples),
        universe=10,
        input_dim=TASK1_MAX_INPUT_LEN * 10,
    )


def _index(tok: str) -> int:
    """A label id or feature index: ASCII digits only (``int`` reads other scripts',
    a sign and ``_`` too)."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(tok)
    return int(tok)


def load_multilabel(path: str, n_features: int | None = None,
                    universe: int | None = None) -> Dataset:
    """Parse the sparse multi-label text format.

    Each line is ``l1,l2,... i1:v1 i2:v2 ...`` — comma-separated label ids,
    a space, then sparse feature index:value pairs.  Ids and indices are
    ASCII digit strings, and values ASCII numbers without ``_``.  Feature
    count and label universe default to (max index + 1) over the file;
    given, each must be at least 1.
    """
    if any(size is not None and size < 1 for size in (n_features, universe)):
        raise ValidationError("feature count and label universe must be at least 1")
    rows: list[tuple[int, tuple[int, ...], dict[int, float]]] = []
    max_feat = -1
    max_label = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            head, _, tail = line.partition(" ")
            if not head or any(not tok for tok in head.split(",")):
                raise ValidationError(f"{path}:{lineno}: empty label field")
            try:
                labels = tuple(sorted({_index(tok) for tok in head.split(",")}))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad label field {head!r}") from exc
            feats: dict[int, float] = {}
            for tok in tail.split():
                idx, _, val = tok.partition(":")
                try:
                    if not val.isascii() or "_" in val:  # float reads both
                        raise ValueError(val)
                    i, v = _index(idx), float(val)
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: bad feature {tok!r}") from exc
                if not np.isfinite(v):
                    raise ValidationError(f"{path}:{lineno}: non-finite feature {tok!r}")
                if i in feats:
                    raise ValidationError(f"{path}:{lineno}: repeated feature index {i}")
                feats[i] = v
            max_feat = max(max_feat, max(feats, default=-1))
            max_label = max(max_label, max(labels))
            rows.append((lineno, labels, feats))
    if not rows:
        raise ValidationError(f"{path}: no samples")
    d = n_features if n_features is not None else max_feat + 1
    n_labels = universe if universe is not None else max_label + 1
    spec = Dataset(kind="labels", samples=(), universe=n_labels, input_dim=d)
    samples = []
    for lineno, labels, feats in rows:
        try:
            if max(feats, default=-1) >= d:
                raise ValidationError(f"feature index {max(feats)} exceeds dimension {d}")
            vec = np.zeros(d)
            vec[list(feats)] = list(feats.values())
            samples.append(SetSample(x=tuple(vec.tolist()), y=labels))
            spec.check_sample(samples[-1])  # a label outside a given universe
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return replace(spec, samples=tuple(samples))
