"""Ground-truth generators and dataset builders for the synthetic benchmarks.

Three synthetic tasks plus a sparse-file ingestion path:

* ``threshold``: real input x < 10, target = every integer y with x < y <= 10.
  Emitted as a label dataset; label ids are the integer values themselves
  (universe 11, id 0 unused).
* ``task1``: input is a digit string whose leading digit m selects how many
  leading digits form the target set (duplicates collapse).  Emitted as a
  sequence dataset with single-digit targets so the encoder-decoder pipeline
  applies; the sigmoid baseline uses the label view via ``task1_label_view``.
* ``task2``: input is a 20-digit string; the first ten digits form five
  (start, end) index pairs into the last ten, and the target set holds the
  non-empty substrings those pairs select.
* ``load_multilabel``: "labels-comma-separated, space, sparse index:value
  pairs" text files, one sample per line.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, SetSample, ValidationError, seq_from_str

DIGIT_VOCAB = 11  # digits 0-9 plus the end token (id 10)
TASK1_MAX_INPUT_LEN = 10  # longest task1 input; the label view featurizes to this width


def threshold_truth(x: float) -> frozenset[int]:
    """Integers y with x < y <= 10."""
    if x >= 10:
        warnings.warn(f"threshold input {x} >= 10 yields an empty target set")
        return frozenset()
    return frozenset(y for y in range(1, 11) if y > x)


def task1_truth(x: str) -> frozenset[int]:
    """Distinct values among the first m digits of x, where m is the leading digit."""
    if not x or not x.isdigit():
        raise ValidationError(f"task1 input must be a non-empty digit string, got {x!r}")
    m = int(x[0])
    if m < 1:
        raise ValidationError(f"task1 leading digit must be >= 1, got {x!r}")
    if len(x) < m:
        raise ValidationError(f"task1 input {x!r} shorter than its leading digit {m}")
    return frozenset(int(ch) for ch in x[:m])


def task2_truth(x: str) -> frozenset[str]:
    """Distinct non-empty substrings a[s_i:e_i] selected by the five index pairs.

    The first ten digits of x are read as pairs (s_1,e_1)..(s_5,e_5); the last
    ten digits are the string a.  Pairs with s_i >= e_i select nothing.
    """
    if len(x) != 20 or not x.isdigit():
        raise ValidationError(f"task2 input must be exactly 20 digits, got {x!r}")
    a = x[10:]
    out = set()
    for i in range(5):
        s, e = int(x[2 * i]), int(x[2 * i + 1])
        if s < e:
            out.add(a[s:e])
    return frozenset(out)


@dataclass(frozen=True)
class TaskSpec:
    """What to generate: task tag, sample count, seed."""

    task: str  # "threshold" | "task1" | "task2"
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValidationError("sample count must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.task not in ("threshold", "task1", "task2"):
            raise ValidationError(f"unknown task {self.task!r}")


def generate(spec: TaskSpec) -> Dataset:
    """Draw ``spec.n`` samples with inputs uniform per task and exact targets.

    Deterministic under the spec's seed.  Every emitted sample satisfies its
    truth function by construction (the generator self-check in the test
    suite re-derives the targets independently).
    """
    rng = np.random.default_rng(spec.seed)
    samples: list[SetSample] = []
    if spec.task == "threshold":
        for _ in range(spec.n):
            x = float(rng.uniform(0.0, 10.0))
            samples.append(SetSample(x=(x,), y=tuple(sorted(threshold_truth(x)))))
        return Dataset(kind="labels", samples=tuple(samples), universe=11, input_dim=1)
    if spec.task == "task1":
        for _ in range(spec.n):
            m = int(rng.integers(1, 10))
            # Length is drawn from 2..10 conditionally on m so |x| >= m always
            # holds while the leading digit stays uniform on 1..9.
            length = int(rng.integers(max(2, m), TASK1_MAX_INPUT_LEN + 1))
            rest = rng.integers(0, 10, size=length - 1)
            x = str(m) + "".join(str(d) for d in rest)
            y = tuple(sorted(seq_from_str(str(d), DIGIT_VOCAB) for d in task1_truth(x)))
            samples.append(SetSample(x=tuple(int(ch) for ch in x), y=y))
        return Dataset(
            kind="sequences",
            samples=tuple(samples),
            universe=DIGIT_VOCAB,
            max_len=2,
            input_vocab=10,
        )
    # task2
    for _ in range(spec.n):
        digits = rng.integers(0, 10, size=20)
        x = "".join(str(d) for d in digits)
        y = tuple(sorted(seq_from_str(s, DIGIT_VOCAB) for s in task2_truth(x)))
        samples.append(SetSample(x=tuple(int(ch) for ch in x), y=y))
    return Dataset(
        kind="sequences",
        samples=tuple(samples),
        universe=DIGIT_VOCAB,
        max_len=10,  # longest substring is 9 digits, plus the end token
        input_vocab=10,
    )


def split_train_test(dataset: Dataset, train_frac: float = 0.7, seed: int = 0
                     ) -> tuple[Dataset, Dataset]:
    """Seed-deterministic disjoint split covering all samples."""
    if not 0.0 < train_frac < 1.0:
        raise ValidationError("train fraction must lie in (0, 1)")
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


def load_multilabel(path: str, n_features: int | None = None,
                    universe: int | None = None) -> Dataset:
    """Parse the sparse multi-label text format.

    Each line is ``l1,l2,... i1:v1 i2:v2 ...`` — comma-separated label ids,
    a space, then sparse feature index:value pairs.  Feature count and label
    universe default to (max index + 1) over the file; given, each must be
    at least 1.
    """
    if any(size is not None and size < 1 for size in (n_features, universe)):
        raise ValidationError("feature count and label universe must be at least 1")
    rows: list[tuple[tuple[int, ...], dict[int, float]]] = []
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
                labels = tuple(sorted({int(tok) for tok in head.split(",")}))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad label field {head!r}") from exc
            feats: dict[int, float] = {}
            for tok in tail.split():
                idx, _, val = tok.partition(":")
                try:
                    feats[int(idx)] = float(val)
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: bad feature {tok!r}") from exc
            if any(l < 0 for l in labels) or any(i < 0 for i in feats):
                raise ValidationError(f"{path}:{lineno}: negative index")
            max_feat = max(max_feat, max(feats, default=-1))
            max_label = max(max_label, max(labels))
            rows.append((labels, feats))
    if not rows:
        raise ValidationError(f"{path}: no samples")
    d = n_features if n_features is not None else max_feat + 1
    n_labels = universe if universe is not None else max_label + 1
    samples = []
    for labels, feats in rows:
        vec = np.zeros(d)
        for i, v in feats.items():
            if i >= d:
                raise ValidationError(f"{path}: feature index {i} exceeds dimension {d}")
            vec[i] = v
        samples.append(SetSample(x=tuple(vec.tolist()), y=labels))
    return Dataset(kind="labels", samples=tuple(samples), universe=n_labels, input_dim=d)
