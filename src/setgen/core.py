"""Domain data model: labels, token sequences, set-valued samples, datasets.

Conventions used throughout the package:

* A label is a plain non-negative ``int`` strictly below the dataset's
  declared universe size.
* A token sequence (``TokenSeq``) is a tuple of ints.  Complete sequences
  carry the end-of-sequence token exactly once, as their final element.
  The end-of-sequence token id is ``vocab_size - 1`` by convention; the
  digit-string helpers below encode that convention.
* Target sets are stored as sorted, duplicate-free tuples so iteration is
  deterministic while equality stays structural (set-like).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence, Union

TokenSeq = tuple[int, ...]
Input = Union[tuple[float, ...], tuple[int, ...], str]


class ValidationError(ValueError):
    """Malformed input, dataset, or configuration."""


class TrainingError(RuntimeError):
    """Training diverged or was handed degenerate data."""


def json_hash(doc: dict) -> str:
    """SHA-256 of a JSON document in canonical form (sorted keys, no whitespace)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def seq_from_str(s: str, vocab: int) -> TokenSeq:
    """Encode a digit string as a complete token sequence (end token appended)."""
    tokens = tuple(int(ch) for ch in s)
    if any(t >= vocab - 1 for t in tokens):
        raise ValidationError(f"token out of range for vocab {vocab}: {s!r}")
    return tokens + (vocab - 1,)


def seq_to_str(seq: Sequence[int]) -> str:
    """Render tokens as a digit string (callers strip the end token first)."""
    return "".join(str(t) for t in seq)


def strip_eos(seq: Sequence[int], vocab: int) -> TokenSeq:
    """Drop a trailing end-of-sequence token if present."""
    toks = tuple(seq)
    if toks and toks[-1] == vocab - 1:
        return toks[:-1]
    return toks


@dataclass(frozen=True)
class SetSample:
    """One input paired with its unordered, duplicate-free target set.

    ``y`` holds either labels (ints) or token sequences (tuples of ints),
    sorted for deterministic iteration.
    """

    x: Input
    y: tuple

    def __post_init__(self) -> None:
        kinds = {type(e) for e in self.y}
        if len(kinds) > 1:
            raise ValidationError(f"mixed element kinds in target set: {kinds}")
        object.__setattr__(self, "y", tuple(sorted(set(self.y))))

    @property
    def y_set(self) -> frozenset:
        return frozenset(self.y)


@dataclass(frozen=True)
class FlatPair:
    """One (input, single target element) record; the unit of base-model training."""

    x: Input
    y_elem: object
    group_id: int


@dataclass(frozen=True)
class Dataset:
    """A list of set-valued samples plus the declared output universe.

    ``kind`` is ``"labels"`` (targets are label sets over ``universe`` ids)
    or ``"sequences"`` (targets are sets of end-token-terminated sequences
    over a vocabulary of size ``universe``, content length < ``max_len``).
    """

    kind: str
    samples: tuple[SetSample, ...]
    universe: int
    max_len: int = 0
    input_dim: int = 0
    input_vocab: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("labels", "sequences"):
            raise ValidationError(f"unknown dataset kind {self.kind!r}")
        if self.universe <= 0:
            raise ValidationError("universe size must be positive")
        for i, s in enumerate(self.samples):
            if self.kind == "labels":
                if len(s.x) != self.input_dim:
                    raise ValidationError(
                        f"sample {i}: input width {len(s.x)} differs from input_dim "
                        f"{self.input_dim}"
                    )
                for lab in s.y:
                    if not isinstance(lab, int) or not 0 <= lab < self.universe:
                        raise ValidationError(
                            f"sample {i}: label {lab!r} outside universe {self.universe}"
                        )
            else:
                for seq in s.y:
                    if not isinstance(seq, tuple):
                        raise ValidationError(f"sample {i}: target {seq!r} is not a tuple")
                    if len(seq) > self.max_len:
                        raise ValidationError(
                            f"sample {i}: target length {len(seq)} exceeds max_len {self.max_len}"
                        )
                    eos = self.universe - 1
                    if seq.count(eos) != 1 or seq[-1] != eos:
                        raise ValidationError(
                            f"sample {i}: target must end (only) with the end token"
                        )
                    if any(not 0 <= t < self.universe for t in seq):
                        raise ValidationError(f"sample {i}: token outside vocabulary")

    @property
    def eos(self) -> int:
        return self.universe - 1

    def __len__(self) -> int:
        return len(self.samples)


def flatten(dataset: Dataset) -> list[FlatPair]:
    """Split every target set into one (input, element) pair per element.

    Pairs within a group follow the sample's sorted element order, so the
    result is deterministic.  Raises on an empty target set when the dataset
    kind forbids it (label tasks; sequence tasks may have empty targets).
    """
    if not dataset.samples:
        raise ValidationError("cannot flatten an empty dataset")
    pairs: list[FlatPair] = []
    for gid, sample in enumerate(dataset.samples):
        if not sample.y and dataset.kind == "labels":
            raise ValidationError(f"sample {gid} has an empty target set")
        for elem in sample.y:
            pairs.append(FlatPair(x=sample.x, y_elem=elem, group_id=gid))
    return pairs


# --- dataset file format -----------------------------------------------------
#
# One JSON object per line.  Header line first:
#   {"kind": "labels"|"sequences", "universe": int, "max_len": int}
# plus "input_vocab": int for sequences (absent in older files: read as 10).
# then one line per sample:
#   labels:     {"x": [f64, ...], "y": [int, ...]}
#   sequences:  {"x": "digitstring", "y": ["tokenstring", ...]}
# Sequence target strings omit the end marker; it is re-appended on load.


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset in the line-oriented JSON format (bit-exact, sorted keys)."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"kind": dataset.kind, "universe": dataset.universe, "max_len": dataset.max_len}
        if dataset.kind == "sequences":
            header["input_vocab"] = dataset.input_vocab
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in dataset.samples:
            if dataset.kind == "labels":
                row = {"x": list(s.x), "y": list(s.y)}
            else:
                row = {
                    "x": "".join(str(t) for t in s.x),
                    "y": sorted(seq_to_str(strip_eos(seq, dataset.universe)) for seq in s.y),
                }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_dataset(path: str) -> Dataset:
    """Read a dataset written by :func:`save_dataset`; refuses a malformed file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty dataset file")
    try:  # a JSON syntax error is a ValueError too
        header = dict(json.loads(lines[0]))
        kind = header.get("kind")
        universe = int(header.get("universe", 0))
        max_len = int(header.get("max_len", 0))
        input_vocab = int(header.get("input_vocab", 10)) if kind == "sequences" else 0
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{path}:1: malformed header ({type(exc).__name__}: {exc})") from exc
    samples = []
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            row = json.loads(ln)
            if kind == "labels":
                x = tuple(float(v) for v in row["x"])
                y = tuple(int(v) for v in row["y"])
            else:
                x = tuple(int(ch) for ch in row["x"])
                y = tuple(seq_from_str(s, universe) for s in row["y"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"{path}:{lineno}: malformed sample ({type(exc).__name__}: {exc})") from exc
        samples.append(SetSample(x=x, y=y))
    input_dim = len(samples[0].x) if kind == "labels" and samples else 0
    try:
        return Dataset(
            kind=kind,
            samples=tuple(samples),
            universe=universe,
            max_len=max_len,
            input_dim=input_dim,
            input_vocab=input_vocab,
        )
    except ValidationError as exc:  # a row that breaks the header's declarations
        raise ValidationError(f"{path}: {exc}") from exc
