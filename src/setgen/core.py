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
import math
from dataclasses import dataclass, replace
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


def _digits(s) -> TokenSeq:
    """The tokens of a string of the ASCII digits 0-9; ``int`` reads other scripts' too."""
    if not isinstance(s, str) or not set(s) <= set("0123456789"):
        raise ValidationError(f"{s!r} is not a string of the digits 0-9")
    return tuple(map(int, s))


def _typed(value, types, what: str):
    """``value`` if it is a JSON value of ``types``; ``bool``, an ``int`` subclass, is not."""
    if isinstance(value, bool) or not isinstance(value, types):
        noun = "an integer" if types is int else "a number"
        raise ValidationError(f"{what} {value!r} is not {noun}")
    return value


def seq_from_str(s: str, vocab: int) -> TokenSeq:
    """Encode a digit string as a complete token sequence (end token appended)."""
    tokens = _digits(s)
    if any(t >= vocab - 1 for t in tokens):
        raise ValidationError(f"token out of range for vocab {vocab}: {s!r}")
    return tokens + (vocab - 1,)


def seq_to_str(seq: Sequence[int]) -> str:
    """Render tokens as a digit string (callers strip the end token first)."""
    return "".join(str(t) for t in seq)


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

    ``kind`` is ``"labels"`` (targets are label sets over ``universe`` ids,
    and no ``max_len``) or ``"sequences"`` (targets are sets of
    end-token-terminated sequences over a vocabulary of size ``universe``,
    content length < ``max_len``).
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
        if self.kind == "labels" and self.max_len:  # calibration reads 0 as one position
            raise ValidationError("a label dataset declares no max_len")
        for i, s in enumerate(self.samples):
            try:
                self.check_sample(s)
            except ValidationError as exc:
                raise ValidationError(f"sample {i}: {exc}") from None

    def check_sample(self, s: SetSample) -> None:
        """Refuse a sample that breaks this dataset's declarations."""
        if self.kind == "labels":
            if len(s.x) != self.input_dim:
                raise ValidationError(
                    f"input width {len(s.x)} differs from input_dim {self.input_dim}")
            for lab in s.y:
                if not isinstance(lab, int) or not 0 <= lab < self.universe:
                    raise ValidationError(f"label {lab!r} outside universe {self.universe}")
            return
        if s.x and not 0 <= min(s.x) <= max(s.x) < self.input_vocab:
            raise ValidationError(f"input token outside input_vocab {self.input_vocab}")
        for seq in s.y:
            if not isinstance(seq, tuple):
                raise ValidationError(f"target {seq!r} is not a tuple")
            if len(seq) > self.max_len:
                raise ValidationError(f"target length {len(seq)} exceeds max_len {self.max_len}")
            if seq.count(self.eos) != 1 or seq[-1] != self.eos:
                raise ValidationError("target must end (only) with the end token")
            if any(not 0 <= t < self.universe for t in seq):
                raise ValidationError("token outside vocabulary")

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
# Nothing is coerced: an int is a JSON integer, not a bool; digits are ASCII 0-9.


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
                    "y": sorted(seq_to_str(seq[:-1]) for seq in s.y),
                }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_dataset(path: str, check=None) -> Dataset:
    """Read a dataset written by :func:`save_dataset`; refuses a malformed file.

    ``check(spec, sample)``, if given, vets each sample too; ``spec`` is the header.
    A refusal names the file's own line (blank lines count, and are skipped).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty dataset file")
    (lineno, head), *rows = lines
    try:  # a JSON syntax error is a ValueError too
        header = dict(json.loads(head))
        kind = header.get("kind")
        size = lambda key, default=0: _typed(header.get(key, default), int, key)
        spec = Dataset(kind=kind, samples=(), universe=size("universe"), max_len=size("max_len"),
                       input_vocab=size("input_vocab", 10) if kind == "sequences" else 0)
    except ValidationError as exc:
        raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{path}:{lineno}: malformed header ({type(exc).__name__}: {exc})") from exc
    samples = []
    for lineno, ln in rows:
        try:
            row = json.loads(ln)
            if kind == "labels":
                x = tuple(float(_typed(v, (int, float), "input value")) for v in row["x"])
                y = tuple(_typed(v, int, "label") for v in row["y"])
                if not samples:  # the first row sets the input width
                    spec = replace(spec, input_dim=len(x))
            else:
                x, y = _digits(row["x"]), tuple(seq_from_str(s, spec.universe) for s in row["y"])
            if not all(map(math.isfinite, x)):  # json reads NaN and Infinity
                raise ValidationError("non-finite input value")
            samples.append(SetSample(x=x, y=y))
            spec.check_sample(samples[-1])
            if check is not None:
                check(spec, samples[-1])
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"{path}:{lineno}: malformed sample ({type(exc).__name__}: {exc})") from exc
    return replace(spec, samples=tuple(samples))
