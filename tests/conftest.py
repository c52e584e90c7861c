import numpy as np
import pytest

from setgen.core import Dataset, SetSample, TokenSeq, ValidationError


def position_candidates(targets, prefix: TokenSeq, vocab: int
                        ) -> tuple[frozenset[int], frozenset[int]]:
    """Positive and negative token sets at the position following ``prefix``.

    A token is positive when appending it to the prefix still matches some
    target; because complete targets end in the end-of-sequence token, a
    prefix that spells out a full target gets the end token as a positive.
    """
    targets = list(targets)
    if not targets:
        raise ValidationError("position_candidates requires a non-empty target set")
    k = len(prefix)
    positives = set()
    matched = False
    for t in targets:
        if len(t) > k and tuple(t[:k]) == tuple(prefix):
            matched = True
            positives.add(int(t[k]))
    if not matched:
        raise ValidationError(f"prefix {prefix!r} matches no target")
    negatives = frozenset(range(vocab)) - positives
    return frozenset(positives), negatives


class OracleLabelPosterior:
    """Posterior uniform over each input's true set, zero elsewhere.

    Inputs are matched exactly; intended for separable end-to-end checks.
    """

    def __init__(self, truth_by_x: dict, universe: int):
        self.truth_by_x = truth_by_x
        self.universe = universe

    def posterior(self, x):
        probs = np.zeros(self.universe)
        members = sorted(self.truth_by_x[x])
        for m in members:
            probs[m] = 1.0 / len(members)
        return probs

    def scores(self, X):
        """Log-posterior rows, whose softmax is the posterior exactly."""
        with np.errstate(divide="ignore"):
            return np.log([self.posterior(tuple(x)) for x in np.atleast_2d(X).tolist()])


class PositiveTokenOracle:
    """Ground-truth gate for one sample: wraps prefix continuation directly.

    Scores are ignored; classification needs the branch prefix.  Used to
    establish that the sequence decoder is exact whenever the gate is.
    """

    def __init__(self, targets, vocab: int):
        self.targets = tuple(sorted(targets))
        self.vocab = int(vocab)

    def classify(self, logits, position, prefix=None):
        try:
            positives, _ = position_candidates(self.targets, tuple(prefix or ()), self.vocab)
        except ValidationError:
            return frozenset()
        return positives


class PrefixStepper:
    """``encode``/``decode_step`` adapter over a sequence dataset's targets.

    The decoder state is ``(x, prefix)``; each step scores the next token
    with ``logits(positives)``, the positive continuations of the prefix
    among the sample's targets.  Subclasses supply the rule.
    """

    def __init__(self, dataset):
        self.by_x = {s.x: s.y for s in dataset.samples}
        self.vocab = dataset.universe
        self.eos = self.vocab - 1
        self.start = self.vocab
        self.max_len = dataset.max_len

    def encode(self, x):
        return (tuple(x), ()), None

    def decode_step(self, h, c, token):
        x, prefix = h
        if token != self.start:
            prefix = prefix + (int(token),)
        positives, _ = position_candidates(self.by_x[x], prefix, self.vocab)
        return self.logits(positives), (x, prefix), c


def greedy_decode(model, x):
    """Argmax decoding until the end token or max_len."""
    h, c = model.encode(x)
    logits, h, c = model.decode_step(h, c, model.start)
    out: list[int] = []
    for _ in range(model.max_len):
        tok = int(np.argmax(logits))
        out.append(tok)
        if tok == model.eos:
            break
        logits, h, c = model.decode_step(h, c, tok)
    return tuple(out)


@pytest.fixture
def tiny_label_dataset():
    samples = (
        SetSample(x=(0.0, 1.0), y=(0, 2)),
        SetSample(x=(1.0, 0.0), y=(1,)),
        SetSample(x=(0.5, 0.5), y=(0, 1, 2)),
    )
    return Dataset(kind="labels", samples=samples, universe=3, input_dim=2)
