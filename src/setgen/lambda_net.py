"""Learned replacement for the per-position penalty: a binary gate over base-model logits.

At each decode position the base model scores every vocabulary token; the
gate labels each token emit (positive) or suppress (negative).  Two variants:

* ``recurrent`` — an encoder-decoder pass over the logit values in token-id
  order with a per-token sigmoid head, so every decision sees the whole
  score vector.
* ``windowed`` — per token, a short window of the *rank-ordered* scores
  centered on that token's rank feeds one 1-D convolution, global max
  pooling, and two dense layers into a sigmoid.

Inputs are pre-softmax scores: they carry the same ordering information as
losses or probabilities but stay well scaled for the gate networks.

Training examples are calibration's node table, :func:`setgen.penalty.position_nodes`,
in which a label set is the one-position case.

Positive tokens are rare, so training up-weights them by ``pos_weight =
#neg/#pos``.  That weighting shifts the raw score's prior by
``log(pos_weight)``; the gate stores the weight and subtracts the shift at
inference, so the decision threshold applies to the prior-corrected emit
probability rather than to the class-weighted one.
"""

from __future__ import annotations

import logging

import numpy as np

from . import nn
from .core import Dataset, TokenSeq, TrainingError, ValidationError
from .models import TrainConfig, _run_epochs
from .penalty import position_nodes

log = logging.getLogger(__name__)

N_SCALAR_FEATURES = 4  # centered score, rank, position id, token id (normalized)


class GateExamples:
    """Base-model scores at N decode positions with per-token emit labels."""

    def __init__(self, logits, positions, targets):
        self.logits = np.asarray(logits, dtype=float)  # (N, V) scores
        self.positions = np.asarray(positions, dtype=int)  # (N,) 1-based output positions
        self.targets = np.asarray(targets, dtype=float)  # (N, V) 0/1 per token
        if self.logits.ndim != 2 or self.targets.shape != self.logits.shape:
            raise ValidationError("one target per token required")
        if self.positions.shape != self.logits.shape[:1]:
            raise ValidationError("one position per example required")
        if np.any(self.positions < 1):
            raise ValidationError("positions are 1-based")
        if not np.all((self.targets == 0.0) | (self.targets == 1.0)):
            raise ValidationError("targets must be 0 or 1")

    def __len__(self) -> int:
        return len(self.positions)


def _features(logits: np.ndarray, positions: np.ndarray, max_len: int,
              radius: int | None = None) -> tuple[np.ndarray, ...]:
    """A gate's forward inputs for N score rows (N, V), one row per token.

    Without a radius: the recurrent gate's (N, V, 3) rows of centered score,
    position id and token id.  With one: the windowed gate's rank windows
    (N, V, 2r+1), the rank-ordered scores around each token's rank with the
    ends repeated, and its (N, V, 4) scalar rows of centered score, rank,
    position id and token id.  Ranks order scores descending, ties by token id.
    """
    n, v = logits.shape
    ids = np.arange(v)
    centered = logits - logits.max(axis=1, keepdims=True)
    if radius is None:
        feats = np.empty((n, v, 3))
        feats[..., 0] = centered
        feats[..., 1] = positions[:, None]
        feats[..., 2] = ids
        feats /= (1.0, max_len, v)
        return (feats,)
    # Array methods rather than np.* functions: this runs once per decoder
    # branch, where the functions' dispatch overhead is a measurable share.
    order = (-centered).argsort(axis=1, kind="stable")
    rank_of = order.argsort(axis=1)  # inverse permutation
    rows = np.arange(n)[:, None]
    # Window j of rank r reads rank r + j - radius, clipped into the row.
    offsets = ids[:, None] + np.arange(-radius, radius + 1)
    windows = centered[rows, order].take(offsets, axis=1, mode="clip")[rows, rank_of]
    scalars = np.empty((n, v, N_SCALAR_FEATURES))
    scalars[..., 0] = centered
    scalars[..., 1] = rank_of
    scalars[..., 2] = positions[:, None]
    scalars[..., 3] = ids
    scalars /= (1.0, v, max_len, v)
    return windows, scalars


class LambdaNet:
    """Binary emit/suppress classifier over one position's token scores."""

    def __init__(self, variant: str, vocab: int, max_len: int, *,
                 hidden: int = 24, filters: int = 8, kernel: int = 3,
                 dense: int = 16, radius: int = 2,
                 threshold: float = 0.5, pos_weight: float = 1.0, seed: int = 0):
        if variant not in ("recurrent", "windowed"):
            raise ValidationError(f"unknown gate variant {variant!r}")
        if not 0.0 < threshold < 1.0:
            raise ValidationError("decision threshold must lie in (0, 1)")
        if not pos_weight > 0.0:
            raise ValidationError("positive-class weight must be positive")
        self.variant = variant
        self.vocab = int(vocab)
        self.max_len = int(max_len)
        self.hidden = int(hidden)
        self.filters = int(filters)
        self.kernel = int(kernel)
        self.dense = int(dense)
        self.radius = int(radius)
        self.threshold = float(threshold)
        self.pos_weight = float(pos_weight)  # training-loss weight of positive tokens
        rng = np.random.default_rng(seed)
        if variant == "recurrent":
            H = self.hidden
            self.params = {
                "enc_Wx": nn.init_uniform(rng, (3, 4 * H), 3),
                "enc_Wh": nn.init_uniform(rng, (H, 4 * H), H),
                "enc_b": np.zeros(4 * H),
                "dec_Wx": nn.init_uniform(rng, (3, 4 * H), 3),
                "dec_Wh": nn.init_uniform(rng, (H, 4 * H), H),
                "dec_b": np.zeros(4 * H),
                "out_W": nn.init_uniform(rng, (H, 1), H),
                "out_b": np.zeros(1),
            }
        else:
            width = 2 * self.radius + 1
            if self.kernel > width:
                raise ValidationError("kernel cannot exceed the window width")
            F, D = self.filters, self.dense
            self.params = {
                "conv_W": nn.init_uniform(rng, (F, self.kernel), self.kernel),
                "conv_b": np.zeros(F),
                "W1": nn.init_uniform(rng, (F + N_SCALAR_FEATURES, D), F + N_SCALAR_FEATURES),
                "b1": np.zeros(D),
                "W2": nn.init_uniform(rng, (D, 1), D),
                "b2": np.zeros(1),
            }
        self.train_losses: list[float] = []

    @property
    def family(self) -> str:
        return f"lambda-{self.variant}"

    # -- forward ------------------------------------------------------------

    def _forward_recurrent(self, feats: np.ndarray):
        """feats (B, V, 3) -> raw scores (B, V) plus caches.

        The encoder and then the decoder read the token rows in id order.
        """
        B, V, _ = feats.shape
        p = self.params
        x = feats.transpose(1, 0, 2)  # time-major
        zeros = np.zeros((B, self.hidden))
        h, c, _, enc_cache = nn.lstm_forward(x, zeros, zeros, p["enc_Wx"], p["enc_Wh"],
                                             p["enc_b"])
        _, _, hs, dec_cache = nn.lstm_forward(x, h, c, p["dec_Wx"], p["dec_Wh"], p["dec_b"])
        h_out = hs[1:].reshape(V * B, -1)
        scores = (h_out @ p["out_W"] + p["out_b"]).reshape(V, B).T
        return scores, (enc_cache, dec_cache, h_out)

    def _backward_recurrent(self, dscores: np.ndarray, caches):
        enc_cache, dec_cache, h_out = caches
        B, V = dscores.shape
        d = dscores.T.reshape(V * B, 1)
        grads = {"out_W": h_out.T @ d, "out_b": np.sum(d, axis=0)}
        dhs = (d @ self.params["out_W"].T).reshape(V, B, -1)
        zeros = np.zeros((B, self.hidden))
        _, grads["dec_Wx"], grads["dec_Wh"], grads["dec_b"], dh, dc = nn.lstm_backward(
            zeros, zeros, dhs, dec_cache)
        _, grads["enc_Wx"], grads["enc_Wh"], grads["enc_b"], _, _ = nn.lstm_backward(
            dh, dc, None, enc_cache)
        return grads

    def _forward_windowed(self, windows: np.ndarray, scalars: np.ndarray):
        """windows (B, V, 2r+1), scalars (B, V, 4) -> raw scores (B, V) plus caches.

        Every token row goes through the layers on its own, so the batch is
        flattened to B*V rows.
        """
        B, V, width = windows.shape
        conv, conv_cache = nn.conv1d_forward(windows.reshape(B * V, width),
                                             self.params["conv_W"], self.params["conv_b"])
        act, act_cache = nn.tanh_forward(conv)
        pooled, pool_cache = nn.maxpool_forward(act)
        joined = np.concatenate([pooled, scalars.reshape(B * V, -1)], axis=1)
        z1, d1_cache = nn.dense_forward(joined, self.params["W1"], self.params["b1"])
        h1, t1_cache = nn.tanh_forward(z1)
        z2, d2_cache = nn.dense_forward(h1, self.params["W2"], self.params["b2"])
        caches = (conv_cache, act_cache, pool_cache, d1_cache, t1_cache, d2_cache)
        return z2.reshape(B, V), caches

    def _backward_windowed(self, dscores: np.ndarray, caches):
        conv_cache, act_cache, pool_cache, d1_cache, t1_cache, d2_cache = caches
        grads = {}
        d = dscores.reshape(-1, 1)
        d, grads["W2"], grads["b2"] = nn.dense_backward(d, d2_cache)
        d = nn.tanh_backward(d, t1_cache)
        d, grads["W1"], grads["b1"] = nn.dense_backward(d, d1_cache)
        dpooled = d[:, :self.filters]
        d = nn.maxpool_backward(dpooled, pool_cache)
        d = nn.tanh_backward(d, act_cache)
        _, grads["conv_W"], grads["conv_b"] = nn.conv1d_backward(d, conv_cache)
        return grads

    def _inputs(self, logits: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, ...]:
        """This variant's forward inputs for N score rows (N, V)."""
        radius = None if self.variant == "recurrent" else self.radius
        return _features(logits, positions, self.max_len, radius)

    def _forward(self, *inputs):
        if self.variant == "recurrent":
            return self._forward_recurrent(*inputs)
        return self._forward_windowed(*inputs)

    # -- loss (weighted binary cross-entropy) --------------------------------

    def loss_and_grads(self, batch):
        """``batch`` is example rows: (B, V) scores, (B,) positions, (B, V) 0/1 targets."""
        logits, positions, targets = batch
        scores, caches = self._forward(*self._inputs(logits, positions))
        weights = np.where(targets > 0.5, self.pos_weight, 1.0)
        loss, dscores = nn.binary_cross_entropy(scores, targets, weights)
        if self.variant == "recurrent":
            return loss, self._backward_recurrent(dscores, caches)
        return loss, self._backward_windowed(dscores, caches)

    # -- inference ------------------------------------------------------------

    def scores(self, logits, position) -> np.ndarray:
        """Per-token emit probabilities of one (V,) score row or of (N, V) rows.

        ``position`` is the row's 1-based position, or (N,) positions for N
        rows.  The class-weighted loss drives the raw score toward
        ``logit(p_emit) + log(pos_weight)``; subtracting that shift returns
        the emit probability itself.
        """
        logits = np.asarray(logits, dtype=float)
        if logits.ndim not in (1, 2) or logits.shape[-1] != self.vocab:
            raise ValidationError(f"expected {self.vocab} scores per row, got {logits.shape}")
        rows = logits.reshape(-1, self.vocab)
        positions = np.asarray(position)
        if positions.size != len(rows):
            raise ValidationError("one position per score row required")
        raw = self._forward(*self._inputs(rows, positions.reshape(-1)))[0]
        return nn.sigmoid(raw - np.log(self.pos_weight)).reshape(logits.shape)

    def classify(self, logits, position: int, prefix: TokenSeq | None = None
                 ) -> frozenset[int]:
        """Token ids whose emit probability clears the threshold; pure."""
        del prefix  # part of the decoder's classifier protocol; the gate reads scores only
        probs = self.scores(logits, position)
        return frozenset(int(k) for k in np.flatnonzero(probs >= self.threshold))


def build_lambda_training_set(model, dataset: Dataset) -> GateExamples:
    """Gate examples: the :func:`~setgen.penalty.position_nodes` of a dataset.

    One example per node, with the tokens the node's targets produce as its
    positives: per distinct target prefix of a sequence sample, and per
    label sample at position 1.  Positives are rare, so the class balance is
    logged for the loss weighting downstream.
    """
    logits, positions, counts = position_nodes(model, dataset)
    examples = GateExamples(logits, positions, counts > 0)
    if len(examples):
        log.info("gate training set: %d examples, %.1f%% positive tokens",
                 len(examples), 100.0 * np.mean(examples.targets))
    return examples


def gate_accuracy(gate: LambdaNet, examples: GateExamples) -> float | None:
    """Token-level accuracy of the gate's thresholded decisions; None without examples."""
    if not len(examples):
        return None
    probs = gate.scores(examples.logits, examples.positions)
    return float(np.mean((probs >= gate.threshold) == (examples.targets == 1.0)))


def train_lambda_net(examples: GateExamples, variant: str,
                     cfg: TrainConfig, *, max_len: int | None = None, **arch) -> LambdaNet:
    """Fit the gate with positive-class weighting #neg/#pos from the examples.

    The weight is stored on the returned gate, whose ``scores`` undo the
    prior shift it causes; its ``threshold`` then cuts the emit probability.
    ``arch`` holds :class:`LambdaNet` size and threshold keywords; omitted
    ones take its defaults.  A batch is the logits, positions and targets rows of
    whole examples, whose features and weights ``loss_and_grads`` builds per batch.
    """
    if not len(examples):
        raise ValidationError("no gate training examples")
    targets = examples.targets
    vocab = targets.shape[1]
    max_len = max_len or int(examples.positions.max())
    n_pos = float(np.sum(targets))
    n_neg = float(targets.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise TrainingError("gate training set is single-class; nothing to separate")
    rng = np.random.default_rng(cfg.seed)
    net = LambdaNet(variant, vocab, max_len, **arch, pos_weight=n_neg / n_pos, seed=cfg.seed)
    arrays = (examples.logits, examples.positions, targets)
    return _run_epochs(net, lambda idx: tuple(a[idx] for a in arrays), len(examples), cfg, rng)
