"""Learned replacement for scalar penalties: a binary gate over base-model logits.

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

Positive tokens are rare, so training up-weights them by ``pos_weight =
#neg/#pos``.  That weighting shifts the raw score's prior by
``log(pos_weight)``; the gate stores the weight and subtracts the shift at
inference, so the decision threshold applies to the prior-corrected emit
probability rather than to the class-weighted one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import nn
from .core import Dataset, TokenSeq, TrainingError, ValidationError
from .models import TrainConfig, _params_from_checkpoint, _run_epochs, _to_checkpoint
from .penalty import prefix_nodes

log = logging.getLogger(__name__)

N_SCALAR_FEATURES = 4  # centered score, rank, position id, token id (normalized)


@dataclass(frozen=True)
class LambdaNetExample:
    """Base-model scores at one decode position with per-token emit labels."""

    logits: tuple[float, ...]
    position: int  # 1-based output position
    targets: tuple[int, ...]  # 0/1 per token

    def __post_init__(self) -> None:
        if len(self.logits) != len(self.targets):
            raise ValidationError("one target per token required")
        if self.position < 1:
            raise ValidationError("positions are 1-based")


def _step_features(logits: np.ndarray, position: int, max_len: int) -> np.ndarray:
    """Per-token feature rows (V, 3): centered score, position id, token id."""
    v = logits.shape[0]
    centered = logits - np.max(logits)
    feats = np.empty((v, 3))
    feats[:, 0] = centered
    feats[:, 1] = position / max_len
    feats[:, 2] = np.arange(v) / v
    return feats


def _window_features(logits: np.ndarray, position: int, max_len: int,
                     radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-window rows (V, 2r+1) and scalar rows (V, 4) for every token."""
    v = logits.shape[0]
    centered = logits - np.max(logits)
    order = np.lexsort((np.arange(v), -centered))  # score desc, token id asc
    ranked = centered[order]
    rank_of = np.empty(v, dtype=int)
    rank_of[order] = np.arange(v)
    padded = np.concatenate([
        np.full(radius, ranked[0]),
        ranked,
        np.full(radius, ranked[-1]),
    ])
    windows = padded[rank_of[:, None] + np.arange(2 * radius + 1)]
    scalars = np.empty((v, N_SCALAR_FEATURES))
    scalars[:, 0] = centered
    scalars[:, 1] = rank_of / v
    scalars[:, 2] = position / max_len
    scalars[:, 3] = np.arange(v) / v
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
        """windows (N, 2r+1), scalars (N, 4) -> raw scores (N,) plus caches."""
        conv, conv_cache = nn.conv1d_forward(windows, self.params["conv_W"],
                                             self.params["conv_b"])
        act, act_cache = nn.tanh_forward(conv)
        pooled, pool_cache = nn.maxpool_forward(act)
        joined = np.concatenate([pooled, scalars], axis=1)
        z1, d1_cache = nn.dense_forward(joined, self.params["W1"], self.params["b1"])
        h1, t1_cache = nn.tanh_forward(z1)
        z2, d2_cache = nn.dense_forward(h1, self.params["W2"], self.params["b2"])
        caches = (conv_cache, act_cache, pool_cache, d1_cache, t1_cache, d2_cache)
        return z2[:, 0], caches

    def _backward_windowed(self, dscores: np.ndarray, caches):
        conv_cache, act_cache, pool_cache, d1_cache, t1_cache, d2_cache = caches
        grads = {}
        d = dscores[:, None]
        d, grads["W2"], grads["b2"] = nn.dense_backward(d, d2_cache)
        d = nn.tanh_backward(d, t1_cache)
        d, grads["W1"], grads["b1"] = nn.dense_backward(d, d1_cache)
        dpooled = d[:, :self.filters]
        d = nn.maxpool_backward(dpooled, pool_cache)
        d = nn.tanh_backward(d, act_cache)
        _, grads["conv_W"], grads["conv_b"] = nn.conv1d_backward(d, conv_cache)
        return grads

    # -- loss (weighted binary cross-entropy) --------------------------------

    def loss(self, batch) -> float:
        return self._loss_impl(batch, with_grads=False)[0]

    def loss_and_grads(self, batch):
        return self._loss_impl(batch, with_grads=True)

    def _loss_impl(self, batch, with_grads: bool):
        if self.variant == "recurrent":
            feats, targets, weights = batch
            scores, caches = self._forward_recurrent(feats)
            loss, dscores = nn.binary_cross_entropy(scores, targets, weights)
            if not with_grads:
                return loss, None
            return loss, self._backward_recurrent(dscores, caches)
        windows, scalars, targets, weights = batch
        scores, caches = self._forward_windowed(windows, scalars)
        loss, dscores = nn.binary_cross_entropy(scores, targets, weights)
        if not with_grads:
            return loss, None
        return loss, self._backward_windowed(dscores, caches)

    # -- inference ------------------------------------------------------------

    def scores(self, logits, position: int) -> np.ndarray:
        """Per-token emit probabilities for one position's score vector.

        The class-weighted loss drives the raw score toward
        ``logit(p_emit) + log(pos_weight)``; subtracting that shift returns
        the emit probability itself.
        """
        logits = np.asarray(logits, dtype=float)
        if logits.shape != (self.vocab,):
            raise ValidationError(f"expected {self.vocab} scores, got {logits.shape}")
        if self.variant == "recurrent":
            feats = _step_features(logits, position, self.max_len)[None, :, :]
            raw = self._forward_recurrent(feats)[0][0]
        else:
            windows, scalars = _window_features(logits, position, self.max_len, self.radius)
            raw = self._forward_windowed(windows, scalars)[0]
        return nn.sigmoid(raw - np.log(self.pos_weight))

    def classify(self, logits, position: int, prefix: TokenSeq | None = None
                 ) -> frozenset[int]:
        """Token ids whose emit probability clears the threshold; pure."""
        del prefix  # part of the decoder's classifier protocol; the gate reads scores only
        probs = self.scores(logits, position)
        return frozenset(int(k) for k in np.flatnonzero(probs >= self.threshold))

    # -- checkpoints ------------------------------------------------------------

    def checkpoint(self) -> dict:
        arch = {
            "variant": self.variant,
            "vocab": self.vocab,
            "max_len": self.max_len,
            "hidden": self.hidden,
            "filters": self.filters,
            "kernel": self.kernel,
            "dense": self.dense,
            "radius": self.radius,
            "threshold": self.threshold,
            "pos_weight": self.pos_weight,
        }
        return _to_checkpoint(self.family, arch, self.params)

    @classmethod
    def from_checkpoint(cls, doc: dict) -> "LambdaNet":
        a = doc["arch"]
        net = cls(a["variant"], a["vocab"], a["max_len"], hidden=a["hidden"],
                  filters=a["filters"], kernel=a["kernel"], dense=a["dense"],
                  radius=a["radius"], threshold=a["threshold"],
                  pos_weight=a.get("pos_weight", 1.0), seed=0)
        shapes = {k: v.shape for k, v in net.params.items()}
        net.params = _params_from_checkpoint(doc, shapes)
        return net


def build_lambda_training_set(model, dataset: Dataset) -> list[LambdaNetExample]:
    """One example per (sample, distinct ground-truth prefix) of a sequence dataset.

    Targets come from prefix continuation; the logit vector is the base
    model's teacher-forced score at that prefix.  Positives are rare, so the
    class balance is logged for the loss weighting downstream.
    """
    if dataset.kind != "sequences":
        raise ValidationError("gate training data requires a sequence dataset")
    examples: list[LambdaNetExample] = []
    n_pos = 0
    n_tok = 0
    for sample in dataset.samples:
        if not sample.y:
            continue
        for prefix, logits, nexts in prefix_nodes(model, sample):
            targets = tuple(1 if k in nexts else 0 for k in range(dataset.universe))
            examples.append(LambdaNetExample(
                logits=tuple(logits.tolist()),
                position=len(prefix) + 1,
                targets=targets,
            ))
            n_pos += sum(targets)
            n_tok += len(targets)
    if examples:
        log.info("gate training set: %d examples, %.1f%% positive tokens",
                 len(examples), 100.0 * n_pos / max(n_tok, 1))
    return examples


def build_label_lambda_training_set(model, dataset: Dataset) -> list[LambdaNetExample]:
    """Gate examples for a label task: one position, targets are the label sets."""
    if dataset.kind != "labels":
        raise ValidationError("expected a label dataset")
    examples = []
    for sample in dataset.samples:
        logits = np.asarray(model.scores(np.asarray(sample.x)[None, :])[0], dtype=float)
        targets = tuple(1 if k in sample.y_set else 0 for k in range(dataset.universe))
        examples.append(LambdaNetExample(
            logits=tuple(logits.tolist()), position=1, targets=targets,
        ))
    return examples


def _recurrent_arrays(examples, max_len: int):
    feats = np.stack([
        _step_features(np.asarray(e.logits), e.position, max_len) for e in examples
    ])
    targets = np.asarray([e.targets for e in examples], dtype=float)
    return feats, targets


def _windowed_arrays(examples, max_len: int, radius: int):
    wins = []
    scals = []
    targs = []
    for e in examples:
        w, s = _window_features(np.asarray(e.logits), e.position, max_len, radius)
        wins.append(w)
        scals.append(s)
        targs.append(e.targets)
    return np.concatenate(wins), np.concatenate(scals), np.concatenate(targs).astype(float)


def train_lambda_net(examples: list[LambdaNetExample], variant: str,
                     cfg: TrainConfig, *, max_len: int | None = None,
                     threshold: float = 0.5, hidden: int = 24, filters: int = 8,
                     dense: int = 16) -> LambdaNet:
    """Fit the gate with positive-class weighting #neg/#pos from the examples.

    The weight is stored on the returned gate, whose ``scores`` undo the
    prior shift it causes; ``threshold`` then cuts the emit probability.
    """
    if not examples:
        raise ValidationError("no gate training examples")
    vocab = len(examples[0].logits)
    max_len = max_len or max(e.position for e in examples)
    all_targets = np.asarray([e.targets for e in examples], dtype=float)
    n_pos = float(np.sum(all_targets))
    n_neg = float(all_targets.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise TrainingError("gate training set is single-class; nothing to separate")
    pos_weight = n_neg / n_pos
    rng = np.random.default_rng(cfg.seed)
    net = LambdaNet(variant, vocab, max_len, hidden=hidden, filters=filters,
                    dense=dense, threshold=threshold, pos_weight=pos_weight,
                    seed=cfg.seed)
    # Both variants batch whole examples: a windowed batch is the V token
    # rows of each of its examples, flattened back to rows.
    if variant == "recurrent":
        feats, targets = _recurrent_arrays(examples, max_len)
        weights = np.where(targets > 0.5, pos_weight, 1.0)
        batches = lambda idx: (feats[idx], targets[idx], weights[idx])
    else:
        wins, scals, targets = _windowed_arrays(examples, max_len, net.radius)
        weights = np.where(targets > 0.5, pos_weight, 1.0)
        by_example = [a.reshape((len(examples), vocab) + a.shape[1:])
                      for a in (wins, scals, targets, weights)]
        batches = lambda idx: tuple(a[idx].reshape((-1,) + a.shape[2:]) for a in by_example)
    return _run_epochs(net, batches, len(examples), cfg, rng)
