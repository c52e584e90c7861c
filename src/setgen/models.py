"""Probabilistic base models trained from scratch on flattened pairs.

Three families:

* ``LabelModel`` — tanh MLP with a softmax head; one training target per
  (input, set element) pair, so multi-element inputs drive the posterior
  toward mass split across their elements.
* ``MultiLabelBaseline`` — the same body with one sigmoid output per label
  and a decision threshold; the conventional multi-label comparison point.
* ``SequenceModel`` — embedding, gated recurrent encoder, linear state
  bridge, gated recurrent decoder, softmax projection; trained with teacher
  forcing.

All gradients are hand-derived; :func:`gradient_check` compares them against
central finite differences and is run over every family in the test suite.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .core import FlatPair, Dataset, TokenSeq, TrainingError, ValidationError, json_hash

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Knobs shared by every training loop; the seed fixes every random draw."""

    learning_rate: float = 1e-3
    batch_size: int = 15
    epochs: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.epochs <= 0:
            raise ValidationError("learning rate, batch size, and epochs must be positive")


# --- checkpoints ---------------------------------------------------------------
#
# Every family stores the same document: its ``family`` name, the ``arch``
# dict of constructor keywords, and each parameter as a flat C-order list.
# ``arch`` holds every keyword of the model's constructor but ``seed``, read
# back from the attribute of the same name; a keyword missing from an older
# checkpoint takes the constructor's default (a gate without ``pos_weight``
# loads unweighted).


def checkpoint(model) -> dict:
    """The checkpoint document of a model of any family."""
    keywords = inspect.signature(type(model)).parameters
    return {
        "format_version": CHECKPOINT_VERSION,
        "family": model.family,
        "arch": {k: getattr(model, k) for k in keywords if k != "seed"},
        "params": {k: v.ravel(order="C").tolist() for k, v in sorted(model.params.items())},
    }


def from_checkpoint(doc: dict):
    """Rebuild a model from :func:`checkpoint`'s document; refuses malformed ones."""
    from .lambda_net import LambdaNet  # local import: lambda_net imports this module

    classes = {"label": LabelModel, "multilabel": MultiLabelBaseline, "sequence": SequenceModel,
               "lambda-recurrent": LambdaNet, "lambda-windowed": LambdaNet}
    try:
        if doc["format_version"] != CHECKPOINT_VERSION:
            raise ValidationError(f"checkpoint format version {doc['format_version']!r} "
                                  f"not supported (expected {CHECKPOINT_VERSION})")
        if doc["family"] not in classes:
            raise ValidationError(f"unknown checkpoint family {doc['family']!r}")
        model = classes[doc["family"]](**doc["arch"], seed=0)
        if model.family != doc["family"] or set(doc["params"]) != set(model.params):
            raise ValidationError("checkpoint family or parameter names do not match its arch")
        for name, init in model.params.items():
            flat = np.asarray(doc["params"][name], dtype=float)
            if flat.size != init.size:
                raise ValidationError(f"checkpoint parameter {name!r} holds {flat.size} "
                                      f"values, expected {init.size}")
            model.params[name] = flat.reshape(init.shape)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    return model


def content_hash(model) -> str:
    """Checkpoint hash of a model, cached on the instance until it is refit."""
    cached = getattr(model, "_content_hash", None)
    if cached is None:
        cached = json_hash(checkpoint(model))
        model._content_hash = cached
    return cached


def save_checkpoint(model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint(model), fh, sort_keys=True)


def load_checkpoint(path: str):
    """Read a checkpoint file; a malformed one raises ValidationError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_checkpoint(json.load(fh))
        except ValueError as exc:  # bad JSON, or from_checkpoint's ValidationError
            raise ValidationError(f"{path}: {exc}") from exc


# --- MLP body shared by the label model and the sigmoid baseline ----------------


class _Mlp:
    """Tanh hidden layers plus a linear head; heads differ by subclass.

    ``_head_loss(out, targets) -> (loss, dout)`` is the subclass's head.
    """

    family = "mlp"

    def __init__(self, input_dim: int, output_dim: int,
                 hidden_sizes: tuple[int, ...] = (64,), seed: int = 0):
        if input_dim <= 0 or output_dim <= 0 or any(h <= 0 for h in hidden_sizes):
            raise ValidationError("model dimensions must be positive")
        self.input_dim = int(input_dim)
        self.output_dim = int(output_dim)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        dims = [self.input_dim, *self.hidden_sizes, self.output_dim]
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            self.params[f"W{i}"] = nn.init_uniform(rng, (d_in, d_out), d_in)
            self.params[f"b{i}"] = np.zeros(d_out)
        self.train_losses: list[float] = []

    def scores(self, X: np.ndarray) -> np.ndarray:
        out, _ = self._forward(np.atleast_2d(X))
        return out

    def _forward(self, X: np.ndarray):
        if X.shape[1] != self.input_dim:
            raise ValidationError(
                f"input dimension {X.shape[1]} does not match model ({self.input_dim})"
            )
        caches = []
        h = X
        n_layers = len(self.hidden_sizes) + 1
        for i in range(n_layers):
            z, dc = nn.dense_forward(h, self.params[f"W{i}"], self.params[f"b{i}"])
            if i < n_layers - 1:
                h, tc = nn.tanh_forward(z)
            else:
                h, tc = z, None
            caches.append((dc, tc))
        return h, caches

    def _backward(self, dout: np.ndarray, caches) -> dict[str, np.ndarray]:
        grads: dict[str, np.ndarray] = {}
        n_layers = len(self.hidden_sizes) + 1
        d = dout
        for i in reversed(range(n_layers)):
            dc, tc = caches[i]
            if tc is not None:
                d = nn.tanh_backward(d, tc)
            # nothing reads the gradient with respect to the inputs
            d, grads[f"W{i}"], grads[f"b{i}"] = nn.dense_backward(d, dc, input_grad=i > 0)
        return grads

    def loss_and_grads(self, batch):
        X, targets = batch
        out, caches = self._forward(X)
        loss, dout = self._head_loss(out, targets)
        return loss, self._backward(dout, caches)


class LabelModel(_Mlp):
    """Softmax classifier over a finite label universe."""

    family = "label"
    _head_loss = staticmethod(nn.cross_entropy)

    def posterior(self, x) -> np.ndarray:
        """Probability vector over labels for one input; pure in (params, x)."""
        xv = np.asarray(x, dtype=float).reshape(1, -1)
        return nn.softmax(self.scores(xv), axis=1)[0]


class MultiLabelBaseline(_Mlp):
    """One independent sigmoid per label; the predicted set is a threshold cut."""

    family = "multilabel"
    _head_loss = staticmethod(nn.binary_cross_entropy)

    def __init__(self, input_dim: int, output_dim: int,
                 hidden_sizes: tuple[int, ...] = (64,), seed: int = 0,
                 threshold: float = 0.5):
        super().__init__(input_dim, output_dim, hidden_sizes, seed)
        if not 0.0 < threshold < 1.0:
            raise ValidationError("threshold must lie in (0, 1)")
        self.threshold = float(threshold)

    def probabilities(self, x) -> np.ndarray:
        xv = np.asarray(x, dtype=float).reshape(1, -1)
        return nn.sigmoid(self.scores(xv))[0]

    def predict_set(self, x) -> frozenset[int]:
        probs = self.probabilities(x)
        return frozenset(int(i) for i in np.flatnonzero(probs >= self.threshold))


# --- encoder-decoder sequence model ---------------------------------------------


class SequenceModel:
    """Gated recurrent encoder-decoder over token sequences.

    The encoder folds the input tokens into a final (h, c) state; a linear
    bridge maps it to the decoder's (larger) state size; the decoder then
    predicts each output token from the embedded previous token (a reserved
    start token at position 1).  The end-of-sequence token id is
    ``vocab - 1``; the start token id ``vocab`` exists only inside the
    decoder's input embedding.
    """

    family = "sequence"

    def __init__(self, input_vocab: int, vocab: int, max_len: int,
                 embed_dim: int = 60, enc_hidden: int = 60, dec_hidden: int = 120,
                 seed: int = 0):
        if min(input_vocab, vocab, max_len, embed_dim, enc_hidden, dec_hidden) <= 0:
            raise ValidationError("sequence model dimensions must be positive")
        self.input_vocab = int(input_vocab)
        self.vocab = int(vocab)
        self.max_len = int(max_len)
        self.embed_dim = int(embed_dim)
        self.enc_hidden = int(enc_hidden)
        self.dec_hidden = int(dec_hidden)
        rng = np.random.default_rng(seed)
        E, He, Hd, V = embed_dim, enc_hidden, dec_hidden, vocab
        self.params = {
            "E_in": nn.init_uniform(rng, (input_vocab, E), E),
            "enc_Wx": nn.init_uniform(rng, (E, 4 * He), E),
            "enc_Wh": nn.init_uniform(rng, (He, 4 * He), He),
            "enc_b": np.zeros(4 * He),
            "br_Wh": nn.init_uniform(rng, (He, Hd), He),
            "br_bh": np.zeros(Hd),
            "br_Wc": nn.init_uniform(rng, (He, Hd), He),
            "br_bc": np.zeros(Hd),
            "E_out": nn.init_uniform(rng, (V + 1, E), E),
            "dec_Wx": nn.init_uniform(rng, (E, 4 * Hd), E),
            "dec_Wh": nn.init_uniform(rng, (Hd, 4 * Hd), Hd),
            "dec_b": np.zeros(4 * Hd),
            "proj_W": nn.init_uniform(rng, (Hd, V), Hd),
            "proj_b": np.zeros(V),
        }
        self.train_losses: list[float] = []

    @property
    def eos(self) -> int:
        return self.vocab - 1

    @property
    def start(self) -> int:
        return self.vocab

    # -- forward pieces ---------------------------------------------------

    def _encode_batch(self, X: np.ndarray, mask: np.ndarray):
        """Run the encoder over padded inputs; masked steps hold state."""
        p = self.params
        zeros = np.zeros((X.shape[0], self.enc_hidden))
        hold = None if mask.all() else mask.T[:, :, None]  # equal-length inputs hold nothing
        h, c, _, cache = nn.lstm_forward(p["E_in"][X.T], zeros, zeros, p["enc_Wx"],
                                         p["enc_Wh"], p["enc_b"], hold)
        return h, c, cache

    def _bridge(self, h_enc: np.ndarray, c_enc: np.ndarray):
        h0 = h_enc @ self.params["br_Wh"] + self.params["br_bh"]
        c0 = c_enc @ self.params["br_Wc"] + self.params["br_bc"]
        return h0, c0

    def _pack(self, pairs: list[tuple[TokenSeq, TokenSeq]]):
        """Pad a batch of (input tokens, target tokens incl. end token)."""
        B = len(pairs)
        t_in = max(len(x) for x, _ in pairs)
        t_out = max(len(y) for _, y in pairs)
        X = np.zeros((B, t_in), dtype=int)
        in_mask = np.zeros((B, t_in))
        Y = np.zeros((B, t_out), dtype=int)
        out_mask = np.zeros((B, t_out))
        for i, (x, y) in enumerate(pairs):
            X[i, :len(x)] = x
            in_mask[i, :len(x)] = 1.0
            Y[i, :len(y)] = y
            out_mask[i, :len(y)] = 1.0
        return X, in_mask, Y, out_mask

    # -- teacher-forced loss ------------------------------------------------

    def loss_and_grads(self, pairs):
        for x, y in pairs:
            if len(y) > self.max_len:
                raise ValidationError(f"target length {len(y)} exceeds max_len {self.max_len}")
        X, in_mask, Y, out_mask = self._pack(pairs)
        B, t_out = Y.shape
        p = self.params
        h_enc, c_enc, enc_cache = self._encode_batch(X, in_mask)
        h, c = self._bridge(h_enc, c_enc)
        # Decoder inputs, time-major: start token, then the ground-truth prefix.
        D = np.empty((t_out, B), dtype=int)
        D[0] = self.start
        D[1:] = Y.T[:-1]
        _, _, hs, dec_cache = nn.lstm_forward(p["E_out"][D], h, c, p["dec_Wx"],
                                              p["dec_Wh"], p["dec_b"])
        h_out = hs[1:].reshape(t_out * B, -1)
        logits = h_out @ p["proj_W"] + p["proj_b"]

        # Loss: cross-entropy summed over valid positions, averaged over pairs.
        rows = np.arange(t_out * B)
        targets = Y.T.ravel()
        weights = out_mask.T.ravel()
        picked, dlogits = nn.picked_log_softmax(logits, targets)
        loss = -float(np.sum(weights * picked)) / B

        dlogits[rows, targets] -= 1.0
        dlogits *= (weights / B)[:, None]
        grads = {"proj_W": h_out.T @ dlogits, "proj_b": np.sum(dlogits, axis=0)}
        dhs = (dlogits @ p["proj_W"].T).reshape(t_out, B, -1)
        zeros = np.zeros((B, self.dec_hidden))
        dxe, grads["dec_Wx"], grads["dec_Wh"], grads["dec_b"], dh, dc = nn.lstm_backward(
            zeros, zeros, dhs, dec_cache)
        grads["E_out"] = nn.scatter_rows(D.ravel(), dxe, p["E_out"].shape)
        # Through the bridge into the encoder's final state.
        grads["br_Wh"] = h_enc.T @ dh
        grads["br_bh"] = np.sum(dh, axis=0)
        grads["br_Wc"] = c_enc.T @ dc
        grads["br_bc"] = np.sum(dc, axis=0)
        dxe, grads["enc_Wx"], grads["enc_Wh"], grads["enc_b"], _, _ = nn.lstm_backward(
            dh @ p["br_Wh"].T, dc @ p["br_Wc"].T, None, enc_cache)
        # Masked steps pass no gradient to the pre-activation, so their rows of dxe are 0.
        grads["E_in"] = nn.scatter_rows(X.T.ravel(), dxe, p["E_in"].shape)
        return loss, grads

    # -- inference ----------------------------------------------------------

    def encode(self, x: TokenSeq):
        """Fold one input into the decoder's initial state (after the start token)."""
        if any(not 0 <= t < self.input_vocab for t in x):
            raise ValidationError("input token outside the input vocabulary")
        X = np.asarray(x, dtype=int).reshape(1, -1)
        mask = np.ones_like(X, dtype=float)
        h_enc, c_enc, _ = self._encode_batch(X, mask)
        return self._bridge(h_enc, c_enc)

    def decode_step(self, h, c, token: int):
        """Advance the decoder by one token; returns (logits, h, c)."""
        p = self.params
        xw = p["E_out"][[token]] @ p["dec_Wx"] + p["dec_b"]
        h, c, _ = nn.lstm_step_forward(xw, h, c, p["dec_Wh"])
        logits = h @ p["proj_W"] + p["proj_b"]
        return logits[0], h, c

    def _check_prefix(self, prefix: TokenSeq) -> None:
        if len(prefix) >= self.max_len:
            raise ValidationError(f"prefix length {len(prefix)} not below max_len {self.max_len}")
        if self.eos in prefix:
            raise ValidationError("prefix must not contain the end-of-sequence token")

    def step_logits(self, x: TokenSeq, prefix: TokenSeq = ()) -> np.ndarray:
        """Pre-softmax scores for the next token after the given prefix."""
        self._check_prefix(prefix)
        return DecoderSession(self, x).logits_for(prefix)

    def step_posterior(self, x: TokenSeq, prefix: TokenSeq = ()) -> np.ndarray:
        """Next-token distribution conditioned on the prefix (teacher-forcing path)."""
        return nn.softmax(self.step_logits(x, prefix))


class DecoderSession:
    """Memoized prefix scoring over one input; the one prefix scorer.

    Encodes once and caches the decoder state behind every queried prefix, so
    walking all prefixes of a target set, or a decoder's frontier, costs one
    recurrent step per trie node instead of a full re-encode per prefix.
    Works with any model exposing ``encode``, ``decode_step`` and ``start``.
    """

    def __init__(self, model, x: TokenSeq):
        self.model = model
        h, c = model.encode(x)
        logits, h, c = model.decode_step(h, c, model.start)
        self._states: dict[TokenSeq, tuple] = {(): (logits, h, c)}

    def _state(self, prefix: TokenSeq) -> tuple:
        state = self._states.get(prefix)
        if state is None:
            logits, h, c = self._state(prefix[:-1])
            state = self.model.decode_step(h, c, int(prefix[-1]))
            self._states[prefix] = state
        return state

    def logits_for(self, prefix) -> np.ndarray:
        return self._state(tuple(prefix))[0]


# --- training loops --------------------------------------------------------------


def _run_epochs(model, batches_of, n_items: int, cfg: TrainConfig,
                rng: np.random.Generator):
    """Shared minibatch loop: shuffle, step, record epoch losses, check finiteness."""
    opt = nn.Adam(model.params, cfg.learning_rate)
    model.train_losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_items)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_items, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = model.loss_and_grads(batches_of(idx))
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} (lr={cfg.learning_rate})"
                )
            opt.step(grads)
            epoch_loss += loss
            n_batches += 1
        model.train_losses.append(epoch_loss / max(n_batches, 1))
    model._content_hash = None  # params changed; any cached checkpoint hash is stale
    return model


def train_label_model(flat: list[FlatPair], cfg: TrainConfig, n_labels: int,
                      **sizes) -> LabelModel:
    """Fit the softmax classifier on flattened (input, element) pairs.

    ``sizes`` may hold ``hidden_sizes``; omitted, it takes :class:`LabelModel`'s default.
    """
    if not flat:
        raise ValidationError("no training pairs")
    if not all(isinstance(p.y_elem, int) for p in flat):
        raise ValidationError("label-model training requires label targets")
    X = np.asarray([p.x for p in flat], dtype=float)
    y = np.asarray([p.y_elem for p in flat], dtype=int)
    rng = np.random.default_rng(cfg.seed)
    model = LabelModel(X.shape[1], n_labels, **sizes, seed=cfg.seed)
    return _run_epochs(model, lambda idx: (X[idx], y[idx]), len(flat), cfg, rng)


def train_multilabel_baseline(dataset: Dataset, cfg: TrainConfig,
                              **sizes) -> MultiLabelBaseline:
    """Fit the per-label sigmoid baseline on whole samples (multi-hot targets).

    ``sizes`` may hold ``hidden_sizes``; omitted, it takes
    :class:`MultiLabelBaseline`'s default.  The threshold is always the model's own.
    """
    if set(sizes) - {"hidden_sizes"}:
        raise ValidationError(f"unknown size keywords {sorted(set(sizes) - {'hidden_sizes'})}")
    if dataset.kind != "labels":
        raise ValidationError("the multi-label baseline applies to label tasks only")
    X = np.asarray([s.x for s in dataset.samples], dtype=float)
    Y = np.zeros((len(dataset.samples), dataset.universe))
    for i, s in enumerate(dataset.samples):
        for lab in s.y:
            Y[i, lab] = 1.0
    rng = np.random.default_rng(cfg.seed)
    model = MultiLabelBaseline(X.shape[1], dataset.universe, **sizes, seed=cfg.seed)
    return _run_epochs(model, lambda idx: (X[idx], Y[idx]), len(dataset.samples), cfg, rng)


def train_sequence_model(flat: list[FlatPair], cfg: TrainConfig, *,
                         input_vocab: int, vocab: int, max_len: int, **arch) -> SequenceModel:
    """Fit the encoder-decoder with teacher forcing on flattened pairs.

    ``arch`` holds :class:`SequenceModel` size keywords; omitted ones take its defaults.
    """
    if not flat:
        raise ValidationError("no training pairs")
    eos = vocab - 1
    for p in flat:
        if not isinstance(p.y_elem, tuple) or not p.y_elem or p.y_elem[-1] != eos:
            raise ValidationError("sequence targets must be end-token-terminated tuples")
        if len(p.y_elem) > max_len:
            raise ValidationError(f"target length {len(p.y_elem)} exceeds max_len {max_len}")
    pairs = [(p.x, p.y_elem) for p in flat]
    rng = np.random.default_rng(cfg.seed)
    model = SequenceModel(input_vocab, vocab, max_len, **arch, seed=cfg.seed)
    return _run_epochs(model, lambda idx: [pairs[i] for i in idx], len(pairs), cfg, rng)


# --- finite-difference oracle ------------------------------------------------------


def gradient_check(model, batch, eps: float = 1e-4) -> float:
    """Max relative error between analytic gradients and central differences.

    Perturbs every parameter entry, so keep the model small.  The 1e-8 guard
    keeps near-zero gradient pairs from dividing away to noise.
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValidationError("finite-difference step must lie in [1e-6, 1e-3]")
    _, grads = model.loss_and_grads(batch)
    worst = 0.0
    for name, p in model.params.items():
        g = grads[name]
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lo_plus = model.loss_and_grads(batch)[0]
            flat[i] = orig - eps
            lo_minus = model.loss_and_grads(batch)[0]
            flat[i] = orig
            fd = (lo_plus - lo_minus) / (2.0 * eps)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-8)
            worst = max(worst, rel)
    return worst
