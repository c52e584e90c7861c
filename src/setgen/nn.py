"""Shared numpy building blocks for the from-scratch models.

Everything here is float64 and free of hidden state so training runs are
bit-reproducible under a fixed seed.  Each forward returns the cache its
backward needs; backward passes are hand-derived and covered by the central
finite-difference checks in the test suite.
"""

from __future__ import annotations

import numpy as np

PROB_FLOOR = 1e-12  # probabilities are floored before logs to avoid -inf


def init_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def sigmoid(z: np.ndarray) -> np.ndarray:
    # The tanh form cannot overflow and needs no masks; it stays within
    # 2.2e-16 of the exp form.
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=axis, keepdims=True)


def picked_log_softmax(logits: np.ndarray, targets: np.ndarray):
    """Each row's log-probability of its target, and the row-wise softmax.

    ``logits`` is (N, V) and ``targets`` holds one class index per row.  One
    shift, exp and row sum serve both outputs, which equal bit for bit each
    row's log-softmax at its target, ``shifted - log(sum(exp(shifted)))`` with
    ``shifted`` the row less its max, and ``softmax(logits, axis=1)``.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    sums = ez.sum(axis=1, keepdims=True)
    picked = shifted[np.arange(logits.shape[0]), targets] - np.log(sums[:, 0])
    return picked, ez / sums


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over rows; returns (loss, dlogits).

    ``targets`` holds one class index per row.
    """
    n = logits.shape[0]
    picked, dlogits = picked_log_softmax(logits, targets)
    loss = -float(picked.mean())
    dlogits[np.arange(n), targets] -= 1.0
    return loss, dlogits / n


def binary_cross_entropy(scores: np.ndarray, targets: np.ndarray,
                         weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Weighted mean sigmoid cross-entropy on raw scores; returns (loss, dscores)."""
    p = sigmoid(scores)
    p = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    w = np.ones_like(p) if weights is None else weights
    per = -(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
    denom = float(w.sum())
    loss = float((w * per).sum()) / denom
    dscores = w * (p - targets) / denom
    return loss, dscores


# --- dense / activation layers ------------------------------------------------


def dense_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray):
    return x @ W + b, (x, W)


def dense_backward(dout: np.ndarray, cache, input_grad: bool = True):
    """(dx, dW, db); ``dx`` is None when ``input_grad`` is false."""
    x, W = cache
    return dout @ W.T if input_grad else None, x.T @ dout, dout.sum(axis=0)


def scatter_rows(index: np.ndarray, rows: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum ``rows[i]`` into row ``index[i]`` of a zero (R, C) array.

    The backward of an embedding lookup.  One ``np.bincount`` over the flat
    ``index * C + column`` positions adds in input order, as ``np.add.at``
    does, so the sums are the same bit for bit.
    """
    width = shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=shape[0] * width).reshape(shape)


def tanh_forward(z: np.ndarray):
    out = np.tanh(z)
    return out, out


def tanh_backward(dout: np.ndarray, out: np.ndarray) -> np.ndarray:
    return dout * (1.0 - out * out)


# --- gated recurrent (LSTM) cell ----------------------------------------------
#
# Single step, gates stacked as [input i | forget f | cell g | output o]:
#   a      = xw + h_prev @ Wh,  xw = x @ Wx + b     (B, 4H)
#   i, f, o = sigmoid(a_i), sigmoid(a_f), sigmoid(a_o)
#   g      = tanh(a_g)
#   c      = f * c_prev + i * g
#   h      = o * tanh(c)
#
# lstm_forward projects the inputs of every step with one gemm before its
# time loop, and lstm_backward computes each weight gradient with one gemm
# over all (step, row) pairs after its loop (Appleyard et al. 2016); only the
# h_prev @ Wh and da @ Wh.T products stay inside the loops.  Sequences are
# time-major, (T, B, ...), so that each step's rows are contiguous.


def lstm_step_forward(xw, h_prev, c_prev, Wh):
    """One step from the input projection ``xw``; returns (h, c, cache)."""
    H = h_prev.shape[1]
    a = xw + h_prev @ Wh
    s = sigmoid(a)  # the g block of s is unused
    g = np.tanh(a[:, 2 * H:3 * H])
    c = s[:, 1 * H:2 * H] * c_prev + s[:, 0 * H:1 * H] * g
    tc = np.tanh(c)
    h = s[:, 3 * H:4 * H] * tc
    return h, c, (c_prev, s, g, tc)


def lstm_step_backward(dh, dc, cache, Wh):
    """Backward for one step; returns (da, dh_prev, dc_prev).

    ``dh``/``dc`` are gradients w.r.t. this step's h and c, and ``da`` is the
    gradient w.r.t. the stacked pre-activation.
    """
    c_prev, s, g, tc = cache
    H = g.shape[1]
    i, f, o = s[:, 0 * H:1 * H], s[:, 1 * H:2 * H], s[:, 3 * H:4 * H]
    dc_total = dc + dh * o * (1.0 - tc * tc)
    da = s * (1.0 - s)
    da[:, 0 * H:1 * H] *= dc_total * g
    da[:, 1 * H:2 * H] *= dc_total * c_prev
    da[:, 2 * H:3 * H] = dc_total * i * (1.0 - g * g)
    da[:, 3 * H:4 * H] *= dh * tc
    return da, da @ Wh.T, dc_total * f


def lstm_forward(x, h, c, Wx, Wh, b, mask=None):
    """Unroll the cell over time-major inputs ``x`` (T, B, D) from state (h, c).

    Returns the final (h, c), the states ``hs`` (T+1, B, H), initial one
    first, and the cache for :func:`lstm_backward`.  Rows whose ``mask``
    (T, B, 1) entry is 0 hold their state through that step.
    """
    T, B, D = x.shape
    x2 = x.reshape(T * B, D)
    xw = (x2 @ Wx + b).reshape(T, B, -1)
    hs = np.empty((T + 1,) + h.shape)
    hs[0] = h
    steps = []
    for t in range(T):
        h_new, c_new, step = lstm_step_forward(xw[t], h, c, Wh)
        if mask is not None:
            m = mask[t]
            h_new = m * h_new + (1.0 - m) * h
            c_new = m * c_new + (1.0 - m) * c
        h, c = h_new, c_new
        hs[t + 1] = h
        steps.append(step)
    return h, c, hs, (x2, hs, steps, mask, Wx, Wh)


def lstm_backward(dh, dc, dhs, cache):
    """Backward through :func:`lstm_forward`.

    ``dh``/``dc`` are gradients w.r.t. the final state, and ``dhs`` (T, B, H),
    or None, the gradients reaching each step's output h from elsewhere.
    Returns (dx (T*B, D), dWx, dWh, db, dh0, dc0).
    """
    x2, hs, steps, mask, Wx, Wh = cache
    T = len(steps)
    da = np.empty((T, dh.shape[0], Wh.shape[1]))
    for t in reversed(range(T)):
        if dhs is not None:
            dh = dh + dhs[t]
        if mask is None:
            da[t], dh, dc = lstm_step_backward(dh, dc, steps[t], Wh)
        else:
            m = mask[t]
            da[t], dh_prev, dc_prev = lstm_step_backward(dh * m, dc * m, steps[t], Wh)
            dh = dh_prev + dh * (1.0 - m)
            dc = dc_prev + dc * (1.0 - m)
    da2 = da.reshape(x2.shape[0], -1)
    h_prev = hs[:-1].reshape(x2.shape[0], -1)
    return da2 @ Wx.T, x2.T @ da2, h_prev.T @ da2, np.sum(da2, axis=0), dh, dc


# --- 1-D convolution over a short window ---------------------------------------


def conv1d_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray):
    """Valid-mode 1-D convolution of (B, L) inputs with (F, K) filters -> (B, F, L-K+1)."""
    B, L = x.shape
    F, K = W.shape
    P = L - K + 1
    out = np.empty((B, F, P))
    for p in range(P):
        out[:, :, p] = x[:, p:p + K] @ W.T + b
    return out, (x, W)


def conv1d_backward(dout: np.ndarray, cache):
    x, W = cache
    B, L = x.shape
    F, K = W.shape
    P = L - K + 1
    dx = np.zeros_like(x)
    dW = np.zeros_like(W)
    db = np.sum(dout, axis=(0, 2))
    for p in range(P):
        dx[:, p:p + K] += dout[:, :, p] @ W
        dW += dout[:, :, p].T @ x[:, p:p + K]
    return dx, dW, db


def maxpool_forward(x: np.ndarray):
    """Global max over the last axis of (B, F, P); returns (B, F)."""
    B, F, _ = x.shape
    rows, cols, idx = np.arange(B)[:, None], np.arange(F), np.argmax(x, axis=2)
    return x[rows, cols, idx], (x.shape, (rows, cols, idx))


def maxpool_backward(dout: np.ndarray, cache):
    shape, where = cache
    dx = np.zeros(shape)
    dx[where] = dout
    return dx


# --- optimizer -------------------------------------------------------------------


class Adam:
    """Adaptive-moment estimation with bias correction over one flat buffer.

    Construction copies the parameters into one contiguous float64 buffer
    and rebinds each ``params[name]`` to a same-shaped view of its slot, so
    the model and the optimizer share memory.  A step copies each gradient
    into its slot of a second buffer, then updates the whole buffer with
    in-place operations that allocate nothing and keep the association of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p -= (lr*m_hat) / (sqrt(v_hat) + eps)``.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self._p = np.concatenate([v.ravel() for v in params.values()], dtype=float)
        self._g, self._a, self._b, self.m, self.v = (np.zeros_like(self._p) for _ in range(5))
        cuts = np.cumsum([v.size for v in params.values()])[:-1]
        self._grad_slots = {}
        for (name, value), p, g in zip(list(params.items()), np.split(self._p, cuts),
                                       np.split(self._g, cuts)):
            params[name] = p.reshape(value.shape)
            self._grad_slots[name] = g.reshape(value.shape)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name, slot in self._grad_slots.items():
            np.copyto(slot, grads[name])
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        p, g, m, v, a, b = self._p, self._g, self.m, self.v, self._a, self._b
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=a)
        a *= g
        v += a
        np.divide(v, b2t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        np.divide(m, b1t, out=a)
        a *= self.lr
        a /= b
        p -= a
