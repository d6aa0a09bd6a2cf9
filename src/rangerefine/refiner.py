"""Trainable attention refiner for uncertain points, in plain float32 numpy.

Architecture: a two-layer embedding lifts the 5 + C point features to a
256-d token, four stacked self-attention layers follow (each layer's input
is its predecessor's output), their outputs are concatenated and a
three-layer head maps the 1024-d result to class logits. Every learned
weight is a dense layer: one loop runs the embedding, each attention layer's
projections and the head forward, and another runs them back.

Each attention layer computes Q and K with ONE shared projection (so the raw
score matrix Q K^T is symmetric by construction) and V with a second, both
dense layers without a ReLU. The attention kernel takes (q, v) and holds no
parameters: it scales scores by 1/sqrt(d) and applies a row softmax. No
positional encoding is used: the points are an unordered set and the whole
network is permutation-equivariant.

The symmetry saves up to half of the score products. Attention cuts its rows
into blocks and sweeps the block pairs (a, b) with a <= b, computing each
score block once.
Rows a read it as it is and rows b read its transpose, each through an
online softmax: a running max and sum per row, rescaled when a larger score
arrives (Milakov & Gimelshein, arXiv 1805.02867). The backward pass sweeps
the same pairs and recomputes each block's probabilities from the cached
per-row log-sum-exp, as FlashAttention does (Dao et al., arXiv 2205.14135).
Memory stays bounded by a few score blocks whatever the pool size.

The loss is weighted softmax cross-entropy plus the Lovasz-Softmax Jaccard
surrogate; gradients are exact analytic expressions, verified against
central finite differences in the test suite.

Parameters, activations, gradients, Adam state and checkpoint blocks are
float32: the model creates its arrays as ``DTYPE`` and every other array
follows the dtype of its inputs. The float64 pool features are cast once,
after standardization, so a model whose arrays are cast to float64 computes
in float64 throughout (the test suite's oracles run it that way).
"""

from __future__ import annotations

import math
import struct
import tempfile
from collections.abc import Iterable
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from ._rand import derive_seed, generator
from .errors import DataFormatError, NumericError, check_field_types, located
from .kitti_io import atomic_write_bytes
from .uncertainty import UncertainPointSet, sample_positions

CHECKPOINT_MAGIC = b"TUPR"
CHECKPOINT_VERSION = 2

# The dtype of every parameter and buffer a new model creates.
DTYPE = np.float32

# Rows per attention block, at most. An n-entry context is cut into
# max(2, ceil(n / _BLOCK_ROWS)) blocks of equal height (the last may be
# shorter), so a layer's score workspaces hold at most _BLOCK_ROWS^2 entries
# each. Larger blocks made the forward pass faster and smaller ones the
# backward pass; 768 sits between them. BLAS blocks a product by its shape,
# so another height can change the last bits of the logits.
_BLOCK_ROWS = 768

# Adam's moment decays and denominator guard, and the class-weight offset
# eps in w_c = 1 / ln(eps + f_c).
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
CLASS_WEIGHT_EPS = 1.02

# The least feature scale: a feature's std is floored here, and a checkpoint
# with a smaller scale is refused.
SCALE_FLOOR = 1e-6


@dataclass(frozen=True)
class ModelDims:
    in_dim: int = 25
    embed_hidden: int = 128
    embed_dim: int = 256
    attn_layers: int = 4
    head_hidden1: int = 512
    head_hidden2: int = 256
    num_classes: int = 20

    @property
    def concat_dim(self) -> int:
        return self.attn_layers * self.embed_dim

    def dense_layers(self) -> list[tuple[str, int, int]]:
        """(name, fan_in, fan_out) of every dense layer, in declaration (and checkpoint) order."""
        attn = [(f"attn{i}.{w}", self.embed_dim, self.embed_dim)
                for i in range(self.attn_layers) for w in ("p", "v")]
        return [
            ("embed0", self.in_dim, self.embed_hidden),
            ("embed1", self.embed_hidden, self.embed_dim),
            *attn,
            ("head0", self.concat_dim, self.head_hidden1),
            ("head1", self.head_hidden1, self.head_hidden2),
            ("head2", self.head_hidden2, self.num_classes),
        ]


def softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_backward(softmaxed: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient through a row softmax: softmaxed * (grad - rowsum(grad * softmaxed))."""
    return softmaxed * (grad - (grad * softmaxed).sum(axis=1, keepdims=True))


def _blocks(n: int) -> list[slice]:
    """Row slices of the attention blocks of an n-entry context: at least two
    (one block would compute every score twice), of at most _BLOCK_ROWS rows."""
    height = -(-n // max(2, -(-n // _BLOCK_ROWS)))
    return [slice(s, min(s + height, n)) for s in range(0, n, height)]


def _block_pairs(n: int) -> list[tuple[slice, slice]]:
    """Every block pair (a, b) with a <= b, each block b's diagonal (b, b)
    first: the order fixes the online softmax's rounding, not its result."""
    blocks = _blocks(n)
    return [(a, b) for j, b in enumerate(blocks) for a in (b, *blocks[:j])]


def _scores(qs: np.ndarray, q: np.ndarray, a: slice, b: slice, work: np.ndarray) -> np.ndarray:
    """qs[a] @ q[b].T in ``work``: the one score product of block pair (a, b)."""
    return np.matmul(qs[a], q[b].T, out=work[: a.stop - a.start, : b.stop - b.start])


def _absorb(s, p, m, l, o, v, work):
    """Fold score block ``s`` into its rows' running max ``m``, running sum ``l``
    and un-normalised output ``o``, in place. ``p`` (``s`` itself allowed)
    receives exp(s - new max); ``v`` holds the columns' values."""
    m_new = np.maximum(m, s.max(axis=1))
    np.subtract(s, m_new[:, None], out=p)
    np.exp(p, out=p)
    scale = np.exp(m - m_new)
    m[...] = m_new
    l *= scale
    l += p.sum(axis=1)
    o *= scale[:, None]
    o += np.matmul(p, v, out=work)


def _attention_forward(q, v, out):
    """softmax(q q^T / sqrt(d)) v into ``out``; returns each row's log-sum-exp.
    Pair (a, b)'s score block updates rows a and, transposed, rows b (once for
    a diagonal block)."""
    n, d = q.shape
    out[...] = 0.0
    qs = q * (1.0 / math.sqrt(d))  # a Python float keeps q's dtype
    m = np.full(n, -np.inf, dtype=q.dtype)
    l = np.zeros_like(m)
    height = _blocks(n)[0].stop
    score_work = np.empty((height, height), dtype=q.dtype)
    exp_work = np.empty_like(score_work)
    rows_work = np.empty((height, d), dtype=q.dtype)
    for a, b in _block_pairs(n):
        s = _scores(qs, q, a, b, score_work)
        k, c = s.shape
        _absorb(s, exp_work[:k, :c], m[a], l[a], out[a], v[b], rows_work[:k])
        if a != b:
            _absorb(s.T, s.T, m[b], l[b], out[b], v[a], rows_work[:c])
    out /= l[:, None]
    lse = np.log(l, out=l)
    lse += m
    return lse


def _attention_backward(q, v, out, lse, d_out):
    """(d_q, d_v), block pair by block pair, recomputing each score block once.

    Rows a and rows b of a pair each give a score gradient; their sum G (a
    diagonal block's plus its transpose) adds G qs[b] to d_q[a] and G^T qs[a]
    to d_q[b]. The softmax backward's row term is rowsum(d_out * out). Every
    product is formed in a reused workspace, then added.
    """
    n, d = q.shape
    qs = q * (1.0 / math.sqrt(d))
    row_term = np.einsum("ij,ij->i", d_out, out)
    d_q = np.zeros_like(q)
    d_v = np.zeros_like(v)
    height = _blocks(n)[0].stop
    score_work = np.empty((height, height), dtype=q.dtype)
    prob_work = np.empty_like(score_work)
    grad_work = np.empty_like(score_work)
    rows_work = np.empty((height, d), dtype=q.dtype)
    for a, b in _block_pairs(n):
        s = _scores(qs, q, a, b, score_work)
        k, c = s.shape
        p = np.subtract(s, lse[a, None], out=prob_work[:k, :c])  # rows a against columns b
        np.exp(p, out=p)
        d_v[b] += np.matmul(p.T, d_out[a], out=rows_work[:c])
        g = np.matmul(d_out[a], v[b].T, out=grad_work[:k, :c])
        g -= row_term[a, None]
        g *= p
        if a == b:
            g = np.add(g, g.T, out=p)
        else:
            pt = s  # rows b against columns a, in the (a, b) layout
            pt -= lse[None, b]
            np.exp(pt, out=pt)
            d_v[a] += np.matmul(pt, d_out[b], out=rows_work[:k])
            gt = np.matmul(v[a], d_out[b].T, out=p)
            gt -= row_term[None, b]
            gt *= pt
            g += gt
            d_q[b] += np.matmul(g.T, qs[a], out=rows_work[:c])
        d_q[a] += np.matmul(g, qs[b], out=rows_work[:k])
    return d_q, d_v


class RefinerModel:
    """All learnable parameters plus the (non-trained) input standardization.

    Parameter blocks, in declaration (and checkpoint) order: the two
    embedding layers, per attention layer the shared Q/K projection and the
    V projection, the three head layers, then the feature mean and scale
    buffers.
    """

    # Dense layers as (name, relu), run in order by forward and in reverse by backward.
    EMBED_LAYERS = (("embed0", True), ("embed1", True))
    HEAD_LAYERS = (("head0", True), ("head1", True), ("head2", False))

    def __init__(self, dims: ModelDims, seed: int = 0):
        self.dims = dims
        rng = generator("refiner-init", seed)
        self.params: dict[str, np.ndarray] = {}

        for name, fan_in, fan_out in dims.dense_layers():
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.params[f"{name}.w"] = w.astype(DTYPE)
            self.params[f"{name}.b"] = np.zeros(fan_out, dtype=DTYPE)

        self.feature_mean = np.zeros(dims.in_dim, dtype=DTYPE)
        self.feature_scale = np.ones(dims.in_dim, dtype=DTYPE)

    @property
    def dtype(self) -> np.dtype:
        """The dtype the model computes in: that of its parameters."""
        return self.params["embed0.w"].dtype

    def set_feature_moments(self, mean: np.ndarray, std: np.ndarray) -> None:
        """Standardize by a feature mean and std (floored at SCALE_FLOOR), as
        ``train`` streams them over its pools."""
        self.feature_mean = mean.astype(self.dtype)
        self.feature_scale = np.maximum(std, SCALE_FLOOR).astype(self.dtype)

    @np.errstate(over="ignore", invalid="ignore")  # the finite checks below decide
    def forward(self, features: np.ndarray, want_cache: bool = False):
        """Logits (n, C) for feature rows (n, 5 + C)."""
        x = ((features - self.feature_mean) / self.feature_scale).astype(self.dtype)
        layer_in, embed_cache = self._dense_forward(self.EMBED_LAYERS, x)

        d = self.dims.embed_dim
        concat = np.empty((len(features), self.dims.concat_dim), dtype=self.dtype)
        attn_caches = []
        for i in range(self.dims.attn_layers):
            q, _ = self._dense_forward(((f"attn{i}.p", False),), layer_in)
            v, _ = self._dense_forward(((f"attn{i}.v", False),), layer_in)
            out = concat[:, i * d : (i + 1) * d]
            lse = _attention_forward(q, v, out)
            if not np.isfinite(out).all():
                raise NumericError(f"non-finite activations in attention layer {i}")
            if want_cache:
                attn_caches.append((layer_in, q, v, out, lse))
            layer_in = out

        logits, head_cache = self._dense_forward(self.HEAD_LAYERS, concat)
        if not np.isfinite(logits).all():
            raise NumericError("non-finite logits")

        if not want_cache:
            return logits
        return logits, {"embed": embed_cache, "attn": attn_caches, "head": head_cache}

    def backward(self, cache, d_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Analytic gradients of every trainable parameter.

        Each layer's activations are released as soon as its gradients are
        taken, so ``cache`` is consumed: it is left empty.
        """
        grads: dict[str, np.ndarray] = {}
        d_concat = self._dense_backward(self.HEAD_LAYERS, cache.pop("head"), d_logits, grads)

        d = self.dims.embed_dim
        attn_caches = cache.pop("attn")
        d_carry = np.zeros_like(d_concat[:, :d])
        for i in reversed(range(self.dims.attn_layers)):
            d_out = d_concat[:, i * d : (i + 1) * d] + d_carry
            f_in, q, v, out, lse = attn_caches.pop()
            d_q, d_v = _attention_backward(q, v, out, lse, d_out)
            d_carry = self._dense_backward(((f"attn{i}.p", False),), [(f_in, q)], d_q, grads)
            d_carry += self._dense_backward(((f"attn{i}.v", False),), [(f_in, v)], d_v, grads)
            del d_q, d_v  # before the next layer's sweep allocates its own

        self._dense_backward(self.EMBED_LAYERS, cache.pop("embed"), d_carry, grads)
        return grads

    def _dense_forward(self, layers, x: np.ndarray):
        """Run ``layers`` in order; returns the output and each layer's (input, output).

        A layer's output is the next layer's input, one array cached once. The
        ReLU is applied in place: the backward mask ``y > 0`` equals ``a > 0``
        on the pre-activation ``a`` bit for bit, NaN included.
        """
        cache = []
        for name, relu in layers:
            y = x @ self.params[f"{name}.w"]
            y += self.params[f"{name}.b"]
            if relu:
                np.maximum(y, 0.0, out=y)
            cache.append((x, y))
            x = y
        return x, cache

    def _dense_backward(self, layers, cache: list, d_out: np.ndarray, grads: dict) -> np.ndarray:
        """Walk ``layers`` in reverse into ``grads``, popping each layer's cache
        entry as it goes; returns the gradient of their input."""
        for name, relu in reversed(layers):
            x, y = cache.pop()
            if relu:
                d_out = d_out * (y > 0)
            grads[f"{name}.w"] = x.T @ d_out
            grads[f"{name}.b"] = d_out.sum(axis=0)
            d_out = d_out @ self.params[f"{name}.w"].T
        return d_out


def wce_loss(logits: np.ndarray, targets: np.ndarray, weights: np.ndarray, ignore_class: int):
    """Weighted cross entropy, mean over non-ignored points; returns (loss, d_logits)."""
    weights = weights.astype(logits.dtype, copy=False)  # class weights are float64
    n = logits.shape[0]
    mask = targets != ignore_class
    m = int(mask.sum())
    if m == 0:
        raise DataFormatError("weighted cross entropy: every target is ignored")

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    w = np.where(mask, weights[targets], 0.0)
    loss = float(-(w * log_probs[rows, targets])[mask].sum() / m)

    d_logits = np.exp(log_probs)
    d_logits[rows, targets] -= 1.0
    d_logits *= (w / m)[:, None]
    return loss, d_logits


def lovasz_softmax_loss(probs: np.ndarray, targets: np.ndarray, ignore_class: int):
    """Lovasz extension of the per-class Jaccard loss, mean over present classes.

    Per class c: errors m_i = |1{y_i = c} - p_i(c)| are sorted descending
    (ties keep original order) and dotted with the discrete gradient of the
    Jaccard loss along that order. Returns (loss, d_probs); the gradient
    uses the subgradient of the stable ordering.
    """
    rows = np.flatnonzero(targets != ignore_class)
    kept_targets = targets[rows]
    present = np.unique(kept_targets)
    d_probs = np.zeros_like(probs)
    total = 0.0
    for c in present:
        fg = (kept_targets == c).astype(probs.dtype)
        p_c = probs[rows, c]
        errors = np.abs(fg - p_c)
        order = np.argsort(-errors, kind="stable")
        fg_sorted = fg[order]
        fg_total = fg_sorted.sum()
        intersection = fg_total - np.cumsum(fg_sorted)
        union = fg_total + np.cumsum(1.0 - fg_sorted)
        jaccard = 1.0 - intersection / union
        grad = np.empty_like(jaccard)
        grad[0] = jaccard[0]
        grad[1:] = jaccard[1:] - jaccard[:-1]
        total += float(errors[order] @ grad)

        d_err = np.empty_like(grad)
        d_err[order] = grad
        d_probs[rows, c] += -np.sign(fg - p_c) * d_err

    total /= len(present)
    d_probs /= len(present)
    return total, d_probs


@dataclass
class LossResult:
    total: float
    wce: float
    lovasz: float
    grads: dict[str, np.ndarray]


@np.errstate(over="ignore", invalid="ignore")  # the loss is checked below
def total_loss(
    model: RefinerModel,
    features: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    ignore_class: int,
) -> LossResult:
    """Combined loss (cross entropy + Lovasz) with full parameter gradients."""
    logits, cache = model.forward(features, want_cache=True)
    wce, d_logits = wce_loss(logits, targets, weights, ignore_class)
    probs = softmax_rows(logits)
    del logits
    lovasz, d_probs = lovasz_softmax_loss(probs, targets, ignore_class)
    d_logits += _softmax_backward(probs, d_probs)
    del probs, d_probs
    grads = model.backward(cache, d_logits)
    result = LossResult(total=wce + lovasz, wce=wce, lovasz=lovasz, grads=grads)
    if not np.isfinite(result.total):
        raise NumericError(f"non-finite loss: wce={wce}, lovasz={lovasz}")
    return result


@dataclass
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1:
            raise DataFormatError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise DataFormatError("learning_rate must be > 0")
        if self.learning_rate > float(np.finfo(DTYPE).max):  # inf in the float32 step
            raise DataFormatError("learning_rate must be <= 3.4e38, the float32 maximum")


class Adam:
    """Classic Adam with bias correction; state keyed like the param dict."""

    def __init__(self, model: RefinerModel, cfg: TrainConfig):
        self.model = model
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.t = 0

    @np.errstate(over="ignore", invalid="ignore")  # train checks the parameters
    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        correction1 = 1.0 - BETA1**self.t
        correction2 = 1.0 - BETA2**self.t
        for key, param in self.model.params.items():
            g, m, v = grads[key], self.m[key], self.v[key]
            # In place, in the order of the textbook expressions
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # param -= lr m_hat / (sqrt(v_hat) + eps), so every bit is kept.
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            step = m / correction1
            step *= self.cfg.learning_rate
            denom = v / correction2
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            param -= step


def class_frequency_weights(counts: np.ndarray, ignore_class: int) -> np.ndarray:
    """w_c = 1 / ln(eps + f_c) from the corpus's per-class point counts; ignore weight 0."""
    counts = np.array(counts, dtype=np.int64)  # a copy: the ignore class's count is dropped
    counts[ignore_class] = 0
    total = counts.sum()
    if total == 0:
        raise DataFormatError("cannot derive class weights: no labeled points")
    weights = 1.0 / np.log(CLASS_WEIGHT_EPS + counts / total)
    weights[ignore_class] = 0.0
    return weights


def _add_rows(carry: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """carry + rows[0] + rows[1] + ..., added left to right.

    numpy reduces a C-contiguous 2-D array over axis 0 by adding its rows in
    order to a row of +0.0, so carrying this sum from pool to pool, starting
    at a row of +0.0, adds the rows of the concatenated pools in the same
    order, bit for bit. (A sum that starts at +0.0 is never -0.0, so the
    carry passes unchanged through the +0.0 that each reduction starts from.)
    """
    return np.concatenate([carry[None], rows]).sum(axis=0)


def _spill(pools: Iterable, spill, dims: ModelDims, ignore_class: int):
    """Append each non-empty pool's features and ground truth to ``spill`` as
    it arrives; returns the (scan id, file offset) of each, the class weights,
    and the feature mean and std over every pool, holding one pool at a time.

    The exact class counts and the feature row sum are taken as each pool
    arrives, the squared deviations from the mean in one pass over the file.
    Each result equals its value over the concatenated pools bit for bit:
    ``class_frequency_weights`` of the counts, ``features.mean(axis=0)`` and
    ``features.std(axis=0)``.
    """
    kept = []
    counts = np.zeros(dims.num_classes, dtype=np.int64)
    row_sum, rows = np.zeros(dims.in_dim), 0
    for sid, features, gt in pools:
        if len(features):
            kept.append((sid, spill.tell()))
            np.save(spill, features)
            np.save(spill, gt)
            counts += np.bincount(gt, minlength=dims.num_classes)
            row_sum = _add_rows(row_sum, features)
            rows += len(features)
        del features, gt  # this pool goes before the next one is built
    if not kept:
        raise DataFormatError("training needs at least one scan with a non-empty pool")
    mean = row_sum / rows
    square_sum = np.zeros(dims.in_dim)
    for _, offset in kept:
        spill.seek(offset)
        deviation = np.load(spill) - mean
        deviation *= deviation
        square_sum = _add_rows(square_sum, deviation)
    return kept, class_frequency_weights(counts, ignore_class), mean, np.sqrt(square_sum / rows)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    wce: float
    lovasz: float


def train(
    model: RefinerModel,
    pools: Iterable[tuple[str, np.ndarray, np.ndarray]],
    cfg: TrainConfig,
    n_u: int,
    ignore_class: int,
) -> list[EpochStats]:
    """Train in place on (scan id, pool features, ground-truth labels) tuples;
    returns the epoch log.

    Each pool is appended to one unnamed temporary file as it arrives and read
    back for the statistics and for each step, so one pool is held at a time
    and memory does not grow with the corpus; the file goes however the
    process ends. One optimizer step per scan per epoch, on a freshly sampled
    batch of at most ``n_u`` pool entries. Scan order is reshuffled each
    epoch; all randomness derives from ``cfg.seed`` and the scans' positions
    among those with a non-empty pool, so identical runs produce
    bit-identical parameters. The coarse probabilities inside the features
    are plain inputs: nothing upstream of the refiner is updated. A failing
    step names its epoch and its scan id, and an epoch that leaves a
    non-finite parameter names its epoch and the parameter's block.
    """
    with tempfile.TemporaryFile() as spill:
        scans, weights, feature_mean, feature_std = _spill(pools, spill, model.dims, ignore_class)
        model.set_feature_moments(feature_mean, feature_std)

        optimizer = Adam(model, cfg)
        log: list[EpochStats] = []
        for epoch in range(cfg.epochs):
            order = generator("epoch-order", cfg.seed, epoch).permutation(len(scans))
            totals = np.zeros(3)
            for scan_index in order:
                sid, offset = scans[scan_index]
                spill.seek(offset)
                features, gt = np.load(spill), np.load(spill)
                pos = sample_positions(
                    len(features), n_u, derive_seed(cfg.seed, "batch", epoch, int(scan_index))
                )
                # The previous step's gradients go before this step's forward and
                # backward. Not right after Adam: freed then, they leave the heap top
                # unused, and glibc trims it and faults it back in on every step; the
                # pool just loaded keeps the top in use.
                result = None
                with located(f"training failed at epoch {epoch}, scan {sid}"):
                    result = total_loss(model, features[pos], gt[pos], weights, ignore_class)
                optimizer.step(result.grads)
                totals += (result.total, result.wce, result.lovasz)
            for name, param in model.params.items():
                if not np.isfinite(param).all():
                    raise NumericError(f"training failed at epoch {epoch}: "
                                       f"block {name} holds a non-finite value")
            mean = totals / len(scans)
            log.append(EpochStats(epoch=epoch, loss=mean[0], wce=mean[1], lovasz=mean[2]))
    return log


def refine(model: RefinerModel, pool: UncertainPointSet) -> np.ndarray:
    """Predicted class per pool entry (argmax, ties to the smaller id).

    The whole pool is one attention context, as in the paper. Attention runs
    over pairs of row blocks, so memory stays bounded for any pool size while
    time grows as the square of the pool size.
    """
    return np.argmax(model.forward(pool.features), axis=1).astype(np.int32)


def _checkpoint_blocks(model: RefinerModel) -> dict[str, np.ndarray]:
    """The stored arrays by block name, in file order: parameters as declared,
    feature mean, feature scale."""
    return {**model.params, "feature_mean": model.feature_mean, "feature_scale": model.feature_scale}


def save_checkpoint(model: RefinerModel, path) -> None:
    """Magic + version + dims header, then raw little-endian float32 blocks in declaration order."""
    header = CHECKPOINT_MAGIC + struct.pack("<8I", CHECKPOINT_VERSION, *astuple(model.dims))
    blocks = [np.ascontiguousarray(a, dtype="<f4").tobytes() for a in _checkpoint_blocks(model).values()]
    atomic_write_bytes(path, header + b"".join(blocks))


def load_checkpoint(path) -> RefinerModel:
    """Read a checkpoint; the header is checked against the file size before
    any array is allocated, so a corrupt header cannot exhaust memory. Every
    value must be finite and every feature scale at least SCALE_FLOOR, as
    ``train`` writes them."""
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: not a refiner checkpoint (bad magic)")
    offset = 4 + struct.calcsize("<8I")
    if len(data) < offset:
        raise DataFormatError(f"{path}: truncated header ({len(data)} of {offset} bytes)")
    version, *dims = struct.unpack_from("<8I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    if min(dims) < 1:
        raise DataFormatError(f"{path}: header dims must be >= 1, got {dims}")
    dims = ModelDims(*dims)
    # every weight and bias, then the feature mean and scale
    values = sum(n_out * (n_in + 1) for _, n_in, n_out in dims.dense_layers()) + 2 * dims.in_dim
    expected = offset + 4 * values
    if len(data) != expected:
        raise DataFormatError(
            f"{path}: size {len(data)} does not match header (expected {expected})"
        )
    model = RefinerModel(dims)
    for name, a in _checkpoint_blocks(model).items():  # the fresh model's own arrays, overwritten in place
        a[...] = np.frombuffer(data, dtype="<f4", count=a.size, offset=offset).reshape(a.shape)
        offset += 4 * a.size
        if not np.isfinite(a).all():
            raise DataFormatError(f"{path}: block {name} holds a non-finite value")
    if (model.feature_scale < DTYPE(SCALE_FLOOR)).any():
        raise DataFormatError(f"{path}: block feature_scale holds a value below {SCALE_FLOOR:g}")
    return model
