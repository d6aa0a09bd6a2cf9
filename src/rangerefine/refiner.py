"""Trainable attention refiner for uncertain points, in plain float32 numpy.

Architecture: a two-layer embedding lifts the 5 + C point features to a
256-d token, four stacked self-attention layers follow (each layer's input
is its predecessor's output), their outputs are concatenated and a
three-layer head maps the 1024-d result to class logits. The embedding and
the head are dense-layer lists that one loop runs forward and another back.

Each attention layer computes Q and K with ONE shared projection (so the raw
score matrix Q K^T is symmetric by construction), V with a second
projection, scales scores by 1/sqrt(d) and applies a row softmax. No
positional encoding is used: the points are an unordered set and the whole
network is permutation-equivariant.

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

# Score elements per attention tile (4 MB of float32): a tile holds
# max(1, _SCORE_BLOCK // n) full query rows, so the score memory of one
# attention layer stays bounded whatever the pool size. BLAS blocks the score
# product by its row count, so another tile height can change the last bits
# of the logits, and with them the byte-compared artifacts.
_SCORE_BLOCK = 2**20

# Adam's moment decays and denominator guard, and the class-weight offset
# eps in w_c = 1 / ln(eps + f_c).
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
CLASS_WEIGHT_EPS = 1.02


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


def _softmax_in_place(x: np.ndarray) -> np.ndarray:
    """Row softmax of ``x``, written over ``x``."""
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def softmax_rows(x: np.ndarray) -> np.ndarray:
    return _softmax_in_place(x.copy())


def _softmax_backward(softmaxed: np.ndarray, grad: np.ndarray, work: np.ndarray) -> np.ndarray:
    """softmaxed * (grad - rowsum(grad * softmaxed)), written over ``grad``;
    ``work``, shaped like ``grad``, holds the product."""
    inner = np.multiply(grad, softmaxed, out=work).sum(axis=1, keepdims=True)
    grad -= inner
    grad *= softmaxed
    return grad


def _tile_rows(n: int) -> int:
    """Query rows per attention tile of an n-entry context."""
    return min(n, max(1, _SCORE_BLOCK // n))


def _attention_rows(q: np.ndarray, s: int, e: int, work: np.ndarray) -> np.ndarray:
    """softmax_rows((q[s:e] @ q.T) / sqrt(d)), computed in place in work[:e - s].

    The same IEEE operations in the same order as the allocating expression,
    so the result is bitwise equal to it.
    """
    attn = np.matmul(q[s:e], q.T, out=work[: e - s])
    attn /= math.sqrt(q.shape[1])  # a Python float keeps the division in q's dtype
    return _softmax_in_place(attn)


def _attention_forward(f_in, wp, bp, wv, bv, out=None):
    n = f_in.shape[0]
    q = f_in @ wp + bp
    v = f_in @ wv + bv
    if out is None:
        out = np.empty_like(v)
    rows = _tile_rows(n)
    work = np.empty((rows, n), dtype=q.dtype)
    for s in range(0, n, rows):
        e = min(s + rows, n)
        np.matmul(_attention_rows(q, s, e, work), v, out=out[s:e])
    return out, (f_in, q, v)


def _attention_backward(cache, wp, wv, d_out):
    """Gradients tile by tile, recomputing each tile's attention rows.

    The scores are symmetric, so d_q = (D + D^T) q for the full score
    gradient D. A row tile D[s:e] adds D[s:e] q to rows s:e and its
    transpose times q[s:e] to every row; the diagonal block of both terms
    is folded into D[s:e] first, so each product runs once.

    Every tile reuses three score-sized workspaces (attention, score
    gradient, the product whose row sum the softmax backward needs) and one
    (n, d) product buffer; each product is formed there, then added.
    """
    f_in, q, v = cache
    n, d = q.shape
    d_q = np.zeros_like(q)
    d_v = np.zeros_like(v)
    rows = _tile_rows(n)
    attn_work = np.empty((rows, n), dtype=q.dtype)
    grad_work = np.empty_like(attn_work)
    prod_work = np.empty_like(attn_work)
    rows_work = np.empty_like(q)
    for s in range(0, n, rows):
        e = min(s + rows, n)
        k = e - s
        attn = _attention_rows(q, s, e, attn_work)
        d_v += np.matmul(attn.T, d_out[s:e], out=rows_work)
        d_scores = np.matmul(d_out[s:e], v.T, out=grad_work[:k])
        _softmax_backward(attn, d_scores, prod_work[:k])
        d_scores /= math.sqrt(d)
        d_scores[:, s:e] += d_scores[:, s:e].T
        d_q[s:e] += np.matmul(d_scores, q, out=rows_work[:k])
        d_q[:s] += np.matmul(d_scores[:, :s].T, q[s:e], out=rows_work[:s])
        d_q[e:] += np.matmul(d_scores[:, e:].T, q[s:e], out=rows_work[: n - e])

    grads = {
        "wp": f_in.T @ d_q,
        "bp": d_q.sum(axis=0),
        "wv": f_in.T @ d_v,
        "bv": d_v.sum(axis=0),
    }
    d_in = d_q @ wp.T + d_v @ wv.T
    return d_in, grads


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

    def set_feature_standardization(self, features: np.ndarray) -> None:
        self.feature_mean = features.mean(axis=0).astype(self.dtype)
        self.feature_scale = np.maximum(features.std(axis=0), 1e-6).astype(self.dtype)

    def forward(self, features: np.ndarray, want_cache: bool = False):
        """Logits (n, C) for feature rows (n, 5 + C)."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.dims.in_dim:
            raise DataFormatError(
                f"features must be (n, {self.dims.in_dim}), got {features.shape}"
            )
        if features.shape[0] < 1:
            raise DataFormatError("forward needs at least one point")
        p = self.params

        x = ((features - self.feature_mean) / self.feature_scale).astype(self.dtype)
        layer_in, embed_cache = self._dense_forward(self.EMBED_LAYERS, x)

        d = self.dims.embed_dim
        concat = np.empty((len(features), self.dims.concat_dim), dtype=self.dtype)
        attn_caches = []
        for i in range(self.dims.attn_layers):
            out, cache = _attention_forward(
                layer_in, p[f"attn{i}.p.w"], p[f"attn{i}.p.b"],
                p[f"attn{i}.v.w"], p[f"attn{i}.v.b"], out=concat[:, i * d : (i + 1) * d],
            )
            if not np.isfinite(out).all():
                raise NumericError(f"non-finite activations in attention layer {i}")
            if want_cache:
                attn_caches.append(cache)
            layer_in = out

        logits, head_cache = self._dense_forward(self.HEAD_LAYERS, concat)
        if not np.isfinite(logits).all():
            raise NumericError("non-finite logits")

        if not want_cache:
            return logits
        return logits, {"embed": embed_cache, "attn": attn_caches, "head": head_cache}

    def backward(self, cache, d_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Analytic gradients of every trainable parameter."""
        p = self.params
        grads: dict[str, np.ndarray] = {}
        d_concat = self._dense_backward(self.HEAD_LAYERS, cache["head"], d_logits, grads)

        d = self.dims.embed_dim
        d_carry = np.zeros_like(d_concat[:, :d])
        for i in reversed(range(self.dims.attn_layers)):
            d_out = d_concat[:, i * d : (i + 1) * d] + d_carry
            d_carry, layer_grads = _attention_backward(
                cache["attn"][i], p[f"attn{i}.p.w"], p[f"attn{i}.v.w"], d_out
            )
            for key, name in (("wp", "p.w"), ("bp", "p.b"), ("wv", "v.w"), ("bv", "v.b")):
                grads[f"attn{i}.{name}"] = layer_grads[key]

        self._dense_backward(self.EMBED_LAYERS, cache["embed"], d_carry, grads)
        return grads

    def _dense_forward(self, layers, x: np.ndarray):
        """Run ``layers`` in order; returns the output and each layer's (input, pre-activation)."""
        cache = []
        for name, relu in layers:
            a = x @ self.params[f"{name}.w"] + self.params[f"{name}.b"]
            cache.append((x, a))
            x = np.maximum(a, 0.0) if relu else a
        return x, cache

    def _dense_backward(self, layers, cache, d_out: np.ndarray, grads: dict) -> np.ndarray:
        """Walk ``layers`` in reverse into ``grads``; returns the gradient of their input."""
        for (name, relu), (x, a) in zip(reversed(layers), reversed(cache)):
            if relu:
                d_out = d_out * (a > 0)
            grads[f"{name}.w"] = x.T @ d_out
            grads[f"{name}.b"] = d_out.sum(axis=0)
            d_out = d_out @ self.params[f"{name}.w"].T
        return d_out


def wce_loss(logits: np.ndarray, targets: np.ndarray, weights: np.ndarray, ignore_class: int):
    """Weighted cross entropy, mean over non-ignored points; returns (loss, d_logits)."""
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=logits.dtype)
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
    targets = np.asarray(targets)
    rows = np.flatnonzero(targets != ignore_class)
    if len(rows) == 0:
        raise DataFormatError("Lovasz loss: every target is ignored")

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


def total_loss(
    model: RefinerModel,
    features: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    ignore_class: int,
) -> LossResult:
    """Combined loss (cross entropy + Lovasz) with full parameter gradients."""
    logits, cache = model.forward(features, want_cache=True)
    wce, d_logits_wce = wce_loss(logits, targets, weights, ignore_class)
    probs = softmax_rows(logits)
    lovasz, d_probs = lovasz_softmax_loss(probs, targets, ignore_class)
    d_logits = d_logits_wce + _softmax_backward(probs, d_probs, np.empty_like(d_probs))
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


class Adam:
    """Classic Adam with bias correction; state keyed like the param dict."""

    def __init__(self, model: RefinerModel, cfg: TrainConfig):
        self.model = model
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.t = 0

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


def class_frequency_weights(label_arrays, num_classes: int, ignore_class: int) -> np.ndarray:
    """w_c = 1 / ln(eps + f_c) from corpus class frequencies; ignore weight 0."""
    counts = np.zeros(num_classes, dtype=np.int64)
    for labels in label_arrays:
        counts += np.bincount(np.asarray(labels), minlength=num_classes)
    counts[ignore_class] = 0
    total = counts.sum()
    if total == 0:
        raise DataFormatError("cannot derive class weights: no labeled points")
    weights = 1.0 / np.log(CLASS_WEIGHT_EPS + counts / total)
    weights[ignore_class] = 0.0
    return weights


@dataclass
class EpochStats:
    epoch: int
    loss: float
    wce: float
    lovasz: float


def train(
    model: RefinerModel,
    scans: dict[str, tuple[UncertainPointSet, np.ndarray]],
    cfg: TrainConfig,
    n_u: int,
    ignore_class: int,
) -> list[EpochStats]:
    """Train in place on scan id -> (pool, ground-truth labels); returns the epoch log.

    One optimizer step per scan per epoch, on a freshly sampled batch of at
    most ``n_u`` pool entries. Scan order is reshuffled each epoch; all
    randomness derives from ``cfg.seed`` and the scans' positions among those
    with a non-empty pool, so identical runs produce bit-identical
    parameters. The coarse probabilities inside the features are plain
    inputs: nothing upstream of the refiner is updated. A failing step names
    its epoch and its scan id.
    """
    scans = [(sid, pool, np.asarray(gt)) for sid, (pool, gt) in scans.items() if len(pool) > 0]
    if not scans:
        raise DataFormatError("training needs at least one scan with a non-empty pool")
    for _, pool, gt in scans:
        if len(gt) != len(pool):
            raise DataFormatError("ground-truth labels must cover the pool")

    weights = class_frequency_weights([gt for _, _, gt in scans], model.dims.num_classes, ignore_class)

    model.set_feature_standardization(
        np.concatenate([pool.features for _, pool, _ in scans], axis=0)
    )

    optimizer = Adam(model, cfg)
    log: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        order = generator("epoch-order", cfg.seed, epoch).permutation(len(scans))
        totals = np.zeros(3)
        for scan_index in order:
            sid, pool, gt = scans[scan_index]
            pos = sample_positions(
                len(pool), n_u, derive_seed(cfg.seed, "batch", epoch, int(scan_index))
            )
            with located(f"training failed at epoch {epoch}, scan {sid}"):
                result = total_loss(model, pool.features[pos], gt[pos], weights, ignore_class)
            optimizer.step(result.grads)
            totals += (result.total, result.wce, result.lovasz)
        mean = totals / len(scans)
        log.append(EpochStats(epoch=epoch, loss=mean[0], wce=mean[1], lovasz=mean[2]))
    return log


def refine(model: RefinerModel, pool: UncertainPointSet) -> np.ndarray:
    """Predicted class per pool entry (argmax, ties to the smaller id).

    The whole pool is one attention context, as in the paper. Attention runs
    in row tiles, so memory stays bounded for any pool size while time grows
    as the square of the pool size.
    """
    return np.argmax(model.forward(pool.features), axis=1).astype(np.int32)


def _checkpoint_arrays(model: RefinerModel) -> list[np.ndarray]:
    """The stored arrays in file order: parameters as declared, feature mean, feature scale."""
    return [*model.params.values(), model.feature_mean, model.feature_scale]


def save_checkpoint(model: RefinerModel, path) -> None:
    """Magic + version + dims header, then raw little-endian float32 blocks in declaration order."""
    header = CHECKPOINT_MAGIC + struct.pack("<8I", CHECKPOINT_VERSION, *astuple(model.dims))
    blocks = [np.ascontiguousarray(a, dtype="<f4").tobytes() for a in _checkpoint_arrays(model)]
    atomic_write_bytes(path, header + b"".join(blocks))


def load_checkpoint(path) -> RefinerModel:
    """Read a checkpoint; the header is checked against the file size before
    any array is allocated, so a corrupt header cannot exhaust memory."""
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
    for a in _checkpoint_arrays(model):  # the fresh model's own arrays, overwritten in place
        a[...] = np.frombuffer(data, dtype="<f4", count=a.size, offset=offset).reshape(a.shape)
        offset += 4 * a.size
    return model
