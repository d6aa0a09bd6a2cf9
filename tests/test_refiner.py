import copy
import math
import struct
import tracemalloc

import numpy as np
import pytest

from rangerefine import refiner
from rangerefine.errors import DataFormatError, NumericError
from rangerefine.refiner import (
    ADAM_EPS,
    BETA1,
    BETA2,
    Adam,
    ModelDims,
    RefinerModel,
    TrainConfig,
    class_frequency_weights,
    load_checkpoint,
    lovasz_softmax_loss,
    refine,
    save_checkpoint,
    softmax_rows,
    total_loss,
    train,
    wce_loss,
)
from rangerefine.uncertainty import UncertainPointSet

TINY = ModelDims(
    in_dim=25, embed_hidden=16, embed_dim=32, attn_layers=2,
    head_hidden1=32, head_hidden2=16, num_classes=4,
)
# An ignore id past TINY's classes: no target uses it, so the losses count every point.
NO_CLASS = TINY.num_classes


def float64_model(model):
    """Cast the model's parameters and feature standardization to float64, in place.

    The model then computes in float64 end to end, which the finite-difference
    checks and the straight-line oracles need; returns the model.
    """
    model.params = {k: p.astype(np.float64) for k, p in model.params.items()}
    model.feature_mean = model.feature_mean.astype(np.float64)
    model.feature_scale = model.feature_scale.astype(np.float64)
    return model


def fd_check(fn, array, analytic, rel_tol, h_scale=1e-5, floor=1e-4):
    """Central finite differences vs analytic gradient, hybrid abs/rel error."""
    flat = array.ravel()
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        h = h_scale * max(1.0, abs(orig))
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        fd = (up - down) / (2 * h)
        an = analytic.ravel()[i]
        err = abs(fd - an)
        if max(abs(fd), abs(an)) > floor:
            err /= max(abs(fd), abs(an))
        worst = max(worst, err)
        assert err < rel_tol, f"index {i}: fd={fd}, analytic={an}, err={err}"
    return worst


# --- attention layer ---


def softmax_oracle(rows):
    """Explicit-loop row softmax: no shared code with the implementation."""
    out = []
    for row in rows:
        mx = max(row)
        exps = [math.exp(s - mx) for s in row]
        denom = sum(exps)
        out.append([e / denom for e in exps])
    return out


def attention_oracle(x, wp, bp, wv, bv):
    """Explicit-loop attention: no shared code with the implementation."""
    n, din = x.shape
    d = wp.shape[1]
    q = [[sum(x[i][k] * wp[k][j] for k in range(din)) + bp[j] for j in range(d)] for i in range(n)]
    v = [[sum(x[i][k] * wv[k][j] for k in range(din)) + bv[j] for j in range(d)] for i in range(n)]
    scores = [[sum(q[i][k] * q[j][k] for k in range(d)) / math.sqrt(d) for j in range(n)] for i in range(n)]
    attn = softmax_oracle(scores)
    return np.array([[sum(attn[i][j] * v[j][k] for j in range(n)) for k in range(d)] for i in range(n)])


def random_layer(rng, n, d_in, d):
    x = rng.normal(size=(n, d_in))
    wp = rng.normal(size=(d_in, d)) / np.sqrt(d_in)
    bp = rng.normal(size=d) * 0.1
    wv = rng.normal(size=(d_in, d)) / np.sqrt(d_in)
    bv = rng.normal(size=d) * 0.1
    return x, wp, bp, wv, bv


def test_single_token_returns_v(rng):
    x, wp, bp, wv, bv = random_layer(rng, 1, 8, 8)
    out = refiner._attention_forward(x, wp, bp, wv, bv)[0]
    v = x @ wv + bv
    assert np.abs(out - v).max() < 1e-12


def test_identical_rows_average_v(rng):
    x, _, bp, wv, bv = random_layer(rng, 2, 8, 8)
    x[1] = x[0]  # identical tokens -> identical Q rows -> uniform attention
    wp = rng.normal(size=(8, 8))
    out = refiner._attention_forward(x, wp, bp, wv, bv)[0]
    v = x @ wv + bv
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_matches_straightline_oracle(rng):
    for _ in range(5):
        x, wp, bp, wv, bv = random_layer(rng, 4, 8, 8)
        got = refiner._attention_forward(x, wp, bp, wv, bv)[0]
        want = attention_oracle(x, wp, bp, wv, bv)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-10


def test_attention_rows_softmax_and_symmetry(rng):
    x, wp, bp, wv, bv = random_layer(rng, 16, 12, 12)
    q = x @ wp + bp
    scores = q @ q.T
    assert np.abs(scores - scores.T).max() < 1e-9
    attn = np.array(softmax_oracle(scores / np.sqrt(12)))
    assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-9
    assert (attn >= 0).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_path_softmax_kernels_bitwise(rng, dtype):
    # the loss's softmax kernels against the textbook expressions
    x = (4.0 * rng.normal(size=(37, 11))).astype(dtype)
    kept = x.copy()
    e = np.exp(x - x.max(axis=1, keepdims=True))
    s = softmax_rows(x)
    assert s.dtype == dtype and x.tobytes() == kept.tobytes()
    assert s.tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()
    g = rng.normal(size=x.shape).astype(dtype)
    want = s * (g - (g * s).sum(1, keepdims=True))
    got = refiner._softmax_backward(s, g)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


# --- block pairs ---


def blockpair_attention(x, wp, bp, wv, bv, blocks):
    """The block-pair sweep as allocating straight-line expressions, which the
    in-place forward must equal bit for bit; returns the output and the lse."""
    q = x @ wp + bp
    v = x @ wv + bv
    qs = q * (1.0 / math.sqrt(q.shape[1]))
    m, l, o = [], [], []
    for j, b in enumerate(blocks):
        s = qs[b] @ q[b].T
        m.append(s.max(axis=1))
        p = np.exp(s - m[j][:, None])
        l.append(p.sum(axis=1))
        o.append(p @ v[b])
        for i, a in enumerate(blocks[:j]):
            s = qs[a] @ q[b].T
            m_new = np.maximum(m[i], s.max(axis=1))  # rows a against columns b
            p = np.exp(s - m_new[:, None])
            scale = np.exp(m[i] - m_new)
            l[i] = l[i] * scale + p.sum(axis=1)
            o[i] = o[i] * scale[:, None] + p @ v[b]
            m[i] = m_new
            m_new = np.maximum(m[j], s.max(axis=0))  # rows b against columns a
            p = np.exp(s - m_new[None, :])
            scale = np.exp(m[j] - m_new)
            l[j] = l[j] * scale + p.sum(axis=0)
            o[j] = o[j] * scale[:, None] + p.T @ v[a]
            m[j] = m_new
    out = np.concatenate(o) / np.concatenate(l)[:, None]
    lse = np.log(np.concatenate(l)) + np.concatenate(m)
    return out, lse


def blockpair_attention_backward(cache, wp, wv, d_out, blocks):
    """The backward sweep as allocating straight-line expressions, which the
    in-place backward must equal bit for bit."""
    f_in, q, v, out, lse = cache
    qs = q * (1.0 / math.sqrt(q.shape[1]))
    row_term = np.einsum("ij,ij->i", d_out, out)
    d_q = np.zeros_like(q)
    d_v = np.zeros_like(v)
    for j, b in enumerate(blocks):
        for a in [b, *blocks[:j]]:
            s = qs[a] @ q[b].T
            p = np.exp(s - lse[a][:, None])
            d_v[b] += p.T @ d_out[a]
            g = p * (d_out[a] @ v[b].T - row_term[a][:, None])
            if a == b:
                g = g + g.T
            else:
                pt = np.exp(s - lse[b][None, :])
                d_v[a] += pt @ d_out[b]
                g = g + pt * (v[a] @ d_out[b].T - row_term[b][None, :])
                d_q[b] += g.T @ qs[a]
            d_q[a] += g @ qs[b]
    grads = {"wp": f_in.T @ d_q, "bp": d_q.sum(axis=0), "wv": f_in.T @ d_v, "bv": d_v.sum(axis=0)}
    return d_q @ wp.T + d_v @ wv.T, grads


BLOCKINGS = {
    "2-blocks": (2**20, [slice(0, 25), slice(25, 50)]),  # no cap: never fewer than two
    "3-blocks": (17, [slice(0, 17), slice(17, 34), slice(34, 50)]),
}


@pytest.mark.parametrize("rows, blocks", BLOCKINGS.values(), ids=BLOCKINGS.keys())
def test_attention_forward_bitwise_block_pair_straightline(rng, monkeypatch, rows, blocks):
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", rows)
    assert refiner._blocks(50) == blocks
    # d = 24: 1/sqrt(d) is inexact, so scaling by it differs from dividing
    x, wp, bp, wv, bv = random_layer(rng, 50, 16, 24)
    want, want_lse = blockpair_attention(x, wp, bp, wv, bv, blocks)
    out, (_, _, _, cached_out, lse) = refiner._attention_forward(x, wp, bp, wv, bv)
    assert out.tobytes() == want.tobytes() and cached_out is out
    assert lse.tobytes() == want_lse.tobytes()
    # written into a column slice, as RefinerModel.forward does
    concat = np.zeros((50, 72))
    refiner._attention_forward(x, wp, bp, wv, bv, out=concat[:, 24:48])
    assert concat[:, 24:48].tobytes() == want.tobytes()
    assert not concat[:, :24].any() and not concat[:, 48:].any()


@pytest.mark.parametrize("rows, blocks", BLOCKINGS.values(), ids=BLOCKINGS.keys())
def test_attention_backward_bitwise_block_pair_straightline(rng, monkeypatch, rows, blocks):
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", rows)
    x, wp, bp, wv, bv = random_layer(rng, 50, 24, 24)
    _, cache = refiner._attention_forward(x, wp, bp, wv, bv)
    d_out = rng.normal(size=(50, 24))
    d_in, grads = refiner._attention_backward(cache, wp, wv, d_out)
    want_in, want = blockpair_attention_backward(cache, wp, wv, d_out, blocks)
    assert d_in.tobytes() == want_in.tobytes()
    for key in ("wp", "bp", "wv", "bv"):
        assert grads[key].tobytes() == want[key].tobytes(), key


def test_tiled_attention_matches_oracle(rng, monkeypatch):
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", 4)  # blocks of 4, 4 and 3 rows
    for _ in range(3):
        x, wp, bp, wv, bv = random_layer(rng, 11, 8, 8)
        got = refiner._attention_forward(x, wp, bp, wv, bv)[0]
        want = attention_oracle(x, wp, bp, wv, bv)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_scores_past_exp_overflow_match_oracle(rng, monkeypatch, dtype):
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", 4)  # blocks of 4, 4 and 3 rows
    x, wp, bp, wv, bv = random_layer(rng, 11, 8, 8)
    wp = 20.0 * np.eye(8)  # q = 20 x + bp: scores reach the thousands
    x, wp, bp, wv, bv = (a.astype(dtype) for a in (x, wp, bp, wv, bv))
    q = x.astype(np.float64) @ wp + bp
    scores = q @ q.T / np.sqrt(8)
    assert scores.max() > np.log(np.finfo(dtype).max)  # an unshifted exp would overflow
    got = refiner._attention_forward(x, wp, bp, wv, bv)[0]
    assert got.dtype == dtype
    want = attention_oracle(*(a.astype(np.float64) for a in (x, wp, bp, wv, bv)))
    tol = 1e-10 if dtype == np.float64 else 256 * np.finfo(np.float32).eps
    assert np.abs(got - want).max() / np.abs(want).max() < tol


def test_attention_rescales_when_a_later_block_holds_the_max(rng, monkeypatch):
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", 4)  # blocks of 4, 4 and 3 rows
    x, _, bp, wv, bv = random_layer(rng, 11, 8, 8)
    wp, bp = np.eye(8), np.zeros(8)  # q = x
    x[10] = 3.0 * x[0]  # row 0's largest score is in the last column block
    x[9] = x[5] / 3.0  # row 9's is in block 1, which reaches it last, transposed
    x[5] *= 3.0
    scores = x @ x.T
    assert scores[0].argmax() == 10 and scores[9].argmax() == 5
    got = refiner._attention_forward(x, wp, bp, wv, bv)[0]
    want = attention_oracle(x, wp, bp, wv, bv)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-10


@pytest.mark.parametrize("rows, n", [(2, 3), (3, 7)])  # blocks of 2 and 1; of 3, 3 and 1
def test_attention_one_row_last_block_matches_oracle(rng, monkeypatch, rows, n):
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", rows)
    assert [b.stop - b.start for b in refiner._blocks(n)][-1] == 1
    x, wp, bp, wv, bv = random_layer(rng, n, 8, 8)
    got = refiner._attention_forward(x, wp, bp, wv, bv)[0]
    want = attention_oracle(x, wp, bp, wv, bv)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-10


def test_attention_permutation_equivariant_across_blocks(rng, monkeypatch):
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", 4)  # blocks of 4, 4 and 3 rows
    x, wp, bp, wv, bv = random_layer(rng, 11, 8, 8)
    perm = rng.permutation(11)
    assert set(perm[:4]) != set(range(4))  # rows change blocks
    d_out = rng.normal(size=(11, 8))
    out, cache = refiner._attention_forward(x, wp, bp, wv, bv)
    out_p, cache_p = refiner._attention_forward(x[perm], wp, bp, wv, bv)
    np.testing.assert_allclose(out_p, out[perm], rtol=0, atol=1e-12)
    d_in, grads = refiner._attention_backward(cache, wp, wv, d_out)
    d_in_p, grads_p = refiner._attention_backward(cache_p, wp, wv, d_out[perm])
    np.testing.assert_allclose(d_in_p, d_in[perm], rtol=0, atol=1e-12)
    for key in grads:
        np.testing.assert_allclose(grads_p[key], grads[key], rtol=0, atol=1e-12)


def test_each_score_block_is_computed_once_per_pass(rng, monkeypatch):
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", 4)  # T = 3 blocks of 4, 4 and 3 rows
    calls = []
    score_product = refiner._scores

    def counted(qs, q, a, b, work):
        calls.append((a.start, b.start))
        return score_product(qs, q, a, b, work)

    monkeypatch.setattr(refiner, "_scores", counted)
    x, wp, bp, wv, bv = random_layer(rng, 11, 8, 8)
    _, cache = refiner._attention_forward(x, wp, bp, wv, bv)
    pairs = [(0, 0), (4, 4), (0, 4), (8, 8), (0, 8), (4, 8)]  # T (T + 1) / 2 of them
    assert calls == pairs
    calls.clear()
    refiner._attention_backward(cache, wp, wv, rng.normal(size=(11, 8)))
    assert calls == pairs
    calls.clear()
    model = RefinerModel(TINY, seed=0)
    feats = rng.normal(size=(11, 25))
    model.forward(feats)
    assert len(calls) == TINY.attn_layers * 6
    calls.clear()
    total_loss(model, feats, np.arange(11) % 4, np.ones(4), NO_CLASS)
    assert len(calls) == 2 * TINY.attn_layers * 6


def test_tiled_gradients_match_finite_differences(rng, monkeypatch):
    model = float64_model(RefinerModel(TINY, seed=3))
    feats = rng.normal(size=(7, 25))
    targets = np.array([0, 1, 2, 3, 1, 2, 3])
    weights = rng.uniform(0.5, 2.0, size=4)
    two_blocks = total_loss(model, feats, targets, weights, NO_CLASS)
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", 3)  # blocks of 3, 3 and 1 rows
    result = total_loss(model, feats, targets, weights, NO_CLASS)
    scale = max(np.abs(g).max() for g in two_blocks.grads.values())
    for key, grad in result.grads.items():
        assert np.abs(grad - two_blocks.grads[key]).max() < 1e-14 * scale

    def value():
        return total_loss(model, feats, targets, weights, NO_CLASS).total

    worst = 0.0
    for key, param in model.params.items():
        worst = max(worst, fd_check(value, param, result.grads[key], rel_tol=1e-4))
    assert worst < 1e-4


def straightline_model(model, features, d_logits):
    """The hand-unrolled embed and head, forward and backward, that the model's
    layer loops must equal bit for bit; attention uses the kernels guarded above."""
    p = model.params
    d = model.dims.embed_dim
    x = (features - model.feature_mean) / model.feature_scale
    a0 = x @ p["embed0.w"] + p["embed0.b"]
    h0 = np.maximum(a0, 0.0)
    a1 = h0 @ p["embed1.w"] + p["embed1.b"]
    layer_in = np.maximum(a1, 0.0)
    concat = np.empty((len(features), model.dims.concat_dim))
    caches = []
    for i in range(model.dims.attn_layers):
        layer_in, cache = refiner._attention_forward(
            layer_in, p[f"attn{i}.p.w"], p[f"attn{i}.p.b"], p[f"attn{i}.v.w"],
            p[f"attn{i}.v.b"], out=concat[:, i * d : (i + 1) * d],
        )
        caches.append(cache)
    z0 = concat @ p["head0.w"] + p["head0.b"]
    r0 = np.maximum(z0, 0.0)
    z1 = r0 @ p["head1.w"] + p["head1.b"]
    r1 = np.maximum(z1, 0.0)
    logits = r1 @ p["head2.w"] + p["head2.b"]

    grads = {"head2.w": r1.T @ d_logits, "head2.b": d_logits.sum(axis=0)}
    d_r1 = d_logits @ p["head2.w"].T
    d_z1 = d_r1 * (z1 > 0)
    grads["head1.w"] = r0.T @ d_z1
    grads["head1.b"] = d_z1.sum(axis=0)
    d_r0 = d_z1 @ p["head1.w"].T
    d_z0 = d_r0 * (z0 > 0)
    grads["head0.w"] = concat.T @ d_z0
    grads["head0.b"] = d_z0.sum(axis=0)
    d_concat = d_z0 @ p["head0.w"].T
    d_carry = np.zeros_like(d_concat[:, :d])
    for i in reversed(range(model.dims.attn_layers)):
        d_out = d_concat[:, i * d : (i + 1) * d] + d_carry
        d_carry, layer = refiner._attention_backward(
            caches[i], p[f"attn{i}.p.w"], p[f"attn{i}.v.w"], d_out
        )
        grads[f"attn{i}.p.w"], grads[f"attn{i}.p.b"] = layer["wp"], layer["bp"]
        grads[f"attn{i}.v.w"], grads[f"attn{i}.v.b"] = layer["wv"], layer["bv"]
    d_a1 = d_carry * (a1 > 0)
    grads["embed1.w"] = h0.T @ d_a1
    grads["embed1.b"] = d_a1.sum(axis=0)
    d_h0 = d_a1 @ p["embed1.w"].T
    d_a0 = d_h0 * (a0 > 0)
    grads["embed0.w"] = x.T @ d_a0
    grads["embed0.b"] = d_a0.sum(axis=0)
    return logits, grads


@pytest.mark.parametrize(
    "dims, n, block",
    [(TINY, 50, 17), (ModelDims(), 512, 2**20)],  # blocks of 17, 17 and 16 rows; 2 of 256
    ids=["tiny-3-tiles", "default-512"],
)
def test_model_forward_backward_bitwise_straightline(rng, monkeypatch, dims, n, block):
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", block)
    model = float64_model(RefinerModel(dims, seed=6))
    feats = rng.normal(size=(n, dims.in_dim))
    model.set_feature_standardization(feats)
    d_logits = rng.normal(size=(n, dims.num_classes))
    logits, cache = model.forward(feats, want_cache=True)
    grads = model.backward(cache, d_logits)
    want_logits, want = straightline_model(model, feats, d_logits)
    assert logits.tobytes() == want_logits.tobytes()
    assert model.forward(feats).tobytes() == want_logits.tobytes()
    assert sorted(grads) == sorted(want) == sorted(model.params)
    for key, grad in want.items():
        assert grads[key].tobytes() == grad.tobytes(), key


def test_forward_memory_bounded():
    # three whole 4096 x 4096 float32 score arrays would take 200 MB
    model = RefinerModel(ModelDims(), seed=0)
    feats = np.random.default_rng(0).normal(size=(4096, 25))
    tracemalloc.start()
    try:
        model.forward(feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6, f"forward peak {peak / 1e6:.0f} MB"


def test_train_step_memory_bounded():
    # backward recomputes each score block; its workspaces are score-block sized
    model = RefinerModel(ModelDims(), seed=0)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(4096, 25))
    targets = rng.integers(0, 20, size=4096)
    tracemalloc.start()
    try:
        total_loss(model, feats, targets, np.ones(20), ignore_class=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 220e6, f"train step peak {peak / 1e6:.0f} MB"


def test_train_step_releases_activations():
    # a dense layer caches its output once (no pre-activation), backward frees
    # each layer's activations once used, and the loss temporaries go before
    # backward: 148.5 MB when the whole forward cache lived through backward
    model = RefinerModel(ModelDims(), seed=0)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(4096, 25))
    targets = rng.integers(0, 20, size=4096)
    tracemalloc.start()
    try:
        total_loss(model, feats, targets, np.ones(20), ignore_class=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 130e6, f"train step peak {peak / 1e6:.1f} MB"


def test_float32_throughout_train_step():
    # a silent float64 upcast anywhere on the hot path would give the float32 gain back
    model = RefinerModel(ModelDims(), seed=0)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(512, 25))  # pool features are float64
    targets = rng.integers(0, 20, size=512)
    model.set_feature_standardization(feats)
    assert model.feature_mean.dtype == model.feature_scale.dtype == np.float32
    logits, cache = model.forward(feats, want_cache=True)
    assert logits.dtype == np.float32
    activations = [a for layer in cache["embed"] + cache["head"] for a in layer]
    activations += [a for layer in cache["attn"] for a in layer]
    assert len(activations) == 2 * 5 + 5 * 4  # attention: input, q, v, output and lse
    for a in activations:
        assert a.dtype == np.float32
    weights = rng.uniform(0.5, 2.0, size=20)
    assert wce_loss(logits, targets, weights, 20)[1].dtype == np.float32
    assert lovasz_softmax_loss(softmax_rows(logits), targets, 20)[1].dtype == np.float32

    result = total_loss(model, feats, targets, weights, ignore_class=20)
    assert sorted(result.grads) == sorted(model.params)
    optimizer = Adam(model, TrainConfig())
    optimizer.step(result.grads)
    for key, param in model.params.items():
        assert result.grads[key].dtype == np.float32, key
        assert optimizer.m[key].dtype == optimizer.v[key].dtype == np.float32, key
        assert param.dtype == np.float32, key


@pytest.mark.parametrize("n, block", [(512, 2**20), (300, 100)], ids=["2-blocks", "3-tiles"])
def test_float32_logits_agree_with_float64(rng, monkeypatch, n, block):
    monkeypatch.setattr(refiner, "_BLOCK_ROWS", block)
    model = RefinerModel(ModelDims(), seed=8)
    feats = rng.normal(size=(n, 25))
    model.set_feature_standardization(feats)
    wide = float64_model(copy.deepcopy(model))  # the same weights, widened
    logits32 = model.forward(feats)
    logits64 = wide.forward(feats)
    assert logits32.dtype == np.float32 and logits64.dtype == np.float64
    rel = np.abs(logits32 - logits64).max() / np.abs(logits64).max()
    assert rel <= 256 * np.finfo(np.float32).eps, f"relative error {rel:.1e}"
    np.testing.assert_array_equal(np.argmax(logits32, axis=1), np.argmax(logits64, axis=1))


# --- model forward ---


def test_forward_shapes():
    model = RefinerModel(TINY, seed=0)
    logits = model.forward(np.random.default_rng(0).normal(size=(1, 25)))
    assert logits.shape == (1, TINY.num_classes)


def test_forward_permutation_equivariance(rng):
    model = float64_model(RefinerModel(TINY, seed=1))
    feats = rng.normal(size=(9, 25))
    logits = model.forward(feats)
    perm = rng.permutation(9)
    logits_p = model.forward(feats[perm])
    np.testing.assert_allclose(logits_p, logits[perm], atol=1e-9)


def test_zero_weights_give_zero_logits(rng):
    model = RefinerModel(TINY, seed=0)
    for key in model.params:
        model.params[key][:] = 0.0
    logits = model.forward(rng.normal(size=(5, 25)))
    np.testing.assert_array_equal(logits, 0.0)


def test_parameter_count_pure_function_of_dims():
    a = RefinerModel(TINY, seed=0)
    b = RefinerModel(TINY, seed=999)
    assert sum(p.size for p in a.params.values()) == sum(p.size for p in b.params.values())
    full = RefinerModel(ModelDims(), seed=0)
    d = ModelDims()
    expected = (
        d.in_dim * d.embed_hidden + d.embed_hidden
        + d.embed_hidden * d.embed_dim + d.embed_dim
        + d.attn_layers * 2 * (d.embed_dim * d.embed_dim + d.embed_dim)
        + d.concat_dim * d.head_hidden1 + d.head_hidden1
        + d.head_hidden1 * d.head_hidden2 + d.head_hidden2
        + d.head_hidden2 * d.num_classes + d.num_classes
    )
    assert sum(p.size for p in full.params.values()) == expected


def test_forward_rejects_bad_shapes():
    model = RefinerModel(TINY, seed=0)
    with pytest.raises(DataFormatError):
        model.forward(np.zeros((3, 7)))
    with pytest.raises(DataFormatError):
        model.forward(np.zeros((0, 25)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_activations_flag_layer():
    model = RefinerModel(TINY, seed=0)
    model.params["attn1.p.w"][:] = np.inf
    with pytest.raises(NumericError, match="layer 1"):
        model.forward(np.random.default_rng(0).normal(size=(3, 25)))


# --- wce loss ---


def test_wce_perfect_prediction_zero_loss():
    logits = np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
    loss, _ = wce_loss(logits, np.array([0, 1]), np.ones(3), ignore_class=3)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_wce_uniform_logits_log_c():
    logits = np.zeros((4, 20))
    loss, _ = wce_loss(logits, np.array([3, 7, 0, 19]), np.ones(20), ignore_class=20)
    assert loss == pytest.approx(math.log(20), abs=1e-12)


def test_wce_ignores_and_errors():
    logits = np.zeros((2, 4))
    loss_all, grad = wce_loss(logits, np.array([0, 1]), np.ones(4), ignore_class=0)
    assert loss_all == pytest.approx(math.log(4))
    np.testing.assert_array_equal(grad[0], 0.0)
    with pytest.raises(DataFormatError):
        wce_loss(logits, np.array([0, 0]), np.ones(4), ignore_class=0)


def test_wce_gradient_finite_differences(rng):
    logits = rng.normal(size=(6, 5))
    targets = rng.integers(0, 5, size=6)
    weights = rng.uniform(0.5, 2.0, size=5)
    _, grad = wce_loss(logits, targets, weights, ignore_class=0)

    def value():
        return wce_loss(logits, targets, weights, ignore_class=0)[0]

    assert fd_check(value, logits, grad, rel_tol=1e-6) < 1e-6


# --- lovasz loss ---


def jaccard_loss_of_set(mispredicted, gt_set, n):
    inter = len(gt_set) - len(gt_set & mispredicted)
    union = len(gt_set) + len(mispredicted - gt_set)
    return 1.0 - inter / union


def lovasz_oracle(probs, targets):
    """Threshold-integral form of the Lovasz extension, per present class.

    For errors m in [0,1]^n the extension equals the integral over t of the
    Jaccard loss of {i: m_i > t}; piecewise constant in t, so evaluate once
    per segment between consecutive distinct error values.
    """
    classes = sorted(set(int(t) for t in targets))
    total = 0.0
    for c in classes:
        gt_set = {i for i, t in enumerate(targets) if t == c}
        m = [abs((1.0 if i in gt_set else 0.0) - probs[i, c]) for i in range(len(targets))]
        levels = sorted(set(m) | {0.0, 1.0})
        acc = 0.0
        for lo, hi in zip(levels[:-1], levels[1:]):
            mid = (lo + hi) / 2
            active = {i for i, mi in enumerate(m) if mi > mid}
            acc += (hi - lo) * jaccard_loss_of_set(active, gt_set, len(m))
        total += acc
    return total / len(classes)


def test_lovasz_perfect_prediction():
    probs = np.eye(3)
    loss, grad = lovasz_softmax_loss(probs, np.array([0, 1, 2]), ignore_class=3)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_lovasz_hand_example():
    # two points, both class 0, p(0) = (1.0, 0.0): loss = 0.5
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _ = lovasz_softmax_loss(probs, np.array([0, 0]), ignore_class=2)
    assert loss == pytest.approx(0.5, abs=1e-12)


def test_lovasz_matches_threshold_integral_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(1, 7))
        c = int(rng.integers(2, 5))
        probs = rng.uniform(size=(n, c))
        probs /= probs.sum(axis=1, keepdims=True)
        targets = rng.integers(0, c, size=n)
        loss, _ = lovasz_softmax_loss(probs, targets, ignore_class=c)
        assert loss == pytest.approx(lovasz_oracle(probs, targets), abs=1e-10)


def test_lovasz_per_class_in_unit_interval(rng):
    for _ in range(50):
        n = int(rng.integers(1, 7))
        probs = rng.uniform(size=(n, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        targets = np.full(n, int(rng.integers(0, 3)))  # one class present
        loss, _ = lovasz_softmax_loss(probs, targets, ignore_class=3)
        assert -1e-12 <= loss <= 1.0 + 1e-12


def test_lovasz_gradient_finite_differences(rng):
    probs = rng.uniform(0.05, 1.0, size=(6, 4))
    probs /= probs.sum(axis=1, keepdims=True)
    targets = np.array([0, 1, 2, 3, 0, 1])
    _, grad = lovasz_softmax_loss(probs, targets, ignore_class=4)

    def value():
        return lovasz_softmax_loss(probs, targets, ignore_class=4)[0]

    # tie-free random instance; step small enough not to cross sort ties
    assert fd_check(value, probs, grad, rel_tol=1e-5, h_scale=1e-7) < 1e-5


def test_lovasz_all_ignored_errors():
    with pytest.raises(DataFormatError):
        lovasz_softmax_loss(np.ones((2, 2)) / 2, np.array([0, 0]), ignore_class=0)


# --- total loss and parameter gradients ---


def test_total_loss_gradients_match_finite_differences(rng):
    model = float64_model(RefinerModel(TINY, seed=3))
    feats = rng.normal(size=(6, 25))
    targets = np.array([0, 1, 2, 3, 1, 2])
    weights = rng.uniform(0.5, 2.0, size=4)
    result = total_loss(model, feats, targets, weights, NO_CLASS)

    def value():
        return total_loss(model, feats, targets, weights, NO_CLASS).total

    worst = 0.0
    for key, param in model.params.items():
        worst = max(worst, fd_check(value, param, result.grads[key], rel_tol=1e-4))
    assert worst < 1e-4


def test_total_loss_decreases_on_separable_batch(rng):
    model = RefinerModel(TINY, seed=0)
    feats = rng.normal(size=(32, 25))
    targets = (feats[:, 0] > 0).astype(np.int64) + 2 * (feats[:, 1] > 0).astype(np.int64)
    weights = np.ones(4)
    optimizer = Adam(model, TrainConfig(epochs=1, learning_rate=1e-3))
    first = total_loss(model, feats, targets, weights, NO_CLASS).total
    for _ in range(50):
        optimizer.step(total_loss(model, feats, targets, weights, NO_CLASS).grads)
    last = total_loss(model, feats, targets, weights, NO_CLASS).total
    assert last < first


# --- training loop ---


def make_pool(rng, n, num_classes=4):
    feats = rng.normal(size=(n, 25))
    labels = rng.integers(1, num_classes, size=n).astype(np.int32)
    feats[:, 5] = labels  # separable signal
    pool = UncertainPointSet(
        indices=np.arange(n),
        reason=np.ones(n, dtype=np.uint8),
        features=feats,
        coarse_label=np.zeros(n, dtype=np.int32),
    )
    return pool, labels


def loader(pool, labels):
    """A scan's loader of (features, labels), as run_train passes its spilled pools."""
    return lambda: (pool.features, labels)


def test_train_deterministic(rng):
    scans = {f"s{i}": loader(*make_pool(rng, 40)) for i in range(3)}
    cfg = TrainConfig(epochs=3, seed=7)
    models = []
    for _ in range(2):
        model = RefinerModel(TINY, seed=7)
        log = train(model, scans, cfg, n_u=16, ignore_class=0)
        assert len(log) == 3
        models.append(model)
    for key in models[0].params:
        assert models[0].params[key].tobytes() == models[1].params[key].tobytes()


def test_train_loss_decreases(rng):
    scans = {f"s{i}": loader(*make_pool(rng, 60)) for i in range(5)}
    model = RefinerModel(TINY, seed=1)
    log = train(model, scans, TrainConfig(epochs=25, seed=1), n_u=32, ignore_class=0)
    assert log[-1].loss < log[0].loss


def test_train_requires_nonempty_pool(rng):
    empty = UncertainPointSet(
        indices=np.empty(0, dtype=np.int64),
        reason=np.empty(0, dtype=np.uint8),
        features=np.empty((0, 25)),
        coarse_label=np.empty(0, dtype=np.int32),
    )
    with pytest.raises(DataFormatError):
        train(RefinerModel(TINY), {"s0": loader(empty, np.empty(0, dtype=np.int64))},
              TrainConfig(epochs=1), n_u=16, ignore_class=0)


def test_train_rejects_labels_that_do_not_cover_the_pool(rng):
    pool, labels = make_pool(rng, 20)
    scans = {"s0": loader(*make_pool(rng, 20)), "s1": loader(pool, labels[:-1])}
    with pytest.raises(DataFormatError, match="scan s1: 19 ground-truth labels for 20 pool entries"):
        train(RefinerModel(TINY), scans, TrainConfig(epochs=1), n_u=16, ignore_class=0)


def test_train_config_validation():
    for kwargs, message in [
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"learning_rate": 0.0}, "learning_rate must be > 0"),
        ({"learning_rate": True}, "learning_rate must be a finite number"),
        ({"learning_rate": float("inf")}, "learning_rate must be a finite number"),
    ]:
        with pytest.raises(DataFormatError, match=message):
            TrainConfig(**kwargs)


def test_adam_steps_bitwise_textbook(rng):
    model = float64_model(RefinerModel(TINY, seed=4))
    start = {k: p.copy() for k, p in model.params.items()}
    cfg = TrainConfig(learning_rate=1e-2)
    optimizer = Adam(model, cfg)
    m = {k: np.zeros_like(p) for k, p in start.items()}
    v = {k: np.zeros_like(p) for k, p in start.items()}
    want = {k: p.copy() for k, p in start.items()}
    for t in range(1, 4):
        grads = {k: rng.normal(size=p.shape) for k, p in start.items()}
        kept = {k: g.copy() for k, g in grads.items()}
        optimizer.step(grads)
        for k, g in kept.items():
            assert grads[k].tobytes() == g.tobytes(), k
            m[k] = BETA1 * m[k] + (1.0 - BETA1) * g
            v[k] = BETA2 * v[k] + (1.0 - BETA2) * g * g
            m_hat = m[k] / (1.0 - BETA1**t)
            v_hat = v[k] / (1.0 - BETA2**t)
            want[k] = want[k] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    for k in start:
        assert model.params[k].tobytes() == want[k].tobytes(), k
        assert optimizer.m[k].tobytes() == m[k].tobytes(), k
        assert optimizer.v[k].tobytes() == v[k].tobytes(), k


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_reports_context(rng):
    # the epoch-0 step at lr 1e200 wrecks the parameters; epoch 1 hits them
    scans = {"s0": loader(*make_pool(rng, 20))}
    model = RefinerModel(TINY, seed=0)
    with pytest.raises(NumericError, match="training failed at epoch 1, scan s0"):
        train(model, scans, TrainConfig(epochs=2, learning_rate=1e200, seed=0), n_u=8, ignore_class=0)


def test_streamed_statistics_equal_concatenated_bitwise():
    # numpy reduces a C-contiguous array over axis 0 row by row, in order;
    # summing each pool first and then the pool sums regroups the additions
    rng = np.random.default_rng(11)
    regrouped_differs = False
    for chunking in range(5):
        sizes = [1, 0, *rng.integers(25_000, 40_000, size=4)]  # > 100k rows in all
        rng.shuffle(sizes)
        pools = []
        for n in sizes:
            feats = rng.normal(size=(n, 25)) * rng.uniform(0.1, 50, size=25) + rng.uniform(-1e3, 1e3, size=25)
            feats[:, 7] = -0.0  # a carry that started from the first row would keep -0.0
            pools.append((feats, rng.integers(0, TINY.num_classes, size=n)))
        calls = [0] * len(pools)

        def loader_of(i):
            def load():
                calls[i] += 1
                return pools[i]
            return load

        scans = {f"s{i}": loader_of(i) for i in range(len(pools))}
        kept, weights, mean, std = refiner._corpus_statistics(scans, TINY.num_classes, ignore_class=0)
        feats = np.concatenate([f for f, _ in pools])
        labels = np.concatenate([gt for _, gt in pools])
        assert [sid for sid, _ in kept] == [f"s{i}" for i, n in enumerate(sizes) if n]
        assert calls == [2 if n else 1 for n in sizes]
        assert mean.tobytes() == feats.mean(axis=0).tobytes()  # column 7 sums to numpy's +0.0
        assert np.maximum(std, 1e-6).tobytes() == np.maximum(feats.std(axis=0), 1e-6).tobytes()
        counts = np.bincount(labels, minlength=TINY.num_classes)
        assert weights.tobytes() == class_frequency_weights(counts, ignore_class=0).tobytes()
        regrouped = sum(f.sum(axis=0) for f, _ in pools) / len(feats)
        regrouped_differs |= regrouped.tobytes() != mean.tobytes()
        if chunking == 0:  # train standardizes by them: a float64 model keeps every bit
            model = float64_model(RefinerModel(TINY, seed=0))
            train(model, scans, TrainConfig(epochs=1), n_u=8, ignore_class=0)
            assert model.feature_mean.tobytes() == mean.tobytes()
            assert model.feature_scale.tobytes() == np.maximum(std, 1e-6).tobytes()
    assert regrouped_differs


def test_class_frequency_weights():
    weights = class_frequency_weights(np.array([0, 3, 1, 0]), ignore_class=0)
    assert weights[0] == 0.0
    assert weights[2] > weights[1] > 0  # rarer class weighs more
    assert weights[3] == pytest.approx(1.0 / math.log(1.02))  # absent class


# --- refine ---


def test_refine_outputs_and_determinism(rng):
    model = RefinerModel(TINY, seed=2)
    pool, _ = make_pool(rng, 10)
    out = refine(model, pool)
    assert out.shape == (10,)
    assert ((out >= 0) & (out < TINY.num_classes)).all()
    # duplicated rows get identical labels
    pool.features[3] = pool.features[4]
    out = refine(model, pool)
    assert out[3] == out[4]


def test_refine_empty_pool_rejected():
    model = RefinerModel(TINY)
    empty = UncertainPointSet(
        indices=np.empty(0, dtype=np.int64),
        reason=np.empty(0, dtype=np.uint8),
        features=np.empty((0, 25)),
        coarse_label=np.empty(0, dtype=np.int32),
    )
    with pytest.raises(DataFormatError):
        refine(model, empty)


# --- checkpoints ---


def checkpoint_header(version, *dims):
    return b"TUPR" + struct.pack("<8I", version, *dims)


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    model = RefinerModel(TINY, seed=5)
    model.set_feature_standardization(rng.normal(size=(100, 25)))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    assert data[:4] == b"TUPR"
    values = sum(p.size for p in model.params.values()) + 2 * TINY.in_dim
    assert len(data) == 36 + 4 * values  # float32 blocks
    back = load_checkpoint(path)
    assert back.dims == model.dims
    for key in model.params:
        assert back.params[key].dtype == np.float32
        assert back.params[key].tobytes() == model.params[key].tobytes()
    assert back.feature_mean.tobytes() == model.feature_mean.tobytes()
    assert back.feature_scale.tobytes() == model.feature_scale.tobytes()
    feats = rng.normal(size=(7, 25))
    assert model.forward(feats).tobytes() == back.forward(feats).tobytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"nope" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(path)
    path.write_bytes(b"TUPR\x02\x00")
    with pytest.raises(DataFormatError, match="truncated header"):
        load_checkpoint(path)
    model = RefinerModel(TINY)
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(DataFormatError, match="size"):
        load_checkpoint(path)
    # a 52-byte file whose header claims embed_dim 1500 is rejected before
    # any array of that size is allocated
    d = ModelDims()
    dims = (d.in_dim, d.embed_hidden, d.embed_dim, d.attn_layers,
            d.head_hidden1, d.head_hidden2, d.num_classes)
    path.write_bytes(checkpoint_header(2, *dims[:2], 1500, *dims[3:]) + b"\x00" * 16)
    assert path.stat().st_size == 52
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="size"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # zero attention layers, every other dim 1: the size matches 11 float32
    # values (embed 2 + 2, head 1 + 2 + 2, feature mean and scale 1 + 1)
    path.write_bytes(checkpoint_header(2, 1, 1, 1, 0, 1, 1, 1) + b"\x00" * 44)
    with pytest.raises(DataFormatError, match="dims must be >= 1"):
        load_checkpoint(path)
    # a version-1 file: default dims with float64 blocks
    f8_blocks = b"".join(a.astype("<f8").tobytes() for a in refiner._checkpoint_arrays(RefinerModel(d)))
    path.write_bytes(checkpoint_header(1, *dims) + f8_blocks)
    with pytest.raises(DataFormatError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)
    # the version-2 header with float64-sized blocks
    path.write_bytes(checkpoint_header(2, *dims) + f8_blocks)
    with pytest.raises(DataFormatError, match="size"):
        load_checkpoint(path)
