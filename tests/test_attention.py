import math
from dataclasses import replace

import numpy as np
import pytest

from sgloc.attention import (
    Block,
    adapter_fuse,
    cross_attention,
    grid_pos,
)
from sgloc import attention, decoder, encoder
from sgloc import tensor as T
from sgloc.data import derive_seed
from sgloc.tensor import (
    ShapeError,
    Tensor,
    backward,
    add,
    finite_difference_check,
    layer_norm_rows,
    mul,
    sum_all,
)
from sgloc.model import ModelConfig, SketchLocalizer
from test_encoder import TINY, rand_image, rand_sketch, tiny_model


def attention_block(wq, wk, wv, heads):
    """A block with projections only; `cross_attention` reads no adapter weight."""
    return Block(wq=wq, wk=wk, wv=wv, w_in=None, w_out=None, heads=heads)


def adapter_block(w_in, w_out):
    """A block with adapter weights only; `adapter_fuse` reads no projection."""
    return Block(wq=None, wk=None, wv=None, w_in=w_in, w_out=w_out, heads=1)


def make_attention(d, heads, rng, requires_grad=False):
    mk = lambda shape: Tensor(rng.standard_normal(shape) * 0.3, requires_grad=requires_grad)
    return attention_block(wq=mk((d, d)), wk=mk((d, d)), wv=mk((d, d)), heads=heads)


def key_width(p):
    return p.wq.shape[0] // p.heads


def head_cols(w, p, h):
    """Head h's d x dk projection: column block h of a packed matrix."""
    dk = key_width(p)
    return w.data[:, h * dk : (h + 1) * dk]


def per_head_oracle(q, k, v, p):
    """Multi-head attention as a loop over heads, each with its own d x dk
    projections (positions already added to q and k)."""
    heads = []
    for h in range(p.heads):
        logits = (q @ head_cols(p.wq, p, h)) @ (k @ head_cols(p.wk, p, h)).T / math.sqrt(key_width(p))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        heads.append((e / e.sum(axis=1, keepdims=True)) @ (v @ head_cols(p.wv, p, h)))
    return np.concatenate(heads, axis=1)


class TestPosEncoding:
    def test_origin_row(self):
        row0 = grid_pos(16, 8)[0]
        assert np.allclose(row0[0::2], 0.0)  # sin channels
        assert np.allclose(row0[1::2], 1.0)  # cos channels

    def test_range(self):
        table = grid_pos(64, 16)
        assert table.min() >= -1.0 and table.max() <= 1.0

    def test_all_positions_distinct(self):
        table = grid_pos(64, 16)
        n = table.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                assert not np.allclose(table[i], table[j], atol=1e-9)

    def test_width_divisibility(self):
        with pytest.raises(ShapeError):
            grid_pos(16, 10)

    def test_deterministic(self):
        a = grid_pos(25, 12).copy()
        grid_pos.cache_clear()  # rebuild the table from scratch
        assert np.array_equal(grid_pos(25, 12), a)

    def test_row_indexing_is_y_major(self):
        # row s = y*g + x: moving one row down changes only the y half
        table = grid_pos(16, 8)
        d = 8
        assert np.allclose(table[0][: d // 2], table[4][: d // 2])
        assert not np.allclose(table[0][d // 2 :], table[4][d // 2 :])

    @pytest.mark.parametrize("n", [2, 15, 20, 63])
    def test_non_square_row_count_rejected(self, n):
        with pytest.raises(ShapeError, match=f"{n} tokens do not form a square grid"):
            grid_pos(n, 8)

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            grid_pos(16, 8)[0, 0] = 5.0


class TestCrossAttention:
    def test_single_key_collapses_softmax(self, rng):
        d, H = 8, 2
        p = make_attention(d, H, rng)
        q = Tensor(rng.standard_normal((5, d)))
        kv = Tensor(rng.standard_normal((1, d)))
        out = cross_attention(q, kv, p).data
        want = kv.data @ p.wv.data
        for r in range(5):
            assert np.allclose(out[r], want[0], atol=1e-6)

    def test_joint_key_value_permutation_invariance(self, rng):
        d, H, n_k = 8, 2, 6
        p = make_attention(d, H, rng)
        q = Tensor(rng.standard_normal((3, d)))
        kv = rng.standard_normal((n_k, d))
        pos = rng.standard_normal((n_k, d)) * 0.1
        perm = rng.permutation(n_k)
        out1 = cross_attention(Tensor(q.data), Tensor(kv), p, k_pos=pos).data
        out2 = cross_attention(Tensor(q.data), Tensor(kv[perm]), p, k_pos=pos[perm]).data
        assert np.max(np.abs(out1 - out2)) < 1e-5

    def test_matches_direct_formula(self, f64, rng):
        # single head, d = 4: evaluate the attention equation directly
        d = 4
        wq = rng.standard_normal((d, d))
        wk = rng.standard_normal((d, d))
        wv = rng.standard_normal((d, d))
        p = attention_block(Tensor(wq), Tensor(wk), Tensor(wv), 1)
        q = rng.standard_normal((2, d))
        k = rng.standard_normal((2, d))
        got = cross_attention(Tensor(q), Tensor(k), p).data

        logits = (q @ wq) @ (k @ wk).T / math.sqrt(d)
        att = np.exp(logits - logits.max(axis=1, keepdims=True))
        att /= att.sum(axis=1, keepdims=True)
        want = att @ (k @ wv)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_positions_affect_weights_not_values(self, rng):
        # with zero W_Q (uniform attention), k_pos must not change the output
        d, H = 8, 1
        p = make_attention(d, H, rng)
        p.wq = Tensor(np.zeros((d, d)))
        p.wv = Tensor(rng.standard_normal((d, d)))
        q = Tensor(rng.standard_normal((3, d)))
        kv = Tensor(rng.standard_normal((4, d)))
        pos = rng.standard_normal((4, d))
        out1 = cross_attention(q, kv, p, k_pos=None).data
        out2 = cross_attention(q, kv, p, k_pos=pos).data
        assert np.allclose(out1, out2, atol=1e-6)

    def test_convex_hull_bound(self, rng):
        # each output row is a convex combination of value projections per head
        d, H = 8, 2
        dv = d // H
        p = make_attention(d, H, rng)
        q = Tensor(rng.standard_normal((5, d)))
        kv = Tensor(rng.standard_normal((7, d)))
        out = cross_attention(q, kv, p).data
        for h in range(H):
            v_proj = kv.data @ head_cols(p.wv, p, h)
            lo, hi = v_proj.min(axis=0), v_proj.max(axis=0)
            block = out[:, h * dv : (h + 1) * dv]
            assert (block >= lo - 1e-6).all() and (block <= hi + 1e-6).all()

    def test_gradcheck_projections(self, f64, rng):
        d, H = 8, 2
        p = make_attention(d, H, rng, requires_grad=True)
        params = [p.wq, p.wk, p.wv]
        q = Tensor(rng.standard_normal((3, d)))
        kv = Tensor(rng.standard_normal((4, d)))
        pos_q = rng.standard_normal((3, d)) * 0.2
        pos_k = rng.standard_normal((4, d)) * 0.2
        r = Tensor(rng.standard_normal((3, d)))

        def loss():
            out = cross_attention(q, kv, p, q_pos=pos_q, k_pos=pos_k)
            return sum_all(mul(out, r))

        assert finite_difference_check(loss, params, eps=1e-5) < 1e-5

    def test_width_mismatch(self, rng):
        p = make_attention(8, 2, rng)
        with pytest.raises(ShapeError):
            cross_attention(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 8))), p)

    def test_group_rows_must_split_evenly(self, rng):
        p = make_attention(8, 2, rng)
        kv = Tensor(np.ones((5, 8)))
        with pytest.raises(ShapeError):
            cross_attention(Tensor(np.ones((4, 8))), kv, p, groups=2)


class TestPackedMatchesPerHeadLoop:
    """Packed attention against the per-head loop, at f64."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_single_group(self, f64, rng, heads):
        d = 16
        p = make_attention(d, heads, rng)
        q, kv = rng.standard_normal((5, d)), rng.standard_normal((7, d))
        q_pos, k_pos = rng.standard_normal((5, d)), rng.standard_normal((7, d))
        got = cross_attention(Tensor(q), Tensor(kv), p, q_pos=q_pos, k_pos=k_pos).data
        want = per_head_oracle(q + q_pos, kv + k_pos, kv, p)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_groups_attend_only_to_their_own_keys(self, f64, rng):
        d, heads, G, n_q, n_k = 8, 2, 3, 4, 5
        p = make_attention(d, heads, rng)
        q = rng.standard_normal((n_q, d))
        kv = rng.standard_normal((G * n_k, d))
        q_pos, k_pos = rng.standard_normal((n_q, d)), rng.standard_normal((n_k, d))
        got = cross_attention(Tensor(q), Tensor(kv), p, q_pos=q_pos, k_pos=k_pos, groups=G).data
        assert got.shape == (G * n_q, d)
        for g in range(G):
            kg = kv[g * n_k : (g + 1) * n_k]
            want = per_head_oracle(q + q_pos, kg + k_pos, kg, p)
            assert np.max(np.abs(got[g * n_q : (g + 1) * n_q] - want)) < 1e-12

    def test_gradcheck_groups(self, f64, rng):
        d, G = 8, 3
        p = make_attention(d, 2, rng, requires_grad=True)
        params = [p.wq, p.wk, p.wv]
        q = Tensor(rng.standard_normal((4, d)))
        kv = Tensor(rng.standard_normal((G * 2, d)))
        pos_q = rng.standard_normal((4, d)) * 0.2
        pos_k = rng.standard_normal((2, d)) * 0.2
        r = Tensor(rng.standard_normal((G * 4, d)))

        def loss():
            out = cross_attention(q, kv, p, q_pos=pos_q, k_pos=pos_k, groups=G)
            return sum_all(mul(out, r))

        assert finite_difference_check(loss, params, eps=1e-5) < 1e-5


class TestPackedModelParameters:
    def test_packed_init_is_concatenated_per_head_draws(self):
        # each column block is the draw a per-head d x dk matrix named
        # `<prefix>.attn.<q|k|v><h>` would have received
        m = tiny_model(seed=3)
        d, heads = TINY.d, TINY.heads
        dk = d // heads
        limit = math.sqrt(6.0 / (d + dk))
        packed = [n for n in m.params if ".attn." in n]
        assert packed and all(n[-2:] in (".q", ".k", ".v") for n in packed)
        for name in packed:
            cols = [
                np.random.default_rng(derive_seed(3, "param", f"{name}{h}")).uniform(-limit, limit, (d, dk))
                for h in range(heads)
            ]
            want = Tensor(np.concatenate(cols, axis=1)).data
            assert np.array_equal(m.params[name].data, want)

    def test_tape_size_does_not_grow_with_heads(self, rng):
        img, sks = rand_image(rng), [rand_sketch(rng) for _ in range(2)]
        sizes = []
        for heads in (1, 2, 4):
            s, b = tiny_model(d=16, heads=heads).forward(img, sks)
            sizes.append(len(T._topo(sum_all(mul(s, s)))))
        assert sizes[0] == sizes[1] == sizes[2]


class TestTapeSize:
    """Tape nodes of one default-config forward, reduced to
    sum(scores * R1) + sum(boxes * R2). A refactor of the model must not add
    nodes; a change that means to must update these counts."""

    @pytest.mark.parametrize(
        "n_sketches, ablate, nodes", [(1, False, 185), (5, False, 286), (1, True, 137), (5, True, 235)]
    )
    def test_default_config_tape_nodes(self, rng, n_sketches, ablate, nodes):
        cfg = ModelConfig(encoder_fusion=not ablate, refinement=not ablate)
        scores, boxes = SketchLocalizer(cfg).forward(rand_image(rng), [rand_sketch(rng) for _ in range(n_sketches)])
        r1 = Tensor(rng.standard_normal(scores.shape))
        r2 = Tensor(rng.standard_normal(boxes.shape))
        loss = add(sum_all(mul(scores, r1)), sum_all(mul(boxes, r2)))
        assert len(T._topo(loss)) == nodes


def _matmul_both(a, b):
    """`matmul` with a backward that computes both operands' gradients."""
    ad, bd = a.data, b.data
    return T._make(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


@pytest.mark.parametrize("n_sketches", [1, 5])
def test_skipping_constant_matmul_operands_changes_no_leaf_gradient(rng, monkeypatch, n_sketches):
    # the pool matrices, patch matrices and the ones column of score_tokens
    # are constant operands, whose gradients `matmul` does not compute
    image, sketches = rand_image(rng), [rand_sketch(rng) for _ in range(n_sketches)]
    r1, r2 = (Tensor(rng.standard_normal(shape)) for shape in ((100,), (100, 4)))
    grads = []
    for both in (False, True):
        if both:
            for module in (attention, encoder, decoder):
                monkeypatch.setattr(module, "matmul", _matmul_both)
        model = SketchLocalizer(ModelConfig())
        scores, boxes = model.forward(image, sketches)
        leaf_grads = backward(add(sum_all(mul(scores, r1)), sum_all(mul(boxes, r2))))
        grads.append({name: leaf_grads.get(t) for name, t in model.params.items()})
    assert grads[0].keys() == grads[1].keys()
    for name, g in grads[0].items():
        assert np.array_equal(g, grads[1][name]), name


class TestBlock:
    def test_self_attention_attends_over_the_normed_queries(self, rng):
        mk = lambda shape: Tensor(rng.standard_normal(shape) * 0.3)
        blk = replace(make_attention(8, 2, rng), w_in=mk((8, 12)), w_out=mk((12, 8)))
        x = Tensor(rng.standard_normal((6, 8)))
        assert np.array_equal(blk(x, norm=True).data, blk(x, layer_norm_rows(x), norm=True).data)
        assert np.array_equal(blk(x).data, blk(x, x).data)


class TestAdapterFuse:
    def test_rows_must_match_groups(self):
        p = adapter_block(Tensor(np.ones((4, 6))), Tensor(np.ones((6, 4))))
        with pytest.raises(ShapeError):
            adapter_fuse(Tensor(np.ones((6, 4))), Tensor(np.ones((2, 4))), p, groups=2)
    def test_zero_weights_identity(self, rng):
        d, dh = 6, 12
        p = adapter_block(Tensor(np.zeros((d, dh))), Tensor(np.zeros((dh, d))))
        res = Tensor(rng.standard_normal((4, d)))
        att = Tensor(rng.standard_normal((4, d)))
        assert np.array_equal(adapter_fuse(att, res, p).data, res.data)

    def test_zero_out_projection_identity_bit_exact(self, rng):
        d, dh = 6, 12
        p = adapter_block(
            Tensor(rng.standard_normal((d, dh))), Tensor(np.zeros((dh, d)))
        )
        res = Tensor(rng.standard_normal((4, d)))
        att = Tensor(rng.standard_normal((4, d)))
        assert np.array_equal(adapter_fuse(att, res, p).data, res.data)

    def test_zero_attended_gives_residual(self, rng):
        d, dh = 6, 12
        p = adapter_block(
            Tensor(rng.standard_normal((d, dh))), Tensor(rng.standard_normal((dh, d)))
        )
        res = Tensor(rng.standard_normal((4, d)))
        att = Tensor(np.zeros((4, d)))
        assert np.array_equal(adapter_fuse(att, res, p).data, res.data)

    def test_against_direct_oracle(self, f64, rng):
        d, dh = 8, 16
        w_in = rng.standard_normal((d, dh))
        w_out = rng.standard_normal((dh, d))
        p = adapter_block(Tensor(w_in), Tensor(w_out))
        att = rng.standard_normal((3, d))
        res = rng.standard_normal((3, d))
        got = adapter_fuse(Tensor(att), Tensor(res), p).data
        want = res + np.maximum(att @ w_in, 0.0) @ w_out
        assert np.max(np.abs(got - want)) < 1e-6

    def test_gradcheck(self, f64, rng):
        d, dh = 6, 10
        w_in = Tensor(rng.standard_normal((d, dh)), requires_grad=True)
        w_out = Tensor(rng.standard_normal((dh, d)), requires_grad=True)
        p = adapter_block(w_in, w_out)
        att = Tensor(rng.standard_normal((3, d)))
        res = Tensor(rng.standard_normal((3, d)))
        r = Tensor(rng.standard_normal((3, d)))

        def loss():
            return sum_all(mul(adapter_fuse(att, res, p), r))

        assert finite_difference_check(loss, [w_in, w_out], eps=1e-5) < 1e-5
