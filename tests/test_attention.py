import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgloc.attention import Block, grid_pos
from sgloc import decoder, encoder
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
    relu,
    sum_all,
)
from sgloc.model import ModelConfig, SketchLocalizer
import reference_block
from reference_block import block_call
from test_encoder import TINY, rand_image, rand_sketch, tiny_model


def passthrough(d):
    """Adapter weights ([I, -I], [I; -I]): relu(a) - relu(-a) is a, so a block
    with this adapter adds the group mean of its attended rows to x."""
    eye = np.eye(d)
    return Tensor(np.hstack([eye, -eye])), Tensor(np.vstack([eye, -eye]))


def make_attention(d, heads, rng, requires_grad=False):
    """A block with random projections and the `passthrough` adapter."""
    mk = lambda shape: Tensor(rng.standard_normal(shape) * 0.3, requires_grad=requires_grad)
    return Block(mk((d, d)), mk((d, d)), mk((d, d)), *passthrough(d), heads=heads)


def make_block(d, d_h, heads, rng, requires_grad=False):
    """A block with random projections and adapter."""
    mk = lambda shape: Tensor(rng.standard_normal(shape) * 0.3, requires_grad=requires_grad)
    return Block(mk((d, d)), mk((d, d)), mk((d, d)), mk((d, d_h)), mk((d_h, d)), heads=heads)


def attended(p, q, kv, q_pos=None, k_pos=None, groups=1):
    """The attention output of block `p` (a `make_attention` block) for the
    query rows `q`, averaged over the `groups`: the residual x is zero, and
    the queries enter as the query position table."""
    kv = kv if isinstance(kv, Tensor) else Tensor(kv)
    table = q if q_pos is None else q + q_pos
    return p(Tensor(np.zeros(q.shape)), kv, q_pos=table, k_pos=k_pos, groups=groups).data


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
        q = rng.standard_normal((5, d))
        kv = Tensor(rng.standard_normal((1, d)))
        out = attended(p, q, kv)
        want = kv.data @ p.wv.data
        for r in range(5):
            assert np.allclose(out[r], want[0], atol=1e-6)

    def test_joint_key_value_permutation_invariance(self, rng):
        d, H, n_k = 8, 2, 6
        p = make_attention(d, H, rng)
        q = rng.standard_normal((3, d))
        kv = rng.standard_normal((n_k, d))
        pos = rng.standard_normal((n_k, d)) * 0.1
        perm = rng.permutation(n_k)
        out1 = attended(p, q, kv, k_pos=pos)
        out2 = attended(p, q, kv[perm], k_pos=pos[perm])
        assert np.max(np.abs(out1 - out2)) < 1e-5

    def test_matches_direct_formula(self, f64, rng):
        # single head, d = 4: evaluate the attention equation directly
        d = 4
        wq = rng.standard_normal((d, d))
        wk = rng.standard_normal((d, d))
        wv = rng.standard_normal((d, d))
        p = Block(Tensor(wq), Tensor(wk), Tensor(wv), *passthrough(d), heads=1)
        q = rng.standard_normal((2, d))
        k = rng.standard_normal((2, d))
        got = attended(p, q, k)

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
        q = rng.standard_normal((3, d))
        kv = Tensor(rng.standard_normal((4, d)))
        pos = rng.standard_normal((4, d))
        out1 = attended(p, q, kv, k_pos=None)
        out2 = attended(p, q, kv, k_pos=pos)
        assert np.allclose(out1, out2, atol=1e-6)

    def test_convex_hull_bound(self, rng):
        # each output row is a convex combination of value projections per head
        d, H = 8, 2
        dv = d // H
        p = make_attention(d, H, rng)
        q = rng.standard_normal((5, d))
        kv = Tensor(rng.standard_normal((7, d)))
        out = attended(p, q, kv)
        for h in range(H):
            v_proj = kv.data @ head_cols(p.wv, p, h)
            lo, hi = v_proj.min(axis=0), v_proj.max(axis=0)
            block = out[:, h * dv : (h + 1) * dv]
            assert (block >= lo - 1e-6).all() and (block <= hi + 1e-6).all()

    def test_gradcheck_projections(self, f64, rng):
        d, H = 8, 2
        p = make_attention(d, H, rng, requires_grad=True)
        params = [p.wq, p.wk, p.wv]
        q = rng.standard_normal((3, d))
        kv = Tensor(rng.standard_normal((4, d)))
        pos_q = rng.standard_normal((3, d)) * 0.2
        pos_k = rng.standard_normal((4, d)) * 0.2
        r = Tensor(rng.standard_normal((3, d)))

        def loss():
            out = p(Tensor(np.zeros((3, d))), kv, q_pos=q + pos_q, k_pos=pos_k)
            return sum_all(mul(out, r))

        assert finite_difference_check(loss, params, eps=1e-5) < 1e-5

    def test_width_mismatch(self, rng):
        p = make_attention(8, 2, rng)
        with pytest.raises(ShapeError):
            p(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 8))))

    def test_group_rows_must_split_evenly(self, rng):
        p = make_attention(8, 2, rng)
        kv = Tensor(np.ones((5, 8)))
        with pytest.raises(ShapeError):
            p(Tensor(np.ones((4, 8))), kv, groups=2)


class TestPackedMatchesPerHeadLoop:
    """Packed attention against the per-head loop, at f64."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_single_group(self, f64, rng, heads):
        d = 16
        p = make_attention(d, heads, rng)
        q, kv = rng.standard_normal((5, d)), rng.standard_normal((7, d))
        q_pos, k_pos = rng.standard_normal((5, d)), rng.standard_normal((7, d))
        got = attended(p, q, kv, q_pos=q_pos, k_pos=k_pos)
        want = per_head_oracle(q + q_pos, kv + k_pos, kv, p)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_groups_attend_only_to_their_own_keys(self, f64, rng):
        # the block's adapter averages the groups, each attended on its own
        d, heads, G, n_q, n_k = 8, 2, 3, 4, 5
        p = make_attention(d, heads, rng)
        q = rng.standard_normal((n_q, d))
        kv = rng.standard_normal((G * n_k, d))
        q_pos, k_pos = rng.standard_normal((n_q, d)), rng.standard_normal((n_k, d))
        got = attended(p, q, kv, q_pos=q_pos, k_pos=k_pos, groups=G)
        assert got.shape == (n_q, d)
        per_group = [per_head_oracle(q + q_pos, kg + k_pos, kg, p) for kg in np.split(kv, G)]
        assert np.max(np.abs(got - sum(per_group) / G)) < 1e-12
        joint = per_head_oracle(q + q_pos, kv + np.tile(k_pos, (G, 1)), kv, p)
        assert np.max(np.abs(got - joint)) > 1e-3

    def test_head_blocks_match_a_per_head_oracle(self, f64, rng):
        # column block h of the output is the group mean of softmax(s q_h k_{g,h}^T) v_{g,h}
        heads, G, n, m, dk = 3, 2, 4, 5, 2
        p = make_attention(heads * dk, heads, rng)
        x = rng.standard_normal((n, heads * dk))
        kv = rng.standard_normal((G * m, heads * dk))
        got = attended(p, x, kv, groups=G)
        assert got.shape == (n, heads * dk)
        s = 1.0 / math.sqrt(dk)
        for h in range(heads):
            q = x @ head_cols(p.wq, p, h)
            want = 0.0
            for g in range(G):
                kg = kv[g * m : (g + 1) * m]
                scores = s * q @ (kg @ head_cols(p.wk, p, h)).T
                w = np.exp(scores - scores.max(axis=1, keepdims=True))
                want = want + (w / w.sum(axis=1, keepdims=True)) @ (kg @ head_cols(p.wv, p, h)) / G
            assert np.max(np.abs(got[:, h * dk : (h + 1) * dk] - want)) < 1e-12

    def test_gradcheck_groups(self, f64, rng):
        d, G = 8, 3
        p = make_attention(d, 2, rng, requires_grad=True)
        params = [p.wq, p.wk, p.wv]
        q = rng.standard_normal((4, d))
        kv = Tensor(rng.standard_normal((G * 2, d)))
        pos_q = rng.standard_normal((4, d)) * 0.2
        pos_k = rng.standard_normal((2, d)) * 0.2
        r = Tensor(rng.standard_normal((4, d)))

        def loss():
            out = p(Tensor(np.zeros((4, d))), kv, q_pos=q + pos_q, k_pos=pos_k, groups=G)
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
    nodes; a change that means to must update these counts. Each `Block`
    call is one node."""

    @pytest.mark.parametrize(
        "n_sketches, ablate, nodes", [(1, False, 49), (5, False, 67), (1, True, 44), (5, True, 62)]
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
            for module in (encoder, decoder):
                monkeypatch.setattr(module, "matmul", _matmul_both)
        model = SketchLocalizer(ModelConfig())
        scores, boxes = model.forward(image, sketches)
        leaf_grads = backward(add(sum_all(mul(scores, r1)), sum_all(mul(boxes, r2))))
        grads.append({name: leaf_grads.get(t) for name, t in model.params.items()})
    assert grads[0].keys() == grads[1].keys()
    for name, g in grads[0].items():
        assert np.array_equal(g, grads[1][name]), name


def call_and_grads(call, prec, seed, *, n=4, n_k=9, d=8, d_h=16, heads=2, groups=1, cross=True,
                   norm=False, grid=True, tables=None, dead_units=False, outside=False):
    """The output of one block call, by `call` (`Block.__call__` or
    `reference_block.block_call`), and the gradients of x, kv and the five
    weights, all drawn from `seed` at precision `prec`.

    x and kv are relu of leaves, so that their gradients are summed by the
    sweep before they reach a leaf. `grid` takes the position tables from
    `grid_pos` (n and n_k square), else from random draws. A self-attention
    call with one group can get the query table as its key table too:
    `tables="shared"` passes that one array object, `tables="copies"` an
    equal copy. `dead_units` zeroes every third column of `w_in`, so that
    the adapter's hidden pre-activations hold exact zeros next to negative
    and positive values. With `outside`, x also feeds a second term of the
    loss."""
    rng = np.random.default_rng(seed)
    with T.precision(prec):
        weights = [Tensor(rng.standard_normal(s) * 0.5, requires_grad=True)
                   for s in ((d, d), (d, d), (d, d), (d, d_h), (d_h, d))]
        if dead_units:
            weights[3].data[:, ::3] = 0
        x0 = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        kv0 = Tensor(rng.standard_normal((groups * n_k, d)), requires_grad=True) if cross else None
        x, kv = relu(x0), relu(kv0) if cross else None
        keys = n_k if cross else n // groups
        if grid:
            q_pos, k_pos = grid_pos(n, d), grid_pos(keys, d)
        else:
            q_pos, k_pos = rng.standard_normal((n, d)), rng.standard_normal((keys, d))
        if tables is not None:
            assert not cross and groups == 1
            k_pos = q_pos if tables == "shared" else q_pos.copy()
        out = call(Block(*weights, heads=heads), x, kv, norm=norm, q_pos=q_pos, k_pos=k_pos, groups=groups)
        loss = sum_all(mul(out, Tensor(rng.standard_normal(out.shape))))
        if outside:
            loss = add(loss, sum_all(mul(x, x)))
        grads = backward(loss)
    return out.data, [grads.get(t) for t in (x0, kv0, *weights) if t is not None]


def assert_same_bits(got, want):
    (out, grads), (out_ref, grads_ref) = got, want
    assert out.dtype == out_ref.dtype and np.array_equal(out, out_ref)
    assert len(grads) == len(grads_ref)
    for g, g_ref in zip(grads, grads_ref):
        assert g.dtype == g_ref.dtype and np.array_equal(g, g_ref)


BIT_CASES = {
    "self-normed-with-positions": dict(cross=False, norm=True),
    "groups-1": dict(groups=1),
    "groups-5": dict(groups=5),
    "groups-5-normed": dict(groups=5, norm=True),
    "x-also-feeds-another-op": dict(outside=True, groups=2),
    # self-attention reuses its position-added query rows as the key rows only for one table object
    "self-normed-one-table-object": dict(cross=False, norm=True, grid=False, tables="shared"),
    "self-one-table-object": dict(cross=False, grid=False, tables="shared"),
    "self-normed-two-equal-tables": dict(cross=False, norm=True, grid=False, tables="copies"),
    "adapter-dead-units": dict(dead_units=True, groups=2),
}


class TestBlock:
    def test_self_attention_attends_over_the_normed_queries(self, rng):
        mk = lambda shape: Tensor(rng.standard_normal(shape) * 0.3)
        blk = replace(make_attention(8, 2, rng), w_in=mk((8, 12)), w_out=mk((12, 8)))
        x = Tensor(rng.standard_normal((6, 8)))
        assert np.array_equal(blk(x, norm=True).data, blk(x, layer_norm_rows(x), norm=True).data)
        assert np.array_equal(blk(x).data, blk(x, x).data)

    @pytest.mark.parametrize("prec", ["f32", "f64"])
    @pytest.mark.parametrize("case", list(BIT_CASES))
    def test_equals_the_composition_bit_for_bit(self, prec, case):
        kw = BIT_CASES[case]
        assert_same_bits(call_and_grads(Block.__call__, prec, 5, **kw), call_and_grads(block_call, prec, 5, **kw))

    @settings(max_examples=40, deadline=None)
    @given(
        prec=st.sampled_from(["f32", "f64"]), heads=st.integers(1, 3), dk=st.integers(1, 3),
        groups=st.integers(1, 3), n=st.integers(1, 5), n_k=st.integers(1, 5),
        cross=st.booleans(), norm=st.booleans(), outside=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_composition_on_any_shapes(self, prec, heads, dk, groups, n, n_k, cross, norm,
                                                  outside, seed):
        n = n * groups if not cross else n  # self-attention splits its own rows into the groups
        kw = dict(n=n, n_k=n_k, d=heads * dk, d_h=3, heads=heads, groups=groups, cross=cross, norm=norm,
                  grid=False, outside=outside)
        assert_same_bits(call_and_grads(Block.__call__, prec, seed, **kw),
                         call_and_grads(block_call, prec, seed, **kw))

    @pytest.mark.parametrize("prec", ["f32", "f64"])
    def test_default_model_equals_the_composition_bit_for_bit(self, prec, monkeypatch):
        # a 5Q forward and backward, every one of the 88 leaves
        rng = np.random.default_rng(3)
        image, sketches = rand_image(rng), [rand_sketch(rng) for _ in range(5)]
        r1, r2 = rng.standard_normal(100), rng.standard_normal((100, 4))
        runs = []
        for call in (Block.__call__, block_call):
            monkeypatch.setattr(Block, "__call__", call)
            with T.precision(prec):
                model = SketchLocalizer(ModelConfig())
                scores, boxes = model.forward(image, sketches)
                grads = backward(add(sum_all(mul(scores, Tensor(r1))), sum_all(mul(boxes, Tensor(r2)))))
            assert len(grads) == len(model.params) == 88
            runs.append((np.concatenate([scores.data, boxes.data.ravel()]),
                         [grads[t] for t in model.params.values()]))
        assert_same_bits(*runs)

    def test_one_tape_node_holds_one_score_sized_array(self, rng):
        blk = make_block(8, 12, 2, rng, requires_grad=True)
        weights = (blk.wq, blk.wk, blk.wv, blk.w_in, blk.w_out)
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        kv = Tensor(rng.standard_normal((15, 8)), requires_grad=True)
        out = blk(x, kv, groups=3)
        assert out._parents == (x, kv, kv, x, *weights)
        assert len(T._topo(sum_all(out))) == 2
        held = [c.cell_contents for c in out._bw.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert [a.shape for a in held].count((6, 3, 5)) == 1  # (groups*heads, n_q, n_k)
        normed = blk(x, norm=True)
        assert normed._parents == (x, x, *weights)

    def test_the_dead_units_case_meets_zeros_and_negatives_at_the_relu(self, monkeypatch):
        seen = []
        monkeypatch.setattr(reference_block, "relu", lambda t: seen.append(t.data.copy()) or relu(t))
        call_and_grads(block_call, "f32", 5, **BIT_CASES["adapter-dead-units"])
        (hid,) = seen
        assert (hid == 0).any() and (hid < 0).any() and (hid > 0).any()

    @pytest.mark.parametrize("norm", [False, True])
    def test_self_attention_with_one_table_saves_its_rows_once(self, rng, norm):
        blk = make_block(8, 12, 2, rng, requires_grad=True)
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        table = rng.standard_normal((4, 8))

        def held(out):
            arrays = [c.cell_contents for c in out._bw.__closure__ if isinstance(c.cell_contents, np.ndarray)]
            return {id(a): a for a in arrays}.values()

        one = held(blk(x, norm=norm, q_pos=table, k_pos=table))
        two = held(blk(x, norm=norm, q_pos=table, k_pos=table.copy()))
        assert len(one) == len(two) - 1  # the key rows are the query rows
        assert not any(a.dtype == bool for a in one)  # the relu mask is read back from the activations

    SHAPE_ERRORS = {
        # name: (x shape, kv shape or None, call keywords), for a d = 8, 2-head block
        "q_pos-one-row": ((4, 8), (9, 8), dict(q_pos=np.ones((1, 8)))),
        "q_pos-width": ((4, 8), (9, 8), dict(q_pos=np.ones((4, 4)))),
        "k_pos-one-row": ((4, 8), (9, 8), dict(k_pos=np.ones((1, 8)))),
        "k_pos-all-groups": ((4, 8), (18, 8), dict(k_pos=np.ones((18, 8)), groups=2)),
        "k_pos-one-row-self": ((4, 8), None, dict(k_pos=np.ones((1, 8)), norm=True)),
        "x-width": ((4, 6), (9, 8), {}),
        "kv-width": ((4, 8), (9, 6), {}),
        "x-rank": ((2, 4, 8), (9, 8), {}),
        "kv-rank": ((4, 8), (8,), {}),
        "group-split": ((4, 8), (9, 8), dict(groups=2)),
        "zero-groups": ((4, 8), (9, 8), dict(groups=0)),
    }

    @pytest.mark.parametrize("case", list(SHAPE_ERRORS))
    def test_a_shape_that_does_not_chain_is_named(self, rng, case):
        x_shape, kv_shape, kw = self.SHAPE_ERRORS[case]
        blk = make_block(8, 12, 2, rng)
        kv = None if kv_shape is None else Tensor(np.ones(kv_shape))
        with pytest.raises(ShapeError, match="^block: "):
            blk(Tensor(np.ones(x_shape)), kv, **kw)

    @pytest.mark.parametrize("heads, w_out", [(3, (12, 8)), (2, (12, 6)), (2, (10, 8))],
                             ids=["8-columns-in-3-heads", "adapter-back-to-width-6", "adapter-widths-12-then-10"])
    def test_weights_that_do_not_chain_are_named(self, rng, heads, w_out):
        blk = replace(make_block(8, 12, heads, rng), w_out=Tensor(np.ones(w_out)))
        with pytest.raises(ShapeError, match="do not chain"):
            blk(Tensor(np.ones((4, 8))))


class TestPositionTables:
    @pytest.mark.parametrize("refrozen", [False, True], ids=["writeable", "unfrozen-edited-refrozen"])
    @pytest.mark.parametrize("name, rows", [("q_pos", 4), ("k_pos", 3)])
    def test_a_table_edited_between_calls_changes_the_next_output(self, rng, name, rows, refrozen):
        blk = make_block(8, 12, 2, rng)
        x, kv = Tensor(rng.standard_normal((4, 8))), Tensor(rng.standard_normal((9, 8)))
        table = rng.standard_normal((rows, 8))
        table.flags.writeable = not refrozen
        first = blk(x, kv, groups=3, **{name: table}).data
        table.flags.writeable = True
        table[0, 0] += 1.0
        table.flags.writeable = not refrozen
        second = blk(x, kv, groups=3, **{name: table}).data
        assert not np.array_equal(first, second)
        assert np.array_equal(second, blk(x, kv, groups=3, **{name: table.copy()}).data)


class TestAdapterFuse:
    """The adapter half of a block call: x + W_out relu(W_in attended)."""

    def test_rows_must_match_groups(self, rng):
        blk = make_block(4, 6, 1, rng)
        with pytest.raises(ShapeError):
            blk(Tensor(np.ones((2, 4))), Tensor(np.ones((7, 4))), groups=2)

    def test_zero_weights_identity(self, rng):
        d, dh = 6, 12
        blk = replace(make_block(d, dh, 2, rng), w_in=Tensor(np.zeros((d, dh))), w_out=Tensor(np.zeros((dh, d))))
        res = Tensor(rng.standard_normal((4, d)))
        kv = Tensor(rng.standard_normal((4, d)))
        assert np.array_equal(blk(res, kv).data, res.data)

    def test_zero_out_projection_identity_bit_exact(self, rng):
        d, dh = 6, 12
        blk = replace(make_block(d, dh, 2, rng), w_out=Tensor(np.zeros((dh, d))))
        res = Tensor(rng.standard_normal((4, d)))
        kv = Tensor(rng.standard_normal((4, d)))
        assert np.array_equal(blk(res, kv).data, res.data)

    def test_zero_attended_gives_residual(self, rng):
        # zero value projections: every attended row is zero
        d, dh = 6, 12
        blk = replace(make_block(d, dh, 2, rng), wv=Tensor(np.zeros((d, d))))
        res = Tensor(rng.standard_normal((4, d)))
        kv = Tensor(rng.standard_normal((4, d)))
        assert np.array_equal(blk(res, kv).data, res.data)

    def test_against_direct_oracle(self, f64, rng):
        d, dh = 8, 16
        blk = make_block(d, dh, 2, rng)
        res = rng.standard_normal((3, d))
        kv = rng.standard_normal((5, d))
        got = blk(Tensor(res), Tensor(kv)).data
        att = per_head_oracle(res, kv, kv, blk)
        want = res + np.maximum(att @ blk.w_in.data, 0.0) @ blk.w_out.data
        assert np.max(np.abs(got - want)) < 1e-6

    def test_gradcheck(self, f64, rng):
        d, dh = 6, 10
        blk = make_block(d, dh, 2, rng)
        blk.w_in = Tensor(rng.standard_normal((d, dh)), requires_grad=True)
        blk.w_out = Tensor(rng.standard_normal((dh, d)), requires_grad=True)
        res = Tensor(rng.standard_normal((3, d)))
        kv = Tensor(rng.standard_normal((4, d)))
        r = Tensor(rng.standard_normal((3, d)))

        def loss():
            return sum_all(mul(blk(res, kv), r))

        assert finite_difference_check(loss, [blk.w_in, blk.w_out], eps=1e-5) < 1e-5
