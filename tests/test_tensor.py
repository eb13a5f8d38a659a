import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgloc import gradcheck
from sgloc import tensor as T
from sgloc.tensor import (
    ShapeError,
    Tensor,
    accumulate,
    add,
    add_n,
    attend,
    backward,
    bmm,
    concat,
    finite_difference_check,
    global_max_pool,
    leaf_contributions,
    matmul,
    mean_groups,
    merge_heads,
    mul,
    neg,
    relu,
    scale,
    sigmoid,
    softmax_rows,
    split_heads,
    sum_all,
)


def leaf(arr):
    return Tensor(np.asarray(arr), requires_grad=True)


def matmul_loops(a, b):
    """Independent triple-loop reference for the matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_scalar_case(self):
        assert matmul(Tensor([[2.0]]), Tensor([[3.0]])).data[0, 0] == 6.0

    def test_against_loop_oracle(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - matmul_loops(a, b))) < 1e-6

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError) as e:
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)

    def test_associative_f32(self, f32, rng):
        for _ in range(10):
            a = Tensor(rng.standard_normal((3, 4)))
            b = Tensor(rng.standard_normal((4, 5)))
            c = Tensor(rng.standard_normal((5, 2)))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            assert np.max(np.abs(left - right)) < 1e-4


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(Tensor([[0.0, 0.0]])).data
        assert np.allclose(out, [[0.5, 0.5]])

    def test_no_overflow(self):
        out = softmax_rows(Tensor([[1000.0, 0.0]])).data
        assert abs(out[0, 0] - 1.0) < 1e-6 and abs(out[0, 1]) < 1e-6

    def test_against_exp_sum_oracle(self, f64, rng):
        x = rng.standard_normal((1, 7))
        got = softmax_rows(Tensor(x)).data
        want = np.exp(x) / np.exp(x).sum()
        assert np.max(np.abs(got - want)) < 1e-9

    def test_rows_sum_to_one_and_shift_invariant(self, rng):
        x = rng.standard_normal((5, 9))
        out = softmax_rows(Tensor(x)).data
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-6
        shifted = softmax_rows(Tensor(x + 3.7)).data
        assert np.max(np.abs(out - shifted)) < 1e-6

    def test_rank3_is_rank2_per_batch_entry(self, f64, rng):
        x = rng.standard_normal((3, 4, 6))
        got = softmax_rows(Tensor(x)).data
        for b in range(3):
            assert np.array_equal(got[b], softmax_rows(Tensor(x[b])).data)

    def test_rank4_rejected(self):
        with pytest.raises(ShapeError):
            softmax_rows(Tensor(np.ones((2, 2, 2, 2))))


class TestBatched:
    def test_bmm_against_loop_oracle(self, f64, rng):
        a = rng.standard_normal((3, 4, 2))
        b = rng.standard_normal((3, 2, 5))
        got = bmm(Tensor(a), Tensor(b)).data
        for i in range(3):
            assert np.max(np.abs(got[i] - matmul_loops(a[i], b[i]))) < 1e-12

    def test_bmm_transpose_b(self, f64, rng):
        a = rng.standard_normal((2, 4, 3))
        b = rng.standard_normal((2, 5, 3))
        got = bmm(Tensor(a), Tensor(b), transpose_b=True).data
        for i in range(2):
            assert np.max(np.abs(got[i] - matmul_loops(a[i], b[i].T))) < 1e-12

    def test_bmm_shared_a_repeats_over_groups(self, f64, rng):
        # a holds B/G = 2 entries; b holds G = 3 groups of 2, group-major
        a = rng.standard_normal((2, 4, 3))
        b = rng.standard_normal((6, 3, 5))
        got = bmm(Tensor(a), Tensor(b)).data
        for g in range(3):
            for i in range(2):
                assert np.max(np.abs(got[2 * g + i] - a[i] @ b[2 * g + i])) < 1e-12

    def test_bmm_shape_errors(self):
        with pytest.raises(ShapeError):
            bmm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 2))))
        with pytest.raises(ShapeError):
            bmm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))
        with pytest.raises(ShapeError):
            bmm(Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2))))

    def test_split_heads_layout(self, rng):
        # entry g*H + h holds rows of group g and column block h
        x = rng.standard_normal((2 * 3, 4 * 2))
        got = split_heads(Tensor(x), heads=4, groups=2).data
        assert got.shape == (8, 3, 2)
        for g in range(2):
            for h in range(4):
                assert np.array_equal(got[g * 4 + h], x[g * 3 : (g + 1) * 3, h * 2 : (h + 1) * 2].astype(got.dtype))

    def test_merge_inverts_split(self, rng):
        x = Tensor(rng.standard_normal((6, 8)))
        assert np.array_equal(merge_heads(split_heads(x, 4, groups=3), 4).data, x.data)
        y = Tensor(rng.standard_normal((6, 2, 3)))
        assert np.array_equal(split_heads(merge_heads(y, 2), 2, groups=3).data, y.data)

    def test_split_merge_shape_errors(self):
        with pytest.raises(ShapeError):
            split_heads(Tensor(np.ones((6, 8))), 3)
        with pytest.raises(ShapeError):
            split_heads(Tensor(np.ones((6, 8))), 2, groups=4)
        with pytest.raises(ShapeError):
            merge_heads(Tensor(np.ones((5, 2, 2))), 2)

    def test_mean_groups_matches_add_n_then_scale_bit_exact(self, rng):
        blocks = [Tensor(rng.standard_normal((3, 4))) for _ in range(5)]
        got = mean_groups(concat(blocks, axis=0), 5).data
        assert np.array_equal(got, scale(add_n(blocks), 1.0 / 5).data)

    def test_mean_groups_single_group_is_identity(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        assert mean_groups(x, 1) is x

    def test_mean_groups_rejects_uneven_split(self):
        with pytest.raises(ShapeError):
            mean_groups(Tensor(np.ones((5, 2))), 2)


def attend_chain(q, k, v, s):
    """The four ops `attend` fuses, in the order it computes them."""
    return bmm(softmax_rows(scale(bmm(q, k, transpose_b=True), s)), v)


class TestAttend:
    @settings(max_examples=60, deadline=None)
    @given(
        prec=st.sampled_from(["f32", "f64"]),
        ba=st.integers(1, 3), groups=st.integers(1, 3), n=st.integers(1, 5),
        m=st.integers(1, 6), dk=st.integers(1, 4), dv=st.integers(1, 4),
        s=st.floats(0.05, 4.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_unfused_chain_bit_for_bit(self, prec, ba, groups, n, m, dk, dv, s, seed):
        rng = np.random.default_rng(seed)
        with T.precision(prec):
            q, k, v = (leaf(rng.standard_normal(shape) * 2.0)
                       for shape in ((ba, n, dk), (groups * ba, m, dk), (groups * ba, m, dv)))
            r = Tensor(rng.standard_normal((groups * ba, n, dv)))
            outs = [op(q, k, v, s) for op in (attend, attend_chain)]
            grads = [backward(sum_all(mul(out, r))) for out in outs]
        assert outs[0].data.dtype == outs[1].data.dtype
        assert np.array_equal(outs[0].data, outs[1].data)
        for t in (q, k, v):
            assert np.array_equal(grads[0][t], grads[1][t])

    def test_one_tape_node_holds_one_score_sized_array(self, rng):
        q = leaf(rng.standard_normal((2, 3, 4)))
        k = leaf(rng.standard_normal((6, 5, 4)))
        v = leaf(rng.standard_normal((6, 5, 2)))
        out = attend(q, k, v, 0.5)
        assert out._parents == (q, k, v)
        held = [c.cell_contents for c in out._bw.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert [a.shape for a in held].count((6, 3, 5)) == 1

    def test_shape_errors(self):
        ones = lambda *shape: Tensor(np.ones(shape))
        with pytest.raises(ShapeError):
            attend(ones(2, 3, 4), ones(3, 5, 4), ones(3, 5, 2), 1.0)  # 3 key batches, 2 query batches
        with pytest.raises(ShapeError):
            attend(ones(2, 3, 4), ones(2, 5, 3), ones(2, 5, 2), 1.0)  # key widths differ
        with pytest.raises(ShapeError):
            attend(ones(2, 3, 4), ones(2, 5, 4), ones(2, 4, 2), 1.0)  # 5 keys, 4 values
        with pytest.raises(ShapeError):
            attend(ones(3, 4), ones(5, 4), ones(5, 2), 1.0)


class TestNoGrad:
    def test_records_no_tape(self, rng):
        w = leaf(rng.standard_normal((3, 2)))
        with T.no_grad():
            y = relu(matmul(w, leaf(rng.standard_normal((2, 4)))))
        assert not y.requires_grad and y._parents == () and y._bw is None
        assert matmul(w, Tensor(np.ones((2, 1)))).requires_grad  # the tape is back

    def test_restored_after_exception_and_when_nested(self, rng):
        w = leaf(rng.standard_normal((2, 2)))
        with pytest.raises(KeyError):
            with T.no_grad():
                raise KeyError("inside the block")
        assert neg(w).requires_grad
        with T.no_grad():
            with T.no_grad():
                assert not neg(w).requires_grad
            assert not neg(w).requires_grad
        assert neg(w).requires_grad


class TestElementwise:
    def test_relu(self):
        assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_add_negate(self, rng):
        x = Tensor(rng.standard_normal((3, 3)))
        assert np.array_equal(add(x, neg(x)).data, np.zeros((3, 3)))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))

    def test_scale(self):
        assert np.array_equal(scale(Tensor([2.0, -4.0]), 0.5).data, [1.0, -2.0])


class TestConcat:
    def test_stacks_rows(self):
        out = concat([Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])], axis=0)
        assert out.shape == (2, 2)
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_single_identity(self, rng):
        x = Tensor(rng.standard_normal((2, 3)))
        assert np.array_equal(concat([x], axis=0).data, x.data)
        assert concat([x], axis=1) is x  # no tape node for a one-element list

    def test_gradient_splits(self, rng):
        a = leaf(rng.standard_normal((2, 3)))
        b = leaf(rng.standard_normal((4, 3)))
        grads = backward(sum_all(concat([a, b], axis=0)))
        assert np.array_equal(grads[a], np.ones((2, 3)))
        assert np.array_equal(grads[b], np.ones((4, 3)))

    def test_concat_split_roundtrip_bit_exact(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((2, 4)).astype(np.float32)
        cat = concat([Tensor(a), Tensor(b)], axis=0).data
        assert np.array_equal(cat[:3], a) and np.array_equal(cat[3:], b)

    def test_incompatible(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))], axis=0)


class TestGlobalMaxPool:
    def test_constant_map(self):
        out = global_max_pool(Tensor(np.full((9, 5), 3.0)))
        assert np.array_equal(out.data, np.full(5, 3.0))

    def test_single_channel(self):
        out = global_max_pool(Tensor([[1.0], [5.0], [2.0], [0.0]]))
        assert out.data[0] == 5.0

    def test_against_scan_oracle(self, rng):
        x = rng.standard_normal((20, 6))  # (w*h) x d
        got = global_max_pool(Tensor(x)).data
        for c in range(6):
            best = -np.inf
            for s in range(20):
                best = max(best, x[s, c])
            assert got[c] == pytest.approx(best)

    def test_grad_routes_to_first_argmax(self):
        x = leaf([[2.0, 1.0], [2.0, 0.0]])  # column 0 ties on rows 0 and 1
        grads = backward(sum_all(global_max_pool(x)))
        assert np.array_equal(grads[x], [[1.0, 1.0], [0.0, 0.0]])


class TestBackward:
    def test_linear_case(self, rng):
        w = leaf(rng.standard_normal((3, 4)))
        x = Tensor(rng.standard_normal((4, 2)))
        grads = backward(sum_all(matmul(w, x)))
        want = np.ones((3, 2)) @ x.data.T
        assert np.allclose(grads[w], want)

    def test_zero_scaled_branch(self):
        w = leaf([1.5])
        grads = backward(sum_all(scale(sigmoid(w), 0.0)))
        assert np.array_equal(grads[w], [0.0])

    def test_unused_param_reads_zero(self):
        w = leaf([2.0])
        u = leaf([5.0])
        grads = backward(sum_all(mul(w, w)))
        assert w in grads and u not in grads  # an unreached leaf has no entry: zero to its readers

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(leaf([1.0, 2.0]))

    def test_deterministic(self, rng):
        w = leaf(rng.standard_normal((4, 4)))
        x = Tensor(rng.standard_normal((4, 4)))

        def loss():
            return sum_all(mul(matmul(w, x), matmul(w, x)))

        g1 = backward(loss())[w]
        g2 = backward(loss())[w]
        assert np.array_equal(g1, g2)

    def test_reused_node_accumulates(self):
        w = leaf([3.0])
        y = add(w, w)
        grads = backward(sum_all(y))
        assert np.array_equal(grads[w], [2.0])


def random_loss(ws, terms):
    """sum_all of a left-to-right sum of scale(mul(op(ws[i]), ws[j]), s) terms:
    a leaf may appear in several terms and twice in one."""
    ops = (lambda t: t, sigmoid, neg)
    return sum_all(add_n([scale(mul(ops[o](ws[i]), ws[j]), s) for i, j, o, s in terms]))


class TestBackwardInto:
    @settings(max_examples=80, deadline=None)
    @given(
        prec=st.sampled_from(["f32", "f64"]),
        shape=st.sampled_from([(1,), (3,), (2, 3)]),
        n_leaves=st.integers(1, 4),
        terms=st.lists(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
                               st.floats(-3.0, 3.0, allow_nan=False)), min_size=1, max_size=5),
            min_size=2, max_size=2,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chained_sweeps_equal_one_sweep_over_the_sum_bit_for_bit(self, prec, shape, n_leaves,
                                                                     terms, seed):
        rng = np.random.default_rng(seed)
        terms = [[(i % n_leaves, j % n_leaves, o, s) for i, j, o, s in t] for t in terms]
        with T.precision(prec):
            ws = [leaf(rng.standard_normal(shape) * 2.0) for _ in range(n_leaves)]
            l1, l2 = (random_loss(ws, t) for t in terms)
            whole = backward(add(l1, l2))
            # one sweep over add(l1, l2) reaches l2's tape first
            first = backward(l2)
            kept = {w: g.copy() for w, g in first.items()}
            chained = backward(l1, into=first)
        assert whole.keys() == chained.keys()
        for w in whole:
            assert whole[w].dtype == chained[w].dtype
            assert np.array_equal(whole[w], chained[w])
        assert first.keys() == kept.keys()
        assert all(np.array_equal(first[w], kept[w]) for w in kept)

    def test_loss_without_gradient_returns_a_copy_of_into(self):
        w = leaf([1.0, 2.0])
        into = {w: np.array([0.5, 0.25])}
        out = backward(sum_all(Tensor([1.0, 2.0])), into=into)
        assert out is not into and out.keys() == into.keys() and out[w] is into[w]

    def test_leaf_loss_adds_one(self):
        w = leaf(3.0)
        into = {w: np.array(2.0)}
        assert backward(w, into=into)[w] == 3.0 and into[w] == 2.0
        assert backward(w)[w] == 1.0

    def test_leaf_unreached_by_the_second_loss_keeps_its_total(self):
        w, u = leaf([2.0]), leaf([5.0])
        grads = backward(sum_all(mul(u, u)), into=backward(sum_all(mul(w, w))))
        assert np.array_equal(grads[w], [4.0]) and np.array_equal(grads[u], [10.0])


class TestLeafContributions:
    def test_a_leaf_gets_one_pair_per_use_in_sweep_order(self):
        w, u = leaf([2.0]), leaf([3.0])
        # sum(w*u + w*w): the sweep meets the second term first, w twice there
        pairs = list(leaf_contributions(sum_all(add(mul(w, u), mul(w, w)))))
        assert [p for p, _ in pairs] == [w, w, w, u]
        assert [g.tolist() for _, g in pairs] == [[2.0], [2.0], [3.0], [2.0]]

    @settings(max_examples=40, deadline=None)
    @given(
        n_leaves=st.integers(1, 3),
        terms=st.lists(
            st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                               st.floats(-3.0, 3.0, allow_nan=False)), min_size=1, max_size=5),
            min_size=2, max_size=2,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pairs_shipped_by_position_fold_to_the_chained_backward(self, n_leaves, terms, seed):
        # what a training worker does: send one loss's pairs keyed by position,
        # pickled; the receiver adds them onto the totals of the other loss
        rng = np.random.default_rng(seed)
        terms = [[(i % n_leaves, j % n_leaves, o, s) for i, j, o, s in t] for t in terms]
        ws = [leaf(rng.standard_normal(3).astype(np.float32)) for _ in range(n_leaves)]
        l1, l2 = (random_loss(ws, t) for t in terms)
        want = backward(l1, into=backward(l2))
        shipped = pickle.loads(pickle.dumps([(ws.index(w), g) for w, g in leaf_contributions(l1)]))
        got = accumulate(backward(l2), [(ws[k], g) for k, g in shipped])
        assert want.keys() == got.keys()
        assert all(want[w].dtype == got[w].dtype and np.array_equal(want[w], got[w]) for w in want)

    def test_non_scalar_loss_is_refused(self):
        with pytest.raises(ShapeError, match="scalar loss"):
            list(leaf_contributions(mul(leaf([1.0, 2.0]), leaf([3.0, 4.0]))))


class TestFiniteDifference:
    def test_quadratic(self, f64):
        w = leaf([3.0])
        err = finite_difference_check(lambda: sum_all(mul(w, w)), [w], eps=1e-4)
        assert err < 1e-7
        assert backward(sum_all(mul(w, w)))[w][0] == pytest.approx(6.0)

    def test_constant(self, f64):
        w = leaf([1.0])
        c = Tensor([2.0])
        err = finite_difference_check(lambda: sum_all(mul(c, c)), [w], eps=1e-4)
        assert err == 0.0

    def test_requires_f64(self, f32):
        w = leaf([1.0])
        with pytest.raises(T.PrecisionError):
            finite_difference_check(lambda: sum_all(w), [w])


class TestGradcheckAllOps:
    """Every op case of `sgloc gradcheck` against the central-difference
    oracle, on fresh inputs from the CLI's input seed 7 (tests/test_gradcheck.py
    covers seeds 0-4). The cases live only in `gradcheck._OP_CASES`."""

    CASES = {name: (shapes, loss) for name, shapes, loss in gradcheck._OP_CASES}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_op(self, f64, name):
        shapes, loss = self.CASES[name]
        err = gradcheck.check_op_case(name, shapes, loss, np.random.default_rng(7))
        assert err < gradcheck.TOLERANCE, f"{name}: rel error {err:.3e}"


class TestLayerNorm:
    def test_rows_standardized(self, rng):
        x = Tensor(rng.standard_normal((4, 16)) * 3 + 1)
        out = T.layer_norm_rows(x).data
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=1), 1.0, atol=1e-3)

    def test_constant_row_maps_to_zero(self):
        out = T.layer_norm_rows(Tensor(np.full((2, 8), 3.0))).data
        assert np.allclose(out, 0.0)
        assert np.isfinite(out).all()

    def test_scale_invariance(self, rng):
        x = rng.standard_normal((3, 12))
        a = T.layer_norm_rows(Tensor(x)).data
        b = T.layer_norm_rows(Tensor(x * 7.0)).data
        assert np.allclose(a, b, atol=1e-5)


class TestTensorBasics:
    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2, 2, 2)))

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))

    def test_precision_switch(self):
        assert Tensor([1.0]).data.dtype == np.float32  # the default
        with T.precision("f64"):
            assert Tensor([1.0]).data.dtype == np.float64
            with T.precision("f32"):
                assert Tensor([1.0]).data.dtype == np.float32
            assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0]).data.dtype == np.float32

    def test_precision_restored_after_exception(self):
        with pytest.raises(KeyError):
            with T.precision("f64"):
                raise KeyError("inside the block")
        assert Tensor([1.0]).data.dtype == np.float32

    def test_unknown_precision_rejected(self):
        with pytest.raises(T.PrecisionError, match="f16"):
            with T.precision("f16"):
                pass
        assert Tensor([1.0]).data.dtype == np.float32

    def test_gradient_map_shapes(self, rng):
        w = leaf(rng.standard_normal((3, 2)))
        grads = backward(sum_all(mul(w, w)))
        assert grads[w].shape == w.shape

    def test_add_n_order(self):
        xs = [leaf([float(i)]) for i in range(4)]
        assert add_n(xs).data[0] == 6.0
