import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgloc import attention, gradcheck
from sgloc import tensor as T
from sgloc.tensor import (
    ShapeError,
    Tensor,
    accumulate,
    add,
    backward,
    concat,
    finite_difference_check,
    global_max_pool,
    matmul,
    mean_groups,
    mul,
    relu,
    scale,
    sigmoid,
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


class TestMeanGroups:
    def test_mean_groups_matches_add_n_then_scale_bit_exact(self, rng):
        blocks = [Tensor(rng.standard_normal((3, 4))) for _ in range(5)]
        got = mean_groups(concat(blocks, axis=0), 5).data
        assert np.array_equal(got, scale(functools.reduce(add, blocks), 1.0 / 5).data)

    def test_mean_groups_single_group_is_identity(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        assert mean_groups(x, 1) is x

    def test_mean_groups_rejects_uneven_split(self):
        with pytest.raises(ShapeError):
            mean_groups(Tensor(np.ones((5, 2))), 2)


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
        assert scale(w, -1.0).requires_grad
        with T.no_grad():
            with T.no_grad():
                assert not scale(w, -1.0).requires_grad
            assert not scale(w, -1.0).requires_grad
        assert scale(w, -1.0).requires_grad


class TestElementwise:
    def test_relu(self):
        assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_add_negate(self, rng):
        x = Tensor(rng.standard_normal((3, 3)))
        assert np.array_equal(add(x, scale(x, -1.0)).data, np.zeros((3, 3)))

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
    ops = (lambda t: t, sigmoid, lambda t: scale(t, -1.0))
    return sum_all(functools.reduce(add, [scale(mul(ops[o](ws[i]), ws[j]), s) for i, j, o, s in terms]))


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
            whole = backward(add(*(random_loss(ws, t) for t in terms)))
            # a sweep releases its tape, so the chained sweeps run on l1 and l2 built afresh;
            # one sweep over add(l1, l2) reaches l2's tape first
            l1, l2 = (random_loss(ws, t) for t in terms)
            first = backward(l2)
            totals = dict(first)
            chained = backward(l1, into=first)
        assert whole.keys() == chained.keys()
        for w in whole:
            assert whole[w].dtype == chained[w].dtype
            assert np.array_equal(whole[w], chained[w])
        # `into` is the result, its totals changed in place: none is replaced by a new array
        assert chained is first
        assert all(chained[w] is total for w, total in totals.items())
        assert not any(np.shares_memory(chained[a], chained[b]) for a in chained for b in chained
                       if a is not b)

    def test_loss_without_gradient_leaves_into_as_it_is(self):
        w = leaf([1.0, 2.0])
        total = np.array([0.5, 0.25], dtype=w.data.dtype)
        into = {w: total}
        out = backward(sum_all(Tensor([1.0, 2.0])), into=into)
        assert out is into and out.keys() == {w} and out[w] is total
        assert total.tolist() == [0.5, 0.25]

    def test_leaf_loss_adds_one(self):
        w = leaf(3.0)
        total = np.array(2.0, dtype=w.data.dtype)
        into = {w: total}
        assert backward(w, into=into) is into
        assert into[w] is total and total == 3.0 and total.dtype == w.data.dtype
        assert backward(w)[w] == 1.0

    def test_leaf_unreached_by_the_second_loss_keeps_its_total(self):
        w, u = leaf([2.0]), leaf([5.0])
        grads = backward(sum_all(mul(u, u)), into=backward(sum_all(mul(w, w))))
        assert np.array_equal(grads[w], [4.0]) and np.array_equal(grads[u], [10.0])

    def test_a_leaf_used_twice_gets_both_contributions_in_sweep_order(self, monkeypatch):
        added = []

        def recording(grads, p, g):
            added.append((p, g.tolist()))
            real_accumulate(grads, p, g)

        real_accumulate = T.accumulate
        monkeypatch.setattr(T, "accumulate", recording)
        w, u = leaf([2.0]), leaf([3.0])
        into = {w: np.array([1.0], dtype=w.data.dtype)}
        # sum(w*u + w*w): the sweep meets the second term first, w twice there
        assert backward(sum_all(add(mul(w, u), mul(w, w))), into=into) is into
        assert added == [(w, [2.0]), (w, [2.0]), (w, [3.0]), (u, [2.0])]
        assert into[w].tolist() == [8.0] and into[u].tolist() == [2.0]


class TestSweptTape:
    def test_the_same_loss_swept_twice_raises(self):
        w = leaf([2.0])
        loss = sum_all(mul(w, w))
        grads = backward(loss)
        total = grads[w].copy()
        with pytest.raises(T.SweptTapeError):
            backward(loss, into=grads)
        assert np.array_equal(grads[w], total)  # nothing was added

    def test_a_new_loss_over_a_swept_node_raises_before_adding(self):
        w, u = leaf([2.0]), leaf([3.0])
        swept = sum_all(mul(w, w))
        backward(swept)
        fresh = sum_all(mul(u, w))
        into = {u: np.array([1.0], dtype=u.data.dtype)}
        with pytest.raises(T.SweptTapeError):
            backward(add(fresh, swept), into=into)
        assert into.keys() == {u} and into[u].tolist() == [1.0]

    def test_every_node_is_released_and_keeps_its_data(self, rng):
        w = leaf(rng.standard_normal((3, 3)))
        h = relu(matmul(w, w))
        loss = sum_all(h)
        nodes = T._topo(loss)
        assert len(nodes) == 3
        backward(loss)
        assert all(n._parents == () and n._bw is T._swept and n.requires_grad for n in nodes)
        assert np.array_equal(h.data, np.maximum(w.data @ w.data, 0))
        assert w._bw is None  # a leaf is no tape node: a new loss over it sweeps as before
        assert np.array_equal(backward(sum_all(relu(w)))[w], (w.data > 0).astype(w.data.dtype))


class TestAccumulate:
    @settings(max_examples=60, deadline=None)
    @given(
        prec=st.sampled_from(["f32", "f64"]),
        shape=st.sampled_from([(), (1,), (4,), (2, 3)]),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_fold_equals_allocating_sums_bit_for_bit(self, prec, shape, picks, seed):
        rng = np.random.default_rng(seed)
        dtype = np.float32 if prec == "f32" else np.float64
        ws = [leaf(0.0) for _ in range(3)]
        pairs = [(ws[k], (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6)).astype(dtype))
                 for k in picks]
        oracle = {}
        for w, g in pairs:  # the allocating fold: a new array per addition
            oracle[w] = g if w not in oracle else oracle[w] + g
        got = {}
        for w, g in pairs:
            accumulate(got, w, g)
        assert got.keys() == oracle.keys()
        for w in got:
            assert got[w].dtype == oracle[w].dtype == dtype
            assert got[w].tobytes() == oracle[w].tobytes()

    def test_first_array_is_copied(self):
        g = np.array([1.0, 2.0])
        w = leaf([0.0, 0.0])
        got = {}
        accumulate(got, w, g)
        assert got[w] is not g and not np.shares_memory(got[w], g)
        accumulate(got, w, g)
        assert g.tolist() == [1.0, 2.0] and got[w].tolist() == [2.0, 4.0]

    def test_totals_of_operands_of_one_add_do_not_alias(self):
        # add's backward hands one array to both parents
        w, u = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        grads = backward(sum_all(add(w, u)))
        assert not np.shares_memory(grads[w], grads[u])
        accumulate(grads, w, np.ones(2, dtype=grads[w].dtype))
        assert grads[w].tolist() == [2.0, 2.0] and grads[u].tolist() == [1.0, 1.0]

    def test_dtype_mismatch_raises(self):
        w = leaf([1.0])
        grads = {w: np.array([1.0], dtype=np.float32)}
        with pytest.raises(TypeError, match="float64 gradient cannot be added onto a float32"):
            accumulate(grads, w, np.array([1.0], dtype=np.float64))
        assert grads[w].dtype == np.float32 and grads[w].tolist() == [1.0]
        with pytest.raises(TypeError):
            backward(w, into={w: np.array(2.0).reshape(1)})  # an f64 total under f32


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

    @pytest.mark.parametrize("n", [0, -3])
    def test_without_coordinates_is_refused(self, f64, n):
        w = leaf([1.0])
        with pytest.raises(ValueError, match=f"^max_coords must be at least 1, got {n}$"):
            finite_difference_check(lambda: sum_all(w), [w], max_coords=n)


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


class TestExactRewrites:
    """Layer norm takes a mean as sum / d, and Block's softmax takes its max
    with `np.fmax.reduce`: each gives the bits of the plain numpy expression
    it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), n=st.integers(1, 6), d=st.integers(1, 70),
           seed=st.integers(0, 2**32 - 1))
    def test_layer_norm_equals_the_mean_formula(self, dtype, n, d, seed):
        rng = np.random.default_rng(seed)
        x, g = (rng.standard_normal((n, d)).astype(dtype) * 3 for _ in range(2))
        xc = x - x.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-5)
        out = xc * inv
        want = (g - g.mean(axis=1, keepdims=True) - out * (g * out).mean(axis=1, keepdims=True)) * inv
        got_out, got_inv = T._layer_norm(x)
        assert np.array_equal(got_out, out) and np.array_equal(got_inv, inv)
        assert np.array_equal(T._layer_norm_grad(g, out, inv), want)

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_softmax_equals_the_max_formula(self, dtype, shape, seed):
        x = (np.random.default_rng(seed).standard_normal(shape) * 10).astype(dtype)
        want = np.exp(x - x.max(axis=-1, keepdims=True))
        want /= want.sum(axis=-1, keepdims=True)
        assert np.array_equal(attention._softmax_(x.copy()), want)


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

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_item_reads_the_one_value(self, shape):
        assert Tensor(np.full(shape, 2.5)).item() == 2.5

    @pytest.mark.parametrize("shape", [(3,), (2, 1)])
    def test_item_refuses_more_than_one_value(self, shape):
        with pytest.raises(ShapeError, match="one value"):
            Tensor(np.arange(float(np.prod(shape))).reshape(shape)).item()

    def test_gradient_map_shapes(self, rng):
        w = leaf(rng.standard_normal((3, 2)))
        grads = backward(sum_all(mul(w, w)))
        assert grads[w].shape == w.shape
