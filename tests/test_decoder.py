import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sgloc.attention import grid_pos
from sgloc.decoder import (
    DETECTION,
    LocalizationResult,
    decode,
    predict_boxes,
    refine_object_tokens,
    refine_query_tokens,
    score_tokens,
)
from sgloc.model import ModelConfig, SketchLocalizer
from sgloc.tensor import (
    Tensor,
    add,
    backward,
    finite_difference_check,
    global_max_pool,
    mul,
    no_grad,
    sum_all,
)
from reference_block import cross_attention
from test_encoder import TINY, rand_image, rand_sketch, tiny_model


def result_of(pairs) -> LocalizationResult:
    """The result holding the (box (4,), score) pairs, in their order."""
    return LocalizationResult.of(np.reshape([b for b, _ in pairs], (-1, 4)), [s for _, s in pairs])


def fake_features(rng, d):
    """Stage token matrices over a 2x2 and a 1x1 grid."""
    return [Tensor(rng.standard_normal((n, d))) for n in (4, 1)]


def first_det(m):
    """The DET tokens after decoder layer 0's self-attention block."""
    return m.decoder_layers[0][0](m.det_embed, norm=True)


class TestDecode:
    def test_output_shape(self, rng):
        m = tiny_model()
        out = decode(fake_features(rng, TINY.d), m.decoder_layers, first_det(m))
        assert out.shape == (TINY.num_tokens, TINY.d)

    def test_zero_weights_give_embedding_table(self, rng):
        m = tiny_model()
        for name, t in m.params.items():
            if name.startswith("decoder.layer"):
                t.data[...] = 0.0
        out = decode(fake_features(rng, TINY.d), m.decoder_layers, first_det(m))
        assert np.array_equal(out.data, m.det_embed.data)

    def test_stage_permutation_invariance(self, rng):
        m = tiny_model()
        feats = fake_features(rng, TINY.d)
        a = decode(feats, m.decoder_layers, first_det(m)).data
        b = decode(list(reversed(feats)), m.decoder_layers, first_det(m)).data
        assert np.max(np.abs(a - b)) < 1e-5


class TestRefinement:
    def sketch_map(self, rng, n=4, d=TINY.d):
        return Tensor(rng.standard_normal((n, d)))  # a 2x2 grid

    def test_zero_adapter_identity_object(self, rng):
        m = tiny_model()
        m.params["refine_obj.adapter.in"].data[...] = 0.0
        m.params["refine_obj.adapter.out"].data[...] = 0.0
        det = Tensor(rng.standard_normal((TINY.num_tokens, TINY.d)))
        out = refine_object_tokens(det, self.sketch_map(rng), m.refine_obj)
        assert np.array_equal(out.data, det.data)

    def test_zero_adapter_identity_query(self, rng):
        m = tiny_model()
        m.params["refine_query.adapter.in"].data[...] = 0.0
        m.params["refine_query.adapter.out"].data[...] = 0.0
        sk = self.sketch_map(rng)
        det = Tensor(rng.standard_normal((TINY.num_tokens, TINY.d)))
        out = refine_query_tokens(sk, det, m.refine_query)
        assert np.array_equal(out.data, sk.data)

    def test_single_sketch_token_same_attended_value(self, rng):
        # softmax over one key is 1: before the MLP every token sees the same value
        m = tiny_model()
        sk = Tensor(rng.standard_normal((1, TINY.d)))  # a 1x1 grid
        det = Tensor(rng.standard_normal((TINY.num_tokens, TINY.d)))
        att = cross_attention(det, sk, m.refine_obj, k_pos=grid_pos(1, TINY.d)).data
        assert np.allclose(att, att[0], atol=1e-6)

    def test_matches_direct_formula(self, f64, rng):
        # hand-evaluated refinement: attention then two-matmul adapter + residual
        m = tiny_model(seed=11)
        sk = self.sketch_map(rng)
        det = Tensor(rng.standard_normal((TINY.num_tokens, TINY.d)))
        got = refine_object_tokens(det, sk, m.refine_obj).data

        p = m.refine_obj
        pos = grid_pos(4, TINY.d)
        k = sk.data + pos
        heads = []
        dk = p.wq.shape[0] // p.heads
        for h in range(p.heads):
            cols = slice(h * dk, (h + 1) * dk)  # head h's column block
            q = det.data @ p.wq.data[:, cols]
            kk = k @ p.wk.data[:, cols]
            vv = sk.data @ p.wv.data[:, cols]
            logits = q @ kk.T / math.sqrt(dk)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            att = e / e.sum(axis=1, keepdims=True)
            heads.append(att @ vv)
        att_out = np.concatenate(heads, axis=1)
        want = det.data + np.maximum(att_out @ p.w_in.data, 0) @ p.w_out.data
        assert np.max(np.abs(got - want)) < 1e-9

    def test_refined_query_differs_from_input(self, rng):
        m = tiny_model()
        sk = self.sketch_map(rng)
        det = Tensor(rng.standard_normal((TINY.num_tokens, TINY.d)))
        out = refine_query_tokens(sk, det, m.refine_query)
        assert np.max(np.abs(out.data - sk.data)) > 1e-8


class TestHeads:
    def test_global_embed_is_channel_max(self, rng):
        toks = rng.standard_normal((6, TINY.d))
        assert np.allclose(global_max_pool(Tensor(toks)).data, toks.max(axis=0))

    def test_zero_final_layer_scores_half(self, rng):
        m = tiny_model()
        m.params["head.score.w2"].data[...] = 0.0
        m.params["head.score.b2"].data[...] = 0.0
        det = Tensor(rng.standard_normal((5, TINY.d)))
        vec = Tensor(rng.standard_normal(TINY.d))
        assert np.array_equal(score_tokens(det, vec, m.score_mlp).data, np.full(5, 0.5))

    def test_scores_strictly_inside_unit_interval(self, rng):
        m = tiny_model()
        det = Tensor(rng.standard_normal((7, TINY.d)) * 10)
        vec = Tensor(rng.standard_normal(TINY.d))
        s = score_tokens(det, vec, m.score_mlp).data
        assert np.all(s > 0) and np.all(s < 1)

    def test_score_matches_direct_evaluation(self, f64, rng):
        m = tiny_model(seed=2)
        det = rng.standard_normal((3, TINY.d))
        vec = rng.standard_normal(TINY.d)
        got = score_tokens(Tensor(det), Tensor(vec), m.score_mlp).data
        z = np.concatenate([det, np.tile(vec, (3, 1))], axis=1)
        (w1, b1), (w2, b2) = m.score_mlp
        h = np.maximum(z @ w1.data + b1.data, 0)
        logits = (h @ w2.data + b2.data).reshape(-1)
        want = 1 / (1 + np.exp(-logits))
        assert np.max(np.abs(got - want)) < 1e-9

    def test_score_permutation_equivariant(self, rng):
        m = tiny_model()
        det = rng.standard_normal((6, TINY.d))
        vec = Tensor(rng.standard_normal(TINY.d))
        perm = rng.permutation(6)
        s1 = score_tokens(Tensor(det), vec, m.score_mlp).data
        s2 = score_tokens(Tensor(det[perm]), vec, m.score_mlp).data
        assert np.allclose(s1[perm], s2, atol=1e-7)

    def test_boxes_in_unit_interval(self, rng):
        m = tiny_model()
        det = Tensor(rng.standard_normal((5, TINY.d)) * 10)
        b = predict_boxes(det, m.box_mlp).data
        assert np.all(b > 0) and np.all(b < 1)

    def test_zero_final_layer_centers_boxes(self, rng):
        m = tiny_model()
        m.params["head.box.w3"].data[...] = 0.0
        m.params["head.box.b3"].data[...] = 0.0
        det = Tensor(rng.standard_normal((5, TINY.d)))
        assert np.array_equal(predict_boxes(det, m.box_mlp).data, np.full((5, 4), 0.5))

    def test_box_head_gradcheck(self, f64, rng):
        m = tiny_model()
        params = [t for n, t in m.params.items() if n.startswith("head.box")]
        det = Tensor(rng.standard_normal((4, TINY.d)))
        r = Tensor(rng.standard_normal((4, 4)))

        def loss():
            return sum_all(mul(predict_boxes(det, m.box_mlp), r))

        assert finite_difference_check(loss, params, eps=1e-5, max_coords=150) < 1e-5


class TestLocalize:
    def test_threshold_one_empty(self, rng):
        m = tiny_model()
        res = m.localize(rand_image(rng), [rand_sketch(rng)], threshold=1.0)
        assert res.detections.dtype == result_of([]).detections.dtype == DETECTION
        assert len(res.detections) == 0

    def test_threshold_zero_returns_all_tokens(self, rng):
        m = tiny_model()
        res = m.localize(rand_image(rng), [rand_sketch(rng)], threshold=0.0)
        assert len(res.detections) == TINY.num_tokens
        scores = [s for _, s in res.detections]
        assert scores == sorted(scores, reverse=True)

    def test_invalid_threshold(self, rng):
        m = tiny_model()
        with pytest.raises(ValueError):
            m.localize(rand_image(rng), [rand_sketch(rng)], threshold=1.5)

    @pytest.mark.parametrize("threshold", [True, False, "0.5", None, np.True_])
    def test_threshold_must_be_a_real_number(self, rng, threshold):
        m = tiny_model()
        with pytest.raises(ValueError, match="threshold must be a real number"):
            m.localize(rand_image(rng), [rand_sketch(rng)], threshold=threshold)

    @pytest.mark.parametrize("threshold", [np.float32(0.0), np.float64(0.0), 0])
    def test_numpy_and_integer_thresholds_pass(self, rng, threshold):
        m = tiny_model()
        res = m.localize(rand_image(rng), [rand_sketch(rng)], threshold=threshold)
        assert len(res.detections) == TINY.num_tokens

    def test_scene_as_list_is_named(self, rng):
        with pytest.raises(ValueError, match="scene must be a numpy array, got list"):
            tiny_model().localize(rand_image(rng).tolist(), [rand_sketch(rng)])

    def test_scene_as_path_is_named(self, rng):
        with pytest.raises(ValueError, match="scene must be a numpy array, got str"):
            tiny_model().localize("scene.ppm", [rand_sketch(rng)])

    def test_sketch_as_list_is_named(self, rng):
        with pytest.raises(ValueError, match="sketch must be a numpy array, got list"):
            tiny_model().localize(rand_image(rng), [rand_sketch(rng).tolist()])

    @pytest.mark.parametrize("fault", ["scene_0_255", "nan_scene", "nan_sketch"])
    def test_rejects_pixels_outside_unit_range(self, rng, fault):
        m = tiny_model()
        image, sketch = rand_image(rng), rand_sketch(rng)
        if fault == "scene_0_255":
            image = image * 255.0
        elif fault == "nan_scene":
            image[3, 5, 1] = np.nan
        else:
            sketch[7, 2] = np.nan
        with pytest.raises(ValueError, match=r"pixel values must be finite and lie in \[0, 1\]"):
            m.localize(image, [sketch])

    @pytest.mark.parametrize("n_sketches", [1, 3])
    def test_keeps_no_tape_and_matches_a_taped_forward(self, rng, n_sketches):
        m = tiny_model()
        image, sketches = rand_image(rng), [rand_sketch(rng) for _ in range(n_sketches)]
        forward, inside = m.forward, []

        def spy(*args):
            inside.append(forward(*args))
            return inside[-1]

        m.forward = spy
        res = m.localize(image, sketches, threshold=0.0)
        ((scores, boxes),) = inside
        for t in (scores, boxes):
            assert not t.requires_grad and t._parents == () and t._bw is None
        s, b = forward(image, sketches)
        assert s.requires_grad and s._parents  # the tape is on again
        order = np.argsort(-s.data, kind="stable")
        assert [score for _, score in res.detections] == s.data[order].tolist()
        assert np.array_equal(np.array([box for box, _ in res.detections]), b.data[order])

    def test_single_raster_accepted(self, rng):
        m = tiny_model()
        res = m.localize(rand_image(rng), rand_sketch(rng), threshold=0.0)
        assert len(res.detections) == TINY.num_tokens

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.6])
    def test_order_matches_key_sort_on_tied_scores(self, rng, threshold):
        m = tiny_model()
        s = (rng.integers(0, 5, 100) / 4).astype(np.float32)  # many ties, some at the threshold
        b = rng.random((100, 4)).astype(np.float32)
        m.forward = lambda image, sketches: (SimpleNamespace(data=s), SimpleNamespace(data=b))
        res = m.localize(rand_image(rng), [rand_sketch(rng)], threshold=threshold)
        order = sorted(range(len(s)), key=lambda i: (-s[i], i))
        want = [(b[i].astype(np.float64), float(s[i])) for i in order if s[i] >= threshold]
        assert len(res.detections) == len(want) > 0
        for (box, score), (want_box, want_score) in zip(res.detections, want):
            assert box.dtype == np.float64 and np.array_equal(box, want_box)
            assert type(score) is np.float64 and score == want_score


class TestLocalizeContract:
    """What the benchmark and the CLI read of `localize`'s detections."""

    @pytest.mark.parametrize("kind, kept", [("zero", 16), ("median", 8), ("one", 0)])
    def test_len_slice_and_iteration(self, rng, kind, kept):
        m = tiny_model(num_tokens=16)
        image, sketches = rand_image(rng), [rand_sketch(rng)]
        with no_grad():
            s, b = (t.data for t in m.forward(image, sketches))
        threshold = {"zero": 0.0, "median": float(np.median(s)), "one": 1.0}[kind]
        dets = m.localize(image, sketches, threshold=threshold).detections
        keep = [i for i in sorted(range(len(s)), key=lambda i: (-s[i], i)) if s[i] >= threshold]
        assert len(dets) == len(keep) == kept
        assert len(dets[1:]) == max(len(keep) - 1, 0)
        pairs = list(dets)
        assert len(pairs) == len(keep)
        for (box, score), i in zip(pairs, keep):
            assert box.dtype == np.float64 and box.shape == (4,)
            assert type(score) is np.float64
            assert np.array_equal(box, b[i].astype(np.float64)) and score == float(s[i])
        for (box, score), (rest_box, rest_score) in zip(pairs[1:], dets[1:]):
            assert np.array_equal(box, rest_box) and score == rest_score

    def test_kept_results_stay_small(self, rng):
        # as many results as an eval-1q benchmark pass has queries, each
        # kept until the pass ends, as the benchmark keeps them
        m = SketchLocalizer(ModelConfig(), seed=0)
        image, sketches = rand_image(rng), [rand_sketch(rng)]
        with no_grad():
            scene = m.encode_scene(image)
        m.localize(scene, sketches, threshold=0.0)  # warm any lazily built state
        kept = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(109):
                kept.append(m.localize(scene, sketches, threshold=0.0))
            added = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(kept[-1].detections) == ModelConfig().num_tokens
        assert added < 1e6, f"109 kept results add {added / 1e6:.2f} MB"


class TestEncodeScene:
    """`forward(encode_scene(image), s)` is `forward(image, s)`, bit for bit."""

    @staticmethod
    def same(a, b) -> bool:
        return [s for _, s in a.detections] == [s for _, s in b.detections] and all(
            np.array_equal(x, y) for (x, _), (y, _) in zip(a.detections, b.detections)
        )

    @pytest.mark.parametrize("n_sketches", [1, 5])
    @pytest.mark.parametrize("config", [{}, {"encoder_fusion": False}, {"refinement": False}])
    def test_localize_equals_raw_scene(self, rng, n_sketches, config):
        m = tiny_model(seed=2, **config)
        image = rand_image(rng)
        with no_grad():
            scene = m.encode_scene(image)
        for _ in range(3):  # one encoding answers several queries
            sketches = [rand_sketch(rng) for _ in range(n_sketches)]
            got = m.localize(scene, sketches, threshold=0.0)
            assert self.same(got, m.localize(image, sketches, threshold=0.0))

    @pytest.mark.parametrize("n_sketches", [1, 5])
    @pytest.mark.parametrize("config", [{}, {"encoder_fusion": False}, {"refinement": False}])
    def test_taped_gradients_equal_raw_scene(self, rng, n_sketches, config):
        # every registered leaf, and no other, gets a gradient
        m = tiny_model(seed=4, **config)
        image, sketches = rand_image(rng), [rand_sketch(rng) for _ in range(n_sketches)]
        r = rng.standard_normal((TINY.num_tokens, 4))
        grads = []
        for scene in (image, m.encode_scene(image)):
            scores, boxes = m.forward(scene, sketches)
            grads.append(backward(add(sum_all(scores), sum_all(mul(boxes, Tensor(r))))))
        want, got = grads
        assert len(want) == len(m.params) and list(want) == list(got)
        assert all(np.array_equal(want[p], got[p]) for p in want)

    def test_scene_of_another_model_rejected(self, rng):
        a, b = tiny_model(seed=0), tiny_model(seed=0)
        with no_grad():
            scene = a.encode_scene(rand_image(rng))
        with pytest.raises(ValueError, match="only for the model that made it"):
            b.localize(scene, [rand_sketch(rng)])

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        with pytest.raises(ValueError, match="a seed must be an integer"):
            tiny_model(seed=seed)
