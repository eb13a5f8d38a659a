import numpy as np
import pytest

from sgloc.attention import grid_pos
from sgloc.encoder import SKETCH_TOKENS, encoder_fusion_multi, fuse_queries
from sgloc.tensor import Tensor, backward, concat, mean_groups, sum_all
from reference_block import adapter_fuse, cross_attention
from test_encoder import TINY, rand_image, rand_sketch, tiny_model


def leaf_map(rng, d=TINY.d, requires_grad=False):
    """A random encoded-sketch map: SKETCH_TOKENS x d over the 8x8 grid."""
    return Tensor(rng.standard_normal((SKETCH_TOKENS, d)), requires_grad)


def bundle_of(maps):
    """The bundle of sketch maps, stacked as `SketchLocalizer.encode_sketches` does."""
    return concat(maps, axis=0)


class TestEncoderFusionMulti:
    def test_single_matches_plain_fusion_bit_exact(self, rng):
        m = tiny_model()
        fp = m.fusion_blocks[0]
        stage = Tensor(rng.standard_normal((16, TINY.d)))
        sk = leaf_map(rng)
        q_pos = grid_pos(16, TINY.d)
        k_pos = grid_pos(SKETCH_TOKENS, TINY.d)
        got = encoder_fusion_multi(stage, bundle_of([sk]), fp).data
        att = cross_attention(stage, sk, fp, q_pos=q_pos, k_pos=k_pos)
        want = adapter_fuse(att, stage, fp).data
        assert np.array_equal(got, want)

    def test_identical_copies_match_single(self, rng):
        m = tiny_model()
        fp = m.fusion_blocks[0]
        stage = Tensor(rng.standard_normal((16, TINY.d)))
        sk = leaf_map(rng)
        one = encoder_fusion_multi(stage, bundle_of([sk]), fp).data
        five = encoder_fusion_multi(stage, bundle_of([sk] * 5), fp).data
        assert np.max(np.abs(one - five)) < 1e-6

    def test_order_invariance(self, rng):
        m = tiny_model()
        fp = m.fusion_blocks[0]
        stage = Tensor(rng.standard_normal((16, TINY.d)))
        sks = [leaf_map(rng) for _ in range(4)]
        a = encoder_fusion_multi(stage, bundle_of(sks), fp).data
        b = encoder_fusion_multi(stage, bundle_of(sks[::-1]), fp).data
        assert np.max(np.abs(a - b)) < 1e-6

    def test_matches_per_sketch_loop(self, f64, rng):
        # one attention per sketch, then the adapter on the mean pre-activation
        m = tiny_model()
        fp = m.fusion_blocks[0]
        stage = Tensor(rng.standard_normal((16, TINY.d)))
        sks = [leaf_map(rng) for _ in range(3)]
        q_pos = grid_pos(16, TINY.d)
        k_pos = grid_pos(SKETCH_TOKENS, TINY.d)
        got = encoder_fusion_multi(stage, bundle_of(sks), fp).data
        pre = [
            cross_attention(stage, sk, fp, q_pos=q_pos, k_pos=k_pos).data @ fp.w_in.data
            for sk in sks
        ]
        want = stage.data + np.maximum(sum(pre) / 3, 0.0) @ fp.w_out.data
        assert np.max(np.abs(got - want)) < 1e-12

    def test_empty_bundle_rejected(self, rng):
        m = tiny_model()
        with pytest.raises(ValueError, match="at least one query sketch"):
            m.encode_sketches([])
        with pytest.raises(ValueError, match="at least one query sketch"):
            m.localize(rand_image(rng), [])

    def test_gradients_reach_every_sketch(self, f64, rng):
        m = tiny_model()
        fp = m.fusion_blocks[0]
        stage = Tensor(rng.standard_normal((16, TINY.d)))
        sks = [leaf_map(rng, requires_grad=True) for _ in range(3)]
        grads = backward(sum_all(encoder_fusion_multi(stage, bundle_of(sks), fp)))
        for sk in sks:
            assert np.max(np.abs(grads[sk])) > 0


class TestFuseQueries:
    def test_zero_adapter_returns_average_bit_exact(self, rng):
        m = tiny_model()
        m.params["query_fusion.adapter.in"].data[...] = 0.0
        m.params["query_fusion.adapter.out"].data[...] = 0.0
        bundle = bundle_of([leaf_map(rng) for _ in range(3)])
        got = fuse_queries(bundle, m.query_fusion).data
        assert np.array_equal(got, mean_groups(bundle, 3).data)

    def test_bundle_permutation_invariance(self, rng):
        m = tiny_model()
        maps = [leaf_map(rng) for _ in range(5)]
        a = fuse_queries(bundle_of(maps), m.query_fusion).data
        perm = [maps[i] for i in rng.permutation(5)]
        b = fuse_queries(bundle_of(perm), m.query_fusion).data
        assert np.max(np.abs(a - b)) < 1e-6

    def test_identical_sketches_attend_to_own_features(self, rng):
        # softmax over L identical key blocks equals attention over one block
        m = tiny_model()
        sk = leaf_map(rng)
        one = fuse_queries(bundle_of([sk]), m.query_fusion).data
        many = fuse_queries(bundle_of([sk] * 4), m.query_fusion).data
        assert np.max(np.abs(one - many)) < 1e-6

    def test_mismatched_grids_rejected(self, rng):
        # a 64-row sketch map stacked with a 16-row (4x4) map: 80 rows
        m = tiny_model()
        mixed = bundle_of([leaf_map(rng), Tensor(rng.standard_normal((16, TINY.d)))])
        stage = Tensor(rng.standard_normal((16, TINY.d)))
        with pytest.raises(ValueError, match="80 bundle rows"):
            fuse_queries(mixed, m.query_fusion)
        with pytest.raises(ValueError, match="80 bundle rows"):
            encoder_fusion_multi(stage, mixed, m.fusion_blocks[0])
        with pytest.raises(ValueError, match="20 bundle rows"):  # less than one map
            fuse_queries(Tensor(rng.standard_normal((20, TINY.d))), m.query_fusion)

    def test_zero_row_bundle_rejected(self):
        # op results skip the constructor's extent check, so the bundle checks
        empty = Tensor(np.ones((1, TINY.d)))
        empty.data = np.zeros((0, TINY.d))
        with pytest.raises(ValueError, match="0 bundle rows"):
            fuse_queries(empty, tiny_model().query_fusion)

    def test_gradients_reach_every_sketch(self, f64, rng):
        m = tiny_model()
        maps = [leaf_map(rng, requires_grad=True) for _ in range(3)]
        grads = backward(sum_all(fuse_queries(bundle_of(maps), m.query_fusion)))
        for mp in maps:
            assert np.max(np.abs(grads[mp])) > 0


class TestPipelineInvariances:
    def test_single_sketch_equals_one_element_bundle(self, rng):
        m = tiny_model(seed=4)
        img = rand_image(rng)
        sk = rand_sketch(rng)
        s1, b1 = m.forward(img, [sk])
        s2, b2 = m.forward(img, [sk])
        assert np.array_equal(s1.data, s2.data) and np.array_equal(b1.data, b2.data)
        r1 = m.localize(img, sk, threshold=0.0)
        r2 = m.localize(img, [sk], threshold=0.0)
        for (ba, sa), (bb, sb) in zip(r1.detections, r2.detections):
            assert np.array_equal(ba, bb) and sa == sb

    def test_full_pipeline_bundle_permutation(self, rng):
        m = tiny_model(seed=4)
        img = rand_image(rng)
        sks = [rand_sketch(rng) for _ in range(5)]
        s1, b1 = m.forward(img, sks)
        s2, b2 = m.forward(img, sks[::-1])
        assert np.max(np.abs(s1.data - s2.data)) < 1e-6
        assert np.max(np.abs(b1.data - b2.data)) < 1e-6

    def test_full_pipeline_identical_copies_match_single(self, rng):
        m = tiny_model(seed=4)
        img = rand_image(rng)
        sk = rand_sketch(rng)
        s1, b1 = m.forward(img, [sk])
        s5, b5 = m.forward(img, [sk] * 5)
        assert np.max(np.abs(s1.data - s5.data)) < 1e-6
        assert np.max(np.abs(b1.data - b5.data)) < 1e-6
