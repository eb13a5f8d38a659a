import math
import re

import numpy as np
import pytest

from sgloc import tensor as T
from sgloc.attention import grid_pos
from sgloc.data import SCENE_SHAPE, SKETCH_SHAPE
from sgloc.encoder import (
    IMAGE_PATCH,
    SKETCH_PATCH,
    SKETCH_TOKENS,
    ImageFeatureStage,
    _pool_matrix,
    bundle_size,
    encode_stage0,
    image_block,
    patch_tokens,
    sketch_guided_encode,
)
from sgloc.model import ModelConfig, SketchLocalizer
from sgloc.tensor import ShapeError, Tensor, finite_difference_check, mul, sum_all

TINY = ModelConfig(
    d=8, heads=2, stages=2, dec_layers=1, num_tokens=4, d_hidden=16, sketch_layers=1
)


def tiny_model(seed=0, **kw):
    cfg = ModelConfig(**{**TINY.__dict__, **kw})
    return SketchLocalizer(cfg, seed=seed)


def encode_image(model, image, bundle):
    """Every fused stage of the image encoder, from the raw scene."""
    stage0 = encode_stage0(image, model.image_embed, model.image_blocks[0])
    return sketch_guided_encode(stage0, bundle, model.image_blocks, model.fusion_blocks)


def rand_sketch(rng):
    return np.clip(rng.random((64, 64)) * 0.4, 0.0, 1.0)


def rand_image(rng):
    return np.clip(rng.random((64, 64, 3)), 0.0, 1.0)


class TestPatches:
    """`patch_tokens` with an identity `patch_embed`: token s is patch s plus
    position row s."""

    def test_image_patch_layout(self, f64, rng):
        img = rng.random((64, 64, 3))
        tok = patch_tokens(img, Tensor(np.eye(48)), SCENE_SHAPE, IMAGE_PATCH, "scene").data
        assert tok.shape == (256, 48)
        # token s = y*16 + x; check patch (y=2, x=3)
        s = 2 * 16 + 3
        want = img[8:12, 12:16, :].reshape(-1) + grid_pos(256, 48)[s]
        assert np.array_equal(tok[s], want)

    def test_sketch_patch_layout(self, f64, rng):
        img = rng.random((64, 64))
        tok = patch_tokens(img, Tensor(np.eye(64)), SKETCH_SHAPE, SKETCH_PATCH, "sketch").data
        assert tok.shape == (64, 64)
        want = img[8:16, 0:8].reshape(-1) + grid_pos(64, 64)[8]
        assert np.array_equal(tok[8], want)  # token s = 1*8 + 0

    @pytest.mark.parametrize("shape", [(0,), (64,), (64, 64, 3), (32, 32), (64, 64, 1)])
    def test_a_sketch_of_another_shape_is_named(self, shape):
        with pytest.raises(ShapeError, match=rf"expected a sketch of shape \(64, 64\), got {re.escape(str(shape))}"):
            tiny_model().encode_sketches([np.zeros(shape)])

    @pytest.mark.parametrize("shape", [(0,), (64, 64), (64, 64, 1), (64, 64, 4)])
    def test_a_scene_of_another_shape_is_named(self, shape):
        with pytest.raises(ShapeError, match=r"expected a scene of shape \(64, 64, 3\)"):
            tiny_model().encode_scene(np.zeros(shape))


class TestEncodeSketch:
    def test_deterministic_on_equal_inputs(self):
        m = tiny_model()
        a = m.encode_sketches([np.zeros((64, 64))])
        b = m.encode_sketches([np.zeros((64, 64))])
        assert np.array_equal(a.data, b.data)

    def test_output_shape(self, rng):
        m = tiny_model()
        out = m.encode_sketches([rand_sketch(rng)])
        assert SKETCH_TOKENS == 64  # an 8x8 grid
        assert out.shape == (64, TINY.d) and bundle_size(out) == 1

    def test_bundle_stacks_each_sketch_encoded_alone(self, rng):
        m = tiny_model()
        sks = [rand_sketch(rng) for _ in range(3)]
        bundle = m.encode_sketches(sks)
        assert bundle.shape == (3 * 64, TINY.d) and bundle_size(bundle) == 3
        for i, sk in enumerate(sks):
            alone = m.encode_sketches([sk]).data
            assert np.array_equal(bundle.data[i * 64 : (i + 1) * 64], alone)

    def test_one_patch_difference_changes_features(self, rng):
        m = tiny_model()
        s1 = rand_sketch(rng)
        s2 = s1.copy()
        s2[0:8, 0:8] = 1.0 - s2[0:8, 0:8]
        a = m.encode_sketches([s1]).data
        b = m.encode_sketches([s2]).data
        assert np.max(np.abs(a - b)) > 1e-6

    def test_rejects_out_of_range(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            m.encode_sketches([np.full((64, 64), 1.5)])


class TestImageBlock:
    def test_halves_extents(self, rng):
        m = tiny_model()
        stage = ImageFeatureStage(0, Tensor(rng.standard_normal((64, TINY.d))))
        out = image_block(stage, m.image_blocks[0])
        assert out.index == 1
        assert out.tokens.shape == (16, TINY.d)  # 8x8 -> 4x4

    def test_constant_preserved_under_zero_weights(self):
        m = tiny_model()
        blk = m.image_blocks[0]
        for t in [blk.wq, blk.wk, blk.wv, blk.w_in, blk.w_out]:
            t.data[...] = 0.0
        stage = ImageFeatureStage(0, Tensor(np.full((16, TINY.d), 0.7)))
        out = image_block(stage, blk)
        assert np.allclose(out.tokens.data, 0.7, atol=1e-7)

    @pytest.mark.parametrize("g", [2, 4, 8, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_matrix_averages_each_2x2_neighborhood(self, g, dtype):
        half = g // 2
        want = np.zeros((half * half, g * g), dtype=dtype)
        for oy in range(half):
            for ox in range(half):
                for dy in (0, 1):
                    for dx in (0, 1):
                        want[oy * half + ox, (2 * oy + dy) * g + (2 * ox + dx)] = 0.25
        got = _pool_matrix(g, dtype)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0, 0] = 1.0  # one cached table is shared by every caller

    def test_odd_extent_rejected(self, rng):
        m = tiny_model()
        stage = ImageFeatureStage(0, Tensor(rng.standard_normal((9, TINY.d))))  # 3x3
        with pytest.raises(ShapeError, match="matmul: inner extents differ"):  # the 2x2 pool's
            image_block(stage, m.image_blocks[0])
        stage = ImageFeatureStage(0, Tensor(rng.standard_normal((8, TINY.d))))  # no square grid
        with pytest.raises(ShapeError, match="square grid"):
            image_block(stage, m.image_blocks[0])

    def test_gradcheck_through_block(self, f64, rng):
        m = tiny_model()
        blk = m.image_blocks[0]
        params = [t for n, t in m.params.items() if n.startswith("image.block0")]
        x = Tensor(rng.standard_normal((16, TINY.d)))
        r = Tensor(rng.standard_normal((4, TINY.d)))

        def loss():
            stage = ImageFeatureStage(0, x)
            return sum_all(mul(image_block(stage, blk).tokens, r))

        assert finite_difference_check(loss, params, eps=1e-5, max_coords=200) < 1e-5


class TestSketchGuidedEncode:
    def test_stage_token_counts(self, rng):
        m = tiny_model(d=32, heads=2, stages=3)
        img = rand_image(rng)
        bundle = m.encode_sketches([rand_sketch(rng)])
        feats = encode_image(m, img, bundle)
        assert [f.shape[0] for f in feats] == [64, 16, 4]

    def test_zero_fusion_reduces_to_query_agnostic(self, rng):
        full = tiny_model(seed=3)
        for name, t in full.params.items():
            if name.startswith("fusion"):
                t.data[...] = 0.0
        plain = tiny_model(seed=3, encoder_fusion=False)
        img = rand_image(rng)
        bundle = full.encode_sketches([rand_sketch(rng)])
        fused = encode_image(full, img, bundle)
        bare = encode_image(plain, img, None)
        for a, b in zip(fused, bare):
            assert np.array_equal(a.data, b.data)

    def test_conditioned_encoder_rejects_missing_bundle(self, rng):
        with pytest.raises(ValueError, match="needs a sketch bundle"):
            encode_image(tiny_model(), rand_image(rng), None)

    def test_zero_fusion_sketch_independent_bit_exact(self, rng):
        m = tiny_model(seed=5)
        for name, t in m.params.items():
            if name.startswith("fusion"):
                t.data[...] = 0.0
        img = rand_image(rng)
        f1 = encode_image(m, img, m.encode_sketches([rand_sketch(rng)]))
        f2 = encode_image(m, img, m.encode_sketches([rand_sketch(rng)]))
        for a, b in zip(f1, f2):
            assert np.array_equal(a.data, b.data)

    def test_different_sketches_give_different_features(self, rng):
        m = tiny_model(seed=7)
        img = rand_image(rng)
        f1 = encode_image(m, img, m.encode_sketches([rand_sketch(rng)]))
        f2 = encode_image(m, img, m.encode_sketches([rand_sketch(rng)]))
        assert any(np.max(np.abs(a.data - b.data)) > 1e-6 for a, b in zip(f1, f2))

    def test_query_conditioning_gradient_nonzero(self, f64, rng):
        # finite differences through the full encoder w.r.t. one sketch pixel
        m = tiny_model(seed=1)
        img = rand_image(rng)
        sketch = rand_sketch(rng)
        r = None

        def out_sum(s):
            feats = encode_image(m, img, m.encode_sketches([s]))
            total = 0.0
            for f in feats:
                total += float(f.data.sum())
            return total

        eps = 1e-4
        up, down = sketch.copy(), sketch.copy()
        up[13, 17] += eps
        down[13, 17] -= eps
        assert abs(out_sum(up) - out_sum(down)) / (2 * eps) > 1e-6
