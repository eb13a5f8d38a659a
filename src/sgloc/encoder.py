"""Sketch encoder and the sketch-guided image encoder.

The image path is a plain patch-embedding transformer: each stage runs full
self-attention plus an adapter over the flattened tokens, then a 2x2 average
pool halves both spatial extents. After every stage the sketch features are
fused into the stage output with cross-attention (image tokens as queries,
sketch tokens as keys/values) followed by the adapter MLP; the fused outputs
of all stages form the multi-scale memory handed to the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import Block, adapter_fuse, cross_attention, sinusoidal_pos_2d
from .data import IMAGE_SIZE
from .multiquery import MultiQueryBundle, encoder_fusion_multi
from .tensor import ShapeError, Tensor, add, layer_norm_rows, matmul

IMAGE_PATCH = 4  # scene patch side: a 16x16 token grid
SKETCH_PATCH = 8  # sketch patch side: an 8x8 token grid


@dataclass
class SketchFeatureMap:
    """Flattened sketch features: (w*h) x d tokens for a w x h grid."""

    tokens: Tensor
    w: int
    h: int

    @property
    def width(self) -> int:
        return self.tokens.shape[1]


@dataclass
class ImageFeatureStage:
    index: int
    tokens: Tensor  # (w*h) x d
    w: int
    h: int


@dataclass
class StageFeatures:
    tokens: Tensor
    pos: np.ndarray  # (w*h) x d position table


@dataclass
class SketchEncoderParams:
    patch_embed: Tensor  # (patch*patch) x d
    blocks: list  # Block


@dataclass
class ImageEncoderParams:
    patch_embed: Tensor  # (patch*patch*3) x d
    blocks: list  # Block, one per stage
    fusions: list | None  # Block per stage, or None for a query-agnostic encoder


def image_to_patches(image: np.ndarray) -> np.ndarray:
    """Non-overlapping IMAGE_PATCH-sided patches of a scene, row-major token order."""
    if image.shape != (IMAGE_SIZE, IMAGE_SIZE, 3):
        raise ShapeError(f"expected an RGB scene of shape {(IMAGE_SIZE, IMAGE_SIZE, 3)}, got {image.shape}")
    p, g = IMAGE_PATCH, IMAGE_SIZE // IMAGE_PATCH
    return image.reshape(g, p, g, p, 3).transpose(0, 2, 1, 3, 4).reshape(g * g, p * p * 3)


def sketch_to_patches(raster: np.ndarray) -> np.ndarray:
    """Non-overlapping SKETCH_PATCH-sided patches of a sketch, row-major token order."""
    if raster.shape != (IMAGE_SIZE, IMAGE_SIZE):
        raise ShapeError(f"expected a grayscale sketch of shape {(IMAGE_SIZE, IMAGE_SIZE)}, got {raster.shape}")
    p, g = SKETCH_PATCH, IMAGE_SIZE // SKETCH_PATCH
    return raster.reshape(g, p, g, p).transpose(0, 2, 1, 3).reshape(g * g, p * p)


_pool_cache: dict = {}


def _pool_matrix(w: int, h: int, dtype) -> np.ndarray:
    """Constant (w*h/4) x (w*h) matrix averaging 2x2 token neighborhoods."""
    key = (w, h, np.dtype(dtype).str)
    got = _pool_cache.get(key)
    if got is None:
        ow, oh = w // 2, h // 2
        got = np.zeros((ow * oh, w * h), dtype=dtype)
        for oy in range(oh):
            for ox in range(ow):
                for dy in (0, 1):
                    for dx in (0, 1):
                        got[oy * ow + ox, (2 * oy + dy) * w + (2 * ox + dx)] = 0.25
        _pool_cache[key] = got
    return got


def encode_sketch(raster: np.ndarray, params: SketchEncoderParams) -> SketchFeatureMap:
    """Patch-embed a 64x64 grayscale sketch and run the self-attention stack."""
    if raster.min() < 0.0 or raster.max() > 1.0:
        raise ValueError("sketch pixel values must lie in [0, 1]")
    d = params.patch_embed.shape[1]
    g = IMAGE_SIZE // SKETCH_PATCH
    pos = sinusoidal_pos_2d(g, g, d)
    patches = Tensor(sketch_to_patches(raster))
    x = add(matmul(patches, params.patch_embed), Tensor(pos.table))
    for blk in params.blocks:
        xn = layer_norm_rows(x)  # pre-norm, as in the Swin blocks this stands in for
        attended = cross_attention(xn, xn, xn, blk.attn, q_pos=pos, k_pos=pos)
        x = adapter_fuse(attended, x, blk.adapter)
    return SketchFeatureMap(x, g, g)


def image_block(stage: ImageFeatureStage, params: Block) -> ImageFeatureStage:
    """Self-attention + adapter over the stage tokens, then a 2x2 average pool."""
    if stage.w % 2 or stage.h % 2:
        raise ShapeError(f"stage extents must be even to pool, got {stage.w}x{stage.h}")
    pos = sinusoidal_pos_2d(stage.w, stage.h, stage.tokens.shape[1])
    xn = layer_norm_rows(stage.tokens)
    attended = cross_attention(xn, xn, xn, params.attn, q_pos=pos, k_pos=pos)
    x = adapter_fuse(attended, stage.tokens, params.adapter)
    pool = Tensor(_pool_matrix(stage.w, stage.h, x.data.dtype))
    pooled = matmul(pool, x)
    return ImageFeatureStage(stage.index + 1, pooled, stage.w // 2, stage.h // 2)


def embed_image(image: np.ndarray, params: ImageEncoderParams) -> ImageFeatureStage:
    d = params.patch_embed.shape[1]
    g = IMAGE_SIZE // IMAGE_PATCH
    patches = Tensor(image_to_patches(image))
    pos = sinusoidal_pos_2d(g, g, d)
    tokens = add(matmul(patches, params.patch_embed), Tensor(pos.table))
    return ImageFeatureStage(0, tokens, g, g)


def sketch_guided_encode(
    image: np.ndarray,
    bundle: MultiQueryBundle | None,
    params: ImageEncoderParams,
) -> list:
    """Run all encoder stages, fusing the sketch bundle after each block.

    With a query-agnostic encoder (params.fusions None) the bundle is ignored
    and may be None. Returns the list of per-stage StageFeatures (fused
    flattened outputs).
    """
    if len(params.blocks) < 2:
        raise ShapeError("encoder needs at least 2 stages")
    if bundle is None and params.fusions is not None:
        raise ValueError("a query-conditioned encoder needs a sketch bundle")
    stage = embed_image(image, params)
    d = params.patch_embed.shape[1]
    out = []
    for n, blk in enumerate(params.blocks):
        stage = image_block(stage, blk)
        if params.fusions is not None:
            fused = encoder_fusion_multi(
                stage.tokens,
                bundle,
                params.fusions[n],
                q_pos=sinusoidal_pos_2d(stage.w, stage.h, d),
                k_pos=sinusoidal_pos_2d(bundle.w, bundle.h, d),
            )
            stage = ImageFeatureStage(stage.index, fused, stage.w, stage.h)
        out.append(StageFeatures(stage.tokens, sinusoidal_pos_2d(stage.w, stage.h, d).table))
    return out
