"""Sketch encoder, the sketch-guided image encoder, and multi-sketch fusion.

A feature map is a plain (n, d) token matrix whose n rows are a square g x g
grid, row s = y*g + x; `attention.grid_pos(n, d)` is its position table.
Every stage below is one pre-normed self-attention `attention.Block`; every
fusion is one `Block` from one token set over another.

The image path is a plain patch-embedding transformer: each stage runs a
self-attention block over the tokens, then a 2x2 average pool halves the grid
side. After every stage the sketch bundle is fused into the stage output (image
tokens as queries, sketch tokens as keys/values); the fused outputs of all
stages form the multi-scale memory handed to the decoder. The functions take
the weights they read as arguments: a patch-embedding matrix, one block, or a
list of blocks per stage.

The path is split where the first sketch enters. `encode_stage0` runs the
patch embedding and stage 0's block and pool, which read the scene alone;
`sketch_guided_encode` starts at fusion 0. The split moves no operation and
reorders none within the image path, so it is exact: a scene queried with
many bundles can be taken through `encode_stage0` once.

A bundle of L query sketches is their encoded maps stacked sketch by sketch:
one (L*SKETCH_TOKENS, d) matrix. Two fusion points use it. In the encoder it
is L key/value groups of one block call. At the decoder output, `fuse_queries`
makes one query map by attending from the average map over all stacked sketch
tokens. Both are invariant to the order of the bundle, and a one-element
bundle reproduces the single-query computation bit-exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .attention import Block, grid_pos
from .data import IMAGE_SIZE, SCENE_SHAPE, SKETCH_SHAPE
from .tensor import ShapeError, Tensor, add, matmul, mean_groups

IMAGE_PATCH = 4  # scene patch side: a 16x16 token grid
SKETCH_PATCH = 8  # sketch patch side: an 8x8 token grid
SKETCH_TOKENS = (IMAGE_SIZE // SKETCH_PATCH) ** 2  # rows of one encoded sketch


@dataclass
class ImageFeatureStage:
    index: int
    tokens: Tensor  # n x d over a square grid


def image_to_patches(image: np.ndarray) -> np.ndarray:
    """Non-overlapping IMAGE_PATCH-sided patches of a scene, row-major token order."""
    if image.shape != SCENE_SHAPE:
        raise ShapeError(f"expected an RGB scene of shape {SCENE_SHAPE}, got {image.shape}")
    p, g = IMAGE_PATCH, IMAGE_SIZE // IMAGE_PATCH
    return image.reshape(g, p, g, p, 3).transpose(0, 2, 1, 3, 4).reshape(g * g, p * p * 3)


def sketch_to_patches(raster: np.ndarray) -> np.ndarray:
    """Non-overlapping SKETCH_PATCH-sided patches of a sketch, row-major token order."""
    if raster.shape != SKETCH_SHAPE:
        raise ShapeError(f"expected a grayscale sketch of shape {SKETCH_SHAPE}, got {raster.shape}")
    p, g = SKETCH_PATCH, IMAGE_SIZE // SKETCH_PATCH
    return raster.reshape(g, p, g, p).transpose(0, 2, 1, 3).reshape(g * g, p * p)


def _check_pixels(pixels: np.ndarray, what: str) -> None:
    """A scene or sketch must be an array of finite values in [0, 1]; NaN
    fails too."""
    if not isinstance(pixels, np.ndarray):
        raise ValueError(f"{what} must be a numpy array, got {type(pixels).__name__}")
    if not (0.0 <= pixels.min() and pixels.max() <= 1.0):
        raise ValueError(f"{what} pixel values must be finite and lie in [0, 1]")


@functools.cache
def _pool_matrix(g: int, dtype) -> np.ndarray:
    """Constant (g*g/4) x (g*g) matrix averaging 2x2 token neighborhoods;
    cached and read-only."""
    half_pool = np.repeat(np.eye(g // 2, dtype=dtype), 2, axis=1) * 0.5
    got = np.kron(half_pool, half_pool)
    got.flags.writeable = False
    return got


def encode_sketch(raster: np.ndarray, patch_embed: Tensor, blocks: list) -> Tensor:
    """Patch-embed a 64x64 grayscale sketch with the (SKETCH_PATCH**2) x d
    `patch_embed` and run the self-attention `blocks`; returns its
    SKETCH_TOKENS x d map."""
    _check_pixels(raster, "sketch")
    pos = grid_pos(SKETCH_TOKENS, patch_embed.shape[1])
    patches = Tensor(sketch_to_patches(raster))
    x = add(matmul(patches, patch_embed), Tensor(pos))
    for blk in blocks:  # pre-norm, as in the Swin blocks this stands in for
        x = blk(x, norm=True, q_pos=pos, k_pos=pos)
    return x


def image_block(stage: ImageFeatureStage, block: Block) -> ImageFeatureStage:
    """A self-attention block over the stage tokens, then a 2x2 average pool."""
    n, d = stage.tokens.shape
    pos = grid_pos(n, d)
    g = math.isqrt(n)
    if g % 2:
        raise ShapeError(f"a stage grid must have an even side to pool, got {g}x{g}")
    x = block(stage.tokens, norm=True, q_pos=pos, k_pos=pos)
    pooled = matmul(Tensor(_pool_matrix(g, x.data.dtype)), x)
    return ImageFeatureStage(stage.index + 1, pooled)


def embed_image(image: np.ndarray, patch_embed: Tensor) -> ImageFeatureStage:
    """Stage 0's input: the scene's patches times the (IMAGE_PATCH**2*3) x d
    `patch_embed`, plus positions."""
    _check_pixels(image, "scene")
    patches = Tensor(image_to_patches(image))
    pos = grid_pos(patches.shape[0], patch_embed.shape[1])
    return ImageFeatureStage(0, add(matmul(patches, patch_embed), Tensor(pos)))


def bundle_size(bundle: Tensor) -> int:
    """The number L of sketch maps stacked in a bundle."""
    rows = bundle.shape[0]
    if rows == 0 or rows % SKETCH_TOKENS:
        raise ValueError(f"{rows} bundle rows are not a whole number of {SKETCH_TOKENS}-token sketch maps")
    return rows // SKETCH_TOKENS


def encoder_fusion_multi(stage_tokens: Tensor, bundle: Tensor, block: Block) -> Tensor:
    """Fuse L sketches into one stage: the stage tokens attend over each
    sketch as its own key/value group, and the adapter averages the L hidden
    pre-activations."""
    d = stage_tokens.shape[1]
    return block(
        stage_tokens, bundle, q_pos=grid_pos(stage_tokens.shape[0], d),
        k_pos=grid_pos(SKETCH_TOKENS, d), groups=bundle_size(bundle),
    )


def fuse_queries(bundle: Tensor, block: Block) -> Tensor:
    """Attention-based query fusion: the average map's tokens attend over all
    stacked sketch tokens; returns the fused SKETCH_TOKENS x d map."""
    n = bundle_size(bundle)
    pos = grid_pos(SKETCH_TOKENS, bundle.shape[1])
    avg = mean_groups(bundle, n)
    return block(avg, bundle, q_pos=pos, k_pos=np.tile(pos, (n, 1)))


def encode_stage0(image: np.ndarray, patch_embed: Tensor, block: Block) -> ImageFeatureStage:
    """Patch-embed a scene and run stage 0's `block` and pool: the part of the
    image path that no sketch reaches. Its result starts `sketch_guided_encode`."""
    return image_block(embed_image(image, patch_embed), block)


def sketch_guided_encode(stage0: ImageFeatureStage, bundle: Tensor | None, blocks: list, fusions: list | None) -> list:
    """Fuse the sketch bundle into stage 0's pooled tokens (`encode_stage0`),
    then run every later stage, fusing the bundle after each block.

    `blocks` and `fusions` hold one block per stage; `blocks[0]` ran in
    `encode_stage0`. With a query-agnostic encoder (`fusions` None) the
    bundle is ignored and may be None. Returns the fused token matrix of
    every stage.
    """
    if len(blocks) < 2:
        raise ShapeError("encoder needs at least 2 stages")
    if bundle is None and fusions is not None:
        raise ValueError("a query-conditioned encoder needs a sketch bundle")
    stage = stage0
    out = []
    for n, blk in enumerate(blocks):
        if n > 0:  # stage 0's block ran in encode_stage0
            stage = image_block(stage, blk)
        if fusions is not None:
            fused = encoder_fusion_multi(stage.tokens, bundle, fusions[n])
            stage = ImageFeatureStage(stage.index, fused)
        out.append(stage.tokens)
    return out
