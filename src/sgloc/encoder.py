"""Sketch encoder, the sketch-guided image encoder, and multi-sketch fusion.

A feature map is a plain (n, d) token matrix whose n rows are a square g x g
grid, row s = y*g + x; `attention.grid_pos(n, d)` is its position table.
Every stage below is one pre-normed self-attention `attention.Block`; every
fusion is one `Block` from one token set over another.

Scene and sketch are patch-embedded alike, as in a ViT, by `patch_tokens`.
The image path is then a plain transformer: each stage runs a self-attention
block over the tokens, then a 2x2 average pool halves the grid side. After
every stage the sketch bundle is fused into the stage output (image tokens as
queries, sketch tokens as keys/values); the fused outputs of all stages form
the multi-scale memory handed to the decoder. The functions take the weights
they read as arguments: a patch-embedding matrix, one block, or a list of
blocks per stage.

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


def patch_tokens(pixels: np.ndarray, patch_embed: Tensor, shape: tuple, patch: int, what: str) -> Tensor:
    """Tokens of a raster of `shape` (a scene or a sketch, finite values in
    [0, 1]): its non-overlapping `patch`-sided patches in row-major token
    order, s = y*g + x, times `patch_embed`, plus `grid_pos`. `what` names the
    raster in errors."""
    if not isinstance(pixels, np.ndarray):
        raise ValueError(f"{what} must be a numpy array, got {type(pixels).__name__}")
    if pixels.shape != shape:
        raise ShapeError(f"expected a {what} of shape {shape}, got {pixels.shape}")
    if not (0.0 <= pixels.min() and pixels.max() <= 1.0):  # NaN fails too
        raise ValueError(f"{what} pixel values must be finite and lie in [0, 1]")
    p, g = patch, shape[0] // patch
    patches = pixels.reshape(g, p, g, p, -1).transpose(0, 2, 1, 3, 4).reshape(g * g, -1)
    return add(matmul(Tensor(patches), patch_embed), Tensor(grid_pos(g * g, patch_embed.shape[1])))


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
    x = patch_tokens(raster, patch_embed, SKETCH_SHAPE, SKETCH_PATCH, "sketch")
    pos = grid_pos(SKETCH_TOKENS, patch_embed.shape[1])
    for blk in blocks:  # pre-norm, as in the Swin blocks this stands in for
        x = blk(x, norm=True, q_pos=pos, k_pos=pos)
    return x


def image_block(stage: ImageFeatureStage, block: Block) -> ImageFeatureStage:
    """A self-attention block over the stage tokens, then a 2x2 average pool.
    The pool's matmul raises ShapeError for a grid of odd side."""
    n, d = stage.tokens.shape
    pos = grid_pos(n, d)
    x = block(stage.tokens, norm=True, q_pos=pos, k_pos=pos)
    pooled = matmul(Tensor(_pool_matrix(math.isqrt(n), x.data.dtype)), x)
    return ImageFeatureStage(stage.index + 1, pooled)


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
    tokens = patch_tokens(image, patch_embed, SCENE_SHAPE, IMAGE_PATCH, "scene")
    return image_block(ImageFeatureStage(0, tokens), block)


def sketch_guided_encode(stage0: ImageFeatureStage, bundle: Tensor | None, blocks: list, fusions: list | None) -> list:
    """Fuse the sketch bundle into stage 0's pooled tokens (`encode_stage0`),
    then run every later stage, fusing the bundle after each block.

    `blocks` and `fusions` hold one block per stage; `blocks[0]` ran in
    `encode_stage0`. With a query-agnostic encoder (`fusions` None) the
    bundle is ignored and may be None. Returns the fused token matrix of
    every stage.
    """
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
