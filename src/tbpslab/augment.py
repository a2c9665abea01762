"""Image and text augmentation policies.

Images are (H, W, 3) float64 arrays in [0, 1], batched as (B, H, W, 3)
stacks; text is a list of lowercase tokens. Every op takes an explicit
`Rng` and is a pure function of (input, params, rng state), so
augmentation is bit-reproducible.

Each image op is split in two steps. Its *draw* step reads one sample's
stream and returns that sample's parameters (geometry, factors, order,
angle, kernel or noise); its *apply* step is pure pixel work over a stack,
one parameter entry per image. The public single-image functions are
draw + apply on a stack of one, so every op has one pixel implementation.
`augment_image` gives each sample its own stream and reads it in the
order a lone image would: the pool or trivial selection, then per stage
the gate and the op's draws. The views therefore do not depend on the
batch a sample is in, and the draw order is part of the contract: moving
a draw changes every augmented view.

Image policy catalog (production defaults in PRODUCTION_POLICIES; the
production pool keeps only the policies that help at retrieval time, while
the harmful ones stay implemented for ablations):

    random_resized_crop   area fraction in [scale_min, 1], mild aspect jitter
    random_erase          rectangle of 10..20% area filled with uniform noise
    random_grayscale      luminance collapse (0.299 / 0.587 / 0.114)
    gaussian_blur         3x3 kernel, sigma drawn from [0.1, 2]
    color_jitter_bcs      brightness/contrast/saturation factors in [1-x, 1+x]
    color_jitter_hue      hue rotation by at most x of the color circle
    flip_horizontal       mirror columns
    flip_vertical         mirror rows
    rotate                rotation up to +/- degrees, bilinear, zero-padded

Text policy catalog: synonym replacement, random insertion, random swap,
random deletion (the EDA quartet, each tuned by alpha), a uniform `eda`
selector over the four, and back translation behind a pluggable Translator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from .numerics import Rng

_LUMA = np.array([0.299, 0.587, 0.114])


class BadParam(ValueError):
    """An augmentation parameter is outside its legal range."""


class EmptyPool(ValueError):
    """A policy pool has no members."""


class PoolTooSmall(ValueError):
    """Fewer pool members than the number of draws requested."""


class TranslatorFailure(RuntimeError):
    """A translator could not produce a round trip; callers fall back."""


# ---------------------------------------------------------------------------
# image helpers


def _check_stack(images) -> np.ndarray:
    """A float64 copy of a (B, H, W, 3) stack, checked for finiteness."""
    arr = np.array(images, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[3] != 3:
        raise BadParam(f"images must be (B, H, W, 3), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image contains NaN or Inf")
    return arr


def _one(img) -> np.ndarray:
    """A single (H, W, 3) image as a checked stack of one."""
    arr = np.asarray(img)
    if arr.ndim != 3:
        raise BadParam(f"image must be (H, W, 3), got {arr.shape}")
    return _check_stack(arr[None])


def _bilinear_sample(stack: np.ndarray, ys: np.ndarray, xs: np.ndarray, fill=None) -> np.ndarray:
    """Sample each image of a stack at fractional pixel coordinates.

    ys and xs broadcast to (B, H', W'), one coordinate grid per image.
    Coordinates are clamped to the border; with `fill` set, samples whose
    true coordinates fall outside the raster get the fill value instead
    (used for zero-padded rotation corners).
    """
    n, h, w, _ = stack.shape
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    ty = (ys - y0)[..., None]
    tx = (xs - x0)[..., None]
    uy = 1 - ty
    ux = 1 - tx
    y0i = y0.astype(np.int64)
    x0i = x0.astype(np.int64)
    # corners as row indices into the (B*H*W, 3) pixel table
    first = np.arange(n).reshape(n, 1, 1) * h
    row0 = (first + np.clip(y0i, 0, h - 1)) * w
    row1 = (first + np.clip(y0i + 1, 0, h - 1)) * w
    col0 = np.clip(x0i, 0, w - 1)
    col1 = np.clip(x0i + 1, 0, w - 1)
    pixels = stack.reshape(-1, 3)
    shape = (*np.broadcast_shapes(ys.shape, xs.shape), 3)

    def at(row, col):
        return pixels.take((row + col).ravel(), axis=0).reshape(shape)

    out = (
        at(row0, col0) * uy * ux
        + at(row0, col1) * uy * tx
        + at(row1, col0) * ty * ux
        + at(row1, col1) * ty * tx
    )
    if fill is not None:
        outside = (ys < 0) | (ys > h - 1) | (xs < 0) | (xs > w - 1)
        out[outside] = fill
    return out


# ---------------------------------------------------------------------------
# image ops: draw(h, w, rng, **params) reads one sample's stream;
# apply(stack, params) maps a stack to a new stack, params[b] for image b


def sample_crop_geometry(
    h: int, w: int, rng: Rng, scale_min: float = 0.9, ratio: tuple = (3 / 4, 4 / 3)
):
    """Draw (top, left, crop_h, crop_w) for a random resized crop.

    The aspect parameter distorts the crop's aspect relative to the
    original image (crop_w/crop_h divided by W/H), which keeps large-area
    crops feasible on non-square rasters. Integer rounding is re-checked
    against the area bounds; if no feasible rectangle is found in 20
    attempts, the full raster is returned (a degenerate-crop clamp).
    """
    if not (0 < scale_min <= 1):
        raise BadParam(f"scale_min must be in (0, 1], got {scale_min}")
    if not (0 < ratio[0] <= ratio[1]):
        raise BadParam(f"bad aspect range {ratio}")
    for _ in range(20):
        scale = float(rng.uniform(scale_min, 1.0))
        lo = max(ratio[0], scale)
        hi = min(ratio[1], 1.0 / scale)
        if lo > hi:
            continue
        r = float(rng.uniform(lo, hi))
        ch = int(np.round(h * np.sqrt(scale / r)))
        cw = int(np.round(w * np.sqrt(scale * r)))
        if not (1 <= ch <= h and 1 <= cw <= w):
            continue
        if not (scale_min <= ch * cw / (h * w) <= 1.0):
            continue
        top = int(rng.integers(0, h - ch + 1))
        left = int(rng.integers(0, w - cw + 1))
        return top, left, ch, cw
    return 0, 0, h, w


def _apply_crop(stack: np.ndarray, geoms) -> np.ndarray:
    """Bilinear-resize each image's crop back to full size; a full-raster
    crop leaves its image as it is."""
    _, h, w, _ = stack.shape
    out = stack.copy()
    crop = [i for i, g in enumerate(geoms) if g != (0, 0, h, w)]
    if crop:
        top, left, ch, cw = np.array([geoms[i] for i in crop]).T[:, :, None]
        ys = top + (np.arange(h) + 0.5) * ch / h - 0.5
        xs = left + (np.arange(w) + 0.5) * cw / w - 0.5
        ys = np.clip(ys, top, top + ch - 1)
        xs = np.clip(xs, left, left + cw - 1)
        resized = _bilinear_sample(stack[crop], ys[:, :, None], xs[:, None, :])
        out[crop] = np.clip(resized, 0.0, 1.0)
    return out


def random_resized_crop(
    img,
    rng: Rng,
    scale_min: float = 0.9,
    ratio: tuple = (3 / 4, 4 / 3),
) -> np.ndarray:
    """Crop a random area fraction in [scale_min, 1] and resize back."""
    return _run_op("random_resized_crop", img, rng, scale_min=scale_min, ratio=ratio)


def sample_erase_geometry(
    h: int, w: int, rng: Rng, area: tuple = (0.10, 0.20), ratio: tuple = (0.3, 10 / 3)
):
    """Draw (top, left, erase_h, erase_w), or None if no rectangle with an
    in-bounds area fraction was found after rounding (in 20 attempts)."""
    if not (0 < area[0] <= area[1] < 1):
        raise BadParam(f"bad area range {area}")
    for _ in range(20):
        a = float(rng.uniform(area[0], area[1])) * h * w
        r = float(rng.uniform(ratio[0], ratio[1]))
        eh = int(np.round(np.sqrt(a * r)))
        ew = int(np.round(np.sqrt(a / r)))
        if not (1 <= eh <= h and 1 <= ew <= w):
            continue
        if not (area[0] <= eh * ew / (h * w) <= area[1]):
            continue
        top = int(rng.integers(0, h - eh + 1))
        left = int(rng.integers(0, w - ew + 1))
        return top, left, eh, ew
    return None


def _draw_erase(h: int, w: int, rng: Rng, area=(0.10, 0.20), ratio=(0.3, 10 / 3)):
    """(top, left, noise), the noise drawn right after the rectangle."""
    geom = sample_erase_geometry(h, w, rng, area, ratio)
    if geom is None:
        return None
    top, left, eh, ew = geom
    return top, left, rng.uniform(0.0, 1.0, size=(eh, ew, 3))


def _apply_erase(stack: np.ndarray, drawn) -> np.ndarray:
    out = stack.copy()
    for img, d in zip(out, drawn):
        if d is not None:
            top, left, noise = d
            img[top : top + noise.shape[0], left : left + noise.shape[1]] = noise
    return out


def random_erase(
    img,
    rng: Rng,
    area: tuple = (0.10, 0.20),
    ratio: tuple = (0.3, 10 / 3),
) -> np.ndarray:
    """Erase a random rectangle, filling it with uniform noise."""
    return _run_op("random_erase", img, rng, area=area, ratio=ratio)


def _draw_nothing(h: int, w: int, rng: Rng) -> None:
    return None


def _apply_grayscale(stack: np.ndarray, _params) -> np.ndarray:
    lum = stack @ _LUMA
    return np.repeat(lum[..., None], 3, axis=-1)


def grayscale(img, rng: Rng | None = None) -> np.ndarray:
    """Collapse to luminance, replicated over the three channels."""
    return _run_op("random_grayscale", img, rng)


def _draw_blur(h: int, w: int, rng: Rng, kernel: int = 3, sigma: tuple = (0.1, 2.0)):
    """The normalized 1-D kernel for a sigma drawn uniformly from `sigma`."""
    if kernel < 1 or kernel % 2 == 0:
        raise BadParam(f"kernel must be odd and positive, got {kernel}")
    s = float(rng.uniform(sigma[0], sigma[1]))
    half = kernel // 2
    offsets = np.arange(-half, half + 1)
    k = np.exp(-0.5 * (offsets / s) ** 2)
    return k / k.sum()


def _apply_blur(stack: np.ndarray, kernels) -> np.ndarray:
    """Separable blur, rows then columns, edge-padded; one kernel size
    per stack."""
    _, h, w, _ = stack.shape
    k = np.array(kernels)[:, :, None, None, None]
    size = k.shape[1]
    half = size // 2
    padded = np.pad(stack, ((0, 0), (half, half), (0, 0), (0, 0)), mode="edge")
    out = sum(k[:, i] * padded[:, i : i + h] for i in range(size))
    padded = np.pad(out, ((0, 0), (0, 0), (half, half), (0, 0)), mode="edge")
    return sum(k[:, i] * padded[:, :, i : i + w] for i in range(size))


def gaussian_blur(img, rng: Rng, kernel: int = 3, sigma: tuple = (0.1, 2.0)) -> np.ndarray:
    """Separable Gaussian blur with a sigma drawn uniformly from `sigma`."""
    return _run_op("gaussian_blur", img, rng, kernel=kernel, sigma=sigma)


def _draw_bcs(h: int, w: int, rng: Rng, x: float = 0.1):
    """(factors, order): three factors in [1-x, 1+x], then their order."""
    if not (0 <= x < 1):
        raise BadParam(f"x must be in [0, 1), got {x}")
    factors = rng.uniform(1 - x, 1 + x, size=3)
    order = rng.permutation(3)
    return factors, order


def _apply_bcs(stack: np.ndarray, drawn) -> np.ndarray:
    factors = np.array([f for f, _ in drawn])
    order = np.array([o for _, o in drawn])
    rows = np.arange(len(stack))
    out = stack
    for step in range(3):
        which = order[:, step]
        f = factors[rows, which][:, None, None, None]
        nxt = np.empty_like(out)
        for adjust in range(3):
            sel = which == adjust
            if not sel.any():
                continue
            img, fs = out[sel], f[sel]
            if adjust == 0:  # brightness
                nxt[sel] = img * fs
            elif adjust == 1:  # contrast, about each image's mean luminance
                mean = (img @ _LUMA).reshape(len(img), -1).mean(axis=1)[:, None, None, None]
                nxt[sel] = mean + (img - mean) * fs
            else:  # saturation, toward per-pixel luminance
                lum = (img @ _LUMA)[..., None]
                nxt[sel] = lum + (img - lum) * fs
        out = nxt
    return np.clip(out, 0.0, 1.0)


def color_jitter_bcs(img, rng: Rng, x: float = 0.1) -> np.ndarray:
    """Brightness, contrast, saturation jitter with factors in [1-x, 1+x],
    applied in a random order, clamped to [0, 1]."""
    return _run_op("color_jitter_bcs", img, rng, x=x)


def _rgb_to_hsv(img: np.ndarray) -> np.ndarray:
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    maxc = img.max(axis=-1)
    minc = img.min(axis=-1)
    v = maxc
    span = maxc - minc
    s = np.where(maxc > 0, span / np.maximum(maxc, 1e-12), 0.0)
    safe = np.maximum(span, 1e-12)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(span == 0, 0.0, (h / 6.0) % 1.0)
    return np.stack([h, s, v], axis=-1)


def _hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    choices = [
        np.stack([v, t, p], axis=-1),
        np.stack([q, v, p], axis=-1),
        np.stack([p, v, t], axis=-1),
        np.stack([p, q, v], axis=-1),
        np.stack([t, p, v], axis=-1),
        np.stack([v, p, q], axis=-1),
    ]
    out = np.zeros_like(hsv)
    for idx, choice in enumerate(choices):
        out = np.where((i == idx)[..., None], choice, out)
    return out


def _draw_hue(h: int, w: int, rng: Rng, x: float = 0.1) -> float:
    if not (0 <= x <= 0.5):
        raise BadParam(f"x must be in [0, 0.5], got {x}")
    return float(rng.uniform(-x, x))


def _apply_hue(stack: np.ndarray, deltas) -> np.ndarray:
    hsv = _rgb_to_hsv(stack)
    hsv[..., 0] = (hsv[..., 0] + np.array(deltas)[:, None, None]) % 1.0
    return np.clip(_hsv_to_rgb(hsv), 0.0, 1.0)


def color_jitter_hue(img, rng: Rng, x: float = 0.1) -> np.ndarray:
    """Rotate hue by a uniform draw from [-x, x] of the color circle."""
    return _run_op("color_jitter_hue", img, rng, x=x)


def flip_horizontal(img, rng: Rng | None = None) -> np.ndarray:
    return _run_op("flip_horizontal", img, rng)


def flip_vertical(img, rng: Rng | None = None) -> np.ndarray:
    return _run_op("flip_vertical", img, rng)


def _draw_rotate(h: int, w: int, rng: Rng, degrees: float = 15.0):
    """(cos, sin) of an angle drawn uniformly from [-degrees, +degrees]."""
    if degrees < 0:
        raise BadParam(f"degrees must be >= 0, got {degrees}")
    theta = np.deg2rad(float(rng.uniform(-degrees, degrees)))
    return np.cos(theta), np.sin(theta)


def _apply_rotate(stack: np.ndarray, angles) -> np.ndarray:
    _, h, w, _ = stack.shape
    cos, sin = np.array(angles).T[:, :, None, None]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    src_y = sin * xx + cos * yy + cy
    src_x = cos * xx - sin * yy + cx
    return np.clip(_bilinear_sample(stack, src_y, src_x, fill=0.0), 0.0, 1.0)


def rotate(img, rng: Rng, degrees: float = 15.0) -> np.ndarray:
    """Rotate by a uniform angle in [-degrees, +degrees] about the center,
    bilinear interpolation, zero padding outside the source raster."""
    return _run_op("rotate", img, rng, degrees=degrees)


class ImageOp(NamedTuple):
    draw: Callable  # (h, w, rng, **params) -> one sample's parameters
    apply: Callable  # (stack, per-sample parameters) -> new stack


IMAGE_OPS = {
    "random_resized_crop": ImageOp(sample_crop_geometry, _apply_crop),
    "random_erase": ImageOp(_draw_erase, _apply_erase),
    "random_grayscale": ImageOp(_draw_nothing, _apply_grayscale),
    "gaussian_blur": ImageOp(_draw_blur, _apply_blur),
    "color_jitter_bcs": ImageOp(_draw_bcs, _apply_bcs),
    "color_jitter_hue": ImageOp(_draw_hue, _apply_hue),
    "flip_horizontal": ImageOp(_draw_nothing, lambda stack, _params: stack[:, :, ::-1].copy()),
    "flip_vertical": ImageOp(_draw_nothing, lambda stack, _params: stack[:, ::-1].copy()),
    "rotate": ImageOp(_draw_rotate, _apply_rotate),
}


def _run_op(name: str, img, rng: Rng, **params) -> np.ndarray:
    """One op, ungated, on one image: draw, then apply to a stack of one."""
    stack = _one(img)
    op = IMAGE_OPS[name]
    return op.apply(stack, [op.draw(*stack.shape[1:3], rng, **params)])[0]


# ---------------------------------------------------------------------------
# policy objects and selectors


@dataclass(frozen=True)
class AugPolicy:
    """One image augmentation with its parameters and gate probability.

    `probability` gates whether the op runs at all; the op itself draws
    any further randomness (angles, factors, rectangles) from the rng.
    """

    name: str
    params: dict = field(default_factory=dict)
    probability: float = 1.0

    def __post_init__(self):
        if self.name not in IMAGE_OPS:
            raise BadParam(f"unknown image op '{self.name}'; known: {sorted(IMAGE_OPS)}")
        if not (0 <= self.probability <= 1):
            raise BadParam(f"probability must be in [0, 1], got {self.probability}")


# Production parameterization. Gaussian blur, hue jitter and vertical flip
# hurt retrieval and are kept out of the production pool below.
PRODUCTION_POLICIES = {
    "random_resized_crop": AugPolicy("random_resized_crop", {"scale_min": 0.9}),
    "random_erase": AugPolicy("random_erase", {"area": (0.10, 0.20)}, probability=0.5),
    "random_grayscale": AugPolicy("random_grayscale", probability=0.1),
    "gaussian_blur": AugPolicy("gaussian_blur", {"kernel": 3, "sigma": (0.1, 2.0)}),
    "color_jitter_bcs": AugPolicy("color_jitter_bcs", {"x": 0.1}),
    "color_jitter_hue": AugPolicy("color_jitter_hue", {"x": 0.1}),
    "flip_horizontal": AugPolicy("flip_horizontal", probability=0.5),
    "flip_vertical": AugPolicy("flip_vertical", probability=0.5),
    "rotate": AugPolicy("rotate", {"degrees": 15.0}),
}

PRODUCTION_IMAGE_POOL = (
    "random_resized_crop",
    "random_erase",
    "random_grayscale",
    "color_jitter_bcs",
    "flip_horizontal",
    "rotate",
)

# TrivialAugment-style magnitude space: policy -> (lo, hi, build(magnitude)).
# build returns (params, probability) for the sampled magnitude.
TRIVIAL_SPACE = {
    "random_resized_crop": (0.3, 1.0, lambda m: ({"scale_min": m}, 1.0)),
    "random_erase": (0.05, 0.3, lambda m: ({"area": (m / 2, m)}, 0.5)),
    "random_grayscale": (0.0, 1.0, lambda m: ({}, m)),
    "gaussian_blur": (0.1, 2.0, lambda m: ({"sigma": (m, m)}, 1.0)),
    "color_jitter_bcs": (0.0, 0.4, lambda m: ({"x": m}, 1.0)),
    "color_jitter_hue": (0.0, 0.4, lambda m: ({"x": m}, 1.0)),
    "flip_horizontal": (0.0, 1.0, lambda m: ({}, m)),
    "flip_vertical": (0.0, 1.0, lambda m: ({}, m)),
    "rotate": (0.0, 30.0, lambda m: ({"degrees": m}, 1.0)),
}


def apply_policy(img, policy: AugPolicy, rng: Rng) -> np.ndarray:
    """Run one gated policy on one image."""
    return _apply_stage(_one(img), [policy], [rng])[0]


def _apply_stage(stack: np.ndarray, policies, rngs) -> np.ndarray:
    """Run policies[b] on image b, gated, in place; returns the stack.

    Every sample draws its gate, and then its op's parameters when the
    gate fires; the gate draw happens unconditionally so the stream
    advances identically whether or not the op fires. Each op then runs
    once over the samples it fired on.
    """
    h, w = stack.shape[1:3]
    fired: dict = {}
    for b, (policy, rng) in enumerate(zip(policies, rngs)):
        gate = float(rng.random())
        if gate < policy.probability:
            idx, params = fired.setdefault(policy.name, ([], []))
            idx.append(b)
            params.append(IMAGE_OPS[policy.name].draw(h, w, rng, **policy.params))
    for name, (idx, params) in fired.items():
        stack[idx] = IMAGE_OPS[name].apply(stack[idx], params)
    return stack


def pool_select(pool, rng: Rng, k: int = 2) -> list:
    """Draw k distinct policies uniformly without replacement."""
    pool = list(pool)
    if not pool:
        raise EmptyPool("policy pool is empty")
    if k > len(pool):
        raise PoolTooSmall(f"asked for {k} draws from a pool of {len(pool)}")
    idx = rng.choice(len(pool), size=k, replace=False)
    return [pool[int(i)] for i in idx]


@dataclass(frozen=True)
class TrivialChoice:
    policy: AugPolicy
    magnitude: float


def trivial_select(rng: Rng, space: dict | None = None) -> TrivialChoice:
    """Pick one policy uniformly and one magnitude uniformly from its range."""
    space = TRIVIAL_SPACE if space is None else space
    if not space:
        raise EmptyPool("trivial-augment space is empty")
    names = sorted(space)
    name = names[int(rng.integers(0, len(names)))]
    lo, hi, build = space[name]
    magnitude = float(rng.uniform(lo, hi))
    params, probability = build(magnitude)
    return TrivialChoice(AugPolicy(name, params, probability), magnitude)


# ---------------------------------------------------------------------------
# text side


def tokenize(text: str) -> list:
    """Lowercase, strip punctuation, split on whitespace."""
    cleaned = "".join(c if (c.isalnum() or c.isspace()) else " " for c in text.lower())
    return cleaned.split()


def round_half_up(x: float) -> int:
    """round(0.5) = 1, unlike banker's rounding."""
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class Lexicon:
    """Synonym table; keys and synonyms are lowercase single tokens."""

    entries: dict

    def synonyms(self, word: str) -> tuple:
        return self.entries.get(word.lower(), ())

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.entries


def parse_lexicon(text: str) -> Lexicon:
    """Parse 'word<TAB>syn1,syn2' lines; '#' comments and blanks ignored.

    An entry whose synonyms are exactly {the word itself} is rejected:
    such an entry could never change anything.
    """
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise ValueError(f"lexicon line {lineno}: expected 'word<TAB>synonyms'")
        word, _, syns = line.partition("\t")
        word = word.strip().lower()
        synonyms = tuple(s.strip().lower() for s in syns.split(",") if s.strip())
        if word in entries:
            raise ValueError(f"lexicon line {lineno}: duplicate entry for '{word}'")
        if not synonyms or set(synonyms) == {word}:
            raise ValueError(f"lexicon line {lineno}: '{word}' has no usable synonym")
        entries[word] = synonyms
    return Lexicon(entries)


def builtin_lexicon() -> Lexicon:
    """The small synonym table shipped with the package."""
    text = resources.files("tbpslab").joinpath("assets/lexicon.txt").read_text("utf-8")
    return parse_lexicon(text)


def synonym_replacement(tokens, lexicon: Lexicon, rng: Rng, alpha: float = 0.05) -> list:
    """Replace round(alpha * len) distinct words with random synonyms.

    Words without a lexicon entry are silently skipped; if fewer candidates
    exist than requested replacements, all candidates are replaced.
    """
    out = list(tokens)
    n = round_half_up(alpha * len(out))
    if n == 0:
        return out
    candidates = [i for i, t in enumerate(out) if t in lexicon]
    if not candidates:
        return out
    order = rng.permutation(len(candidates))
    for pos in order[:n]:
        i = candidates[int(pos)]
        syns = lexicon.synonyms(out[i])
        out[i] = syns[int(rng.integers(0, len(syns)))]
    return out


def random_insertion(tokens, lexicon: Lexicon, rng: Rng, alpha: float = 0.05) -> list:
    """Insert round(alpha * len) synonyms of random words at random spots."""
    out = list(tokens)
    n = round_half_up(alpha * len(out))
    for _ in range(n):
        candidates = [t for t in out if t in lexicon]
        if not candidates:
            break
        word = candidates[int(rng.integers(0, len(candidates)))]
        syns = lexicon.synonyms(word)
        syn = syns[int(rng.integers(0, len(syns)))]
        out.insert(int(rng.integers(0, len(out) + 1)), syn)
    return out


def random_swap(tokens, rng: Rng, alpha: float = 0.05) -> list:
    """Swap two random positions, round(alpha * len) times."""
    out = list(tokens)
    if len(out) < 2:
        return out
    n = round_half_up(alpha * len(out))
    for _ in range(n):
        i = int(rng.integers(0, len(out)))
        j = int(rng.integers(0, len(out)))
        out[i], out[j] = out[j], out[i]
    return out


def random_deletion(tokens, rng: Rng, alpha: float = 0.05) -> list:
    """Drop each token with probability alpha; never returns empty.

    If every token is dropped, one survivor is kept uniformly at random.
    """
    tokens = list(tokens)
    if not tokens:
        return tokens
    keep = rng.random(size=len(tokens)) >= alpha
    if not keep.any():
        return [tokens[int(rng.integers(0, len(tokens)))]]
    return [t for t, k in zip(tokens, keep) if k]


def eda(tokens, lexicon: Lexicon, rng: Rng, alpha: float = 0.05) -> list:
    """Apply one of the four EDA ops, chosen uniformly."""
    which = int(rng.integers(0, 4))
    if which == 0:
        return synonym_replacement(tokens, lexicon, rng, alpha)
    if which == 1:
        return random_insertion(tokens, lexicon, rng, alpha)
    if which == 2:
        return random_swap(tokens, rng, alpha)
    return random_deletion(tokens, rng, alpha)


class IdentityTranslator:
    """A perfect round trip: the production default for back translation."""

    def translate(self, tokens) -> list:
        return list(tokens)


def back_translate(tokens, translator, rng: Rng, p: float = 0.1) -> list:
    """With probability p, run the tokens through the translator.

    A TranslatorFailure falls back to the original tokens with a warning
    instead of aborting the batch.
    """
    if not (0 <= p <= 1):
        raise BadParam(f"p must be in [0, 1], got {p}")
    if float(rng.random()) >= p:
        return list(tokens)
    try:
        return list(translator.translate(list(tokens)))
    except TranslatorFailure as exc:
        warnings.warn(f"back translation failed ({exc}); keeping original text")
        return list(tokens)


# ---------------------------------------------------------------------------
# pipeline configuration


@dataclass
class AugmentConfig:
    """How training views are produced.

    image_mode: 'pool' draws pool_k distinct policies per image, 'stack'
    applies every pool policy in order, 'trivial' applies one policy at a
    random magnitude, 'none' disables image augmentation. text_mode:
    'stack' applies text_ops in order, 'eda' applies one EDA op, 'none'
    disables text augmentation.
    """

    image_mode: str = "pool"
    image_pool: tuple = PRODUCTION_IMAGE_POOL
    pool_k: int = 2
    text_mode: str = "stack"
    text_ops: tuple = ("back_translate", "random_deletion")
    alpha: float = 0.05
    back_translate_p: float = 0.1

    def __post_init__(self):
        if self.image_mode not in ("pool", "stack", "trivial", "none"):
            raise BadParam(f"unknown image_mode '{self.image_mode}'")
        if self.text_mode not in ("stack", "eda", "none"):
            raise BadParam(f"unknown text_mode '{self.text_mode}'")
        for name in self.image_pool:
            if name not in IMAGE_OPS:
                raise BadParam(f"unknown image op '{name}' in pool")
        for name in self.text_ops:
            if name not in ("back_translate", "synonym_replacement", "random_insertion",
                            "random_swap", "random_deletion", "eda"):
                raise BadParam(f"unknown text op '{name}'")
        if not (0 < self.alpha < 1):
            raise BadParam(f"alpha must be in (0, 1), got {self.alpha}")
        if not (isinstance(self.pool_k, int) and 1 <= self.pool_k <= len(self.image_pool)):
            raise BadParam(
                f"pool_k must be an integer in [1, {len(self.image_pool)}], got {self.pool_k}"
            )
        if not (0 <= self.back_translate_p <= 1):
            raise BadParam(f"back_translate_p must be in [0, 1], got {self.back_translate_p}")


def augment_image(images, cfg: AugmentConfig, rngs) -> np.ndarray:
    """One augmented view of each image of a (B, H, W, 3) stack.

    Image b reads only rngs[b], in the order a lone image would: first
    the pool or trivial selection, then per stage its gate and its op's
    draws. Samples that picked the same op at a stage share one apply
    call. The stack is checked once, for shape and finiteness, and never
    modified.
    """
    out = _check_stack(images)
    if len(rngs) != len(out):
        raise BadParam(f"need one rng per image, got {len(rngs)} for {len(out)}")
    if cfg.image_mode == "none":
        return out
    if cfg.image_mode == "trivial":
        plans = [[trivial_select(rng).policy] for rng in rngs]
    else:
        policies = [PRODUCTION_POLICIES[name] for name in cfg.image_pool]
        if cfg.image_mode == "pool":
            plans = [pool_select(policies, rng, cfg.pool_k) for rng in rngs]
        else:
            plans = [policies] * len(out)
    for stage in zip(*plans):
        _apply_stage(out, stage, rngs)
    return out


def augment_text(tokens, cfg: AugmentConfig, lexicon: Lexicon, translator, rng: Rng) -> list:
    """Produce one augmented view of a token sequence."""
    out = list(tokens)
    if cfg.text_mode == "eda":
        out = eda(out, lexicon, rng, cfg.alpha)
    elif cfg.text_mode == "stack":
        for op in cfg.text_ops:
            if op == "back_translate":
                out = back_translate(out, translator, rng, cfg.back_translate_p)
            elif op == "synonym_replacement":
                out = synonym_replacement(out, lexicon, rng, cfg.alpha)
            elif op == "random_insertion":
                out = random_insertion(out, lexicon, rng, cfg.alpha)
            elif op == "random_swap":
                out = random_swap(out, rng, cfg.alpha)
            elif op == "random_deletion":
                out = random_deletion(out, rng, cfg.alpha)
            elif op == "eda":
                out = eda(out, lexicon, rng, cfg.alpha)
    return out
