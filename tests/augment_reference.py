"""The per-image augmentation path, kept as the reference oracle.

This is the pixel code `tbpslab.augment` ran one image at a time before
its ops were split into a per-sample draw step and a batched apply step.
It draws from the stream inside each op body, in the same order, and
shares only the geometry samplers and the policy selectors with the
package. `tests/test_augment_reference.py` holds the batched path to it,
byte for byte.
"""

from __future__ import annotations

import numpy as np

from tbpslab.augment import (
    PRODUCTION_POLICIES,
    BadParam,
    pool_select,
    sample_crop_geometry,
    sample_erase_geometry,
    trivial_select,
)

_LUMA = np.array([0.299, 0.587, 0.114])


def _check_image(img) -> np.ndarray:
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise BadParam(f"image must be (H, W, 3), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image contains NaN or Inf")
    return arr


def _bilinear_sample(img: np.ndarray, ys: np.ndarray, xs: np.ndarray, fill=None) -> np.ndarray:
    """Sample img at fractional pixel coordinates.

    Coordinates are clamped to the border; with `fill` set, samples whose
    true coordinates fall outside the raster get the fill value instead
    (used for zero-padded rotation corners).
    """
    h, w, _ = img.shape
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    ty = (ys - y0)[..., None]
    tx = (xs - x0)[..., None]
    y0i = y0.astype(np.int64)
    x0i = x0.astype(np.int64)

    def at(yy, xx):
        return img[np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)]

    out = (
        at(y0i, x0i) * (1 - ty) * (1 - tx)
        + at(y0i, x0i + 1) * (1 - ty) * tx
        + at(y0i + 1, x0i) * ty * (1 - tx)
        + at(y0i + 1, x0i + 1) * ty * tx
    )
    if fill is not None:
        outside = (ys < 0) | (ys > h - 1) | (xs < 0) | (xs > w - 1)
        out[outside] = fill
    return out


def _resize_region(img: np.ndarray, top: int, left: int, ch: int, cw: int) -> np.ndarray:
    """Bilinear-resize the crop [top:top+ch, left:left+cw] back to full size."""
    h, w, _ = img.shape
    ys = top + (np.arange(h) + 0.5) * ch / h - 0.5
    xs = left + (np.arange(w) + 0.5) * cw / w - 0.5
    ys = np.clip(ys, top, top + ch - 1)
    xs = np.clip(xs, left, left + cw - 1)
    return _bilinear_sample(img, ys[:, None] + np.zeros(w), np.zeros((h, 1)) + xs)


def random_resized_crop(
    img,
    rng,
    scale_min: float = 0.9,
    ratio: tuple = (3 / 4, 4 / 3),
) -> np.ndarray:
    """Crop a random area fraction in [scale_min, 1] and resize back."""
    img = _check_image(img)
    h, w, _ = img.shape
    top, left, ch, cw = sample_crop_geometry(h, w, rng, scale_min, ratio)
    if (top, left, ch, cw) == (0, 0, h, w):
        return img.copy()
    return np.clip(_resize_region(img, top, left, ch, cw), 0.0, 1.0)


def random_erase(
    img,
    rng,
    area: tuple = (0.10, 0.20),
    ratio: tuple = (0.3, 10 / 3),
) -> np.ndarray:
    """Erase a random rectangle, filling it with uniform noise."""
    img = _check_image(img)
    h, w, _ = img.shape
    geom = sample_erase_geometry(h, w, rng, area, ratio)
    if geom is None:
        return img.copy()
    top, left, eh, ew = geom
    out = img.copy()
    out[top : top + eh, left : left + ew] = rng.uniform(0.0, 1.0, size=(eh, ew, 3))
    return out


def grayscale(img, rng=None) -> np.ndarray:
    """Collapse to luminance, replicated over the three channels."""
    img = _check_image(img)
    lum = img @ _LUMA
    return np.repeat(lum[:, :, None], 3, axis=2)


def gaussian_blur(img, rng, kernel: int = 3, sigma: tuple = (0.1, 2.0)) -> np.ndarray:
    """Separable Gaussian blur with a sigma drawn uniformly from `sigma`."""
    img = _check_image(img)
    if kernel < 1 or kernel % 2 == 0:
        raise BadParam(f"kernel must be odd and positive, got {kernel}")
    s = float(rng.uniform(sigma[0], sigma[1]))
    half = kernel // 2
    offsets = np.arange(-half, half + 1)
    k = np.exp(-0.5 * (offsets / s) ** 2)
    k /= k.sum()
    padded = np.pad(img, ((half, half), (0, 0), (0, 0)), mode="edge")
    out = sum(k[i] * padded[i : i + img.shape[0]] for i in range(kernel))
    padded = np.pad(out, ((0, 0), (half, half), (0, 0)), mode="edge")
    out = sum(k[i] * padded[:, i : i + img.shape[1]] for i in range(kernel))
    return out


def color_jitter_bcs(img, rng, x: float = 0.1) -> np.ndarray:
    """Brightness, contrast, saturation jitter with factors in [1-x, 1+x],
    applied in a random order, clamped to [0, 1]."""
    img = _check_image(img)
    if not (0 <= x < 1):
        raise BadParam(f"x must be in [0, 1), got {x}")
    factors = rng.uniform(1 - x, 1 + x, size=3)
    order = rng.permutation(3)
    out = img
    for which in order:
        f = factors[which]
        if which == 0:  # brightness
            out = out * f
        elif which == 1:  # contrast, about the image's mean luminance
            mean = (out @ _LUMA).mean()
            out = mean + (out - mean) * f
        else:  # saturation, toward per-pixel luminance
            lum = (out @ _LUMA)[:, :, None]
            out = lum + (out - lum) * f
    return np.clip(out, 0.0, 1.0)


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


def color_jitter_hue(img, rng, x: float = 0.1) -> np.ndarray:
    """Rotate hue by a uniform draw from [-x, x] of the color circle."""
    img = _check_image(img)
    if not (0 <= x <= 0.5):
        raise BadParam(f"x must be in [0, 0.5], got {x}")
    delta = float(rng.uniform(-x, x))
    hsv = _rgb_to_hsv(img)
    hsv[..., 0] = (hsv[..., 0] + delta) % 1.0
    return np.clip(_hsv_to_rgb(hsv), 0.0, 1.0)


def flip_horizontal(img, rng=None) -> np.ndarray:
    return _check_image(img)[:, ::-1].copy()


def flip_vertical(img, rng=None) -> np.ndarray:
    return _check_image(img)[::-1].copy()


def rotate(img, rng, degrees: float = 15.0) -> np.ndarray:
    """Rotate by a uniform angle in [-degrees, +degrees] about the center,
    bilinear interpolation, zero padding outside the source raster."""
    img = _check_image(img)
    if degrees < 0:
        raise BadParam(f"degrees must be >= 0, got {degrees}")
    theta = np.deg2rad(float(rng.uniform(-degrees, degrees)))
    h, w, _ = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    cos, sin = np.cos(theta), np.sin(theta)
    src_y = sin * xx + cos * yy + cy
    src_x = cos * xx - sin * yy + cx
    return np.clip(_bilinear_sample(img, src_y, src_x, fill=0.0), 0.0, 1.0)


IMAGE_OPS = {
    "random_resized_crop": random_resized_crop,
    "random_erase": random_erase,
    "random_grayscale": grayscale,
    "gaussian_blur": gaussian_blur,
    "color_jitter_bcs": color_jitter_bcs,
    "color_jitter_hue": color_jitter_hue,
    "flip_horizontal": flip_horizontal,
    "flip_vertical": flip_vertical,
    "rotate": rotate,
}


def apply_policy(img, policy, rng) -> np.ndarray:
    gate = float(rng.random())
    if gate >= policy.probability:
        return _check_image(img).copy()
    return IMAGE_OPS[policy.name](img, rng, **policy.params)


def augment_image(img, cfg, rng) -> np.ndarray:
    """One augmented view of one (H, W, 3) image."""
    if cfg.image_mode == "none":
        return _check_image(img).copy()
    if cfg.image_mode == "trivial":
        return apply_policy(img, trivial_select(rng).policy, rng)
    policies = [PRODUCTION_POLICIES[name] for name in cfg.image_pool]
    if cfg.image_mode == "pool":
        policies = pool_select(policies, rng, cfg.pool_k)
    out = img
    for policy in policies:
        out = apply_policy(out, policy, rng)
    return out
