"""Shared numeric kernel: row normalization, row softmax, RNG, the
finite-difference oracle, and the one rule that turns stored pixels into
numbers.

Everything downstream (losses, encoders, metrics) goes through these few
functions, so their contracts are deliberately strict: inputs must be finite,
shapes must agree, and every stochastic draw flows through a counter-based
splittable `Rng` so that any run can be replayed bit-for-bit from
(seed, stream) alone. Hand-written gradients are held against
`check_param_grads`.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_NORM_FLOOR = 1e-12
FD_STEP = 1e-5


class ZeroVector(ValueError):
    """Normalization was asked for a vector with (near-)zero norm."""


class ShapeMismatch(ValueError):
    """Matrix shapes of two operands disagree."""


class NonPositiveTemperature(ValueError):
    """A softmax temperature must be strictly positive."""


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ShapeMismatch(f"{name}: expected {ndim}-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: contains NaN or Inf")
    return arr


def pixels(images, dtype=np.float64) -> np.ndarray:
    """Stored images as pixel values in [0, 1]: a new C-ordered array of
    `dtype`, so a strided view (a patch layout) is gathered in the same pass.

    The corpus keeps images as uint8, where k means k/255; this is the one
    place that reads them as numbers. k/255 is computed in `dtype` itself,
    which for float32 gives float32(float64(k) / 255) at every level, so
    either tower precision sees the bytes a float64 corpus would give it.
    Float input (off-grid images, augmented views) is cast to `dtype`.
    """
    arr = np.asarray(images)
    out = arr.astype(dtype, order="C")
    if arr.dtype == np.uint8:
        out /= out.dtype.type(255)
    return out


def l2_normalize_rows(m) -> np.ndarray:
    """Row-wise L2 normalization of an (N x d) matrix."""
    mat = _as_float_array(m, "m", 2)
    norms = np.linalg.norm(mat, axis=1)
    if (norms < _NORM_FLOOR).any():
        bad = int(np.argmin(norms))
        raise ZeroVector(f"row {bad} has norm {norms[bad]:.3e}")
    return mat / norms[:, None]


def l2_normalize_rows_backward(raw, grad_out) -> np.ndarray:
    """Backpropagate through row-wise L2 normalization.

    With z_i = y_i / ||y_i|| the Jacobian-vector product is

        dL/dy_i = (g_i - z_i (z_i . g_i)) / ||y_i||

    where g_i is the incoming gradient on z_i.
    """
    y = _as_float_array(raw, "raw", 2)
    g = _as_float_array(grad_out, "grad_out", 2)
    if y.shape != g.shape:
        raise ShapeMismatch(f"raw {y.shape} vs grad_out {g.shape}")
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    if (norms < _NORM_FLOOR).any():
        raise ZeroVector("cannot backprop through a zero-norm row")
    z = y / norms
    dot = np.sum(z * g, axis=1, keepdims=True)
    return (g - z * dot) / norms


def softmax_rows(m, tau: float = 1.0) -> np.ndarray:
    """Row-wise softmax of m / tau, stabilized by row-max subtraction."""
    if not (tau > 0):
        raise NonPositiveTemperature(f"tau must be > 0, got {tau}")
    mat = _as_float_array(m, "m", 2) / tau
    mat -= mat.max(axis=1, keepdims=True)
    e = np.exp(mat)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(m, tau: float = 1.0) -> np.ndarray:
    """Row-wise log-softmax of m / tau; exp of this matches softmax_rows."""
    if not (tau > 0):
        raise NonPositiveTemperature(f"tau must be > 0, got {tau}")
    mat = _as_float_array(m, "m", 2) / tau
    mat -= mat.max(axis=1, keepdims=True)
    lse = np.log(np.exp(mat).sum(axis=1, keepdims=True))
    return mat - lse


def _fd(a: np.ndarray, idx, fn, step: float) -> float:
    """Central difference of fn() in coordinate idx of a; a is perturbed in
    place (a 0-d array through idx = ()) and restored."""
    orig = a[idx]
    a[idx] = orig + step
    hi = fn()
    a[idx] = orig - step
    lo = fn()
    a[idx] = orig
    return (hi - lo) / (2 * step)


def max_rel_error(analytic, numeric, floor: float = 1e-4) -> float:
    """Largest elementwise relative error, with a floor on the denominator
    so that entries whose true gradient is ~0 are judged on absolute error."""
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
    return float((np.abs(a - f) / denom).max())


def check_param_grads(loss_fn, params: dict, grads: dict, coords=None, step: float = FD_STEP) -> float:
    """Worst relative error of analytic `grads` against central differences
    of `loss_fn()`, which reads the tensors in `params`.

    `coords` is an iterable of (key, index) pairs, by default every
    coordinate of every tensor in key order. A key missing from `grads` has
    analytic gradient zero (an inert, dropped layer).
    """
    if coords is None:
        coords = [(k, idx) for k in sorted(params) for idx in np.ndindex(params[k].shape)]
    worst = 0.0
    for key, idx in coords:
        numeric = _fd(params[key], idx, loss_fn, step)
        analytic = grads[key][idx] if key in grads else 0.0
        worst = max(worst, max_rel_error(analytic, numeric))
    return worst


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; a cheap 64-bit avalanche."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Rng:
    """Counter-based splittable random stream.

    A stream is fully determined by the pair (seed, stream): constructing
    the same pair twice yields bit-identical draw sequences, and child
    streams derived via `child` / `named` are statistically independent of
    the parent and of each other. Backed by Philox4x64, which is keyed
    (not sequentially seeded), so derivation never consumes draws. The
    generator is built on the first draw: `child` and `named` only hash,
    and most derived streams are never drawn from.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"

    def child(self, k: int) -> "Rng":
        """Derive an independent substream keyed by integer k."""
        return Rng(self.seed, _splitmix64(self.stream ^ _splitmix64(int(k) & _MASK64)))

    def named(self, name: str) -> "Rng":
        """Derive an independent substream keyed by a string label."""
        h = int.from_bytes(hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "little")
        return self.child(h)

    # Draw methods delegate to the wrapped numpy Generator so downstream
    # code never touches global numpy state.

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in the half-open range [low, high)."""
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, seq, size=None, replace: bool = True):
        return self._gen.choice(seq, size=size, replace=replace)
