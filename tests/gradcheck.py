"""Finite-difference oracle for the analytic gradients.

The convention throughout: a loss is a function of raw (pre-normalization)
feature matrices plus log(tau). The analytic side chains the loss gradients
through the row-normalization Jacobian; the numeric side only ever evaluates
loss values at perturbed raw inputs, so the two routes are independent.
"""

from __future__ import annotations

import numpy as np

from tbpslab.numerics import FD_STEP, _fd, l2_normalize_rows, l2_normalize_rows_backward, max_rel_error


def central_diff(fn, x, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of scalar fn at x, elementwise, with the
    package's one finite-difference step (`numerics._fd`)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        grad[idx] = _fd(x, idx, lambda: fn(x), step)
    return grad


def check_against_raw(loss_on_normalized, raw_mats: dict, log_tau: float | None = None):
    """Compare analytic and finite-difference gradients through normalization.

    loss_on_normalized(mats: dict[str, ndarray], tau) must return
    (value, grads: dict[str, ndarray], grad_log_tau) where every gradient is
    w.r.t. the *normalized* features. Returns the max relative error over
    all raw-feature gradients and (if log_tau given) the log-tau gradient.
    """

    def value_at(raws, lt):
        mats = {k: l2_normalize_rows(v) for k, v in raws.items()}
        tau = np.exp(lt) if lt is not None else None
        value, _, _ = loss_on_normalized(mats, tau)
        return value

    mats = {k: l2_normalize_rows(v) for k, v in raw_mats.items()}
    tau = np.exp(log_tau) if log_tau is not None else None
    _, grads, grad_log_tau = loss_on_normalized(mats, tau)

    worst = 0.0
    for key, raw in raw_mats.items():
        analytic = l2_normalize_rows_backward(raw, grads[key])

        def fn(x, key=key):
            raws = dict(raw_mats)
            raws[key] = x
            return value_at(raws, log_tau)

        numeric = central_diff(fn, raw.copy())
        worst = max(worst, max_rel_error(analytic, numeric))

    if log_tau is not None:
        numeric_lt = central_diff(lambda lt: value_at(raw_mats, float(lt)), np.array(log_tau))
        worst = max(worst, max_rel_error(grad_log_tau, numeric_lt))
    return worst
