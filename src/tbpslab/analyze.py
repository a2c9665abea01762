"""Which layers earned their keep: contribution scores and compression.

Two complementary scores per module, both computed against a trained
checkpoint and the run's initial parameters:

  C1 (reset damage)    reset the module to its initial values and measure
                       the metric drop. Drops are floored at zero and
                       normalized by the largest drop, so scores land in
                       [0, 1]. A module whose reset does not hurt scores 0.
  C2 (path steepness)  interpolate the module alone between initial and
                       trained parameters and find the smallest mixing
                       weight alpha (on a 0.01 grid) at which the metric is
                       within eps of the trained model. Modules whose
                       parameters barely matter reach that band at small
                       alpha.

Low combined scores mark modules that can be frozen at their initial
values, or dropped outright, with little cost; `select_layers` picks the
x cheapest, and `experiments.compression_series` retrains over x.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .model import BadModule, Model, clone_model

FINE_GRID = 100  # alpha resolution 0.01
COARSE_STEP = 5  # c2_score probes every 0.05 first


class XOutOfRange(ValueError):
    """A compression budget x outside [0, number of candidate modules]."""


def _check_modules(model: Model, modules) -> list:
    known = set(model.module_names())
    modules = list(modules)
    for m in modules:
        if m not in known:
            raise BadModule(f"no module named '{m}'; known: {sorted(known)}")
    if not modules:
        raise ValueError("need at least one module")
    return modules


def reset_module(trained: Model, init: Model, module: str) -> Model:
    """Copy of the trained model with one module back at its initial bytes."""
    out = clone_model(trained)
    for key in trained.module_keys(module):
        out.params[key] = init.params[key].copy()
    return out


def interpolate(init: Model, trained: Model, module: str, alpha: float) -> Model:
    """Copy of the trained model whose `module` parameters are the convex
    mix (1 - alpha) * initial + alpha * trained. alpha 1 reproduces the
    trained bytes exactly; alpha 0 is a reset."""
    if not (0 <= alpha <= 1):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    out = clone_model(trained)
    for key in trained.module_keys(module):
        if alpha == 1.0:
            out.params[key] = trained.params[key].copy()
        elif alpha == 0.0:
            out.params[key] = init.params[key].copy()
        else:
            out.params[key] = (1.0 - alpha) * init.params[key] + alpha * trained.params[key]
    return out


@dataclass(frozen=True)
class C1Result:
    deltas: dict  # module -> raw metric drop (can be negative)
    scores: dict  # module -> normalized [0, 1]
    degenerate: bool  # True when no reset hurt; all scores are 0


def c1_scores(init: Model, trained: Model, modules, evaluate) -> C1Result:
    """Reset-damage contribution per module. `evaluate` maps a model to a
    scalar metric (higher is better)."""
    modules = _check_modules(trained, modules)
    base = evaluate(trained)
    deltas = {}
    for m in modules:
        deltas[m] = base - evaluate(reset_module(trained, init, m))
    floored = {m: max(0.0, d) for m, d in deltas.items()}
    top = max(floored.values())
    if top == 0.0:
        return C1Result(deltas=deltas, scores={m: 0.0 for m in modules}, degenerate=True)
    return C1Result(
        deltas=deltas, scores={m: floored[m] / top for m in modules}, degenerate=False
    )


def c2_score(
    init: Model,
    trained: Model,
    module: str,
    evaluate,
    eps: float = 0.03,
    baseline: float | None = None,
) -> float:
    """Smallest alpha on the 0.01 grid whose interpolated model sits within
    eps of the trained metric.

    Probes every 0.05 first, then scans only inside the first coarse bracket
    that crosses the band. That equals a scan of the full grid whenever the
    metric recovery is monotone at the coarse resolution, which the
    acceptance checks verify on real checkpoints. alpha 1 always qualifies
    (the mix is exactly the trained model), so the search cannot fail.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_modules(trained, [module])
    if baseline is None:
        baseline = evaluate(trained)

    def ok(k: int) -> bool:
        model = interpolate(init, trained, module, k / FINE_GRID)
        return baseline - evaluate(model) < eps

    prev = 0
    for k in range(0, FINE_GRID + 1, COARSE_STEP):
        if ok(k):
            if k == 0:
                return 0.0
            for fine in range(prev + 1, k):
                if ok(fine):
                    return fine / FINE_GRID
            return k / FINE_GRID
        prev = k
    raise AssertionError("alpha = 1 must satisfy the band")


def combined_scores(c1: dict, c2: dict) -> dict:
    """Sum of the two contribution views, per module."""
    if set(c1) != set(c2):
        raise ValueError(f"module sets differ: {sorted(set(c1) ^ set(c2))}")
    return {m: c1[m] + c2[m] for m in c1}


def _check_x(x: int, n_modules: int):
    if not (0 <= x <= n_modules):
        raise XOutOfRange(f"x must be in [0, {n_modules}], got {x}")


def check_series(xs, mode: str, n_modules: int):
    """Reject a bad compression mode or budget before any retraining."""
    if mode not in ("freeze", "drop"):
        raise ValueError(f"mode must be 'freeze' or 'drop', got '{mode}'")
    for x in xs:
        _check_x(x, n_modules)


def select_layers(scores: dict, x: int) -> tuple:
    """The x modules cheapest to lose: the combination with the smallest
    summed score, ties broken by lexicographic module order. Exhaustive
    over combinations, which the small candidate sets here afford."""
    _check_x(x, len(scores))
    if x == 0:
        return ()
    best = None
    for combo in combinations(sorted(scores), x):
        key = (sum(scores[m] for m in combo), combo)
        if best is None or key < best:
            best = key
    return best[1]

