"""Shared fixtures and batch builders for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import tbpslab  # noqa: F401  # before numpy, so the suite runs on the package's one-thread BLAS

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tbpslab.analyze import interpolate
from tbpslab.augment import IMAGE_OPS, BadParam, _check_stack
from tbpslab.data import SplitBuilder
from tbpslab.losses import build_labels
from tbpslab.numerics import Rng, l2_normalize_rows


def run_op(name: str, img, rng: Rng, **params) -> np.ndarray:
    """One package image op, ungated, on one (H, W, 3) image: draw, then
    apply to a stack of one. Parameters not given take the draw step's
    defaults."""
    arr = np.asarray(img)
    if arr.ndim != 3:
        raise BadParam(f"image must be (H, W, 3), got {arr.shape}")
    stack = _check_stack(arr[None])
    op = IMAGE_OPS[name]
    return op.apply(stack, [op.draw(*stack.shape[1:3], rng, **params)])[0]


def scan_c2(init, trained, module: str, evaluate, eps: float = 0.03, baseline=None) -> float:
    """C2 by exhaustive scan, the oracle for `analyze.c2_score`'s coarse then
    fine search: the first alpha of 0, 0.01, ..., 1 whose interpolation of
    `module` keeps the metric within eps of the trained model's."""
    if baseline is None:
        baseline = evaluate(trained)
    for k in range(101):
        if baseline - evaluate(interpolate(init, trained, module, k / 100)) < eps:
            return k / 100
    raise AssertionError("alpha = 1 must satisfy the band")


def rebuilt(spec, split, images=None):
    """`split` built again by `SplitBuilder` from its captions in order,
    caption i taking `images[i]` in place of its image where given."""
    images = images or {}
    builder = SplitBuilder(spec)
    for i, (caption, row, identity) in enumerate(zip(split.captions, split.image_of, split.ids.tolist())):
        builder.add(images.get(i, split.images[row]), caption, identity)
    return builder.build()


def random_raw_pair(rng: Rng, n: int, d: int, repeat_ids: bool = True):
    """Raw (pre-normalization) feature pair plus paired identity ids.

    With repeat_ids, some identities occur twice in the batch so the label
    matrix has off-diagonal positives.
    """
    raw_img = rng.normal(size=(n, d))
    raw_txt = rng.normal(size=(n, d))
    if repeat_ids and n >= 4:
        ids = np.arange(n) // 2  # every identity twice
    else:
        ids = np.arange(n)
    return raw_img, raw_txt, ids


def batches_from_raw(raw_img, raw_txt, ids):
    return l2_normalize_rows(raw_img), l2_normalize_rows(raw_txt), build_labels(ids, ids)


@pytest.fixture
def rng():
    return Rng(20240817)


# A clip-baseline run small enough for unit tests whose contribution table
# still has nonzero C1 and C2 rows (the CLI tests' MICRO config scores 0.0
# everywhere, so it cannot tell two scorers apart).
PINNING = [
    "data.n_identities=40", "data.images_per_identity=2",
    "train.epochs=6", "train.batch_size=16",
]


@pytest.fixture(scope="session")
def pinning_run():
    from tbpslab import experiments
    from tbpslab.config import materialize, resolve

    return experiments.run_training(materialize(resolve(preset="clip-baseline", overrides=PINNING)))
