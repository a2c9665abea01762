"""The batched image augmentation against the per-image reference path.

`augment_reference` is the pixel code the package ran one image at a time;
the batched draw/apply split must reproduce it byte for byte, for every
image mode, every op, and any batch size.
"""

import numpy as np
import pytest

import augment_reference as ref
from tbpslab import augment
from tbpslab.augment import IMAGE_OPS, AugmentConfig, augment_image
from tbpslab.data import ToySpec, generate_toy
from tbpslab.numerics import Rng
from tbpslab.train import assemble_batch

H, W = 48, 24
SEEDS = range(20)
ALL_NINE = tuple(IMAGE_OPS)

# gaussian_blur, color_jitter_hue and flip_vertical are outside the
# production pool; the all-nine pool and trivial mode reach them
CONFIGS = {
    "pool": AugmentConfig(image_mode="pool"),
    "pool-all-nine": AugmentConfig(image_mode="pool", image_pool=ALL_NINE, pool_k=3),
    "stack": AugmentConfig(image_mode="stack"),
    "stack-all-nine": AugmentConfig(image_mode="stack", image_pool=ALL_NINE),
    "trivial": AugmentConfig(image_mode="trivial"),
    "none": AugmentConfig(image_mode="none"),
}


def streams(seed, n):
    return [Rng(seed).child(i) for i in range(n)]


def images(seed, n):
    return Rng(seed, 1000 + n).uniform(0.0, 1.0, size=(n, H, W, 3))


def reference(stack, cfg, seed):
    return np.stack([ref.augment_image(img, cfg, rng) for img, rng in zip(stack, streams(seed, len(stack)))])


@pytest.mark.parametrize("n", [2, 7, 64])
@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_batched_matches_per_image_reference(mode, n):
    cfg = CONFIGS[mode]
    for seed in SEEDS:
        stack = images(seed, n)
        got = augment_image(stack, cfg, streams(seed, n))
        assert got.tobytes() == reference(stack, cfg, seed).tobytes(), f"seed {seed}"


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_batch_of_n_equals_n_batches_of_one(mode):
    cfg = CONFIGS[mode]
    for seed in range(5):
        stack = images(seed, 7)
        whole = augment_image(stack, cfg, streams(seed, 7))
        ones = [augment_image(stack[i : i + 1], cfg, [rng]) for i, rng in enumerate(streams(seed, 7))]
        assert whole.tobytes() == np.concatenate(ones).tobytes()


OP_PARAMS = {
    "random_resized_crop": [{}, {"scale_min": 0.3}],
    "random_erase": [{}, {"area": (0.02, 0.3)}],
    "random_grayscale": [{}],
    "gaussian_blur": [{}, {"kernel": 5, "sigma": (0.5, 3.0)}],
    "color_jitter_bcs": [{}, {"x": 0.4}],
    "color_jitter_hue": [{}, {"x": 0.5}],
    "flip_horizontal": [{}],
    "flip_vertical": [{}],
    "rotate": [{}, {"degrees": 90.0}],
}


@pytest.mark.parametrize("name", sorted(OP_PARAMS))
def test_single_image_ops_match_reference(name):
    public = getattr(augment, "grayscale" if name == "random_grayscale" else name)
    for params in OP_PARAMS[name]:
        for seed in SEEDS:
            img = images(seed, 1)[0]
            got = public(img, Rng(seed, 3), **params)
            want = ref.IMAGE_OPS[name](img, Rng(seed, 3), **params)
            assert got.tobytes() == want.tobytes(), f"{params} seed {seed}"


@pytest.mark.parametrize("mode", ["pool", "stack-all-nine", "trivial"])
def test_assemble_batch_matches_reference(mode):
    cfg = CONFIGS[mode]
    ds = generate_toy(ToySpec(n_identities=40, images_per_identity=2), Rng(5))
    samples = ds.train[:64]
    for seed in range(3):
        batch = assemble_batch(samples, cfg, Rng(seed))
        want = [ref.augment_image(s.image, cfg, Rng(seed).child(i).named("image"))
                for i, s in enumerate(samples)]
        assert batch.images_aug.tobytes() == np.stack(want).tobytes()
