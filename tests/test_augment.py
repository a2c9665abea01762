"""Augmentation policies: geometry bounds, determinism, text op statistics."""

import numpy as np
import pytest

from conftest import run_op
from tbpslab.augment import (
    IMAGE_OPS,
    AugmentConfig,
    AugPolicy,
    BadParam,
    EmptyPool,
    PoolTooSmall,
    PRODUCTION_IMAGE_POOL,
    PRODUCTION_POLICIES,
    TRIVIAL_SPACE,
    _apply_stage,
    augment_image,
    augment_text,
    builtin_lexicon,
    eda,
    parse_lexicon,
    pool_select,
    random_deletion,
    random_insertion,
    random_swap,
    round_half_up,
    sample_crop_geometry,
    sample_erase_geometry,
    synonym_replacement,
    tokenize,
    trivial_select,
)
from tbpslab.model import ModelConfig, encode_text, init_model
from tbpslab.numerics import Rng, pixels

H, W = 48, 24


def toy_image(rng):
    return rng.uniform(0.0, 1.0, size=(H, W, 3))


ALL_OPS = [lambda img, rng, name=name: run_op(name, img, rng) for name in IMAGE_OPS]


class TestImageOpsGeneric:
    @pytest.mark.parametrize("op", ALL_OPS)
    def test_shape_bounds_and_determinism(self, op, rng):
        img = toy_image(rng)
        a = op(img, Rng(42, 7))
        b = op(img, Rng(42, 7))
        assert a.shape == img.shape
        assert np.array_equal(a, b), "same (seed, stream) must reproduce bit-for-bit"
        assert a.min() >= 0.0 and a.max() <= 1.0

    @pytest.mark.parametrize("op", ALL_OPS)
    def test_input_never_mutated(self, op, rng):
        img = toy_image(rng)
        before = img.copy()
        op(img, Rng(1))
        assert np.array_equal(img, before)


class TestCropGeometry:
    def test_area_fraction_within_bounds_10k(self):
        rng = Rng(11)
        fracs = []
        for _ in range(10_000):
            top, left, ch, cw = sample_crop_geometry(H, W, rng)
            assert 0 <= top <= H - ch and 0 <= left <= W - cw
            fracs.append(ch * cw / (H * W))
        fracs = np.array(fracs)
        assert fracs.min() >= 0.9 and fracs.max() <= 1.0
        # the sampler must not silently collapse to full-image fallbacks
        assert (fracs < 1.0).mean() > 0.5

    def test_square_image_aspect_stays_near_declared_range(self):
        # On a square raster the relative aspect equals the absolute crop
        # aspect; integer rounding can push it only slightly past [3/4, 4/3].
        rng = Rng(12)
        for _ in range(2000):
            _, _, ch, cw = sample_crop_geometry(64, 64, rng, scale_min=0.5)
            assert 3 / 4 - 0.05 <= cw / ch <= 4 / 3 + 0.05
            assert 0.5 <= ch * cw / (64 * 64) <= 1.0

    def test_bad_params(self):
        with pytest.raises(BadParam):
            sample_crop_geometry(H, W, Rng(0), scale_min=0.0)
        with pytest.raises(BadParam):
            sample_crop_geometry(H, W, Rng(0), ratio=(2.0, 1.0))

    def test_crop_of_constant_image_is_constant(self, rng):
        img = np.full((H, W, 3), 0.25)
        out = run_op("random_resized_crop", img, Rng(3))
        assert np.abs(out - 0.25).max() < 1e-12


class TestEraseGeometry:
    def test_area_fraction_within_bounds_10k(self):
        rng = Rng(13)
        count = 0
        for _ in range(10_000):
            geom = sample_erase_geometry(H, W, rng)
            assert geom is not None
            top, left, eh, ew = geom
            frac = eh * ew / (H * W)
            assert 0.10 <= frac <= 0.20
            assert 0 <= top <= H - eh and 0 <= left <= W - ew
            count += 1
        assert count == 10_000

    def test_erase_changes_rectangle_only(self, rng):
        img = np.full((H, W, 3), 0.5)
        out = run_op("random_erase", img, Rng(5))
        changed = np.argwhere((out != img).any(axis=2))
        assert changed.size > 0
        ys, xs = changed[:, 0], changed[:, 1]
        area = (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)
        assert 0.10 * H * W <= area <= 0.20 * H * W


class TestColorOps:
    def test_grayscale_luminance_formula(self):
        img = np.zeros((2, 2, 3))
        img[0, 0] = [1.0, 0.0, 0.0]
        img[0, 1] = [0.0, 1.0, 0.0]
        out = run_op("random_grayscale", img, None)
        assert abs(out[0, 0, 0] - 0.299) < 1e-12
        assert abs(out[0, 1, 1] - 0.587) < 1e-12
        assert np.abs(out[:, :, 0] - out[:, :, 1]).max() < 1e-12
        assert np.abs(out[:, :, 0] - out[:, :, 2]).max() < 1e-12

    def test_bcs_zero_magnitude_is_identity(self, rng):
        img = toy_image(rng)
        assert np.abs(run_op("color_jitter_bcs", img, Rng(1), x=0.0) - img).max() < 1e-12

    def test_hue_zero_shift_round_trips(self, rng):
        img = toy_image(rng)
        assert np.abs(run_op("color_jitter_hue", img, Rng(1), x=0.0) - img).max() < 1e-7

    def test_hue_shift_keeps_gray_fixed(self):
        img = np.full((4, 4, 3), 0.3)
        out = run_op("color_jitter_hue", img, Rng(2), x=0.4)
        assert np.abs(out - img).max() < 1e-12

    def test_blur_of_constant_is_constant(self):
        img = np.full((8, 8, 3), 0.6)
        assert np.abs(run_op("gaussian_blur", img, Rng(1)) - 0.6).max() < 1e-12


class TestGeometryOps:
    def test_flips_are_involutions(self, rng):
        img = toy_image(rng)
        for name in ("flip_horizontal", "flip_vertical"):
            assert np.array_equal(run_op(name, run_op(name, img, None), None), img)

    def test_flip_moves_known_pixel(self):
        img = np.zeros((2, 3, 3))
        img[0, 0] = 1.0
        assert run_op("flip_horizontal", img, None)[0, 2, 0] == 1.0
        assert run_op("flip_vertical", img, None)[1, 0, 0] == 1.0

    def test_zero_rotation_is_identity(self, rng):
        img = toy_image(rng)
        assert np.abs(run_op("rotate", img, Rng(1), degrees=0.0) - img).max() < 1e-12

    def test_rotation_pads_corners_with_zero(self):
        img = np.ones((32, 32, 3))

        class FixedAngle(Rng):
            def uniform(self, low=0.0, high=1.0, size=None):
                return high  # always the max angle

        out = run_op("rotate", img, FixedAngle(0), degrees=45.0)
        assert out[0, 0].max() == 0.0 and out[-1, -1].max() == 0.0


class TestSelectors:
    def test_pool_frequencies_uniform(self):
        pool = [PRODUCTION_POLICIES[n] for n in PRODUCTION_IMAGE_POOL]
        rng = Rng(21)
        counts = {p.name: 0 for p in pool}
        n_draws = 100_000
        for _ in range(n_draws):
            chosen = pool_select(pool, rng, k=2)
            assert len({p.name for p in chosen}) == 2, "draws must be distinct"
            for p in chosen:
                counts[p.name] += 1
        for name, c in counts.items():
            assert abs(c / n_draws - 2 / 6) < 0.01, f"{name}: {c / n_draws}"

    def test_pool_errors(self):
        pool = [PRODUCTION_POLICIES["rotate"]]
        with pytest.raises(PoolTooSmall):
            pool_select(pool, Rng(0), k=2)
        with pytest.raises(EmptyPool):
            pool_select([], Rng(0), k=1)

    def test_trivial_magnitudes_in_range_and_uniform(self):
        rng = Rng(22)
        counts = {name: 0 for name in TRIVIAL_SPACE}
        n_draws = 100_000
        for _ in range(n_draws):
            choice = trivial_select(rng)
            lo, hi, _ = TRIVIAL_SPACE[choice.policy.name]
            assert lo <= choice.magnitude <= hi
            counts[choice.policy.name] += 1
        expect = 1 / len(TRIVIAL_SPACE)
        for name, c in counts.items():
            assert abs(c / n_draws - expect) < 0.01, f"{name}: {c / n_draws}"

    def test_gate_probability_zero_and_one(self, rng):
        img = toy_image(rng)
        off = AugPolicy("flip_horizontal", probability=0.0)
        on = AugPolicy("flip_horizontal", probability=1.0)
        assert np.array_equal(_apply_stage(img[None].copy(), [off], [Rng(1)])[0], img)
        flipped = run_op("flip_horizontal", img, None)
        assert np.array_equal(_apply_stage(img[None].copy(), [on], [Rng(1)])[0], flipped)

    def test_unknown_policy_rejected(self):
        with pytest.raises(BadParam):
            AugPolicy("sharpen")


class TestTokenize:
    def test_lowercase_strip_punct_split(self):
        assert tokenize("A man, wearing RED-shirt!") == ["a", "man", "wearing", "red", "shirt"]

    def test_truncate(self):
        # tokenize does not cap length; encode_text keeps the first 77 tokens
        tokens = tokenize(" ".join(["red"] * 100))
        assert len(tokens) == 100
        cfg = ModelConfig(embed_dim=4, hidden_dim=5, image_layers=1, text_layers=1,
                          patch_size=4, image_height=8, image_width=8, vocab=("red",))
        m = init_model(cfg, Rng(3))
        za, cache = encode_text(m, [tokens])
        zb, _ = encode_text(m, [tokens[:77]])
        assert cache.lengths[0] == 77
        assert np.array_equal(za, zb)

    def test_round_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(0.49) == 0
        assert round_half_up(-0.5) == 0


class TestLexicon:
    def test_builtin_loads_and_lookups_case_insensitive(self):
        lex = builtin_lexicon()
        assert "crimson" in lex.synonyms("red")
        assert "crimson" in lex.synonyms("RED")
        assert lex.synonyms("notaword") == ()

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="usable synonym"):
            parse_lexicon("red\tred")
        with pytest.raises(ValueError, match="duplicate"):
            parse_lexicon("red\tcrimson\nred\tscarlet")
        with pytest.raises(ValueError, match="word<TAB>"):
            parse_lexicon("red crimson")

    def test_comments_and_blanks_skipped(self):
        lex = parse_lexicon("# a comment\n\nred\tcrimson\n")
        assert lex.synonyms("red") == ("crimson",)


class TestTextOps:
    lex = parse_lexicon("red\tcrimson\nshirt\ttop,blouse\n")

    def test_synonym_replacement_changes_known_words(self):
        tokens = ["red"] * 10  # alpha 0.05 * 10 -> round_half_up(0.5) = 1
        out = synonym_replacement(tokens, self.lex, Rng(1), alpha=0.05)
        assert out.count("crimson") == 1 and out.count("red") == 9

    def test_synonym_replacement_skips_unknown_silently(self):
        tokens = ["qqq"] * 10
        assert synonym_replacement(tokens, self.lex, Rng(1), alpha=0.5) == tokens

    def test_random_insertion_grows_sequence(self):
        tokens = ["red", "shirt"] * 5
        out = random_insertion(tokens, self.lex, Rng(2), alpha=0.2)
        assert len(out) == len(tokens) + 2
        added = list(out)
        for t in tokens:
            added.remove(t)
        assert all(a in ("crimson", "top", "blouse") for a in added)

    def test_random_swap_preserves_multiset(self):
        tokens = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]
        out = random_swap(tokens, Rng(3), alpha=0.3)
        assert sorted(out) == sorted(tokens) and len(out) == len(tokens)

    def test_deletion_rate_empirical(self):
        rng = Rng(4)
        total, kept = 0, 0
        for _ in range(1000):
            tokens = ["t"] * 100
            out = random_deletion(tokens, rng, alpha=0.05)
            total += 100
            kept += len(out)
        rate = 1 - kept / total
        assert abs(rate - 0.05) < 0.005

    def test_deletion_never_empties(self):
        rng = Rng(5)
        for _ in range(200):
            out = random_deletion(["a", "b", "c"], rng, alpha=0.999)
            assert len(out) >= 1
            assert set(out) <= {"a", "b", "c"}

    def test_eda_picks_one_of_four(self):
        out = eda(["red", "shirt", "and", "blue", "pants"], self.lex, Rng(6), alpha=0.2)
        assert isinstance(out, list) and len(out) >= 1


class TestPipelines:
    def test_image_modes_run_and_reproduce(self, rng):
        img = toy_image(rng)
        for mode in ("pool", "stack", "trivial", "none"):
            cfg = AugmentConfig(image_mode=mode)
            a = augment_image(img[None], cfg, [Rng(7, 1)])
            b = augment_image(img[None], cfg, [Rng(7, 1)])
            assert np.array_equal(a, b)
            assert a.shape == (1, *img.shape)

    @pytest.mark.parametrize("mode", ["pool", "stack", "trivial", "none"])
    def test_uint8_stack_augments_as_its_pixels(self, mode, rng):
        stored = rng.integers(0, 256, size=(4, H, W, 3)).astype(np.uint8)
        cfg = AugmentConfig(image_mode=mode)
        got = augment_image(stored, cfg, [Rng(7, i) for i in range(4)])
        want = augment_image(pixels(stored), cfg, [Rng(7, i) for i in range(4)])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_image_none_is_identity(self, rng):
        img = toy_image(rng)
        out = augment_image(img[None], AugmentConfig(image_mode="none"), [Rng(1)])
        assert np.array_equal(out[0], img)

    def test_text_none_is_identity_upto_truncation(self):
        cfg = AugmentConfig(text_mode="none")
        tokens = ["red", "shirt"]
        out = augment_text(tokens, cfg, Rng(9))
        assert out == tokens

    def test_config_validation(self):
        with pytest.raises(BadParam):
            AugmentConfig(image_mode="mosaic")
        with pytest.raises(BadParam):
            AugmentConfig(text_mode="shuffle")
        with pytest.raises(BadParam):
            AugmentConfig(image_pool=("sharpen",))
        with pytest.raises(BadParam):
            AugmentConfig(alpha=0.0)
