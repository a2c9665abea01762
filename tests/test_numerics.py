"""Numeric kernel: normalization, softmax, splittable RNG, finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import central_diff
from tbpslab.numerics import (
    NonPositiveTemperature,
    Rng,
    ZeroVector,
    check_param_grads,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    log_softmax_rows,
    max_rel_error,
    pixels,
    softmax_rows,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def matrices(min_rows=1, max_rows=8, min_cols=1, max_cols=8):
    return st.integers(min_rows, max_rows).flatmap(
        lambda r: st.integers(min_cols, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(finite_floats, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(np.array)
        )
    )


class TestNormalize:
    def test_unit_norm(self):
        v = l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(v, [[0.6, 0.8]])
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            l2_normalize_rows(np.array([[0.0, 0.0, 0.0]]))
        with pytest.raises(ZeroVector):
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rows_unit(self, rng):
        m = rng.normal(size=(6, 5))
        out = l2_normalize_rows(m)
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-12

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            l2_normalize_rows(np.array([[np.nan, 1.0]]))

    def test_backward_matches_finite_differences(self, rng):
        raw = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 3))

        def scalar(x):
            return float(np.sum(l2_normalize_rows(x) * g))

        analytic = l2_normalize_rows_backward(raw, g)
        numeric = central_diff(scalar, raw.copy(), step=1e-6)
        assert np.abs(analytic - numeric).max() < 1e-7


class TestSoftmax:
    @given(matrices(), st.floats(0.01, 10))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, m, tau):
        p = softmax_rows(m, tau)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9
        assert (p >= 0).all()

    @given(matrices(), st.floats(0.01, 10), finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_row_shift_invariance(self, m, tau, c):
        shifted = m + c * tau  # shifting logits by a per-row constant
        assert np.abs(softmax_rows(m, tau) - softmax_rows(shifted, tau)).max() < 1e-12

    def test_scalar_oracle(self):
        m = np.array([[1.0, 2.0, 3.0]])
        tau = 0.5
        e = [np.exp(x / tau) for x in [1.0, 2.0, 3.0]]
        expected = np.array(e) / sum(e)
        assert np.abs(softmax_rows(m, tau)[0] - expected).max() < 1e-12

    def test_log_softmax_consistent(self, rng):
        m = rng.normal(size=(4, 6)) * 10
        assert np.abs(np.exp(log_softmax_rows(m, 0.07)) - softmax_rows(m, 0.07)).max() < 1e-12

    def test_extreme_logits_stable(self):
        m = np.array([[1000.0, -1000.0], [5000.0, 5000.0]])
        p = softmax_rows(m, 1.0)
        assert np.isfinite(p).all()
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9

    def test_non_positive_temperature(self):
        for tau in (0.0, -1.0):
            with pytest.raises(NonPositiveTemperature):
                softmax_rows(np.ones((2, 2)), tau)
            with pytest.raises(NonPositiveTemperature):
                log_softmax_rows(np.ones((2, 2)), tau)


class TestFiniteDifferences:
    def test_central_diff_of_quadratic(self, rng):
        x = rng.normal(size=(3, 2))
        numeric = central_diff(lambda v: float(np.sum(v**3)), x.copy())
        assert np.abs(numeric - 3 * x**2).max() < 1e-8

    def test_max_rel_error_floors_the_denominator(self):
        assert max_rel_error(np.array([2.0, 0.0]), np.array([1.0, 1e-6])) == 0.5
        assert max_rel_error(0.0, 1e-6) == pytest.approx(1e-2)

    def test_param_checker_restores_and_covers_scalars(self, rng):
        params = {"w": rng.normal(size=(2, 3)), "log_tau": np.array(0.3)}
        before = {k: v.copy() for k, v in params.items()}

        def loss():
            return float(np.sum(params["w"] ** 2) * np.exp(params["log_tau"]))

        scale = np.exp(0.3)
        good = {"w": 2 * params["w"] * scale, "log_tau": np.array(np.sum(params["w"] ** 2) * scale)}
        assert check_param_grads(loss, params, good) < 1e-6
        assert all(np.array_equal(params[k], before[k]) for k in params)
        bad = dict(good, log_tau=np.array(0.0))
        assert check_param_grads(loss, params, bad) > 0.5
        assert check_param_grads(loss, params, bad, coords=[("w", (1, 2))]) < 1e-6
        # a key with no analytic gradient is held to zero
        assert check_param_grads(loss, params, {"w": good["w"]}) > 0.5


class TestRng:
    def test_same_seed_stream_identical(self):
        a = Rng(123, 45).uniform(size=10_000)
        b = Rng(123, 45).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(123, 0).uniform(size=100)
        b = Rng(123, 1).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_child_deterministic_and_distinct(self):
        root = Rng(7)
        c1 = root.child(1)
        c2 = root.child(2)
        again = Rng(7).child(1)
        assert c1.stream == again.stream
        assert c1.stream != c2.stream
        assert np.array_equal(c1.uniform(size=50), again.uniform(size=50))

    def test_named_matches_rebuilt(self):
        assert Rng(7).named("augment").stream == Rng(7).named("augment").stream
        assert Rng(7).named("augment").stream != Rng(7).named("init").stream

    def test_split_independence_smoke(self):
        # Correlation between sibling streams should be statistically tiny.
        root = Rng(99)
        x = root.child(0).normal(size=20_000)
        y = root.child(1).normal(size=20_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.03

    def test_derivation_consumes_no_draws(self):
        a = Rng(5, 8)
        _ = a.child(3)  # deriving a child must not advance the parent
        b = Rng(5, 8)
        assert np.array_equal(a.uniform(size=20), b.uniform(size=20))

    def test_integers_half_open(self):
        draws = Rng(11).integers(0, 3, size=1000)
        assert set(np.unique(draws)) <= {0, 1, 2}

    def test_permutation_deterministic(self):
        assert np.array_equal(Rng(3).permutation(20), Rng(3).permutation(20))

    def test_derivation_builds_no_generator(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(kwargs.get("key"))
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        root = Rng(3)
        leaf = root.child(1).named("image").child(7)
        for i in range(50):
            root.child(i).named("text")
        assert built == []
        leaf.random()
        leaf.uniform(size=4)
        assert built == [[leaf.seed, leaf.stream]]

    @pytest.mark.parametrize(
        "seed, stream, first",
        [
            (0, 0, (0.011546754286331562, 611, -0.7771482889701236)),
            (7, 3, (0.4821286018761155, 293, -0.8994919210274568)),
            # a derived stream above 2**63, as most child streams are
            (42, 11586013586514005863, (0.10903721267822364, 355, 0.5090146983875821)),
        ],
    )
    def test_first_draws_pinned(self, seed, stream, first):
        # recorded before generators were built lazily; any change to how
        # a stream is keyed would move every random draw of every run
        r = Rng(seed, stream)
        assert (r.random(), int(r.integers(0, 1000)), r.uniform(-1, 1)) == first

    def test_named_child_stream_pinned(self):
        assert Rng(42).child(5).named("image").stream == 11586013586514005863


class TestPixels:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_uint8_level_is_k_over_255_in_the_dtype(self, dtype):
        # float32 must equal the float64 quotient rounded once to float32,
        # the value a float64 corpus cast to a float32 tower gives
        levels = np.arange(256, dtype=np.uint8)
        got = pixels(levels, dtype)
        assert got.dtype == dtype
        assert got.tobytes() == (np.arange(256) / 255.0).astype(dtype).tobytes()

    def test_float_input_is_cast_into_a_new_array(self):
        image = np.linspace(0.0, 1.0, 12).reshape(2, 2, 3)
        got = pixels(image)
        assert got.tobytes() == image.tobytes() and got is not image
        got[0, 0, 0] = 5.0
        assert image[0, 0, 0] == 0.0
        assert pixels(image, np.float32).tobytes() == image.astype(np.float32).tobytes()
