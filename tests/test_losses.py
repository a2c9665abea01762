"""Loss suite: closed forms, invariants, and finite-difference gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batches_from_raw, random_raw_pair
from gradcheck import check_against_raw
from tbpslab.losses import (
    BadPairing,
    LengthMismatch,
    LossConfig,
    LossResult,
    MissingTerm,
    NotNormalized,
    build_labels,
    c_itc,
    diagonal_label_matrix,
    make_view_pairing,
    mvs_terms,
    n_itc,
    r_itc,
    soft_label,
    ss_loss,
    stack,
)
from tbpslab.numerics import NonPositiveTemperature, Rng, ShapeMismatch, l2_normalize_rows

LOG_TAU = float(np.log(0.07))
TAU = 0.07


def identical_batch(n, d):
    """All rows equal to the same unit vector."""
    row = np.zeros(d)
    row[0] = 1.0
    return np.tile(row, (n, 1))


class TestBuildLabels:
    def test_q_oracle_loops(self):
        img_ids = [3, 1, 3, 2]
        txt_ids = [3, 1, 1, 2]
        labels = build_labels(img_ids, txt_ids)
        for i in range(4):
            for j in range(4):
                assert labels.q[i, j] == (1.0 if img_ids[i] == txt_ids[j] else 0.0)
        assert np.abs(labels.q_hat.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(labels.q_hat_rev.sum(axis=1) - 1.0).max() < 1e-12

    def test_reverse_normalizes_transpose(self):
        labels = build_labels([1, 1, 2], [1, 2, 2])
        expected = labels.q.T / labels.q.T.sum(axis=1, keepdims=True)
        assert np.abs(labels.q_hat_rev - expected).max() < 1e-12

    def test_row_without_positive_rejected(self):
        with pytest.raises(BadPairing):
            build_labels([1, 2], [1, 1])

    def test_column_without_positive_rejected(self):
        with pytest.raises(BadPairing):
            build_labels([1, 1], [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            build_labels([1, 2, 3], [1, 2])

    def test_diagonal_label_matrix(self):
        labels = diagonal_label_matrix(3)
        assert np.array_equal(labels.q, np.eye(3))
        assert np.array_equal(labels.q_hat, np.eye(3))


class TestNItc:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_uniform_similarity_gives_log_n(self, n):
        # Identical embeddings with distinct identities: the softmax is
        # uniform and the loss collapses to log(N) exactly.
        ids = np.arange(n)
        value = n_itc(identical_batch(n, 8), identical_batch(n, 8), build_labels(ids, ids), TAU).value
        assert abs(value - np.log(n)) < 1e-9

    @given(st.integers(0, 2**32), st.integers(4, 8))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed, n):
        rng = Rng(seed)
        raw_i, raw_t, ids = random_raw_pair(rng, n, 5)
        img, txt, labels = batches_from_raw(raw_i, raw_t, ids)
        base = n_itc(img, txt, labels, TAU).value

        perm = rng.permutation(n)
        img_p, txt_p, labels_p = batches_from_raw(raw_i[perm], raw_t[perm], ids[perm])
        assert abs(n_itc(img_p, txt_p, labels_p, TAU).value - base) < 1e-9

    def test_gradients_match_finite_differences(self, rng):
        for k in range(3):
            sub = rng.child(k)
            n, d = int(sub.integers(3, 8)), int(sub.integers(3, 10))
            raw_i, raw_t, ids = random_raw_pair(sub, n, d)
            labels = build_labels(ids, ids)

            def fn(mats, tau):
                r = n_itc(mats["img"], mats["txt"], labels, tau)
                return r.value, {"img": r.grad_image, "txt": r.grad_text}, r.grad_log_tau

            err = check_against_raw(fn, {"img": raw_i, "txt": raw_t}, LOG_TAU)
            assert err < 1e-4, f"config {k}: max rel error {err}"

    def test_requires_normalized(self, rng):
        feats = rng.normal(size=(4, 3))
        ids = np.arange(4)
        with pytest.raises(NotNormalized):
            n_itc(feats, l2_normalize_rows(feats), build_labels(ids, ids), TAU)

    def test_non_positive_temperature(self, rng):
        raw_i, raw_t, ids = random_raw_pair(rng, 4, 3)
        img, txt, labels = batches_from_raw(raw_i, raw_t, ids)
        with pytest.raises(NonPositiveTemperature):
            n_itc(img, txt, labels, 0.0)

    def test_batch_size_mismatch(self, rng):
        raw_i, raw_t, ids = random_raw_pair(rng, 4, 3)
        img, txt, labels = batches_from_raw(raw_i, raw_t, ids)
        with pytest.raises(ShapeMismatch):
            n_itc(img, txt[:3], labels, TAU)


class TestSoftLabel:
    def test_rows_still_sum_to_one(self, rng):
        raw_i, raw_t, ids = random_raw_pair(rng, 6, 4)
        img, txt, labels = batches_from_raw(raw_i, raw_t, ids)
        s = img @ txt.T
        from tbpslab.numerics import softmax_rows

        p1 = softmax_rows(s, TAU)
        p2 = softmax_rows(s.T, TAU)
        soft = soft_label(labels, p1, p2)
        assert np.abs(soft.q_hat.sum(axis=1) - 1.0).max() < 1e-9
        assert np.abs(soft.q_hat_rev.sum(axis=1) - 1.0).max() < 1e-9
        assert np.array_equal(soft.q, labels.q)
        assert np.abs(soft.q_hat - 0.5 * (p1 + labels.q_hat)).max() < 1e-12

    def test_gradients_with_fixed_soft_targets(self, rng):
        # Pseudo-labels are constants: gradients flow only through p.
        raw_i, raw_t, ids = random_raw_pair(rng, 5, 4)
        img, txt, labels = batches_from_raw(raw_i, raw_t, ids)
        from tbpslab.numerics import softmax_rows

        s = img @ txt.T
        soft = soft_label(labels, softmax_rows(s, TAU), softmax_rows(s.T, TAU))

        def fn(mats, tau):
            r = n_itc(mats["img"], mats["txt"], soft, tau)
            return r.value, {"img": r.grad_image, "txt": r.grad_text}, r.grad_log_tau

        err = check_against_raw(fn, {"img": raw_i, "txt": raw_t}, LOG_TAU)
        assert err < 1e-4

    def test_rejects_non_distribution(self, rng):
        raw_i, raw_t, ids = random_raw_pair(rng, 4, 3)
        _, _, labels = batches_from_raw(raw_i, raw_t, ids)
        bad = np.full((4, 4), 0.5)
        with pytest.raises(ValueError):
            soft_label(labels, bad, bad)


class TestRItc:
    def test_matched_distributions_near_zero(self):
        # N=2, all ids equal, identical embeddings: p == q_hat == 0.5
        # everywhere, so only the eps floor keeps the value off zero.
        ids = np.zeros(2, dtype=int)
        labels = build_labels(ids, ids)
        eps = 1e-8
        value = r_itc(identical_batch(2, 4), identical_batch(2, 4), labels, TAU, eps).value
        expected = 2 * 4 * 0.5 * np.log(0.5 / (0.5 + eps)) / 4
        assert abs(value) < 1e-6
        assert abs(value - expected) < 1e-12

    @given(st.integers(0, 2**32), st.integers(3, 8))
    @settings(max_examples=25, deadline=None)
    def test_never_meaningfully_negative(self, seed, n):
        rng = Rng(seed)
        raw_i, raw_t, ids = random_raw_pair(rng, n, 5)
        img, txt, labels = batches_from_raw(raw_i, raw_t, ids)
        assert r_itc(img, txt, labels, TAU).value > -1e-6

    def test_gradients_match_finite_differences(self, rng):
        for k in range(3):
            sub = rng.child(100 + k)
            n, d = int(sub.integers(3, 8)), int(sub.integers(3, 10))
            raw_i, raw_t, ids = random_raw_pair(sub, n, d)
            labels = build_labels(ids, ids)

            def fn(mats, tau):
                r = r_itc(mats["img"], mats["txt"], labels, tau)
                return r.value, {"img": r.grad_image, "txt": r.grad_text}, r.grad_log_tau

            err = check_against_raw(fn, {"img": raw_i, "txt": raw_t}, LOG_TAU)
            assert err < 1e-4, f"config {k}: max rel error {err}"

    def test_bad_eps(self, rng):
        raw_i, raw_t, ids = random_raw_pair(rng, 4, 3)
        img, txt, labels = batches_from_raw(raw_i, raw_t, ids)
        with pytest.raises(ValueError):
            r_itc(img, txt, labels, TAU, eps=0.0)


class TestCItc:
    def test_identical_towers_give_zero(self, rng):
        feats = l2_normalize_rows(rng.normal(size=(5, 6)))
        assert c_itc(feats, feats.copy()).value == 0.0

    @given(st.integers(0, 2**32), st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed, n):
        rng = Rng(seed)
        raw_i, raw_t, ids = random_raw_pair(rng, n, 5)
        img, txt, _ = batches_from_raw(raw_i, raw_t, ids)
        assert c_itc(img, txt).value >= 0.0

    def test_value_oracle_loops(self, rng):
        raw_i, raw_t, ids = random_raw_pair(rng, 4, 5)
        fi, ft, _ = batches_from_raw(raw_i, raw_t, ids)
        n = 4
        total = 0.0
        for i in range(n):
            for j in range(n):
                total += (np.dot(fi[i], fi[j]) - np.dot(ft[i], ft[j])) ** 2 / n
                total += (np.dot(fi[i], ft[j]) - np.dot(fi[j], ft[i])) ** 2 / n
        assert abs(c_itc(fi, ft).value - total) < 1e-12

    def test_gradients_match_finite_differences(self, rng):
        for k in range(3):
            sub = rng.child(200 + k)
            n, d = int(sub.integers(3, 8)), int(sub.integers(3, 10))
            raw_i, raw_t, ids = random_raw_pair(sub, n, d)

            def fn(mats, tau):
                r = c_itc(mats["img"], mats["txt"])
                return r.value, {"img": r.grad_image, "txt": r.grad_text}, r.grad_log_tau

            err = check_against_raw(fn, {"img": raw_i, "txt": raw_t}, log_tau=None)
            assert err < 1e-4, f"config {k}: max rel error {err}"


class TestSsLoss:
    def test_all_identical_views_give_log_2n_minus_1(self):
        for n in (2, 4, 7):
            value = ss_loss(identical_batch(2 * n, 6), make_view_pairing(n), tau_s=0.1).value
            assert abs(value - np.log(2 * n - 1)) < 1e-6

    def test_orthogonal_pairs_near_zero(self):
        # Two pairs, each pair identical, pairs mutually orthogonal: the
        # positive dominates and the loss is ~2 exp(-1 / tau_s).
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        value = ss_loss(feats, make_view_pairing(2), tau_s=0.1).value
        assert 0.0 < value < 1e-3

    def test_gradients_match_finite_differences(self, rng):
        for k in range(3):
            sub = rng.child(300 + k)
            n, d = int(sub.integers(2, 5)), int(sub.integers(3, 8))
            raw = sub.normal(size=(2 * n, d))
            pairing = make_view_pairing(n)

            def fn(mats, tau):
                r = ss_loss(mats["views"], pairing, tau_s=0.1)
                return r.value, {"views": r.grad_image}, r.grad_log_tau

            err = check_against_raw(fn, {"views": raw}, log_tau=None)
            assert err < 1e-4, f"config {k}: max rel error {err}"

    def test_bad_pairings_rejected(self, rng):
        views = l2_normalize_rows(rng.normal(size=(4, 3)))
        with pytest.raises(BadPairing):
            ss_loss(views, np.array([0, 1, 2, 3]))  # fixed points
        with pytest.raises(BadPairing):
            ss_loss(views, np.array([1, 2, 3, 0]))  # not an involution
        with pytest.raises(BadPairing):
            ss_loss(views[:2], np.array([1, 0]))  # too few views


class TestMvs:
    def test_terms_match_direct_calls(self, rng):
        n, d = 5, 4
        ids = np.arange(n) // 2 if n >= 4 else np.arange(n)
        mats = {k: l2_normalize_rows(rng.normal(size=(n, d))) for k in "abcd"}
        img, img_alt, txt, txt_alt = (mats[k] for k in "abcd")
        labels = build_labels(ids, ids)
        terms = mvs_terms(img, img_alt, txt, txt_alt, labels, TAU)
        assert terms["mvs_i"].value == n_itc(img_alt, txt, labels, TAU).value
        assert terms["mvs_t"].value == n_itc(img, txt_alt, labels, TAU).value
        assert terms["mvs_it"].value == n_itc(img_alt, txt_alt, labels, TAU).value


def slot_calls(ok, labels):
    """Each loss entry point, once per embedding argument: every call puts
    its argument in that slot and valid unit rows in all the others."""
    pairing = make_view_pairing(len(ok) // 2)
    return {
        "n_itc": [lambda z: n_itc(z, ok, labels, TAU), lambda z: n_itc(ok, z, labels, TAU)],
        "r_itc": [lambda z: r_itc(z, ok, labels, TAU), lambda z: r_itc(ok, z, labels, TAU)],
        "c_itc": [lambda z: c_itc(z, ok), lambda z: c_itc(ok, z)],
        "mvs_terms": [
            lambda z: mvs_terms(z, ok, ok, ok, labels, TAU),
            lambda z: mvs_terms(ok, z, ok, ok, labels, TAU),
            lambda z: mvs_terms(ok, ok, z, ok, labels, TAU),
            lambda z: mvs_terms(ok, ok, ok, z, labels, TAU),
        ],
        "ss_loss": [lambda z: ss_loss(z, pairing)],
    }


def with_nan(z):
    z = z.copy()
    z[1, 0] = np.nan
    return z


class TestEveryLossRefusesBadRows:
    @pytest.mark.parametrize("loss", ["n_itc", "r_itc", "c_itc", "mvs_terms", "ss_loss"])
    @pytest.mark.parametrize(
        "corrupt, error, match",
        [
            (lambda z: 2.0 * z, NotNormalized, None),
            (with_nan, ValueError, "NaN or Inf"),
            (lambda z: z[None], ShapeMismatch, None),
        ],
        ids=["not-unit-norm", "nan", "3-d"],
    )
    def test_rejected_in_every_slot(self, rng, loss, corrupt, error, match):
        ok = l2_normalize_rows(rng.normal(size=(4, 3)))
        ids = np.arange(4)
        for call in slot_calls(ok, build_labels(ids, ids))[loss]:
            call(ok)  # the valid rows pass
            with pytest.raises(error, match=match):
                call(corrupt(ok))


class TestStack:
    def test_linear_combination_oracle(self, rng):
        shapes = (6, 4)
        terms = {}
        for name in ("n_itc", "r_itc", "c_itc"):
            terms[name] = LossResult(
                value=float(rng.normal()),
                grad_image=rng.normal(size=shapes),
                grad_text=rng.normal(size=shapes),
                grad_log_tau=float(rng.normal()),
            )
        weights = {"n_itc": 1.0, "r_itc": 0.5, "c_itc": 2.0}
        out = stack(LossConfig(weights=weights), terms)
        expect_value = sum(weights[k] * terms[k].value for k in weights)
        expect_img = sum(weights[k] * terms[k].grad_image for k in weights)
        expect_txt = sum(weights[k] * terms[k].grad_text for k in weights)
        expect_lt = sum(weights[k] * terms[k].grad_log_tau for k in weights)
        assert abs(out.value - expect_value) < 1e-12
        assert np.abs(out.grad_image - expect_img).max() < 1e-12
        assert np.abs(out.grad_text - expect_txt).max() < 1e-12
        assert abs(out.grad_log_tau - expect_lt) < 1e-12

    def test_missing_term_rejected(self):
        with pytest.raises(MissingTerm):
            stack(LossConfig(weights={"n_itc": 1.0}), {})

    def test_zero_weight_term_may_be_absent(self):
        cfg = LossConfig(weights={"n_itc": 1.0, "c_itc": 0.0})
        out = stack(cfg, {"n_itc": LossResult(value=2.0, grad_log_tau=1.0)})
        assert out.value == 2.0
        assert out.grad_image is None

    def test_none_gradients_skipped(self, rng):
        terms = {
            "n_itc": LossResult(value=1.0, grad_image=np.ones((2, 2)), grad_text=np.ones((2, 2))),
            "ss_i": LossResult(value=1.0, grad_image=None, grad_text=None),
        }
        out = stack(LossConfig(weights={"n_itc": 1.0, "ss_i": 1.0}), terms)
        assert np.array_equal(out.grad_image, np.ones((2, 2)))


class TestLossConfig:
    def test_unknown_loss_rejected(self):
        with pytest.raises(KeyError):
            LossConfig(weights={"nitc": 1.0})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(weights={"n_itc": 0.0})

    def test_bad_tau_s_rejected(self):
        with pytest.raises(NonPositiveTemperature):
            LossConfig(weights={"n_itc": 1.0}, tau_s=0.0)


class TestFrozenRegressionValues:
    """Values computed once from the oracle-verified implementation and
    frozen; any drift in loss semantics trips these."""

    def test_fixed_batch_values(self):
        rng = Rng(777)
        raw_i, raw_t, ids = random_raw_pair(rng, 6, 8)
        img, txt, labels = batches_from_raw(raw_i, raw_t, ids)
        res = n_itc(img, txt, labels, 0.07)
        assert abs(res.value - 5.999316837129129) < 1e-12
        assert abs(res.grad_log_tau - -5.837756491580403) < 1e-12
        assert abs(r_itc(img, txt, labels, 0.07).value - 13.630742520401425) < 1e-12
        assert abs(c_itc(img, txt).value - 2.57597987712654) < 1e-12
        views = l2_normalize_rows(rng.normal(size=(8, 8)))
        assert abs(ss_loss(views, make_view_pairing(4), 0.1).value - 3.8299453891298234) < 1e-12
