"""Contribution-score and compression tests, driven by synthetic evaluators
whose behavior is known exactly, plus a smoke run on real encoders."""

import dataclasses

import numpy as np
import pytest

from conftest import scan_c2
from tbpslab.analyze import (
    C1Result,
    XOutOfRange,
    c1_scores,
    c2_score,
    combined_scores,
    interpolate,
    reset_module,
    select_layers,
)
from tbpslab.model import (
    BadModule,
    ModelConfig,
    clone_model,
    init_model,
)
from tbpslab.numerics import Rng

CFG = ModelConfig(
    embed_dim=4,
    hidden_dim=5,
    image_layers=2,
    text_layers=3,
    patch_size=4,
    image_height=8,
    image_width=8,
    vocab=("red", "blue", "shirt"),
)


@pytest.fixture()
def pair():
    init = init_model(CFG, Rng(1))
    trained = clone_model(init)
    shift = Rng(2)
    for k, v in trained.params.items():
        trained.params[k] = v + shift.named(k).normal(size=v.shape if v.ndim else None) * 0.1
    return init, trained


def module_distance(model, reference, module):
    keys = reference.module_keys(module)
    return float(
        np.sqrt(sum(np.sum((model.params[k] - reference.params[k]) ** 2) for k in keys))
    )


class TestResetAndInterpolate:
    def test_reset_restores_initial_bytes(self, pair):
        init, trained = pair
        out = reset_module(trained, init, "txt.hidden.1")
        for k in trained.module_keys("txt.hidden.1"):
            assert np.array_equal(out.params[k], init.params[k])
        # everything else keeps the trained bytes
        assert np.array_equal(out.params["img.patch.W"], trained.params["img.patch.W"])

    def test_interpolate_formula(self, pair):
        init, trained = pair
        out = interpolate(init, trained, "img.out", 0.25)
        for k in trained.module_keys("img.out"):
            expected = 0.75 * init.params[k] + 0.25 * trained.params[k]
            assert np.allclose(out.params[k], expected, atol=1e-15)
        assert np.array_equal(out.params["txt.embed.W"], trained.params["txt.embed.W"])

    def test_endpoints_are_exact(self, pair):
        init, trained = pair
        at_one = interpolate(init, trained, "img.out", 1.0)
        at_zero = interpolate(init, trained, "img.out", 0.0)
        for k in trained.module_keys("img.out"):
            assert np.array_equal(at_one.params[k], trained.params[k])
            assert np.array_equal(at_zero.params[k], init.params[k])

    def test_alpha_bounds(self, pair):
        init, trained = pair
        with pytest.raises(ValueError):
            interpolate(init, trained, "img.out", 1.5)

    def test_unknown_module(self, pair):
        init, trained = pair
        with pytest.raises(BadModule):
            reset_module(trained, init, "img.nothing")


class TestC1:
    def test_scores_normalized_and_floored(self, pair):
        init, trained = pair
        # metric punishes resets of specific modules by fixed amounts,
        # rewards one reset (which must floor to zero)
        punish = {"img.patch": 0.6, "img.out": 0.2, "txt.embed": -0.05, "txt.out": 0.0}

        def evaluate(model):
            value = 0.9
            for m, drop in punish.items():
                if module_distance(model, trained, m) > 0:
                    value -= drop
            return value

        res = c1_scores(init, trained, list(punish), evaluate)
        assert res.deltas["img.patch"] == pytest.approx(0.6, abs=1e-12)
        assert res.deltas["txt.embed"] == pytest.approx(-0.05, abs=1e-12)
        assert res.scores["img.patch"] == pytest.approx(1.0, abs=1e-12)
        assert res.scores["img.out"] == pytest.approx(0.2 / 0.6, abs=1e-12)
        assert res.scores["txt.embed"] == 0.0
        assert res.scores["txt.out"] == 0.0
        assert not res.degenerate

    def test_degenerate_when_nothing_hurts(self, pair):
        init, trained = pair
        res = c1_scores(init, trained, ["img.patch", "img.out"], lambda m: 0.5)
        assert res.degenerate
        assert all(v == 0.0 for v in res.scores.values())
        assert isinstance(res, C1Result)

    def test_unknown_module_rejected(self, pair):
        init, trained = pair
        with pytest.raises(BadModule):
            c1_scores(init, trained, ["bogus"], lambda m: 0.5)


class TestC2:
    @staticmethod
    def linear_evaluate(init, trained, module, slope=0.2):
        """Metric recovers linearly with alpha: 1 - slope * (1 - alpha)."""
        full = module_distance(init, trained, module)

        def evaluate(model):
            remaining = module_distance(model, trained, module)
            return 1.0 - slope * (remaining / full)

        return evaluate

    def test_linear_recovery(self, pair):
        init, trained = pair
        evaluate = self.linear_evaluate(init, trained, "img.out")
        # band: 0.2 (1 - a) < 0.03  =>  a > 0.85  =>  first grid point 0.86
        got = c2_score(init, trained, "img.out", evaluate, eps=0.03)
        assert got == pytest.approx(0.86, abs=1e-12)

    def test_scan_matches_refine_when_monotone(self, pair):
        init, trained = pair
        for slope in (0.05, 0.2, 1.0):
            evaluate = self.linear_evaluate(init, trained, "txt.out", slope)
            refine = c2_score(init, trained, "txt.out", evaluate)
            assert refine == scan_c2(init, trained, "txt.out", evaluate)

    def test_useless_module_scores_zero(self, pair):
        init, trained = pair
        got = c2_score(init, trained, "txt.hidden.0", lambda m: 0.7)
        assert got == 0.0

    def test_full_recovery_needed(self, pair):
        init, trained = pair
        evaluate = self.linear_evaluate(init, trained, "img.out", slope=100.0)
        got = c2_score(init, trained, "img.out", evaluate)
        # 100 (1 - a) < 0.03 => a > 0.9997: only alpha = 1 qualifies
        assert got == 1.0

    def test_bad_arguments(self, pair):
        init, trained = pair
        with pytest.raises(ValueError):
            c2_score(init, trained, "img.out", lambda m: 1.0, eps=0.0)


class TestSelection:
    SCORES = {"a": 0.1, "b": 0.3, "c": 0.2, "d": 0.2}

    def test_picks_cheapest(self):
        assert select_layers(self.SCORES, 1) == ("a",)
        assert select_layers(self.SCORES, 2) in (("a", "c"), ("a", "d"))

    def test_lexicographic_tie_break(self):
        # a+c and a+d tie at 0.3; (a, c) sorts first
        assert select_layers(self.SCORES, 2) == ("a", "c")

    def test_zero_budget(self):
        assert select_layers(self.SCORES, 0) == ()

    def test_full_budget(self):
        assert select_layers(self.SCORES, 4) == ("a", "b", "c", "d")

    def test_out_of_range(self):
        with pytest.raises(XOutOfRange):
            select_layers(self.SCORES, 5)
        with pytest.raises(XOutOfRange):
            select_layers(self.SCORES, -1)

    def test_combined_scores(self):
        c1 = {"a": 0.5, "b": 0.0}
        c2 = {"a": 0.25, "b": 1.0}
        assert combined_scores(c1, c2) == {"a": 0.75, "b": 1.0}
        with pytest.raises(ValueError):
            combined_scores(c1, {"a": 0.1})


class TestOnRealEncoders:
    def test_c1_smoke_on_toy_model(self, pair):
        from tbpslab.data import ToySpec, build_vocab, generate_toy
        from tbpslab.evaluate import evaluate_model

        ds = generate_toy(ToySpec(n_identities=6, images_per_identity=2), Rng(5))
        vocab = build_vocab(ds.train)
        cfg = dataclasses.replace(CFG, vocab=vocab, image_height=48, image_width=24, patch_size=8)
        init = init_model(cfg, Rng(3))
        trained = clone_model(init)
        shift = Rng(4)
        for k, v in trained.params.items():
            trained.params[k] = v + shift.named(k).normal(size=v.shape if v.ndim else None) * 0.05

        def evaluate(model):
            return evaluate_model(model, ds.train).rank1

        res = c1_scores(init, trained, ["img.patch", "txt.embed"], evaluate)
        assert set(res.scores) == {"img.patch", "txt.embed"}
        assert all(0 <= v <= 1 for v in res.scores.values())


class TestContributionTable:
    def test_rows_equal_rows_of_the_per_probe_evaluation(self, pinning_run):
        from tbpslab import experiments
        from tbpslab.evaluate import evaluate_model

        run = pinning_run
        rows = experiments.contribution_table(run)

        def metric(model):
            return evaluate_model(model, run.dataset.val).rank1

        modules = [m for m in run.model.module_names() if m != "log_tau"]
        base = metric(run.model)
        c1 = c1_scores(run.model_init, run.model, modules, metric)
        c2 = {m: c2_score(run.model_init, run.model, m, metric, baseline=base) for m in modules}
        both = combined_scores(c1.scores, c2)
        expected = [
            {"module": m, "delta": c1.deltas[m], "c1": c1.scores[m], "c2": c2[m], "combined": both[m]}
            for m in modules
        ]
        assert repr(rows) == repr(expected)
        assert any(r["c1"] > 0 for r in rows) and any(r["c2"] > 0 for r in rows)
