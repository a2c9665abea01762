"""Training tests: schedule endpoints and shape, an optimizer reference
implementation, batch assembly determinism, a finite-difference check of
the fully stacked step gradient, freeze hygiene, loop behavior, and the
float32 towers on float64 master weights."""

import dataclasses

import numpy as np
import pytest
from conftest import rebuilt

from tbpslab import train
from tbpslab.augment import AugmentConfig, builtin_lexicon, eda, tokenize
from tbpslab.config import materialize, resolve
from tbpslab.data import ToySpec, build_vocab, generate_toy
from tbpslab.evaluate import evaluate_model
from tbpslab.experiments import build_dataset
from tbpslab.losses import LossConfig
from tbpslab.model import (
    ModelConfig,
    backward_image,
    backward_text,
    clone_model,
    encode_image,
    encode_text,
    freeze,
    init_model,
    module_of,
    parameter_count,
)
from tbpslab.numerics import Rng, check_param_grads, pixels
from tbpslab.train import (
    AdamW,
    Batch,
    BatchTooSmall,
    NonFiniteLoss,
    Schedule,
    StepOutOfRange,
    TrainConfig,
    assemble_batch,
    fit,
    loss_and_grads,
    tower_copy,
    train_step,
)

NO_AUG = AugmentConfig(image_mode="none", text_mode="none")
FULL_AUG = AugmentConfig(image_mode="pool", text_mode="stack")

SMALL_MODEL = ModelConfig(
    embed_dim=4,
    hidden_dim=5,
    image_layers=2,
    text_layers=2,
    patch_size=4,
    image_height=8,
    image_width=8,
)


def tiny_corpus(n_ids=6, images=2, seed=31):
    return generate_toy(
        ToySpec(n_identities=n_ids, images_per_identity=images), Rng(seed)
    )


def small_setup(dropout=0.0, seed=5):
    """A reduced-raster corpus stand-in: random images and short captions."""
    rng = Rng(seed)
    images = rng.named("img").random(size=(5, 8, 8, 3))
    captions = [
        "red shirt blue pants hat",
        "green shirt pink pants bag",
        "blue shirt gray pants scarf",
        "teal shirt black pants glasses",
        "white shirt brown pants backpack",
    ]
    from tbpslab.data import Split

    ids = np.arange(5) % 4
    split = Split(images=images, image_ids=ids, captions=tuple(captions), image_of=np.arange(5), ids=ids)
    vocab = build_vocab(split)
    cfg = dataclasses.replace(SMALL_MODEL, vocab=vocab, dropout=dropout)
    model = init_model(cfg, Rng(seed + 1))
    return model, split


class TestSchedule:
    SCHED = Schedule(total_steps=200)

    def test_starts_at_init(self):
        assert self.SCHED.lr_at(0) == pytest.approx(1e-6, abs=1e-18)

    def test_peak_at_warmup_end(self):
        assert self.SCHED.lr_at(self.SCHED.warmup_steps) == pytest.approx(1e-4, abs=1e-12)

    def test_ends_at_final(self):
        assert self.SCHED.lr_at(200) == pytest.approx(5e-6, abs=1e-12)

    def test_warmup_is_linear(self):
        w = self.SCHED.warmup_steps
        quarter = self.SCHED.lr_at(w / 4)
        expected = 1e-6 + (1e-4 - 1e-6) * 0.25
        assert quarter == pytest.approx(expected, abs=1e-18)

    def test_cosine_closed_form(self):
        w = self.SCHED.warmup_steps
        for progress in (0.1, 0.37, 0.5, 0.93):
            step = w + progress * (200 - w)
            expected = 5e-6 + 0.5 * (1e-4 - 5e-6) * (1 + np.cos(np.pi * progress))
            assert self.SCHED.lr_at(step) == pytest.approx(expected, abs=1e-12)

    def test_continuous_at_junction(self):
        w = self.SCHED.warmup_steps
        assert self.SCHED.lr_at(w - 1e-9) == pytest.approx(self.SCHED.lr_at(w + 1e-9), abs=1e-9)

    def test_monotone_after_warmup(self):
        w = self.SCHED.warmup_steps
        lrs = [self.SCHED.lr_at(s) for s in np.linspace(w, 200, 50)]
        assert all(a >= b - 1e-15 for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range(self):
        with pytest.raises(StepOutOfRange):
            self.SCHED.lr_at(-1)
        with pytest.raises(StepOutOfRange):
            self.SCHED.lr_at(201)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            Schedule(total_steps=0)
        with pytest.raises(ValueError):
            Schedule(total_steps=10, warmup_frac=0.0)


class TestAdamW:
    def reference(self, grads, lrs, wd, decay):
        """Textbook decoupled-decay Adam on one scalar."""
        x, m, v = 1.0, 0.0, 0.0
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            x = x - lr * mh / (np.sqrt(vh) + eps) - (lr * wd * x if decay else 0.0)
        return x

    def test_matches_reference_with_decay(self, rng):
        grads = rng.normal(size=100)
        lrs = np.abs(rng.normal(size=100)) * 1e-2 + 1e-4
        opt = AdamW(weight_decay=0.02)
        params = {"x.W": np.array([[1.0]])}
        for g, lr in zip(grads, lrs):
            opt.step(params, {"x.W": np.array([[g]])}, lr)
        expected = self.reference(grads, lrs, 0.02, decay=True)
        assert params["x.W"][0, 0] == pytest.approx(expected, abs=1e-10)

    def test_biases_not_decayed(self, rng):
        grads = rng.normal(size=100)
        lrs = np.full(100, 3e-3)
        opt = AdamW(weight_decay=0.5)
        params = {"x.b": np.array([1.0])}
        for g, lr in zip(grads, lrs):
            opt.step(params, {"x.b": np.array([g])}, lr)
        expected = self.reference(grads, lrs, 0.5, decay=False)
        assert params["x.b"][0] == pytest.approx(expected, abs=1e-10)

    def test_skip_leaves_bytes(self):
        opt = AdamW()
        params = {"a.W": np.array([[2.0]]), "b.W": np.array([[3.0]])}
        before = params["a.W"].copy()
        opt.step(params, {k: np.ones_like(v) for k, v in params.items()}, 0.1, skip={"a.W"})
        assert np.array_equal(params["a.W"], before)
        assert not np.array_equal(params["b.W"], np.array([[3.0]]))

    def test_updates_each_array_in_place(self, rng):
        # a parameter keeps its array, with the bytes of `p - update` on a new one
        params = {"x.W": rng.normal(size=(3, 4)), "x.b": rng.normal(size=4), "log_tau": np.array(0.3)}
        held = dict(params)
        want = {k: x.copy() for k, x in params.items()}
        m = {k: np.zeros_like(x) for k, x in params.items()}
        v = {k: np.zeros_like(x) for k, x in params.items()}
        opt = AdamW()
        b1, b2, lr = opt.beta1, opt.beta2, 1e-2
        for t in range(1, 4):
            grads = {k: rng.child(t).normal(size=x.shape) for k, x in params.items()}
            opt.step(params, grads, lr)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                update = lr * (m[k] / (1.0 - b1**t)) / (np.sqrt(v[k] / (1.0 - b2**t)) + opt.eps)
                if k.endswith(".W"):
                    update = update + lr * opt.weight_decay * want[k]
                want[k] = want[k] - update
            for k, x in params.items():
                assert x is held[k] and x.tobytes() == want[k].tobytes(), (t, k)

    def test_log_tau_not_decayed(self):
        opt = AdamW(weight_decay=10.0)
        params = {"log_tau": np.array(0.5)}
        opt.step(params, {"log_tau": np.array(0.0)}, 0.1)
        # zero gradient and no decay: value must not move
        assert params["log_tau"] == pytest.approx(0.5, abs=1e-15)


class TestAssembleBatch:
    def test_shapes_and_ids(self, rng):
        ds = tiny_corpus()
        batch = assemble_batch(ds.train, range(4), NO_AUG, rng)
        assert batch.images.shape == (4, 48, 24, 3)
        assert batch.images_aug.shape == (4, 48, 24, 3)
        assert len(batch.tokens) == len(batch.tokens_aug) == 4
        assert batch.ids.shape == (4,)

    def test_no_aug_views_identical(self, rng):
        ds = tiny_corpus()
        batch = assemble_batch(ds.train, range(3), NO_AUG, rng)
        assert batch.images_aug is batch.images
        assert batch.tokens == batch.tokens_aug

    def test_production_aug_changes_views(self):
        ds = tiny_corpus()
        batch = assemble_batch(ds.train, range(3), FULL_AUG, Rng(9))
        assert not np.array_equal(batch.images, batch.images_aug)

    def test_deterministic(self):
        ds = tiny_corpus()
        a = assemble_batch(ds.train, range(3), FULL_AUG, Rng(42))
        b = assemble_batch(ds.train, range(3), FULL_AUG, Rng(42))
        assert np.array_equal(a.images_aug, b.images_aug)
        assert a.tokens_aug == b.tokens_aug

    def test_too_small(self, rng):
        ds = tiny_corpus()
        with pytest.raises(BatchTooSmall):
            assemble_batch(ds.train, range(1), NO_AUG, rng)

    @pytest.mark.parametrize(
        "weights, want_img, want_txt",
        [
            ({"n_itc": 1.0}, False, False),
            ({"n_itc": 1.0, "ss_i": 0.3, "mvs_i": 0.3}, True, False),
            ({"n_itc": 1.0, "mvs_t": 0.3}, False, True),
            ({"n_itc": 1.0, "ss_it": 0.3, "mvs_i": 0.0}, True, True),
            ({"n_itc": 1.0, "ss_i": 0.3}, True, False),
            ({"n_itc": 1.0, "ss_t": 0.3}, False, True),
            ({"n_itc": 1.0, "ss_it": 0.3}, True, True),
            ({"n_itc": 1.0, "mvs_i": 0.3}, True, False),
            ({"n_itc": 1.0, "mvs_it": 0.3}, True, True),
            ({"n_itc": 1.0, "r_itc": 0.3}, False, False),
            ({"n_itc": 1.0, "c_itc": 0.3}, False, False),
        ],
    )
    def test_builds_only_consumed_views(self, weights, want_img, want_txt):
        ds = tiny_corpus()
        full = assemble_batch(ds.train, range(5), FULL_AUG, Rng(4))
        part = assemble_batch(ds.train, range(5), FULL_AUG, Rng(4), loss_cfg=LossConfig(weights=weights))
        assert (part.images_aug is not None) == want_img
        assert (part.tokens_aug is not None) == want_txt
        if want_img:
            assert np.array_equal(part.images_aug, full.images_aug)
        if want_txt:
            assert part.tokens_aug == full.tokens_aug
        assert np.array_equal(part.images, full.images) and part.tokens == full.tokens

    @pytest.mark.parametrize("seed", range(4))
    def test_eda_text_views_read_the_builtin_lexicon(self, seed):
        split = tiny_corpus().train
        batch = assemble_batch(split, range(6), AugmentConfig(text_mode="eda"), Rng(seed))
        want = [
            eda(tokenize(caption), builtin_lexicon(), Rng(seed).child(i).named("text"), 0.05)
            for i, caption in enumerate(split.captions[:6])
        ]
        assert batch.tokens_aug == want

    def test_streams_derived_only_for_built_views(self, rng, monkeypatch):
        split, rows = tiny_corpus().train, range(5)
        made = []
        real = Rng.__init__
        monkeypatch.setattr(Rng, "__init__", lambda self, *a: made.append(a) or real(self, *a))
        no_views, image_views = ({"n_itc": 1.0}, {"n_itc": 1.0, "ss_i": 0.3})
        assemble_batch(split, rows, FULL_AUG, rng, loss_cfg=LossConfig(weights=no_views))
        assert made == []
        assemble_batch(split, rows, FULL_AUG, rng, loss_cfg=LossConfig(weights=image_views))
        assert len(made) == 2 * len(rows)  # child(i), then its "image" stream

    def test_pretokenized_captions_used(self):
        ds = tiny_corpus()
        given = [["red", "shirt"], ["blue"], ["hat"], ["bag", "red"]]
        batch = assemble_batch(ds.train, range(4), NO_AUG, Rng(8), tokens=given)
        assert batch.tokens == given == batch.tokens_aug


def synthetic_batch(split, rows, rng):
    return assemble_batch(split, rows, NO_AUG, rng)


FULL_STACK = LossConfig(
    weights={
        "n_itc": 1.0,
        "ss_i": 0.4,
        "ss_t": 0.3,
        "mvs_i": 0.5,
        "mvs_t": 0.25,
        "mvs_it": 0.25,
        "r_itc": 0.7,
        "c_itc": 0.3,
    }
)
WITH_SS_IT = LossConfig(weights={**FULL_STACK.weights, "ss_it": 0.2})


def assert_inert_grads(model, samples, inert):
    """Freezing `inert` removes exactly its modules' gradients and leaves
    every other one bit-equal."""
    batch = assemble_batch(samples, range(4), AugmentConfig(image_mode="pool", text_mode="stack"), Rng(6))
    _, full, _ = loss_and_grads(model, batch, WITH_SS_IT, Rng(3))
    _, part, _ = loss_and_grads(freeze(clone_model(model), inert), batch, WITH_SS_IT, Rng(3))
    # log_tau's gradient comes from the loss, not the towers: always kept
    assert set(part) == {k for k in full if module_of(k) not in inert or k == "log_tau"}
    for key in part:
        assert np.array_equal(part[key], full[key]), key


class TestStepGradients:
    """Finite differences through the complete stacked objective, dropout
    masks held fixed by the step rng."""

    def test_full_stack_fd(self):
        model, samples = small_setup(dropout=0.2)
        batch = synthetic_batch(samples, range(3), Rng(1))
        for cfg in (FULL_STACK, WITH_SS_IT):
            value, grads, terms = loss_and_grads(model, batch, cfg, Rng(77))
            assert set(terms) == set(cfg.weights)

            def loss():
                return loss_and_grads(model, batch, cfg, Rng(77))[0]

            assert check_param_grads(loss, model.params, grads) < 1e-4

    def test_ss_it_is_ss_i_plus_ss_t(self):
        # one weight on both view contrasts equals that weight on each
        model, samples = small_setup(dropout=0.2)
        batch = assemble_batch(samples, range(4), AugmentConfig(image_mode="pool", text_mode="stack"), Rng(6))
        w = 0.6
        v_it, g_it, t_it = loss_and_grads(model, batch, LossConfig(weights={"ss_it": w}), Rng(3))
        v_two, g_two, t_two = loss_and_grads(
            model, batch, LossConfig(weights={"ss_i": w, "ss_t": w}), Rng(3)
        )
        assert abs(v_it - v_two) < 1e-12
        assert t_it["ss_it"] == t_two["ss_i"] + t_two["ss_t"]
        assert set(g_it) == set(g_two)
        for key in g_two:
            assert np.max(np.abs(g_it[key] - g_two[key])) < 1e-12, key

    @pytest.mark.parametrize(
        "inert",
        [
            {"img.patch"},
            {"img.patch", "img.hidden.0"},
            {"img.patch", "img.hidden.0", "img.hidden.1"},
            {"img.hidden.1", "img.out"},
            {"txt.embed"},
            {"txt.embed", "txt.hidden.0"},
            {"txt.hidden.1", "txt.out"},
            {"img.patch", "txt.embed", "log_tau"},
            # every hidden layer inert: the pass runs through them to the input stage
            {"img.hidden.0", "img.hidden.1"},
            {"txt.hidden.0", "txt.hidden.1"},
        ],
    )
    def test_inert_modules_get_no_gradient_and_the_rest_is_bit_equal(self, inert):
        model, samples = small_setup(dropout=0.2)
        assert_inert_grads(model, samples, inert)

    @pytest.mark.parametrize(
        "dropped, inert",
        [
            ((0,), {"txt.embed"}),
            ((1,), {"txt.embed", "txt.hidden.0"}),
            ((1,), {"txt.hidden.0"}),
            ((0, 1), {"txt.embed"}),
            ((0,), {"txt.embed", "txt.hidden.1"}),
            ((2,), {"txt.hidden.0", "txt.hidden.1"}),
        ],
    )
    def test_inert_modules_with_dropped_text_layers(self, dropped, inert):
        # the kept layers sit at other chain positions than their layer ids,
        # so the pass must stop by position, not by id
        model, samples = small_setup(dropout=0.2)
        config = dataclasses.replace(model.config, text_layers=3, dropped_text_layers=dropped)
        assert_inert_grads(init_model(config, Rng(6)), samples, inert)

    def test_soft_label_and_diagonal_paths_run(self):
        model, samples = small_setup()
        batch = synthetic_batch(samples, range(4), Rng(2))
        for cfg in (
            LossConfig(weights={"n_itc": 1.0}, soft_label=True),
            LossConfig(weights={"n_itc": 1.0}, diagonal_labels=True),
            LossConfig(weights={"ss_it": 1.0, "n_itc": 1.0}),
        ):
            value, grads, _ = loss_and_grads(model, batch, cfg, Rng(3))
            assert np.isfinite(value)
            assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_non_finite_loss_detected(self, monkeypatch):
        # normalized inputs keep every term finite, so force the combined
        # value non-finite to prove the wiring aborts
        from tbpslab import train as train_mod
        from tbpslab.losses import LossResult

        model, samples = small_setup()
        batch = synthetic_batch(samples, range(3), Rng(2))

        def broken_stack(config, terms):
            z = np.zeros((6, model.config.embed_dim))
            return LossResult(value=float("nan"), grad_image=z, grad_text=z)

        monkeypatch.setattr(train_mod.losses, "stack", broken_stack)
        with pytest.raises(NonFiniteLoss):
            loss_and_grads(model, batch, LossConfig(weights={"n_itc": 1.0}), Rng(3))

    def test_corrupt_weights_fail_loudly(self):
        # damage upstream of the loss is caught by input validation instead
        model, samples = small_setup()
        batch = synthetic_batch(samples, range(3), Rng(2))
        model.params["img.out.W"][:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises((NonFiniteLoss, ValueError)):
            loss_and_grads(model, batch, LossConfig(weights={"n_itc": 1.0}), Rng(3))


class TestTrainStep:
    def test_frozen_modules_keep_bytes(self):
        model, samples = small_setup()
        freeze(model, ["img.patch", "txt.embed"])
        before = {k: model.params[k].copy() for k in model.params}
        opt = AdamW()
        for i in range(5):
            batch = synthetic_batch(samples, range(4), Rng(10 + i))
            train_step(model, batch, LossConfig(weights={"n_itc": 1.0}), opt, 1e-2, Rng(i))
        for key in ("img.patch.W", "img.patch.b", "txt.embed.W"):
            assert np.array_equal(model.params[key], before[key]), key
        assert not np.array_equal(model.params["img.out.W"], before["img.out.W"])

    def test_each_view_contrast_is_computed_once_per_step(self, monkeypatch):
        # ss_i and ss_it both read the image "both" view; one ss_loss call
        # serves both, and one serves ss_it and ss_t on the text side
        model, samples = small_setup()
        batch = assemble_batch(samples, range(4), FULL_AUG, Rng(6))
        calls = []
        ss_loss = train.losses.ss_loss
        monkeypatch.setattr(train.losses, "ss_loss", lambda *a: calls.append(a) or ss_loss(*a))
        cfg = LossConfig(weights={"n_itc": 1.0, "ss_i": 0.3, "ss_it": 0.2, "ss_t": 0.1})
        _, _, terms = loss_and_grads(model, batch, cfg, Rng(3))
        assert len(calls) == 2
        assert terms["ss_it"] == terms["ss_i"] + terms["ss_t"]

    def test_tau_clamped(self):
        model, samples = small_setup()
        model.params["log_tau"] = np.array(np.log(0.0101))
        opt = AdamW()
        for i in range(60):
            batch = synthetic_batch(samples, range(4), Rng(i))
            stats = train_step(
                model, batch, LossConfig(weights={"n_itc": 1.0}), opt, 5e-2, Rng(i)
            )
            assert stats.tau >= 0.01 - 1e-12

    def test_deterministic(self):
        results = []
        for _ in range(2):
            model, samples = small_setup(dropout=0.1)
            opt = AdamW()
            for i in range(5):
                batch = synthetic_batch(samples, range(4), Rng(100 + i))
                train_step(model, batch, FULL_STACK, opt, 1e-2, Rng(i))
            results.append({k: v.copy() for k, v in model.params.items()})
        for k in results[0]:
            assert np.array_equal(results[0][k], results[1][k]), k


class TestFit:
    LOSS = LossConfig(weights={"n_itc": 1.0})

    def test_history_covers_schedule(self):
        ds = tiny_corpus(n_ids=6, images=2)
        model, _ = self._model_for(ds)
        tcfg = TrainConfig(epochs=2, batch_size=4, lr_peak=1e-3)
        out = fit(model, ds.train, self.LOSS, NO_AUG, tcfg, Rng(1))
        assert len(out.history) == out.schedule.total_steps
        assert out.history[0]["lr"] == pytest.approx(out.schedule.lr_at(0))
        assert all(np.isfinite(r["loss"]) for r in out.history)

    def test_partial_batch_rules(self):
        ds = tiny_corpus(n_ids=5, images=2)  # 10 train samples at most
        model, train_samples = self._model_for(ds)
        n = len(train_samples)
        tcfg = TrainConfig(epochs=1, batch_size=4)
        out = fit(model, train_samples, self.LOSS, NO_AUG, tcfg, Rng(1))
        full, rem = divmod(n, 4)
        expected = full + (1 if rem >= 2 else 0)
        assert len(out.history) == expected

    def test_deterministic_end_to_end(self):
        ds = tiny_corpus(n_ids=5, images=2)
        finals = []
        for _ in range(2):
            model, train_samples = self._model_for(ds)
            tcfg = TrainConfig(epochs=2, batch_size=4, lr_peak=1e-2)
            fit(model, train_samples, self.LOSS, FULL_AUG, tcfg, Rng(7))
            finals.append({k: v.copy() for k, v in model.params.items()})
        for k in finals[0]:
            assert np.array_equal(finals[0][k], finals[1][k]), k

    def test_loss_decreases(self):
        # median over seeds: late-window loss clearly below the early window
        drops = []
        for seed in (1, 2, 3, 4, 5):
            spec = ToySpec(n_identities=8, images_per_identity=2, captions_per_image=1)
            ds = generate_toy(spec, Rng(seed))
            model, train_samples = self._model_for(ds, seed=seed)
            # lr_peak must stay below the collapse regime (~1e-2 pins the
            # towers to identical embeddings and the loss to ln batch_size)
            tcfg = TrainConfig(epochs=25, batch_size=8, lr_peak=3e-3, lr_init=1e-4, lr_final=1e-3)
            out = fit(model, train_samples, self.LOSS, NO_AUG, tcfg, Rng(seed))
            losses = [r["loss"] for r in out.history]
            early = np.mean(losses[:5])
            late = np.mean(losses[-5:])
            drops.append(early - late)
        assert np.median(drops) > 0.3

    def test_on_step_called(self):
        ds = tiny_corpus(n_ids=4, images=2)
        model, train_samples = self._model_for(ds)
        rows = []
        tcfg = TrainConfig(epochs=1, batch_size=4)
        out = fit(model, train_samples, self.LOSS, NO_AUG, tcfg, Rng(1), on_step=rows.append)
        assert rows == out.history
        assert len(rows) >= 1

    def test_captions_tokenized_once_per_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(train, "tokenize", lambda text: calls.append(text) or text.split())
        ds = tiny_corpus(n_ids=4, images=2)
        model, train_samples = self._model_for(ds)
        fit(model, train_samples, self.LOSS, FULL_AUG, TrainConfig(epochs=3, batch_size=4), Rng(1))
        assert sorted(calls) == sorted(train_samples.captions)

    def test_corpus_with_off_grid_images_trains_and_evaluates(self):
        ds = tiny_corpus(n_ids=5, images=2)
        stored = ds.train.images[ds.train.image_of[:3]]
        for name in ("train", "test"):  # a float64 record among uint8 ones
            split = getattr(ds, name)
            setattr(ds, name, rebuilt(ds.spec, split, {0: pixels(split.images[0]) + 1e-4}))
        batch = assemble_batch(ds.train, range(3), NO_AUG, Rng(2))
        # the uint8 images of a mixed table are read as k/255, not as 0..255
        assert batch.images.dtype == np.float64
        assert batch.images[1:].tobytes() == pixels(stored[1:]).tobytes()
        model, train_samples = self._model_for(ds)
        loss = LossConfig(weights={"n_itc": 1.0, "ss_i": 0.3})  # the worker builds image views
        out = fit(model, train_samples, loss, FULL_AUG, TrainConfig(epochs=1, batch_size=4), Rng(1))
        assert all(np.isfinite(r["loss"]) for r in out.history)
        assert 0 <= evaluate_model(model, ds.test).rank1 <= 1

    def test_too_few_samples(self):
        ds = tiny_corpus()
        model, _ = self._model_for(ds)
        with pytest.raises(BatchTooSmall):
            fit(model, ds.train.take([0]), self.LOSS, NO_AUG, TrainConfig(), Rng(1))

    @staticmethod
    def _model_for(ds, seed=11):
        vocab = build_vocab(ds.train)
        cfg = ModelConfig(embed_dim=8, hidden_dim=16, image_layers=2, text_layers=2, vocab=vocab)
        return init_model(cfg, Rng(seed)), ds.train


class TestParameterAccounting:
    def test_step_touches_only_trainable(self):
        model, samples = small_setup()
        freeze(model, ["img.hidden.0"])
        n_trainable = parameter_count(model, trainable_only=True)
        n_total = parameter_count(model)
        h = model.config.hidden_dim
        assert n_total - n_trainable == h * h + h
        snapshot = clone_model(model)
        opt = AdamW()
        batch = synthetic_batch(samples, range(3), Rng(0))
        train_step(model, batch, LossConfig(weights={"n_itc": 1.0}), opt, 1e-2, Rng(0))
        assert np.array_equal(model.params["img.hidden.0.W"], snapshot.params["img.hidden.0.W"])


def preset_setup(preset, seed=3):
    """A float64 model of `preset` at the corpus raster, one 16-sample batch
    with the views its loss terms read, and its loss config."""
    exp = materialize(resolve(preset=preset, overrides=["data.n_identities=10"]))
    ds = build_dataset(exp)
    model = init_model(dataclasses.replace(exp.model, vocab=build_vocab(ds.train)), Rng(seed))
    freeze(model, exp.freeze_modules)
    batch = assemble_batch(ds.train, range(16), exp.augment, Rng(seed + 1), loss_cfg=exp.loss)
    return model, batch, exp.loss


def float_arrays(cache) -> list:
    """Every floating-point array an encoder cache holds, nested ones too."""
    found = []

    def visit(x):
        if isinstance(x, np.ndarray) and x.dtype.kind == "f":
            found.append(x)
        elif isinstance(x, (list, tuple)):
            for item in x:
                visit(item)

    for f in dataclasses.fields(cache):
        visit(getattr(cache, f.name))
    return found


class TestSharedImageView:
    """With image augmentation off, the image view is the stored image: one
    encode serves "orig" and "alt", and every byte is the one a distinct
    float64 copy of the view gives."""

    @pytest.mark.parametrize("term", ["ss_i", "mvs_i"])
    @pytest.mark.parametrize("copy", [True, False], ids=["float32-copy", "float64"])
    def test_equals_a_distinct_float64_view(self, term, copy, monkeypatch):
        exp = materialize(resolve(preset="clip-baseline", overrides=["data.n_identities=10"]))
        ds = build_dataset(exp)
        model = init_model(dataclasses.replace(exp.model, vocab=build_vocab(ds.train)), Rng(3))
        if copy:
            model = tower_copy(model)
        cfg = LossConfig(weights={"n_itc": 1.0, term: 0.5})
        shared = assemble_batch(ds.train, range(16), exp.augment, Rng(4), loss_cfg=cfg)
        assert exp.augment.image_mode == "none" and shared.images_aug is shared.images
        distinct = dataclasses.replace(shared, images_aug=pixels(shared.images))
        encoded = []
        real = train.encode_image
        monkeypatch.setattr(train, "encode_image", lambda m, images: encoded.append(images) or real(m, images))
        value, grads, terms = loss_and_grads(model, shared, cfg, Rng(9))
        assert len(encoded) == 1
        want_value, want_grads, want_terms = loss_and_grads(model, distinct, cfg, Rng(9))
        assert len(encoded) == 3
        assert value == want_value and terms == want_terms and set(terms) == {"n_itc", term}
        assert sorted(grads) == sorted(want_grads)
        for key, g in want_grads.items():
            assert grads[key].dtype == g.dtype and grads[key].tobytes() == g.tobytes(), key

    @pytest.mark.parametrize("mode, encodes", [("none", 1), ("pool", 2)])
    def test_image_encodes_per_step(self, mode, encodes, monkeypatch):
        calls = []
        real = train.encode_image
        monkeypatch.setattr(train, "encode_image", lambda m, images: calls.append(1) or real(m, images))
        ds = tiny_corpus(n_ids=4, images=2)
        model, samples = TestFit._model_for(ds)
        cfg = LossConfig(weights={"n_itc": 1.0, "mvs_i": 0.5})
        res = fit(model, samples, cfg, AugmentConfig(image_mode=mode), TrainConfig(epochs=2, batch_size=4), Rng(1))
        assert len(calls) == encodes * len(res.history)

    @pytest.mark.parametrize("copy", [True, False], ids=["float32-copy", "float64"])
    def test_two_backward_passes_leave_the_cache_unchanged(self, copy):
        # the two image views' backward passes share one cache
        model, batch, _ = preset_setup("clip-baseline")
        if copy:
            model = tower_copy(model)
        z, cache = encode_image(model, batch.images)
        before = [a.copy() for a in float_arrays(cache)]
        grads = {}
        backward_image(model, cache, z[:, ::-1].copy(), grads)
        backward_image(model, cache, z[::-1].copy(), grads)
        after = float_arrays(cache)
        assert len(after) == len(before) == 2 + 2 * model.config.image_layers + 2
        for a, b in zip(after, before, strict=True):
            assert a.tobytes() == b.tobytes()


class TestPrecision:
    """The towers compute in the dtype of the parameters they are given;
    training hands them a float32 copy and keeps float64 master weights."""

    @pytest.mark.parametrize("copy, dtype", [(True, np.float32), (False, np.float64)])
    def test_tower_arrays_follow_the_parameter_dtype(self, copy, dtype):
        model, batch, _ = preset_setup("tbps-clip")
        model.frozen.clear()  # every gradient path runs
        if copy:
            model = tower_copy(model)
        # the batch's images arrive as the corpus stores them, the worker's
        # views as float64; either enters the tower as its pixels in `dtype`
        assert batch.images.dtype == np.uint8
        assert pixels(batch.images).dtype == batch.images_aug.dtype == np.float64
        grads = {}
        caches = []
        for images in (batch.images, batch.images_aug):
            z, cache = encode_image(model, images)
            backward_image(model, cache, z[:, ::-1].copy(), grads)
            caches.append(cache)
        z, cache = encode_text(model, batch.tokens, train=True, rng=Rng(5))
        backward_text(model, cache, z[::-1].copy(), grads)
        caches.append(cache)
        assert z.dtype == np.float64  # the losses read float64 embeddings
        assert any(mask is not None for _, _, mask, _ in cache.acts)
        for cache in caches:
            assert {a.dtype for a in float_arrays(cache)} == {np.dtype(dtype)}, type(cache).__name__
        assert sorted(grads) == sorted(k for k in model.params if k != "log_tau")
        assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}

    @pytest.mark.parametrize("preset", ["clip-baseline", "tbps-clip"])
    def test_float32_copy_agrees_with_the_float64_model(self, preset):
        model, batch, loss_cfg = preset_setup(preset)
        assert model.config.dropout > 0 or preset == "clip-baseline"
        v64, g64, t64 = loss_and_grads(model, batch, loss_cfg, Rng(9))
        v32, g32, t32 = loss_and_grads(tower_copy(model), batch, loss_cfg, Rng(9))
        assert abs(v32 - v64) <= 1e-5 * abs(v64)
        assert t32 == pytest.approx(t64, rel=1e-5)
        assert sorted(g32) == sorted(g64)
        for key, g in g64.items():
            assert np.linalg.norm(g32[key] - g) <= 1e-3 * np.linalg.norm(g), key

    def test_fit_computes_in_float32_on_float64_master_weights(self, monkeypatch):
        made = []

        def recording_adamw(**kwargs):
            made.append(AdamW(**kwargs))
            return made[-1]

        real = train.loss_and_grads
        seen = set()

        def recording_loss_and_grads(model, *args):
            seen.update(v.dtype for k, v in model.params.items() if k != "log_tau")
            return real(model, *args)

        monkeypatch.setattr(train, "AdamW", recording_adamw)
        monkeypatch.setattr(train, "loss_and_grads", recording_loss_and_grads)
        ds = tiny_corpus(n_ids=4, images=2)
        model, samples = TestFit._model_for(ds)
        fit(model, samples, FULL_STACK, FULL_AUG, TrainConfig(epochs=2, batch_size=4), Rng(1))
        assert seen == {np.dtype(np.float32)}  # the towers computed in float32
        (opt,) = made
        assert opt.t > 0 and sorted(opt.m) == sorted(opt.v) == sorted(model.params)
        for table in (model.params, opt.m, opt.v):
            assert {v.dtype for v in table.values()} == {np.dtype(np.float64)}
