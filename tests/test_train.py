"""Training tests: schedule endpoints and shape, an optimizer reference
implementation, batch assembly determinism, a finite-difference check of
the fully stacked step gradient, freeze hygiene, and loop behavior."""

import dataclasses

import numpy as np
import pytest

from tbpslab import train
from tbpslab.augment import AugmentConfig
from tbpslab.data import ToySpec, build_vocab, generate_toy
from tbpslab.losses import LossConfig
from tbpslab.model import (
    ModelConfig,
    clone_model,
    freeze,
    init_model,
    parameter_count,
)
from tbpslab.numerics import Rng, check_param_grads
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
    train_step,
)

NO_AUG = AugmentConfig(image_mode="none", text_mode="none")

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
    from tbpslab.data import Sample

    samples = [Sample(image=images[i], caption=captions[i], identity=i % 4) for i in range(5)]
    vocab = build_vocab(samples)
    cfg = dataclasses.replace(SMALL_MODEL, vocab=vocab, dropout=dropout)
    model = init_model(cfg, Rng(seed + 1))
    return model, samples


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

    def test_log_tau_not_decayed(self):
        opt = AdamW(weight_decay=10.0)
        params = {"log_tau": np.array(0.5)}
        opt.step(params, {"log_tau": np.array(0.0)}, 0.1)
        # zero gradient and no decay: value must not move
        assert params["log_tau"] == pytest.approx(0.5, abs=1e-15)


class TestAssembleBatch:
    def test_shapes_and_ids(self, rng):
        ds = tiny_corpus()
        batch = assemble_batch(ds.train[:4], NO_AUG, rng)
        assert batch.images.shape == (4, 48, 24, 3)
        assert batch.images_aug.shape == (4, 48, 24, 3)
        assert len(batch.tokens) == len(batch.tokens_aug) == 4
        assert batch.ids.shape == (4,)

    def test_no_aug_views_identical(self, rng):
        ds = tiny_corpus()
        batch = assemble_batch(ds.train[:3], NO_AUG, rng)
        assert np.array_equal(batch.images, batch.images_aug)
        assert batch.tokens == batch.tokens_aug

    def test_production_aug_changes_views(self):
        ds = tiny_corpus()
        batch = assemble_batch(ds.train[:3], AugmentConfig(), Rng(9))
        assert not np.array_equal(batch.images, batch.images_aug)

    def test_deterministic(self):
        ds = tiny_corpus()
        a = assemble_batch(ds.train[:3], AugmentConfig(), Rng(42))
        b = assemble_batch(ds.train[:3], AugmentConfig(), Rng(42))
        assert np.array_equal(a.images_aug, b.images_aug)
        assert a.tokens_aug == b.tokens_aug

    def test_too_small(self, rng):
        ds = tiny_corpus()
        with pytest.raises(BatchTooSmall):
            assemble_batch(ds.train[:1], NO_AUG, rng)

    @pytest.mark.parametrize(
        "weights, want_img, want_txt",
        [
            ({"n_itc": 1.0}, False, False),
            ({"n_itc": 1.0, "ss_i": 0.3, "mvs_i": 0.3}, True, False),
            ({"n_itc": 1.0, "mvs_t": 0.3}, False, True),
            ({"n_itc": 1.0, "ss_it": 0.3, "mvs_i": 0.0}, True, True),
        ],
    )
    def test_builds_only_consumed_views(self, weights, want_img, want_txt):
        ds = tiny_corpus()
        full = assemble_batch(ds.train[:5], AugmentConfig(), Rng(4))
        part = assemble_batch(ds.train[:5], AugmentConfig(), Rng(4), loss_cfg=LossConfig(weights=weights))
        assert (part.images_aug is not None) == want_img
        assert (part.tokens_aug is not None) == want_txt
        if want_img:
            assert np.array_equal(part.images_aug, full.images_aug)
        if want_txt:
            assert part.tokens_aug == full.tokens_aug
        assert np.array_equal(part.images, full.images) and part.tokens == full.tokens

    def test_pretokenized_captions_used(self):
        ds = tiny_corpus()
        given = [["red", "shirt"], ["blue"], ["hat"], ["bag", "red"]]
        batch = assemble_batch(ds.train[:4], NO_AUG, Rng(8), tokens=given)
        assert batch.tokens == given == batch.tokens_aug


def synthetic_batch(samples, rng):
    return assemble_batch(samples, NO_AUG, rng)


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


class TestStepGradients:
    """Finite differences through the complete stacked objective, dropout
    masks held fixed by the step rng."""

    def test_full_stack_fd(self):
        model, samples = small_setup(dropout=0.2)
        batch = synthetic_batch(samples[:3], Rng(1))
        step_rng = Rng(77)

        value, grads, terms = loss_and_grads(model, batch, FULL_STACK, step_rng)
        assert set(terms) == set(FULL_STACK.weights)

        def loss():
            return loss_and_grads(model, batch, FULL_STACK, Rng(77))[0]

        assert check_param_grads(loss, model.params, grads) < 1e-4

    def test_soft_label_and_diagonal_paths_run(self):
        model, samples = small_setup()
        batch = synthetic_batch(samples[:4], Rng(2))
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
        batch = synthetic_batch(samples[:3], Rng(2))

        def broken_stack(config, terms):
            z = np.zeros((6, model.config.embed_dim))
            return LossResult(value=float("nan"), grad_image=z, grad_text=z)

        monkeypatch.setattr(train_mod.losses, "stack", broken_stack)
        with pytest.raises(NonFiniteLoss):
            loss_and_grads(model, batch, LossConfig(weights={"n_itc": 1.0}), Rng(3))

    def test_corrupt_weights_fail_loudly(self):
        # damage upstream of the loss is caught by input validation instead
        model, samples = small_setup()
        batch = synthetic_batch(samples[:3], Rng(2))
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
            batch = synthetic_batch(samples[:4], Rng(10 + i))
            train_step(model, batch, LossConfig(weights={"n_itc": 1.0}), opt, 1e-2, Rng(i))
        for key in ("img.patch.W", "img.patch.b", "txt.embed.W"):
            assert np.array_equal(model.params[key], before[key]), key
        assert not np.array_equal(model.params["img.out.W"], before["img.out.W"])

    def test_tau_clamped(self):
        model, samples = small_setup()
        model.params["log_tau"] = np.array(np.log(0.0101))
        opt = AdamW()
        for i in range(60):
            batch = synthetic_batch(samples[:4], Rng(i))
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
                batch = synthetic_batch(samples[:4], Rng(100 + i))
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
            fit(model, train_samples, self.LOSS, AugmentConfig(), tcfg, Rng(7))
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
        fit(model, train_samples, self.LOSS, AugmentConfig(), TrainConfig(epochs=3, batch_size=4), Rng(1))
        assert sorted(calls) == sorted(s.caption for s in train_samples)

    def test_too_few_samples(self):
        ds = tiny_corpus()
        model, _ = self._model_for(ds)
        with pytest.raises(BatchTooSmall):
            fit(model, ds.train[:1], self.LOSS, NO_AUG, TrainConfig(), Rng(1))

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
        batch = synthetic_batch(samples[:3], Rng(0))
        train_step(model, batch, LossConfig(weights={"n_itc": 1.0}), opt, 1e-2, Rng(0))
        assert np.array_equal(model.params["img.hidden.0.W"], snapshot.params["img.hidden.0.W"])
