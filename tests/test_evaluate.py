"""Retrieval metric tests: a loop-based reference implementation on random
problems, hand-computed cases, tie handling, and chance-level sanity."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import PINNING

from tbpslab import evaluate, experiments
from tbpslab.analyze import interpolate, reset_module
from tbpslab.config import materialize, resolve
from tbpslab.data import ToySpec, build_vocab, generate_toy
from tbpslab.evaluate import (
    EVAL_BLOCK,
    EmptyGallery,
    NoPositive,
    RetrievalReport,
    evaluate_model,
    rank1_rate,
    rank1_scorer,
    rank_gallery,
    retrieval_metrics,
    unique_images,
)
from tbpslab.model import (
    Model,
    ModelConfig,
    clone_model,
    encode_image,
    encode_text,
    image_chain,
    init_model,
    text_chain,
)
from tbpslab.numerics import Rng, ShapeMismatch


# evaluate_model's report of a 2-epoch clip-baseline run at seed 0 on a
# corpus rendered without noise, jitter or shift, recorded when the gallery
# was deduplicated by hashing each sample's pixels at evaluation time
NOISE_FREE_REPORT = {
    "rank1": 0.09583333333333334, "rank5": 0.23333333333333334, "rank10": 0.44583333333333336,
    "mAP": 0.2152661252235784, "mINP": 0.22814029503154426, "n_queries": 240, "n_gallery": 116,
}


def reference_metrics(sim, query_ids, gallery_ids):
    """Slow, obviously-correct reimplementation used as the oracle."""
    nq, ng = sim.shape
    r1 = r5 = r10 = ap = inp = 0.0
    for qi in range(nq):
        # stable descending sort via (negated score, index) pairs
        order = sorted(range(ng), key=lambda g: (-sim[qi, g], g))
        rel_ranks = [r + 1 for r, g in enumerate(order) if gallery_ids[g] == query_ids[qi]]
        assert rel_ranks
        r1 += rel_ranks[0] <= 1
        r5 += rel_ranks[0] <= 5
        r10 += rel_ranks[0] <= 10
        ap += np.mean([(i + 1) / r for i, r in enumerate(rel_ranks)])
        inp += len(rel_ranks) / rel_ranks[-1]
    return r1 / nq, r5 / nq, r10 / nq, ap / nq, inp / nq


class TestRankGallery:
    def test_descending(self):
        order = rank_gallery(np.array([0.1, 0.9, 0.5]))
        assert list(order) == [1, 2, 0]

    def test_ties_keep_gallery_order(self):
        order = rank_gallery(np.array([0.5, 0.9, 0.5, 0.9]))
        assert list(order) == [1, 3, 0, 2]

    def test_rejects_matrix(self):
        with pytest.raises(ShapeMismatch):
            rank_gallery(np.zeros((2, 2)))


class TestAgainstReference:
    def test_random_problems(self, rng):
        for trial in range(100):
            r = rng.child(trial)
            nq = int(r.integers(1, 13))
            ng = int(r.integers(2, 13))
            gallery_ids = r.integers(0, 4, size=ng)
            # each query takes an identity that exists in the gallery
            query_ids = gallery_ids[r.integers(0, ng, size=nq)]
            sim = r.normal(size=(nq, ng))
            if trial % 3 == 0:
                sim = np.round(sim, 1)  # force score ties
            rep = retrieval_metrics(sim, query_ids, gallery_ids)
            ref = reference_metrics(sim, query_ids, gallery_ids)
            got = (rep.rank1, rep.rank5, rep.rank10, rep.mean_ap, rep.mean_inp)
            assert np.allclose(got, ref, atol=1e-12), f"trial {trial}"


class TestHandCases:
    def test_positives_at_ranks_two_and_four(self):
        # gallery scores rank it [g0, g1, g2, g3, g4]; positives g1, g3
        sim = np.array([[0.9, 0.8, 0.7, 0.6, 0.5]])
        gallery_ids = np.array([9, 1, 9, 1, 9])
        rep = retrieval_metrics(sim, np.array([1]), gallery_ids)
        # AP = (1/2)(1/2 + 2/4), INP = 2/4
        assert rep.mean_ap == pytest.approx(0.5, abs=1e-12)
        assert rep.mean_inp == pytest.approx(0.5, abs=1e-12)
        assert rep.rank1 == 0.0
        assert rep.rank5 == 1.0

    def test_perfect_retrieval(self):
        sim = np.array([[0.9, 0.8, 0.1], [0.1, 0.2, 0.9]])
        gallery_ids = np.array([0, 0, 1])
        rep = retrieval_metrics(sim, np.array([0, 1]), gallery_ids)
        assert rep.rank1 == 1.0
        assert rep.mean_ap == pytest.approx(1.0, abs=1e-12)
        assert rep.mean_inp == pytest.approx(1.0, abs=1e-12)

    def test_single_positive_last(self):
        sim = np.array([[0.9, 0.8, 0.1]])
        rep = retrieval_metrics(sim, np.array([7]), np.array([0, 1, 7]))
        assert rep.rank1 == 0.0
        assert rep.mean_ap == pytest.approx(1 / 3, abs=1e-12)
        assert rep.mean_inp == pytest.approx(1 / 3, abs=1e-12)

    def test_small_gallery_rank10(self):
        sim = np.array([[0.5, 0.4]])
        rep = retrieval_metrics(sim, np.array([1]), np.array([0, 1]))
        assert rep.rank10 == 1.0  # k past the gallery end still counts hits


class TestErrors:
    def test_empty_gallery(self):
        with pytest.raises(EmptyGallery):
            retrieval_metrics(np.zeros((1, 0)), np.array([0]), np.array([]))

    def test_no_positive(self):
        sim = np.array([[0.5, 0.4]])
        with pytest.raises(NoPositive, match="identity 3"):
            retrieval_metrics(sim, np.array([3]), np.array([0, 1]))

    def test_nan_similarity_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            retrieval_metrics(np.array([[np.nan, 0.5]]), np.array([1]), np.array([0, 1]))

    def test_id_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            retrieval_metrics(np.zeros((2, 2)), np.array([0]), np.array([0, 0]))


class TestChanceLevel:
    def test_random_embeddings_score_at_chance(self):
        # 20-item gallery of distinct identities: chance Rank-1 is 1/20
        trials, nq, ng, d = 50, 40, 20, 8
        master = Rng(606)
        r1 = []
        for t in range(trials):
            r = master.child(t)
            q = r.normal(size=(nq, d))
            g = r.normal(size=(ng, d))
            q /= np.linalg.norm(q, axis=1, keepdims=True)
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            gallery_ids = np.arange(ng)
            query_ids = gallery_ids[r.integers(0, ng, size=nq)]
            rep = retrieval_metrics(q @ g.T, query_ids, gallery_ids)
            r1.append(rep.rank1)
        p = 1 / ng
        sigma = np.sqrt(p * (1 - p) / (trials * nq))
        assert abs(np.mean(r1) - p) < 3 * sigma


class TestGalleryAndModelEval:
    def test_unique_images_is_the_image_table(self):
        # which captions share an image is decided where the split is built
        # (tests/test_data.py); the gallery of a split as built is its table
        ds = generate_toy(ToySpec(n_identities=6, images_per_identity=2, captions_per_image=2), Rng(4))
        for split in (ds.train, ds.val, ds.test):
            gallery, ids = unique_images(split)
            assert gallery.tobytes() == split.images.tobytes() and gallery.dtype == split.images.dtype
            assert ids.tolist() == split.image_ids.tolist()

    def test_unique_images_of_a_taken_split(self):
        # the rows the captions reference, once each, in first-occurrence order
        ds = generate_toy(ToySpec(n_identities=6, images_per_identity=2, captions_per_image=2), Rng(4))
        part = ds.train.take([5, 0, 4, 1, 5])
        assert part.image_of.tolist() == [2, 0, 2, 0, 2]
        gallery, ids = unique_images(part)
        assert gallery.tobytes() == ds.train.images[[2, 0]].tobytes()
        assert ids.tolist() == ds.train.image_ids[[2, 0]].tolist()

    def test_unique_images_empty(self):
        ds = generate_toy(ToySpec(n_identities=3, images_per_identity=1), Rng(4))
        with pytest.raises(EmptyGallery):
            unique_images(ds.train.take([]))

    def test_gallery_holds_each_distinct_render_once(self):
        # with noise, jitter and shift off, an identity's renders differ only
        # in the background shade, and 4 of the 120 test renders repeat one
        # of the same identity: the gallery holds 116 images. The report was
        # recorded when the gallery was deduplicated at evaluation time.
        exp = materialize(resolve(preset="clip-baseline", overrides=[
            "data.pixel_noise=0", "data.color_jitter=0", "data.max_shift=0", "train.epochs=2",
        ]))
        run = experiments.run_training(exp)
        test = run.dataset.test
        assert len(test) == 240 and len(unique_images(test)[0]) == 116
        assert run.report.as_dict() == NOISE_FREE_REPORT

    def test_untrained_model_runs(self):
        ds = generate_toy(ToySpec(n_identities=8, images_per_identity=2), Rng(4))
        split = ds.train
        from tbpslab.data import build_vocab

        cfg = ModelConfig(vocab=build_vocab(split), hidden_dim=16, embed_dim=8)
        model = init_model(cfg, Rng(9))
        rep = evaluate_model(model, split)
        assert isinstance(rep, RetrievalReport)
        assert 0 <= rep.rank1 <= rep.rank5 <= rep.rank10 <= 1
        assert 0 <= rep.mean_ap <= 1
        assert 0 <= rep.mean_inp <= 1
        assert rep.n_queries == len(split)

    def test_report_lines_mention_conventions(self):
        rep = RetrievalReport(1, 1, 1, 1, 1, 4, 4)
        text = "\n".join(rep.lines())
        assert "mINP" in text and "stable ties" in text


# evaluate_model's report of the default clip-baseline run at seed 0,
# recorded when each tower encoded a whole split in one call
CLIP_BASELINE_SEED0_REPORT = {
    "rank1": 0.9416666666666667, "rank5": 0.975, "rank10": 1.0,
    "mAP": 0.9190053580678575, "mINP": 0.8718108974358975, "n_queries": 240, "n_gallery": 120,
}


def default_test_setup(seed=0):
    """The default clip-baseline corpus and a float64 model of that config
    at its initialization."""
    exp = materialize(resolve(preset="clip-baseline", overrides=[f"seed={seed}"]))
    ds = experiments.build_dataset(exp)
    return ds, init_model(replace(exp.model, vocab=build_vocab(ds.train)), Rng(seed).named("init"))


class TestBlockedEvaluation:
    """evaluate_model encodes EVAL_BLOCK rows per call. That keeps the bytes
    of one call only while a row's GEMM result does not depend on the other
    rows of its call; a BLAS whose kernels do fails here."""

    @pytest.mark.parametrize("split", ["test", "val", "train", "smaller-than-a-block"])
    def test_blocks_equal_one_call_for_both_towers(self, split):
        ds, model = default_test_setup(seed=3)
        part = ds.test.take(range(EVAL_BLOCK // 4)) if split == "smaller-than-a-block" else ds.split(split)
        (gallery, _), tokens = evaluate.unique_images(part), part.tokens
        assert len(tokens) % EVAL_BLOCK and len(gallery) % EVAL_BLOCK  # a short last block on each side
        for encode, items in ((encode_image, gallery), (encode_text, tokens)):
            whole = encode(model, items)[0]
            blocked = evaluate._embed_blocks(encode, model, items)
            assert blocked.dtype == whole.dtype == np.float64
            assert blocked.tobytes() == whole.tobytes(), (split, encode.__name__)

    def test_one_encode_call_per_block(self, monkeypatch):
        ds, model = default_test_setup()
        calls = []
        for name in ("encode_image", "encode_text"):
            original = getattr(evaluate, name)

            def spy(model, items, _name=name, _original=original):
                calls.append((_name, len(items)))
                return _original(model, items)

            monkeypatch.setattr(evaluate, name, spy)
        evaluate_model(model, ds.test)
        assert calls == [
            *(("encode_image", EVAL_BLOCK),) * 3, ("encode_image", 24),
            *(("encode_text", EVAL_BLOCK),) * 7, ("encode_text", 16),
        ]

    def test_report_of_the_default_clip_baseline_run_at_seed_0(self):
        exp = materialize(resolve(preset="clip-baseline"))
        run = experiments.run_training(exp)
        assert run.report.as_dict() == CLIP_BASELINE_SEED0_REPORT

    def test_traced_peak_stays_below_4_mb(self):
        # one call per tower peaked at 9.05 MB on this split: float64 patches
        # and the activations of all 120 images at once
        ds, model = default_test_setup()
        evaluate_model(model, ds.test)  # lazy imports and first-call set-up
        tracemalloc.start()
        try:
            evaluate_model(model, ds.test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MB"


class TestRank1Rate:
    @staticmethod
    def per_query_rank1(sim, query_ids, gallery_ids):
        """The per-query rule `retrieval_metrics` used before: the first
        item of a stable descending sort decides the hit."""
        hits = sum(int(gallery_ids[rank_gallery(row)[0]] == q) for row, q in zip(sim, query_ids))
        return hits / len(query_ids)

    def test_signed_zeros_tie(self):
        sim = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
        gallery_ids = np.array([0, 1])
        for query_ids in (np.array([0, 0, 0]), np.array([1, 1, 1])):
            got = rank1_rate(sim, query_ids, gallery_ids)
            assert got == self.per_query_rank1(sim, query_ids, gallery_ids)
        assert rank1_rate(sim, np.array([0, 0, 0]), gallery_ids) == 1.0

    def test_matrices_full_of_ties(self, rng):
        for trial in range(200):
            r = rng.child(trial)
            nq, ng = int(r.integers(1, 9)), int(r.integers(2, 9))
            gallery_ids = r.integers(0, 3, size=ng)
            query_ids = gallery_ids[r.integers(0, ng, size=nq)]
            sim = r.integers(-2, 3, size=(nq, ng)) / 2.0
            sim[r.random(size=sim.shape) < 0.5] *= -1.0  # signed zeros among the ties
            sim[int(r.integers(0, nq))] = sim[0, 0]  # a constant row
            sim[:, int(r.integers(0, ng))] = sim[:, int(r.integers(0, ng))]  # duplicated column
            got = rank1_rate(sim, query_ids, gallery_ids)
            assert got == self.per_query_rank1(sim, query_ids, gallery_ids), f"trial {trial}"
            assert got == retrieval_metrics(sim, query_ids, gallery_ids).rank1


def _one_ulp(model, key):
    out = clone_model(model)
    out.params[key].flat[0] = np.nextafter(out.params[key].flat[0], np.inf)
    return out


def _probe_models(run):
    """(name, model, where the scorer starts each tower it recomputes) for
    every probe kind the scorer distinguishes: tower -> the first module
    it runs, or "encode" for a full encode; an unchanged tower is absent."""
    init, trained = run.model_init, run.model
    probes = [("trained", trained, {})]
    for m in trained.module_names():
        starts = {} if m == "log_tau" else {m.split(".")[0]: m}
        probes.append((f"reset-{m}", reset_module(trained, init, m), starts))
    probes.append(
        ("interpolated-img", interpolate(init, trained, "img.hidden.1", 0.37), {"img": "img.hidden.1"})
    )
    probes.append(("interpolated-txt", interpolate(init, trained, "txt.embed", 0.62), {"txt": "txt.embed"}))
    probes.append(("ulp-img", _one_ulp(trained, "img.out.b"), {"img": "img.out"}))
    probes.append(("ulp-txt", _one_ulp(trained, "txt.hidden.2.W"), {"txt": "txt.hidden.2"}))
    other = Model(
        config=replace(trained.config, dropped_text_layers=(1,)),
        params={k: v.copy() for k, v in trained.params.items()},
    )
    probes.append(("dropped-text-layer", other, {"img": "encode", "txt": "encode"}))
    return probes


def _layers(cache):
    return [cache.first, *(act for *_, act in cache.acts), cache.raw_out]


def _spy_scorer(monkeypatch) -> list:
    """Wrap the encoders and continuations the scorer calls. The returned
    list gets (tower, first module run) per continuation and (tower,
    "encode") per full encode. A continuation must hand back the very
    cached output of every module below its start and a new one from its
    start on: the layers below are reused, the others recomputed."""
    started = []
    for tower, name in (("img", "encode_image"), ("txt", "encode_text")):
        original = getattr(evaluate, name)

        def encoding(*args, _tower=tower, _original=original, **kwargs):
            started.append((_tower, "encode"))
            return _original(*args, **kwargs)

        monkeypatch.setattr(evaluate, name, encoding)
    for tower, name, chain in (("img", "image_from", image_chain), ("txt", "text_from", text_chain)):
        original = getattr(evaluate, name)

        def continuing(model, cache, start=0, _tower=tower, _original=original, _chain=chain):
            z, out = _original(model, cache, start)
            for at, (before, after) in enumerate(zip(_layers(cache), _layers(out), strict=True)):
                assert (after is before) == (at < start), (_tower, at, start)
            started.append((_tower, _chain(model.config)[start]))
            return z, out

        monkeypatch.setattr(evaluate, name, continuing)
    return started


class TestRank1Scorer:
    def test_equals_evaluate_model_and_encodes_only_changed_towers(self, pinning_run, monkeypatch):
        run = pinning_run
        val = run.dataset.val
        score = rank1_scorer(run.model, val)
        started = _spy_scorer(monkeypatch)
        rank1s = set()
        for name, model, starts in _probe_models(run):
            started.clear()
            got = score(model)
            assert sorted(started) == sorted(starts.items()), name
            assert got == evaluate_model(model, val).rank1, name
            rank1s.add(got)
        assert len(rank1s) > 2  # the probes do move the metric

    @pytest.mark.parametrize(
        "overrides",
        [[], ["model.dropped_text_layers=[1]"], ["freeze_modules=[img.patch,txt.hidden.1]"]],
        ids=["default", "dropped-text-layer", "frozen-modules"],
    )
    def test_layer_cache_equals_evaluate_model_for_every_module(self, overrides, monkeypatch):
        exp = materialize(resolve(preset="clip-baseline", overrides=PINNING + overrides))
        run = experiments.run_training(exp)
        init, trained, val = run.model_init, run.model, run.dataset.val
        score = rank1_scorer(trained, val)
        started = _spy_scorer(monkeypatch)
        chains = image_chain(trained.config) + text_chain(trained.config)
        unchanged = 0
        for m in trained.module_names():
            probes = [reset_module(trained, init, m)]
            probes += [interpolate(init, trained, m, alpha) for alpha in (0.05, 0.37, 0.95)]
            for probe in probes:
                started.clear()
                got = score(probe)
                keys = trained.module_keys(m)
                changed = not all(np.array_equal(probe.params[k], trained.params[k]) for k in keys)
                want = [(m.split(".")[0], m)] if changed and m in chains else []
                assert started == want, (m, started)
                assert got == evaluate_model(probe, val).rank1, m
                unchanged += not want
        # log_tau always, plus a frozen module's reset and a dropped layer's probes
        assert unchanged > 4 if overrides else unchanged == 4

    def test_rejects_a_query_without_a_positive(self, pinning_run):
        # a split built by hand, whose last caption's identity is not its image's
        val = pinning_run.dataset.val
        orphan = replace(
            val, captions=(*val.captions, val.captions[0]), image_of=np.append(val.image_of, val.image_of[0]),
            ids=np.append(val.ids, -1),
        )
        with pytest.raises(NoPositive, match="identity -1"):
            rank1_scorer(pinning_run.model, orphan)
