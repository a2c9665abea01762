"""Acceptance gate: one test per promised behavior, at the stated tolerance.

Training-based criteria share a session-level cache of run results so a
configuration is never trained twice. Every test finishes by printing one
PASS line with the measured numbers; a failed assertion is the FAIL line.
"""

import os
import statistics
import time

import numpy as np
import pytest

from conftest import scan_c2
from gradcheck import check_against_raw
from tbpslab import experiments, losses
from tbpslab.analyze import c1_scores, c2_score
from tbpslab.augment import (
    PRODUCTION_IMAGE_POOL,
    pool_select,
    random_deletion,
    sample_crop_geometry,
    sample_erase_geometry,
)
from tbpslab.cli import main as cli_main
from tbpslab.config import materialize, resolve
from tbpslab.evaluate import evaluate_model, retrieval_metrics
from tbpslab.losses import LossConfig, build_labels, make_view_pairing
from tbpslab.numerics import Rng
from tbpslab.train import Schedule

RUN_BUDGET_SECONDS = 300.0  # per training run
POINT = 0.01  # one Rank-1 "point" in [0, 1] units


# ---------------------------------------------------------------------------
# shared training cache


def _budgeted_run(preset: str, seed: int, extra=()):
    """Train one config, held to the per-run time budget; the default
    recipe is the largest configuration trained here."""
    exp = materialize(resolve(preset=preset, overrides=[f"seed={seed}", *extra]))
    started = time.monotonic()
    run = experiments.run_training(exp)
    elapsed = time.monotonic() - started
    assert elapsed < RUN_BUDGET_SECONDS, f"{(preset, seed, tuple(extra))} took {elapsed:.0f}s"
    return run


@pytest.fixture(scope="session")
def reference_run():
    """The default-recipe seed-0 run, with models and corpus retained."""
    return _budgeted_run("tbps-clip", 0)


@pytest.fixture(scope="session")
def rank1_of(reference_run):
    """rank1_of(preset, seed, extra...) -> (Rank-1, gallery size), trained once.

    The default recipe at seed 0 is `reference_run`, not a second run."""
    cache = {("tbps-clip", 0, ()): reference_run.report}

    def get(preset: str, seed: int, extra=()):
        key = (preset, seed, tuple(extra))
        if key not in cache:
            cache[key] = _budgeted_run(preset, seed, extra).report
        return cache[key].rank1, cache[key].n_gallery

    return get


def _median_rank1(rank1_of, preset, extra=()):
    return statistics.median(rank1_of(preset, s, extra)[0] for s in range(5))


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient suite


def _random_problem(rng: Rng):
    n = int(rng.integers(3, 9))
    d = int(rng.integers(4, 13))
    ids = rng.integers(0, n, size=n)  # collisions allowed: multi-positive rows
    mats = {
        "img": rng.normal(size=(n, d)),
        "img_alt": rng.normal(size=(n, d)),
        "txt": rng.normal(size=(n, d)),
        "txt_alt": rng.normal(size=(n, d)),
    }
    log_tau = float(np.log(rng.uniform(0.03, 0.3)))
    return ids, mats, log_tau


def _single_term_checks(ids, mats, log_tau):
    """FD-check each loss family on its own inputs. Yields (name, err)."""
    labels = build_labels(ids, ids)
    n = len(ids)

    def pair_loss(fn, needs_tau=True):
        def loss(norm, tau):
            img, txt = norm["img"], norm["txt"]
            res = fn(img, txt, labels, tau) if needs_tau else fn(img, txt)
            return res.value, {"img": res.grad_image, "txt": res.grad_text}, res.grad_log_tau

        return loss

    two = {"img": mats["img"], "txt": mats["txt"]}
    yield "n_itc", check_against_raw(pair_loss(losses.n_itc), two, log_tau)
    yield "r_itc", check_against_raw(pair_loss(losses.r_itc), two, log_tau)
    yield "c_itc", check_against_raw(pair_loss(losses.c_itc, needs_tau=False), two)

    pairing = make_view_pairing(n)

    def ss(norm, tau):
        res = losses.ss_loss(np.vstack([norm["a"], norm["b"]]), pairing)
        return res.value, {"a": res.grad_image[:n], "b": res.grad_image[n:]}, 0.0

    yield "ss", check_against_raw(ss, {"a": mats["img"], "b": mats["img_alt"]})

    for name, img_key, txt_key in (
        ("mvs_i", "img_alt", "txt"),
        ("mvs_t", "img", "txt_alt"),
        ("mvs_it", "img_alt", "txt_alt"),
    ):
        def mvs(norm, tau, name=name, ik=img_key, tk=txt_key):
            # hand the term exactly the two views it reads; the rest stay None
            args = {"img": None, "img_alt": None, "txt": None, "txt_alt": None}
            args[ik] = norm[ik]
            args[tk] = norm[tk]
            res = losses.mvs_terms(
                args["img"], args["img_alt"], args["txt"], args["txt_alt"],
                labels, tau, wanted=(name,),
            )[name]
            return res.value, {ik: res.grad_image, tk: res.grad_text}, res.grad_log_tau

        yield name, check_against_raw(mvs, {img_key: mats[img_key], txt_key: mats[txt_key]}, log_tau)


STACK_WEIGHTS = {
    "n_itc": 1.0, "ss_i": 0.35, "ss_t": 0.3, "mvs_i": 0.45,
    "mvs_t": 0.25, "mvs_it": 0.25, "r_itc": 0.7, "c_itc": 0.1,
}


def _stacked_loss(ids):
    """The full weighted stack as a function of four raw feature mats."""
    n = len(ids)
    labels = build_labels(ids, ids)
    pairing = make_view_pairing(n)
    config = LossConfig(weights=dict(STACK_WEIGHTS))

    def loss(norm, tau):
        def ss_of(a_key, b_key):
            return losses.ss_loss(np.vstack([norm[a_key], norm[b_key]]), pairing)

        img, img_alt, txt, txt_alt = norm["img"], norm["img_alt"], norm["txt"], norm["txt_alt"]
        terms = {
            "n_itc": losses.n_itc(img, txt, labels, tau),
            "r_itc": losses.r_itc(img, txt, labels, tau),
            "c_itc": losses.c_itc(img, txt),
            "ss_i": ss_of("img", "img_alt"),
            "ss_t": ss_of("txt", "txt_alt"),
        }
        terms.update(losses.mvs_terms(img, img_alt, txt, txt_alt, labels, tau))

        # lift each term onto canonical (2N, d) blocks over [original; alternate]
        # rows, the same convention the trainer uses, then stack
        d = norm["img"].shape[1]
        routes = {
            "n_itc": (slice(0, n), slice(0, n)), "r_itc": (slice(0, n), slice(0, n)),
            "c_itc": (slice(0, n), slice(0, n)), "mvs_i": (slice(n, 2 * n), slice(0, n)),
            "mvs_t": (slice(0, n), slice(n, 2 * n)), "mvs_it": (slice(n, 2 * n), slice(n, 2 * n)),
        }
        lifted = {}
        for name, res in terms.items():
            gi = np.zeros((2 * n, d))
            gt = np.zeros((2 * n, d))
            if name in routes:
                img_rows, txt_rows = routes[name]
                gi[img_rows] = res.grad_image
                gt[txt_rows] = res.grad_text
            elif name == "ss_i":
                gi[:] = res.grad_image
            else:  # ss_t: the view gradient belongs to the text block
                gt[:] = res.grad_image
            lifted[name] = losses.LossResult(res.value, gi, gt, res.grad_log_tau)
        stacked = losses.stack(config, lifted)

        grads = {
            "img": stacked.grad_image[:n], "img_alt": stacked.grad_image[n:],
            "txt": stacked.grad_text[:n], "txt_alt": stacked.grad_text[n:],
        }
        return stacked.value, grads, stacked.grad_log_tau

    return loss


def test_criterion_1_gradient_suite():
    rng = Rng(20260819).named("acceptance-grad")
    started = time.monotonic()
    n_configs = 20
    worst: dict = {}
    for _ in range(n_configs):
        ids, mats, log_tau = _random_problem(rng)
        for name, err in _single_term_checks(ids, mats, log_tau):
            worst[name] = max(worst.get(name, 0.0), err)
        err = check_against_raw(_stacked_loss(ids), mats, log_tau)
        worst["stacked"] = max(worst.get("stacked", 0.0), err)
    elapsed = time.monotonic() - started
    assert set(worst) == {"n_itc", "r_itc", "c_itc", "ss", "mvs_i", "mvs_t", "mvs_it", "stacked"}
    for name, err in worst.items():
        assert err < 1e-4, f"{name}: max relative error {err:.2e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(
        f"criterion 1 PASS: {n_configs} random configs, worst relative error "
        f"{max(worst.values()):.2e} < 1e-4, {elapsed:.1f}s < 60s"
    )


# ---------------------------------------------------------------------------
# criterion 2: closed-form loss values


def test_criterion_2_closed_forms():
    rng = Rng(20260819).named("acceptance-closed")
    n = 6
    ids = np.arange(n)

    def repeated_row(d=8):
        v = rng.normal(size=d)
        return np.tile(v / np.linalg.norm(v), (n, 1))

    # all-identical embeddings give uniform predictions: n_itc = ln N
    img = repeated_row()
    txt = repeated_row()
    labels = build_labels(ids, ids)
    v_uniform = losses.n_itc(img, txt, labels, 0.07).value
    assert abs(v_uniform - np.log(n)) < 1e-9

    # uniform labels equal to the uniform predictions: r_itc = 0
    all_same = build_labels(np.zeros(n, dtype=int), np.zeros(n, dtype=int))
    v_matched = losses.r_itc(img, txt, all_same, 0.07).value
    assert abs(v_matched) < 1e-6

    # identical modalities: both cyclic gaps vanish exactly
    feats = Rng(3).normal(size=(n, 8))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    v_sym = losses.c_itc(feats, feats.copy()).value
    assert abs(v_sym) <= 1e-12

    # all 2N view rows identical: every candidate ties, ss = log(2N - 1)
    row = rng.normal(size=8)
    row /= np.linalg.norm(row)
    views = np.tile(row, (2 * n, 1))
    v_ss = losses.ss_loss(views, make_view_pairing(n)).value
    assert abs(v_ss - np.log(2 * n - 1)) < 1e-6

    print(
        "criterion 2 PASS: n_itc uniform = ln N (1e-9), r_itc matched = 0 (1e-6), "
        "c_itc symmetric = 0, ss identical rows = log(2N-1) (1e-6)"
    )


# ---------------------------------------------------------------------------
# criterion 3: retrieval metric oracles


def _oracle_metrics(sim, query_ids, gallery_ids):
    """Definitional re-implementation: explicit stable sort, loops only."""
    n_q, n_g = sim.shape
    r1 = r5 = r10 = 0
    ap_total = inp_total = 0.0
    for qi in range(n_q):
        order = sorted(range(n_g), key=lambda j: (-sim[qi, j], j))
        relevant_ranks = [
            rank for rank, j in enumerate(order, start=1) if gallery_ids[j] == query_ids[qi]
        ]
        first = relevant_ranks[0]
        r1 += first <= 1
        r5 += first <= 5
        r10 += first <= 10
        precisions = [k / rank for k, rank in enumerate(relevant_ranks, start=1)]
        ap_total += sum(precisions) / len(precisions)
        inp_total += len(relevant_ranks) / relevant_ranks[-1]
    return (r1 / n_q, r5 / n_q, r10 / n_q, ap_total / n_q, inp_total / n_q)


def test_criterion_3_metric_oracles():
    rng = Rng(20260819).named("acceptance-metrics")
    for trial in range(100):
        n_q = int(rng.integers(1, 13))
        n_g = int(rng.integers(2, 13))
        gallery_ids = rng.integers(0, max(2, n_g // 2), size=n_g)
        query_ids = gallery_ids[rng.integers(0, n_g, size=n_q)]  # every query has a hit
        sim = rng.normal(size=(n_q, n_g))
        if trial % 3 == 0:
            sim = np.round(sim, 1)  # force score ties
        rep = retrieval_metrics(sim, query_ids, gallery_ids)
        got = (rep.rank1, rep.rank5, rep.rank10, rep.mean_ap, rep.mean_inp)
        want = _oracle_metrics(sim, query_ids, gallery_ids)
        assert got == want, f"trial {trial}: {got} != {want}"

    # hand case: positives at ranks 2 and 4 -> AP = (1/2 + 2/4)/2 = 0.5, INP = 2/4
    sim = np.array([[0.9, 0.8, 0.7, 0.6, 0.5]])
    rep = retrieval_metrics(sim, np.array([1]), np.array([0, 1, 0, 1, 0]))
    assert rep.mean_ap == 0.5 and rep.mean_inp == 0.5
    print(
        "criterion 3 PASS: 100 random problems match the definitional oracle exactly; "
        "hand case AP=0.5, INP=0.5"
    )


# ---------------------------------------------------------------------------
# criterion 4: augmentation statistics


def test_criterion_4_augmentation_statistics():
    rng = Rng(20260819).named("acceptance-aug")
    h, w = 48, 24
    draws = 10_000

    areas = []
    erase_rng = rng.named("erase")
    for i in range(draws):
        geom = sample_erase_geometry(h, w, erase_rng.child(i))
        if geom is not None:
            _, _, eh, ew = geom
            areas.append(eh * ew / (h * w))
    areas = np.array(areas)
    assert len(areas) > 0.9 * draws  # the sampler rarely gives up
    assert areas.min() >= 0.10 and areas.max() <= 0.20
    assert areas.min() < 0.11 and areas.max() > 0.19  # both ends reached

    scales = []
    crop_rng = rng.named("crop")
    for i in range(draws):
        _, _, ch, cw = sample_crop_geometry(h, w, crop_rng.child(i))
        scales.append(ch * cw / (h * w))
    scales = np.array(scales)
    assert scales.min() >= 0.9 - 1e-12 and scales.max() <= 1.0 + 1e-12

    tokens = [f"w{i}" for i in range(20)]
    del_rng = rng.named("deletion")
    deleted = total = 0
    for i in range(draws):
        out = random_deletion(tokens, del_rng.child(i), alpha=0.05)
        deleted += len(tokens) - len(out)
        total += len(tokens)
    rate = deleted / total
    assert abs(rate - 0.05) <= 0.005, f"deletion rate {rate:.4f}"

    pool_rng = rng.named("pool")
    counts = {name: 0 for name in PRODUCTION_IMAGE_POOL}
    for i in range(draws):
        for name in pool_select(PRODUCTION_IMAGE_POOL, pool_rng.child(i), k=2):
            counts[name] += 1
    freqs = {name: c / draws for name, c in counts.items()}
    for name, freq in freqs.items():
        assert abs(freq - 2 / 6) <= 0.01, f"{name} selected at {freq:.4f}"

    print(
        f"criterion 4 PASS: erase area in [{areas.min():.3f}, {areas.max():.3f}] within [0.10, 0.20]; "
        f"crop scale in [{scales.min():.3f}, {scales.max():.3f}] within [0.9, 1.0]; "
        f"deletion rate {rate:.4f} = 0.05 +/- 0.005; pool frequencies 2/6 +/- 0.01"
    )


# ---------------------------------------------------------------------------
# criterion 5: schedule endpoints


def test_criterion_5_schedule_endpoints():
    sched = Schedule(total_steps=1000)
    assert abs(sched.lr_at(0) - 1e-6) < 1e-12
    assert abs(sched.lr_at(sched.warmup_steps) - 1e-4) < 1e-12
    assert abs(sched.lr_at(1000) - 5e-6) < 1e-12
    print("criterion 5 PASS: lr(0)=1e-6, lr(warmup)=1e-4, lr(end)=5e-6, all within 1e-12")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end toy training


def test_criterion_6_end_to_end_training(rank1_of):
    rank1s = []
    for seed in range(5):
        r1, n_gallery = rank1_of("tbps-clip", seed)
        rank1s.append(r1)
    exp = materialize(resolve(preset="tbps-clip"))
    chance = exp.data.images_per_identity / n_gallery  # relevant / gallery size
    median = statistics.median(rank1s)
    assert median >= 10 * chance, f"median {median:.3f} < 10x chance {10 * chance:.3f}"
    assert median >= 0.60, f"median {median:.3f} < 0.60"
    print(
        f"criterion 6 PASS: median Rank-1 {median:.3f} over 5 seeds "
        f">= 0.60 and >= 10x chance ({chance:.3f}); each run < {RUN_BUDGET_SECONDS:.0f}s"
    )


# ---------------------------------------------------------------------------
# criterion 7: qualitative trends


NO_AUG = ("augment.image_mode=none", "augment.text_mode=none")


def test_criterion_7a_augmentation_trend(rank1_of):
    with_aug = _median_rank1(rank1_of, "tbps-clip")
    without = _median_rank1(rank1_of, "tbps-clip", NO_AUG)
    assert with_aug >= without - POINT, f"aug {with_aug:.3f} vs none {without:.3f}"
    print(
        f"criterion 7a PASS: augmentation pool Rank-1 {with_aug:.3f} >= "
        f"no-augmentation {without:.3f} - 1 point (medians over 5 seeds)"
    )


def test_criterion_7b_loss_trend(rank1_of):
    simplified = _median_rank1(rank1_of, "simplified")
    plain = _median_rank1(rank1_of, "nitc")
    assert simplified >= plain - POINT, f"simplified {simplified:.3f} vs nitc {plain:.3f}"
    print(
        f"criterion 7b PASS: simplified recipe Rank-1 {simplified:.3f} >= "
        f"plain identity-contrastive {plain:.3f} - 1 point (medians over 5 seeds)"
    )


# ---------------------------------------------------------------------------
# criterion 8: compression analytics


def test_criterion_8_compression(reference_run):
    run = reference_run
    init, trained = run.model_init, run.model
    modules = ["txt.hidden.0", "txt.hidden.1", "txt.hidden.2"]

    # C1 normalization: metric drops monotonically in how far a reset moves
    # the weights, so scores must rank modules by distance-from-init
    def distance_eval(model):
        d = sum(
            float(np.abs(trained.params[k] - model.params[k]).sum()) for k in trained.params
        )
        return 1.0 / (1.0 + d)

    c1 = c1_scores(init, trained, modules, distance_eval)
    assert not c1.degenerate
    assert max(c1.scores.values()) == 1.0  # normalized to the worst offender
    assert all(0.0 <= s <= 1.0 for s in c1.scores.values())
    dists = {
        m: sum(float(np.abs(trained.params[k] - init.params[k]).sum()) for k in trained.module_keys(m))
        for m in modules
    }
    assert max(c1.scores, key=c1.scores.get) == max(dists, key=dists.get)

    # C2 oracle: linear recovery with the threshold strictly between grid
    # points, so the minimal qualifying alpha is exactly 0.85
    probe = "txt.hidden.1"
    keys = list(trained.module_keys(probe))
    full = sum(float(np.abs(trained.params[k] - init.params[k]).sum()) for k in keys)

    def recovery_eval(model):
        diff = sum(float(np.abs(trained.params[k] - model.params[k]).sum()) for k in keys)
        return 1.0 - 0.2 * diff / full

    scan = scan_c2(init, trained, probe, recovery_eval, eps=0.0305, baseline=1.0)
    refine = c2_score(init, trained, probe, recovery_eval, eps=0.0305, baseline=1.0)
    assert scan == 0.85
    assert refine == scan

    # C2 endpoints: a module that only works fully trained, and one that
    # never mattered
    def exact_only(model):
        same = all(np.array_equal(model.params[k], trained.params[k]) for k in keys)
        return 1.0 if same else 0.0

    assert c2_score(init, trained, probe, exact_only, eps=0.0305, baseline=1.0) == 1.0
    assert c2_score(init, trained, probe, lambda m: 1.0, eps=0.0305, baseline=1.0) == 0.0

    # refine agrees with the exhaustive scan on the real checkpoint as well
    def val_rank1(model):
        return evaluate_model(model, run.dataset.val).rank1

    real_base = val_rank1(trained)
    real_scan = scan_c2(init, trained, probe, val_rank1, baseline=real_base)
    real_refine = c2_score(init, trained, probe, val_rank1, baseline=real_base)
    assert real_refine == real_scan

    # freeze-mode budget series stays close to baseline at x <= 2
    scores = experiments.text_layer_scores(run)
    series = experiments.compression_series(
        run.experiment, (0, 1, 2), "freeze", dataset=run.dataset, scores=scores
    )
    by_x = {row["x"]: row for row in series}
    assert by_x[0]["metric"] == run.report.rank1  # x=0 reproduces the baseline
    for x in (1, 2):
        drop = by_x[0]["metric"] - by_x[x]["metric"]
        assert drop <= 5 * POINT, f"x={x} dropped {drop:.3f} Rank-1"
        assert by_x[x]["trainable"] < by_x[0]["trainable"]

    print(
        "criterion 8 PASS: C1 normalized and distance-ranked; C2 oracle alpha=0.85 exact, "
        "endpoints 1.0/0.0, refine == scan (synthetic and real checkpoint); freeze series "
        f"x<=2 within 5 points (drops {by_x[0]['metric'] - by_x[1]['metric']:.3f}, "
        f"{by_x[0]['metric'] - by_x[2]['metric']:.3f})"
    )


# ---------------------------------------------------------------------------
# criterion 9: byte-identical artifacts


MICRO = [
    "--set", "data.n_identities=10",
    "--set", "data.images_per_identity=2",
    "--set", "data.captions_per_image=1",
    "--set", "model.hidden_dim=12",
    "--set", "model.embed_dim=6",
    "--set", "train.epochs=2",
    "--set", "train.batch_size=8",
]


def test_criterion_9_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--preset", "tbps-clip", *MICRO, "--outdir", str(a)]) == 0
    assert cli_main(["train", "--preset", "tbps-clip", *MICRO, "--outdir", str(b)]) == 0

    compared = []
    for name in sorted(os.listdir(a)):
        if name == "manifest.json":
            continue  # wall-clock timings, excluded by design
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
        compared.append(name)

    g1, g2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    assert cli_main(["generate", *MICRO, "--out", str(g1)]) == 0
    assert cli_main(["generate", *MICRO, "--out", str(g2)]) == 0
    assert g1.read_bytes() == g2.read_bytes()

    print(
        f"criterion 9 PASS: repeated training runs byte-identical across {compared}; "
        "repeated generation byte-identical; manifest (wall-clock) excluded by design"
    )
