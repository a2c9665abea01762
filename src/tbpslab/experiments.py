"""Experiment drivers: full training runs, ablation tables, few-shot
curves, contribution analysis, and compression series.

Everything here is deterministic in (resolved config, seed): datasets,
initialization, batch order, augmentation, and dropout all derive from
named substreams of one seed. Two runs of the same resolved config write
byte-identical checkpoints, history, and reports. The manifest is the one
exception: it records wall-clock timings and is excluded from any
byte-identity comparison.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import time
from dataclasses import dataclass, replace

from . import config as config_mod
from .analyze import c1_scores, c2_score, check_series, combined_scores, select_layers
from .config import Experiment, fingerprint, materialize, merge
from .data import ToyDataset, build_vocab, few_shot, generate_toy
from .evaluate import RetrievalReport, evaluate_model, rank1_scorer
from .model import Model, ModelConfig, freeze, init_model, parameter_count, save_checkpoint
from .numerics import Rng
from .train import fit

TEXT_MODULES = "txt.hidden"  # compression candidates live in the text tower


def initial_model(model_cfg: ModelConfig, seed: int) -> Model:
    """A run's model before its first step: drawn from the seed's "init"
    stream, nothing frozen."""
    return init_model(model_cfg, Rng(seed).named("init"))


@dataclass
class RunResult:
    """A finished run. Its initial model is derived, not carried:
    `model_init` is rebuilt from the trained model's config and the run's
    seed (`initial_model`) the first time it is read, and kept from then on."""

    experiment: Experiment
    dataset: ToyDataset
    model: Model
    history: list
    report: RetrievalReport  # test-split retrieval
    fingerprint: str

    @functools.cached_property
    def model_init(self) -> Model:
        return initial_model(self.model.config, self.experiment.seed)


def variant(exp: Experiment, *patches: dict) -> Experiment:
    """A new experiment with `patches` merged in order over the resolved config."""
    return materialize(functools.reduce(merge, patches, exp.raw))


def build_dataset(exp: Experiment) -> ToyDataset:
    return generate_toy(exp.data, Rng(exp.seed).named("data"))


def run_training(exp: Experiment, dataset: ToyDataset | None = None, out_dir=None) -> RunResult:
    """Generate (or accept) a corpus, train from scratch, evaluate on the
    held-out identities, and optionally write the run's artifacts."""
    if dataset is None:
        dataset = build_dataset(exp)
    model = initial_model(replace(exp.model, vocab=build_vocab(dataset.train)), exp.seed)
    if exp.freeze_modules:
        freeze(model, exp.freeze_modules)

    started = time.time()
    fitres = fit(model, dataset.train, exp.loss, exp.augment, exp.train, Rng(exp.seed).named("fit"))
    elapsed = time.time() - started
    report = evaluate_model(model, dataset.test)
    fp = fingerprint(exp.raw)
    result = RunResult(
        experiment=exp,
        dataset=dataset,
        model=model,
        history=fitres.history,
        report=report,
        fingerprint=fp,
    )
    if out_dir is not None:
        _write_run_artifacts(result, out_dir, elapsed)
    return result


def run_many(jobs, done=()) -> list:
    """One result per `(exp, dataset)` job, in job order. A run is
    deterministic in config and corpus, so each (fingerprint, corpus object)
    key trains once; corpora compare by identity, never by content. A run in
    `done` counts as already trained."""
    jobs = list(jobs)  # keeps every corpus alive, so no two share an id
    runs = {(fingerprint(run.experiment.raw), id(run.dataset)): run for run in done}
    results = []
    for exp, dataset in jobs:
        key = (fingerprint(exp.raw), id(dataset))
        if key not in runs:
            runs[key] = run_training(exp, dataset=dataset)
        results.append(runs[key])
    return results


def write_csv(rows, path, fp, seed):
    """One table or history file: a `# config=... seed=...` line, a header,
    then one row per dict. Floats are written with repr, so they round-trip
    exactly. The columns are the first row's keys, in order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config={fp} seed={seed}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(v)) if isinstance(v, float) else v for k, v in row.items()})


def _atomic_json(payload: dict, path):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _write_run_artifacts(result: RunResult, out_dir, elapsed: float):
    os.makedirs(out_dir, exist_ok=True)
    exp = result.experiment

    def join(name):
        return os.path.join(str(out_dir), name)

    config_mod.dump_yaml(exp.raw, join("config.yaml"))
    save_checkpoint(result.model_init, join("init.ckpt"))
    save_checkpoint(result.model, join("final.ckpt"))
    write_csv(result.history, join("history.csv"), result.fingerprint, exp.seed)
    with open(join("report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(result.report.lines()) + "\n")
    _atomic_json(
        {"config": result.fingerprint, "seed": exp.seed, "metrics": result.report.as_dict()},
        join("report.json"),
    )
    # timings make the manifest non-reproducible by design; every other
    # artifact in the directory is byte-deterministic
    _atomic_json(
        {
            "config": result.fingerprint,
            "seed": exp.seed,
            "preset": exp.preset,
            "train_samples": len(result.dataset.train),
            "test_samples": len(result.dataset.test),
            "trainable_parameters": parameter_count(result.model, trainable_only=True),
            "steps": len(result.history),
            "wall_seconds": elapsed,
            "finished_unix": time.time(),
            "metrics": result.report.as_dict(),
        },
        join("manifest.json"),
    )


# ---------------------------------------------------------------------------
# ablation tables: one part of the recipe (`config.FULL_AUG`,
# `config.RECIPE_WEIGHTS`, `config.TRICKS`) at a time


def _switched_off(patch: dict, defaults=config_mod.DEFAULTS) -> dict:
    """`patch` with every value put back to its default: the part off."""
    return {
        key: _switched_off(value, defaults[key]) if isinstance(value, dict) else defaults[key]
        for key, value in patch.items()
    }


def _table(exp: Experiment, rows, dataset=None, done=()) -> list:
    """Run each (label, patches) row on a shared corpus; rows carry metrics."""
    if dataset is None:
        dataset = build_dataset(exp)
    runs = run_many([(variant(exp, *patches), dataset) for _, patches in rows], done)
    return [{"row": label, **run.report.as_dict()} for (label, _), run in zip(rows, runs)]


def ablate_augmentation(exp: Experiment, dataset=None, done=()) -> list:
    full = config_mod.FULL_AUG
    off = _switched_off(full, config_mod.DEFAULTS["augment"])
    modes = {
        "none": off,
        "image-only": {**off, "image_mode": full["image_mode"]},
        "text-only": {**off, "text_mode": full["text_mode"]},
        "full": full,
    }
    return _table(exp, [(label, [{"augment": m}]) for label, m in modes.items()], dataset, done)


def ablate_loss(exp: Experiment, dataset=None, done=()) -> list:
    def row(weights, diagonal=False):
        return [{"loss": {"weights": weights, "diagonal_labels": diagonal}}]

    recipe = config_mod.RECIPE_WEIGHTS
    base = {"n_itc": recipe["n_itc"]}
    rows = [("itc-diagonal", row(base, diagonal=True)), ("n-itc", row(base))]
    rows += [
        (f"n-itc+{term.split('_')[0]}", row({**base, term: weight}))
        for term, weight in recipe.items()
        if term not in base
    ]
    rows.append(("stack", row(recipe)))
    return _table(exp, rows, dataset, done)


def ablate_tricks(exp: Experiment, dataset=None, done=()) -> list:
    tricks = config_mod.TRICKS
    off = [_switched_off(patch) for patch in tricks.values()]
    rows = [("baseline", off)]
    rows += [(f"+{name}", [*off, patch]) for name, patch in tricks.items()]
    rows.append(("all-tricks", list(tricks.values())))
    return _table(exp, rows, dataset, done)


# the one-factor ablation axes, by the name the command line gives them
ABLATIONS = {"augmentation": ablate_augmentation, "loss": ablate_loss, "trick": ablate_tricks}

FEWSHOT_FRACTIONS = (0.1, 0.25, 0.5, 1.0)  # default training-set fractions


def fewshot_curve(exp: Experiment, fractions=FEWSHOT_FRACTIONS, dataset=None, done=()) -> list:
    """Retrain on identity-level subsets of the training split; the test
    split stays fixed so the rows are comparable. Every subset is drawn
    before the first run, so a bad fraction fails before any training. A
    subset that is the whole split trains on `dataset` itself, so a run of
    `exp` on it in `done` is that row."""
    if dataset is None:
        dataset = build_dataset(exp)
    subsets = [few_shot(dataset.train, f, Rng(exp.seed).named(f"fewshot-{f}")) for f in fractions]
    jobs = [(exp, dataset if len(s) == len(dataset.train) else replace(dataset, train=s)) for s in subsets]
    return [
        {"fraction": frac, "train_samples": len(subset), **run.report.as_dict()}
        for frac, subset, run in zip(fractions, subsets, run_many(jobs, done))
    ]


# ---------------------------------------------------------------------------
# contribution and compression


def contribution_table(run: RunResult, modules=None) -> list:
    """Per-module reset damage and interpolation steepness, evaluated on
    the validation identities. C1 is normalized over `modules`, by default
    every module but the temperature. Each probe is scored by Rank-1 on
    the validation split, re-encoding only the tower the probe changed."""
    metric = rank1_scorer(run.model, run.dataset.val)
    if modules is None:
        modules = [m for m in run.model.module_names() if m != "log_tau"]
    base = metric(run.model)
    c1 = c1_scores(run.model_init, run.model, modules, metric)
    c2 = {m: c2_score(run.model_init, run.model, m, metric, baseline=base) for m in modules}
    both = combined_scores(c1.scores, c2)
    return [
        {"module": m, "delta": c1.deltas[m], "c1": c1.scores[m], "c2": c2[m], "combined": both[m]}
        for m in modules
    ]


def text_layer_scores(run: RunResult) -> dict:
    """Combined contribution scores of the text hidden layers that still train."""
    inert = run.model.inert_modules()
    modules = [m for m in run.model.module_names() if m.startswith(TEXT_MODULES) and m not in inert]
    return {row["module"]: row["combined"] for row in contribution_table(run, modules)}


def compression_series(exp: Experiment, xs, mode: str, dataset=None, scores=None, done=()) -> list:
    """Retrain with the x lowest-scoring text layers (`select_layers`)
    frozen at their initial values or dropped, on top of those `exp` has.

    The candidates are the keys of `scores`, by default the text hidden
    layers that still train under `exp`, scored on a run of it. x = 0 is
    `exp` itself: the scoring run or a run in `done` is its row, and
    retrained on the shared dataset and seed it reproduces that run
    exactly. A bad mode or budget fails before any training run.
    """
    inert = {*exp.freeze_modules, *(f"{TEXT_MODULES}.{i}" for i in exp.model.dropped_text_layers)}
    trained = sum(f"{TEXT_MODULES}.{i}" not in inert for i in range(exp.model.text_layers))
    check_series(xs, mode, trained if scores is None else len(scores))
    if dataset is None:
        dataset = build_dataset(exp)
    if scores is None:
        base_run = run_training(exp, dataset=dataset)
        scores = text_layer_scores(base_run)
        done = (*done, base_run)

    def patch(chosen):
        if mode == "freeze":
            return {"freeze_modules": [*exp.freeze_modules, *chosen]}
        layers = sorted(int(m.rsplit(".", 1)[1]) for m in chosen)
        return {"model": {"dropped_text_layers": [*exp.model.dropped_text_layers, *layers]}}

    chosen = [select_layers(scores, x) for x in xs]
    runs = run_many([(variant(exp, patch(modules)), dataset) for modules in chosen], done)
    return [
        {
            "x": x,
            "mode": mode,
            "modules": modules,
            "metric": float(run.report.rank1),
            "trainable": parameter_count(run.model, trainable_only=True),
        }
        for x, modules, run in zip(xs, chosen, runs)
    ]
