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
import json
import os
import time
from dataclasses import dataclass, replace

from . import config as config_mod
from .analyze import c1_scores, c2_score, check_series, combined_scores, compress_experiment
from .config import Experiment, fingerprint, materialize, merge
from .data import ToyDataset, build_vocab, few_shot, generate_toy
from .evaluate import RetrievalReport, evaluate_model, rank1_scorer
from .model import Model, clone_model, freeze, init_model, parameter_count, save_checkpoint
from .numerics import Rng
from .train import fit

TEXT_MODULES = "txt.hidden"  # compression candidates live in the text tower
HISTORY_COLUMNS = ("step", "epoch", "lr", "loss", "tau")  # then per-term losses, sorted


@dataclass
class RunResult:
    experiment: Experiment
    dataset: ToyDataset
    model_init: Model
    model: Model
    history: list
    report: RetrievalReport  # test-split retrieval
    fingerprint: str
    out_dir: str | None = None


def variant(exp: Experiment, patch: dict) -> Experiment:
    """A new experiment with `patch` merged over the resolved config."""
    merged = merge(exp.raw, patch)
    return materialize(merged)


def build_dataset(exp: Experiment) -> ToyDataset:
    return generate_toy(exp.data, Rng(exp.seed).named("data"))


def run_training(exp: Experiment, dataset: ToyDataset | None = None, out_dir=None) -> RunResult:
    """Generate (or accept) a corpus, train from scratch, evaluate on the
    held-out identities, and optionally write the run's artifacts."""
    rng = Rng(exp.seed)
    if dataset is None:
        dataset = generate_toy(exp.data, rng.named("data"))
    vocab = build_vocab(dataset.train)
    model_cfg = replace(exp.model, vocab=vocab)
    model = init_model(model_cfg, rng.named("init"))
    model_init = clone_model(model)
    if exp.freeze_modules:
        freeze(model, exp.freeze_modules)

    started = time.time()
    fitres = fit(model, dataset.train, exp.loss, exp.augment, exp.train, rng.named("fit"))
    elapsed = time.time() - started
    report = evaluate_model(model, dataset.test)
    fp = fingerprint(exp.raw)
    result = RunResult(
        experiment=exp,
        dataset=dataset,
        model_init=model_init,
        model=model,
        history=fitres.history,
        report=report,
        fingerprint=fp,
    )
    if out_dir is not None:
        result.out_dir = str(out_dir)
        _write_run_artifacts(result, out_dir, elapsed)
    return result


def write_csv(rows, path, fp, seed, columns=None):
    """One table or history file: a `# config=... seed=...` line, a header,
    then one row per dict. Floats are written with repr, so they round-trip
    exactly. Columns default to the first row's keys, in order."""
    if columns is None:
        columns = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config={fp} seed={seed}\n")
        writer = csv.DictWriter(fh, fieldnames=columns)
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
    extras = sorted({k for row in result.history for k in row} - set(HISTORY_COLUMNS))
    write_csv(
        result.history, join("history.csv"), result.fingerprint, exp.seed,
        columns=[*HISTORY_COLUMNS, *extras],
    )
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
# ablation tables

_TRICKS_OFF = {
    "model": {"dropout": 0.0},
    "loss": {"soft_label": False},
    "freeze_modules": [],
}

_TRICKS_ON = {
    "model": {"dropout": 0.05},
    "loss": {"soft_label": True},
    "freeze_modules": ["img.patch"],
}

_AUG_OFF = {"augment": {"image_mode": "none", "text_mode": "none"}}
_AUG_ON = {"augment": {"image_mode": "pool", "text_mode": "stack"}}


def _table(exp: Experiment, rows, dataset=None) -> list:
    """Run each (label, patch) row on a shared corpus; rows carry metrics."""
    if dataset is None:
        dataset = build_dataset(exp)
    out = []
    for label, patch in rows:
        run = run_training(variant(exp, patch), dataset=dataset)
        out.append({"row": label, **run.report.as_dict()})
    return out


def ablate_augmentation(exp: Experiment, dataset=None) -> list:
    rows = [
        ("none", _AUG_OFF),
        ("image-only", {"augment": {"image_mode": "pool", "text_mode": "none"}}),
        ("text-only", {"augment": {"image_mode": "none", "text_mode": "stack"}}),
        ("full", _AUG_ON),
    ]
    return _table(exp, rows, dataset)


def ablate_loss(exp: Experiment, dataset=None) -> list:
    base = {"n_itc": 1.0}
    full = config_mod.PRESETS["tbps-clip"]["loss"]["weights"]
    rows = [
        ("itc-diagonal", {"loss": {"weights": dict(base), "diagonal_labels": True}}),
        ("n-itc", {"loss": {"weights": dict(base), "diagonal_labels": False}}),
        ("n-itc+ss", {"loss": {"weights": {**base, "ss_i": 0.35}, "diagonal_labels": False}}),
        ("n-itc+mvs", {"loss": {"weights": {**base, "mvs_i": 0.45}, "diagonal_labels": False}}),
        ("n-itc+r", {"loss": {"weights": {**base, "r_itc": 0.7}, "diagonal_labels": False}}),
        ("n-itc+c", {"loss": {"weights": {**base, "c_itc": 0.1}, "diagonal_labels": False}}),
        ("stack", {"loss": {"weights": dict(full), "diagonal_labels": False}}),
    ]
    return _table(exp, rows, dataset)


def ablate_tricks(exp: Experiment, dataset=None) -> list:
    rows = [
        ("baseline", dict(_TRICKS_OFF)),
        ("+dropout", merge(_TRICKS_OFF, {"model": {"dropout": 0.05}})),
        ("+lock-patch-proj", merge(_TRICKS_OFF, {"freeze_modules": ["img.patch"]})),
        ("+soft-label", merge(_TRICKS_OFF, {"loss": {"soft_label": True}})),
        ("all-tricks", dict(_TRICKS_ON)),
    ]
    return _table(exp, rows, dataset)


def fewshot_curve(exp: Experiment, fractions=(0.1, 0.25, 0.5, 1.0), dataset=None) -> list:
    """Retrain on identity-level subsets of the training split; the test
    split stays fixed so the rows are comparable."""
    if dataset is None:
        dataset = build_dataset(exp)
    rows = []
    for frac in fractions:
        subset = few_shot(dataset.train, frac, Rng(exp.seed).named(f"fewshot-{frac}"))
        sub = ToyDataset(
            spec=dataset.spec, attrs=dataset.attrs,
            train=subset, val=dataset.val, test=dataset.test,
        )
        run = run_training(exp, dataset=sub)
        rows.append({"fraction": frac, "train_samples": len(subset), **run.report.as_dict()})
    return rows


# ---------------------------------------------------------------------------
# contribution and compression


def contribution_table(run: RunResult, eps: float = 0.03, modules=None) -> list:
    """Per-module reset damage and interpolation steepness, evaluated on
    the validation identities. C1 is normalized over `modules`, by default
    every module but the temperature. Each probe is scored by Rank-1
    against the trained model's prepared validation split, re-encoding
    only the tower the probe changed."""
    metric = rank1_scorer(run.model, run.dataset.val)
    if modules is None:
        modules = [m for m in run.model.module_names() if m != "log_tau"]
    base = metric(run.model)
    c1 = c1_scores(run.model_init, run.model, modules, metric)
    c2 = {m: c2_score(run.model_init, run.model, m, metric, eps=eps, baseline=base) for m in modules}
    both = combined_scores(c1.scores, c2)
    return [
        {"module": m, "delta": c1.deltas[m], "c1": c1.scores[m], "c2": c2[m], "combined": both[m]}
        for m in modules
    ]


def text_layer_scores(run: RunResult, eps: float = 0.03) -> dict:
    """Combined contribution scores for the text tower's hidden layers."""
    modules = [m for m in run.model.module_names() if m.startswith(TEXT_MODULES)]
    return {row["module"]: row["combined"] for row in contribution_table(run, eps, modules)}


def compression_series(exp: Experiment, xs, mode: str, dataset=None, scores=None) -> list:
    """Retrain with the x least-contributing text layers frozen or dropped.

    x = 0 is the unconstrained config, so with the shared dataset and seed
    it reproduces the baseline run exactly. The candidates are the keys of
    `scores`, by default the text tower's hidden layers; a bad mode or
    budget fails before any training run.
    """
    check_series(xs, mode, exp.model.text_layers if scores is None else len(scores))
    if dataset is None:
        dataset = build_dataset(exp)
    if scores is None:
        base_run = run_training(exp, dataset=dataset)
        scores = text_layer_scores(base_run)

    def retrain(mode_, chosen):
        if mode_ == "freeze":
            patch = {"freeze_modules": list(exp.freeze_modules) + list(chosen)}
        else:
            ids = sorted(int(m.rsplit(".", 1)[1]) for m in chosen)
            patch = {"model": {"dropped_text_layers": ids}}
        run = run_training(variant(exp, patch), dataset=dataset)
        return run.model, run.report.rank1

    return compress_experiment(xs, mode, scores, retrain)
