"""The three workloads and the output checks run on every repetition.

Each workload drives the public functions the `tbpslab` CLI calls, on a
corpus generated from the benchmark's seed, one job at a time:

  recipe        experiments.run_training, default `tbps-clip`, with artifacts
  loss-table    experiments.ablate_loss under `clip-baseline`, 8 epochs
  contribution  experiments.run_training (`clip-baseline`, 10 epochs), then
                experiments.contribution_table over every module

`size="tiny"` shrinks corpus, model and schedule to the selftest's scale
for the smoke test; the Rank-1 floor only applies at full size.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import time
from dataclasses import dataclass, field

WORKLOADS = ("recipe", "loss-table", "contribution")

RANK1_FLOOR = 0.60  # the acceptance gate's floor for the default recipe
LOSS_TABLE_ROWS = 7
SCORE_KEYS = ("rank1", "rank5", "rank10", "mAP", "mINP")

TINY = [
    "data.n_identities=10", "data.images_per_identity=2",
    "model.hidden_dim=8", "model.embed_dim=4",
    "train.epochs=2", "train.batch_size=4",
]


def config_layers(workload: str, seed: int, size: str) -> tuple:
    """(preset, overrides) for a workload, as `tbpslab --preset/--set` takes them."""
    if workload == "recipe":
        preset, overrides = "tbps-clip", [f"seed={seed}"]
    elif workload == "loss-table":
        # 7 runs of 8 epochs keep one table near 20 s, the run-length budget
        preset, overrides = "clip-baseline", [f"seed={seed}", "train.epochs=8"]
    elif workload == "contribution":
        preset, overrides = "clip-baseline", [f"seed={seed}", "train.epochs=10"]
    else:
        raise ValueError(f"unknown workload '{workload}'")
    if size == "tiny":
        overrides += TINY
    return preset, overrides


@dataclass
class Setup:
    experiments: object  # the tbpslab.experiments module
    exp: object
    dataset: object
    seconds: float


def setup(workload: str, seed: int, size: str) -> Setup:
    """Import the package, resolve the config and generate the corpus.

    This is everything before the first call into `experiments`; the
    corpus comes from the same stream `experiments.build_dataset` uses.
    """
    start = time.perf_counter()
    experiments = importlib.import_module("tbpslab.experiments")
    config = importlib.import_module("tbpslab.config")
    data = importlib.import_module("tbpslab.data")
    numerics = importlib.import_module("tbpslab.numerics")
    preset, overrides = config_layers(workload, seed, size)
    exp = config.materialize(config.resolve(preset=preset, overrides=overrides))
    dataset = data.generate_toy(exp.data, numerics.Rng(exp.seed).named("data"))
    return Setup(experiments, exp, dataset, time.perf_counter() - start)


def expected_steps(n_samples: int, epochs: int, batch_size: int) -> int:
    """Steps of one run: full batches, plus a trailing batch of >= 2 samples."""
    full, rem = divmod(n_samples, batch_size)
    return epochs * (full + (1 if rem >= 2 else 0))


def params_digest(model) -> str:
    h = hashlib.sha256()
    for key in sorted(model.params):
        h.update(key.encode("utf-8"))
        h.update(model.params[key].astype("<f8").tobytes())
    return h.hexdigest()


class RunLog:
    """Wraps `experiments.run_training` to see every run a workload makes.

    Kept on for untraced repetitions too: it costs one hash of the final
    parameters per run, which is what the determinism check compares.
    """

    def __init__(self, experiments):
        self._experiments = experiments
        self._original = experiments.run_training
        self.runs: list = []

        def run_training(*args, **kwargs):
            result = self._original(*args, **kwargs)
            self.runs.append(result)
            return result

        experiments.run_training = run_training

    def close(self):
        self._experiments.run_training = self._original


@dataclass
class Outcome:
    wall_s: float = 0.0
    steps: int = 0
    rank1: float | None = None
    digest: str = ""  # final parameters of every run, and final.ckpt bytes on recipe
    runs: int = 0
    distinct_runs: int = 0
    modules: int = 0  # rows of the contribution table
    errors: list = field(default_factory=list)


def run_once(workload: str, st: Setup, runlog: RunLog, workdir: str, size: str) -> Outcome:
    """One repetition: the timed workload call, then the output checks."""
    ex, exp, ds = st.experiments, st.exp, st.dataset
    runlog.runs.clear()
    out = Outcome()
    ckpt_path = None
    start = time.perf_counter()
    if workload == "recipe":
        run = ex.run_training(exp, dataset=ds, out_dir=workdir)
        ckpt_path = os.path.join(workdir, "final.ckpt")
        out.rank1 = run.report.rank1
        expected_runs = 1
    elif workload == "loss-table":
        rows = ex.ablate_loss(exp, dataset=ds)
        out.rank1 = sum(r["rank1"] for r in rows) / max(1, len(rows))
        expected_runs = LOSS_TABLE_ROWS
    else:
        run = ex.run_training(exp, dataset=ds)
        rows = ex.contribution_table(run)
        out.rank1 = run.report.rank1
        out.modules = len(rows)
        expected_runs = 1
    out.wall_s = time.perf_counter() - start

    errors = out.errors
    runs = list(runlog.runs)
    out.runs = len(runs)
    if len(runs) != expected_runs:
        errors.append(f"{len(runs)} training runs, expected {expected_runs}")
    want_steps = expected_steps(len(ds.train), exp.train.epochs, exp.train.batch_size)
    digests = []
    for i, run_ in enumerate(runs):
        out.steps += len(run_.history)
        if len(run_.history) != want_steps:
            errors.append(f"run {i}: {len(run_.history)} steps, expected {want_steps}")
        bad = [
            (row["step"], k)
            for row in run_.history
            for k, v in row.items()
            if k.startswith("loss") and not math.isfinite(v)
        ]
        if bad:
            errors.append(f"run {i}: non-finite loss at (step, term) {bad[:3]}")
        digests.append(params_digest(run_.model))
    out.distinct_runs = len(set(digests))
    h = hashlib.sha256("".join(digests).encode("ascii"))
    if ckpt_path is not None:
        with open(ckpt_path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    out.digest = h.hexdigest()

    if workload == "recipe":
        if size == "full" and not out.rank1 >= RANK1_FLOOR:
            errors.append(f"Rank-1 {out.rank1:.4f} below the floor {RANK1_FLOOR}")
    elif workload == "loss-table":
        if len(rows) != LOSS_TABLE_ROWS:
            errors.append(f"{len(rows)} table rows, expected {LOSS_TABLE_ROWS}")
        for row in rows:
            for k in SCORE_KEYS:
                if not 0.0 <= row[k] <= 1.0:
                    errors.append(f"row {row['row']}: {k} = {row[k]} outside [0, 1]")
    else:
        modules = [m for m in run.model.module_names() if m != "log_tau"]
        got = [r["module"] for r in rows]
        if sorted(got) != sorted(modules):
            errors.append(f"table modules {got} != model modules {modules}")
        for row in rows:
            for k in ("c1", "c2"):
                if not 0.0 <= row[k] <= 1.0:
                    errors.append(f"module {row['module']}: {k} = {row[k]} outside [0, 1]")
    if out.rank1 is None or not 0.0 <= out.rank1 <= 1.0:
        errors.append(f"Rank-1 {out.rank1} outside [0, 1]")
    return out
