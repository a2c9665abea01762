"""Spans at the package's module boundaries, installed from outside.

A boundary is a name bound in one module's namespace: `train.encode_image`
and `evaluate.encode_image` are two bindings of one function, and each gets
its own wrapper, so a span records which layer called the model. Methods
(`Rng.__init__`, `AdamW.step`) are wrapped on their class. The package
itself is never edited; `Tracer.uninstall` puts every original back.

Spans are kept in memory as tuples (name, start, end, parent, run, step)
and written out once, after the measured repetitions.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time

# (module, attribute path in that module, span name)
BOUNDARIES = (
    ("config", "resolve", "config.resolve"),
    ("config", "materialize", "config.materialize"),
    ("experiments", "materialize", "config.materialize"),
    ("data", "generate_toy", "data.generate_toy"),
    ("experiments", "generate_toy", "data.generate_toy"),
    ("numerics", "Rng.__init__", "numerics.Rng"),
    ("train", "augment_image", "augment.augment_image"),
    ("train", "augment_text", "augment.augment_text"),
    ("train", "encode_image", "model.encode_image.train"),
    ("train", "backward_image", "model.backward_image.train"),
    ("train", "encode_text", "model.encode_text.train"),
    ("train", "backward_text", "model.backward_text.train"),
    ("evaluate", "encode_image", "model.encode_image.evaluate"),
    ("evaluate", "encode_text", "model.encode_text.evaluate"),
    ("experiments", "save_checkpoint", "model.save_checkpoint"),
    ("losses", "n_itc", "losses.n_itc"),
    ("losses", "r_itc", "losses.r_itc"),
    ("losses", "c_itc", "losses.c_itc"),
    ("losses", "ss_loss", "losses.ss_loss"),
    ("losses", "mvs_terms", "losses.mvs_terms"),
    ("losses", "soft_label", "losses.soft_label"),
    ("losses", "stack", "losses.stack"),
    ("train", "assemble_batch", "train.assemble_batch"),
    ("train", "loss_and_grads", "train.loss_and_grads"),
    ("train", "train_step", "train.train_step"),
    ("train", "AdamW.step", "train.AdamW.step"),
    ("experiments", "fit", "train.fit"),
    ("experiments", "evaluate_model", "evaluate.evaluate_model"),
    ("evaluate", "retrieval_metrics", "evaluate.retrieval_metrics"),
    ("evaluate", "unique_images", "evaluate.unique_images"),
    ("experiments", "c1_scores", "analyze.c1_scores"),
    ("experiments", "c2_score", "analyze.c2_score"),
    ("experiments", "run_training", "experiments.run_training"),
    ("experiments", "ablate_loss", "experiments.ablate_loss"),
    ("experiments", "contribution_table", "experiments.contribution_table"),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "run", "step")


class Tracer:
    """Records nested spans for one repetition (or for set-up)."""

    def __init__(self):
        self.spans: list = []
        self.run = -1  # index of the current experiments.run_training call
        self.step = -1  # optimizer steps started so far, minus one
        self.missing: list = []
        self.image_views_used = 0
        self.text_views_used = 0
        self._stack: list = []
        self._installed: list = []
        self._aug = (None, None)  # (images_aug, tokens_aug) of the latest batch

    # -- installation -----------------------------------------------------

    def install(self, package: str = "tbpslab"):
        for module_name, path, span_name in BOUNDARIES:
            owner = importlib.import_module(f"{package}.{module_name}")
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            had_own = attr in vars(owner)
            setattr(owner, attr, self._wrap(span_name, original))
            self._installed.append((owner, attr, original, had_own))

    def uninstall(self):
        for owner, attr, original, had_own in reversed(self._installed):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = {
            "experiments.run_training": self._enter_run,
            "train.train_step": self._enter_step,
            "model.encode_image.train": self._encode_image,
            "model.encode_text.train": self._encode_text,
        }.get(name)
        after = self._built_batch if name == "train.assemble_batch" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run, self.step)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- per-boundary bookkeeping ----------------------------------------

    def _enter_run(self, args):
        self.run += 1

    def _enter_step(self, args):
        self.step += 1

    def _built_batch(self, batch):
        self._aug = (batch.images_aug, batch.tokens_aug)

    def _encode_image(self, args):
        # a view is used when the very array assemble_batch built is encoded
        if args[1] is self._aug[0]:
            self.image_views_used += len(args[1])

    def _encode_text(self, args):
        if args[1] is self._aug[1]:
            self.text_views_used += len(args[1])


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds and self seconds.

    Busy time sums the spans of a name that are not nested in another span
    of the same name; self time subtracts the time covered by direct
    children (single-threaded, so children never overlap).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run, _step in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, _run, _step) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        if not _has_ancestor(spans, parent, lambda n: n == name):
            row["busy_s"] += end - start
    return out


def group_busy(spans, prefix: str) -> float:
    """Seconds inside any span whose name starts with `prefix`, counting
    nested spans of the group once."""
    total = 0.0
    for name, start, end, parent, _run, _step in spans:
        if name.startswith(prefix) and not _has_ancestor(spans, parent, lambda n: n.startswith(prefix)):
            total += end - start
    return total


def _has_ancestor(spans, parent: int, match) -> bool:
    while parent >= 0:
        if match(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def count_under(spans, name: str, ancestor: str) -> int:
    return sum(
        1 for s in spans if s[0] == name and _has_ancestor(spans, s[3], lambda n: n == ancestor)
    )


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * q // 100))
    return ordered[int(k) - 1]


def write_spans(path, meta: dict, reps: list):
    """One gzip'd JSON-lines file: a header, then one array per span."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({**meta, "fields": ["rep", *SPAN_FIELDS]}) + "\n")
        for rep, spans in reps:
            for span in spans:
                fh.write(json.dumps([rep, *span]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition

TRAIN_MODEL = ("encode_image", "backward_image", "encode_text", "backward_text")
EVAL_MODEL = ("encode_image", "encode_text")
LOSS_TERMS_SHARED = ("r_itc", "c_itc", "ss_loss", "mvs_terms", "soft_label")
EVALUATE = ("evaluate_model", "retrieval_metrics", "unique_images")


def _missing_spans(tracer: Tracer) -> set:
    gone = set(tracer.missing)
    return {span for module, path, span in BOUNDARIES if f"{module}.{path}" in gone}


def layer_metrics(tracer: Tracer, outcome) -> dict:
    """Calls, busy and self seconds and derived ratios for one repetition.

    A metric whose boundary no longer exists in the package is None
    (missing), never 0. `share` is busy time over the repetition's wall
    time; nested layers overlap, as in a profile's inclusive column.
    """
    spans = tracer.spans
    stats = summarize(spans)
    gone = _missing_spans(tracer)
    wall = outcome.wall_s

    def get(name, key):
        if name in gone:
            return None
        return stats.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    def div(a, b):
        if a is None or b is None:
            return None
        return a / b if b else 0.0

    m = {}

    def layer(name, *keys):
        for key in keys:
            if key == "share":
                m[f"{name}.share"] = div(get(name, "busy_s"), wall)
            else:
                m[f"{name}.{key}"] = get(name, key)

    layer("numerics.Rng", "calls", "busy_s", "share")
    layer("augment.augment_image", "calls", "busy_s", "share")
    m["augment.augment_image.us_per_call"] = div(
        None if m["augment.augment_image.busy_s"] is None else 1e6 * m["augment.augment_image.busy_s"],
        m["augment.augment_image.calls"],
    )
    layer("augment.augment_text", "calls", "busy_s")
    m["augment.image_views_used_ratio"] = div(
        None if "model.encode_image.train" in gone else tracer.image_views_used,
        m["augment.augment_image.calls"],
    )
    m["augment.text_views_used_ratio"] = div(
        None if "model.encode_text.train" in gone else tracer.text_views_used,
        m["augment.augment_text.calls"],
    )
    layer("train.assemble_batch", "busy_s", "share")
    layer("train.loss_and_grads", "self_s")
    layer("train.AdamW.step", "busy_s", "share")
    layer("train.train_step", "calls")
    steps = [end - start for name, start, end, *_ in spans if name == "train.train_step"]
    for q in (50, 99):
        m[f"train.train_step.p{q}_ms"] = (
            None if "train.train_step" in gone else 1e3 * percentile(steps, q) if steps else 0.0
        )
    for fn in TRAIN_MODEL:
        layer(f"model.{fn}.train", "calls", "busy_s", "share")
    for fn in EVAL_MODEL:
        layer(f"model.{fn}.evaluate", "calls", "busy_s")
    layer("model.save_checkpoint", "calls", "share")
    layer("losses.n_itc", "busy_s")
    layer("losses.stack", "busy_s")
    for term in LOSS_TERMS_SHARED:
        layer(f"losses.{term}", "share")
    m["losses.busy_s"] = (
        None if any(n.startswith("losses.") for n in gone) else group_busy(spans, "losses.")
    )
    m["losses.share"] = div(m["losses.busy_s"], wall)
    for fn in EVALUATE:
        layer(f"evaluate.{fn}", "calls", "busy_s")
    layer("evaluate.evaluate_model", "share")
    layer("analyze.c1_scores", "share")
    layer("analyze.c2_score", "share")
    in_table = (
        None if {"evaluate.evaluate_model", "experiments.contribution_table"} & gone
        else count_under(spans, "evaluate.evaluate_model", "experiments.contribution_table")
    )
    m["analyze.evals_per_module"] = div(in_table, outcome.modules)
    layer("experiments.run_training", "calls", "busy_s")
    m["experiments.run_overlap"] = div(get("experiments.run_training", "busy_s"), wall)
    m["experiments.distinct_runs_ratio"] = div(outcome.distinct_runs, outcome.runs)
    m["evaluate.rank1"] = outcome.rank1
    return m


def deterministic_part(row: dict) -> dict:
    """The metrics that must repeat exactly on one seed."""
    return {
        k: v for k, v in row.items()
        if k.endswith((".calls", "_ratio")) or k in ("analyze.evals_per_module", "evaluate.rank1")
    }


def setup_metrics(tracer: Tracer) -> dict:
    """Layers that run in set-up, before the first call into experiments."""
    spans = tracer.spans
    stats = summarize(spans)
    gone = _missing_spans(tracer)
    return {
        "numerics.Rng.setup_calls": None if "numerics.Rng" in gone
        else stats.get("numerics.Rng", {}).get("calls", 0),
        "data.generate_toy.busy_s": None if "data.generate_toy" in gone
        else stats.get("data.generate_toy", {}).get("busy_s", 0.0),
        "config.busy_s": None if {"config.resolve", "config.materialize"} & gone
        else group_busy(spans, "config."),
    }
