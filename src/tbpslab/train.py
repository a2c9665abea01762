"""Training loop: warmup-cosine schedule, decoupled-weight-decay Adam, and
a step function that assembles the full loss stack from two encoded views
of each modality.

Gradient routing: `losses.TERM_VIEWS` names the views each loss term reads:
"orig", "alt", or "both" (the [orig; alt] stack SS contrasts), from one view
table per modality. The tables hold the embeddings themselves, (N, d) arrays
of unit-norm rows, and "both" is their (2N, d) stack. Every term, SS
included, reads its views from those tables in one loop, and its gradients
go on the matching rows of a (2N, d) block per modality. The placed terms
are combined linearly and pushed through the encoder backward passes, one
per encode call, summing gradients.

The optimizer skips frozen modules and dropped text layers entirely: their
tensors keep their exact bytes, which the freeze tests pin down. The
backward passes compute no gradient for them either.

Precision: the towers compute in float32 during training, on float64
master weights, as mixed-precision training does. `train_step` hands
`loss_and_grads` a float32 copy of the model (`tower_copy`); the towers
take float32 from there to the normalized embeddings (see `model`), and
the embeddings, every loss term and the gradients on them are float64.
`AdamW.step` casts the towers' float32 parameter gradients to float64, and
the parameters, the moments and the update stay float64. Given a float64
model, as the finite-difference checks give it, `loss_and_grads` is the
float64 computation.

The image view rule: with image augmentation off (`image_mode` "none")
an image view is the stored image, so `assemble_batch` hands the batch's
`images` array itself over as `images_aug` and `loss_and_grads` encodes it
once, for "orig" and "alt" alike. Each view's rows still get their own
backward pass on that one cache, so the gradient sums are those of two
encodes. When a run builds augmented image views, `fit` has a worker
process (`prefetch.ViewWorker`) build them a few steps ahead. Captions
arrive tokenized, by their split (`data.Split.tokens`).
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import losses, prefetch
from .augment import AugmentConfig, augment_image, augment_text
from .losses import LossConfig, LossResult
from .model import Model, backward_image, backward_text, encode_image, encode_text, module_of
from .numerics import Rng, softmax_rows
from .prefetch import ViewWorker, image_streams

LOG_TAU_MIN = math.log(0.01)  # the one temperature floor: tau stays >= 0.01
TOWER_DTYPE = np.float32  # what the towers compute in during training


class NonFiniteLoss(FloatingPointError):
    """The loss or a gradient went NaN or infinite; training must stop."""


class StepOutOfRange(ValueError):
    """A schedule query outside [0, total_steps]."""


class BatchTooSmall(ValueError):
    """Contrastive terms need at least two samples per batch."""


@dataclass(frozen=True)
class Schedule:
    """Linear warmup to a peak, then cosine decay to a floor.

    Defaults are the fine-tuning values the recipe is normally run with;
    the toy experiments override the magnitudes (training from scratch
    needs a far larger step size) but keep the shape.
    """

    total_steps: int
    lr_init: float = 1e-6
    lr_peak: float = 1e-4
    lr_final: float = 5e-6
    warmup_frac: float = 0.1

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not (0 < self.warmup_frac < 1):
            raise ValueError(f"warmup_frac must be in (0, 1), got {self.warmup_frac}")
        if not all(0 < lr < math.inf for lr in (self.lr_init, self.lr_peak, self.lr_final)):
            raise ValueError("learning rates must be finite and positive")

    @property
    def warmup_steps(self) -> float:
        return self.warmup_frac * self.total_steps

    def lr_at(self, step) -> float:
        """Learning rate at a (possibly fractional) step in [0, total]."""
        if not (0 <= step <= self.total_steps):
            raise StepOutOfRange(f"step {step} outside [0, {self.total_steps}]")
        w = self.warmup_steps
        if step <= w:
            return self.lr_init + (self.lr_peak - self.lr_init) * (step / w)
        progress = (step - w) / (self.total_steps - w)
        return self.lr_final + 0.5 * (self.lr_peak - self.lr_final) * (
            1.0 + math.cos(math.pi * progress)
        )


@dataclass
class AdamW:
    """Adam with decoupled weight decay. Decay touches weight matrices and
    the embedding table (keys ending in '.W'); biases and the temperature
    are never decayed. `step` updates each parameter array in place, so a
    run holds one set of parameters from its first step to its last."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.02
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: dict, grads: dict, lr: float, skip=frozenset()):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for key in sorted(grads):
            if key in skip or key not in params:
                continue
            g = np.asarray(grads[key], dtype=np.float64)
            if key not in self.m:
                self.m[key] = np.zeros_like(g)
                self.v[key] = np.zeros_like(g)
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * g * g
            update = lr * (self.m[key] / bc1) / (np.sqrt(self.v[key] / bc2) + self.eps)
            p = params[key]
            if self.weight_decay and key.endswith(".W"):
                update = update + lr * self.weight_decay * p
            np.subtract(p, update, out=p)


# ---------------------------------------------------------------------------
# batches


@dataclass
class Batch:
    images: np.ndarray  # (N, H, W, 3) originals, as the split stores them (`data.Split`)
    images_aug: np.ndarray | None  # (N, H, W, 3) augmented views, if built
    tokens: list  # N token lists
    tokens_aug: list | None  # N augmented token lists, if built
    ids: np.ndarray  # (N,) identities


def views_needed(loss_cfg: LossConfig | None) -> tuple:
    """(image views, text views): whether the active loss terms read the
    augmented view of each modality, alone or stacked with the original
    (`losses.TERM_VIEWS`). Without a loss config, both."""
    if loss_cfg is None:
        return True, True
    read = [losses.TERM_VIEWS[k] for k, v in loss_cfg.weights.items() if v > 0]
    return tuple(any(views[side] in ("alt", "both") for views in read) for side in (0, 1))


def assemble_batch(
    split, rows, aug_cfg: AugmentConfig, rng: Rng, loss_cfg: LossConfig | None = None, images_aug=None,
) -> Batch:
    """The batch of the captions at `rows` of `split`, with augmented views.

    The captions' tokens are the split's (`data.Split.tokens`). Sample i
    draws from `rng.child(i)`, its image view from the child's "image"
    stream and its text view from the "text" stream, so a view does not
    depend on the rest of the batch. Only the views that `loss_cfg`'s
    active terms consume are built; the others are None. Without a loss
    config both views are built. With image augmentation off, the image
    view is `images` itself (the module's view rule). `images_aug`, when
    given, are the image views already built from the same streams
    (`prefetch.ViewWorker`).
    """
    if len(rows) < 2:
        raise BatchTooSmall(f"need at least 2 samples, got {len(rows)}")
    tokens = [list(split.tokens[i]) for i in rows]
    want_img, want_txt = views_needed(loss_cfg)
    images = split.images[split.image_of[rows]]
    tokens_aug = None
    if not want_img:
        images_aug = None
    elif aug_cfg.image_mode == "none":
        images_aug = images
    elif images_aug is None:
        images_aug = augment_image(images, aug_cfg, image_streams(rng, len(rows)))
    if want_txt:
        tokens_aug = [
            augment_text(toks, aug_cfg, rng.child(i).named("text")) for i, toks in enumerate(tokens)
        ]
    return Batch(
        images=images,
        images_aug=images_aug,
        tokens=tokens,
        tokens_aug=tokens_aug,
        ids=split.ids[rows],
    )


# ---------------------------------------------------------------------------
# the step

@dataclass
class StepStats:
    loss: float
    terms: dict
    tau: float
    lr: float


def loss_and_grads(model: Model, batch: Batch, loss_cfg: LossConfig, rng: Rng):
    """Loss value and parameter gradients for one batch, no update.

    Encodes only the views the active terms read, computes each term on the
    views `losses.TERM_VIEWS` names in its modalities' view tables, places
    its gradients on those rows, combines the terms with the configured
    weights, and backpropagates each view's rows through its encode call
    (one call serves both image views when they are one array). Dropout
    streams derive from `rng` by name, so the same rng reproduces the same
    masks.
    The model's inert modules (`Model.inert_modules`) get no gradient, and
    the backward pass stops below the lowest module that does; every other
    gradient is bit-equal to the full pass.

    Returns (value, grads, term_values).
    """
    n = len(batch.ids)
    d = model.config.embed_dim
    active = sorted(k for k, v in loss_cfg.weights.items() if v > 0)
    need_img_alt, need_txt_alt = views_needed(loss_cfg)

    # (embeddings, cache) of each encode call, by view
    img = {"orig": encode_image(model, batch.images)}
    txt = {"orig": encode_text(model, batch.tokens, train=True, rng=rng.named("drop-txt"))}
    if need_img_alt:  # the stored image as its own view is encoded once
        img["alt"] = img["orig"] if batch.images_aug is batch.images else encode_image(model, batch.images_aug)
    if need_txt_alt:
        txt["alt"] = encode_text(model, batch.tokens_aug, train=True, rng=rng.named("drop-txt-alt"))

    if loss_cfg.diagonal_labels:
        labels = losses.diagonal_label_matrix(n)
    else:
        labels = losses.build_labels(batch.ids, batch.ids)
    tau = model.tau

    def view_table(encoded):
        views = {view: z for view, (z, _) in encoded.items()}
        if "alt" in views:
            views["both"] = np.vstack([views["orig"], views["alt"]])
        return views

    tables = (view_table(img), view_table(txt))

    @functools.cache
    def contrast(side):
        """ss_loss over one modality's "both" view, once per step."""
        return losses.ss_loss(tables[side]["both"], losses.make_view_pairing(n), loss_cfg.tau_s)

    rows = {"orig": slice(0, n), "alt": slice(n, 2 * n), "both": slice(0, 2 * n)}
    placed = {}
    for name in active:
        view_i, view_t = losses.TERM_VIEWS[name]
        f_img, f_txt = tables[0].get(view_i), tables[1].get(view_t)
        if name == "n_itc":
            n_labels = labels
            if loss_cfg.soft_label:
                # targets mix in the model's own current matching distribution;
                # the distribution itself is held constant (no gradient through it)
                sim = f_img @ f_txt.T
                n_labels = losses.soft_label(labels, softmax_rows(sim, tau), softmax_rows(sim.T, tau))
            res = losses.n_itc(f_img, f_txt, n_labels, tau)
        elif name == "r_itc":
            res = losses.r_itc(f_img, f_txt, labels, tau, eps=loss_cfg.eps)
        elif name == "c_itc":
            res = losses.c_itc(f_img, f_txt)
        elif name.startswith("mvs_"):
            res = losses.mvs_terms(
                tables[0]["orig"], tables[0].get("alt"), tables[1]["orig"], tables[1].get("alt"),
                labels, tau, wanted=(name,),
            )[name]
        else:  # SS: the view contrast of each modality the term reads, under one weight
            ss_img, ss_txt = (
                contrast(side) if view else LossResult(0.0) for side, view in enumerate((view_i, view_t))
            )
            res = LossResult(ss_img.value + ss_txt.value, ss_img.grad_image, ss_txt.grad_image)
        grad_image, grad_text = np.zeros((2 * n, d)), np.zeros((2 * n, d))
        if view_i:
            grad_image[rows[view_i]] = res.grad_image
        if view_t:
            grad_text[rows[view_t]] = res.grad_text
        placed[name] = LossResult(res.value, grad_image, grad_text, res.grad_log_tau)

    total = losses.stack(loss_cfg, placed)
    if not np.isfinite(total.value):
        raise NonFiniteLoss(f"loss became {total.value}")

    grads: dict = {}
    for view, (_, cache) in img.items():
        backward_image(model, cache, total.grad_image[rows[view]], grads)
    for view, (_, cache) in txt.items():
        backward_text(model, cache, total.grad_text[rows[view]], grads)
    grads["log_tau"] = np.asarray(total.grad_log_tau)

    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise NonFiniteLoss("a parameter gradient became non-finite")

    return float(total.value), grads, {k: float(v.value) for k, v in placed.items()}


def tower_copy(model: Model) -> Model:
    """The model with its tower tensors cast to TOWER_DTYPE: same config,
    frozen set and (float64) temperature."""
    params = {k: v if k == "log_tau" else v.astype(TOWER_DTYPE) for k, v in model.params.items()}
    return Model(config=model.config, params=params, frozen=set(model.frozen))


def train_step(
    model: Model,
    batch: Batch,
    loss_cfg: LossConfig,
    optimizer: AdamW,
    lr: float,
    rng: Rng,
) -> StepStats:
    """One optimization step: gradients, update, temperature clamp.

    The gradients come from a float32 copy of the model (`tower_copy`); the
    update applies to `model`'s float64 parameters. Frozen modules and
    dropped text layers are excluded from the update, so their tensors
    keep their exact bytes.
    """
    value, grads, term_values = loss_and_grads(tower_copy(model), batch, loss_cfg, rng)

    inert = model.inert_modules()
    skip = {key for key in grads if module_of(key) in inert}
    optimizer.step(model.params, grads, lr, skip=skip)
    if model.params["log_tau"] < LOG_TAU_MIN:
        model.params["log_tau"] = np.array(LOG_TAU_MIN)

    return StepStats(loss=value, terms=term_values, tau=model.tau, lr=lr)


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True)
class TrainConfig:
    # from-scratch toy training wants a much hotter schedule than the
    # recipe's fine-tuning defaults (those live on Schedule itself)
    epochs: int = 30
    batch_size: int = 64
    lr_init: float = 1e-5
    lr_peak: float = 1e-3
    lr_final: float = 1e-4
    warmup_frac: float = 0.1
    weight_decay: float = 0.02

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 2:
            raise ValueError("need epochs >= 1 and batch_size >= 2")
        # the schedule's own checks on the rates and the warmup fraction
        Schedule(1, self.lr_init, self.lr_peak, self.lr_final, self.warmup_frac)
        if not (self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class FitResult:
    model: Model
    history: list  # one dict per step
    schedule: Schedule


def _epoch_batches(n_samples: int, batch_size: int) -> int:
    full, rem = divmod(n_samples, batch_size)
    return full + (1 if rem >= 2 else 0)


def fit(
    model: Model, split, loss_cfg: LossConfig, aug_cfg: AugmentConfig, tcfg: TrainConfig, rng: Rng, on_step=None
) -> FitResult:
    """Train in place over a split's identity-labelled captions.

    Epoch order, augmentation, and dropout all derive from named child
    streams of `rng`, so one seed fixes the whole run. A trailing partial
    batch is kept when it still holds two captions and dropped otherwise.
    When the active terms read augmented image views, a worker process
    builds the views of the next steps while one trains
    (`prefetch.ViewWorker`); the views and the run are byte-identical to
    building them in process. The worker is stopped before `fit` returns
    or raises.
    """
    if len(split) < 2:
        raise BatchTooSmall(f"need at least 2 training samples, got {len(split)}")
    steps_per_epoch = _epoch_batches(len(split), tcfg.batch_size)
    schedule = Schedule(
        total_steps=tcfg.epochs * steps_per_epoch,
        lr_init=tcfg.lr_init,
        lr_peak=tcfg.lr_peak,
        lr_final=tcfg.lr_final,
        warmup_frac=tcfg.warmup_frac,
    )
    optimizer = AdamW(weight_decay=tcfg.weight_decay)
    # (epoch, index in epoch, caption rows, augmentation stream) per step
    plan = []
    for epoch in range(tcfg.epochs):
        order = rng.named(f"shuffle-{epoch}").permutation(len(split))
        for bi in range(steps_per_epoch):
            chosen = order[bi * tcfg.batch_size : (bi + 1) * tcfg.batch_size]
            plan.append((epoch, bi, chosen, rng.named(f"aug-{epoch}-{bi}")))
    history = []
    ahead = views_needed(loss_cfg)[0] and aug_cfg.image_mode != "none" and prefetch.available()
    with (
        ViewWorker(split, aug_cfg, [(chosen, aug_rng) for _, _, chosen, aug_rng in plan])
        if ahead else nullcontext()
    ) as worker:
        for step, (epoch, bi, chosen, aug_rng) in enumerate(plan):
            views = None if worker is None else worker.take()
            batch = assemble_batch(split, chosen, aug_cfg, aug_rng, loss_cfg=loss_cfg, images_aug=views)
            lr = schedule.lr_at(step)
            stats = train_step(
                model, batch, loss_cfg, optimizer, lr, rng.named(f"step-{epoch}-{bi}")
            )
            row = {"step": step, "epoch": epoch, "lr": lr, "loss": stats.loss, "tau": stats.tau}
            for name, value in sorted(stats.terms.items()):
                row[f"loss_{name}"] = value
            history.append(row)
            if on_step is not None:
                on_step(row)
    return FitResult(model=model, history=history, schedule=schedule)
