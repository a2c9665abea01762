"""Training loop: warmup-cosine schedule, decoupled-weight-decay Adam, and
a step function that assembles the full loss stack from two encoded views
of each modality.

Gradient routing: every loss term is first lifted onto canonical gradient
slots, a (2N, d) image block over [original; augmented] rows and the same
for text. Pair terms touch the quarter they were computed on, view-level
terms touch a full block. The lifted terms are then combined linearly and
pushed through the encoder backward passes, one per encode call, summing
parameter gradients.

The optimizer skips frozen modules and dropped text layers entirely: their
tensors keep their exact bytes, which the freeze tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .augment import AugmentConfig, IdentityTranslator, Lexicon, augment_image, augment_text, tokenize
from .losses import EmbeddingBatch, LossConfig, LossResult
from .model import Model, backward_image, backward_text, encode_image, encode_text, module_of
from .numerics import Rng, softmax_rows

LOG_TAU_MIN = math.log(0.01)


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
        if min(self.lr_init, self.lr_peak, self.lr_final) <= 0:
            raise ValueError("learning rates must be positive")

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
    are never decayed."""

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
            params[key] = p - update


# ---------------------------------------------------------------------------
# batches


@dataclass
class Batch:
    images: np.ndarray  # (N, H, W, 3) originals
    images_aug: np.ndarray  # (N, H, W, 3) augmented views
    tokens: list  # N token lists
    tokens_aug: list
    ids: np.ndarray  # (N,) identities


def assemble_batch(
    samples,
    aug_cfg: AugmentConfig,
    rng: Rng,
    lexicon: Lexicon | None = None,
    translator=None,
) -> Batch:
    """Augmented views for one batch; per-sample child streams keep the
    result independent of batch size boundaries elsewhere."""
    if len(samples) < 2:
        raise BatchTooSmall(f"need at least 2 samples, got {len(samples)}")
    if translator is None:
        translator = IdentityTranslator()
    images, images_aug, tokens, tokens_aug, ids = [], [], [], [], []
    for i, s in enumerate(samples):
        child = rng.child(i)
        images.append(s.image)
        images_aug.append(augment_image(s.image, aug_cfg, child.named("image")))
        toks = tokenize(s.caption)
        tokens.append(toks)
        tokens_aug.append(augment_text(toks, aug_cfg, lexicon, translator, child.named("text")))
        ids.append(s.identity)
    return Batch(
        images=np.stack(images),
        images_aug=np.stack(images_aug),
        tokens=tokens,
        tokens_aug=tokens_aug,
        ids=np.array(ids, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# the step

_NEEDS_IMG_ALT = ("ss_i", "ss_it", "mvs_i", "mvs_it")
_NEEDS_TXT_ALT = ("ss_t", "ss_it", "mvs_t", "mvs_it")


@dataclass
class StepStats:
    loss: float
    terms: dict
    tau: float
    lr: float


def _lift(result: LossResult, n: int, d: int, img_rows, txt_rows) -> LossResult:
    """Embed a term's gradients into the canonical (2N, d) slots."""
    gi = np.zeros((2 * n, d))
    gt = np.zeros((2 * n, d))
    if result.grad_image is not None:
        gi[img_rows] = result.grad_image
    if result.grad_text is not None:
        gt[txt_rows] = result.grad_text
    return LossResult(
        value=result.value, grad_image=gi, grad_text=gt, grad_log_tau=result.grad_log_tau
    )


def loss_and_grads(model: Model, batch: Batch, loss_cfg: LossConfig, rng: Rng):
    """Loss value and parameter gradients for one batch, no update.

    Encodes only the views the active terms need, lifts every term onto
    the canonical gradient slots, combines them with the configured
    weights, and backpropagates through each encode call. Dropout streams
    derive from `rng` by name, so the same rng reproduces the same masks.

    Returns (value, grads, term_values).
    """
    n = len(batch.ids)
    d = model.config.embed_dim
    w = loss_cfg.weights
    active = {k for k, v in w.items() if v > 0}
    need_img_alt = bool(active.intersection(_NEEDS_IMG_ALT))
    need_txt_alt = bool(active.intersection(_NEEDS_TXT_ALT))

    z_img, cache_img = encode_image(model, batch.images)
    z_txt, cache_txt = encode_text(model, batch.tokens, train=True, rng=rng.named("drop-txt"))
    z_img_alt = cache_img_alt = z_txt_alt = cache_txt_alt = None
    if need_img_alt:
        z_img_alt, cache_img_alt = encode_image(model, batch.images_aug)
    if need_txt_alt:
        z_txt_alt, cache_txt_alt = encode_text(
            model, batch.tokens_aug, train=True, rng=rng.named("drop-txt-alt")
        )

    if loss_cfg.diagonal_labels:
        labels = losses.diagonal_label_matrix(n)
    else:
        labels = losses.build_labels(batch.ids, batch.ids)

    tau = model.tau

    def eb(z):
        return EmbeddingBatch(z, batch.ids, normalized=True)

    orig, alt = slice(0, n), slice(n, 2 * n)
    terms = {}

    if "n_itc" in active:
        n_labels = labels
        if loss_cfg.soft_label:
            # targets mix in the model's own current matching distribution;
            # the distribution itself is held constant (no gradient through it)
            sim = z_img @ z_txt.T
            n_labels = losses.soft_label(
                labels, softmax_rows(sim, tau), softmax_rows(sim.T, tau)
            )
        res = losses.n_itc(eb(z_img), eb(z_txt), n_labels, tau)
        terms["n_itc"] = _lift(res, n, d, orig, orig)
    if "r_itc" in active:
        res = losses.r_itc(eb(z_img), eb(z_txt), labels, tau, eps=loss_cfg.eps)
        terms["r_itc"] = _lift(res, n, d, orig, orig)
    if "c_itc" in active:
        res = losses.c_itc(eb(z_img), eb(z_txt))
        terms["c_itc"] = _lift(res, n, d, orig, orig)

    if active.intersection(("mvs_i", "mvs_t", "mvs_it")):
        mvs = losses.mvs_terms(
            eb(z_img),
            eb(z_img_alt) if need_img_alt else None,
            eb(z_txt),
            eb(z_txt_alt) if need_txt_alt else None,
            labels,
            tau,
            wanted=active.intersection(("mvs_i", "mvs_t", "mvs_it")),
        )
        rows = {"mvs_i": (alt, orig), "mvs_t": (orig, alt), "mvs_it": (alt, alt)}
        for name, res in mvs.items():
            terms[name] = _lift(res, n, d, *rows[name])

    if active.intersection(("ss_i", "ss_t", "ss_it")):
        pairing = losses.make_view_pairing(n)
        view_ids = np.concatenate([batch.ids, batch.ids])

    def views(a, b):
        return EmbeddingBatch(np.vstack([a, b]), view_ids, normalized=True)

    if active.intersection(("ss_i", "ss_it")):
        res = losses.ss_loss(views(z_img, z_img_alt), pairing, loss_cfg.tau_s)
        lifted = LossResult(value=res.value, grad_image=res.grad_image, grad_text=np.zeros((2 * n, d)))
        if "ss_i" in active:
            terms["ss_i"] = lifted
        if "ss_it" in active:
            terms["ss_it"] = lifted
    if active.intersection(("ss_t", "ss_it")):
        res = losses.ss_loss(views(z_txt, z_txt_alt), pairing, loss_cfg.tau_s)
        lifted = LossResult(value=res.value, grad_image=np.zeros((2 * n, d)), grad_text=res.grad_image)
        if "ss_t" in active:
            terms["ss_t"] = lifted
        if "ss_it" in active:
            # both-modality term: sum the two view losses under one weight
            prev = terms.get("ss_it")
            if prev is None:
                terms["ss_it"] = lifted
            else:
                terms["ss_it"] = LossResult(
                    value=prev.value + lifted.value,
                    grad_image=prev.grad_image,
                    grad_text=lifted.grad_text,
                    grad_log_tau=0.0,
                )

    total = losses.stack(loss_cfg, terms)
    if not np.isfinite(total.value):
        raise NonFiniteLoss(f"loss became {total.value}")

    grads: dict = {}
    backward_image(model, cache_img, total.grad_image[orig], grads)
    if need_img_alt:
        backward_image(model, cache_img_alt, total.grad_image[alt], grads)
    backward_text(model, cache_txt, total.grad_text[orig], grads)
    if need_txt_alt:
        backward_text(model, cache_txt_alt, total.grad_text[alt], grads)
    grads["log_tau"] = np.asarray(total.grad_log_tau)

    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise NonFiniteLoss("a parameter gradient became non-finite")

    return float(total.value), grads, {k: float(v.value) for k, v in terms.items()}


def train_step(
    model: Model,
    batch: Batch,
    loss_cfg: LossConfig,
    optimizer: AdamW,
    lr: float,
    rng: Rng,
) -> StepStats:
    """One optimization step: gradients, update, temperature clamp.

    Frozen modules and dropped text layers are excluded from the update,
    so their tensors keep their exact bytes.
    """
    value, grads, term_values = loss_and_grads(model, batch, loss_cfg, rng)

    skip = set()
    dropped = {f"txt.hidden.{i}" for i in model.config.dropped_text_layers}
    for key in grads:
        mod = module_of(key)
        if mod in model.frozen or mod in dropped:
            skip.add(key)
    optimizer.step(model.params, grads, lr, skip=skip)
    if model.params["log_tau"] < LOG_TAU_MIN:
        model.params["log_tau"] = np.array(LOG_TAU_MIN)

    return StepStats(loss=value, terms=term_values, tau=model.tau, lr=lr)


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 25
    batch_size: int = 64
    lr_init: float = 1e-6
    lr_peak: float = 1e-4
    lr_final: float = 5e-6
    warmup_frac: float = 0.1
    weight_decay: float = 0.02

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 2:
            raise ValueError("need epochs >= 1 and batch_size >= 2")


@dataclass
class FitResult:
    model: Model
    history: list  # one dict per step
    schedule: Schedule


def _epoch_batches(n_samples: int, batch_size: int) -> int:
    full, rem = divmod(n_samples, batch_size)
    return full + (1 if rem >= 2 else 0)


def fit(
    model: Model,
    samples,
    loss_cfg: LossConfig,
    aug_cfg: AugmentConfig,
    tcfg: TrainConfig,
    rng: Rng,
    lexicon: Lexicon | None = None,
    translator=None,
    on_step=None,
) -> FitResult:
    """Train in place over identity-labelled samples.

    Epoch order, augmentation, and dropout all derive from named child
    streams of `rng`, so one seed fixes the whole run. A trailing partial
    batch is kept when it still holds two samples and dropped otherwise.
    """
    if len(samples) < 2:
        raise BatchTooSmall(f"need at least 2 training samples, got {len(samples)}")
    steps_per_epoch = _epoch_batches(len(samples), tcfg.batch_size)
    schedule = Schedule(
        total_steps=tcfg.epochs * steps_per_epoch,
        lr_init=tcfg.lr_init,
        lr_peak=tcfg.lr_peak,
        lr_final=tcfg.lr_final,
        warmup_frac=tcfg.warmup_frac,
    )
    optimizer = AdamW(weight_decay=tcfg.weight_decay)
    history = []
    step = 0
    for epoch in range(tcfg.epochs):
        order = rng.named(f"shuffle-{epoch}").permutation(len(samples))
        for bi in range(steps_per_epoch):
            chosen = order[bi * tcfg.batch_size : (bi + 1) * tcfg.batch_size]
            batch = assemble_batch(
                [samples[i] for i in chosen],
                aug_cfg,
                rng.named(f"aug-{epoch}-{bi}"),
                lexicon=lexicon,
                translator=translator,
            )
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
            step += 1
    return FitResult(model=model, history=history, schedule=schedule)
