"""Contrastive loss suite with analytic gradients.

All losses take (N, d) arrays of unit-norm rows (L2-normalized embeddings)
and return both the scalar value and exact gradients with respect to those
rows and with respect to log(tau). No autodiff is involved: every
gradient below is derived by hand and checked against central finite
differences in the test suite.

Loss family
-----------
n_itc   cross-modal contrastive loss with identity-aware soft targets
        (row-normalized label matrix instead of a hard diagonal)
ss_loss self-supervised contrast between two augmented views of one modality
mvs     n_itc applied across re-augmented views (image / text / both)
r_itc   reverse KL between the model distribution and the label distribution
c_itc   cyclic consistency: in-modality similarity structure of images and
        texts must match, and cross-modal similarity must be symmetric

Conventions: N is the batch size, d the embedding dim, S = F_I @ F_T^T the
cross similarity matrix, P a row softmax of S / tau. "i2t" rows range over
images, "t2i" rows over texts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    NonPositiveTemperature,
    ShapeMismatch,
    log_softmax_rows,
)

# (image view, text view) each term reads: "orig" the original input, "alt"
# its augmented view, "both" the two stacked as [orig; alt] for the SS view
# contrast, None a modality the term ignores. The trainer encodes views and
# routes gradients from this table alone.
TERM_VIEWS = {
    "n_itc": ("orig", "orig"),
    "ss_i": ("both", None),
    "ss_t": (None, "both"),
    "ss_it": ("both", "both"),
    "mvs_i": ("alt", "orig"),
    "mvs_t": ("orig", "alt"),
    "mvs_it": ("alt", "alt"),
    "r_itc": ("orig", "orig"),
    "c_itc": ("orig", "orig"),
}
KNOWN_LOSSES = tuple(TERM_VIEWS)


class LengthMismatch(ValueError):
    """The image and text identity lists of a batch differ in length."""


class NotNormalized(ValueError):
    """An operation required row-normalized embeddings."""


class BadPairing(ValueError):
    """A label or view pairing is structurally invalid."""


class MissingTerm(KeyError):
    """A stack weight refers to a loss term that was not supplied."""


class UnknownTerm(KeyError):
    """A loss weight names a term outside TERM_VIEWS."""


@dataclass
class LabelMatrix:
    """Ground-truth pairing matrix and its row-normalized forms.

    q[i, j] = 1 iff image i and text j share an identity. q_hat normalizes
    each image row over texts; q_hat_rev normalizes each text row over
    images (rows of q^T). After `soft_label` the two normalized forms can
    differ from plain normalization, which is why both are stored.
    """

    q: np.ndarray
    q_hat: np.ndarray
    q_hat_rev: np.ndarray

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass
class LossResult:
    """Scalar loss plus analytic gradients w.r.t. the inputs.

    grad_image / grad_text match the shapes of the arrays the loss was
    called with. For single-array losses (ss_loss) the gradient of the
    (2N, d) views array is carried in grad_image and grad_text is None.
    """

    value: float
    grad_image: np.ndarray | None = None
    grad_text: np.ndarray | None = None
    grad_log_tau: float = 0.0


@dataclass
class LossConfig:
    """Which loss terms are active and with what weight.

    tau_s is the fixed self-supervised temperature (not learned); eps is
    the label floor inside r_itc's log ratio; soft_label mixes the model's
    own prediction into the n_itc targets; diagonal_labels replaces
    identity-aware targets with the plain one-positive-per-row pairing.
    """

    weights: dict = field(default_factory=lambda: {"n_itc": 1.0})
    tau_s: float = 0.1
    eps: float = 1e-8
    soft_label: bool = False
    diagonal_labels: bool = False

    def __post_init__(self):
        for name, weight in self.weights.items():
            if name not in TERM_VIEWS:
                raise UnknownTerm(f"unknown loss term '{name}'; known: {KNOWN_LOSSES}")
            if not (0 <= weight < np.inf):
                raise ValueError(f"loss weight '{name}' must be finite and >= 0, got {weight}")
        if not any(w > 0 for w in self.weights.values()):
            raise ValueError("at least one loss weight must be positive")
        if not (0 < self.tau_s < np.inf):
            raise NonPositiveTemperature(f"tau_s must be finite and > 0, got {self.tau_s}")
        if not (0 < self.eps < np.inf):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")


def _unit_rows(z) -> np.ndarray:
    """`z` as a float64 (N, d) array, checked finite with unit-norm rows."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeMismatch(f"features must be 2-d, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("features contain NaN or Inf")
    deviation = np.abs(np.linalg.norm(z, axis=1) - 1.0).max()
    if deviation > 1e-9:
        raise NotNormalized(f"row norms deviate from 1 by {deviation:.3e}")
    return z


def _check_pair(img, txt, labels: LabelMatrix | None = None):
    """The checked (image, text) pair of embedding arrays."""
    img, txt = _unit_rows(img), _unit_rows(txt)
    if img.shape[1] != txt.shape[1]:
        raise ShapeMismatch(f"image dim {img.shape[1]} vs text dim {txt.shape[1]}")
    if len(img) != len(txt):
        raise ShapeMismatch(f"image batch {len(img)} vs text batch {len(txt)}")
    if labels is not None and labels.q.shape != (len(img), len(txt)):
        raise ShapeMismatch(f"labels {labels.q.shape} vs batch {(len(img), len(txt))}")
    return img, txt


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not np.isfinite(tau) or tau <= 0:
        raise NonPositiveTemperature(f"tau must be finite and > 0, got {tau}")
    return tau


def _row_normalize(q: np.ndarray) -> np.ndarray:
    sums = q.sum(axis=1, keepdims=True)
    if (sums == 0).any():
        raise BadPairing("a row of the label matrix has no positive")
    return q / sums


def build_labels(image_ids, text_ids) -> LabelMatrix:
    """Build the identity pairing matrix for a batch.

    q[i, j] = 1 where image i and text j carry the same identity, so a
    batch with repeated identities gets multiple positives per row and the
    normalized targets spread mass over all of them.
    """
    img = np.asarray(image_ids)
    txt = np.asarray(text_ids)
    if img.ndim != 1 or txt.ndim != 1 or img.shape != txt.shape:
        raise LengthMismatch(f"id lists must be equal-length 1-d, got {img.shape} vs {txt.shape}")
    q = (img[:, None] == txt[None, :]).astype(np.float64)
    return LabelMatrix(q=q, q_hat=_row_normalize(q), q_hat_rev=_row_normalize(q.T))


def diagonal_label_matrix(n: int) -> LabelMatrix:
    """Plain one-positive-per-row pairing: the classic contrastive target."""
    if n < 1:
        raise ValueError("need at least one pair")
    q = np.eye(n, dtype=np.float64)
    return LabelMatrix(q=q, q_hat=q.copy(), q_hat_rev=q.copy())


def soft_label(labels: LabelMatrix, p_i2t: np.ndarray, p_t2i: np.ndarray) -> LabelMatrix:
    """Mix the model's own predictions into the targets, per direction.

    The new target is 0.5 * (p + q_hat) where p is the model's current
    softmax over the batch, treated as a constant (no gradient flows into
    it). q itself is left untouched.
    """
    for name, p in (("p_i2t", p_i2t), ("p_t2i", p_t2i)):
        p = np.asarray(p, dtype=np.float64)
        if p.shape != labels.q.shape:
            raise ShapeMismatch(f"{name} shape {p.shape} vs labels {labels.q.shape}")
        if (p < 0).any() or np.abs(p.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValueError(f"{name} rows must be probability distributions")
    return LabelMatrix(
        q=labels.q.copy(),
        q_hat=0.5 * (np.asarray(p_i2t, dtype=np.float64) + labels.q_hat),
        q_hat_rev=0.5 * (np.asarray(p_t2i, dtype=np.float64) + labels.q_hat_rev),
    )


def _pair_result(value, h1, h2, s, img: np.ndarray, txt: np.ndarray, tau: float) -> LossResult:
    """The chain rule shared by the two-direction losses: h1 and h2 are the
    gradients of the loss w.r.t. the logits S / tau and S^T / tau."""
    ds = (h1 + h2.T) / tau
    return LossResult(
        value=float(value),
        grad_image=ds @ txt,
        grad_text=ds.T @ img,
        grad_log_tau=float(-(np.sum(h1 * s) + np.sum(h2 * s.T)) / tau),
    )


def n_itc(img: np.ndarray, txt: np.ndarray, labels: LabelMatrix, tau: float) -> LossResult:
    """Identity-aware contrastive loss over both retrieval directions.

        L = -(1/2N) [ sum_ij qhat_ij log p_ij  +  sum_ij qhat'_ij log p'_ij ]

    with p = softmax_rows(S / tau), p' = softmax_rows(S^T / tau).

    Gradients: with H = (rowsum(qhat) * p - qhat) / 2N per direction,
    dL/dS = (H + H'^T) / tau, which maps onto the features as
    dL/dF_I = (dL/dS) F_T and dL/dF_T = (dL/dS)^T F_I. The log-tau
    gradient is -sum(H * S + H' * S^T) / tau.
    """
    img, txt = _check_pair(img, txt, labels)
    tau = _check_tau(tau)
    n = len(img)
    s = img @ txt.T

    log_p1 = log_softmax_rows(s, tau)
    log_p2 = log_softmax_rows(s.T, tau)
    q1, q2 = labels.q_hat, labels.q_hat_rev
    value = -(np.sum(q1 * log_p1) + np.sum(q2 * log_p2)) / (2 * n)

    p1, p2 = np.exp(log_p1), np.exp(log_p2)
    h1 = (q1.sum(axis=1, keepdims=True) * p1 - q1) / (2 * n)
    h2 = (q2.sum(axis=1, keepdims=True) * p2 - q2) / (2 * n)
    return _pair_result(value, h1, h2, s, img, txt, tau)


def r_itc(
    img: np.ndarray,
    txt: np.ndarray,
    labels: LabelMatrix,
    tau: float,
    eps: float = 1e-8,
) -> LossResult:
    """Reverse KL from the label distribution to the model distribution:

        L = (1/2N) [ sum_ij p_ij log(p_ij / (qhat_ij + eps)) + t2i term ]

    Gradients: per direction with u = log(p / (qhat + eps)) and
    k_i = sum_j p_ij u_ij (the row KL), dL/dlogits = p * (u - k) / 2N;
    the (u + 1) term that differentiating p log p produces cancels because
    it is constant within a softmax row.
    """
    img, txt = _check_pair(img, txt, labels)
    tau = _check_tau(tau)
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    n = len(img)
    s = img @ txt.T

    log_p1 = log_softmax_rows(s, tau)
    log_p2 = log_softmax_rows(s.T, tau)
    p1, p2 = np.exp(log_p1), np.exp(log_p2)
    u1 = log_p1 - np.log(labels.q_hat + eps)
    u2 = log_p2 - np.log(labels.q_hat_rev + eps)
    value = (np.sum(p1 * u1) + np.sum(p2 * u2)) / (2 * n)

    k1 = np.sum(p1 * u1, axis=1, keepdims=True)
    k2 = np.sum(p2 * u2, axis=1, keepdims=True)
    h1 = p1 * (u1 - k1) / (2 * n)
    h2 = p2 * (u2 - k2) / (2 * n)
    return _pair_result(value, h1, h2, s, img, txt, tau)


def c_itc(img: np.ndarray, txt: np.ndarray) -> LossResult:
    """Cyclic consistency between the two modalities' similarity structure:

        L = (1/N) sum_ij (A_ij - B_ij)^2 + (1/N) sum_ij (S_ij - S_ji)^2

    with A = F_I F_I^T, B = F_T F_T^T, S = F_I F_T^T. Temperature-free.

    Gradients: with D = A - B (symmetric) and E = S - S^T (antisymmetric),
    dL/dF_I = (4/N)(D F_I + E F_T) and dL/dF_T = (4/N)(-D F_T + E^T F_I).
    """
    fi, ft = _check_pair(img, txt)
    n = len(fi)
    d = fi @ fi.T - ft @ ft.T
    e = fi @ ft.T - ft @ fi.T
    value = (np.sum(d * d) + np.sum(e * e)) / n
    return LossResult(
        value=float(value),
        grad_image=(4.0 / n) * (d @ fi + e @ ft),
        grad_text=(4.0 / n) * (-(d @ ft) + e.T @ fi),
        grad_log_tau=0.0,
    )


def make_view_pairing(n: int) -> np.ndarray:
    """Pairing for a stacked [first views; second views] batch: i <-> i + n."""
    return np.concatenate([np.arange(n) + n, np.arange(n)])


def ss_loss(views: np.ndarray, pairing, tau_s: float = 0.1) -> LossResult:
    """Self-supervised contrast between two views of the same items:

        L = -(1/2N) sum_i log [ exp(z_i . z_j(i) / tau_s)
                                / sum_{k != i} exp(z_i . z_k / tau_s) ]

    where j(i) pairs each view with its sibling. tau_s is a fixed
    hyperparameter, so no log-tau gradient is emitted.

    Gradients: with p the row softmax over k != i and
    W = (p - onehot(j)) / (2N tau_s), dL/dZ = (W + W^T) Z; the transpose
    term is the contribution each row makes as a negative (or positive)
    for every other anchor.

    `views` is a (2N, d) array of unit-norm rows; its gradient is returned
    in grad_image.
    """
    z = _unit_rows(views)
    m = z.shape[0]
    if m < 4 or m % 2 != 0:
        raise BadPairing(f"need an even number >= 4 of views, got {m}")
    pairing = np.asarray(pairing)
    if pairing.shape != (m,):
        raise BadPairing(f"pairing shape {pairing.shape} vs {m} views")
    idx = np.arange(m)
    if (pairing == idx).any() or not np.array_equal(pairing[pairing], idx):
        raise BadPairing("pairing must be an involution without fixed points")

    logits = z @ z.T / tau_s
    np.fill_diagonal(logits, -np.inf)  # an anchor never contrasts with itself
    row_max = logits.max(axis=1, keepdims=True)
    shifted = logits - row_max
    exp = np.exp(shifted)
    log_p = shifted - np.log(exp.sum(axis=1, keepdims=True))
    value = -log_p[idx, pairing].mean()

    p = np.exp(log_p)
    w = p.copy()
    w[idx, pairing] -= 1.0
    w /= m * tau_s
    return LossResult(
        value=float(value),
        grad_image=(w + w.T) @ z,
        grad_text=None,
        grad_log_tau=0.0,
    )


def mvs_terms(
    img: np.ndarray,
    img_alt: np.ndarray | None,
    txt: np.ndarray,
    txt_alt: np.ndarray | None,
    labels: LabelMatrix,
    tau: float,
    wanted=("mvs_i", "mvs_t", "mvs_it"),
) -> dict:
    """Contrastive terms across re-augmented views, all sharing `labels`.

    Each mvs_* term is n_itc on the image view and the text view that
    TERM_VIEWS names for it. Each result's grad_image / grad_text refer to
    the arrays actually used (the caller routes them onto the right view).
    `wanted` restricts the computed terms, so a view that no requested term
    touches may be passed as None.
    """
    names = [name for name in TERM_VIEWS if name.startswith("mvs_")]
    unknown = set(wanted) - set(names)
    if unknown:
        raise KeyError(f"unknown view terms {sorted(unknown)}")
    image, text = {"orig": img, "alt": img_alt}, {"orig": txt, "alt": txt_alt}
    views = {name: TERM_VIEWS[name] for name in names if name in set(wanted)}
    return {name: n_itc(image[vi], text[vt], labels, tau) for name, (vi, vt) in views.items()}


def stack(config: LossConfig, terms: dict) -> LossResult:
    """Weighted linear combination of loss terms.

    Values, matrix gradients and log-tau gradients all combine with the
    same weights. Terms whose configured weight is zero may be absent; a
    nonzero weight pointing at a missing term raises MissingTerm. A None
    gradient contributes nothing; present gradients for the same slot
    must agree in shape.
    """
    def add(acc, g, w):
        if g is None:
            return acc
        if acc is None:
            return w * g
        if acc.shape != g.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} vs accumulated {acc.shape}")
        return acc + w * g

    value = 0.0
    grad_log_tau = 0.0
    grad_image: np.ndarray | None = None
    grad_text: np.ndarray | None = None
    for name, weight in sorted(config.weights.items()):
        if weight == 0:
            continue
        if name not in terms:
            raise MissingTerm(f"loss term '{name}' has weight {weight} but was not computed")
        term = terms[name]
        value += weight * term.value
        grad_log_tau += weight * term.grad_log_tau
        grad_image = add(grad_image, term.grad_image, weight)
        grad_text = add(grad_text, term.grad_text, weight)
    return LossResult(
        value=float(value),
        grad_image=grad_image,
        grad_text=grad_text,
        grad_log_tau=float(grad_log_tau),
    )
