"""Text-to-image retrieval metrics.

Queries are a split's captions, read as its tokens (`Split.tokens`), the
gallery is its images (`unique_images`), and a gallery item is relevant to a
query when their identities match. Scores are cosine similarities
(embeddings arrive L2-normalized, so a plain dot product). Conventions, also
printed in every report header:

  ranking    descending score; equal scores keep ascending gallery order
  Rank-k     fraction of queries with a relevant item in the top k
  mAP        per query, mean over relevant items of precision at that
             item's rank; averaged over queries
  mINP       per query, |relevant| divided by the rank of the last
             relevant item (1.0 when the relevant set fills the top
             ranks exactly); averaged over queries

`evaluate_model` encodes the gallery and the queries EVAL_BLOCK rows per
call and keeps only each block's embeddings, so an evaluation never holds
the activations of a whole split. A row's embedding does not depend on the
other rows of its call, so the blocks give the bytes one call would
(the test suite pins this on the BLAS in use). `rank1_scorer` keeps the
full activation caches of both towers, because its probes continue from
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Model,
    clone_model,
    encode_image,
    encode_text,
    image_chain,
    image_from,
    text_chain,
    text_from,
)
from .numerics import ShapeMismatch

EVAL_BLOCK = 32  # rows per encode call in evaluate_model


class EmptyGallery(ValueError):
    """The gallery has no items."""


class NoPositive(ValueError):
    """A query has no relevant gallery item; its metrics are undefined."""


def rank_gallery(scores: np.ndarray) -> np.ndarray:
    """Gallery indices for one query, best first. Ties keep ascending
    gallery index (stable sort on negated scores)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ShapeMismatch(f"scores must be 1-d, got {scores.shape}")
    return np.argsort(-scores, kind="stable")


@dataclass(frozen=True)
class RetrievalReport:
    rank1: float
    rank5: float
    rank10: float
    mean_ap: float
    mean_inp: float
    n_queries: int
    n_gallery: int

    def lines(self) -> list:
        return [
            f"queries {self.n_queries}  gallery {self.n_gallery}",
            "conventions: descending score, stable ties; mAP = mean precision at",
            "each relevant rank; mINP = |relevant| / rank of last relevant item",
            f"Rank-1  {self.rank1:.4f}",
            f"Rank-5  {self.rank5:.4f}",
            f"Rank-10 {self.rank10:.4f}",
            f"mAP     {self.mean_ap:.4f}",
            f"mINP    {self.mean_inp:.4f}",
        ]

    def as_dict(self) -> dict:
        return {
            "rank1": self.rank1,
            "rank5": self.rank5,
            "rank10": self.rank10,
            "mAP": self.mean_ap,
            "mINP": self.mean_inp,
            "n_queries": self.n_queries,
            "n_gallery": self.n_gallery,
        }


def retrieval_metrics(sim: np.ndarray, query_ids, gallery_ids) -> RetrievalReport:
    """Metrics for a full similarity matrix (queries x gallery)."""
    sim = np.asarray(sim, dtype=np.float64)
    query_ids = np.asarray(query_ids)
    gallery_ids = np.asarray(gallery_ids)
    if sim.ndim != 2:
        raise ShapeMismatch(f"similarity must be 2-d, got {sim.shape}")
    nq, ng = sim.shape
    if ng == 0:
        raise EmptyGallery("gallery is empty")
    if len(query_ids) != nq or len(gallery_ids) != ng:
        raise ShapeMismatch(
            f"ids do not match similarity shape {sim.shape}: "
            f"{len(query_ids)} query ids, {len(gallery_ids)} gallery ids"
        )
    if np.isnan(sim).any():
        raise ValueError("similarity holds NaN, which has no rank")

    hits_at = {5: 0, 10: 0}
    ap_sum = 0.0
    inp_sum = 0.0
    for qi in range(nq):
        order = rank_gallery(sim[qi])
        relevant = gallery_ids[order] == query_ids[qi]
        n_rel = int(relevant.sum())
        if n_rel == 0:
            raise NoPositive(f"query {qi} (identity {query_ids[qi]}) has no relevant gallery item")
        ranks = np.flatnonzero(relevant) + 1  # 1-indexed ranks of relevant items
        for k in hits_at:
            hits_at[k] += int(ranks[0] <= k)
        precision = np.arange(1, n_rel + 1) / ranks
        ap_sum += precision.mean()
        inp_sum += n_rel / ranks[-1]

    return RetrievalReport(
        rank1=rank1_rate(sim, query_ids, gallery_ids),
        rank5=hits_at[5] / nq,
        rank10=hits_at[10] / nq,
        mean_ap=float(ap_sum / nq),
        mean_inp=float(inp_sum / nq),
        n_queries=nq,
        n_gallery=ng,
    )


def rank1_rate(sim: np.ndarray, query_ids, gallery_ids) -> float:
    """Share of queries whose top-ranked gallery item is relevant. The
    first maximum of a row is the item `rank_gallery` puts first (a stable
    sort on negated scores), so ties resolve the same way."""
    top = np.argmax(sim, axis=1)
    return int(np.count_nonzero(gallery_ids[top] == query_ids)) / len(query_ids)


def unique_images(split) -> tuple:
    """The gallery of a split and its identities: the image rows its
    captions reference, once each, in first-occurrence order (all of them,
    in order, unless the split was taken from another: `Split.take`)."""
    if not len(split):
        raise EmptyGallery("no captions")
    _, first = np.unique(split.image_of, return_index=True)
    rows = split.image_of[np.sort(first)]
    return split.images[rows], split.image_ids[rows]


def _embed_blocks(encode, model: Model, items) -> np.ndarray:
    """The embeddings of `items`, encoded EVAL_BLOCK rows per call; each
    call's cache is dropped before the next one runs."""
    return np.vstack([encode(model, items[i : i + EVAL_BLOCK])[0] for i in range(0, len(items), EVAL_BLOCK)])


def evaluate_model(model: Model, split) -> RetrievalReport:
    """Caption-to-image retrieval over one split: every caption queries the
    split's image gallery. Both towers run in blocks (`EVAL_BLOCK`)."""
    gallery, gallery_ids = unique_images(split)
    g_embed = _embed_blocks(encode_image, model, gallery)
    q_embed = _embed_blocks(encode_text, model, split.tokens)
    return retrieval_metrics(q_embed @ g_embed.T, split.ids, gallery_ids)


def rank1_scorer(reference: Model, split):
    """A function mapping a model to its Rank-1 on `split`, equal to
    `evaluate_model(model, split).rank1`.

    Both towers of `reference` are encoded once over the split,
    keeping every activation of the two passes. A probe with the
    reference's config recomputes each tower only from the lowest module
    whose tensors differ from the reference (`image_from`, `text_from`),
    on the cached activations below it, and reuses the reference
    embeddings of a tower it leaves unchanged. A probe with another config
    is encoded in full. The caches belong to a copy of `reference`, so
    later edits to it cannot stale them.
    """
    reference = clone_model(reference)
    gallery, gallery_ids = unique_images(split)
    orphans = np.flatnonzero(~np.isin(split.ids, gallery_ids))
    if len(orphans):
        qi = int(orphans[0])
        raise NoPositive(f"query {qi} (identity {split.ids[qi]}) has no relevant gallery item")
    ref_g, g_cache = encode_image(reference, gallery)
    ref_q, q_cache = encode_text(reference, split.tokens)
    chains = {
        tower: [reference.module_keys(m) for m in chain]
        for tower, chain in (("img", image_chain(reference.config)), ("txt", text_chain(reference.config)))
    }

    def first_change(model: Model, tower: str) -> int | None:
        """Index into the tower's chain of the lowest module whose tensors
        differ from the reference, or None when none does."""
        for start, keys in enumerate(chains[tower]):
            if not all(np.array_equal(model.params[k], reference.params[k]) for k in keys):
                return start
        return None

    def score(model: Model) -> float:
        if model.config != reference.config or model.params.keys() != reference.params.keys():
            g_embed = encode_image(model, gallery)[0]
            q_embed = encode_text(model, split.tokens)[0]
        else:
            start = first_change(model, "img")
            g_embed = ref_g if start is None else image_from(model, g_cache, start)[0]
            start = first_change(model, "txt")
            q_embed = ref_q if start is None else text_from(model, q_cache, start)[0]
        return rank1_rate(q_embed @ g_embed.T, split.ids, gallery_ids)

    return score
