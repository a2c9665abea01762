"""Synthetic person-retrieval corpus: rendered figures plus captions.

Each identity is an attribute bundle (shirt color, pants color, accessory).
The encoders in this package pool per-patch and per-token features, so two
identities whose images contain the same multiset of colored regions would
be indistinguishable, and likewise two captions with the same word bag.
Identities are therefore sampled so that the unordered attribute-word bag
{shirt color, pants color, accessory} is unique per identity, and the two
garment colors are always distinct so every bag has exactly five words
(equal-size bags keep the overlap argmax strict; a four-word bag would tie
with its five-word neighbors). With 12 garment colors and 5 accessories
that gives C(12,2) * 5 = 330 distinct identities.

Every caption contains exactly the five attribute words of its identity
(two colors, "shirt", "pants", one accessory) plus template filler, so a
bag-of-words matcher over attribute words retrieves the right identity at
rank 1 by exact-overlap argmax. That matcher is the corpus's correctness
oracle; a trained encoder has to rediscover the same structure from pixels.

Images are rendered on the uint8 grid and stored as the (H, W, 3) uint8
arrays they are rendered as, one byte per value, where k means the pixel
value k/255. They are read as numbers only where a tower or an
augmentation reads them (`numerics.pixels`). A sample image may also be
float64 in [0, 1], for a loaded record that is off the grid.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .augment import tokenize
from .numerics import Rng
from .schema import load


class SpecTooLarge(ValueError):
    """More identities requested than distinct attribute bags exist."""


class ParseError(ValueError):
    """A dataset file line could not be decoded; carries the line number."""


class MissingField(ParseError):
    """A dataset record lacks a required key."""


GARMENT_COLORS = {
    "red": (200, 30, 30),
    "green": (30, 160, 40),
    "blue": (30, 60, 200),
    "yellow": (225, 200, 40),
    "orange": (235, 130, 30),
    "purple": (130, 40, 170),
    "pink": (240, 120, 170),
    "brown": (120, 80, 40),
    "black": (25, 25, 25),
    "white": (235, 235, 235),
    "gray": (128, 128, 128),
    "teal": (30, 150, 150),
}

# accessory -> (signature color, row span, col span); spans are for the
# unshifted 48x24 raster and sized so each accessory occupies a visibly
# different area of the patch grid
ACCESSORIES = {
    "hat": ((60, 35, 15), (0, 5), (6, 18)),
    "bag": ((245, 245, 215), (24, 36), (0, 5)),
    "scarf": ((170, 20, 90), (9, 13), (5, 19)),
    "glasses": ((15, 15, 35), (5, 8), (6, 18)),
    "backpack": ((90, 110, 30), (12, 28), (19, 24)),
}

SKIN = (205, 165, 135)

CAPTION_TEMPLATES = (
    "a person wearing a {sc} shirt and {pc} pants with a {acc}",
    "this person has a {sc} shirt {pc} pants and a {acc}",
    "someone in a {sc} shirt and {pc} pants wearing a {acc}",
    "a {sc} shirt and {pc} pants and a {acc} on this person",
)

ATTRIBUTE_WORDS = frozenset(GARMENT_COLORS) | frozenset(ACCESSORIES) | {"shirt", "pants"}


def identity_capacity() -> int:
    c = len(GARMENT_COLORS)
    return c * (c - 1) // 2 * len(ACCESSORIES)


@dataclass(frozen=True)
class IdentityAttrs:
    shirt_color: str
    pants_color: str
    accessory: str

    @property
    def words(self) -> frozenset:
        return frozenset(
            {self.shirt_color, self.pants_color, "shirt", "pants", self.accessory}
        )


@dataclass
class Sample:
    image: np.ndarray  # (H, W, 3) uint8, k meaning k/255; float64 in [0, 1] when off the grid
    caption: str
    identity: int


@dataclass(frozen=True)
class ToySpec:
    n_identities: int = 200
    images_per_identity: int = 3
    captions_per_image: int = 2
    height: int = 48
    width: int = 24
    split_fractions: tuple = (0.7, 0.1, 0.2)
    color_jitter: int = 10  # per-image, per-region, per-channel, in uint8 steps
    pixel_noise: int = 5  # per-pixel, in uint8 steps
    max_shift: int = 2  # vertical figure shift, rows

    def __post_init__(self):
        if self.n_identities < 1 or self.images_per_identity < 1 or self.captions_per_image < 1:
            raise ValueError("counts must be >= 1")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9 or len(self.split_fractions) != 3:
            raise ValueError(f"split fractions must be 3 values summing to 1, got {self.split_fractions}")
        if min(self.split_fractions) < 0:
            raise ValueError("split fractions must be nonnegative")
        if self.height < 48 or self.width < 24:
            raise ValueError("raster must be at least 48x24 to fit the figure layout")
        if self.n_identities > identity_capacity():
            raise SpecTooLarge(
                f"{self.n_identities} identities requested but only "
                f"{identity_capacity()} distinct attribute bags exist"
            )


@dataclass
class ToyDataset:
    spec: ToySpec
    attrs: dict  # identity -> IdentityAttrs
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def split(self, name: str) -> list:
        try:
            return {"train": self.train, "val": self.val, "test": self.test}[name]
        except KeyError:
            raise KeyError(f"unknown split '{name}'") from None


def _sample_identities(n: int, rng: Rng) -> list:
    """n identities with pairwise-distinct attribute-word bags (`ToySpec` bounds n)."""
    colors = list(GARMENT_COLORS)
    pairs = [
        (colors[i], colors[j]) for i in range(len(colors)) for j in range(i + 1, len(colors))
    ]
    combos = [(p, a) for p in pairs for a in ACCESSORIES]
    order = rng.named("identity-combos").permutation(len(combos))
    out = []
    for k in order[:n]:
        (ca, cb), acc = combos[k]
        # orient the unordered pair into (shirt, pants) at random
        if rng.named(f"orient-{k}").random() < 0.5:
            ca, cb = cb, ca
        out.append(IdentityAttrs(shirt_color=ca, pants_color=cb, accessory=acc))
    return out


def _render(spec: ToySpec, attrs: IdentityAttrs, rng: Rng) -> np.ndarray:
    """One uint8 image of the identity: figure on a light background."""
    h, w = spec.height, spec.width
    img = np.empty((h, w, 3), dtype=np.int64)
    img[:] = rng.integers(200, 241)

    def jitter(color):
        c = np.array(color, dtype=np.int64)
        if spec.color_jitter:
            c = c + rng.integers(-spec.color_jitter, spec.color_jitter + 1, size=3)
        return c

    shift = int(rng.integers(-spec.max_shift, spec.max_shift + 1)) if spec.max_shift else 0

    def block(r0, r1, c0, c1, color):
        img[max(r0 + shift, 0):min(r1 + shift, h), c0:c1] = jitter(color)

    block(2, 10, 8, 16, SKIN)
    block(10, 26, 4, 20, GARMENT_COLORS[attrs.shirt_color])
    block(26, 46, 6, 18, GARMENT_COLORS[attrs.pants_color])
    acc_color, (ar0, ar1), (ac0, ac1) = ACCESSORIES[attrs.accessory]
    block(ar0, ar1, ac0, ac1, acc_color)

    if spec.pixel_noise:
        img = img + rng.integers(-spec.pixel_noise, spec.pixel_noise + 1, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def _caption(attrs: IdentityAttrs, rng: Rng) -> str:
    t = CAPTION_TEMPLATES[int(rng.integers(0, len(CAPTION_TEMPLATES)))]
    return t.format(sc=attrs.shirt_color, pc=attrs.pants_color, acc=attrs.accessory)


def generate_toy(spec: ToySpec, rng: Rng) -> ToyDataset:
    """Full corpus with identity-disjoint train/val/test splits."""
    identities = _sample_identities(spec.n_identities, rng)
    attrs = dict(enumerate(identities))

    n = spec.n_identities
    order = rng.named("split").permutation(n)
    n_train = int(round(spec.split_fractions[0] * n))
    n_val = int(round(spec.split_fractions[1] * n))
    split_of = {}
    for pos, ident in enumerate(order):
        split_of[int(ident)] = "train" if pos < n_train else "val" if pos < n_train + n_val else "test"

    ds = ToyDataset(spec=spec, attrs=attrs)
    for ident in range(n):
        id_rng = rng.named(f"identity-{ident}")
        bucket = ds.split(split_of[ident])
        for j in range(spec.images_per_identity):
            img_rng = id_rng.child(j)
            image = _render(spec, attrs[ident], img_rng.named("render"))
            for c in range(spec.captions_per_image):
                caption = _caption(attrs[ident], img_rng.named(f"caption-{c}"))
                bucket.append(Sample(image=image, caption=caption, identity=ident))
    return ds


# ---------------------------------------------------------------------------
# oracle matcher


def caption_attribute_words(caption: str) -> frozenset:
    return frozenset(tokenize(caption)) & ATTRIBUTE_WORDS


def oracle_rank1(samples, attrs) -> float:
    """Bag-of-words retrieval over attribute words: each caption queries the
    image list, scored by attribute-bag overlap with the image identity's
    bag, ties broken by list order. Returns the fraction of queries whose
    top image shares their identity. Unique bags make this 1.0 by design."""
    if not samples:
        raise ValueError("no samples")
    gallery_words = [attrs[s.identity].words for s in samples]
    hits = 0
    for q in samples:
        q_words = caption_attribute_words(q.caption)
        scores = np.array([len(q_words & gw) for gw in gallery_words])
        top = int(np.argmax(scores))  # first maximum: list-order tie break
        hits += samples[top].identity == q.identity
    return hits / len(samples)


# ---------------------------------------------------------------------------
# serialization

_REQUIRED_HEADER = ("kind", "spec", "attrs")
_REQUIRED_SAMPLE = ("split", "identity", "caption", "image_mode", "image_b64", "h", "w")


def _encode_image(image: np.ndarray) -> tuple:
    """Compact uint8 encoding for a uint8 image or a float image whose every
    pixel sits on the k/255 grid, otherwise raw float64 bytes."""
    if image.dtype == np.uint8:
        return "u8", base64.b64encode(image.tobytes()).decode("ascii")
    scaled = image * 255.0
    rounded = np.round(scaled)
    if np.max(np.abs(scaled - rounded)) < 1e-9 and rounded.min() >= 0 and rounded.max() <= 255:
        return "u8", base64.b64encode(rounded.astype(np.uint8).tobytes()).decode("ascii")
    return "f64", base64.b64encode(np.ascontiguousarray(image, dtype="<f8").tobytes()).decode("ascii")


def _decode_image(rec: dict, spec: ToySpec) -> np.ndarray:
    """A record's image: uint8 from a `u8` payload, float64 from `f64`. Its
    `h` and `w` must be the header's raster."""
    for key, want in (("h", spec.height), ("w", spec.width)):
        # bool is an int subclass, and True is not a raster size
        if type(rec[key]) is not int or rec[key] != want:
            raise ValueError(
                f"image {key} is {rec[key]!r}, but the header's raster is {spec.height}x{spec.width}"
            )
    raw = base64.b64decode(rec["image_b64"].encode("ascii"))
    mode = rec["image_mode"]
    if mode == "u8":
        arr = np.frombuffer(raw, dtype=np.uint8)
    elif mode == "f64":
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    else:
        raise ValueError(f"unknown image mode '{mode}'")
    expected = spec.height * spec.width * 3
    if arr.size != expected:
        raise ValueError(f"image payload has {arr.size} values, expected {expected}")
    return arr.reshape(spec.height, spec.width, 3).copy()


def save_jsonl(dataset: ToyDataset, path):
    """One JSON object per line: a header, then every sample."""
    header = {
        "kind": "toy-dataset",
        "spec": asdict(dataset.spec),
        "attrs": {
            str(i): [a.shirt_color, a.pants_color, a.accessory]
            for i, a in sorted(dataset.attrs.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for split in ("train", "val", "test"):
            for s in dataset.split(split):
                mode, blob = _encode_image(s.image)
                rec = {
                    "split": split,
                    "identity": s.identity,
                    "caption": s.caption,
                    "image_mode": mode,
                    "image_b64": blob,
                    "h": s.image.shape[0],
                    "w": s.image.shape[1],
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_jsonl(path) -> ToyDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("line 1: empty dataset file")

    def parse(lineno, text):
        try:
            return json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"line {lineno}: {e.msg}") from None

    header = parse(1, lines[0])
    for key in _REQUIRED_HEADER:
        if key not in header:
            raise MissingField(f"line 1: header missing '{key}'")
    if header["kind"] != "toy-dataset":
        raise ParseError(f"line 1: unknown kind '{header['kind']}'")
    spec = load(ToySpec, header["spec"], "data")
    attrs = {
        int(i): IdentityAttrs(shirt_color=v[0], pants_color=v[1], accessory=v[2])
        for i, v in header["attrs"].items()
    }
    ds = ToyDataset(spec=spec, attrs=attrs)
    for lineno, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        rec = parse(lineno, text)
        for key in _REQUIRED_SAMPLE:
            if key not in rec:
                raise MissingField(f"line {lineno}: record missing '{key}'")
        try:
            image = _decode_image(rec, spec)
        except ValueError as e:
            raise ParseError(f"line {lineno}: {e}") from None
        try:
            bucket = ds.split(rec["split"])
        except KeyError:
            raise ParseError(f"line {lineno}: unknown split '{rec['split']}'") from None
        bucket.append(Sample(image=image, caption=rec["caption"], identity=rec["identity"]))
    return ds


# ---------------------------------------------------------------------------
# helpers used by training and experiments


def build_vocab(samples) -> tuple:
    """Sorted unique tokens of the given captions. Train-split captions
    only; unseen words map to the unknown bucket at encode time."""
    words = set()
    for s in samples:
        words.update(tokenize(s.caption))
    return tuple(sorted(words))


def few_shot(samples, fraction: float, rng: Rng) -> list:
    """Identity-level subsample: keep a fraction of the identities, with
    every sample of a kept identity. fraction 1.0 returns the full list."""
    if not (0 < fraction <= 1):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ids = sorted({s.identity for s in samples})
    if fraction == 1.0:
        return list(samples)
    keep_n = max(1, int(np.floor(fraction * len(ids) + 0.5)))
    order = rng.permutation(len(ids))
    kept = {ids[i] for i in order[:keep_n]}
    return [s for s in samples if s.identity in kept]
