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

Each split is two tables in generation order (`Split`): its distinct
images with their identities, and its captions, each with its image's row
and identity; a training example or a query is one caption with its image.
Which captions share an image is decided once, by `SplitBuilder`, for
`generate_toy` and `load_jsonl` alike. Images are stored as the uint8
values they are rendered as, where k means the pixel value k/255, and read
as numbers only where a tower or an augmentation reads them
(`numerics.pixels`); a split's image table is float64 in [0, 1] instead
when some loaded image is off the grid.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .augment import tokenize
from .numerics import Rng, pixels
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


SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class Split:
    """One split as an image table and a caption table. Equal splits hold
    equal tables: image dtypes and bytes, rows, captions and identities."""

    images: np.ndarray  # (M, H, W, 3) uint8, k meaning k/255; float64 in [0, 1] when some image is off the grid
    image_ids: np.ndarray  # (M,) int64 identity of each image
    captions: tuple  # (N,) caption texts
    image_of: np.ndarray  # (N,) int64 image row of each caption
    ids: np.ndarray  # (N,) int64 identity of each caption

    def __len__(self) -> int:
        return len(self.captions)

    def __eq__(self, other):
        def tables(s):
            arrays = (s.images, s.image_ids, s.image_of, s.ids)
            return s.captions, [(a.dtype, a.shape, a.tobytes()) for a in arrays]
        return isinstance(other, Split) and tables(self) == tables(other)

    def take(self, rows) -> Split:
        """The captions at `rows`, in that order, over the same image table."""
        captions = tuple(self.captions[i] for i in rows)
        return replace(self, captions=captions, image_of=self.image_of[rows], ids=self.ids[rows])


def _as_stored(image: np.ndarray) -> np.ndarray:
    """An image as a split stores it and a file writes it: uint8 when every
    value is exactly some k/255, otherwise float64."""
    if image.dtype == np.uint8:
        return image
    image = np.asarray(image, dtype=np.float64)
    grid = np.round(image * 255)
    on_grid = ((grid >= 0) & (grid <= 255)).all() and pixels(grid.astype(np.uint8)).tobytes() == image.tobytes()
    return grid.astype(np.uint8) if on_grid else image


class SplitBuilder:
    """One split's tables, built from its captions in order: the one place
    that decides which captions share an image. An image with exactly an
    earlier image's pixel values is that image's row (a float64 copy of a
    uint8 image's pixels is; an off-grid copy is not), and its identity."""

    def __init__(self, spec: ToySpec):
        self._empty = np.zeros((0, spec.height, spec.width, 3), dtype=np.uint8)
        self._images = {}  # stored image bytes -> (image row, image, identity)
        self._captions = []  # (caption, image row, identity)

    def add(self, image: np.ndarray, caption: str, identity: int):
        image = _as_stored(image)
        row, _, owner = self._images.setdefault(image.tobytes(), (len(self._images), image, identity))
        if owner != identity:
            raise ValueError(f"the image of this identity-{identity} caption is identity {owner}'s")
        self._captions.append((caption, row, identity))

    def build(self) -> Split:
        _, images, image_ids = zip(*self._images.values()) if self._images else ((), (), ())
        if any(image.dtype != np.uint8 for image in images):
            images = [pixels(image) for image in images]
        captions, image_of, ids = zip(*self._captions) if self._captions else ((), (), ())
        image_ids, image_of, ids = (np.array(v, dtype=np.int64) for v in (image_ids, image_of, ids))
        return Split(np.stack(images) if images else self._empty, image_ids, captions, image_of, ids)


@dataclass
class ToyDataset:
    spec: ToySpec
    attrs: dict  # identity -> IdentityAttrs
    train: Split
    val: Split
    test: Split

    def split(self, name: str) -> Split:
        if name not in SPLITS:
            raise KeyError(f"unknown split '{name}'")
        return getattr(self, name)


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

    builders = {name: SplitBuilder(spec) for name in SPLITS}
    for ident in range(n):
        id_rng = rng.named(f"identity-{ident}")
        builder = builders[split_of[ident]]
        for j in range(spec.images_per_identity):
            img_rng = id_rng.child(j)
            image = _render(spec, attrs[ident], img_rng.named("render"))
            for c in range(spec.captions_per_image):
                builder.add(image, _caption(attrs[ident], img_rng.named(f"caption-{c}")), ident)
    return ToyDataset(spec, attrs, **{name: b.build() for name, b in builders.items()})


# ---------------------------------------------------------------------------
# oracle matcher


def caption_attribute_words(caption: str) -> frozenset:
    return frozenset(tokenize(caption)) & ATTRIBUTE_WORDS


def oracle_rank1(split, attrs) -> float:
    """Bag-of-words retrieval over attribute words: each caption queries the
    split's image table, scored by attribute-bag overlap with the image
    identity's bag, ties broken by row order. Returns the fraction of
    queries whose top image shares their identity (1.0 by design)."""
    if not len(split):
        raise ValueError("no captions")
    gallery = [attrs[i].words for i in split.image_ids.tolist()]
    # first maximum: row-order tie break
    top = [int(np.argmax([len(caption_attribute_words(c) & g) for g in gallery])) for c in split.captions]
    return float(np.mean(split.image_ids[top] == split.ids))


# ---------------------------------------------------------------------------
# serialization

_REQUIRED_HEADER = ("kind", "spec", "attrs")
_REQUIRED_SAMPLE = ("split", "identity", "caption", "image_mode", "image_b64", "h", "w")


def _encode_image(image: np.ndarray) -> tuple:
    """`u8` bytes for an image on the k/255 grid, raw float64 bytes otherwise."""
    image = _as_stored(image)
    if image.dtype == np.uint8:
        return "u8", base64.b64encode(image.tobytes()).decode("ascii")
    return "f64", base64.b64encode(image.astype("<f8").tobytes()).decode("ascii")


def _read_record(rec: dict, spec: ToySpec, attrs: dict) -> tuple:
    """A record's (image, caption, identity): an identity the header's attrs
    name, a string, and an image of the header's raster, uint8 from a `u8`
    payload and float64 from `f64`, whose values must be finite and in
    [0, 1]."""
    identity, caption = rec["identity"], rec["caption"]
    # bool is an int subclass, and True is neither an identity nor a raster size
    if type(identity) is not int or identity not in attrs:
        raise ValueError(f"identity {identity!r} is not a key of the header's attrs")
    if not isinstance(caption, str):
        raise ValueError(f"caption {caption!r} is not a string")
    for key, want in (("h", spec.height), ("w", spec.width)):
        if type(rec[key]) is not int or rec[key] != want:
            raise ValueError(
                f"image {key} is {rec[key]!r}, but the header's raster is {spec.height}x{spec.width}"
            )
    for key in ("image_mode", "image_b64"):
        if not isinstance(rec[key], str):
            raise ValueError(f"{key} {rec[key]!r} is not a string")
    mode = rec["image_mode"]
    if mode not in ("u8", "f64"):
        raise ValueError(f"unknown image mode '{mode}'")
    raw = base64.b64decode(rec["image_b64"].encode("ascii"))
    arr = np.frombuffer(raw, dtype=np.uint8 if mode == "u8" else "<f8")
    expected = spec.height * spec.width * 3
    if arr.size != expected:
        raise ValueError(f"image payload has {arr.size} values, expected {expected}")
    if mode == "f64":
        off = arr[~((arr >= 0) & (arr <= 1))]  # NaN fails both comparisons
        if off.size:
            raise ValueError(f"f64 image value {float(off[0])!r} is not a pixel value in [0, 1]")
    return arr.reshape(spec.height, spec.width, 3), caption, identity


def save_jsonl(dataset: ToyDataset, path):
    """One JSON object per line: a header, then every caption with its image."""
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
        for name in SPLITS:
            split = dataset.split(name)
            encoded = [_encode_image(image) for image in split.images]
            for caption, row, identity in zip(split.captions, split.image_of.tolist(), split.ids.tolist()):
                mode, blob = encoded[row]
                rec = dict(split=name, identity=identity, caption=caption, image_mode=mode, image_b64=blob,
                           h=dataset.spec.height, w=dataset.spec.width)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_jsonl(path) -> ToyDataset:
    """The corpus `save_jsonl` wrote, its splits built as `generate_toy`
    builds them (`SplitBuilder`). A bad line raises ParseError naming it."""
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
    if not isinstance(header["attrs"], dict):
        raise ParseError("line 1: header attrs is not an object")
    for key, words in header["attrs"].items():
        if not (key.isdecimal() and isinstance(words, list) and len(words) == 3
                and all(isinstance(w, str) for w in words)):
            raise ParseError(f"line 1: attrs {key!r}: {words!r} is not an identity's [shirt, pants, accessory]")
    attrs = {int(key): IdentityAttrs(*words) for key, words in header["attrs"].items()}
    builders = {name: SplitBuilder(spec) for name in SPLITS}
    for lineno, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        rec = parse(lineno, text)
        for key in _REQUIRED_SAMPLE:
            if key not in rec:
                raise MissingField(f"line {lineno}: record missing '{key}'")
        try:
            if rec["split"] not in SPLITS:
                raise ValueError(f"unknown split '{rec['split']}'")
            builders[rec["split"]].add(*_read_record(rec, spec, attrs))
        except ValueError as e:
            raise ParseError(f"line {lineno}: {e}") from None
    return ToyDataset(spec, attrs, **{name: b.build() for name, b in builders.items()})


# ---------------------------------------------------------------------------
# helpers used by training and experiments


def build_vocab(split) -> tuple:
    """Sorted unique tokens of a split's captions. Train-split captions
    only; unseen words map to the unknown bucket at encode time."""
    words = set()
    for caption in split.captions:
        words.update(tokenize(caption))
    return tuple(sorted(words))


def few_shot(split: Split, fraction: float, rng: Rng) -> Split:
    """Identity-level subsample: the captions of a fraction of the
    identities, over the same image table; fraction 1.0 is the split."""
    if not (0 < fraction <= 1):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return split
    ids = np.unique(split.ids)
    keep_n = max(1, int(np.floor(fraction * len(ids) + 0.5)))
    order = rng.permutation(len(ids))
    return split.take(np.flatnonzero(np.isin(split.ids, ids[order[:keep_n]])))
