"""Corpus tests: identity uniqueness, split hygiene, the image and caption
tables and which captions share an image, the bag-of-words retrieval
oracle, serialization round trips, and few-shot subsampling."""

import base64
import dataclasses
import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from conftest import rebuilt

from tbpslab.augment import tokenize
from tbpslab.data import (
    ACCESSORIES,
    ATTRIBUTE_WORDS,
    GARMENT_COLORS,
    MissingField,
    ParseError,
    SpecTooLarge,
    SplitBuilder,
    ToySpec,
    build_vocab,
    caption_attribute_words,
    few_shot,
    generate_toy,
    identity_capacity,
    load_jsonl,
    oracle_rank1,
    save_jsonl,
)
from tbpslab.numerics import Rng, pixels

TINY = ToySpec(n_identities=20, images_per_identity=2, captions_per_image=1)
SPLITS = ("train", "val", "test")

# SHA-256 of save_jsonl files recorded while the corpus still held float64
# images: storing uint8 must not move a byte of the format
PINNED_FILES = {
    "on-grid": "43bac38b61806512682587619dca4d74cdfd99baee451af92dc25cd3cd2a9297",
    "one-off-grid": "f22cf66a352408c466f2e96ba741e9430fc94e04d86bbe64442d92e03cf907a1",
}


def f64_payload(value, at=None, shape=(48, 24, 3)) -> str:
    """A record's `f64` image payload: `value` everywhere but the flat
    positions `at` maps to their own values."""
    image = np.full(shape, value, dtype="<f8")
    for i, v in (at or {}).items():
        image.flat[i] = v
    return base64.b64encode(image.tobytes()).decode("ascii")


@pytest.fixture(scope="module")
def tiny():
    return generate_toy(TINY, Rng(501))


class TestSpec:
    def test_capacity(self):
        # 12 colors -> 66 distinct unordered pairs, times 5 accessories
        assert identity_capacity() == 330

    def test_too_many_identities(self):
        with pytest.raises(SpecTooLarge):
            generate_toy(ToySpec(n_identities=331), Rng(1))

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            ToySpec(split_fractions=(0.5, 0.5, 0.5))

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            ToySpec(n_identities=0)


class TestGeneration:
    def test_unique_attribute_bags(self):
        ds = generate_toy(ToySpec(n_identities=330, images_per_identity=1), Rng(7))
        bags = [a.words for a in ds.attrs.values()]
        assert len({frozenset(b) for b in bags}) == 330

    def test_split_sizes_and_disjoint(self):
        ds = generate_toy(ToySpec(n_identities=200, images_per_identity=1), Rng(7))
        ids = {name: set(ds.split(name).ids.tolist()) for name in SPLITS}
        assert len(ids["train"]) == 140
        assert len(ids["val"]) == 20
        assert len(ids["test"]) == 40
        assert not (ids["train"] & ids["val"])
        assert not (ids["train"] & ids["test"])
        assert not (ids["val"] & ids["test"])

    def test_sample_counts(self, tiny):
        total = len(tiny.train) + len(tiny.val) + len(tiny.test)
        assert total == 20 * 2 * 1

    def test_images_on_u8_grid(self, tiny):
        assert tiny.train.images.shape[1:] == (48, 24, 3)
        assert tiny.train.images.dtype == np.uint8

    def test_corpus_stores_one_byte_per_pixel_value(self):
        ds = generate_toy(ToySpec(n_identities=20, images_per_identity=2, captions_per_image=2), Rng(5))
        # the captions of one image share its row
        tables = [ds.split(name).images for name in SPLITS]
        assert sum(len(t) for t in tables) == 20 * 2
        assert sum(t.nbytes for t in tables) == 20 * 2 * 48 * 24 * 3

    def test_captions_carry_exactly_their_bag(self, tiny):
        for name in SPLITS:
            split = tiny.split(name)
            for caption, identity in zip(split.captions, split.ids.tolist()):
                assert caption_attribute_words(caption) == tiny.attrs[identity].words

    def test_caption_bag_has_five_words(self, tiny):
        for identity in tiny.train.ids.tolist():
            assert len(tiny.attrs[identity].words) == 5

    def test_deterministic(self):
        a = generate_toy(TINY, Rng(9))
        b = generate_toy(TINY, Rng(9))
        for name in SPLITS:
            assert len(a.split(name)) == len(b.split(name))
            assert a.split(name) == b.split(name)

    def test_views_of_identity_differ(self, tiny):
        rows = np.flatnonzero(tiny.train.image_ids == tiny.train.image_ids[0])
        assert len(rows) == 2
        assert not np.array_equal(tiny.train.images[rows[0]], tiny.train.images[rows[1]])

    def test_identities_visually_distinct(self, tiny):
        # mean absolute pixel difference across identities clearly exceeds
        # the within-identity jitter on average (background shade varies per
        # view, so individual pairs can come close)
        by_id = {}
        for image, identity in zip(tiny.train.images, tiny.train.image_ids.tolist()):
            by_id.setdefault(identity, []).append(pixels(image))
        keys = sorted(by_id)[:6]
        within, across = [], []
        for k in keys:
            if len(by_id[k]) >= 2:
                within.append(np.abs(by_id[k][0] - by_id[k][1]).mean())
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                across.append(np.abs(by_id[keys[i]][0] - by_id[keys[j]][0]).mean())
        assert np.mean(across) > 1.5 * np.mean(within)


TABLE_SPECS = [TINY, ToySpec(n_identities=12, images_per_identity=3, captions_per_image=2)]


class TestTables:
    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=["tiny", "two-captions"])
    def test_image_rows_per_identity(self, spec):
        ds = generate_toy(spec, Rng(6))
        for name in SPLITS:
            split = ds.split(name)
            assert set(Counter(split.image_ids.tolist()).values()) == {spec.images_per_identity}
            assert set(split.image_ids.tolist()) == set(split.ids.tolist())

    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=["tiny", "two-captions"])
    def test_caption_identity_is_its_images(self, spec):
        ds = generate_toy(spec, Rng(6))
        for name in SPLITS:
            split = ds.split(name)
            assert len(split) == len(split.image_of) == len(split.ids)
            assert np.array_equal(split.ids, split.image_ids[split.image_of])
            per_image = Counter(split.image_of.tolist())
            assert per_image == Counter({r: spec.captions_per_image for r in range(len(split.images))})

    def test_tables_in_generation_order(self):
        # captions of one image are adjacent, and image rows are numbered
        # in the order their first caption comes
        ds = generate_toy(ToySpec(n_identities=12, images_per_identity=3, captions_per_image=2), Rng(6))
        split = ds.train
        assert split.image_of.tolist() == [r for r in range(len(split.images)) for _ in range(2)]
        assert split.ids.tolist() == sorted(split.ids.tolist())

    def test_builder_shares_an_image_between_its_captions(self):
        # several captions of one photo are one row
        ds = generate_toy(ToySpec(n_identities=6, images_per_identity=2, captions_per_image=2), Rng(4))
        assert sum(len(ds.split(name)) for name in SPLITS) == 6 * 2 * 2
        assert sum(len(ds.split(name).images) for name in SPLITS) == 6 * 2
        for name in SPLITS:
            split = ds.split(name)
            assert len(split.image_ids) == len(split.images)

    def test_builder_merges_equal_pixel_values(self):
        # a float64 copy of an image's pixels is that image; an off-grid copy is not
        spec = ToySpec(n_identities=3, images_per_identity=1, captions_per_image=2)
        ds = generate_toy(spec, Rng(4))
        split = ds.train
        assert split.images.dtype == np.uint8 and len(split.images) == 2
        stored = [split.images[0], split.images[1]]
        off_grid = pixels(stored[1]) + 1e-4
        mixed = rebuilt(spec, split, {1: pixels(stored[0]), 3: off_grid})
        assert mixed.images.dtype == np.float64
        assert mixed.image_of.tolist() == [0, 0, 1, 2]
        assert mixed.images.tobytes() == np.stack([pixels(stored[0]), pixels(stored[1]), off_grid]).tobytes()
        assert mixed.image_ids.tolist() == [split.ids[0], split.ids[2], split.ids[3]]
        # float64 values exactly on the grid are stored as the uint8 they are
        assert rebuilt(spec, split, {0: pixels(stored[0]), 1: pixels(stored[0])}) == split

    def test_builder_keeps_a_uint8_table(self):
        builder = SplitBuilder(TINY)
        a, b = np.full((48, 24, 3), 200, np.uint8), np.zeros((48, 24, 3), np.uint8)
        builder.add(a, "a", 0)
        builder.add(b, "b", 1)
        split = builder.build()
        assert split.images.dtype == np.uint8 and split.images.shape == (2, 48, 24, 3)

    def test_builder_reads_uint8_as_k_over_255_in_a_float_table(self):
        # a plain np.stack would upcast the 200 to 200.0
        builder = SplitBuilder(TINY)
        builder.add(np.full((48, 24, 3), 200, np.uint8), "a", 0)
        builder.add(np.full((48, 24, 3), 0.5), "b", 1)
        split = builder.build()
        assert split.images.dtype == np.float64
        assert np.all(split.images[0] == 200 / 255.0) and np.all(split.images[1] == 0.5)

    def test_builder_rejects_one_image_for_two_identities(self):
        builder = SplitBuilder(TINY)
        image = np.zeros((48, 24, 3), np.uint8)
        builder.add(image, "a", 0)
        with pytest.raises(ValueError, match="identity 0's"):
            builder.add(image.copy(), "b", 1)

    def test_empty_split(self):
        split = SplitBuilder(TINY).build()
        assert len(split) == 0 and split.images.shape == (0, 48, 24, 3)
        assert generate_toy(ToySpec(n_identities=4, split_fractions=(1.0, 0.0, 0.0)), Rng(1)).val == split

    def test_take_keeps_the_image_table(self, tiny):
        part = tiny.train.take([3, 1])
        assert part.images is tiny.train.images
        assert part.captions == (tiny.train.captions[3], tiny.train.captions[1])
        assert part.image_of.tolist() == tiny.train.image_of[[3, 1]].tolist()
        assert part.ids.tolist() == tiny.train.ids[[3, 1]].tolist()


class TestOracle:
    def test_rank1_is_perfect_everywhere(self, tiny):
        for split in ("train", "val", "test"):
            assert oracle_rank1(tiny.split(split), tiny.attrs) == 1.0

    def test_rank1_full_corpus(self, tiny):
        builder = SplitBuilder(TINY)
        for name in SPLITS:
            split = tiny.split(name)
            for caption, row, identity in zip(split.captions, split.image_of, split.ids.tolist()):
                builder.add(split.images[row], caption, identity)
        assert oracle_rank1(builder.build(), tiny.attrs) == 1.0

    def test_shuffled_captions_break_it(self, tiny, rng):
        # sanity: the oracle is not trivially 1.0; mismatched captions drop it
        caps = tiny.test.captions
        order = rng.permutation(len(caps))
        shuffled = dataclasses.replace(tiny.test, captions=tuple(caps[k] for k in order))
        assert oracle_rank1(shuffled, tiny.attrs) < 1.0

    def test_empty_rejected(self, tiny):
        with pytest.raises(ValueError):
            oracle_rank1(tiny.train.take([]), tiny.attrs)


class TestSerialization:
    def test_round_trip_exact(self, tiny, tmp_path):
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        back = load_jsonl(path)
        assert back.spec == tiny.spec
        assert back.attrs == tiny.attrs
        for split in SPLITS:
            a, b = tiny.split(split), back.split(split)
            assert len(a) == len(b)
            assert a.images.tobytes() == b.images.tobytes() and a.images.dtype == b.images.dtype
            assert a.image_of.tolist() == b.image_of.tolist()
            assert a.captions == b.captions
            assert a.ids.tolist() == b.ids.tolist() and a.image_ids.tolist() == b.image_ids.tolist()
            assert a == b

    @pytest.mark.parametrize("spec", TABLE_SPECS, ids=["tiny", "two-captions"])
    def test_round_trip_gives_equal_tables(self, spec, tmp_path):
        ds = generate_toy(spec, Rng(8))
        path = tmp_path / "toy.jsonl"
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert all(back.split(name) == ds.split(name) for name in SPLITS)
        # and a mixed table: one caption's image pushed off the grid
        ds.train = rebuilt(spec, ds.train, {0: pixels(ds.train.images[0]) + 1e-4})
        save_jsonl(ds, path)
        assert load_jsonl(path).train == ds.train

    def test_off_grid_image_uses_f64(self, tiny, tmp_path):
        spec = ToySpec(n_identities=2, images_per_identity=1)
        ds = generate_toy(spec, Rng(3))
        original = pixels(ds.train.images[0]) + 1e-4  # push caption 0's image off the u8 grid
        ds.train = rebuilt(spec, ds.train, {0: original})
        path = tmp_path / "toy.jsonl"
        save_jsonl(ds, path)
        text = path.read_text()
        assert '"image_mode": "f64"' in text or '"image_mode":"f64"' in text.replace(" ", "")
        back = load_jsonl(path)
        assert back.train.images[0].tobytes() == original.tobytes(), "f64 image did not round-trip bit-exactly"
        # one split holds both: the other caption of that image keeps its
        # own row, read as its pixels in a float64 table
        assert back.train.images.dtype == np.float64 and back.train.image_of.tolist() == [0, 1]
        assert back.train.images[1].tobytes() == pixels(generate_toy(spec, Rng(3)).train.images[0]).tobytes()

    @pytest.mark.parametrize("off_grid", [False, True], ids=["on-grid", "one-off-grid"])
    def test_file_bytes_pinned(self, off_grid, tmp_path):
        spec = ToySpec(n_identities=3, images_per_identity=1)
        ds = generate_toy(spec, Rng(3))
        if off_grid:
            ds.train = rebuilt(spec, ds.train, {0: pixels(ds.train.images[0]) + 1e-4})
        path = tmp_path / "toy.jsonl"
        save_jsonl(ds, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED_FILES["one-off-grid" if off_grid else "on-grid"]

    @pytest.mark.parametrize(
        "edit",
        [{"h": 48.0}, {"h": 24, "w": 48}, {"w": "24"}, {"w": True}],
        ids=["float-h", "swapped", "string-w", "bool-w"],
    )
    def test_record_off_the_header_raster_rejected(self, edit, tiny, tmp_path):
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec.update(edit)
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 3: .*header's raster is 48x24"):
            load_jsonl(path)

    def test_bad_json_reports_line(self, tiny, tmp_path):
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        lines = path.read_text().splitlines()
        lines[3] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 4"):
            load_jsonl(path)

    def test_missing_field_reports_line(self, tiny, tmp_path):
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        del rec["caption"]
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MissingField, match="line 3"):
            load_jsonl(path)

    def test_bad_split_rejected(self, tiny, tmp_path):
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["split"] = "hold-out"
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="hold-out"):
            load_jsonl(path)

    def test_truncated_payload_rejected(self, tiny, tmp_path):
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["image_b64"] = base64.b64encode(b"\x00" * 12).decode()
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_jsonl(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"identity": 99}, "line 3: identity 99 is not a key of the header's attrs"),
            ({"identity": "3"}, "line 3: identity '3' is not a key"),
            ({"identity": True}, "line 3: identity True is not a key"),
            ({"caption": 5}, "line 3: caption 5 is not a string"),
            ({"image_b64": 5}, "line 3: image_b64 5 is not a string"),
            ({"image_mode": None}, "line 3: image_mode None is not a string"),
            ({"image_mode": "f64", "image_b64": f64_payload(-5.0)}, r"line 3: f64 image value -5.0 is not a pixel"),
            ({"image_mode": "f64", "image_b64": f64_payload(np.nan)}, r"line 3: f64 image value nan is not a pixel"),
            ({"image_mode": "f64", "image_b64": f64_payload(np.inf)}, r"line 3: f64 image value inf is not a pixel"),
            ({"image_mode": "f64", "image_b64": f64_payload(0.5, {7: 1.5})}, r"line 3: f64 image value 1.5 is not"),
        ],
        ids=[
            "unknown-identity", "string-identity", "bool-identity", "int-caption", "int-payload", "null-mode",
            "negative-f64", "nan-f64", "inf-f64", "one-f64-value-above-1",
        ],
    )
    def test_bad_record_reports_line(self, edit, message, tiny, tmp_path):
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec.update(edit)
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message):
            load_jsonl(path)

    @pytest.mark.parametrize(
        "attrs",
        [{"0": ["red", "blue"]}, {"0": "red blue hat"}, {"x": ["red", "blue", "hat"]}, ["red", "blue", "hat"]],
        ids=["two-words", "string", "key-not-an-identity", "not-an-object"],
    )
    def test_bad_header_attrs_report_line_1(self, attrs, tiny, tmp_path):
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["attrs"] = attrs if isinstance(attrs, list) else {**header["attrs"], **attrs}
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 1: .*attrs"):
            load_jsonl(path)

    def test_one_image_for_two_identities_rejected(self, tiny, tmp_path):
        # line 4 is the next identity's first record; give it line 2's image
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        lines = path.read_text().splitlines()
        first, other = json.loads(lines[1]), json.loads(lines[3])
        assert first["split"] == other["split"] and first["identity"] != other["identity"]
        other["image_b64"] = first["image_b64"]
        lines[3] = json.dumps(other)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"line 4: .*is identity {first['identity']}'s"):
            load_jsonl(path)

    def test_loader_merges_equal_pixel_values(self, tiny, tmp_path):
        # the loader shares images as generate_toy does: a record whose f64
        # payload is exactly another's pixels joins its row, and an off-grid
        # one does not
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        lines = path.read_text().splitlines()
        first = json.loads(lines[1])
        image = np.frombuffer(base64.b64decode(first["image_b64"]), dtype=np.uint8)
        for shift in (0.0, 1e-4):
            copy = {**first, "caption": "a copy", "image_mode": "f64"}
            shifted = np.clip(pixels(image) + shift, 0, 1)  # a pixel value stays in [0, 1]
            copy["image_b64"] = base64.b64encode(shifted.astype("<f8").tobytes()).decode()
            path.write_text("\n".join([*lines[:2], json.dumps(copy), *lines[2:]]) + "\n")
            train = load_jsonl(path).train
            assert train.captions[1] == "a copy"
            if shift:  # a row of its own, after the first record's
                assert train.images.dtype == np.float64 and len(train.images) == len(tiny.train.images) + 1
                assert train.image_of.tolist()[:3] == [0, 1, 2]
            else:
                assert train.images.dtype == np.uint8 and train.images.tobytes() == tiny.train.images.tobytes()
                assert train.image_of.tolist()[:3] == [0, 0, 1]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            load_jsonl(path)


class TestVocabAndFewShot:
    def test_vocab_sorted_unique(self, tiny):
        vocab = build_vocab(tiny.train)
        assert list(vocab) == sorted(set(vocab))
        seen = set()
        for caption in tiny.train.captions:
            seen.update(tokenize(caption))
        assert set(vocab) == seen

    def test_vocab_covers_train_attributes(self, tiny):
        vocab = set(build_vocab(tiny.train))
        for identity in tiny.train.ids.tolist():
            assert tiny.attrs[identity].words <= vocab

    def test_few_shot_full_fraction(self, tiny, rng):
        out = few_shot(tiny.train, 1.0, rng)
        assert out == tiny.train

    def test_few_shot_identity_level(self, tiny, rng):
        out = few_shot(tiny.train, 0.5, rng)
        all_ids = set(tiny.train.ids.tolist())
        kept_ids = set(out.ids.tolist())
        assert len(kept_ids) == round(0.5 * len(all_ids))
        per_id_full = Counter(tiny.train.ids.tolist())
        per_id_kept = Counter(out.ids.tolist())
        for i in kept_ids:
            assert per_id_kept[i] == per_id_full[i]
        # the kept captions keep their images, picked by row
        assert out.images is tiny.train.images
        assert np.array_equal(out.image_ids[out.image_of], out.ids)

    def test_few_shot_deterministic(self, tiny):
        a = few_shot(tiny.train, 0.3, Rng(88))
        b = few_shot(tiny.train, 0.3, Rng(88))
        assert a.ids.tolist() == b.ids.tolist()

    def test_few_shot_bad_fraction(self, tiny, rng):
        with pytest.raises(ValueError):
            few_shot(tiny.train, 0.0, rng)
        with pytest.raises(ValueError):
            few_shot(tiny.train, 1.5, rng)

    def test_attribute_words_constant(self):
        assert "shirt" in ATTRIBUTE_WORDS and "pants" in ATTRIBUTE_WORDS
        assert set(GARMENT_COLORS) <= ATTRIBUTE_WORDS
        assert set(ACCESSORIES) <= ATTRIBUTE_WORDS
