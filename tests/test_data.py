"""Corpus tests: identity uniqueness, split hygiene, the bag-of-words
retrieval oracle, serialization round trips, and few-shot subsampling."""

import hashlib
import json

import numpy as np
import pytest

from tbpslab.augment import tokenize
from tbpslab.data import (
    ACCESSORIES,
    ATTRIBUTE_WORDS,
    GARMENT_COLORS,
    MissingField,
    ParseError,
    Sample,
    SpecTooLarge,
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

# SHA-256 of save_jsonl files recorded while the corpus still held float64
# images: storing uint8 must not move a byte of the format
PINNED_FILES = {
    "on-grid": "43bac38b61806512682587619dca4d74cdfd99baee451af92dc25cd3cd2a9297",
    "one-off-grid": "f22cf66a352408c466f2e96ba741e9430fc94e04d86bbe64442d92e03cf907a1",
}


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
        ids = {name: {s.identity for s in ds.split(name)} for name in ("train", "val", "test")}
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
        for s in tiny.train[:8]:
            assert s.image.shape == (48, 24, 3)
            assert s.image.dtype == np.uint8

    def test_corpus_stores_one_byte_per_pixel_value(self):
        ds = generate_toy(ToySpec(n_identities=20, images_per_identity=2, captions_per_image=2), Rng(5))
        # the captions of one image share its array
        distinct = {id(s.image): s.image for s in ds.train + ds.val + ds.test}
        assert len(distinct) == 20 * 2
        assert sum(image.nbytes for image in distinct.values()) == len(distinct) * 48 * 24 * 3

    def test_captions_carry_exactly_their_bag(self, tiny):
        for s in tiny.train + tiny.val + tiny.test:
            words = caption_attribute_words(s.caption)
            assert words == tiny.attrs[s.identity].words

    def test_caption_bag_has_five_words(self, tiny):
        for s in tiny.train:
            assert len(tiny.attrs[s.identity].words) == 5

    def test_deterministic(self):
        a = generate_toy(TINY, Rng(9))
        b = generate_toy(TINY, Rng(9))
        assert len(a.train) == len(b.train)
        for sa, sb in zip(a.train, b.train):
            assert np.array_equal(sa.image, sb.image)
            assert sa.caption == sb.caption
            assert sa.identity == sb.identity

    def test_views_of_identity_differ(self, tiny):
        by_id = {}
        for s in tiny.train:
            by_id.setdefault(s.identity, []).append(s)
        some = next(v for v in by_id.values() if len(v) >= 2)
        assert not np.array_equal(some[0].image, some[1].image)

    def test_identities_visually_distinct(self, tiny):
        # mean absolute pixel difference across identities clearly exceeds
        # the within-identity jitter on average (background shade varies per
        # view, so individual pairs can come close)
        by_id = {}
        for s in tiny.train:
            by_id.setdefault(s.identity, []).append(pixels(s.image))
        keys = sorted(by_id)[:6]
        within, across = [], []
        for k in keys:
            if len(by_id[k]) >= 2:
                within.append(np.abs(by_id[k][0] - by_id[k][1]).mean())
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                across.append(np.abs(by_id[keys[i]][0] - by_id[keys[j]][0]).mean())
        assert np.mean(across) > 1.5 * np.mean(within)


class TestOracle:
    def test_rank1_is_perfect_everywhere(self, tiny):
        for split in ("train", "val", "test"):
            assert oracle_rank1(tiny.split(split), tiny.attrs) == 1.0

    def test_rank1_full_corpus(self, tiny):
        all_samples = tiny.train + tiny.val + tiny.test
        assert oracle_rank1(all_samples, tiny.attrs) == 1.0

    def test_shuffled_captions_break_it(self, tiny, rng):
        # sanity: the oracle is not trivially 1.0; mismatched captions drop it
        samples = [Sample(image=s.image, caption=s.caption, identity=s.identity) for s in tiny.test]
        caps = [s.caption for s in samples]
        order = rng.permutation(len(caps))
        for s, k in zip(samples, order):
            s.caption = caps[k]
        assert oracle_rank1(samples, tiny.attrs) < 1.0

    def test_empty_rejected(self, tiny):
        with pytest.raises(ValueError):
            oracle_rank1([], tiny.attrs)


class TestSerialization:
    def test_round_trip_exact(self, tiny, tmp_path):
        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        back = load_jsonl(path)
        assert back.spec == tiny.spec
        assert back.attrs == tiny.attrs
        for split in ("train", "val", "test"):
            a, b = tiny.split(split), back.split(split)
            assert len(a) == len(b)
            for sa, sb in zip(a, b):
                assert np.array_equal(sa.image, sb.image)
                assert sa.caption == sb.caption
                assert sa.identity == sb.identity

    def test_off_grid_image_uses_f64(self, tiny, tmp_path):
        ds = generate_toy(ToySpec(n_identities=2, images_per_identity=1), Rng(3))
        ds.train[0].image = pixels(ds.train[0].image) + 1e-4  # push off the u8 grid
        path = tmp_path / "toy.jsonl"
        save_jsonl(ds, path)
        text = path.read_text()
        assert '"image_mode": "f64"' in text or '"image_mode":"f64"' in text.replace(" ", "")
        back = load_jsonl(path)
        original = ds.split("train")[0]
        match = [s for s in back.train if np.array_equal(s.image, original.image)]
        assert match, "f64 image did not round-trip bit-exactly"
        # one split holds both: the other caption of that image stays uint8
        assert [s.image.dtype for s in back.train] == [np.float64, np.uint8]

    @pytest.mark.parametrize("off_grid", [False, True], ids=["on-grid", "one-off-grid"])
    def test_file_bytes_pinned(self, off_grid, tmp_path):
        ds = generate_toy(ToySpec(n_identities=3, images_per_identity=1), Rng(3))
        if off_grid:
            ds.train[0].image = pixels(ds.train[0].image) + 1e-4
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
        import base64

        path = tmp_path / "toy.jsonl"
        save_jsonl(tiny, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["image_b64"] = base64.b64encode(b"\x00" * 12).decode()
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_jsonl(path)

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
        for s in tiny.train:
            seen.update(tokenize(s.caption))
        assert set(vocab) == seen

    def test_vocab_covers_train_attributes(self, tiny):
        vocab = set(build_vocab(tiny.train))
        for s in tiny.train:
            assert tiny.attrs[s.identity].words <= vocab

    def test_few_shot_full_fraction(self, tiny, rng):
        out = few_shot(tiny.train, 1.0, rng)
        assert out == list(tiny.train)

    def test_few_shot_identity_level(self, tiny, rng):
        out = few_shot(tiny.train, 0.5, rng)
        all_ids = {s.identity for s in tiny.train}
        kept_ids = {s.identity for s in out}
        assert len(kept_ids) == round(0.5 * len(all_ids))
        per_id_full = {}
        for s in tiny.train:
            per_id_full[s.identity] = per_id_full.get(s.identity, 0) + 1
        per_id_kept = {}
        for s in out:
            per_id_kept[s.identity] = per_id_kept.get(s.identity, 0) + 1
        for i in kept_ids:
            assert per_id_kept[i] == per_id_full[i]

    def test_few_shot_deterministic(self, tiny):
        a = few_shot(tiny.train, 0.3, Rng(88))
        b = few_shot(tiny.train, 0.3, Rng(88))
        assert [s.identity for s in a] == [s.identity for s in b]

    def test_few_shot_bad_fraction(self, tiny, rng):
        with pytest.raises(ValueError):
            few_shot(tiny.train, 0.0, rng)
        with pytest.raises(ValueError):
            few_shot(tiny.train, 1.5, rng)

    def test_attribute_words_constant(self):
        assert "shirt" in ATTRIBUTE_WORDS and "pants" in ATTRIBUTE_WORDS
        assert set(GARMENT_COLORS) <= ATTRIBUTE_WORDS
        assert set(ACCESSORIES) <= ATTRIBUTE_WORDS
