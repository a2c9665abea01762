"""Encoder tests: shapes, init determinism, hand-derived backward vs finite
differences through both towers, freezing, layer drops, and checkpoint io."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from tbpslab.augment import AugmentConfig, augment_text
from tbpslab.losses import build_labels, n_itc
from tbpslab.model import (
    MAX_TEXT_TOKENS,
    BadLayerId,
    BadModule,
    Model,
    ModelConfig,
    backward_image,
    backward_text,
    clone_model,
    embedding_scatter,
    encode_image,
    encode_text,
    freeze,
    image_chain,
    image_from,
    init_model,
    load_checkpoint,
    module_of,
    parameter_count,
    save_checkpoint,
    text_chain,
    text_from,
)
from tbpslab.numerics import Rng, ShapeMismatch, check_param_grads, pixels

VOCAB = ("red", "blue", "shirt", "pants", "hat", "person")


def edit_header(edit):
    """A damage function: rewrite a checkpoint's JSON header with `edit`."""

    def damage(data):
        (hlen,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16 : 16 + hlen])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        return data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen :]

    return damage


def edit_tensors(edit):
    """A damage function: rewrite a checkpoint's tensor dict with `edit`,
    keeping its header index and payload consistent with each other."""

    def damage(data):
        (hlen,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16 : 16 + hlen])
        pos, tensors = 16 + hlen, {}
        for spec in header["tensors"]:
            n = 8 * int(np.prod(spec["shape"]))
            tensors[spec["key"]] = np.frombuffer(data[pos : pos + n], "<f8").reshape(spec["shape"])
            pos += n
        edit(tensors)
        header["tensors"] = [{"key": k, "shape": list(v.shape)} for k, v in sorted(tensors.items())]
        blob = json.dumps(header).encode("utf-8")
        payload = b"".join(tensors[k].astype("<f8").tobytes() for k in sorted(tensors))
        return data[:8] + struct.pack("<Q", len(blob)) + blob + payload

    return damage


SMALL = ModelConfig(
    embed_dim=4,
    hidden_dim=5,
    image_layers=2,
    text_layers=2,
    patch_size=4,
    image_height=8,
    image_width=8,
    vocab=VOCAB,
)


def small_batch(rng, n=3):
    images = rng.random(size=(n, 8, 8, 3))
    tokens = [["red", "shirt"], ["blue", "pants", "person"], ["hat", "person", "red", "blue"]]
    return images, tokens[:n]


class TestConfig:
    def test_patch_must_divide(self):
        with pytest.raises(ValueError):
            ModelConfig(patch_size=7, image_height=48, image_width=24)

    def test_bad_dropout(self):
        with pytest.raises(ValueError):
            ModelConfig(dropout=1.0)

    def test_bad_dropped_layer(self):
        with pytest.raises(BadLayerId):
            ModelConfig(text_layers=3, dropped_text_layers=(3,))

    def test_patch_counts(self):
        cfg = ModelConfig()  # patch 8, three channels
        assert cfg.patch_pixels == 192


class TestInit:
    def test_parameter_count_closed_form(self):
        cfg = ModelConfig(vocab=VOCAB)
        m = init_model(cfg, Rng(1))
        h, d, ppc = cfg.hidden_dim, cfg.embed_dim, cfg.patch_pixels
        img = ppc * h + h + cfg.image_layers * (h * h + h) + h * d + d
        txt = (len(VOCAB) + 1) * h + cfg.text_layers * (h * h + h) + h * d + d
        assert parameter_count(m) == img + txt + 1

    def test_deterministic(self):
        a = init_model(SMALL, Rng(7))
        b = init_model(SMALL, Rng(7))
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_seed_changes_params(self):
        a = init_model(SMALL, Rng(7))
        b = init_model(SMALL, Rng(8))
        assert not np.array_equal(a.params["img.patch.W"], b.params["img.patch.W"])

    def test_bounds_follow_fan_in(self):
        m = init_model(SMALL, Rng(3))
        w = m.params["img.patch.W"]
        assert np.abs(w).max() <= 1.0 / np.sqrt(SMALL.patch_pixels)
        assert np.abs(m.params["txt.hidden.0.W"]).max() <= 1.0 / np.sqrt(SMALL.hidden_dim)

    def test_log_tau_initial(self):
        m = init_model(SMALL, Rng(3))
        assert m.params["log_tau"].shape == ()
        assert m.tau == pytest.approx(0.07, abs=1e-12)

    def test_module_of(self):
        assert module_of("img.hidden.2.W") == "img.hidden.2"
        assert module_of("txt.embed.W") == "txt.embed"
        assert module_of("log_tau") == "log_tau"


class TestForward:
    def test_image_rows_unit_norm(self, rng):
        m = init_model(SMALL, Rng(11))
        images, _ = small_batch(rng)
        z, _ = encode_image(m, images)
        assert z.shape == (3, 4)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)

    def test_text_rows_unit_norm(self, rng):
        m = init_model(SMALL, Rng(11))
        _, tokens = small_batch(rng)
        z, _ = encode_text(m, tokens)
        assert z.shape == (3, 4)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)

    def test_encode_deterministic(self, rng):
        m = init_model(SMALL, Rng(11))
        images, tokens = small_batch(rng)
        a, _ = encode_image(m, images)
        b, _ = encode_image(m, images)
        assert np.array_equal(a, b)
        ta, _ = encode_text(m, tokens)
        tb, _ = encode_text(m, tokens)
        assert np.array_equal(ta, tb)

    def test_unknown_token_uses_bucket_zero(self, rng):
        m = init_model(SMALL, Rng(11))
        ids = m.token_ids(["red", "nonsense", "blue"])
        assert ids[1] == 0
        assert ids[0] == 1 and ids[2] == 2  # vocab order, shifted past the bucket

    def test_unknown_and_known_differ(self, rng):
        m = init_model(SMALL, Rng(11))
        za, _ = encode_text(m, [["red", "shirt"]])
        zb, _ = encode_text(m, [["zzz", "shirt"]])
        assert not np.allclose(za, zb)

    def test_sequences_capped_at_77(self, rng):
        m = init_model(SMALL, Rng(11))
        assert MAX_TEXT_TOKENS == 77
        for long in (["red"] * 200, [VOCAB[i % len(VOCAB)] for i in range(100)]):
            za, cache = encode_text(m, [long])
            assert cache.lengths[0] == 77
            zb, _ = encode_text(m, [long[:77]])
            assert np.array_equal(za, zb)

    def test_augmented_long_caption_capped_at_encode(self):
        # augmentation does not truncate; the encoder is the one cap
        m = init_model(SMALL, Rng(11))
        aug = AugmentConfig(image_mode="pool", text_mode="stack")
        view = augment_text(["red"] * 100, aug, Rng(8))
        za, cache = encode_text(m, [view])
        zb, _ = encode_text(m, [view[:77]])
        assert len(view) > 77 and cache.lengths[0] == 77
        assert np.array_equal(za, zb)

    def test_empty_sequence_rejected(self):
        m = init_model(SMALL, Rng(11))
        with pytest.raises(ValueError, match="empty"):
            encode_text(m, [["red"], []])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uint8_images_encode_as_their_pixels(self, dtype, rng):
        m = init_model(SMALL, Rng(11))
        m.params = {k: v if k == "log_tau" else v.astype(dtype) for k, v in m.params.items()}
        stored = rng.integers(0, 256, size=(3, 8, 8, 3)).astype(np.uint8)
        za, ca = encode_image(m, stored)
        zb, cb = encode_image(m, pixels(stored))
        assert za.tobytes() == zb.tobytes()
        assert ca.inputs.dtype == dtype and ca.inputs.tobytes() == cb.inputs.tobytes()

    def test_wrong_image_shape(self, rng):
        m = init_model(SMALL, Rng(11))
        with pytest.raises(ShapeMismatch):
            encode_image(m, rng.random(size=(2, 8, 9, 3)))

    def test_patch_order_matters_layout(self, rng):
        # two images with the same pixel multiset but different patch layout
        # must encode differently: the tower sees per-patch content.
        m = init_model(SMALL, Rng(11))
        img = np.zeros((1, 8, 8, 3))
        img[0, :4, :4] = 1.0  # one bright patch
        other = np.zeros((1, 8, 8, 3))
        other[0, :4, :4, 0] = 1.0  # same count of nonzero pixels, one channel
        za, _ = encode_image(m, img)
        zb, _ = encode_image(m, other)
        assert not np.allclose(za, zb)


class TestBackward:
    """End-to-end gradient check: an image-text contrastive loss on both
    towers, analytic parameter gradients against central differences."""

    def loss_and_grads(self, model, images, tokens, ids, train=False, drop_seed=None):
        rng = Rng(drop_seed) if drop_seed is not None else None
        zi, ci = encode_image(model, images)
        zt, ct = encode_text(model, tokens, train=train, rng=rng)
        labels = build_labels(ids, ids)
        res = n_itc(zi, zt, labels, model.tau)
        grads = {}
        backward_image(model, ci, res.grad_image, grads)
        backward_text(model, ct, res.grad_text, grads)
        grads["log_tau"] = np.array(res.grad_log_tau)
        return res.value, grads

    def fd_check(self, train=False, drop_seed=None, config=SMALL):
        data_rng = Rng(404)
        model = init_model(config, Rng(12))
        images, tokens = small_batch(data_rng)
        ids = np.array([0, 0, 1])

        value, grads = self.loss_and_grads(model, images, tokens, ids, train, drop_seed)
        assert np.isfinite(value)

        def loss():
            return self.loss_and_grads(model, images, tokens, ids, train, drop_seed)[0]

        # dropped layers are inert: no gradient entry, held to zero
        return check_param_grads(loss, model.params, grads)

    def test_fd_eval_mode(self):
        assert self.fd_check() < 1e-4

    def test_fd_with_dropout(self):
        import dataclasses

        cfg = dataclasses.replace(SMALL, dropout=0.2)
        assert self.fd_check(train=True, drop_seed=99, config=cfg) < 1e-4

    def test_fd_with_dropped_layer(self):
        import dataclasses

        cfg = dataclasses.replace(SMALL, text_layers=3, dropped_text_layers=(1,))
        assert self.fd_check(config=cfg) < 1e-4

    def test_backward_accumulates(self, rng):
        m = init_model(SMALL, Rng(12))
        images, tokens = small_batch(rng)
        _, ci = encode_image(m, images)
        g = rng.normal(size=(3, 4))
        once, twice = {}, {}
        backward_image(m, ci, g, once)
        backward_image(m, ci, g, twice)
        backward_image(m, ci, g, twice)
        for k in once:
            assert np.allclose(twice[k], 2 * once[k], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embedding_scatter_is_add_at_byte_for_byte(self, rng, dtype):
        rows, h = 30, 64
        for trial in range(5):
            r = rng.child(trial)
            ids = r.integers(0, rows, size=729) ** 2 % rows  # many repeats, some rows never hit
            g_rows = r.normal(size=(len(ids), h)).astype(dtype)
            want = np.zeros((rows, h))
            np.add.at(want, ids, g_rows.astype(np.float64))
            got = embedding_scatter(ids, g_rows, rows)
            assert got.dtype == dtype
            assert got.tobytes() == want.astype(dtype).tobytes()


class TestContinuation:
    """A tower continued from another model's activations below the first
    module the two models differ in is byte for byte a full encode."""

    @pytest.mark.parametrize(
        "config", [SMALL, dataclasses.replace(SMALL, text_layers=3, dropped_text_layers=(1,))]
    )
    def test_continued_tower_equals_full_encode(self, rng, config):
        images, tokens = small_batch(rng)
        base = init_model(config, Rng(11))
        other = init_model(config, Rng(12))
        _, image_cache = encode_image(base, images)
        _, text_cache = encode_text(base, tokens)
        for chain, cache, cont, encode, data in (
            (image_chain(config), image_cache, image_from, encode_image, images),
            (text_chain(config), text_cache, text_from, encode_text, tokens),
        ):
            for start, module in enumerate(chain):
                probe = clone_model(base)
                for key in probe.module_keys(module):
                    probe.params[key] = other.params[key]
                got, _ = cont(probe, cache, start)
                assert got.tobytes() == encode(probe, data)[0].tobytes(), module
                assert got.tobytes() != encode(base, data)[0].tobytes(), module


class TestDropout:
    def test_rate_matches_setting(self):
        import dataclasses

        cfg = dataclasses.replace(SMALL, dropout=0.05, text_layers=1)
        m = init_model(cfg, Rng(5))
        tokens = [["red"] * 60 for _ in range(30)]
        _, cache = encode_text(m, tokens, train=True, rng=Rng(123))
        mask = cache.acts[0][2]
        rate = float((mask == 0).mean())
        assert mask.size >= 9000
        assert abs(rate - 0.05) < 0.01

    def test_kept_units_are_rescaled(self):
        import dataclasses

        cfg = dataclasses.replace(SMALL, dropout=0.25, text_layers=1)
        m = init_model(cfg, Rng(5))
        _, cache = encode_text(m, [["red", "blue"]], train=True, rng=Rng(3))
        mask = cache.acts[0][2]
        kept = mask[mask > 0]
        assert np.allclose(kept, 1.0 / 0.75, atol=1e-12)

    def test_eval_mode_ignores_dropout(self):
        import dataclasses

        cfg = dataclasses.replace(SMALL, dropout=0.5)
        m = init_model(cfg, Rng(5))
        a, _ = encode_text(m, [["red", "blue"]])
        b, _ = encode_text(m, [["red", "blue"]])
        assert np.array_equal(a, b)

    def test_train_mode_needs_rng(self):
        import dataclasses

        cfg = dataclasses.replace(SMALL, dropout=0.5)
        m = init_model(cfg, Rng(5))
        with pytest.raises(ValueError, match="rng"):
            encode_text(m, [["red"]], train=True)

    def test_same_stream_same_masks(self):
        import dataclasses

        cfg = dataclasses.replace(SMALL, dropout=0.3)
        m = init_model(cfg, Rng(5))
        a, _ = encode_text(m, [["red", "blue", "hat"]], train=True, rng=Rng(77))
        b, _ = encode_text(m, [["red", "blue", "hat"]], train=True, rng=Rng(77))
        assert np.array_equal(a, b)


class TestFreezeAndDrop:
    def test_freeze_reduces_trainable_count(self):
        cfg = ModelConfig(vocab=VOCAB, text_layers=9)
        m = init_model(cfg, Rng(2))
        full = parameter_count(m, trainable_only=True)
        freeze(m, [f"txt.hidden.{i}" for i in (3, 5, 7, 8)])
        h = cfg.hidden_dim
        assert parameter_count(m, trainable_only=True) == full - 4 * (h * h + h)

    def test_freeze_unknown_module(self):
        m = init_model(SMALL, Rng(2))
        with pytest.raises(BadModule):
            freeze(m, ["txt.hidden.99"])

    def test_freeze_does_not_change_forward(self, rng):
        m = init_model(SMALL, Rng(2))
        images, _ = small_batch(rng)
        before, _ = encode_image(m, images)
        freeze(m, ["img.patch"])
        after, _ = encode_image(m, images)
        assert np.array_equal(before, after)

    def test_dropped_layer_changes_output(self, rng):
        m = init_model(SMALL, Rng(2))
        _, tokens = small_batch(rng)
        full, _ = encode_text(m, tokens)
        dropped = init_model(dataclasses.replace(SMALL, dropped_text_layers=(1,)), Rng(2))
        cut, _ = encode_text(dropped, tokens)
        assert not np.allclose(full, cut)

    def test_dropped_layer_reduces_trainable_count(self):
        m = init_model(SMALL, Rng(2))
        full = parameter_count(m, trainable_only=True)
        dropped = init_model(dataclasses.replace(SMALL, dropped_text_layers=(0,)), Rng(2))
        h = SMALL.hidden_dim
        assert parameter_count(dropped, trainable_only=True) == full - (h * h + h)
        # total count keeps the tensors; they are just inert
        assert parameter_count(dropped) == parameter_count(m)

    def test_drop_all_layers_still_encodes(self, rng):
        _, tokens = small_batch(rng)
        bare = init_model(dataclasses.replace(SMALL, dropped_text_layers=(0, 1)), Rng(2))
        z, _ = encode_text(bare, tokens)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        m = init_model(SMALL, Rng(31))
        freeze(m, ["img.patch"])
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.config == m.config
        assert loaded.frozen == {"img.patch"}
        for k in m.params:
            assert np.array_equal(loaded.params[k], m.params[k]), k
            assert loaded.params[k].dtype == np.float64

    def test_round_trip_keeps_parameter_order(self, tmp_path):
        cfg = dataclasses.replace(SMALL, text_layers=3, dropped_text_layers=(1,))
        m = init_model(cfg, Rng(31))
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert list(loaded.params) == list(m.params)
        assert loaded.module_names() == m.module_names()

    def test_same_model_same_bytes(self, tmp_path):
        a = init_model(SMALL, Rng(31))
        b = init_model(SMALL, Rng(31))
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, pa)
        save_checkpoint(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_loaded_model_encodes_identically(self, tmp_path, rng):
        m = init_model(SMALL, Rng(31))
        images, tokens = small_batch(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        zi, _ = encode_image(m, images)
        li, _ = encode_image(loaded, images)
        assert np.array_equal(zi, li)
        zt, _ = encode_text(m, tokens)
        lt, _ = encode_text(loaded, tokens)
        assert np.array_equal(zt, lt)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage, problem",
        [
            (lambda b: b[:12], r"cut short in header length \(4 of 8 bytes\)"),
            (lambda b: b[:30], r"cut short in header \(14 of \d+ bytes\)"),
            (lambda b: b[:-8], r"cut short in tensor 'txt.out.b' \(24 of 32 bytes\)"),
            (lambda b: b + b"\x00" * 8, "8 bytes past the last tensor"),
            (edit_header(lambda h: h.pop("tensors")), "header has no 'tensors'"),
            (edit_header(lambda h: h.pop("version")), "header has no 'version'"),
            (edit_header(lambda h: h["tensors"][0].update(shape="4x4")), "bad tensor entry"),
            (edit_header(lambda h: h["config"].pop("vocab")), "bad model config .*model.vocab"),
            (edit_tensors(lambda t: t.pop("img.hidden.0.W")), "missing tensor 'img.hidden.0.W'"),
            (
                edit_tensors(lambda t: t.update({"img.extra.W": np.zeros(2)})),
                "unexpected tensor 'img.extra.W'",
            ),
            (
                edit_tensors(lambda t: t.update({"img.out.W": np.zeros((3, 3))})),
                r"tensor 'img.out.W' has shape \(3, 3\), the model config builds \(5, 4\)",
            ),
            (
                edit_header(lambda h: h["tensors"].append(h["tensors"][0])),
                "tensor 'img.hidden.0.W' listed twice",
            ),
            (
                edit_header(lambda h: h["frozen"].append("img.nonexistent")),
                "frozen list names unknown module 'img.nonexistent'",
            ),
        ],
        ids=[
            "length-field", "header", "payload", "trailing",
            "no-tensors", "no-version", "string-shape", "no-vocab",
            "missing-tensor", "extra-tensor", "misshapen-tensor", "duplicate-tensor",
            "unknown-frozen",
        ],
    )
    def test_corrupt_file_names_path_and_problem(self, tmp_path, damage, problem):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(SMALL, Rng(31)), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=problem) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_clone_is_independent(self):
        m = init_model(SMALL, Rng(31))
        c = clone_model(m)
        c.params["img.patch.W"][0, 0] += 1.0
        assert m.params["img.patch.W"][0, 0] != c.params["img.patch.W"][0, 0]
