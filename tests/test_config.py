"""Configuration layering, override parsing, materialization, and the
dataclass-derived schema shared with the checkpoint and corpus headers."""

from dataclasses import asdict

import pytest

from tbpslab.config import (
    DEFAULTS,
    PRESETS,
    ConfigError,
    Experiment,
    dump_yaml,
    fingerprint,
    materialize,
    merge,
    resolve,
)
from tbpslab.data import ToySpec, generate_toy, load_jsonl, save_jsonl
from tbpslab.losses import KNOWN_LOSSES
from tbpslab.model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from tbpslab.numerics import Rng
from tbpslab.schema import load


class TestLayering:
    def test_defaults_resolve_clean(self):
        config = resolve()
        assert config["train"]["batch_size"] == 64
        assert config["loss"]["weights"] == {"n_itc": 1.0}
        assert config["preset"] == ""

    def test_preset_overrides_defaults(self):
        config = resolve(preset="tbps-clip")
        assert config["loss"]["soft_label"] is True
        assert config["model"]["dropout"] == 0.05
        assert config["preset"] == "tbps-clip"
        # untouched sections keep their defaults
        assert config["train"]["epochs"] == DEFAULTS["train"]["epochs"]

    def test_file_overrides_preset(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("model:\n  dropout: 0.2\ntrain:\n  epochs: 7\n")
        config = resolve(preset="tbps-clip", file=str(path))
        assert config["model"]["dropout"] == 0.2
        assert config["train"]["epochs"] == 7
        # preset values not named in the file survive
        assert config["loss"]["soft_label"] is True

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("train:\n  epochs: 7\n")
        config = resolve(file=str(path), overrides=["train.epochs=9"])
        assert config["train"]["epochs"] == 9

    def test_weights_replace_wholesale(self):
        # a preset's weight map is the full term mix, not a patch on defaults
        config = resolve(preset="simplified")
        assert config["loss"]["weights"] == {"n_itc": 1.0, "r_itc": 0.7}

    def test_resolve_does_not_mutate_defaults(self):
        before = repr(DEFAULTS)
        resolve(preset="tbps-clip", overrides=["train.epochs=3"])
        assert repr(DEFAULTS) == before


class TestValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            resolve(overrides=["bogus.key=1"])

    def test_unknown_leaf_rejected(self):
        with pytest.raises(ConfigError, match="train.lr_max"):
            resolve(overrides=["train.lr_max=1"])

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="no-such"):
            resolve(preset="no-such")

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("train:\n  epochz: 7\n")
        with pytest.raises(ConfigError, match="epochz"):
            resolve(file=str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            resolve(file="/no/such/file.yaml")

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            resolve(file=str(path))

    def test_scalar_for_section_rejected(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("train: 5\n")
        with pytest.raises(ConfigError, match="mapping"):
            resolve(file=str(path))

    def test_bad_values_surface_as_config_errors(self):
        for ov in (
            "train.epochs=0",
            "model.dropout=1.5",
            "model.patch_size=7",  # must divide the raster
            "data.n_identities=100000",  # exceeds attribute capacity
            "seed=-1",
            "augment.image_mode=goofy",
        ):
            with pytest.raises(ConfigError):
                resolve(overrides=[ov])

    @pytest.mark.parametrize(
        "override",
        [
            "augment.pool_k=0",
            "augment.pool_k=-1",
            "augment.pool_k=9",  # the pool holds six ops
            "augment.back_translate_p=3.0",
            "augment.back_translate_p=-0.1",
        ],
    )
    def test_bad_augment_values_rejected_at_config_time(self, override):
        with pytest.raises(ConfigError, match=override.split(".")[1].split("=")[0]):
            resolve(preset="tbps-clip", overrides=[override])

    def test_weight_for_unknown_term_rejected(self):
        with pytest.raises(ConfigError, match="wurst"):
            resolve(overrides=["loss.weights.wurst=1.0"])

    def test_weight_for_new_known_term_accepted(self):
        config = resolve(overrides=["loss.weights.r_itc=0.5"])
        assert config["loss"]["weights"] == {"n_itc": 1.0, "r_itc": 0.5}

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            resolve(overrides=["train.epochs"])
        with pytest.raises(ConfigError, match="empty key"):
            resolve(overrides=["=5"])


class TestOverrideParsing:
    def test_scientific_notation_without_dot(self):
        # plain YAML would read this as a string
        config = resolve(overrides=["train.lr_peak=1e-5"])
        assert config["train"]["lr_peak"] == 1e-5

    def test_bool_and_list_values(self):
        config = resolve(overrides=[
            "loss.soft_label=true",
            "model.dropped_text_layers=[0, 1]",
        ])
        assert config["loss"]["soft_label"] is True
        assert config["model"]["dropped_text_layers"] == [0, 1]

    def test_string_value(self):
        config = resolve(overrides=["augment.image_mode=pool"])
        assert config["augment"]["image_mode"] == "pool"


class TestMaterialize:
    def test_round_trip_fields(self):
        exp = materialize(resolve(preset="tbps-clip", overrides=["seed=3"]))
        assert isinstance(exp, Experiment)
        assert exp.seed == 3
        assert exp.preset == "tbps-clip"
        assert exp.freeze_modules == ("img.patch",)
        assert exp.model.image_height == exp.data.height == 48
        assert exp.model.vocab == ()  # filled from the corpus at run time
        assert exp.loss.weights["mvs_i"] == 0.45
        assert exp.train.lr_peak == DEFAULTS["train"]["lr_peak"]

    def test_all_presets_materialize(self):
        for name in PRESETS:
            exp = materialize(resolve(preset=name))
            assert set(exp.loss.weights) <= set(KNOWN_LOSSES)

    def test_seed_type_checked(self):
        config = resolve()
        config["seed"] = True
        with pytest.raises(ConfigError, match="seed"):
            materialize(config)

    def test_missing_key_reported(self):
        config = resolve()
        del config["train"]["epochs"]
        with pytest.raises(ConfigError, match="epochs"):
            materialize(config)


def _as_lists(d: dict) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}


class TestSchema:
    def test_every_defaults_section_round_trips(self):
        exp = materialize(resolve())
        for section, defaults in DEFAULTS.items():
            if not isinstance(defaults, dict):
                continue
            obj = getattr(exp, section)
            written = _as_lists(asdict(obj))
            assert {k: written[k] for k in defaults} == defaults, section
            assert load(type(obj), asdict(obj), section) == obj, section

    def test_model_config_survives_checkpoint_header(self, tmp_path):
        cfg = ModelConfig(
            embed_dim=4, hidden_dim=6, text_layers=3, patch_size=8,
            vocab=("blue", "red", "shirt"), dropout=0.1, tau_init=0.05,
            dropped_text_layers=(0, 2),
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(cfg, Rng(1)), path)
        assert load_checkpoint(path).config == cfg

    def test_toy_spec_survives_corpus_header(self, tmp_path):
        spec = ToySpec(
            n_identities=5, images_per_identity=1, captions_per_image=3,
            height=56, width=32, split_fractions=(0.6, 0.2, 0.2),
            color_jitter=0, pixel_noise=7, max_shift=0,
        )
        path = tmp_path / "d.jsonl"
        save_jsonl(generate_toy(spec, Rng(2)), path)
        assert load_jsonl(path).spec == spec

    def test_missing_header_key_is_config_error(self):
        header = asdict(ModelConfig())
        del header["vocab"]
        with pytest.raises(ConfigError, match="model.vocab"):
            load(ModelConfig, header, "model")

    def test_raster_is_filled_from_the_data_section(self):
        exp = materialize(resolve(overrides=["data.height=56", "data.width=32"]))
        assert (exp.model.image_height, exp.model.image_width) == (56, 32)


class TestFingerprint:
    def test_stable_across_calls(self):
        a = fingerprint(resolve(preset="tbps-clip"))
        b = fingerprint(resolve(preset="tbps-clip"))
        assert a == b and len(a) == 12

    def test_sensitive_to_any_change(self):
        base = fingerprint(resolve())
        assert fingerprint(resolve(overrides=["seed=1"])) != base
        assert fingerprint(resolve(overrides=["train.epochs=31"])) != base

    def test_dump_then_resolve_same_fingerprint(self, tmp_path):
        config = resolve(preset="simplified", overrides=["train.epochs=4"])
        path = tmp_path / "dump.yaml"
        dump_yaml(config, str(path))
        again = resolve(file=str(path))
        assert fingerprint(again) == fingerprint(config)


class TestMerge:
    def test_nested_merge_keeps_siblings(self):
        out = merge({"a": {"x": 1, "y": 2}, "b": 3}, {"a": {"x": 9}})
        assert out == {"a": {"x": 9, "y": 2}, "b": 3}

    def test_unknown_key_fails_with_path(self):
        with pytest.raises(ConfigError, match="a.z"):
            merge({"a": {"x": 1}}, {"a": {"z": 1}})
