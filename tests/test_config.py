"""Configuration layering, override parsing, materialization, and the
dataclass-derived schema shared with the checkpoint and corpus headers."""

from dataclasses import asdict, fields
from types import SimpleNamespace

import pytest

from tbpslab import experiments
from tbpslab.config import (
    DEFAULTS,
    FULL_AUG,
    PRESETS,
    RECIPE_WEIGHTS,
    SECTIONS,
    TRICKS,
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

# values each component accepted while a run used them wrongly or failed
# only inside training: the schedule, a negative decay or loss weight, a
# zero r_itc floor, an unknown or repeated frozen module, a repeated
# dropped layer, a NaN or infinite rate, temperature or floor, a count
# that is not an integer
LATE_FAILURES = [
    "train.warmup_frac=2",
    "train.lr_peak=-1",
    "train.lr_init=0",
    "train.weight_decay=-5",
    "loss.weights.ss_i=-0.3",
    "loss.weights.n_itc=.inf",
    "loss.eps=0",
    "freeze_modules=[img.bogus]",
    "freeze_modules=[img.patch, img.patch]",
    "model.dropped_text_layers=[1, 1]",
    "train.lr_peak=.nan",
    "train.lr_final=.inf",
    "model.tau_init=.inf",
    "loss.tau_s=.inf",
    "loss.eps=.inf",
    "train.epochs=2.5",
    "train.batch_size=8.0",
    "model.hidden_dim=12.5",
    "data.n_identities=10.5",
    "data.captions_per_image=1.5",
    "model.image_layers=true",
]


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

    def test_file_preset_is_the_preset_layer(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("preset: tbps-clip\n")
        assert resolve(file=str(path)) == resolve(preset="tbps-clip")
        assert resolve(preset="tbps-clip", file=str(path)) == resolve(preset="tbps-clip")

    def test_file_preset_other_than_passed_rejected(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("preset: nitc\n")
        with pytest.raises(ConfigError, match="nitc"):
            resolve(preset="tbps-clip", file=str(path))

    @pytest.mark.parametrize("preset", ["", "tbps-clip"], ids=["no-preset", "with-preset"])
    def test_preset_override_rejected(self, preset):
        with pytest.raises(ConfigError, match="--preset"):
            resolve(preset=preset, overrides=["preset=nitc"])

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
            # the key is gone: rejected as unknown
            "augment.back_translate_p=3.0",
            "augment.back_translate_p=-0.1",
            # a dataclass field, but not a config key
            "augment.image_pool=[crop]",
        ],
    )
    def test_bad_augment_values_rejected_at_config_time(self, override):
        with pytest.raises(ConfigError, match=override.split(".")[1].split("=")[0]):
            resolve(preset="tbps-clip", overrides=[override])

    @pytest.mark.parametrize("override", LATE_FAILURES)
    def test_values_that_used_to_fail_in_training_rejected_at_config_time(self, override):
        with pytest.raises(ConfigError):
            resolve(overrides=[override])

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

    def test_sections_are_the_dataclass_defaults(self):
        exp = materialize(resolve())
        for section, (cls, fixed) in SECTIONS.items():
            assert getattr(exp, section) == cls(), section
            names = {f.name for f in fields(cls)}
            assert names == set(DEFAULTS[section]) | set(fixed), section
            assert not set(DEFAULTS[section]) & set(fixed), section

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

    @pytest.mark.parametrize("key, value", [
        ("hidden_dim", 12.5), ("hidden_dim", 12.0), ("image_layers", True),
        ("dropout", False), ("dropout", "0.1"),
    ])
    def test_mistyped_header_value_is_config_error(self, key, value):
        header = {**asdict(ModelConfig()), key: value}
        with pytest.raises(ConfigError, match=f"model.{key}"):
            load(ModelConfig, header, "model")

    def test_float_field_takes_an_int(self):
        header = {**asdict(ModelConfig()), "dropout": 0, "tau_init": 1}
        assert load(ModelConfig, header, "model").tau_init == 1

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


def ablation_tables(preset, monkeypatch) -> dict:
    """axis -> {row label: resolved config} under `preset`, training nothing:
    a stub stands in for each row's run and records its experiment."""
    seen = []

    def record(exp, dataset=None, out_dir=None):
        seen.append(exp.raw)
        return SimpleNamespace(report=SimpleNamespace(as_dict=dict))

    monkeypatch.setattr(experiments, "run_training", record)
    exp = materialize(resolve(preset=preset))
    tables = {}
    for axis, table_fn in experiments.ABLATIONS.items():
        seen.clear()
        rows = table_fn(exp, dataset=object())
        tables[axis] = {row["row"]: raw for row, raw in zip(rows, seen, strict=True)}
    return tables


# the rows' fingerprints under tbps-clip; retuning a recipe part moves them
TBPS_CLIP_ROWS = {
    "augmentation": {
        "none": "fdfa7e9782e7", "image-only": "93ee38b857ee",
        "text-only": "051554e37978", "full": "1752b3be08e0",
    },
    "loss": {
        "itc-diagonal": "9af703d18c83", "n-itc": "f11757d2aca4",
        "n-itc+ss": "63795f78a9c3", "n-itc+mvs": "61595cd66de9",
        "n-itc+r": "869d4dcb067d", "n-itc+c": "bbc10f6cfda9",
        "stack": "1752b3be08e0",
    },
    "trick": {
        "baseline": "713da4e78834", "+dropout": "95f1d40b6929",
        "+lock-patch-proj": "e48d44613517", "+soft-label": "4607f1380e0c",
        "all-tricks": "1752b3be08e0",
    },
}


class TestRecipeParts:
    """The presets and the ablation rows are built from one set of parts."""

    @pytest.mark.parametrize("preset", ["", *PRESETS])
    def test_each_table_has_one_row_equal_to_the_preset(self, preset, monkeypatch):
        own = fingerprint(resolve(preset=preset))
        for axis, rows in ablation_tables(preset, monkeypatch).items():
            same = [label for label, raw in rows.items() if fingerprint(raw) == own]
            assert len(same) == 1, (axis, same)

    @pytest.mark.parametrize("preset", ["", *PRESETS])
    def test_full_rows_carry_every_part(self, preset, monkeypatch):
        tables = ablation_tables(preset, monkeypatch)
        full = tables["augmentation"]["full"]
        assert {k: full["augment"][k] for k in FULL_AUG} == FULL_AUG
        assert tables["loss"]["stack"]["loss"]["weights"] == RECIPE_WEIGHTS
        every = tables["trick"]["all-tricks"]
        for patch in TRICKS.values():
            assert merge(every, patch) == every, patch

    def test_row_fingerprints_under_tbps_clip(self, monkeypatch):
        tables = ablation_tables("tbps-clip", monkeypatch)
        got = {axis: {label: fingerprint(raw) for label, raw in rows.items()} for axis, rows in tables.items()}
        assert got == TBPS_CLIP_ROWS
