"""Experiment configuration: defaults, presets, YAML files, and dotted
command-line overrides, merged in that order.

The resolved configuration is a nested dict with fixed sections (data,
model, loss, augment, train, plus a few top-level scalars). Each section's
keys and defaults are the fields of its component dataclass (`SECTIONS`),
so every key is validated and a typo fails loudly instead of silently
training the wrong thing. The materialize step turns the dict into the
component config objects.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
from dataclasses import asdict, dataclass

import yaml

from .augment import AugmentConfig
from .data import ToySpec
from .losses import LossConfig, UnknownTerm
from .model import ModelConfig, module_of, param_table
from .schema import ConfigError, load
from .train import TrainConfig


# Each section is built from its dataclass. The fields listed here are
# not config keys: the model's raster follows the data section and its
# vocabulary comes from the corpus at run time, and the image op pool is
# fixed.
SECTIONS: dict = {
    "data": (ToySpec, ()),
    "model": (ModelConfig, ("image_height", "image_width", "vocab")),
    "loss": (LossConfig, ()),
    "augment": (AugmentConfig, ("image_pool",)),
    "train": (TrainConfig, ()),
}

DEFAULTS: dict = {
    "seed": 0,
    "preset": "",
    "freeze_modules": [],
    **{
        section: {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(cls()).items()
            if k not in fixed
        }
        for section, (cls, fixed) in SECTIONS.items()
    },
}

# The TBPS-CLIP recipe, each part written once: the five loss weights,
# the training tricks (each the patch that switches it on) and the full
# augmentation. The presets below and the one-factor ablation tables in
# `experiments` are built from these parts.
RECIPE_WEIGHTS: dict = {"n_itc": 1.0, "ss_i": 0.35, "mvs_i": 0.45, "r_itc": 0.7, "c_itc": 0.1}
TRICKS: dict = {
    "dropout": {"model": {"dropout": 0.05}},
    "lock-patch-proj": {"freeze_modules": ["img.patch"]},
    "soft-label": {"loss": {"soft_label": True}},
}
FULL_AUG: dict = {"image_mode": "pool", "text_mode": "stack"}


def merge(base: dict, patch: dict, path="") -> dict:
    """Recursive dict merge; scalar sections replace, dicts merge. The
    loss.weights map replaces wholesale so presets fully define their
    term mix."""
    out = copy.deepcopy(base)
    for key, value in patch.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config key '{where}'")
        if isinstance(out[key], dict) and where != "loss.weights":
            if not isinstance(value, dict):
                raise ConfigError(f"'{where}' must be a mapping, got {type(value).__name__}")
            out[key] = merge(out[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _preset(terms, *parts) -> dict:
    """DEFAULTS with the recipe's weights of `terms`, then `parts` merged in order."""
    weights = {term: RECIPE_WEIGHTS[term] for term in terms}
    return functools.reduce(merge, parts, merge(DEFAULTS, {"loss": {"weights": weights}}))


PRESETS: dict = {
    # the full recipe: every loss family, every trick, full augmentation
    "tbps-clip": _preset(RECIPE_WEIGHTS, *TRICKS.values(), {"augment": FULL_AUG}),
    # the cheap-but-close variant: two loss terms, tricks and augmentation kept
    "simplified": _preset(("n_itc", "r_itc"), *TRICKS.values(), {"augment": FULL_AUG}),
    # plain contrastive matching with one-hot diagonal targets, nothing else
    "clip-baseline": _preset(("n_itc",), {"loss": {"diagonal_labels": True}}),
    # identity-aware targets plus tricks and augmentation, single loss term
    "nitc": _preset(("n_itc",), *TRICKS.values(), {"augment": FULL_AUG}),
}


def _parse_override(text: str) -> tuple:
    """'section.key=value' -> (path list, parsed value). Values parse as
    YAML scalars, so numbers, booleans, lists and strings all work."""
    if "=" not in text:
        raise ConfigError(f"override '{text}' is not of the form key=value")
    path, raw = text.split("=", 1)
    parts = [p for p in path.strip().split(".") if p]
    if not parts:
        raise ConfigError(f"override '{text}' has an empty key path")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as e:
        raise ConfigError(f"override '{text}': cannot parse value ({e})") from None
    if isinstance(value, str):
        # YAML 1.1 reads dotless scientific notation ("1e-5") as a string;
        # accept it as a float anyway.
        try:
            value = float(value)
        except ValueError:
            pass
    return parts, value


def _apply_override(config: dict, parts, value, full_path) -> dict:
    out = copy.deepcopy(config)
    node = out
    for i, part in enumerate(parts[:-1]):
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config key '{'.'.join(parts[: i + 1])}'")
        node = node[part]
    leaf = parts[-1]
    # a weight map may gain a term; LossConfig rejects an unknown one
    if leaf not in node and parts[:-1] != ["loss", "weights"]:
        raise ConfigError(f"unknown config key '{full_path}'")
    node[leaf] = value
    return out


def _read_file(file: str) -> dict:
    try:
        with open(file, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {file}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"config file {file}: {e}") from None
    if loaded is None:
        loaded = {}
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {file} must hold a mapping")
    return loaded


def resolve(
    preset: str = "",
    file: str | None = None,
    overrides=(),
) -> dict:
    """Layer defaults, preset, YAML file, and dotted overrides.

    The `preset` key always names the preset applied: a file's `preset:`
    is its preset layer when no preset is passed, a file naming another
    preset than the one passed is rejected, and an override may not set it.
    """
    loaded = {} if file is None else _read_file(file)
    if "preset" in loaded:
        if preset and loaded["preset"] != preset:
            raise ConfigError(
                f"config file {file} names preset {loaded['preset']!r}, not {preset!r}"
            )
        preset = loaded["preset"]
    if preset not in ("", *PRESETS):
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    config = copy.deepcopy(PRESETS[preset] if preset else DEFAULTS)
    config["preset"] = preset
    config = merge(config, loaded)
    for text in overrides:
        parts, value = _parse_override(text)
        if parts == ["preset"]:
            raise ConfigError("'preset' cannot be overridden; choose it with --preset")
        config = _apply_override(config, parts, value, text.split("=", 1)[0])
    materialize(config)  # component validation runs before any side effects
    return config


@dataclass(frozen=True)
class Experiment:
    """Materialized component configs plus run-level scalars."""

    seed: int
    preset: str
    freeze_modules: tuple
    data: ToySpec
    model: ModelConfig  # vocab and raster filled in at run time
    loss: LossConfig
    augment: AugmentConfig
    train: TrainConfig
    raw: dict  # the resolved dict this was built from


def materialize(config: dict) -> Experiment:
    try:
        data = load(ToySpec, config["data"], "data")
        model = load(
            ModelConfig, config["model"], "model",
            image_height=data.height, image_width=data.width, vocab=(),
        )
        weights = {k: float(v) for k, v in config["loss"]["weights"].items()}
        loss = load(LossConfig, config["loss"], "loss", weights=weights)
        augment = load(AugmentConfig, config["augment"], "augment", image_pool=AugmentConfig.image_pool)
        train = load(TrainConfig, config["train"], "train")
        seed = config["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
        freeze_modules = tuple(config["freeze_modules"])
        modules = {module_of(key) for key in param_table(model)}
        for name in freeze_modules:
            if not isinstance(name, str):
                raise ConfigError(f"freeze_modules entries must be strings, got {name!r}")
            if name not in modules:
                raise ConfigError(f"freeze_modules: no module named '{name}'; known: {sorted(modules)}")
        if len(set(freeze_modules)) != len(freeze_modules):
            raise ConfigError(f"freeze_modules lists a module twice: {list(freeze_modules)}")
    except ConfigError:
        raise
    except UnknownTerm as e:
        raise ConfigError(e.args[0]) from None
    except KeyError as e:
        raise ConfigError(f"missing config key {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from None
    return Experiment(
        seed=seed,
        preset=config["preset"],
        freeze_modules=freeze_modules,
        data=data,
        model=model,
        loss=loss,
        augment=augment,
        train=train,
        raw=copy.deepcopy(config),
    )


def fingerprint(config: dict) -> str:
    """Short stable hash of a resolved configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def dump_yaml(config: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=True, default_flow_style=False)
