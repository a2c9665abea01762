"""Component configs to and from plain dicts.

The schema is the dataclass fields themselves: `dataclasses.asdict` writes
a config and `load` reads one back. The resolved experiment config, the
checkpoint header and the corpus header all go through these two, so a new
field needs no hand-written copy anywhere.
"""

from __future__ import annotations

import dataclasses


class ConfigError(ValueError):
    """Bad configuration: unknown key, wrong type, or invalid value."""


# what a scalar field takes, by its annotation; a bool is an int to Python,
# so the numeric kinds exclude it
ACCEPTS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def load(cls, values: dict, section: str, **fixed):
    """Build the dataclass `cls` from `values`.

    Lists become tuples. `fixed` supplies fields that are not read from the
    dict (the ones filled in at run time). Every other field must be
    present, and a scalar one must hold a value its annotation takes
    (`ACCEPTS`); a missing or mistyped one raises ConfigError naming
    `section.key`. Keys that are not fields are ignored.
    """
    read = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    for f in read:
        if f.name not in values:
            raise ConfigError(f"missing config key '{section}.{f.name}'")
        kind = getattr(f.type, "__name__", f.type)
        if kind in ACCEPTS and not ACCEPTS[kind](values[f.name]):
            raise ConfigError(f"config key '{section}.{f.name}' must be {kind}, got {values[f.name]!r}")
    names = {f.name for f in read}
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in values.items() if k in names}
    return cls(**kwargs, **fixed)
