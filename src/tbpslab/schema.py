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


def load(cls, values: dict, section: str, **fixed):
    """Build the dataclass `cls` from `values`.

    Lists become tuples. `fixed` supplies fields that are not read from the
    dict (the ones filled in at run time). Every other field must be
    present; a missing one raises ConfigError naming `section.key`. Keys
    that are not fields are ignored.
    """
    names = [f.name for f in dataclasses.fields(cls) if f.name not in fixed]
    for key in names:
        if key not in values:
            raise ConfigError(f"missing config key '{section}.{key}'")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in values.items() if k in names}
    return cls(**kwargs, **fixed)
