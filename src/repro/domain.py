"""Field domains: the values a config field admits, declared on the field.

A field's annotation is its exact type: one of :data:`KINDS` or a config
class, optionally ``| None``.  Its ``field(metadata=...)`` may bound it (``min`` or ``above``,
with an optional ``max``) or list its ``choices``.  :func:`check_fields` is
the one loop that enforces them, called first by the ``__post_init__`` of
``TrainingConfig``, ``ParallelismConfig``, ``ModelConfig``, ``GPUSpec``,
``NodeTopology`` and ``STAllocConfig``; only rules relating two fields stay
hand-written there.
"""

from __future__ import annotations

import math
from dataclasses import fields

#: Annotation -> (exact value types it admits, the noun errors name them by).
#: A bool is not an int, and a float field stores an int as a float, so
#: equal configs have one content address.
KINDS = {
    "int": ((int,), "an int"),
    "float": ((float, int), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


def check_fields(config) -> None:
    """Raise a one-line ``ValueError`` naming the first field of ``config``
    outside its domain (a float must also be finite); a field annotated with
    another class, such as a nested config, must hold an instance of it, which
    checks its own fields."""
    for spec in fields(config):  # postponed annotations: ``spec.type`` is text
        kind = spec.type.removesuffix(" | None")
        value = getattr(config, spec.name)
        optional = kind != spec.type
        if value is None and optional:
            continue
        if kind not in KINDS:
            if kind not in {cls.__name__ for cls in type(value).__mro__}:
                raise ValueError(f"{spec.name} must be a {kind}, got {value!r}")
            continue
        types, noun = KINDS[kind]
        meta = spec.metadata
        if (
            type(value) in types
            and (kind != "float" or math.isfinite(value))
            and (
                not meta  # a field without metadata has no range
                or value >= meta.get("min", value)
                and value <= meta.get("max", value)
                and ("above" not in meta or value > meta["above"])
                and value in meta.get("choices", (value,))
            )
        ):
            if type(value) is not types[0]:
                object.__setattr__(config, spec.name, types[0](value))
            continue
        if "choices" in meta:
            domain = "one of " + ", ".join(map(str, meta["choices"]))
        elif "max" in meta:
            lower = f"[{meta['min']}" if "min" in meta else f"({meta['above']}"
            domain = f"{noun} in {lower}, {meta['max']}]"
        elif "min" in meta or "above" in meta:
            domain = f"{noun} >= {meta['min']}" if "min" in meta else f"{noun} > {meta['above']}"
        else:
            domain = noun
        raise ValueError(
            f"{spec.name} must be {domain}{' or None' if optional else ''}, got {value!r}"
        )
