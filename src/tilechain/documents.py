"""One reader for the JSON documents of the chain.

Every loader reads its JSON objects through :func:`fields`, so one set of
rules decides what is malformed.  Each refusal is a ``ValueError``::

    <where> must be a JSON object, not <type>
    unknown <where> fields: [...]
    missing <where> fields: [...]
    <where> field '<f>' must be <wanted>, not <type>

A spec maps each field to its JSON type: ``int`` (``bool`` and ``float``
refused), ``str``, ``list``, ``dict``, a tuple of them (``type(None)`` is
null), ``[kind]`` for a list of ``kind`` items, or ``None`` for a field
with a reader of its own (a ring name, a color).  This module imports
nothing from the package.
"""

from __future__ import annotations

_WANTED = {int: "an integer", str: "a string", list: "a list",
           dict: "an object", type(None): "null"}


def wrong_type(where: str, field: str, value, kind) -> ValueError:
    """The refusal of ``value`` in ``field`` of ``where``: not of JSON type
    ``kind``."""
    kinds = kind if type(kind) is tuple else (kind,)
    return ValueError(f"{where} field {field!r} must be "
                      f"{' or '.join(_WANTED[k] for k in kinds)}, "
                      f"not {type(value).__name__}")


def _check(where: str, field: str, value, kind) -> None:
    if type(value) not in (kind if type(kind) is tuple else (kind,)):
        raise wrong_type(where, field, value, kind)


def fields(data, where: str, spec: dict, defaults: dict = {}) -> list:
    """The values of the fields of ``spec`` in ``data``, in spec order; an
    absent field with a default takes it, unchecked."""
    if type(data) is not dict:
        raise ValueError(f"{where} must be a JSON object, "
                         f"not {type(data).__name__}")
    unknown = data.keys() - spec.keys()
    if unknown:
        raise ValueError(f"unknown {where} fields: "
                         f"{sorted(unknown, key=str)}")
    missing = spec.keys() - data.keys() - defaults.keys()
    if missing:
        raise ValueError(f"missing {where} fields: {sorted(missing)}")
    values = []
    for name, kind in spec.items():
        if name not in data:
            values.append(defaults[name])
            continue
        value = data[name]
        if type(kind) is list:
            _check(where, name, value, list)
            for item in value:
                _check(where, name, item, kind[0])
        elif kind is not None:
            _check(where, name, value, kind)
        values.append(value)
    return values
