"""The package's one decode of input bytes, and its one strict reader of JSON inputs, each
declared by a schema: a kind. The library parses bytes; only cli reads files, and only cli
names them in a refusal.

Kinds: int; float, any number (a lone one read as a float); str; bool, never a number (nor
is 3.0 an int); object, any value, left to the type that reads it; [kind], a list;
(kind, ...), a list of exactly those kinds; {key: kind}, an object with those keys only;
Map(kind), an object of any keys; Nullable(kind), null or kind; and for a key
Default(kind, value): a key left out reads as value, read through kind unless None, so
that the defaults inside it fill in too. An object that repeats a key is refused, at any
level, naming the key.
"""

import io
import json
from collections import namedtuple

Map = namedtuple("Map", "kind")
Nullable = namedtuple("Nullable", "kind")
Default = namedtuple("Default", "kind value")

_TYPES = {int: {int}, float: {int, float}, str: {str}, bool: {bool}}
_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
          list: "a list", dict: "an object", Map: "an object"}


def decode_text(raw: bytes) -> str:
    """raw as UTF-8 text with universal newlines, as opening its file in text mode reads it:
    the same line numbers, character offsets and decode error positions."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()


def read_json(raw: bytes, schema, build):
    """build(document), the JSON document raw holds once schema has checked it. A refusal of
    the schema names the key: "graph.n must be an integer, got 4.7"."""
    return build(_read(json.loads(decode_text(raw), object_pairs_hook=_unique), schema, ""))


def _unique(pairs: list) -> dict:
    """The object of pairs, refused when a key repeats: json.loads would keep its last value."""
    value = dict(pairs)
    if len(value) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"{next(key for key in value if keys.count(key) > 1)} is a repeated key")
    return value


def _read(value, kind, where: str):
    """value checked against kind, where being its key path; absent defaults filled in."""
    expected = kind
    if type(kind) is Nullable:
        if value is None:
            return None
        kind = kind.kind
    shape = type(kind)
    if shape is type:
        if kind is object or type(value) in _TYPES[kind]:
            return float(value) if kind is float else value
    elif type(value) is list and shape is list:
        if _plain(value, kind[0]):
            return value
        return [_read(item, kind[0], f"{where}[{k}]") for k, item in enumerate(value)]
    elif type(value) is list and shape is tuple and len(value) == len(kind):
        return [_read(item, of, f"{where}[{k}]") for k, (item, of) in enumerate(zip(value, kind))]
    elif type(value) is dict and shape in (dict, Map):
        at = where and where + "."
        if shape is Map:
            return {key: _read(item, kind.kind, at + key) for key, item in value.items()}
        unknown = [key for key in value if key not in kind]
        if unknown:
            raise ValueError(f"{at}{unknown[0]} is an unknown key; known: {', '.join(kind)}")
        return {key: _field(value, key, of, at + key) for key, of in kind.items()}
    name = (f"a list of {len(kind)} entries" if shape is tuple
            else _NAMES[kind if shape is type else shape])
    raise ValueError(f"{where or 'the document'} must be {name}"
                     f"{' or null' if expected is not kind else ''}, got {value!r:.80}")


def _plain(values: list, kind) -> bool:
    """Whether every entry is of kind, a type or a tuple of types, checked a type at a time
    rather than by a call per entry. False for any other kind: its entries are read singly."""
    if type(kind) is type:
        return kind is object or set(map(type, values)) <= _TYPES[kind]
    return (type(kind) is tuple and all(type(of) is type for of in kind)
            and set(map(type, values)) <= {list} and set(map(len, values)) <= {len(kind)}
            and all(_plain(column, of) for column, of in zip(zip(*values), kind)))


def _field(value: dict, key: str, kind, where: str):
    if key in value:
        return _read(value[key], kind.kind if type(kind) is Default else kind, where)
    if type(kind) is not Default:
        raise ValueError(f"{where} is missing")
    return None if kind.value is None else _read(kind.value, kind.kind, where)
