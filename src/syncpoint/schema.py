"""Schema-driven JSON codec for wire frames, log records and transcripts.

A ``Schema`` describes one dataclass: its tag and its fields with their
kinds. It alone sets the canonical form: compact separators, no ASCII
escaping, the tag first, the other keys sorted, and an optional key left
out when its value is None. That is ``json.dumps(..., ensure_ascii=False,
separators=(",", ":"), allow_nan=False)`` of the ordered object.

Each schema is compiled once, as ``dataclasses`` compiles ``__init__``,
into an encoder that fills one ``%`` template straight from the instance
(``encode_basestring``, ``int.__repr__``, ``float.__repr__``; NaN and
infinity raise ``ValueError``) and into one decoder: a constructor
expression over the parsed object that checks each field, raising
``FieldInvalid`` for a value of the wrong type or range and ``KeyError``
for a missing key. Wire frames, log records and scenario files pass
through it.

A ``OneOf`` (any frame, any notification) encodes the same object given
twice in a row once: the shared frame of a fan-out. ``loads_line`` is the
one strict UTF-8 decode and JSON parse of a line, for frames and records.
"""

from __future__ import annotations

import dataclasses
import json
from functools import cached_property
from json.encoder import encode_basestring
from operator import itemgetter

from .errors import SyncError


class FieldMissing(SyncError):
    code = "FIELD_MISSING"

    def __init__(self, name: str):
        super().__init__(f"missing field {name!r}")
        self.name = name


class FieldInvalid(SyncError):
    code = "FIELD_INVALID"

    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"invalid field {name!r}" + (f": {detail}" if detail else ""))
        self.name = name


_INF = float("inf")


def _float(x: float) -> str:
    if -_INF < x < _INF:
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


_scan_once = json.JSONDecoder().scan_once


def loads_line(line: str | bytes):
    """``json.loads(line)``: the value of one line, or the same ``JSONDecodeError``.

    Bytes are decoded as strict UTF-8 first, never guessed as ``json.loads``
    would. A line that is one JSON value, then JSON whitespace only, is
    scanned once by the C scanner; any other line, such as one with leading
    whitespace or extra data, goes through ``json.loads`` for its result
    or its error message.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError):
        return json.loads(line)
    if not line[end:].strip(" \t\n\r"):
        return value
    return json.loads(line)


# --- field checks: (parsed value, key, *args) -> value -------------------------

def _str(v, key: str, empty: bool = False) -> str:
    if not isinstance(v, str):
        raise FieldInvalid(key, "expected a string")
    if not (v or empty):
        raise FieldInvalid(key, "must be non-empty")
    return v


def _int(v, key: str, minimum: int = 0) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise FieldInvalid(key, "expected an integer")
    if v < minimum:
        raise FieldInvalid(key, f"must be >= {minimum}")
    return v


def _number(v, key: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise FieldInvalid(key, "expected a number")
    try:
        return float(v)
    except OverflowError:  # an integer too large for a float
        raise FieldInvalid(key, "out of range") from None


def _bool(v, key: str) -> bool:
    if not isinstance(v, bool):
        raise FieldInvalid(key, "expected a boolean")
    return v


def _choice(v, key: str, members: dict):
    try:
        return members[v]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        _str(v, key)
        raise FieldInvalid(key, f"not one of {list(members)}") from None


def _object(v, key: str) -> dict:
    if not isinstance(v, dict):
        raise FieldInvalid(key, "expected an object")
    return v


def _list(v, key: str) -> list:
    if not isinstance(v, list):
        raise FieldInvalid(key, "expected a list")
    return v


# --- kinds --------------------------------------------------------------------

class _Names(dict):
    """The globals of generated code; each object gets a fresh name."""

    def add(self, obj) -> str:
        name = f"_{len(self)}"
        self[name] = obj
        return name


def _fill(template: str, values: list[str]) -> str:
    """The expression that fills a ``%`` template with the expressions ``values``."""
    return values[0] if template == "%s" else f"({template!r} % ({', '.join(values)},))"


class Kind:
    """How a field is written to JSON and read back.

    A scalar is written by ``encode`` and read by ``check(value, key, *args)``,
    called only if the inlined test ``valid`` (its ``{}`` binds ``v``) fails:
    it passes only values the check returns as they are. The subclasses are
    the composite kinds.
    """

    optional = False

    def __init__(self, encode, check, *args, valid=None):
        self.encode, self.check, self.args, self.valid = encode, check, args, valid

    def template(self, value: str, names: _Names) -> tuple[str, list[str]]:
        """The JSON of the value expression ``value``: a template and its fillers."""
        return "%s", [f"{names.add(self.encode)}({value})"]

    def parse(self, got: str, key: str, names: _Names) -> str:
        """The expression that checks the parsed value ``got`` into the field value."""
        args = "".join(f", {names.add(a)}" for a in self.args)
        if self.valid is None:
            return f"{names.add(self.check)}({got}, {key!r}{args})"
        test = self.valid.format(f"(v := {got})")
        return f"(v if {test} else {names.add(self.check)}(v, {key!r}{args}))"


STR = Kind(encode_basestring, _str, valid="{}.__class__ is str and v")  # non-empty
TEXT = Kind(encode_basestring, _str, True, valid="{}.__class__ is str")
INT = Kind(int.__repr__, _int, valid="{}.__class__ is int and v >= 0")
SIGNED = Kind(int.__repr__, _int, -_INF, valid="{}.__class__ is int")
COUNT = Kind(int.__repr__, _int, 1, valid="{}.__class__ is int and v >= 1")
FLOAT = Kind(_float, _number, valid="{}.__class__ is float")
BOOL = Kind({True: "true", False: "false"}.__getitem__, _bool, valid="{}.__class__ is bool")


def choice(members) -> Kind:
    """A str enum, or a dict's str keys. A member is a str equal to its value."""
    if isinstance(members, dict):
        return Kind(encode_basestring, _choice, dict(zip(members, members)))
    assert issubclass(members, str), members
    return Kind(encode_basestring, _choice, members._value2member_map_)


class Optional(Kind):
    """A field whose key is left out when its value is None. An absent key reads
    as the field's default; a present one, null too, is checked by ``inner``."""

    optional = True

    def __init__(self, inner: Kind):
        self.template, self.parse = inner.template, inner.parse


class Nested(Kind):
    """A JSON object inside the enclosing one."""

    def __init__(self, schema: Schema):
        self.schema = schema

    def template(self, value, names):
        return self.schema.template(value, names)

    def parse(self, got, key, names):
        return f"{names.add(self.schema.decoder)}({names.add(_object)}({got}, {key!r}))"


class Inline(Nested):
    """A nested value whose keys sit in the enclosing object (a fix's lat and lon)."""


class ListOf(Kind):
    """A JSON list of one scalar kind, or of objects of one schema; the value is a tuple."""

    def __init__(self, item: Kind | Schema):
        self.encode_item = item.encode
        self.item = Nested(item) if isinstance(item, Schema) else item

    def template(self, value, names):
        return "[%s]", [f"','.join(map({names.add(self.encode_item)}, {value}))"]

    def parse(self, got, key, names):
        item = self.item.parse("e", key, names)
        return f"tuple([{item} for e in {names.add(_list)}({got}, {key!r})])"


def _no_schema(value):
    raise TypeError(f"no schema for {value!r}")


class OneOf(Kind):
    """Any of several tagged schemas, chosen by the value's class or by its tag.

    ``encode`` keeps the last value and its text, and returns that text when
    the very same object comes again, as the shared frame of a fan-out does,
    so nothing may assign to a frame or a notification once it is built.

    This is the package's one statement of which values are frozen. Every
    dataclass is slotted, and a value shared by identity or hashed is frozen:
    each notification, each server frame but ``Notify``, and ``Activity``
    with its parts. A value that one owner builds, uses once and drops is
    not (a client frame, which is decoded, handled once and dropped; a log
    record, its event, a transcript entry): a frozen ``__init__`` sets each
    field through ``object.__setattr__``, at two to three times the cost.
    ``Notify`` is shared but not frozen, as a crossing fix builds one per seq
    of its fan-out: only ``engine._enqueue`` builds a queued frame, and
    nothing assigns to it after that, so the text kept for it stays its text.
    """

    def __init__(self, *schemas: Schema):
        self.schemas = schemas
        self.encoders = {s.cls: s.encode for s in schemas}
        self._last = (_no_schema, "")  # (value, its text); no value is _no_schema

    def encode(self, value) -> str:
        last, text = self._last
        if value is last:
            return text
        text = self.encoders.get(type(value), _no_schema)(value)
        self._last = (value, text)
        return text

    def template(self, value, names):
        return "%s", [f"{names.add(self.encode)}({value})"]

    def parse(self, got, key, names):
        tag_key = self.schemas[0].tag[0]
        decoders = {s.tag[1]: s.decoder for s in self.schemas}

        def decode(obj):
            tag = obj[tag_key]
            decoder = decoders.get(tag) if isinstance(tag, str) else None
            if decoder is None:
                raise FieldInvalid(tag_key, f"unknown {key} {tag_key} {tag!r}")
            return decoder(obj)
        return f"{names.add(decode)}({names.add(_object)}({got}, {key!r}))"


# --- schemas ------------------------------------------------------------------

class Schema:
    """One frame, record or nested object: its class, tag and fields.

    ``fields`` are (attribute, kind) pairs in declaration order, one per
    ``__init__`` field but for trailing ones that have defaults; a
    keyword-only one is passed by name. Each attribute is also the JSON key. ``tag`` is the (key, value) pair that
    names the variant.
    """

    def __init__(self, cls, *fields: tuple[str, Kind], tag: tuple[str, str] | None = None):
        init = [f for f in dataclasses.fields(cls) if f.init]
        assert [f.name for f in init[:len(fields)]] == [name for name, _ in fields], (cls, init)
        self.defaults = {f.name: f.default for f in init if f.default is not dataclasses.MISSING}
        assert all(f.name in self.defaults for f in init[len(fields):]), cls
        self.keyword = {f.name for f in init if f.kw_only}
        self.cls, self.fields, self.tag = cls, fields, tag

    def slots(self, value: str) -> list[tuple[str, str, Kind]]:
        """(JSON key, value expression, kind) of each key, inline fields expanded."""
        out = []
        for name, kind in self.fields:
            if isinstance(kind, Inline):
                out.extend(kind.schema.slots(f"{value}.{name}"))
            else:
                out.append((name, f"{value}.{name}", kind))
        return out

    def keys(self) -> frozenset[str]:
        """Every key of the object, the tag's included."""
        keys = [key for key, _, _ in self.slots("")]
        return frozenset(keys + [self.tag[0]] if self.tag else keys)

    def template(self, value: str, names: _Names) -> tuple[str, list[str]]:
        """The canonical JSON of the value expression ``value``, as in ``Kind``."""
        template, values = "{", []
        if self.tag:
            template += ":".join(map(encode_basestring, self.tag)).replace("%", "%%")
        for i, (key, got, kind) in enumerate(sorted(self.slots(value), key=itemgetter(0))):
            head = ("," if self.tag or i else "") + encode_basestring(key) + ":"
            part, fillers = kind.template(got, names)
            if kind.optional:
                assert self.tag or i, "an untagged object cannot start with an optional key"
                template += "%s"
                values.append(f"('' if {got} is None else {head!r} + {_fill(part, fillers)})")
            else:
                template += head.replace("%", "%%") + part
                values.extend(fillers)
        return template + "}", values

    @cached_property
    def encode(self):
        """The canonical JSON text of an instance."""
        names = _Names()
        return eval(f"lambda obj: {_fill(*self.template('obj', names))}", dict(names))

    def construct(self, obj: str, names: _Names) -> str:
        """The expression that builds an instance from the parsed object ``obj``."""
        args = []
        for key, kind in self.fields:
            if isinstance(kind, Inline):
                args.append(kind.schema.construct(obj, names))
            elif kind.optional:
                default = names.add(self.defaults[key])
                args.append(f"({kind.parse(f'{obj}[{key!r}]', key, names)} "
                            f"if {key!r} in {obj} else {default})")
            else:
                args.append(kind.parse(f"{obj}[{key!r}]", key, names))
            if key in self.keyword:
                args[-1] = f"{key}={args[-1]}"
        return f"{names.add(self.cls)}({', '.join(args)})"

    @cached_property
    def decoder(self):
        """An instance from a parsed JSON object; a missing key raises KeyError."""
        names = _Names()
        return eval(f"lambda obj: {self.construct('obj', names)}", dict(names))
