"""Mutation of JSON documents and of the bytes of a file, for the readers' fuzz tests.

A mutant is a parsed document with one to three edits: a value replaced by
an odd one or by another node of the same document, deleted, given an extra
key, duplicated in its list, or a number nudged. The scenario reader, the
wire decoder and the log decoder are each fed such mutants, and nothing but
a named ``SyncError`` may escape them. A byte mutant (``draw_byte_mutant``)
is a file's bytes with one to three edits below the JSON: a cut, invalid
UTF-8, CRLF line endings, a NUL or a doubled line; the log reader is fed
those.
"""

import copy
import math

from hypothesis import strategies as st

# Values a mutation puts in place of another: each JSON type, huge and
# negative integers, non-finite floats and a lone surrogate. Hypothesis draws
# the first ones most, so an integer too large for a float leads.
ODD_VALUES = (10**400, None, True, False, 0, -1, 2**63, -(2**63), 0.5, 1e308, math.nan,
              -math.inf, "", "x", "\ud800", [], [[]], {}, {"": None})
# What a nudge adds to a number: times move by steps or less, points by metres.
NUDGES = (-3600, -61, -1, 1, 29, 600, 0.0001, -0.002)


def paths(node, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in children:
        yield from paths(child, (*path, key))


def at_path(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, path, op, value):
    """``doc`` with the value at ``path`` replaced, deleted, given an extra key,
    duplicated or added to, as ``op`` says; the root is only ever replaced."""
    value = copy.deepcopy(value)  # the doc owns what it holds
    if not path:
        return value
    parent = at_path(doc, path[:-1])
    key, child = path[-1], parent[path[-1]]
    if op == "delete":
        del parent[key]
    elif op == "extra" and isinstance(child, dict):
        child["extra"] = value
    elif op == "nudge" and type(child) in (int, float):
        parent[key] = child + value
    elif op == "twice" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(child))
    else:
        parent[key] = value
    return doc


def draw_mutant(data, doc):
    """A copy of ``doc`` with one to three mutations drawn from ``data``
    (``st.data()``): each an operation, a value (a nudge, an odd value or a
    node of the document) and the path it applies at."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        where = list(paths(doc))
        op = data.draw(st.sampled_from(["nudge", "replace", "twice", "extra", "delete"]))
        if op == "nudge":
            value = data.draw(st.sampled_from(NUDGES))
        elif data.draw(st.booleans()):
            value = data.draw(st.sampled_from(ODD_VALUES))
        else:
            value = at_path(doc, data.draw(st.sampled_from(where)))
        doc = mutate(doc, data.draw(st.sampled_from(where)), op, value)
    return doc


# Bytes that are not UTF-8 where they land: a stray byte, a lead byte whose
# continuation is missing (one cut short by two), and an encoded surrogate.
BAD_UTF8 = (b"\xff", b"\xc3", b"\xe5\xae", b"\xed\xa0\x80")


def draw_byte_mutant(data, raw: bytes) -> bytes:
    """``raw`` with one to three edits drawn from ``data``: cut at an offset,
    invalid UTF-8 or a NUL put in at one, the line endings from one on (or
    all of them) made CRLF, or the line at one written twice."""
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["cut", "utf8", "crlf", "nul", "twice"]))
        at = data.draw(st.integers(0, len(raw)))
        if op == "cut":
            raw = raw[:at]
        elif op == "utf8":
            raw = raw[:at] + data.draw(st.sampled_from(BAD_UTF8)) + raw[at:]
        elif op == "nul":
            raw = raw[:at] + b"\0" + raw[at:]
        elif op == "crlf":
            start = 0 if data.draw(st.booleans()) else at
            raw = raw[:start] + raw[start:].replace(b"\n", b"\r\n")
        else:
            head = raw.rfind(b"\n", 0, at) + 1
            end = raw.find(b"\n", at)
            line = raw[head:len(raw) if end < 0 else end + 1]
            raw = raw[:head] + line + raw[head:]
    return raw
