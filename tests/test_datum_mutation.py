"""Mutated datum files never crash the CLI.

Valid datum documents from the golden corpus are mutated: fields are
dropped, added or retyped, coordinate strings and bitstrings are
perturbed, arrays lose or gain entries, and the file text may be cut
short.  Each mutant is run through ``cli.main`` in-process.  Whatever
the input, the CLI exits 0, 1 or 2, prints exactly one JSON object
(nothing at all is allowed only with exit 2) and lets no exception
escape.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from sp4higgs.cli import main

from test_golden import corpus

DOCS = [doc for _, _, _, doc in corpus()]
COMMANDS = ("classify", "stability", "normal-form")

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30), st.floats(),
    st.text(max_size=12), st.just([]), st.just({}),
    st.lists(st.integers(-3, 3), max_size=9),
    st.dictionaries(st.text(max_size=6), st.integers(), max_size=3))

COORDINATE = st.one_of(
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.sampled_from(["1/0", "-0/1", "0/0", "1/-2", "+1/2", "1//2", "1/2/3",
                     "/2", "1/", "", "1", "1.5/2", "1e3/1", "١/2", "1/2 ",
                     "-" + "9" * 40 + "/7", "3/" + "1" * 40]),
    st.builds("{}/{}".format, st.integers(-10 ** 12, 10 ** 12),
              st.integers(0, 10 ** 12)))


def _paths(node, prefix=()):
    """Every path into ``node``, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _perturbed_bits(data, bits):
    """A bitstring with one character flipped, dropped, added or replaced
    by a character that is not a bit."""
    k = data.draw(st.integers(0, len(bits)))
    head, tail = bits[:k], bits[k + 1:]
    how = data.draw(st.sampled_from(["flip", "drop", "add", "junk"]))
    if how == "add":
        return head + data.draw(st.sampled_from("01")) + bits[k:]
    if how == "drop":
        return head + tail
    if how == "flip":
        return head + ("1" if bits[k:k + 1] == "0" else "0") + tail
    return head + data.draw(st.sampled_from("2x -")) + tail


def _mutate(data, doc):
    """``doc`` with one mutation applied; the root may be replaced."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = _get(doc, path)
    parent = _get(doc, path[:-1]) if path else None
    kinds = ["retype"]
    if path:
        kinds.append("drop")
    if isinstance(parent, list):
        kinds.append("duplicate")
    if isinstance(value, dict):
        kinds.append("add field")
    if isinstance(value, str) or type(value) is int:
        # perturbed values often still parse, so they reach the rules
        kinds += ["perturb"] * 3
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[path[-1]]
        return doc
    if kind == "duplicate":
        parent.insert(path[-1], copy.deepcopy(value))
        return doc
    if kind == "retype":
        new = data.draw(JUNK)
    elif kind == "add field":
        new = dict(value)
        new[data.draw(st.text(max_size=8))] = data.draw(JUNK)
    elif type(value) is int:
        new = value + data.draw(st.integers(-3, 3))
    elif set(value) <= {"0", "1"}:
        new = _perturbed_bits(data, value)
    else:
        new = data.draw(COORDINATE)
    if not path:
        return new
    parent[path[-1]] = new
    return doc


def _run(cmd, text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "datum.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([cmd, "--in", path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_datum_gives_an_exit_code_and_one_json_object(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    text = json.dumps(doc)
    if data.draw(st.integers(0, 7)) == 0:
        text = text[:data.draw(st.integers(0, len(text)))]
    code, out, err = _run(data.draw(st.sampled_from(COMMANDS)), text)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if not out:
        assert code == 2
        return
    payload = json.loads(out)
    assert isinstance(payload, dict)
    if code:
        assert set(payload) == {"error", "clause"}
