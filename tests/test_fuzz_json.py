"""Mutated workspace files end in a Workspace, a WorkspaceError, or a CLI
exit code in {0, 1, 2} with a message, never in a traceback.

Each example takes one committed fixture, sets one JSON path (an object
member, a list element or the whole document) to a value from a small
pool of awkward values, or deletes it, and runs one workspace subcommand
on the result.  An exit code 2 names a JSON pointer (RFC 6901) that
resolves in the mutated document, or names a missing member of an object
that does.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from weakcp import cli
from weakcp.jsonio import Workspace, WorkspaceError, load_workspace

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
DOCS = {}
for _name in sorted(os.listdir(FIXTURES)):
    if _name.endswith(".json"):
        with open(os.path.join(FIXTURES, _name)) as _fh:
            DOCS[_name] = json.load(_fh)

DELETE = object()
POOL = (None, True, False, 0, -1, 10**30, 1.5, "x", "1/0", [], {}, DELETE)


def _paths(node, prefix=()):
    """Every JSON path in node, the empty path (the document) first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _resolves(doc, pointer):
    """Whether pointer resolves in doc, or names a missing member of an
    object it resolves to."""
    node = doc
    tokens = pointer.split("/")[1:] if pointer else []
    for i, token in enumerate(tokens):
        token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(node, dict) and token in node:
            node = node[token]
        elif isinstance(node, list) and token.isdigit() and int(token) < len(node):
            node = node[int(token)]
        else:
            return isinstance(node, dict) and i == len(tokens) - 1
    return True


def _mutated(doc, path, value):
    """A copy of doc with the value at path replaced by value, or deleted."""
    if not path:
        return None if value is DELETE else copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_fixture_fails_cleanly(data):
    name = data.draw(st.sampled_from(sorted(DOCS)), label="fixture")
    paths = list(_paths(DOCS[name]))
    path = paths[data.draw(st.integers(0, len(paths) - 1), label="path")]
    value = data.draw(st.sampled_from(POOL), label="value")
    command = data.draw(st.sampled_from(sorted(cli._HANDLERS)), label="command")
    flags = ["--json"] if data.draw(st.booleans(), label="json") else []
    doc = _mutated(DOCS[name], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "ws.json")
        with open(target, "w") as fh:
            json.dump(doc, fh)
        try:
            assert isinstance(load_workspace(target), Workspace)
        except WorkspaceError:
            pass
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, target] + flags)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        pointer = err.getvalue()[len("error: "):].split(": ", 1)[0]
        # the CLI prints the pointer "" to the whole document as "/"
        assert _resolves(doc, "" if pointer == "/" else pointer), err.getvalue()
