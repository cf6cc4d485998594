"""Every public name of the package has a caller outside the tests.

An AST scan of ``src/sp4higgs/*.py``, ``demos/*.py`` and ``bench/*.py``
collects the identifier of every ``Name`` and ``Attribute`` load.  Each
name in a module's ``__all__``, and each public method or property of a
class in that ``__all__``, must be one of them unless ``ALLOWED`` lists
it, and an allowed name must have no load, so the list cannot go stale.
Matching is by identifier alone, so it is loose: a dead method that
shares its name with a live one, or with any loaded name, passes.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src/sp4higgs/*.py", "demos/*.py", "bench/*.py")

ALLOWED = {
    # acceptance criterion 10 states the round trip through the quotient
    "quotient_roundtrip",
    # the paper's test for a minimum of the Hitchin function, which the
    # valid-data properties and the minima-derived verdicts build on
    "is_hitchin_minimum",
}


def _scan():
    """(the loaded identifiers, the public names) of the scanned files."""
    loads, public = set(), set()
    for path in (p for pattern in SCANNED for p in sorted(ROOT.glob(pattern))):
        tree = ast.parse(path.read_text())
        loads.update(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                     if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))
        exported = {e.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for e in node.value.elts}
        public.update((name, name) for name in exported)
        public.update((f.name, "%s.%s" % (c.name, f.name)) for c in tree.body
                      if isinstance(c, ast.ClassDef) and c.name in exported
                      for f in c.body if isinstance(f, ast.FunctionDef)
                      and not f.name.startswith("_"))
    return loads, public


def test_every_public_name_has_a_caller_outside_the_tests():
    loads, public = _scan()
    uncalled = sorted(label for name, label in public
                      if name not in loads and name not in ALLOWED)
    assert not uncalled, "public names only the tests call: %s" % ", ".join(uncalled)


def test_allowed_names_are_still_uncalled():
    loads, public = _scan()
    assert ALLOWED <= {name for name, _ in public}
    assert not ALLOWED & loads, "allowed names that gained a caller: %s" % (ALLOWED & loads)
