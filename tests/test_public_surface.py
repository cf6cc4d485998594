"""Every public name of the package has a caller outside the tests.

An AST scan of ``src/sp4higgs/*.py``, ``demos/*.py`` and ``bench/*.py``
collects the loads of every file.  Each name in a module's ``__all__``,
and each public method or property of a class in that ``__all__``, must
have a load unless ``ALLOWED`` lists it, and an allowed name must have
none, so the list cannot go stale.

A module-level name is resolved: a ``Name`` load counts for it only in
its own module or in a file that imports it from ``sp4higgs``, and an
``Attribute`` load only on a name bound to its module or to the package
(``higgs.rank`` or ``sp4higgs.rank``, not a ``rank`` a file defines for
itself).  Methods and properties are matched by identifier alone, so
that match is loose: a dead method that shares its name with any loaded
name passes.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = "sp4higgs"
SCANNED = ("src/sp4higgs/*.py", "demos/*.py", "bench/*.py")
MODULES = {p.stem for p in (ROOT / "src" / PACKAGE).glob("*.py")}

ALLOWED = {
    # acceptance criterion 10 states the round trip through the quotient
    "quotient_roundtrip",
    # the paper's test for a minimum of the Hitchin function, which the
    # valid-data properties and the minima-derived verdicts build on
    "is_hitchin_minimum",
    # the C* limit of a maximal datum, on which the valid-data
    # properties and the minima-derived verdicts build
    "minimum",
}


def _bindings(tree, own):
    """(local name -> (module, name) it imports, local name -> module it
    binds) for a file of module ``own`` (None outside the package); a
    module is a stem of ``MODULES`` or ``PACKAGE``."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == PACKAGE:
                    local = a.asname or PACKAGE
                    modules[local] = parts[-1] if a.asname and len(parts) > 1 else PACKAGE
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                source = (node.module or PACKAGE) if own else None
            else:
                parts = (node.module or "").split(".")
                source = parts[-1] if parts[0] == PACKAGE else None
            for a in node.names if source else ():
                if source == PACKAGE and a.name in MODULES:
                    modules[a.asname or a.name] = a.name
                else:
                    names[a.asname or a.name] = (source, a.name)
    return names, modules


def _scan():
    """(the resolved (module, name) loads, the loaded identifiers, the
    public (module or None, name, label) entries) of the scanned files."""
    resolved, idents, public = set(), set(), set()
    for path in (p for pattern in SCANNED for p in sorted(ROOT.glob(pattern))):
        tree = ast.parse(path.read_text())
        own = path.stem if path.parent.name == PACKAGE else None
        names, modules = _bindings(tree, own)
        for n in ast.walk(tree):
            if not isinstance(getattr(n, "ctx", None), ast.Load):
                continue
            if isinstance(n, ast.Name):
                idents.add(n.id)
                resolved.add(names.get(n.id, (own, n.id)))
            elif isinstance(n, ast.Attribute):
                idents.add(n.attr)
                base = n.value
                if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name) \
                        and modules.get(base.value.id) == PACKAGE and base.attr in MODULES:
                    resolved.add((base.attr, n.attr))
                elif isinstance(base, ast.Name) and base.id in modules:
                    resolved.add((modules[base.id], n.attr))
        exported = {e.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for e in node.value.elts}
        public.update((own, name, name) for name in exported)
        public.update((None, f.name, "%s.%s" % (c.name, f.name)) for c in tree.body
                      if isinstance(c, ast.ClassDef) and c.name in exported
                      for f in c.body if isinstance(f, ast.FunctionDef)
                      and not f.name.startswith("_"))
    return resolved, idents, public


def _loaded(module, name, resolved, idents):
    if module is None:
        return name in idents
    return (module, name) in resolved or (PACKAGE, name) in resolved


def test_every_public_name_has_a_caller_outside_the_tests():
    resolved, idents, public = _scan()
    uncalled = sorted(label for module, name, label in public
                      if label not in ALLOWED and not _loaded(module, name, resolved, idents))
    assert not uncalled, "public names only the tests call: %s" % ", ".join(uncalled)


def test_allowed_names_are_still_uncalled():
    resolved, idents, public = _scan()
    allowed = {label: (module, name) for module, name, label in public if label in ALLOWED}
    assert set(allowed) == ALLOWED
    called = sorted(label for label, (module, name) in allowed.items()
                    if _loaded(module, name, resolved, idents))
    assert not called, "allowed names that gained a caller: %s" % ", ".join(called)
