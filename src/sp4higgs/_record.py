"""The base of the library's immutable value records.

Curve contexts, bundle classes, sections, the shapes, verdicts,
component labels and reports are all records: a fixed tuple of named
fields, compared and hashed by value.  When a record class is defined,
``Record`` resolves its annotations and writes the source of its
``__init__`` and field-tuple getter; both compile at the first lookup of
either, and the other methods are shared.  A process compiles only the
records it uses, so defining the classes costs little of ``import
sp4higgs``.
"""

import builtins
import sys

_setattr = object.__setattr__


def _type_test(module: str, field: str, annotation: str, scope: dict) -> str:
    """The ``__init__`` line that tests ``field`` against the class its
    annotation names, with that class bound as ``_<name>`` in ``scope``;
    "" for a generic annotation."""
    name = annotation[9:-1] if annotation.startswith("Optional[") else annotation
    if not name.isidentifier():
        return ""
    found = vars(sys.modules[module]).get(name, getattr(builtins, name, None))
    if not isinstance(found, type):
        raise NameError("field %s: annotation %r names no class" % (field, annotation))
    scope["_" + name] = found
    return "    if %stype(%s) is not _%s: raise TypeError(%r %% (%s,))\n" % (
        "%s is not None and " % field if name != annotation else "", field, name,
        "%s %%r is not of type %s" % (field, name), field)


class _Uncompiled:
    """Stands in for a record class's ``__init__`` or ``_values`` until
    the first lookup of either: it compiles the class's source and puts
    both functions in the class in place of the two stand-ins, so later
    lookups find the functions themselves.  It keeps its class because
    ``owner`` may be a subclass (a lookup through ``super()``).  Two
    threads that look up at once may both compile, and each puts equal
    functions in place."""

    __slots__ = ("cls", "name", "source", "scope")

    def __init__(self, cls, name, source, scope):
        self.cls, self.name, self.source, self.scope = cls, name, source, scope

    def __get__(self, instance, owner=None):
        namespace = {}
        exec(self.source, self.scope, namespace)
        init = namespace["__init__"]
        init.__qualname__ = self.cls.__qualname__ + ".__init__"
        self.cls.__init__ = init
        self.cls._values = namespace["_values"]
        return namespace[self.name].__get__(instance, owner)


class Record:
    """An immutable record of the fields its class annotates.

    A subclass declares its fields once, as class annotations in order;
    a class attribute of the same name is that field's default.  The
    class gets an ``__init__`` taking the fields by position or keyword.
    It and the field-tuple getter ``_values`` are compiled at the first
    lookup of either (building an instance, comparing or hashing one,
    ``inspect.signature`` of the class), not when the class is created.

    The annotation is the field's one type rule.  A field annotated with
    a class name, or with ``Optional[<class name>]``, takes exactly that
    class (``type(value) is T``, so a bool is no int), and None too
    where the annotation is Optional; any other value raises
    ``TypeError("<field> <repr> is not of type <T>")``.  The name is
    resolved when the class is created, in the defining module and then
    in builtins, and a name that resolves to no class (to nothing, or to
    an alias such as a Union) raises NameError there.  Generic
    annotations (``Tuple[...]``, ``FrozenSet[...]``, as in a sum's
    ``Tuple["HiggsDatum", ...]``) are not checked.  The type tests run
    first; the ``__init__`` ends by calling ``__post_init__`` where the
    class has one (to check values, or to normalize them through
    ``object.__setattr__``).  ``_fields`` is the tuple of field names.

    Records are equal when they are of the same class and their field
    tuples are equal, a record hashes as its field tuple, its repr is
    ``Name(field=value, ...)``, and assigning or deleting an attribute
    raises AttributeError.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own namespace: on Python 3.10, cls.__annotations__
        # of a class that declares none is a base class's
        own = cls.__dict__
        hints = own.get("__annotations__", {})
        names = tuple(hints)
        params = ", ".join("%s=_own[%r]" % (n, n) if n in own else n for n in names)
        scope = {"_setattr": _setattr, "_own": own}
        body = "".join(_type_test(cls.__module__, n, hints[n], scope) for n in names)
        body += "".join("    _setattr(self, %r, %s)\n" % (n, n) for n in names)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        source = ("def __init__(self, %s):\n%s"
                  "def _values(self):\n    return (%s)\n"
                  % (params, body, "".join("self.%s, " % n for n in names)))
        cls.__init__ = _Uncompiled(cls, "__init__", source, scope)
        cls._values = _Uncompiled(cls, "_values", source, scope)
        cls._fields = names

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)
