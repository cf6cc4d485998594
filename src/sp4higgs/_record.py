"""The base of the library's immutable values.

``Immutable`` is the base of every value type: the field elements,
matrices and mod-2 vectors, and the records.  Curve contexts, bundle
classes, sections, the shapes, verdicts, component labels and reports
are all records: a fixed tuple of named fields, compared and hashed by
value.  When a record class is defined, ``Record`` resolves its
annotations and writes the source of its ``__init__`` and field-tuple
getter; both compile at the first lookup of either, and the other
methods are shared.  A process compiles only the records it uses, so
defining the classes costs little of ``import sp4higgs``.
"""

import builtins
import sys

_setattr = object.__setattr__

# the container a generic annotation's head names
_CONTAINERS = {"Tuple": "tuple", "FrozenSet": "frozenset"}


class Immutable:
    """A value whose attributes are set once, while it is built, through
    ``object.__setattr__``; assigning or deleting one afterwards raises
    ``AttributeError("<Class> is immutable")``.  Values are shared freely
    (every zero coefficient a datum file holds is the one ``ZERO``), so
    no value may change under its other holders.  It declares no slots,
    so a subclass with ``__slots__`` has no ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


def _type_test(scope: dict, field: str, module: str, annotation: str) -> str:
    """The ``__init__`` line that tests ``field`` against the class its
    annotation names, with that class bound as ``_<name>`` in ``scope``;
    a ``Tuple[...]`` or ``FrozenSet[...]`` names its container."""
    optional = annotation.startswith("Optional[")
    name = annotation[9:-1] if optional else annotation
    name = _CONTAINERS.get(name.partition("[")[0], name)
    found = vars(sys.modules[module]).get(name, getattr(builtins, name, None))
    if not isinstance(found, type):
        raise NameError("field %s: annotation %r names no class" % (field, annotation))
    scope["_" + name] = found
    return "    if %stype(%s) is not _%s: raise TypeError(%r %% (%s,))\n" % (
        "%s is not None and " % field if optional else "", field, name,
        "%s %%r is not of type %s" % (field, name), field)


class _Uncompiled(tuple):
    """Stands in for a record class's ``__init__`` or ``_values`` until
    the first lookup of either: a (class, name, source, scope) tuple
    that compiles the class's source and puts both functions in the
    class in place of the two stand-ins, so later lookups find the
    functions themselves.  It keeps its class because ``owner`` may be
    a subclass (a lookup through ``super()``).  Two threads that look up
    at once may both compile, and each puts equal functions in place."""

    __slots__ = ()

    def __get__(self, instance, owner=None):
        cls, name, source, scope = self
        namespace = {}
        exec(source, scope, namespace)
        init = namespace["__init__"]
        init.__qualname__ = cls.__qualname__ + ".__init__"
        cls.__init__ = init
        cls._values = namespace["_values"]
        return namespace[name].__get__(instance, owner)


class Record(Immutable):
    """An immutable record of the fields its classes annotate.

    A subclass declares its fields once, as class annotations in order;
    its fields are the annotations of its classes, a base's before its
    own, so a subclass of a record, or of a mixin that annotates the
    fields, inherits them.  A class attribute of the same name is that
    field's default.  The class gets an ``__init__`` taking the fields by
    position or keyword.  It and the field-tuple getter ``_values`` are
    compiled at the first lookup of either (building an instance,
    comparing or hashing one, ``inspect.signature`` of the class), not
    when the class is created.

    The annotation is the field's one type rule.  A field annotated with
    a class name, or with ``Optional[<class name>]``, takes exactly that
    class (``type(value) is T``, so a bool is no int), and None too
    where the annotation is Optional; a ``Tuple[...]`` field takes
    exactly a tuple and a ``FrozenSet[...]`` field a frozenset, whatever
    their elements.  Any other value raises
    ``TypeError("<field> <repr> is not of type <T>")``.  The name is
    resolved when the class is created, in the module of the class that
    declares the field and then in builtins, and a name that resolves to
    no class (to nothing, to an alias such as a Union, or to any other
    generic) raises NameError there.  The type tests run first; the
    ``__init__`` ends by calling ``__post_init__`` where the class has
    one (to check values, or to normalize them through
    ``object.__setattr__``).  ``_fields`` is the tuple of field names.

    Records are equal when they are of the same class and their field
    tuples are equal, a record hashes as its field tuple, and its repr
    is ``Name(field=value, ...)``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each class's own namespace: on Python 3.10, __annotations__ of
        # a class that declares none is a base class's
        hints = {n: (klass.__module__, annotation) for klass in reversed(cls.__mro__)
                 for n, annotation in vars(klass).get("__annotations__", {}).items()}
        names = tuple(hints)
        defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
        params = ", ".join("%s=_default[%r]" % (n, n) if n in defaults else n for n in names)
        scope = {"_setattr": _setattr, "_default": defaults}
        body = "".join(_type_test(scope, n, *hints[n]) for n in names)
        body += "".join("    _setattr(self, %r, %s)\n" % (n, n) for n in names)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        source = ("def __init__(self, %s):\n%s"
                  "def _values(self):\n    return (%s)\n"
                  % (params, body or "    pass\n", "".join("self.%s, " % n for n in names)))
        cls.__init__ = _Uncompiled((cls, "__init__", source, scope))
        cls._values = _Uncompiled((cls, "_values", source, scope))
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
