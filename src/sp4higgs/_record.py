"""The base of the library's immutable value records.

Curve contexts, bundle classes, sections, the shapes, verdicts,
component labels and reports are all records: a fixed tuple of named
fields, compared and hashed by value.  ``Record`` builds each record
class when it is defined: it compiles an ``__init__`` and a field-tuple
getter per class and shares the other methods, so building the classes
costs little of ``import sp4higgs``.
"""

_setattr = object.__setattr__


class Record:
    """An immutable record of the fields its class annotates.

    A subclass declares its fields once, as class annotations in order;
    a class attribute of the same name is that field's default.  The
    class gets an ``__init__`` taking the fields by position or keyword,
    which ends by calling ``__post_init__`` where the class has one (to
    check fields, or to normalize them through ``object.__setattr__``).
    ``_fields`` is the tuple of field names.

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
        names = tuple(own.get("__annotations__", ()))
        params = ", ".join("%s=_own[%r]" % (n, n) if n in own else n for n in names)
        body = "".join("    _setattr(self, %r, %s)\n" % (n, n) for n in names)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        namespace = {}
        exec("def __init__(self, %s):\n%s"
             "def _values(self):\n    return (%s)\n"
             % (params, body, "".join("self.%s, " % n for n in names)),
             {"_setattr": _setattr, "_own": own}, namespace)
        init = namespace["__init__"]
        init.__qualname__ = cls.__qualname__ + ".__init__"
        cls.__init__ = init
        cls._values = namespace["_values"]
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
