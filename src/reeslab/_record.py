"""Frozen value classes from their field annotations, built without generated code.

``@record`` gives a class what ``@dataclass(frozen=True)`` gives it, at a
fraction of the import cost: no source is generated and ``dataclasses``
(with the ``inspect`` it pulls in) is never imported.
"""

set_field = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def record(cls):
    """Make cls a frozen record of the fields annotated in its body.

    The class gets:

    - ``__init__``, taking each field positionally or by keyword, with the
      class attribute of that name as its default, then calling
      ``__post_init__`` if the class has one;
    - ``__eq__``, comparing the fields in order between instances of the
      same class (``NotImplemented`` otherwise), and ``__hash__``, equal to
      the hash of the tuple of the fields. ``__init__`` keeps that tuple as
      ``_values``, so that neither rebuilds it;
    - ``__repr__`` as ``Name(field=value, ...)``;
    - ``__setattr__`` and ``__delattr__``, which raise ``FrozenInstanceError``.

    A method the class defines itself is kept. A class that defines
    ``__eq__`` but not ``__hash__`` still gets the field hash.
    """
    # the type's own annotations (3.10 on), also where they are evaluated lazily
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    width = len(names)
    qualname = cls.__qualname__

    def complete(args, kwargs):
        """The tuple of every field: args, then each other field from kwargs or its default."""
        if len(args) > width:
            raise TypeError("%s() takes %d positional arguments but %d were given" % (qualname, width, len(args)))
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError("%s() missing required argument: %r" % (qualname, name))
        for name in kwargs:
            raise TypeError("%s() got %s %r" % (
                qualname, "multiple values for argument" if name in names else "an unexpected keyword argument", name))
        return tuple(values)

    def __init__(self, *args, **kwargs):
        if len(args) != width or kwargs:
            args = complete(args, kwargs)
        # object.__setattr__ keeps the values inline in the instance, where attribute reads are fastest
        for name, value in zip(names, args):
            set_field(self, name, value)
        # equality and hashing read the fields from this one tuple
        set_field(self, "_values", args)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return "%s(%s)" % (qualname, ", ".join("%s=%r" % (n, getattr(self, n)) for n in names))

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % (name,))

    own = cls.__dict__
    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        name = method.__name__
        # a body that defines __eq__ alone holds __hash__ = None
        if own.get(name) is None if name == "__hash__" else name not in own:
            method.__qualname__ = "%s.%s" % (qualname, name)
            setattr(cls, name, method)
    return cls
