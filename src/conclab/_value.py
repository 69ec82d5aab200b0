"""Immutable value records, each built from one declaration.

A record is a class on :class:`Value` that names its fields once, as
``__slots__ = _fields = (...)``, with an optional ``_defaults`` dict from
field name to default value.  From that declaration every record gets the
same value semantics:

- its constructor takes the fields in ``_fields`` order, positionally or
  by keyword, and ``_defaults`` fills those not given; an unknown,
  repeated or missing field raises ``TypeError``;
- it equals only an instance of the same class with an equal tuple of
  fields, and hashes as that tuple;
- a copy, deep copy or pickle rebuilds it from that tuple through its
  constructor;
- assigning or deleting an attribute raises ``AttributeError``, and its
  repr is ``Name(field=value, ...)``.

A record that checks or normalises its input writes its own ``__init__``
and ends it with ``Value.__init__(self, ...)``.  A cache is a slot outside
``_fields``, so it is left out of equality, hash, repr and copies.
"""

from operator import attrgetter

_set = object.__setattr__


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """The field values of a call that is not one positional argument per
    field."""
    name, fields = cls.__qualname__, cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} fields, {len(args)} given")
    given = dict(zip(fields, args))
    for field, value in kwargs.items():
        if field not in fields:
            raise TypeError(f"{name}() has no field {field!r}")
        if field in given:
            raise TypeError(f"{name}() got field {field!r} twice")
        given[field] = value
    bound = {**cls._defaults, **given}
    missing = [f for f in fields if f not in bound]
    if missing:
        raise TypeError(f"{name}() missing field(s) {', '.join(map(repr, missing))}")
    return [bound[f] for f in fields]


class Value:
    """Base of the immutable records: value semantics over ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # a 1-tuple for one field, so every key is the tuple of the fields
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return self.__class__, self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"
