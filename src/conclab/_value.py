"""Immutable value records without generated code.

conclab's records are plain classes on :class:`Value`.  Each names the
fields its repr prints in ``_fields`` (and, unless a cached property
needs an instance ``__dict__``, in ``__slots__`` too), sets its fields in
an explicit ``__init__`` through ``object.__setattr__``, and compares and
hashes the tuple of its compared fields, for instances of the same class
only.  Written out, these methods cost no more per call than generated
ones, and nothing at import.
"""


class Value:
    """Refuses assignment and deletion of attributes after ``__init__``
    and prints ``Name(field=value, ...)`` over ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"
