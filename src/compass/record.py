"""``Record``, the base of the value records that must not equal a tuple.

Records that equal their field tuples are ``collections.namedtuple``
classes. A ``Record`` prints as ``Name(field=value, ...)`` over ``_fields``,
its constructor's parameters, which ``Record.__init__`` takes by position
only; it equals only a record of its own class with an equal ``_key()``,
its fields in order, hashes that key, and refuses assignment and deletion.
A ``MutableRecord`` allows both and is unhashable. The records are
``program.Program``, ``Trace`` and ``Resolved`` (which prints as the tuple
of its values) and the fieldless outcomes ``geom.NoIntersection``,
``geom.Coincident`` and ``oracle.Parallel``. Importing ``dataclasses``
(and ``inspect``) would dominate the package's start-up;
``dataclasses.replace``, which passes fields by keyword, works on a record
without fields or with an ``__init__`` of its own.
"""


class _AsDataclass:
    """A dataclass attribute (fields or params) made over ``_fields`` when
    read, by whoever already imported ``dataclasses`` to ask for it."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, cls):
        from dataclasses import make_dataclass
        return getattr(make_dataclass(cls.__name__, cls._fields), self.name)


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __dataclass_fields__ = _AsDataclass()
    __dataclass_params__ = _AsDataclass()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # for copy and pickle
        return type(self), self._key()


class MutableRecord(Record):
    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
