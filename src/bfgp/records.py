"""The immutable record base of the package's small value types."""


class Record:
    """Immutable value record: what a frozen dataclass gives, without `dataclasses`.

    Importing `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`,
    and each decoration execs generated code; together that was about 20 ms
    of every command's start-up, more than most commands' own work.  A
    subclass names its fields in `__slots__`, in order, and its `__init__`
    assigns each through `object.__setattr__`, as `Graph` does.  It keeps
    the frozen dataclass behaviours callers see:

    - assigning or deleting a field raises AttributeError;
    - `==` compares field tuples between records of the same class only
      (NotImplemented otherwise), and `hash` hashes the field tuple, so a
      record holding a dict is unhashable;
    - `repr` is `Name(field=value, ...)`, and `__match_args__` lists the fields;
    - `copy.copy`, `copy.deepcopy` and `pickle` rebuild the record through
      its constructor (`__reduce__`), which a raising `__setattr__` would
      otherwise break.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
