"""Frozen value classes without ``dataclasses``.

``import dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
about 10 ms, and a frozen dataclass compiles its generated methods with
``exec``, about 1.2 ms a class (Python 3.11, 2-core x86-64 VM).  ``Value``
gives the same behaviour from methods written once.
"""

from __future__ import annotations


class Value:
    """Base of fibrec's value classes: frozen, compared and hashed by value.

    A subclass names its fields in order as class annotations and writes its
    own ``__init__``, which stores each field in the instance ``__dict__``.
    As for a ``@dataclass(frozen=True)``: ``==`` holds between instances of
    one class whose field tuples are equal, ``hash`` hashes that tuple,
    ``repr`` reads ``Name(field=value, ...)``, ``__match_args__`` lists the
    fields, and assigning or deleting an attribute raises ``AttributeError``.
    Anything else in the ``__dict__``, such as a memo, takes no part in them.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def _field_values(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self._field_values())
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
