"""Core value types shared across the library.

The paper's objects use a handful of special values:

* ``NIL`` — the "no value" marker inside object state (Algorithm 1 uses
  it for the proposal array ``V``, the last-label variable ``L``, and
  the consensus value ``val``).
* ``BOTTOM`` (⊥) — the special response returned by decide operations on
  an upset ``n``-PAC object, by ``m``-consensus objects after their
  ``m``-th propose, and by port-limited set agreement objects.
* ``DONE`` — the response of every ``PROPOSE`` on an ``n``-PAC object.
* ``ABORT`` — the abort outcome of the distinguished process in the
  ``n``-DAC problem.

They are module-level singletons so that identity comparison (``is``)
works across the whole library, and they are hashable so that they can
live inside frozen object states that the model checker memoizes.

Processes are identified by small integers (``ProcessId``); ``n``-PAC
labels are integers in ``[1..n]`` (``Label``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Tuple


class _Sentinel:
    """A named singleton used for the paper's special values.

    Instances compare equal only to themselves, hash by identity, survive
    ``copy.deepcopy`` and pickling as the same identity, and print as
    their symbol. Equality and hashing are ``object``'s own C slots:
    sentinels sit inside nearly every object state the explorer hashes,
    and a Python-level ``__hash__`` would run once per sentinel per hash.
    """

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __copy__(self) -> "_Sentinel":
        return self

    def __deepcopy__(self, memo: dict) -> "_Sentinel":
        return self

    def __reduce__(self):
        return (_lookup_sentinel, (self._name,))


#: "no value" marker used inside object states (Algorithm 1's NIL).
NIL = _Sentinel("NIL")

#: The special response ⊥ (paper notation) — upset PAC decides,
#: exhausted m-consensus objects, and over-subscribed SA objects.
BOTTOM = _Sentinel("⊥")

#: The response of every PROPOSE operation on an n-PAC object.
DONE = _Sentinel("done")

#: The abort outcome available to the distinguished n-DAC process.
ABORT = _Sentinel("ABORT")

_SENTINELS = {s._name: s for s in (NIL, BOTTOM, DONE, ABORT)}


def _lookup_sentinel(name: str) -> _Sentinel:
    """Resolve a sentinel by name (pickle support)."""
    return _SENTINELS[name]


#: Type aliases used throughout the library.
ProcessId = int
Label = int
Value = Hashable


@dataclass(frozen=True)
class Operation:
    """A single invocation on a shared object: a name plus arguments.

    Operations are immutable values: the same ``Operation`` instance can
    be replayed against a :class:`~repro.objects.spec.SequentialSpec`
    from many different states (the linearizability checker does exactly
    that).

    >>> Operation("propose", (1, 2))
    propose(1, 2)
    """

    name: str
    args: Tuple[Value, ...] = field(default=())

    def __hash__(self) -> int:
        # Operations key the explorer's response caches; hash the
        # (name, args) pair once per instance.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            digest = hash((self.name, self.args))
            object.__setattr__(self, "_hash", digest)
            return digest

    def __getstate__(self) -> dict:
        # Never pickle the cached hash: it is PYTHONHASHSEED-dependent
        # and would be stale in any other interpreter (worker processes,
        # the persistent exploration cache).
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __repr__(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({rendered})"


def op(name: str, *args: Value) -> Operation:
    """Convenience constructor for :class:`Operation`.

    >>> op("write", 7)
    write(7)
    >>> op("read")
    read()
    """
    return Operation(name, tuple(args))


def require(condition: bool, exc_type: type, message: str) -> None:
    """Raise ``exc_type(message)`` unless ``condition`` holds.

    A tiny guard helper that keeps object constructors and operation
    validators flat (early-exit style per the style guide).
    """
    if not condition:
        raise exc_type(message)


def is_special(value: Any) -> bool:
    """Return True if ``value`` is one of the reserved special values.

    The paper assumes processes never *propose* the special values
    (footnote 4); object specs use this to validate proposals.
    """
    return isinstance(value, _Sentinel)
