"""Persistent content-addressed cache for verification answers.

Every test/bench/CLI invocation re-asks the same small questions: the
candidate suite, the Algorithm 2 input sweeps, the E01–E18 battery.
The answers are pure functions of (protocol, n, inputs, explorer
options, code version), so they can be stored once and read back on
every later run. An entry holds the *answer* a report needs — a small
record such as ``{"configurations": 74, "complete": True}`` — never an
explored graph, so a warm hit neither rebuilds a graph nor loads an
engine module.

Keying
------

:func:`fingerprint` hashes a *canonical* rendering of the caller's
key components together with :func:`code_salt` — a digest over every
``.py`` file in the installed ``repro`` package. Any source edit
anywhere in the library therefore busts every entry; a cache hit always
means "the exact same code answered the exact same question before".
Components are canonicalized structurally (mappings and sets become
sorted tuples) and rendered with ``repr``, never pickled and never
hashed with ``hash()`` — the fingerprint is independent of
``PYTHONHASHSEED`` and of pickle's internal ordering.

Storage
-------

One entry = one file under ``<root>/<fp[:2]>/<fp>.pkl`` holding a
sha256 digest plus the pickled payload. Writes are atomic
(temp + ``os.replace``); a corrupt or digest-mismatched file is deleted
and reported as a miss, never returned. ``<root>`` defaults to
``.repro-cache`` under the working directory.
The layout, atomic write, ``stats`` and ``clear`` live in
:class:`EntryStore`, which the fuzz corpus shares.

Sweeps
------

``check-algorithm2 --cache`` and ``repro lint --cache-dir`` both answer
a batch of items through :func:`cached_sweep`: fingerprint each item,
look it up, run only the misses through one worker pool, store each
success. Failures are never cached.

Record shapes
-------------

A cache handle opened with a ``shape`` (:func:`conforms`: the exact
keys and the type of every value) reads only records of that shape. An
intact entry of any other shape — an older layout, or a planted file —
is handled like a corrupt one: deleted, counted under
``cache.corrupt_entries``, and recomputed. :func:`explore_cached`
reads :data:`EXPLORE_RECORD` records.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "EXPLORE_RECORD",
    "EntryStore",
    "ExplorationCache",
    "cached_sweep",
    "canonicalize",
    "code_salt",
    "conforms",
    "explore_cached",
    "fingerprint",
    "package_digest",
]


#: Bumped whenever the payload layout changes; part of every fingerprint.
CACHE_SCHEMA = 2

#: The record ``repro explore --cache`` stores per instance: exactly
#: the two report fields an exploration answers.
EXPLORE_RECORD = {"configurations": int, "complete": bool}

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def package_digest(root: Path) -> str:
    """sha256 over every ``.py`` file under ``root`` (memoized per root:
    one filesystem walk per process)."""
    blob = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        blob.update(str(path.relative_to(root)).encode())
        blob.update(path.read_bytes())
    return blob.hexdigest()


def code_salt() -> str:
    """:func:`package_digest` of the installed ``repro`` package.

    Included in every fingerprint, so *any* source change invalidates
    the whole cache — coarse, but it makes staleness structurally
    impossible rather than a matter of careful dependency tracking.
    """
    return package_digest(_PACKAGE_ROOT)


def _canonical(value: Any) -> Any:
    """A deterministically ``repr``-able rendering of ``value``.

    Mappings become name-tagged sorted item tuples, sets become sorted
    tuples (sorted by ``repr`` — pure string comparison, hash-seed
    independent), sequences recurse. Everything else must already have
    a deterministic ``repr`` (numbers, strings, sentinels, tuples).
    """
    if isinstance(value, Mapping):
        items = [(_canonical(k), _canonical(v)) for k, v in value.items()]
        items.sort(key=repr)
        return ("mapping",) + tuple(items)
    if isinstance(value, (set, frozenset)):
        rendered = [_canonical(v) for v in sorted(value, key=repr)]
        return ("set",) + tuple(rendered)
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


#: Public name for the canonical rendering — the request objects in
#: :mod:`repro.api.requests` canonicalize through exactly this function
#: so their fingerprints and the exploration cache's agree structurally.
canonicalize = _canonical


def fingerprint(**components: Any) -> str:
    """Content address for one cacheable question.

    Keyword arguments name the question's parts (protocol factory
    identity, ``n``, inputs, explorer options, …); the code salt and
    schema version are always mixed in.
    """
    rendered = repr(
        (
            CACHE_SCHEMA,
            code_salt(),
            _canonical(components),
        )
    )
    return hashlib.sha256(rendered.encode()).hexdigest()


def conforms(value: Any, shape: Any) -> bool:
    """Whether ``value`` has ``shape``.

    A shape is a type (matched exactly, so ``True`` is not an ``int``),
    a tuple of alternative types, or a dict mapping each key of a dict
    with exactly those keys to the shape of its value.
    """
    if isinstance(shape, dict):
        return (
            type(value) is dict
            and value.keys() == shape.keys()
            and all(conforms(value[key], sub) for key, sub in shape.items())
        )
    if isinstance(shape, tuple):
        return type(value) in shape
    return type(value) is shape


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time shape of one store directory."""

    root: str
    entries: int
    total_bytes: int


class EntryStore:
    """One directory of content-addressed entry files.

    An entry lives at ``<root>/<fp[:2]>/<fp><suffix>`` and is written
    atomically (temp + ``os.replace``). ``root`` defaults to
    ``default_root`` under the working directory.
    Subclasses choose the codec: :class:`ExplorationCache` pickles,
    :class:`repro.fuzz.corpus.FuzzCorpus` writes JSON.
    """

    suffix = ".pkl"
    default_root = ".repro-cache"

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root if root is not None else self.default_root)

    def _entry_path(self, fp: str) -> Path:
        return self.root / fp[:2] / f"{fp}{self.suffix}"

    def _write(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def _entry_files(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*/*{self.suffix}"))

    def stats(self) -> CacheStats:
        files = self._entry_files()
        total = 0
        for path in files:
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheStats(
            root=str(self.root), entries=len(files), total_bytes=total
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entry_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class ExplorationCache(EntryStore):
    """Content-addressed on-disk store for verification results.

    One instance also counts its own ``hits`` / ``misses`` / ``stores``
    so sweeps can report warm-vs-cold behaviour. With ``shape``, every
    entry it reads must :func:`conforms` to that record shape; an entry
    that does not is corrupt.
    """

    def __init__(
        self, root: Optional[os.PathLike] = None, shape: Any = None
    ) -> None:
        super().__init__(root)
        self.shape = shape
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def get(self, fp: str) -> Optional[Any]:
        """The payload stored under fingerprint ``fp``, or None.

        A corrupt entry (unreadable, truncated, digest mismatch, or not
        of this handle's ``shape``) is deleted and counted as a miss.
        """
        path = self._entry_path(fp)
        try:
            raw = path.read_bytes()
            digest, payload_bytes = pickle.loads(raw)
            if hashlib.sha256(payload_bytes).hexdigest() != digest:
                raise ValueError("payload digest mismatch")
            payload = pickle.loads(payload_bytes)
            if self.shape is not None and not conforms(payload, self.shape):
                raise ValueError("wrong-shaped payload")
        except FileNotFoundError:
            self.misses += 1
            obs.counter("cache.misses")
            obs.event("cache.get", fp=fp[:12], hit=False)
            return None
        except Exception:
            # Unreadable or tampered entry: drop it, report a miss. The
            # caller recomputes — a broken cache can cost time, never
            # correctness.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            obs.counter("cache.misses")
            obs.counter("cache.corrupt_entries")
            obs.event("cache.get", fp=fp[:12], hit=False, corrupt=True)
            return None
        self.hits += 1
        obs.counter("cache.hits")
        obs.event("cache.get", fp=fp[:12], hit=True)
        return payload

    def put(self, fp: str, payload: Any) -> None:
        """Store ``payload`` under ``fp`` (atomic write)."""
        payload_bytes = pickle.dumps(payload, protocol=4)
        digest = hashlib.sha256(payload_bytes).hexdigest()
        self._write(
            self._entry_path(fp),
            pickle.dumps((digest, payload_bytes), protocol=4),
        )
        self.stores += 1
        obs.counter("cache.stores")
        obs.event("cache.put", fp=fp[:12], bytes=len(payload_bytes))

    def get_or_compute(
        self, components: Mapping[str, Any], compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """``(payload, was_hit)`` for the question named by ``components``.

        On a miss, ``compute()`` runs and its result is stored before
        being returned.
        """
        fp = fingerprint(**components)
        payload = self.get(fp)
        if payload is not None:
            return payload, True
        payload = compute()
        self.put(fp, payload)
        return payload, False


# -- cache-first sweeps ------------------------------------------------------


def cached_sweep(
    cache: Optional[ExplorationCache],
    items: Sequence[Tuple[Hashable, Callable[..., Any], Tuple[Any, ...]]],
    fingerprint_of: Callable[[Hashable], str],
    jobs: Optional[int] = 1,
) -> Tuple[Dict[Hashable, Any], Dict[Hashable, Any]]:
    """Answer every ``(key, fn, args)`` item: ``(values, failures)``.

    With a cache, each item's ``fingerprint_of(key)`` is looked up
    first. Only the misses run — ``fn(*args)``, through one
    :class:`~repro.analysis.parallel.VerificationPool` of ``jobs``
    workers — and each success is stored as ``{"value": value}``. A
    failure (a :class:`~repro.analysis.parallel.WorkFailure`) is never
    stored, so a fixed environment clears it on the next run. Both
    dicts are keyed by item key; ``failures`` is in submission order.

    The pool module loads only when something misses: an all-hit sweep
    never imports it.
    """
    values: Dict[Hashable, Any] = {}
    failures: Dict[Hashable, Any] = {}
    fingerprints: Dict[Hashable, str] = {}
    misses = []
    for key, fn, args in items:
        if cache is not None:
            fp = fingerprints[key] = fingerprint_of(key)
            payload = cache.get(fp)
            if payload is not None:
                values[key] = payload["value"]
                continue
        misses.append((key, fn, args))
    if not misses:
        return values, failures
    from .parallel import VerificationPool, WorkItem

    results = VerificationPool(jobs=jobs).run(
        [WorkItem(key=key, fn=fn, args=args) for key, fn, args in misses]
    )
    for result in results:
        if not result.ok:
            failures[result.key] = result.failure
            continue
        values[result.key] = result.value
        if cache is not None:
            cache.put(fingerprints[result.key], {"value": result.value})
    return values, failures


# -- exploration answers ------------------------------------------------------


def explore_cached(
    cache: Optional[ExplorationCache],
    components: Mapping[str, Any],
    compute: Callable[[], Dict[str, Any]],
) -> Tuple[Dict[str, Any], bool]:
    """``(record, was_hit)`` for one exploration question.

    ``cache`` is opened with ``shape=EXPLORE_RECORD`` (or is None).
    ``components`` must name the instance and every option that changes
    the graph (``max_configurations`` included). ``compute()`` explores
    and returns the :data:`EXPLORE_RECORD` record; it runs only on a
    miss (or with no cache), so a hit builds no explorer at all.
    """
    if cache is None:
        return compute(), False
    return cache.get_or_compute(components, compute)
