"""Persistent fuzz corpus: content-addressed gene sequences on disk.

The corpus is an :class:`repro.analysis.cache.EntryStore` — the
exploration cache's layout, one entry per file under
``<root>/<fp[:2]>/<fp>.json``, with its atomic write, ``stats`` and
``clear`` — but holds JSON rather than pickles: a corpus entry is a
*seed for future campaigns*, so it must stay human-inspectable and safe
to load from an untrusted checkout (``json.loads`` executes nothing).

Keying is fully deterministic: the fingerprint is a sha256 over a
canonical JSON rendering of ``(schema, target key, genes)`` — no
``hash()``, no pickle, and tuples and lists fingerprint identically
(entries round-trip through JSON, so a key that was ``("algorithm2",
3, (1, 0, 0))`` on the way in comes back with nested lists) — so the
same discovery always lands in the same file, two
campaigns writing concurrently collide only on identical content, and
"identical corpus directories" is a meaningful bit-level equality check
(the CI fuzz-smoke job diffs them with ``diff -r``).

Entries are loaded back in sorted-fingerprint order: campaign behaviour
depends on the corpus *contents*, never on filesystem enumeration
order.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Tuple

from ..analysis.cache import EntryStore
from .executor import Genes
from .target import TargetSpec

#: Bumped whenever the entry layout changes; part of every fingerprint.
CORPUS_SCHEMA = 1


def _canonical_key(key: TargetSpec) -> List[object]:
    """``key`` as it looks after a JSON round trip (tuples → lists)."""
    return json.loads(json.dumps(list(key), default=str))


def corpus_fingerprint(key: TargetSpec, genes: Genes) -> str:
    """Content address of one corpus entry (target-scoped)."""
    rendered = json.dumps(
        [CORPUS_SCHEMA, _canonical_key(key), [list(g) for g in genes]],
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(rendered.encode()).hexdigest()


class FuzzCorpus(EntryStore):
    """On-disk corpus of interesting gene sequences.

    ``root`` defaults to ``.repro-fuzz-corpus`` under the working
    directory.
    """

    suffix = ".json"
    default_root = ".repro-fuzz-corpus"

    def add(self, key: TargetSpec, genes: Genes, **meta: object) -> bool:
        """Store one entry (atomic write); True iff it was new."""
        path = self._entry_path(corpus_fingerprint(key, genes))
        if path.exists():
            return False
        payload = {
            "schema": CORPUS_SCHEMA,
            "key": list(key),
            "genes": [list(gene) for gene in genes],
            "meta": meta,
        }
        text = json.dumps(payload, sort_keys=True, default=str) + "\n"
        self._write(path, text.encode("utf-8"))
        return True

    def entries(self, key: TargetSpec) -> List[Genes]:
        """Every stored gene sequence for ``key``, in sorted-fingerprint
        order (deterministic regardless of directory enumeration).
        Corrupt or foreign-schema entries are skipped, never raised."""
        wanted = _canonical_key(key)
        collected: List[Tuple[str, Genes]] = []
        for path in self._entry_files():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if payload.get("schema") != CORPUS_SCHEMA:
                    continue
                if payload.get("key") != wanted:
                    continue
                genes = tuple(
                    (int(s), int(c)) for s, c in payload["genes"]
                )
            except (OSError, ValueError, KeyError, TypeError):
                continue
            collected.append((path.stem, genes))
        collected.sort(key=lambda item: item[0])
        return [genes for _fp, genes in collected]
