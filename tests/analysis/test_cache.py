"""Tests for the persistent content-addressed exploration cache.

The cache's contract (``docs/performance.md``): a hit always means the
exact same code answered the exact same question before (code salt and
schema in every fingerprint); corrupt, tampered and wrong-shaped
entries are dropped as misses and recomputed, never returned.
"""

import pickle

import pytest

from repro.analysis import cache as cache_module
from repro.analysis.cache import (
    CACHE_SCHEMA,
    EXPLORE_RECORD,
    ExplorationCache,
    code_salt,
    conforms,
    explore_cached,
    fingerprint,
    graph_digest,
)
from repro.analysis.explorer import Explorer
from repro.core.pac import NPacSpec
from repro.protocols.dac_from_pac import algorithm2_processes


def _explorer(n=2, inputs=(1, 0)):
    return Explorer({"PAC": NPacSpec(n)}, algorithm2_processes(inputs))


class TestFingerprint:
    def test_stable_for_equal_components(self):
        assert fingerprint(n=3, inputs=(0, 1)) == fingerprint(
            n=3, inputs=(0, 1)
        )

    def test_insensitive_to_mapping_order(self):
        assert fingerprint(a=1, b=2) == fingerprint(b=2, a=1)
        assert fingerprint(opts={"x": 1, "y": 2}) == fingerprint(
            opts={"y": 2, "x": 1}
        )

    def test_sensitive_to_every_component(self):
        base = fingerprint(n=3, inputs=(0, 1), symmetry=False)
        assert base != fingerprint(n=4, inputs=(0, 1), symmetry=False)
        assert base != fingerprint(n=3, inputs=(1, 0), symmetry=False)
        assert base != fingerprint(n=3, inputs=(0, 1), symmetry=True)

    def test_sets_canonicalized(self):
        assert fingerprint(values={3, 1, 2}) == fingerprint(values={2, 3, 1})

    @pytest.mark.parametrize(
        "components",
        [
            {},
            {"n": 3, "inputs": (0, 1)},
            {
                "cmd": "api-explore",
                "n": 4,
                "inputs": (0, 1, 1, 0),
                "max_configurations": 400_000,
            },
        ],
    )
    def test_schema_is_part_of_every_fingerprint(
        self, monkeypatch, components
    ):
        before = fingerprint(**components)
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA", CACHE_SCHEMA + 1)
        assert fingerprint(**components) != before

    def test_code_salt_is_memoized_hex(self):
        salt = code_salt()
        assert salt == code_salt()
        assert len(salt) == 64
        int(salt, 16)


class TestEntryStore:
    def test_round_trip(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        fp = fingerprint(question="round-trip")
        assert cache.get(fp) is None
        cache.put(fp, {"answer": (1, 2, 3)})
        assert cache.get(fp) == {"answer": (1, 2, 3)}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_corrupt_entry_is_dropped_as_miss(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        fp = fingerprint(question="corrupt")
        cache.put(fp, "payload")
        path = cache._entry_path(fp)
        path.write_bytes(b"not a pickle")
        assert cache.get(fp) is None
        assert not path.exists()

    def test_tampered_payload_is_dropped_as_miss(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        fp = fingerprint(question="tamper")
        cache.put(fp, "honest payload")
        path = cache._entry_path(fp)
        digest, _payload_bytes = pickle.loads(path.read_bytes())
        forged = pickle.dumps((digest, pickle.dumps("forged payload")))
        path.write_bytes(forged)
        assert cache.get(fp) is None

    def test_wrong_shaped_entry_is_dropped_as_miss(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c", shape=EXPLORE_RECORD)
        fp = fingerprint(question="shape")
        cache.put(fp, {"portable": 1})
        assert cache.get(fp) is None
        assert not cache._entry_path(fp).exists()
        assert (cache.hits, cache.misses) == (0, 1)

    def test_get_or_compute_counts(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        calls = []

        def compute():
            calls.append(1)
            return "value"

        components = {"question": "memo"}
        assert cache.get_or_compute(components, compute) == ("value", False)
        assert cache.get_or_compute(components, compute) == ("value", True)
        assert len(calls) == 1

    def test_stats_and_clear(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c")
        for index in range(3):
            cache.put(fingerprint(index=index), index)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_default_root(self):
        assert str(ExplorationCache().root) == ".repro-cache"



class TestConforms:
    def test_flat_record(self):
        assert conforms(
            {"configurations": 3, "complete": True}, EXPLORE_RECORD
        )
        assert not conforms({"configurations": 3}, EXPLORE_RECORD)
        assert not conforms(
            {"configurations": 3, "complete": True, "extra": 0}, EXPLORE_RECORD
        )
        assert not conforms([3, True], EXPLORE_RECORD)

    def test_types_match_exactly(self):
        # ``bool`` subclasses ``int``: a flag is not a count, nor back.
        count_flag = {"configurations": True, "complete": True}
        flag_count = {"configurations": 3, "complete": 1}
        assert not conforms(count_flag, EXPLORE_RECORD)
        assert not conforms(flag_count, EXPLORE_RECORD)

    def test_nested_shapes_and_alternatives(self):
        shape = {"value": {"witness": (str, type(None))}}
        assert conforms({"value": {"witness": None}}, shape)
        assert conforms({"value": {"witness": "trace"}}, shape)
        assert not conforms({"value": {"witness": 0}}, shape)
        assert not conforms({"value": None}, shape)


class TestExploreCached:
    COMPONENTS = {"protocol": "algorithm2", "n": 2, "inputs": (1, 0)}

    @staticmethod
    def _compute(calls, inputs=(1, 0)):
        def compute():
            calls.append(inputs)
            result = _explorer(inputs=inputs).explore()
            return {"configurations": len(result), "complete": result.complete}

        return compute

    def test_cold_then_warm_round_trip(self, tmp_path):
        cache = ExplorationCache(tmp_path / "c", shape=EXPLORE_RECORD)
        calls = []
        compute = self._compute(calls)
        cold, hit = explore_cached(cache, self.COMPONENTS, compute)
        assert hit is False
        warm, hit = explore_cached(cache, self.COMPONENTS, compute)
        assert hit is True
        assert warm == cold
        assert warm == {
            "configurations": len(_explorer().explore()),
            "complete": True,
        }
        # The hit never explored.
        assert len(calls) == 1

    def test_no_cache_means_plain_exploration(self):
        calls = []
        for _ in range(2):
            record, hit = explore_cached(
                None, self.COMPONENTS, self._compute(calls)
            )
            assert hit is False
            assert record["complete"]
        assert len(calls) == 2

    def test_wrong_shaped_entry_recomputes(self, tmp_path):
        # A graph-era payload under the current fingerprint is dropped.
        cache = ExplorationCache(tmp_path / "c", shape=EXPLORE_RECORD)
        fp = fingerprint(**self.COMPONENTS)
        cache.put(fp, {"portable": 1, "graph_digest": "0" * 64})
        calls = []
        compute = self._compute(calls)
        record, hit = explore_cached(cache, self.COMPONENTS, compute)
        assert hit is False
        assert conforms(record, EXPLORE_RECORD)
        warm = explore_cached(cache, self.COMPONENTS, compute)
        assert warm == (record, True)
        assert len(calls) == 1

    @pytest.mark.parametrize("damage", ["truncate", "bit-flip"])
    def test_damaged_record_recomputes(self, tmp_path, damage):
        cache = ExplorationCache(tmp_path / "c", shape=EXPLORE_RECORD)
        calls = []
        compute = self._compute(calls)
        cold, _ = explore_cached(cache, self.COMPONENTS, compute)
        [path] = cache._entry_files()
        raw = bytearray(path.read_bytes())
        if damage == "truncate":
            raw = raw[: len(raw) // 2]
        else:
            raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        record, hit = explore_cached(cache, self.COMPONENTS, compute)
        assert (record, hit) == (cold, False)
        assert len(calls) == 2

    def test_graph_digest_depends_on_graph(self):
        small = _explorer().explore()
        other = _explorer(inputs=(0, 0)).explore()
        assert graph_digest(small.to_portable()) == graph_digest(
            _explorer().explore().to_portable()
        )
        assert graph_digest(small.to_portable()) != graph_digest(
            other.to_portable()
        )
