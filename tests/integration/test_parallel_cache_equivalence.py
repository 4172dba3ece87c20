"""The scale-out substrate is an optimization, not a semantics change.

Mirrors ``test_fast_core_equivalence.py`` for PR 3's two engines:

1. **pooled == serial** — the digest over a pooled Algorithm 2 sweep
   must equal the serial one;
2. **warm == cold** — a warm ``explore --cache`` record answers
   exactly what the cold run (and an uncached run) computed, a record
   written under one ``PYTHONHASHSEED`` hits with identical bytes under
   another (entries are content-addressed by repr, never by
   ``hash()``), budgets are part of the key, and a damaged or
   wrong-shaped record is a miss that recomputes;
3. **one cache-first sweep** — ``check-algorithm2`` and lint both
   answer through ``cached_sweep``: cold == warm == uncached
   for each, and a failing item is never stored while its siblings'
   successes are.
"""

import hashlib
import importlib
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.cache import ExplorationCache, fingerprint
from repro.analysis.parallel import VerificationPool, WorkItem
from repro.api import ExecutionOptions, ExploreRequest, VerifyRequest, execute
from repro.api.execute import algorithm2_instance_check
from repro.cli import main
from repro.lint.engine import lint_paths
from repro.protocols.tasks import DacDecisionTask

HIT = " [cache hit]"


def _cache(root):
    """Options that read and write the exploration cache under ``root``."""
    return ExecutionOptions(cache=True, cache_dir=str(root))


def _sweep_digest(results):
    blob = hashlib.sha256()
    for result in results:
        blob.update(repr((result.key, result.value)).encode())
    return blob.hexdigest()


class TestPooledEqualsSerial:
    def test_sweep_digest_identical(self):
        task = DacDecisionTask(2)
        items = [
            WorkItem(
                key=tuple(inputs),
                fn=algorithm2_instance_check,
                args=(2, tuple(inputs)),
            )
            for inputs in task.input_assignments()
        ]
        serial = VerificationPool(jobs=1).run(items)
        pooled = VerificationPool(jobs=2).run(items)
        assert _sweep_digest(serial) == _sweep_digest(pooled)


def _without_hit(report):
    """The JSON form of an explore report with its metrics and cache-hit
    marks removed: what a warm hit must share with the cold run."""
    payload = json.loads(report.to_json())
    del payload["metrics"], payload["data"]["cache_hit"]
    payload["summary"] = payload["summary"].replace(HIT, "")
    payload["body"] = [line.replace(HIT, "") for line in payload["body"]]
    return payload


def _repro(*argv, seed="0"):
    """``python -m repro <argv>`` under ``PYTHONHASHSEED=seed``."""
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), *sys.path) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout


class TestWarmEqualsCold:
    def test_warm_reports_equal_cold(self, tmp_path):
        for n, inputs in [(2, (1, 0)), (3, (1, 0, 0)), (4, (0, 1, 1, 0))]:
            plain = ExploreRequest(n=n, inputs=inputs)
            cached = replace(plain, options=_cache(tmp_path))
            cold = execute(cached)
            warm = execute(cached)
            plain = execute(plain)
            assert cold.data["cache_hit"] is False
            assert warm.data["cache_hit"] is True
            assert warm.summary == cold.summary + HIT
            assert warm.metrics["counters"] == {"cache.hits": 1}
            assert _without_hit(warm) == _without_hit(cold)
            assert _without_hit(cold) == _without_hit(plain)

    def test_warm_hit_across_hash_seeds(self, tmp_path):
        # A record written under one PYTHONHASHSEED must warm-hit with
        # identical bytes under another: fingerprints are repr-based and
        # a record holds only an int and a bool.
        argv = ("explore", "--n", "3", "--inputs", "1,0,0", "--cache")
        shared, other = tmp_path / "shared", tmp_path / "other"
        cold = _repro(*argv, "--cache-dir", str(shared), seed="0")
        warm = _repro(*argv, "--cache-dir", str(shared), seed="31337")
        again = _repro(*argv, "--cache-dir", str(other), seed="31337")
        assert HIT not in cold
        assert warm == cold.replace("\n", HIT + "\n")
        assert again == cold
        [written] = ExplorationCache(shared)._entry_files()
        [rewritten] = ExplorationCache(other)._entry_files()
        assert written.name == rewritten.name
        assert written.read_bytes() == rewritten.read_bytes()


class TestExploreRecords:
    def test_budget_is_part_of_the_key(self, tmp_path):
        request = ExploreRequest(n=4, options=_cache(tmp_path))
        bounded_request = replace(request, max_configurations=50)
        bounded = execute(bounded_request)
        assert (bounded.data["configurations"], bounded.data["complete"]) == (
            50,
            False,
        )
        # A truncated record is never served to an unbounded request.
        unbounded = execute(request)
        assert unbounded.data["cache_hit"] is False
        assert unbounded.data["complete"] is True
        assert unbounded.data["configurations"] > 50
        assert ExplorationCache(tmp_path).stats().entries == 2
        warm_bounded = execute(bounded_request)
        assert warm_bounded.data["cache_hit"] is True
        assert _without_hit(warm_bounded) == _without_hit(bounded)
        assert execute(request).data["cache_hit"] is True

    @pytest.mark.parametrize("damage", ["truncate", "bit-flip"])
    def test_damaged_record_recomputes(self, tmp_path, damage):
        request = ExploreRequest(n=3, options=_cache(tmp_path))
        cold = execute(request)
        [path] = ExplorationCache(tmp_path)._entry_files()
        raw = bytearray(path.read_bytes())
        if damage == "truncate":
            raw = raw[: len(raw) // 2]
        else:
            raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        again = execute(request)
        assert again.status == "ok"
        assert again.data["cache_hit"] is False
        assert again.metrics["counters"]["cache.corrupt_entries"] == 1
        assert _without_hit(again) == _without_hit(cold)
        assert execute(request).data["cache_hit"] is True


class TestWrongShapedRecords:
    """An intact entry of the wrong shape is corrupt: dropped, counted,
    recomputed, and the command still exits 0."""

    PLANTED = {"portable": 1}

    def _run(self, capsys, argv):
        assert main([*argv, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_check_algorithm2(self, tmp_path, capsys):
        cache = ExplorationCache(tmp_path)
        cache.put(
            fingerprint(
                cmd="check-algorithm2",
                n=2,
                inputs=(0, 0),
                symmetry=False,
                max_configurations=400_000,
            ),
            self.PLANTED,
        )
        argv = ["check-algorithm2", "--n", "2", "--cache"]
        argv += ["--cache-dir", str(tmp_path)]
        report = self._run(capsys, argv)
        assert report["status"] == "ok"
        assert report["data"]["cache"] == {"hits": 0, "misses": 4}
        assert report["metrics"]["counters"]["cache.corrupt_entries"] == 1
        plain = self._run(capsys, ["check-algorithm2", "--n", "2"])
        assert report["summary"] == plain["summary"]
        warm = self._run(capsys, argv)
        assert warm["data"]["cache"] == {"hits": 4, "misses": 0}

    def test_explore(self, tmp_path, capsys):
        request = ExploreRequest(n=3, inputs=(1, 0, 0))
        cache = ExplorationCache(tmp_path)
        cache.put(
            fingerprint(
                cmd="api-explore",
                n=3,
                inputs=(1, 0, 0),
                max_configurations=request.max_configurations,
            ),
            self.PLANTED,
        )
        argv = ["explore", "--n", "3", "--inputs", "1,0,0", "--cache"]
        argv += ["--cache-dir", str(tmp_path)]
        report = self._run(capsys, argv)
        assert report["status"] == "ok"
        assert report["data"]["cache_hit"] is False
        assert report["metrics"]["counters"]["cache.corrupt_entries"] == 1
        [path] = cache._entry_files()
        _digest, payload = pickle.loads(path.read_bytes())
        assert pickle.loads(payload) == {
            "configurations": report["data"]["configurations"],
            "complete": True,
        }
        assert self._run(capsys, argv)["data"]["cache_hit"] is True


def _verify_answer(report):
    """A check-algorithm2 report without what differs warm vs cold."""
    payload = json.loads(report.to_json())
    del payload["metrics"], payload["data"]["cache"]
    payload["body"] = [
        line for line in payload["body"] if not line.startswith("cache:")
    ]
    return payload


class TestSharedSweep:
    """Every cached sweep — verify, lint — goes through
    ``cached_sweep``: cold == warm == uncached, and warm runs nothing."""

    def test_verify(self, tmp_path):
        plain = execute(VerifyRequest(n=3))
        cold = execute(
            VerifyRequest(n=3, options=replace(_cache(tmp_path), jobs=2))
        )
        warm = execute(VerifyRequest(n=3, options=_cache(tmp_path)))
        assert cold.data["cache"] == {"hits": 0, "misses": 8}
        assert warm.data["cache"] == {"hits": 8, "misses": 0}
        assert "cache.stores" not in warm.metrics["counters"]
        assert "pool.items" not in warm.metrics["counters"]
        assert _verify_answer(cold) == _verify_answer(plain)
        assert _verify_answer(warm) == _verify_answer(plain)

    def test_lint(self, tmp_path):
        fixtures = [Path(__file__).resolve().parents[1] / "lint" / "fixtures"]
        plain = lint_paths(fixtures)
        cold = lint_paths(fixtures, jobs=2, cache_dir=str(tmp_path))
        warm = lint_paths(fixtures, cache_dir=str(tmp_path))
        assert plain.findings
        assert plain.to_json() == cold.to_json() == warm.to_json()
        assert cold.files_reindexed == cold.files_checked
        assert (warm.cache_hits, warm.files_reindexed) == (
            warm.files_checked,
            0,
        )

    def test_failing_instance_does_not_stop_sibling_stores(
        self, tmp_path, monkeypatch
    ):
        # The first instance fails; the three after it still succeed,
        # and each success is stored. The failure is not: a fixed
        # environment recomputes only that instance.
        def flaky_check(n, inputs, symmetry):
            if inputs == (0, 0):
                raise RuntimeError("worker lost")
            return algorithm2_instance_check(n, inputs, symmetry)

        monkeypatch.setattr(
            importlib.import_module("repro.api.execute"),
            "algorithm2_instance_check",
            flaky_check,
        )
        cached = VerifyRequest(n=2, options=_cache(tmp_path))
        failed = execute(cached)
        assert failed.status == "error"
        assert failed.summary == (
            "ERROR at inputs (0, 0): RuntimeError: worker lost"
        )
        assert failed.metrics["counters"]["cache.stores"] == 3
        monkeypatch.undo()
        fixed = execute(cached)
        assert fixed.status == "ok"
        assert fixed.data["cache"] == {"hits": 3, "misses": 1}
        assert fixed.metrics["counters"]["cache.stores"] == 1
