"""Tests for campaign determinism, sharding, and corpus integration."""

import random

import pytest

from repro.errors import AnalysisError
from repro.fuzz.corpus import FuzzCorpus
from repro.fuzz.engine import (
    _fresh,
    _shard_budgets,
    fuzz_campaign,
    shard_seed,
)

STRONG_SA = ("candidate", 1)  # safety-doomed
SPIN = ("candidate", 3)  # liveness-doomed
CLEAN_QUEUE = ("candidate", 6)  # correct 2-consensus


class TestShardSeeds:
    def test_deterministic(self):
        assert shard_seed(7, 2, STRONG_SA) == shard_seed(7, 2, STRONG_SA)

    def test_distinct_per_seed_shard_and_target(self):
        seeds = {
            shard_seed(seed, shard, key)
            for seed in (0, 1)
            for shard in (0, 1)
            for key in (STRONG_SA, CLEAN_QUEUE)
        }
        assert len(seeds) == 8

    def test_shard_budgets_partition_the_budget(self):
        for budget in (1, 7, 100, 203):
            for shards in (1, 2, 4, 7):
                budgets = _shard_budgets(budget, shards)
                assert sum(budgets) == budget
                assert len(budgets) == shards
                assert max(budgets) - min(budgets) <= 1


class TestFreshGenes:
    def test_same_draws_as_randrange(self):
        # _fresh inlines randrange's rejection sampling; the genes and
        # the generator's state afterwards must be exactly randrange's.
        for seed in range(50):
            reference, inlined = random.Random(seed), random.Random(seed)
            for _ in range(10):
                length = reference.randint(1, 64)
                expected = tuple(
                    (reference.randrange(64), reference.randrange(8))
                    for _ in range(length)
                )
                assert _fresh(inlined, 64) == expected
            assert reference.getstate() == inlined.getstate()


class TestDeterminism:
    def test_same_seed_same_report(self):
        first = fuzz_campaign(STRONG_SA, seed=42, budget=60)
        second = fuzz_campaign(STRONG_SA, seed=42, budget=60)
        assert first == second

    def test_jobs_do_not_change_the_report(self):
        serial = fuzz_campaign(STRONG_SA, seed=42, budget=60, jobs=1)
        parallel = fuzz_campaign(STRONG_SA, seed=42, budget=60, jobs=2)
        assert serial == parallel

    def test_jobs_do_not_change_the_corpus(self, tmp_path):
        reports = []
        for jobs, name in ((1, "serial"), (2, "parallel")):
            corpus = FuzzCorpus(tmp_path / name)
            reports.append(
                fuzz_campaign(
                    CLEAN_QUEUE, seed=3, budget=40, jobs=jobs, corpus=corpus
                )
            )
        serial_files = sorted(
            (p.relative_to(tmp_path / "serial"), p.read_bytes())
            for p in (tmp_path / "serial").rglob("*.json")
        )
        parallel_files = sorted(
            (p.relative_to(tmp_path / "parallel"), p.read_bytes())
            for p in (tmp_path / "parallel").rglob("*.json")
        )
        assert serial_files == parallel_files
        assert serial_files  # the campaign did persist something
        assert reports[0].corpus_added == reports[1].corpus_added


class TestOutcomes:
    def test_clean_target_spends_the_whole_budget(self):
        report = fuzz_campaign(CLEAN_QUEUE, seed=0, budget=50)
        assert report.executions == 50
        assert report.findings == ()
        assert report.first_finding_execution is None
        assert report.observed_failure() == "none"
        assert report.coverage > 0

    def test_safety_target_maps_to_safety(self):
        report = fuzz_campaign(STRONG_SA, seed=42, budget=60)
        assert report.findings
        assert report.observed_failure() == "safety"
        assert report.first_finding_execution is not None

    def test_cycle_maps_to_liveness(self):
        report = fuzz_campaign(SPIN, seed=42, budget=120)
        assert report.findings
        assert report.findings[0].kind == "cycle"
        assert report.observed_failure() == "liveness"

    def test_shrink_disabled_leaves_raw_finding(self):
        report = fuzz_campaign(STRONG_SA, seed=42, budget=60, shrink=False)
        finding = report.findings[0]
        assert finding.shrunk_genes is None
        assert finding.replay_matches is None
        assert finding.genes  # raw genes still recorded

    def test_bad_budget_raises(self):
        with pytest.raises(AnalysisError):
            fuzz_campaign(STRONG_SA, seed=0, budget=0)


class TestCorpusFeedback:
    def test_second_campaign_is_seeded_from_the_first(self, tmp_path):
        corpus = FuzzCorpus(tmp_path)
        first = fuzz_campaign(CLEAN_QUEUE, seed=5, budget=40, corpus=corpus)
        assert first.corpus_seeded == 0
        assert first.corpus_added > 0
        assert corpus.stats().entries == first.corpus_added
        second = fuzz_campaign(CLEAN_QUEUE, seed=5, budget=40, corpus=corpus)
        assert second.corpus_seeded == first.corpus_added
        # Same seed over the same corpus re-discovers the same runs:
        # content addressing makes the re-adds no-ops.
        assert corpus.stats().entries >= first.corpus_added

    def test_campaigns_without_corpus_leave_no_files(self, tmp_path):
        fuzz_campaign(CLEAN_QUEUE, seed=5, budget=20)
        assert not (tmp_path / ".repro-fuzz-corpus").exists()
