"""Tests for the content-addressed on-disk fuzz corpus."""

import json

from repro.fuzz.corpus import CORPUS_SCHEMA, FuzzCorpus, corpus_fingerprint

KEY = ("candidate", 1)
OTHER_KEY = ("candidate", 2)


class TestFingerprint:
    def test_stable_across_instances(self):
        genes = ((1, 2), (3, 4))
        assert corpus_fingerprint(KEY, genes) == corpus_fingerprint(
            KEY, genes
        )

    def test_scoped_by_key_and_genes(self):
        genes = ((1, 2),)
        assert corpus_fingerprint(KEY, genes) != corpus_fingerprint(
            OTHER_KEY, genes
        )
        assert corpus_fingerprint(KEY, genes) != corpus_fingerprint(
            KEY, ((1, 3),)
        )

    def test_accepts_lists(self):
        # Workers hand genes around as JSON lists; the fingerprint must
        # not care about tuple-vs-list container types.
        assert corpus_fingerprint(["candidate", 1], [[1, 2]]) == (
            corpus_fingerprint(("candidate", 1), ((1, 2),))
        )


class TestStorage:
    def test_add_round_trips(self, tmp_path):
        corpus = FuzzCorpus(tmp_path)
        genes = ((5, 0), (2, 7))
        assert corpus.add(KEY, genes) is True
        assert corpus.entries(KEY) == [genes]

    def test_add_is_idempotent(self, tmp_path):
        corpus = FuzzCorpus(tmp_path)
        genes = ((5, 0),)
        assert corpus.add(KEY, genes) is True
        assert corpus.add(KEY, genes) is False
        assert len(corpus.entries(KEY)) == 1

    def test_cache_style_layout(self, tmp_path):
        corpus = FuzzCorpus(tmp_path)
        genes = ((0, 0),)
        corpus.add(KEY, genes)
        fp = corpus_fingerprint(KEY, genes)
        path = tmp_path / fp[:2] / f"{fp}.json"
        assert path.is_file()
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema"] == CORPUS_SCHEMA
        assert payload["key"] == list(KEY)
        assert payload["genes"] == [[0, 0]]

    def test_nested_tuple_key_round_trips(self, tmp_path):
        # Algorithm 2 keys carry the input tuple; after the JSON round
        # trip it is a nested list, and lookup must still match.
        corpus = FuzzCorpus(tmp_path)
        key = ("algorithm2", 3, (1, 0, 0))
        assert corpus.add(key, ((4, 0),)) is True
        assert corpus.entries(key) == [((4, 0),)]
        assert corpus.add(key, ((4, 0),)) is False

    def test_entries_filtered_by_key(self, tmp_path):
        corpus = FuzzCorpus(tmp_path)
        corpus.add(KEY, ((1, 1),))
        corpus.add(OTHER_KEY, ((2, 2),))
        assert corpus.entries(KEY) == [((1, 1),)]
        assert corpus.entries(OTHER_KEY) == [((2, 2),)]

    def test_entries_sorted_by_fingerprint(self, tmp_path):
        corpus = FuzzCorpus(tmp_path)
        all_genes = [((k, 0),) for k in range(6)]
        for genes in all_genes:
            corpus.add(KEY, genes)
        loaded = corpus.entries(KEY)
        assert sorted(loaded, key=lambda g: corpus_fingerprint(KEY, g)) == (
            loaded
        )
        assert sorted(map(tuple, loaded)) == sorted(map(tuple, all_genes))

    def test_corrupt_entries_skipped(self, tmp_path):
        corpus = FuzzCorpus(tmp_path)
        corpus.add(KEY, ((9, 9),))
        bad_dir = tmp_path / "zz"
        bad_dir.mkdir()
        (bad_dir / "zz00.json").write_text("{not json", encoding="utf-8")
        (bad_dir / "zz01.json").write_text(
            json.dumps({"schema": 999, "key": list(KEY), "genes": []}),
            encoding="utf-8",
        )
        assert corpus.entries(KEY) == [((9, 9),)]

    def test_stats_and_clear(self, tmp_path):
        corpus = FuzzCorpus(tmp_path)
        assert corpus.stats().entries == 0
        corpus.add(KEY, ((1, 0),))
        corpus.add(KEY, ((2, 0),))
        stats = corpus.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.root == str(tmp_path)
        assert corpus.clear() == 2
        assert corpus.entries(KEY) == []

    def test_default_root(self):
        assert str(FuzzCorpus().root) == ".repro-fuzz-corpus"
