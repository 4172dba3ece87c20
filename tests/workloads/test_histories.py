"""Tests for PAC history generators."""

import pytest

from repro.core.pac import is_legal_history
from repro.workloads.histories import (
    all_pac_histories,
    pac_operation_space,
    random_pac_history,
)


class TestOperationSpace:
    def test_size(self):
        # Per label: |values| proposes + 1 decide.
        space = pac_operation_space(2, values=(0, 1))
        assert len(space) == 2 * (2 + 1)

    def test_single_value(self):
        space = pac_operation_space(3, values=(0,))
        assert len(space) == 3 * 2


class TestRandomHistories:
    def test_length(self):
        history = random_pac_history(2, 25, seed=1)
        assert len(history) == 25

    def test_reproducible(self):
        assert random_pac_history(3, 30, seed=9) == random_pac_history(
            3, 30, seed=9
        )

    def test_full_legal_bias_is_legal(self):
        for seed in range(10):
            history = random_pac_history(2, 40, seed=seed, legal_bias=1.0)
            assert is_legal_history(history, 2), seed

    def test_zero_bias_produces_illegal_histories(self):
        illegal = sum(
            not is_legal_history(
                random_pac_history(2, 30, seed=seed, legal_bias=0.0), 2
            )
            for seed in range(20)
        )
        assert illegal > 10  # almost every unbiased history upsets

    def test_labels_in_range(self):
        for operation in random_pac_history(3, 50, seed=2):
            label = (
                operation.args[1]
                if operation.name == "propose"
                else operation.args[0]
            )
            assert 1 <= label <= 3


class TestExhaustiveHistories:
    def test_counts_by_length(self):
        # n=1, single value: space = {propose, decide}; lengths 0..2:
        # 1 + 2 + 4 = 7 histories.
        histories = list(all_pac_histories(1, 2))
        assert len(histories) == 7

    def test_includes_empty(self):
        assert () in set(all_pac_histories(1, 1))

    def test_all_lengths_covered(self):
        lengths = {len(h) for h in all_pac_histories(2, 3)}
        assert lengths == {0, 1, 2, 3}
