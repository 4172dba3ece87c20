"""Tests for set agreement power sequences and bounds."""

import pytest

from repro.core.power import (
    PowerBound,
    SetAgreementPower,
    combined_pac_power,
    m_consensus_power,
    on_power,
    on_prime_power,
    register_power,
    strong_sa_power,
)
from repro.core.set_agreement import UNBOUNDED
from repro.errors import SpecificationError


class TestPowerBound:
    def test_exact_when_bounds_meet(self):
        bound = PowerBound(lower=3, upper=3)
        assert bound.exact
        assert bound.value == 3

    def test_not_exact_without_upper(self):
        bound = PowerBound(lower=3)
        assert not bound.exact
        with pytest.raises(SpecificationError):
            _ = bound.value

    def test_rejects_inverted_bounds(self):
        with pytest.raises(SpecificationError):
            PowerBound(lower=5, upper=3)

    def test_unbounded_bounds(self):
        bound = PowerBound(lower=UNBOUNDED, upper=UNBOUNDED)
        assert bound.exact
        assert bound.value == UNBOUNDED

    def test_finite_lower_unbounded_upper(self):
        bound = PowerBound(lower=3, upper=UNBOUNDED)
        assert not bound.exact

    def test_repr(self):
        assert repr(PowerBound(2, 2)) == "=2"
        assert repr(PowerBound(2, None)) == "[2..?]"
        assert repr(PowerBound(2, 6)) == "[2..6]"


class TestKnownPowers:
    def test_register_power_is_identity(self):
        power = register_power()
        for k in range(1, 8):
            assert power[k].value == k

    def test_m_consensus_power_is_multiplicative(self):
        """Chaudhuri–Reiners: n_k = m·k for the m-consensus object."""
        power = m_consensus_power(3)
        assert [power[k].value for k in range(1, 5)] == [3, 6, 9, 12]

    def test_one_consensus_matches_registers(self):
        one, registers = m_consensus_power(1), register_power()
        assert [one[k].value for k in range(1, 6)] == [
            registers[k].value for k in range(1, 6)
        ]

    def test_strong_sa_power(self):
        power = strong_sa_power(2)
        assert power[1].value == 1
        assert power[2].value == UNBOUNDED
        assert power[5].value == UNBOUNDED

    def test_strong_sa_c3(self):
        power = strong_sa_power(3)
        assert power[1].value == 1
        assert power[2].value == 2
        assert power[3].value == UNBOUNDED

    def test_combined_pac_consensus_number(self):
        """Theorem 5.3: n_1 = m exactly."""
        power = combined_pac_power(5, 3)
        assert power[1].exact
        assert power[1].value == 3

    def test_combined_pac_tail_is_lower_bounded_open(self):
        power = combined_pac_power(5, 3)
        assert power[2].lower == 6
        assert power[2].upper is None
        assert not power[2].exact

    def test_invalid_parameters(self):
        with pytest.raises(SpecificationError):
            m_consensus_power(0)
        with pytest.raises(SpecificationError):
            combined_pac_power(0, 2)


class TestOnAndOnPrime:
    def test_on_power_head(self):
        """O_n = (n+1, n)-PAC is at level n (Observation 6.2)."""
        for n in (2, 3, 5):
            assert on_power(n)[1].value == n

    def test_on_requires_n_at_least_2(self):
        with pytest.raises(SpecificationError):
            on_power(1)

    def test_on_prime_power_equals_on_power(self):
        """O'_n embodies O_n's power by construction (Section 6)."""
        for n in (2, 3):
            assert on_power(n).agrees_with(on_prime_power(n), 6)

    def test_prefix_helpers(self):
        power = on_power(2)
        assert power.lower_prefix(3) == (2, 4, 6)
        bounds = power.prefix(2)
        assert bounds[0].exact
        assert not bounds[1].exact


class TestSequenceApi:
    def test_component_index_must_be_positive(self):
        with pytest.raises(SpecificationError):
            register_power()[0]

    def test_agrees_with_detects_divergence(self):
        assert not register_power().agrees_with(m_consensus_power(2), 2)
        assert register_power().agrees_with(m_consensus_power(1), 8)

    def test_describe_renders(self):
        text = m_consensus_power(2).describe(3)
        assert "2-consensus" in text
        assert "=2" in text and "=4" in text and "=6" in text

    def test_repr(self):
        assert "SetAgreementPower" in repr(register_power())
