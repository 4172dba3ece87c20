"""Tests: every claimed power lower bound survives its own protocol.

The separation pair's certifiers ship in
:mod:`repro.core.power_certification`; the certifiers for the rest of
the power table (registers, ``m``-consensus, strong ``c``-SA) and the
prefix runner have no product caller, so they live here.
"""

import pytest

from repro.core.power import (
    SetAgreementPower,
    combined_pac_power,
    m_consensus_power,
    on_power,
    register_power,
)
from repro.core.power_certification import (
    Certification,
    _check_k_set,
    certify_bundle_level,
    certify_combined_pac,
)
from repro.core.separation import make_on_prime
from repro.core.set_agreement import StrongSetAgreementSpec
from repro.errors import SpecificationError
from repro.protocols.set_agreement import (
    group_partition_objects,
    group_partition_processes,
    strong_sa_processes,
    trivial_processes,
)
from repro.types import require


def certify_registers(k):
    """``n_k >= k``: everyone decides its own input."""
    inputs = tuple(range(k))
    ok = _check_k_set({}, trivial_processes(inputs), k, inputs)
    return Certification(k, k, "trivial protocol", ok)


def certify_m_consensus(m, k):
    """``n_k >= m·k``: k groups of m, one consensus object each."""
    count = m * k
    inputs = tuple(range(count))
    ok = _check_k_set(
        group_partition_objects(count, m),
        group_partition_processes(inputs, m),
        k,
        inputs,
    )
    return Certification(k, count, f"group partition ({k} x {m}-consensus)", ok)


def certify_strong_sa(c, k, sample_count=5):
    """``k >= c`` ⇒ unbounded: relay through one strong c-SA object,
    sampled at ``sample_count`` processes (no finite run certifies ∞)."""
    require(k >= c, SpecificationError, "the strong c-SA bound needs k >= c")
    inputs = tuple(range(sample_count))
    ok = _check_k_set(
        {"SA": StrongSetAgreementSpec(c)},
        strong_sa_processes(inputs),
        k,
        inputs,
    )
    return Certification(
        k, sample_count, f"strong {c}-SA relay (sampled at {sample_count})", ok
    )


def certify_power_prefix(power: SetAgreementPower, length, certifier):
    """Certify the first ``length`` components of ``power`` with the
    given per-component certifier; raises if any claimed finite lower
    bound fails its own protocol."""
    results = []
    for k in range(1, length + 1):
        certification = certifier(k)
        if not certification.certified:
            raise SpecificationError(
                f"{power.name}: claimed lower bound at k={k} failed its "
                f"backing protocol ({certification.method})"
            )
        results.append(certification)
    return results


class TestIndividualCertifiers:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_registers(self, k):
        certification = certify_registers(k)
        assert certification.certified
        assert certification.process_count == register_power()[k].value

    @pytest.mark.parametrize("m,k", [(1, 2), (2, 1), (2, 2), (3, 1)])
    def test_m_consensus(self, m, k):
        certification = certify_m_consensus(m, k)
        assert certification.certified
        assert certification.process_count == m_consensus_power(m)[k].lower

    @pytest.mark.parametrize("k", [2, 3])
    def test_strong_sa(self, k):
        certification = certify_strong_sa(2, k, sample_count=4)
        assert certification.certified
        assert "sampled" in certification.method

    def test_strong_sa_requires_k_at_least_c(self):
        with pytest.raises(SpecificationError):
            certify_strong_sa(2, 1)

    @pytest.mark.parametrize("n,m,k", [(3, 2, 1), (3, 2, 2)])
    def test_combined_pac(self, n, m, k):
        certification = certify_combined_pac(n, m, k)
        assert certification.certified
        assert certification.process_count == combined_pac_power(n, m)[k].lower

    @pytest.mark.parametrize("k", [1, 2])
    def test_bundle_levels(self, k):
        bundle = make_on_prime(2, levels=3)
        certification = certify_bundle_level(bundle.levels, k)
        assert certification.certified
        assert certification.process_count == on_power(2)[k].lower


class TestPrefixCertification:
    def test_register_prefix(self):
        results = certify_power_prefix(
            register_power(), 3, certify_registers
        )
        assert [r.k for r in results] == [1, 2, 3]
        assert all(r.certified for r in results)

    def test_consensus_prefix(self):
        results = certify_power_prefix(
            m_consensus_power(2), 2, lambda k: certify_m_consensus(2, k)
        )
        assert all(r.certified for r in results)

    def test_on_prefix_via_combined(self):
        results = certify_power_prefix(
            on_power(2), 2, lambda k: certify_combined_pac(3, 2, k)
        )
        assert all(r.certified for r in results)

    def test_failed_certification_raises(self):
        def bogus(k):
            return Certification(k, 1, "nope", certified=False)

        with pytest.raises(SpecificationError, match="failed its"):
            certify_power_prefix(register_power(), 1, bogus)
