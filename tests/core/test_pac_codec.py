"""The n-PAC codec: structural state codes and operation footprints.

The model checker keys an n-PAC step on the code bits its operation
touches (``PacCodec.footprint``). That is sound only if states equal
under the footprint get the same responses and the same new bits under
it, and no bit outside it changes. These tests check that over every
``PacState`` for n <= 3 with values {0, 1, 2}, and score the check the
way ``test_pac_mutants.py`` scores the Algorithm 1 auditors: planted
wrong footprints must each be killed, the real one must survive.
"""

import itertools

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.kernel import compiled_available
from repro.analysis.kernel.encoding import FIELD_BITS, MAX_CODE, DenseCodec
from repro.api import ExploreRequest, execute
from repro.core.pac import NPacSpec, PacCodec, PacState
from repro.errors import AnalysisError, CodecOverflowError
from repro.protocols.dac_from_pac import algorithm2_processes
from repro.protocols.tasks import DacDecisionTask
from repro.types import NIL, op
from tests.core.test_pac_mutants import MUTANTS

VALUES = (0, 1, 2)

AVAILABLE_KERNELS = ("python", "compiled") if compiled_available() else (
    "python",
)


class NoCodec(NPacSpec):
    """The n-PAC object keyed on its whole state, as without codecs."""

    def packed_codec(self, bits):
        return None


def all_states(n):
    """Every ``PacState`` of an n-PAC object over :data:`VALUES`."""
    slot = (NIL, *VALUES)
    for upset, proposals, label, value in itertools.product(
        (False, True),
        itertools.product(slot, repeat=n),
        (NIL, *range(1, n + 1)),
        slot,
    ):
        yield PacState(upset, proposals, label, value)


def all_operations(n):
    for label in range(1, n + 1):
        for value in VALUES:
            yield op("propose", value, label)
        yield op("decide", label)


def codec_for(n, codec_type=PacCodec):
    width = NPacSpec(n).packed_codec(FIELD_BITS).width
    return codec_type(n, width)


def footprint_faults(n, codec):
    """Every way ``codec``'s footprints break the kernel's keying over
    all n-PAC states and operations (empty when sound)."""
    spec = NPacSpec(n)
    faults = []
    states = list(all_states(n))
    codes = {state: codec.code(state) for state in states}
    for operation in all_operations(n):
        mask = codec.footprint(operation)
        classes = {}
        for state in states:
            old = codes[state]
            ((new_state, response),) = spec.responses(state, operation)
            new = codec.code(new_state)
            if (new ^ old) & ~mask:
                faults.append(("writes outside", operation, state))
            seen = classes.setdefault(old & mask, (response, new & mask))
            if seen != (response, new & mask):
                faults.append(("reads outside", operation, state))
    return faults


class MissingVal(PacCodec):
    """Planted: a decide's footprint leaves out ``val``."""

    def footprint(self, operation):
        mask = super().footprint(operation)
        if operation.name == "decide":
            mask &= ~(self._field_mask << self._value_shift)
        return mask


class MissingLabel(PacCodec):
    """Planted: footprints leave out ``L``."""

    def footprint(self, operation):
        return super().footprint(operation) & ~self._label_mask


class WrongSlot(PacCodec):
    """Planted: an operation on label ``i`` covers ``V[i+1]``, not ``V[i]``."""

    def footprint(self, operation):
        label = operation.args[-1]
        shifted = op(operation.name, *operation.args[:-1], label % self.n + 1)
        return super().footprint(shifted)


PLANTED = [MissingVal, MissingLabel, WrongSlot]


class TestFootprintSoundness:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_real_footprint_is_sound(self, n):
        assert footprint_faults(n, codec_for(n)) == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_code_and_state_round_trip(self, n):
        codec = codec_for(n)
        codes = set()
        for state in all_states(n):
            code = codec.code(state)
            assert 0 <= code < MAX_CODE
            codes.add(code)
            assert codec.state(code) == state
        # A codec that never encoded these states builds them from the
        # fields (same sub-codes: values first seen in the same order).
        fresh = codec_for(n)
        for value in VALUES:
            fresh.code(PacState(False, (NIL,) * n, NIL, value))
        for code in sorted(codes):
            built = fresh.state(code)
            assert built == codec.state(code)
            assert fresh.code(built) == code
        # Distinct states, distinct codes.
        assert len(codes) == len(list(all_states(n)))

    def test_peek_never_allocates(self):
        codec = codec_for(2)
        state = PacState(False, (5, NIL), 1, NIL)
        assert codec.peek(state) is None
        assert codec.peek(PacState.initial(2)) == 0
        assert codec.peek(PacState.initial(3)) is None
        code = codec.code(state)
        assert codec.peek(state) == code
        assert codec.peek(PacState(False, (NIL, 5), 2, 5)) is not None


class TestPlantedFootprintsAreKilled:
    @pytest.mark.parametrize(
        "planted", PLANTED, ids=[p.__name__ for p in PLANTED]
    )
    def test_exhaustive_check_kills(self, planted):
        faults = [
            fault for n in (2, 3) for fault in footprint_faults(n, codec_for(n, planted))
        ]
        assert faults, f"{planted.__name__} survived the footprint check"

    @pytest.mark.parametrize(
        "planted", PLANTED, ids=[p.__name__ for p in PLANTED]
    )
    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_explorer_refuses(self, planted, kernel):
        """A footprint that misses a bit the step writes is caught on
        the first miss that writes it, never turned into a graph."""

        class Planted(NPacSpec):
            def packed_codec(self, bits):
                return planted(self.n, super().packed_codec(bits).width)

        explorer = Explorer(
            {"PAC": Planted(3)}, algorithm2_processes((1, 0, 0)), kernel=kernel
        )
        with pytest.raises(AnalysisError, match="outside its footprint"):
            explorer.explore()


class TestCodecScope:
    def test_widths(self):
        # W = (24 - 1 - bitlen(n)) // (n + 1); n = 6..8 leave 2 bits.
        widths = {n: NPacSpec(n).packed_codec(FIELD_BITS) for n in range(1, 10)}
        assert {n: c.width for n, c in widths.items() if c} == {
            1: 11, 2: 7, 3: 5, 4: 4, 5: 3, 6: 2, 7: 2, 8: 2
        }
        assert widths[9] is None

    def test_a_fourth_value_at_n6_overflows(self):
        codec = NPacSpec(6).packed_codec(FIELD_BITS)
        for value in ("a", "b", "c"):
            codec.code(PacState(False, (value,) + (NIL,) * 5, 1, NIL))
        with pytest.raises(CodecOverflowError, match="packed encoding overflow"):
            codec.code(PacState(False, ("d",) + (NIL,) * 5, 1, NIL))

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_overflow_walks_again_without_codecs(self, kernel):
        """Four distinct inputs at n=6 overflow the codec mid-walk; the
        explorer drops it and answers exactly as a walk that never had
        one: the ids interned before the overflow are kept, and the
        graph, its ids and the verdict are the same."""
        inputs = (0, 1, 2, 3, 0, 0)

        def walk(spec):
            explorer = Explorer(
                {"PAC": spec}, algorithm2_processes(inputs), kernel=kernel
            )
            initial = explorer.initial_configuration()
            # Three proposals fit the codec; expanding the initial
            # configuration (pid 3 proposes 3) does not.
            stepped = initial
            for pid in (0, 1, 2):
                stepped = explorer.step(stepped, pid)
            kept = [explorer.intern_id(c) for c in (initial, stepped)]
            still_coded = not isinstance(explorer._encoder.codecs[0], DenseCodec)
            full = explorer.explore()
            verdict = explorer.check_safety(
                DacDecisionTask(6), inputs, exploration=full
            )
            return explorer, still_coded, (
                kept,
                full.order_ids,
                [repr(config) for config in full.order],
                full.successor_ids,
                full.complete,
                verdict,
            )

        explorer, still_coded, seen = walk(NPacSpec(6))
        _plain, _, plain_seen = walk(NoCodec(6))
        assert still_coded
        assert isinstance(explorer._encoder.codecs[0], DenseCodec)
        assert seen == plain_seen
        assert seen[0] == [0, 3] and seen[4]  # the walk completed

    def test_overflowing_request_reports_as_at_the_parent(self):
        """The request surface answers the overflowing instance with the
        configuration count of a walk without codecs."""
        inputs = (0, 1, 2, 3, 0, 0)
        report = execute(ExploreRequest(n=6, inputs=inputs))
        plain = Explorer({"PAC": NoCodec(6)}, algorithm2_processes(inputs))
        assert report.ok
        assert report.data["configurations"] == len(plain.explore())

    @pytest.mark.parametrize("kernel", AVAILABLE_KERNELS)
    def test_n9_runs_without_a_codec(self, kernel):
        explorer = Explorer(
            {"PAC": NPacSpec(9)},
            algorithm2_processes((1,) + (0,) * 8),
            kernel=kernel,
        )
        (codec,) = explorer._encoder.codecs
        assert isinstance(codec, DenseCodec)
        assert codec.footprint(op("decide", 1)) == MAX_CODE - 1
        result = explorer.explore(max_configurations=500)
        assert len(result.order_ids) == 500 and not result.complete

    @pytest.mark.parametrize("mutant", MUTANTS, ids=[m.__name__ for m in MUTANTS])
    def test_changed_semantics_get_no_codec(self, mutant):
        """The footprints are proven for Algorithm 1 as written; a spec
        that changes what an operation does keys on the whole state."""
        assert mutant(3).packed_codec(FIELD_BITS) is None
