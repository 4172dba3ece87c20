"""Random operation-sequence generators for spec-level experiments.

The PAC experiments (E1, E2) quantify over *operation histories* rather
than schedules: Algorithm 1 is a sequential object, so its behaviour is
fully exercised by feeding it operation sequences. These generators
produce them:

* :func:`random_pac_history` — a random mix of proposes/decides over
  the label space (mostly-legal or fully random, tunable);
* :func:`all_pac_histories` — exhaustive enumeration up to a length
  (for the small exact sweeps).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Sequence, Tuple

from ..types import Operation, op


def pac_operation_space(n: int, values: Sequence = (0, 1)) -> List[Operation]:
    """Every distinct PAC operation over ``n`` labels and ``values``."""
    operations: List[Operation] = []
    for label in range(1, n + 1):
        for value in values:
            operations.append(op("propose", value, label))
        operations.append(op("decide", label))
    return operations


def random_pac_history(
    n: int,
    length: int,
    seed: int = 0,
    legal_bias: float = 0.0,
    values: Sequence = (0, 1),
) -> List[Operation]:
    """A random PAC history of ``length`` operations.

    ``legal_bias`` in [0, 1] is the probability that each operation is
    chosen to *keep* the history legal (1.0 → always legal); the
    remainder are drawn uniformly from the whole operation space,
    producing upsets.
    """
    rng = random.Random(seed)
    space = pac_operation_space(n, values)
    expecting_propose = {label: True for label in range(1, n + 1)}
    history: List[Operation] = []
    for _ in range(length):
        if rng.random() < legal_bias:
            label = rng.randint(1, n)
            if expecting_propose[label]:
                operation = op("propose", rng.choice(tuple(values)), label)
            else:
                operation = op("decide", label)
        else:
            operation = rng.choice(space)
        label = (
            operation.args[1]
            if operation.name == "propose"
            else operation.args[0]
        )
        if operation.name == "propose":
            expecting_propose[label] = False
        else:
            expecting_propose[label] = True
        history.append(operation)
    return history


def all_pac_histories(
    n: int, max_length: int, values: Sequence = (0,)
) -> Iterator[Tuple[Operation, ...]]:
    """Exhaustively enumerate PAC histories up to ``max_length``.

    With the default single-value domain the count is
    ``(2n)^L`` summed over lengths — keep ``n`` and ``max_length``
    small (the E1/E2 exact sweeps use n=2, L=6).
    """
    space = pac_operation_space(n, values)
    for length in range(max_length + 1):
        yield from itertools.product(space, repeat=length)
