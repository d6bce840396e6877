"""Classification labels and shared error types."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClassLabel:
    """Equivalence-class tag; ``index`` is only set for obstructed classes."""

    kind: str
    index: int | None = None

    def __str__(self) -> str:
        if self.index is None:
            return self.kind
        return f"{self.kind}({self.index})"


RABBIT = ClassLabel("rabbit")
CORABBIT = ClassLabel("corabbit")
AIRPLANE = ClassLabel("airplane")
FI = ClassLabel("f_i")
F_MINUS_I = ClassLabel("f_-i")
F14 = ClassLabel("f_1/4")
F34 = ClassLabel("f_3/4")
F512 = ClassLabel("f_5/12")


def obstructed(index: int | None = None) -> ClassLabel:
    return ClassLabel("obstructed", index)


class AlphabetMismatch(ValueError):
    """Operands belong to different generator alphabets."""


class WordParseError(ValueError):
    """Word text did not match the grammar; carries token position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BoundExceeded(RuntimeError):
    """A bounded search grew past its state/work budget."""


class NotContracting(BoundExceeded):
    """A nucleus search met a non-trivial state ``state`` that fixes the
    vertex ``vertex`` and is its own restriction there.

    Then every power of ``state`` is its own restriction at that vertex, so
    all of them lie in the nucleus, which is infinite: no budget would have
    let the search finish.
    """

    def __init__(self, state, vertex: int):
        super().__init__(
            f"not contracting within any bound: {state} fixes vertex {vertex} "
            f"and is its own restriction there, so the nucleus holds all its "
            f"powers"
        )
        self.state = state
        self.vertex = vertex


class Diverged(RuntimeError):
    """An iteration failed to reach a terminal value within its step budget."""


class BranchAmbiguity(RuntimeError):
    """Preimage branches came too close to continue a lift reliably."""


class PunctureProximity(ValueError):
    """A moduli-space evaluation point sits on or next to a puncture."""
