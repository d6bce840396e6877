"""Equivalence-class deciders for twisted degree-2 topological polynomials
with three finite post-critical points."""

from .labels import (
    AIRPLANE,
    CORABBIT,
    F14,
    F34,
    F512,
    F_MINUS_I,
    FI,
    RABBIT,
    BoundExceeded,
    BranchAmbiguity,
    ClassLabel,
    Diverged,
    NotContracting,
    PunctureProximity,
    obstructed,
)
from .words import Alphabet, Endo, GenWord
from .wreath import (
    Recursion,
    WreathElem,
    act,
    phi_apply,
    restrict,
    substitute_recursion,
    twist_recursion,
)
from .selfsim import (
    MooreDiagram,
    action_equal,
    automata_distinct,
    homotopy_shift,
    is_kernel_element,
    is_trivial_action,
    moore_diagram,
    nucleus,
)

__all__ = [
    "AIRPLANE", "CORABBIT", "F14", "F34", "F512", "F_MINUS_I", "FI", "RABBIT",
    "Alphabet", "BoundExceeded", "BranchAmbiguity", "ClassLabel", "Diverged",
    "Endo", "GenWord", "MooreDiagram", "NotContracting", "PunctureProximity",
    "Recursion", "WreathElem", "act", "action_equal", "automata_distinct",
    "homotopy_shift", "is_kernel_element", "is_trivial_action", "moore_diagram",
    "nucleus", "obstructed", "phi_apply", "restrict", "substitute_recursion",
    "twist_recursion",
]

__version__ = "0.1.0"
