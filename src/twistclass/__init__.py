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
from .words import Alphabet, Endo, GenWord, apply_endo, conjugate, reduce_word
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
    VirtualEndo,
    action_equal,
    automata_distinct,
    homotopy_shift,
    is_kernel_element,
    is_trivial_action,
    moore_diagram,
    nucleus,
    recursion_from_virtual_endo,
    restriction_closure,
)

__all__ = [
    "AIRPLANE", "CORABBIT", "F14", "F34", "F512", "F_MINUS_I", "FI", "RABBIT",
    "Alphabet", "BoundExceeded", "BranchAmbiguity", "ClassLabel", "Diverged",
    "Endo", "GenWord", "MooreDiagram", "NotContracting", "PunctureProximity",
    "Recursion", "VirtualEndo", "WreathElem", "act", "action_equal", "apply_endo",
    "automata_distinct", "conjugate", "homotopy_shift", "is_kernel_element",
    "is_trivial_action", "moore_diagram", "nucleus", "obstructed",
    "phi_apply", "recursion_from_virtual_endo", "reduce_word", "restrict",
    "restriction_closure", "substitute_recursion", "twist_recursion",
]

__version__ = "0.1.0"
