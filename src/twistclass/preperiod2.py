"""The preperiod-2 / period-1 family: the three built-in recursions, their
known nuclei, the moduli iterator, and the classifier."""

from __future__ import annotations

from .labels import F14, F34, F512, ClassLabel
from .words import AB, PI1, Endo, GenWord, fold_actions
from .wreath import (
    Recursion,
    WreathElem,
    coordinate_step,
    iterate_to_terminal,
    substitute_recursion,
)

MODULI = AB

_AL, _BE, _GA = PI1.gens()
_A, _B = MODULI.gens()
_ONE = PI1.identity()

VARIANTS = ("F14", "F34", "F512")

#: circle-at-infinity words, per variant (each maps to <1, itself>.sigma)
ADDING_MACHINES = {
    "F14": _BE * _AL * _GA,
    "F34": _AL * _BE * _GA,
    "F512": _BE * _GA * _AL,
}


def quater_recursion(variant: str) -> Recursion:
    """Built-in recursion for one of the three preperiod-2 polynomials."""
    if variant == "F14":
        table = {
            "alpha": WreathElem(~_AL * ~_BE, _BE * _AL, True),
            "beta": WreathElem(_AL, _ONE),
            "gamma": WreathElem(_GA, _BE),
        }
    elif variant == "F34":
        table = {
            "alpha": WreathElem(~_BE * ~_AL, _AL * _BE, True),
            "beta": WreathElem(_ONE, _AL),
            "gamma": WreathElem(_GA, _BE),
        }
    elif variant == "F512":
        table = {
            "alpha": WreathElem(~_AL * ~_GA, _GA * _AL, True),
            "beta": WreathElem(_AL, _ONE),
            "gamma": WreathElem(_GA.conjugate(_AL), _BE),
        }
    else:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return Recursion.make(PI1, table, ADDING_MACHINES[variant])


def variant_label(variant: str) -> ClassLabel:
    return {"F14": F14, "F34": F34, "F512": F512}[variant]


def printed_nucleus(variant: str) -> set[GenWord]:
    """The known nucleus of each variant, closed under inverses."""
    if variant == "F14":
        core = [
            _AL, _BE, _GA,
            _GA.conjugate(_AL * _BE),
            _AL * _BE, _BE * _AL,
            _BE * _AL * _GA,
        ]
    elif variant == "F34":
        core = [
            _AL, _BE, _GA,
            _GA.conjugate(_BE * _AL),
            _AL * _BE, _BE * _AL,
            _AL * _BE * _GA,
        ]
    elif variant == "F512":
        core = [
            _AL, _BE, _GA,
            _GA.conjugate(_AL),
            _BE.conjugate(_GA * _AL),
            _AL * _GA, _GA * _AL,
            _BE * _GA * _AL,
        ]
    else:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    out = {_ONE}
    for w in core:
        out.add(w)
        out.add(~w)
    return out


def quater_nucleus(variant: str, bound: int = 10000) -> set[GenWord]:
    """Nucleus of a built-in recursion, over the group of tree actions.

    The word-level nucleus of these recursions is infinite (squares of the
    generators fix subtrees while keeping non-trivial restriction words), so
    states are identified by their action, the group the known nuclei
    live in.
    """
    from .selfsim import nucleus

    return nucleus(quater_recursion(variant), PI1.gens(), bound, up_to_action=True)


def moduli_q_recursion() -> Recursion:
    """Moduli-space recursion of this family on the two twist generators."""
    one = MODULI.identity()
    return Recursion.make(MODULI, {
        "a": WreathElem(one, _B, True),
        "b": WreathElem(~_B * ~_A, _A),
    })


_MODULI_REC = moduli_q_recursion()


def psi_bar_q(w: GenWord) -> GenWord:
    """One classifier step: the letter-0 coordinate map with an ``a``
    correction outside its domain."""
    return coordinate_step(_MODULI_REC, 0, _A, w)


# Terminal values of the iterator and the class each one names.  Calibration
# data, pinned jointly by the nucleus comparison of the twisted recursions
# and by the numeric moduli classifier (the two independent oracles agree on
# every anchor).  The iterator has four attractors, not three: the orbit of
# the bare b twist cycles through b -> (ab)^-1 -> a^2 and never reaches the
# other terminals.
TERMINAL_LABELS: tuple[tuple[frozenset[GenWord], ClassLabel], ...] = (
    (frozenset({MODULI.identity()}), F14),
    (frozenset({_A}), F512),
    (frozenset({_A * ~_B * _A, ~_A * _B}), F512),
    (frozenset({_B, ~_B * ~_A, _A * _A}), F34),
)


def classify_quater(w: GenWord, max_iters: int = 64) -> ClassLabel:
    """Label of the base polynomial post-twisted by ``w``, by iteration to
    one of the terminal sets; an orbit revisiting a non-terminal word is
    reported as Diverged."""
    return iterate_to_terminal(psi_bar_q, TERMINAL_LABELS, w, max_iters)[0]


# --- twist actions on the fundamental group ----------------------------------
#
# The two moduli generators are Dehn twists about a curve around the
# (critical value, fixed point) pair and the (middle point, fixed point)
# pair.  Each action fixes the circle word of the family exactly; the
# chirality and curve positions are pinned by the nucleus oracle against the
# numeric classifier (unique match over all convention choices).


def a_twist_action() -> Endo:
    return Endo.make(PI1, {
        "alpha": _AL.conjugate(~_GA * ~_AL),
        "beta": _BE,
        "gamma": _GA.conjugate(~_AL),
    })


def a_twist_inverse_action() -> Endo:
    return Endo.make(PI1, {
        "alpha": _AL.conjugate(_AL * _GA),
        "beta": _BE,
        "gamma": _GA.conjugate(_AL * _GA),
    })


def b_twist_action() -> Endo:
    return Endo.make(PI1, {
        "alpha": _AL,
        "beta": _BE.conjugate(_AL * ~_GA * ~_AL * ~_BE),
        "gamma": _GA.conjugate(~_AL * ~_BE * _AL),
    })


def b_twist_inverse_action() -> Endo:
    return Endo.make(PI1, {
        "alpha": _AL,
        "beta": _BE.conjugate(_AL * _GA * ~_AL),
        "gamma": _GA.conjugate(~_AL * _BE * _AL * _GA),
    })


_LETTER_ACTIONS = {
    ("a", 1): a_twist_action(),
    ("a", -1): a_twist_inverse_action(),
    ("b", 1): b_twist_action(),
    ("b", -1): b_twist_inverse_action(),
}


def word_action(w: GenWord) -> Endo:
    """Action of a twist word on the fundamental group, letters applied
    left to right."""
    return fold_actions(MODULI, _LETTER_ACTIONS, w)


def twisted_quater_recursion(variant: str, w: GenWord) -> Recursion:
    """Recursion of a built-in polynomial post-composed with the twist ``w``.

    Post-composition substitutes the inverse word's action into the table.
    Exact for the calibration anchors (powers of one twist and the short
    mixed words with the a-twist first); longer mixed words can pick up an
    unnormalized circle-twist shift, where the numeric classifier is the
    reliable oracle instead.
    """
    return substitute_recursion(quater_recursion(variant), word_action(~w))
