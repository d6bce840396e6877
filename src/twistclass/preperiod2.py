"""The preperiod-2 / period-1 family: the three built-in recursions, their
known nuclei, the moduli iterator, and the classifier."""

from __future__ import annotations

from .labels import F14, F34, F512, ClassLabel
from .words import AB, PI1, Endo, GenWord, twist_action
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

VARIANTS = {"F14": F14, "F34": F34, "F512": F512}

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
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {variant!r}")
    return Recursion.make(PI1, table, ADDING_MACHINES[variant])


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
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {variant!r}")
    out = {_ONE}
    for w in core:
        out.add(w)
        out.add(~w)
    return out


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

#: stop test of the orbit loop: the label of a terminal word, else None
terminal_label = {t: label for ts, label in TERMINAL_LABELS for t in ts}.get


def classify_quater(w: GenWord, max_iters: int = 64) -> ClassLabel:
    """Label of the base polynomial post-twisted by ``w``, by iteration to
    one of the terminal sets; an orbit revisiting a non-terminal word is
    reported as Diverged."""
    return iterate_to_terminal(psi_bar_q, terminal_label, w, max_iters)[0]


#: the moduli generators as loops whose product is their curve: ``a`` twists
#: about the (critical value, fixed point) pair and ``b`` about the (middle
#: point, fixed point) pair
TWIST_CURVES = {"a": (_AL, _GA), "b": (_BE, _AL * _GA * ~_AL)}


def word_action(w: GenWord) -> Endo:
    """Action of a twist word on the fundamental group, letters applied
    left to right."""
    # both twists are left-handed and fix the family's circle word; the
    # nucleus oracle against the numeric classifier pins the chirality and
    # curve positions (the unique match over all convention choices)
    return twist_action(TWIST_CURVES, -1, w)


def twisted_quater_recursion(variant: str, w: GenWord) -> Recursion:
    """Recursion of a built-in polynomial post-composed with the twist ``w``.

    Post-composition substitutes the inverse word's action into the table.
    Exact for the calibration anchors (powers of one twist and the short
    mixed words with the a-twist first); longer mixed words can pick up an
    unnormalized circle-twist shift, where the numeric classifier
    (:func:`twistclass.moduli.classify_numeric`) is the oracle instead; its
    measured branch margins are in :func:`twistclass.moduli.lift_path`.
    """
    return substitute_recursion(quater_recursion(variant), word_action(~w))
