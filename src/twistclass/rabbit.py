"""The period-3 quadratic family: rabbit/corabbit/airplane recursions, the
mapping-class iterator, and the twist-power classifiers."""

from __future__ import annotations

from .labels import AIRPLANE, CORABBIT, RABBIT, ClassLabel
from .words import MCG, PI1, Endo, GenWord, twist_action
from .wreath import (
    MAX_ITERS,
    Recursion,
    WreathElem,
    coordinate_step,
    iterate_to_terminal,
    twist_recursion,
)

_AL, _BE, _GA = PI1.gens()
_T, _S = MCG.gens()
_ONE = PI1.identity()

#: the image of the circle at infinity; every recursion in this family sends
#: it to <1, itself>.sigma
ADDING_MACHINE = _GA * _BE * _AL

VARIANTS = {"R": RABBIT, "A": AIRPLANE, "C": CORABBIT}


def rabbit_recursion(variant: str = "R") -> Recursion:
    """Built-in recursion for one of the three period-3 polynomials."""
    if variant == "R":
        table = {
            "alpha": WreathElem(~_AL * ~_BE, _GA * _BE * _AL, True),
            "beta": WreathElem(_AL, _ONE),
            "gamma": WreathElem(_BE, _ONE),
        }
    elif variant == "A":
        table = {
            "alpha": WreathElem(~_AL, _GA * _AL, True),
            "beta": WreathElem(_AL, _ONE),
            "gamma": WreathElem(_ONE, _BE.conjugate(~_GA)),
        }
    elif variant == "C":
        table = {
            "alpha": WreathElem(~_AL * ~_BE, _GA * _BE * _AL, True),
            "beta": WreathElem(_AL.conjugate(_BE * _AL), _ONE),
            "gamma": WreathElem(_BE.conjugate(_AL), _ONE),
        }
    else:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {variant!r}")
    return Recursion.make(PI1, table, ADDING_MACHINE)


#: the twists T and S as loops whose product is their curve: T twists about
#: the curve around the first two punctures, S about the last two
TWIST_CURVES = {"T": (_BE, _AL), "S": (_GA, _BE)}


def mcg_word_action(w: GenWord) -> Endo:
    """Action of a mapping-class word on the fundamental group, letters
    applied left to right."""
    return twist_action(TWIST_CURVES, 1, w)


def twisted_rabbit_recursion(m: int) -> Recursion:
    """Recursion of the rabbit pre-twisted by the m-th power of T."""
    return twisted_mcg_recursion(_T ** m)


def twisted_mcg_recursion(g: GenWord) -> Recursion:
    """Recursion of the rabbit pre-twisted by an arbitrary mapping-class
    word: the diagonal twist by the inverse word's action (associative in
    ``g``, since the diagonal action composes cleanly)."""
    return twist_recursion(rabbit_recursion("R"), mcg_word_action(~g))


def mcg_recursion() -> Recursion:
    """Wreath recursion of the mapping-class group carrying the iterator."""
    one = MCG.identity()
    return Recursion.make(MCG, {
        "T": WreathElem(one, ~_S * ~_T, True),
        "S": WreathElem(_T, one),
    })


_MCG_REC = mcg_recursion()


def psi_bar(w: GenWord) -> GenWord:
    """One classification step on the mapping-class group.

    Reads the first coordinate of the recursion image, with a T correction
    when the element is active (i.e. outside the liftable subgroup).
    """
    return coordinate_step(_MCG_REC, 0, _T, w)


#: the corabbit attractor: the iterator 3-cycle through the inverse twist
CORABBIT_CYCLE = frozenset({~_T, _T * _T * _S, ~_S})

#: terminal values of the iterator and the class each one names
TERMINAL_LABELS: tuple[tuple[frozenset[GenWord], ClassLabel], ...] = (
    (frozenset({MCG.identity()}), RABBIT),
    (frozenset({_T}), AIRPLANE),
    (CORABBIT_CYCLE, CORABBIT),
)

#: stop test of the orbit loop: the label of a terminal word, else None
terminal_label = {t: label for ts, label in TERMINAL_LABELS for t in ts}.get


def classify_mcg(w: GenWord, max_iters: int = MAX_ITERS) -> ClassLabel:
    """Label of the rabbit twisted by an arbitrary mapping-class word.

    Iterates :func:`psi_bar` until the orbit hits the identity (rabbit), T
    (airplane) or the known 3-cycle (corabbit); any other revisited value
    means a bug, reported as Diverged.
    """
    return iterate_to_terminal(psi_bar, terminal_label, w, max_iters)[0]


def four_adic_digits(m: int) -> list[int]:
    """Base-4 digits of m, least significant first, stopping once the
    remainder is the constant tail (0 for m >= 0, -1 for m < 0)."""
    digits = []
    while True:
        digits.append(m % 4)
        m //= 4
        if m in (0, -1):
            return digits


def classify_twist_power(m: int) -> ClassLabel:
    """Arithmetic label of the rabbit twisted by T^m, via base-4 digits."""
    if m == 0:
        return RABBIT
    if any(d in (1, 2) for d in four_adic_digits(m)):
        return AIRPLANE
    return RABBIT if m >= 0 else CORABBIT


def classify_st_power(m: int) -> ClassLabel:
    """Label of the rabbit twisted by (ST)^m, by iteration."""
    return classify_mcg((_S * _T) ** m)
