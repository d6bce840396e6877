"""The preperiod-1 / period-2 family: recursions for the two rational maps
and the obstructed model map, the order-100 arithmetic classifier, and the
obstructed-index iterator."""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .labels import (
    F_MINUS_I,
    FI,
    AlphabetMismatch,
    BoundExceeded,
    ClassLabel,
    obstructed,
)
from .words import AB, PI1, Endo, GenWord, dehn_twist
from .wreath import (
    Recursion,
    WreathElem,
    coordinate_step,
    iterate_to_terminal,
    substitute_recursion,
)
from .selfsim import is_kernel_element

# --- the affine group, in exact integer arithmetic ----------------------------


def _rotate(k: int, re: int, im: int) -> tuple[int, int]:
    """The parts of i^k (re + im i)."""
    for _ in range(k & 3):
        re, im = -im, re
    return re, im


@dataclass(frozen=True)
class AffineMap:
    """z -> i^k z + (re + im i), with exact integer translation parts."""

    k: int
    re: int
    im: int

    def __post_init__(self):
        object.__setattr__(self, "k", self.k & 3)

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(0, 0, 0)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self o other: ``other`` is applied first."""
        re, im = _rotate(self.k, other.re, other.im)
        return AffineMap(self.k + other.k, self.re + re, self.im + im)

    def inverse(self) -> "AffineMap":
        re, im = _rotate(-self.k, self.re, self.im)
        return AffineMap(-self.k, -re, -im)


# --- alphabets and recursions -------------------------------------------------

MODULI = AB

_AL, _BE, _GA = PI1.gens()
_A, _B = MODULI.gens()
_ONE = PI1.identity()
_MONE = MODULI.identity()

ADDING_MACHINE = _GA * _BE * _AL


def fi_recursion() -> Recursion:
    """Recursion of the quadratic map with fixed ramification and period-2
    tail, normalized form z^2 + i."""
    table = {
        "alpha": WreathElem(~_AL * ~_BE, _BE * _AL, True),
        "beta": WreathElem(_AL, _GA),
        "gamma": WreathElem(_BE, _ONE),
    }
    return Recursion.make(PI1, table, ADDING_MACHINE)


def a_pi1_action() -> Endo:
    """Action of the twist ``a`` on the fundamental-group generators: the
    Dehn twist about the curve ``gamma^beta alpha``."""
    return dehn_twist((_GA.conjugate(_BE), _AL), 1)


def fstar_recursion() -> Recursion:
    """Recursion of the obstructed model map in this family: the rational
    recursion post-twisted by ``a``."""
    return substitute_recursion(fi_recursion(), a_pi1_action())


def moduli_i_recursion() -> Recursion:
    """Moduli-space recursion of this family on the two twist generators."""
    one = _MONE
    return Recursion.make(MODULI, {
        "a": WreathElem(one, one, True),
        "b": WreathElem(~_B * ~_A, _B),
    })


_MODULI_REC = moduli_i_recursion()


# --- the arithmetic classifier ------------------------------------------------

_PI_A = AffineMap(2, 1, 0)    # z -> -z + 1
_PI_B = AffineMap(1, 1, -1)   # z -> iz + 1 - i
_PI_IMAGES = {
    ("a", 1): _PI_A,
    ("a", -1): _PI_A.inverse(),
    ("b", 1): _PI_B,
    ("b", -1): _PI_B.inverse(),
}

#: rotation so far -> letter -> (new rotation, added real part, added
#: imaginary part): the rotation composed with the letter's image
_PI_STEPS = [
    {letter: astuple(AffineMap(k, 0, 0).compose(m)) for letter, m in _PI_IMAGES.items()}
    for k in range(4)
]


def affine_image(w: GenWord) -> AffineMap:
    """Image of a twist word in the affine group, letters composed so that
    the rightmost letter acts first."""
    if w.alphabet != MODULI:
        raise AlphabetMismatch("affine_image expects a word over the a,b alphabet")
    k = re = im = 0
    for letter in w.letters:
        k, dre, dim = _PI_STEPS[k][letter]
        re += dre
        im += dim
    return AffineMap(k, re, im)


def q_image(w: GenWord) -> tuple[int, int, int]:
    """Image of a twist word in the order-100 quotient group: the rotation
    mod 4 and the translation parts mod 5."""
    m = affine_image(w)
    return m.k, m.re % 5, m.im % 5


def classify_mod5(w: GenWord) -> ClassLabel:
    """Three-way label of the rational map post-twisted by ``w``.

    The twist's affine image ``z -> i^k z + c`` decides it: ``f_i`` when
    k = 0 and 2+i does not divide c - 1 - i, ``f_-i`` when k = 1 and 1+2i
    does not divide it, obstructed otherwise.  Both divisors are primes of
    norm 5, so each quotient of Z[i] by one of them is the field of 5
    elements: 2+i = 0 there sends i to -2 = 3, and 1+2i = 0 sends i to
    -1/2 = 2.  The ring maps x + yi -> x - 2y and x + yi -> x + 2y (mod 5)
    therefore have kernels (2+i) and (1+2i).  With x + yi = c - 1 - i,
    divisibility by 2+i is x - 2y = 0 mod 5, by 1+2i x + 2y = 0 mod 5.

    The obstructed label carries no index here; see
    :func:`obstructed_index` / :func:`classify_full` for that.
    """
    m = affine_image(w)
    x, y = m.re - 1, m.im - 1
    if m.k == 0 and (x - 2 * y) % 5 != 0:
        return FI
    if m.k == 1 and (x + 2 * y) % 5 != 0:
        return F_MINUS_I
    return obstructed()


# --- the obstructed-index iterator --------------------------------------------


def phi_bar(w: GenWord) -> GenWord:
    """One step of the obstructed-family iterator: the letter-1 coordinate
    map, with an ``a`` correction outside its domain."""
    return coordinate_step(_MODULI_REC, 1, _A, w)


def gx_trivial(w: GenWord) -> bool:
    """Triviality of a twist word in the quotient by the iterated-recursion
    kernel, the group where obstructed twists are classified.

    Tree-action triviality is not enough here: the fourth twist power acts
    trivially on the tree but keeps non-trivial restriction words forever,
    and it is *not* trivial in this quotient (its order is infinite).
    """
    return is_kernel_element(_MODULI_REC, w)


def gx_equal(w1: GenWord, w2: GenWord) -> bool:
    """Equality of twist words in the obstructed-classification quotient."""
    return gx_trivial(w1 * ~w2)


def _pure_b_exponent(w: GenWord) -> int | None:
    if all(n == "b" for n, _ in w.letters):
        return w.exponent_sum("b")
    return None


def obstructed_index(w: GenWord, k_max: int = 64, iter_max: int = 256) -> int:
    """Index n of the obstructed class: the iterator orbit of ``w`` reaches
    the word ``b^n``.

    The orbit runs on the shared loop, ``wreath.iterate_to_terminal``, so
    it follows the same budget and gives up at its first revisit.  Its
    stop test is literal, and exact:

    - ``phi_bar`` fixes every ``b^n``: ``b -> <b' a', b>`` is inactive, so
      ``b^n|_1 = b^n``.
    - If ``cur = b^n k`` with ``k`` in the kernel K of the iterated
      recursion (:func:`gx_equal`), then ``cur`` is inactive and
      ``phi_bar(cur) = b^n k|_1`` with ``k|_1`` in K.  The orbit becomes
      the word ``b^n`` once the restrictions of ``k`` die, depth(k) steps
      later.
    - ``b^m = b^n`` mod K forces ``m = n``: ``b^k|_1 = b^k`` never dies.

    So the index is that of the first orbit word equal to ``b^n`` mod K;
    the literal test costs up to depth(k) extra steps of the budget.
    """

    def b_power(cur: GenWord) -> ClassLabel | None:
        exp = _pure_b_exponent(cur)
        if exp is None:
            return None
        if abs(exp) > k_max:
            raise BoundExceeded(
                f"orbit landed on a b-power of exponent {exp}, beyond k_max={k_max}"
            )
        return obstructed(exp)

    return iterate_to_terminal(phi_bar, b_power, w, iter_max)[0].index


def classify_full(
    w: GenWord, k_max: int = 64, iter_max: int = 256, bound: int = 10000
) -> ClassLabel:
    """Complete classification: the three-way split, with the obstructed
    index attached by rewriting the input against the obstructed model.

    ``bound`` is accepted and not read, for callers that still pass it (the
    benchmark workloads do): the obstructed index runs no word problem.
    """
    label = classify_mod5(w)
    if label.kind != "obstructed":
        return label
    return obstructed(obstructed_index(~_A * w, k_max, iter_max))
