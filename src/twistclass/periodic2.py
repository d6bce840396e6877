"""The preperiod-1 / period-2 family: recursions for the two rational maps
and the obstructed model map, the order-100 arithmetic classifier, and the
obstructed-index iterator."""

from __future__ import annotations

from dataclasses import dataclass

from .labels import (
    F_MINUS_I,
    FI,
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

# --- exact Gaussian-integer arithmetic ---------------------------------------


@dataclass(frozen=True)
class GaussInt:
    re: int
    im: int

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def times_i_power(self, k: int) -> "GaussInt":
        k &= 3
        if k == 0:
            return self
        if k == 1:
            return GaussInt(-self.im, self.re)
        if k == 2:
            return -self
        return GaussInt(self.im, -self.re)

    def divisible_by(self, other: "GaussInt") -> bool:
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian integer")
        z = self * other.conj()
        return z.re % n == 0 and z.im % n == 0

    def __str__(self) -> str:
        return f"{self.re}{self.im:+}i"


GI_ZERO = GaussInt(0, 0)
GI_ONE = GaussInt(1, 0)
GI_I = GaussInt(0, 1)


@dataclass(frozen=True)
class AffineMap:
    """z -> i^k z + c with exact Gaussian-integer translation part."""

    k: int
    c: GaussInt

    def __post_init__(self):
        object.__setattr__(self, "k", self.k & 3)

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(0, GI_ZERO)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self o other: ``other`` is applied first."""
        return AffineMap((self.k + other.k) & 3, self.c + other.c.times_i_power(self.k))

    def inverse(self) -> "AffineMap":
        k = (-self.k) & 3
        return AffineMap(k, -self.c.times_i_power(k))

    def __str__(self) -> str:
        return f"z -> i^{self.k} z + ({self.c})"


@dataclass(frozen=True)
class QElem:
    """Image in the order-100 quotient: rotation mod 4, translation mod 5."""

    k: int
    cre: int
    cim: int


def q_reduce(m: AffineMap) -> QElem:
    return QElem(m.k & 3, m.c.re % 5, m.c.im % 5)


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


def fstar_recursion() -> Recursion:
    """Recursion of the obstructed model map in this family."""
    table = {
        "alpha": WreathElem(~_AL, _AL, True),
        "beta": WreathElem(_AL, _GA),
        "gamma": WreathElem(_ONE, _GA * _BE * ~_GA),
    }
    return Recursion.make(PI1, table, ADDING_MACHINE)


def a_pi1_action() -> Endo:
    """Action of the twist ``a`` on the fundamental-group generators: the
    Dehn twist about the curve ``gamma^beta alpha``."""
    return dehn_twist((_GA.conjugate(_BE), _AL), 1)


def fstar_from_twist() -> Recursion:
    """The obstructed model rebuilt by post-twisting the rational recursion."""
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

_PI_A = AffineMap(2, GI_ONE)            # z -> -z + 1
_PI_B = AffineMap(1, GaussInt(1, -1))   # z -> iz + 1 - i
_PI_IMAGES = {
    ("a", 1): _PI_A,
    ("a", -1): _PI_A.inverse(),
    ("b", 1): _PI_B,
    ("b", -1): _PI_B.inverse(),
}


def _pi_step(k: int, m: AffineMap) -> tuple[int, int, int]:
    """Composing a product of rotation ``k`` on the right with ``m`` adds
    i^k times the translation of ``m`` and turns ``k`` into ``k + m.k``:
    the added translation's parts and the new rotation."""
    c = m.c.times_i_power(k)
    return c.re, c.im, (k + m.k) & 3


#: rotation so far -> letter -> :func:`_pi_step`
_PI_STEPS = [
    {letter: _pi_step(k, m) for letter, m in _PI_IMAGES.items()} for k in range(4)
]


def affine_image(w: GenWord) -> AffineMap:
    """Image of a twist word in the affine group, letters composed so that
    the rightmost letter acts first."""
    if w.alphabet != MODULI:
        raise ValueError("affine_image expects a word over the a,b alphabet")
    k = re = im = 0
    for letter in w.letters:
        dre, dim, k = _PI_STEPS[k][letter]
        re += dre
        im += dim
    return AffineMap(k, GaussInt(re, im))


def q_image(w: GenWord) -> QElem:
    """Image of a twist word in the order-100 quotient group."""
    return q_reduce(affine_image(w))


_C_SHIFT = GaussInt(-1, -1)  # c - i - 1, as a translation of c
_DIV_FI = GaussInt(2, 1)
_DIV_FMI = GaussInt(1, 2)


def classify_mod5(w: GenWord) -> ClassLabel:
    """Three-way label of the rational map post-twisted by ``w``.

    The obstructed label carries no index here; see
    :func:`obstructed_index` / :func:`classify_full` for that.
    """
    m = affine_image(w)
    shifted = m.c + _C_SHIFT
    if m.k == 0 and not shifted.divisible_by(_DIV_FI):
        return FI
    if m.k == 1 and not shifted.divisible_by(_DIV_FMI):
        return F_MINUS_I
    return obstructed()


# --- the obstructed-index iterator --------------------------------------------


def phi_bar(w: GenWord) -> GenWord:
    """One step of the obstructed-family iterator: the letter-1 coordinate
    map, with an ``a`` correction outside its domain."""
    return coordinate_step(_MODULI_REC, 1, _A, w)


def gx_trivial(w: GenWord, bound: int = 10000) -> bool:
    """Triviality of a twist word in the quotient by the iterated-recursion
    kernel, the group where obstructed twists are classified.

    Tree-action triviality is not enough here: the fourth twist power acts
    trivially on the tree but keeps non-trivial restriction words forever,
    and it is *not* trivial in this quotient (its order is infinite).
    """
    return is_kernel_element(_MODULI_REC, w, bound)


def gx_equal(w1: GenWord, w2: GenWord, bound: int = 10000) -> bool:
    """Equality of twist words in the obstructed-classification quotient."""
    return gx_trivial(w1 * ~w2, bound)


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
