"""Wreath-recursion evaluation over the binary alphabet X = {0, 1}.

Multiplication follows the two rules
``<g0,g1>.<h0,h1> = <g0 h0, g1 h1>`` and ``s.<g0,g1> = <g1,g0>.s``;
letter 0 is always the first coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .labels import AlphabetMismatch, ClassLabel, Diverged
from .words import Alphabet, Endo, GenWord, Letter


@dataclass(frozen=True)
class WreathElem:
    """Pair of coordinate words plus an activity bit (the swap sigma)."""

    c0: GenWord
    c1: GenWord
    active: bool = False

    def __post_init__(self):
        if self.c0.alphabet != self.c1.alphabet:
            raise AlphabetMismatch("coordinates over different alphabets")

    def __mul__(self, other: "WreathElem") -> "WreathElem":
        if self.active:
            return WreathElem(
                self.c0 * other.c1, self.c1 * other.c0, not other.active
            )
        return WreathElem(self.c0 * other.c0, self.c1 * other.c1, other.active)

    def __invert__(self) -> "WreathElem":
        if self.active:
            return WreathElem(~self.c1, ~self.c0, True)
        return WreathElem(~self.c0, ~self.c1, False)

    @property
    def is_identity(self) -> bool:
        return not self.active and self.c0.is_identity and self.c1.is_identity

    def __str__(self) -> str:
        return f"<{self.c0},{self.c1}>" + ("s" if self.active else "")


@dataclass(frozen=True)
class Recursion:
    """Finite table generator -> WreathElem, extended homomorphically.

    ``adding_machine`` designates a word mapping to <1, itself>.sigma when the
    recursion has one; it is validated at construction.
    """

    alphabet: Alphabet
    table: tuple[tuple[str, WreathElem], ...]
    adding_machine: GenWord | None = None

    def __post_init__(self):
        names = [n for n, _ in self.table]
        if names != list(self.alphabet.names):
            raise ValueError(
                f"table must list every generator once, in order: {names}"
            )
        for _, elem in self.table:
            if elem.c0.alphabet != self.alphabet:
                raise AlphabetMismatch("table entries over a different alphabet")
        # letter -> (coordinate letters of its image, activity bit), with
        # each coordinate paired with the letters that cancel it
        by_letter: dict[Letter, tuple[tuple[_Coord, _Coord], int]] = {}
        for name, elem in self.table:
            for sign, img in ((1, elem), (-1, ~elem)):
                by_letter[(name, sign)] = (
                    (_coord(img.c0), _coord(img.c1)), int(img.active)
                )
        object.__setattr__(self, "_by_letter", by_letter)
        if self.adding_machine is not None:
            img = phi_apply(self, self.adding_machine)
            want = WreathElem(
                self.alphabet.identity(), self.adding_machine, True
            )
            if img != want:
                raise ValueError(
                    f"adding machine {self.adding_machine} maps to {img}, "
                    f"expected {want}"
                )

    @classmethod
    def make(
        cls,
        alphabet: Alphabet,
        table: dict[str, WreathElem],
        adding_machine: GenWord | None = None,
    ) -> "Recursion":
        return cls(
            alphabet,
            tuple((n, table[n]) for n in alphabet.names),
            adding_machine,
        )


#: letters of a reduced coordinate word, and the inverse of each letter
_Coord = tuple[tuple[Letter, ...], tuple[Letter, ...]]


def _coord(w: GenWord) -> _Coord:
    return w.letters, tuple([(n, -s) for n, s in w.letters])


def _walk(
    table: dict[Letter, tuple[tuple[_Coord, _Coord], int]],
    letters: Iterable[Letter],
    x: int,
) -> tuple[list[Letter], int]:
    """Reduced letters of coordinate ``x`` of the image of a reduced word,
    and the activity of the image.

    Coordinate ``x`` of a product collects coordinate ``x ^ active`` of each
    factor, where ``active`` is the activity of the factors before it; the
    other coordinate is never built.  Each factor is reduced, so it cancels
    against the collected letters only at the seam.
    """
    out: list[Letter] = []
    active = 0
    for letter in letters:
        coords, bit = table[letter]
        seq, cancel = coords[x ^ active]
        active ^= bit
        if out and seq and out[-1] == cancel[0]:
            out.pop()
            k, m = 1, len(seq)
            while k < m and out and out[-1] == cancel[k]:
                out.pop()
                k += 1
            out += seq[k:]
        else:
            out += seq
    return out, active


def phi_apply(rec: Recursion, w: GenWord) -> WreathElem:
    """Image of ``w`` under the homomorphic extension of the table."""
    if w.alphabet != rec.alphabet:
        raise AlphabetMismatch("word is over a different alphabet")
    c0, active = _walk(rec._by_letter, w.letters, 0)
    c1, _ = _walk(rec._by_letter, w.letters, 1)
    return WreathElem(
        GenWord._trusted(rec.alphabet, tuple(c0)),
        GenWord._trusted(rec.alphabet, tuple(c1)),
        bool(active),
    )


def restrict(rec: Recursion, w: GenWord, v: str) -> GenWord:
    """Restriction w|_v at the vertex ``v`` (a word over '0'/'1')."""
    if w.alphabet != rec.alphabet:
        raise AlphabetMismatch("word is over a different alphabet")
    cur = w.letters
    for ch in v:
        cur, _ = _walk(rec._by_letter, cur, _bit(ch))
    return GenWord._trusted(rec.alphabet, tuple(cur))


def coordinate_step(rec: Recursion, x: int, correction: GenWord, w: GenWord) -> GenWord:
    """One step of a moduli iterator: ``w|_x``, the letter-``x`` coordinate
    of the image of ``w``, left-multiplied by ``correction`` when ``w`` is
    active, i.e. outside the index-2 domain of the coordinate map."""
    if w.alphabet != rec.alphabet:
        raise AlphabetMismatch("word is over a different alphabet")
    letters, active = _walk(rec._by_letter, w.letters, x)
    coord = GenWord._trusted(rec.alphabet, tuple(letters))
    return correction * coord if active else coord


#: default step budget of every orbit: a step about halves a twist word
#: (Nekrashevych, Self-Similar Groups, 2005, section 2.11), and no orbit from
#: seeded random words or twist powers at the 100,000-letter parse cap took
#: more than 24 steps
MAX_ITERS = 1024


def iterate_to_terminal(
    step: Callable[[GenWord], GenWord],
    stop: Callable[[GenWord], ClassLabel | None],
    w: GenWord,
    max_iters: int = MAX_ITERS,
) -> tuple[ClassLabel, GenWord, int]:
    """Iterate ``step`` from ``w`` until the stop test ``stop`` returns a
    label for the current word; return that label, the terminal word and
    the step count.

    ``stop`` returns ``None`` for a word that is not terminal.  A family
    with a terminal table passes the lookup of that table; the obstructed
    index tests whether the word is a power of ``b`` instead.  Exceptions
    raised by ``stop`` propagate.

    Raises Diverged when the orbit revisits a non-terminal word or when
    none of its first ``max_iters`` words is terminal, so an orbit that
    needs exactly ``max_iters`` steps gives up.
    """
    seen: set[GenWord] = set()
    cur = w
    for steps in range(max_iters):
        label = stop(cur)
        if label is not None:
            return label, cur, steps
        if cur in seen:
            raise Diverged(f"unexpected iterator cycle through {cur}")
        seen.add(cur)
        cur = step(cur)
    raise Diverged(f"no terminal value within {max_iters} iterations")


def act(rec: Recursion, w: GenWord, v: str) -> str:
    """Image of the vertex ``v`` under the tree automorphism defined by ``w``."""
    if w.alphabet != rec.alphabet:
        raise AlphabetMismatch("word is over a different alphabet")
    out = []
    cur = w.letters
    for ch in v:
        x = _bit(ch)
        cur, active = _walk(rec._by_letter, cur, x)
        out.append(str(x ^ active))
    return "".join(out)


def _bit(ch: str) -> int:
    if ch == "0":
        return 0
    if ch == "1":
        return 1
    raise ValueError(f"vertex letters must be '0' or '1', got {ch!r}")


def twist_recursion(base: Recursion, e_inv: Endo) -> Recursion:
    """Diagonal twist: every table entry gets ``e_inv`` applied to both
    coordinates.

    ``e_inv`` is the already-inverted twist action; invertibility is the
    caller's responsibility and is not checked here.
    """
    table = {
        name: WreathElem(e_inv(elem.c0), e_inv(elem.c1), elem.active)
        for name, elem in base.table
    }
    am = base.adding_machine
    if am is not None and e_inv(am) != am:
        am = None
    return Recursion.make(base.alphabet, table, am)


def substitute_recursion(base: Recursion, e: Endo) -> Recursion:
    """Recursion whose table sends each generator g to Phi_base(e(g)).

    This is the post-composition companion of :func:`twist_recursion`: it
    twists the argument instead of the coordinates.
    """
    table = {
        name: phi_apply(base, e(base.alphabet.gen(name)))
        for name in base.alphabet.names
    }
    am = base.adding_machine
    if am is not None and e(am) != am:
        am = None
    return Recursion.make(base.alphabet, table, am)
