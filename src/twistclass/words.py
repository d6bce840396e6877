"""Free-group words over named generator alphabets.

Words are stored freely reduced, so equality of group elements is plain
sequence equality.  Conjugation follows the right-action convention
``w^h = h^-1 w h``.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable

from .labels import AlphabetMismatch, WordParseError

Letter = tuple[str, int]


def _reduce(
    letters: Iterable[Letter], out: list[Letter] | None = None
) -> tuple[Letter, ...]:
    # reduces ``letters`` onto ``out``, whose letters are reduced already
    out = [] if out is None else out
    for name, sign in letters:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def _core_span(letters: tuple[Letter, ...]) -> tuple[int, int]:
    """Bounds ``i, j`` of the cyclically reduced core ``letters[i:j]`` of a
    reduced word, which is ``letters[:i] + core + letters[j:]`` with the
    outer parts inverse to each other."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i][0] == letters[j - 1][0] and (
        letters[i][1] == -letters[j - 1][1]
    ):
        i += 1
        j -= 1
    return i, j


def _check_letters(alphabet: "Alphabet", letters: tuple[Letter, ...]) -> None:
    try:
        if alphabet._letters.issuperset(letters):
            return
    except TypeError:  # an unhashable letter; the loop below names it
        pass
    for name, sign in letters:
        if name not in alphabet:
            raise AlphabetMismatch(f"{name!r} is not a generator of {alphabet.names}")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {sign}")


def _inverse(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return tuple([(n, -s) for n, s in reversed(letters)])


def _power_length(letters: tuple[Letter, ...], n: int) -> int:
    """Length of the ``n``-th power (``n != 0``) of a reduced word: the
    cyclic core repeats, the conjugating ends appear once."""
    i, j = _core_span(letters)
    return len(letters) + (abs(n) - 1) * (j - i)


@dataclass(frozen=True)
class Alphabet:
    """Immutable set of generator names; the unit of compatibility checks."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate generator names: {self.names}")
        for name in self.names:
            if not name or not name.replace("_", "").isalnum() or name[0].isdigit():
                raise ValueError(f"invalid generator name: {name!r}")
        # letter -> its text, as str() spells it; the keys are the letters
        # of the alphabet
        spelling = {}
        for name in self.names:
            spelling[name, 1], spelling[name, -1] = name, name + "'"
        object.__setattr__(self, "_spelling", spelling)
        object.__setattr__(self, "_letters", frozenset(spelling))

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def identity(self) -> "GenWord":
        return GenWord._trusted(self, ())

    def gen(self, name: str, sign: int = 1) -> "GenWord":
        letters = ((name, sign),)
        _check_letters(self, letters)
        return GenWord._trusted(self, letters)

    def gens(self) -> list["GenWord"]:
        return [self.gen(name) for name in self.names]

    def word(self, letters: Iterable[Letter]) -> "GenWord":
        reduced = _reduce(letters)
        _check_letters(self, reduced)
        return GenWord._trusted(self, reduced)

    def parse(self, text: str) -> "GenWord":
        return _parse(self, text)


@dataclass(frozen=True)
class GenWord:
    """Freely reduced word; the empty sequence is the identity."""

    alphabet: Alphabet
    letters: tuple[Letter, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_letters(self.alphabet, self.letters)
        if self.letters != _reduce(self.letters):
            raise ValueError(f"letters are not freely reduced: {self.letters}")
        object.__setattr__(self, "_hash", hash((self.alphabet.names, self.letters)))

    @classmethod
    def _trusted(cls, alphabet: Alphabet, letters: tuple[Letter, ...]) -> "GenWord":
        """Word from letters the caller knows are reduced and in ``alphabet``;
        nothing is checked."""
        w = object.__new__(cls)
        w.__dict__.update(
            alphabet=alphabet,
            letters=letters,
            _hash=hash((alphabet.names, letters)),
        )
        return w

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def _check(self, other: "GenWord") -> None:
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"mixed alphabets: {self.alphabet.names} vs {other.alphabet.names}"
            )

    def __mul__(self, other: "GenWord") -> "GenWord":
        self._check(other)
        left, right = self.letters, other.letters
        if not left:
            return other
        if not right:
            return self
        # both operands are reduced, so letters cancel only at the seam
        i, j, n = len(left), 0, len(right)
        while i and j < n and left[i - 1][0] == right[j][0] and (
            left[i - 1][1] == -right[j][1]
        ):
            i -= 1
            j += 1
        return GenWord._trusted(self.alphabet, left[:i] + right[j:])

    def __invert__(self) -> "GenWord":
        return GenWord._trusted(self.alphabet, _inverse(self.letters))

    def __pow__(self, n: int) -> "GenWord":
        # w = u c u^-1 with c cyclically reduced, so w^n = u c^n u^-1 needs
        # no further reduction
        letters = self.letters if n >= 0 else _inverse(self.letters)
        if n == 0 or not letters:
            return GenWord._trusted(self.alphabet, ())
        i, j = _core_span(letters)
        return GenWord._trusted(
            self.alphabet, letters[:i] + letters[i:j] * abs(n) + letters[j:]
        )

    def conjugate(self, h: "GenWord") -> "GenWord":
        """Return ``h^-1 * self * h`` reduced."""
        self._check(h)
        return ~h * self * h

    def exponent_sum(self, name: str) -> int:
        return sum(s for n, s in self.letters if n == name)

    def sort_key(self) -> tuple:
        order = {n: i for i, n in enumerate(self.alphabet.names)}
        return (
            len(self.letters),
            tuple((order[n], 0 if s > 0 else 1) for n, s in self.letters),
        )

    def __str__(self) -> str:
        # a word the parser read from its own spelling keeps that text
        text = self.__dict__.get("_text")
        if text is not None:
            return text
        if not self.letters:
            return "1"
        return " ".join(map(self.alphabet._spelling.__getitem__, self.letters))

    def __repr__(self) -> str:
        return f"GenWord({self})"


@dataclass(frozen=True)
class Endo:
    """Endomorphism given by generator images; inverse letters map to
    inverted images."""

    alphabet: Alphabet
    images: tuple[tuple[str, GenWord], ...]

    def __post_init__(self):
        given = {name for name, _ in self.images}
        if given != set(self.alphabet.names):
            raise ValueError(
                f"images must cover the alphabet exactly: {sorted(given)}"
            )
        for _, img in self.images:
            if img.alphabet != self.alphabet:
                raise AlphabetMismatch("image words must stay in the same alphabet")
        # letter -> image letters, for __call__
        by_letter: dict[Letter, tuple[Letter, ...]] = {}
        for name, img in self.images:
            by_letter[(name, 1)] = img.letters
            by_letter[(name, -1)] = _inverse(img.letters)
        object.__setattr__(self, "_by_letter", by_letter)

    @classmethod
    def make(cls, alphabet: Alphabet, images: dict[str, GenWord]) -> "Endo":
        return cls(alphabet, tuple((n, images[n]) for n in alphabet.names))

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Endo":
        return cls.make(alphabet, {n: alphabet.gen(n) for n in alphabet.names})

    def __call__(self, w: GenWord) -> GenWord:
        if w.alphabet is not self.alphabet and w.alphabet != self.alphabet:
            raise AlphabetMismatch("word is over a different alphabet")
        table = self._by_letter
        return GenWord._trusted(
            self.alphabet, _reduce(x for letter in w.letters for x in table[letter])
        )

    def then(self, other: "Endo") -> "Endo":
        """Composite applying ``self`` first, then ``other``."""
        if other.alphabet is not self.alphabet and other.alphabet != self.alphabet:
            raise AlphabetMismatch("cannot compose endos over different alphabets")
        return Endo(
            self.alphabet, tuple((n, other(img)) for n, img in self.images)
        )


def dehn_twist(loops: Iterable[GenWord], power: int) -> Endo:
    """Action of the ``power``-th Dehn twist about the curve whose word ``c``
    is the product of ``loops`` (Farb-Margalit, *A Primer on Mapping Class
    Groups*, section 3.4).

    Each loop is ``h x h^-1`` for a single letter ``x``; the generator of
    ``x`` goes to its conjugate by ``h^-1 c^power h``, and every other
    generator is fixed.
    """
    loops = tuple(loops)
    if not loops:
        raise ValueError("a twist curve needs at least one loop")
    alphabet = loops[0].alphabet
    c = alphabet.identity()
    for loop in loops:
        c = c * loop
    images = {name: alphabet.gen(name) for name in alphabet.names}
    for loop in loops:
        k, letters = len(loop) // 2, loop.letters
        if len(loop) % 2 == 0 or letters[:k] != _inverse(letters[k + 1:]):
            raise ValueError(f"loop {loop} is not h x h^-1 for a single letter x")
        h = GenWord._trusted(alphabet, letters[:k])
        name = letters[k][0]
        images[name] = alphabet.gen(name).conjugate(~h * c ** power * h)
    return Endo.make(alphabet, images)


def twist_action(curves: dict[str, tuple[GenWord, ...]], hand: int, w: GenWord) -> Endo:
    """Action of a word of Dehn twists, letters applied left to right: the
    letter ``name`` is the ``hand``-th power twist about the curve of the
    loops ``curves[name]`` (:func:`dehn_twist`), its inverse the ``-hand``-th."""
    if set(w.alphabet.names) != curves.keys():
        raise AlphabetMismatch(f"expected a word over {tuple(curves)}: {w}")
    out = Endo.identity(next(iter(curves.values()))[0].alphabet)
    for name, sign in w.letters:
        out = out.then(dehn_twist(curves[name], sign * hand))
    return out


#: the fundamental group of the plane minus the three post-critical points,
#: shared by every family
PI1 = Alphabet(("alpha", "beta", "gamma"))

#: the mapping-class generators of the period-3 family (Dehn twists T, S)
MCG = Alphabet(("T", "S"))

#: the moduli generators a, b of the two preperiodic families
AB = Alphabet(("a", "b"))


# --- word grammar -----------------------------------------------------------
#
# word   := factor*     juxtaposition or whitespace concatenates, left to right
# factor := atom ("'" | "^" ["+" | "-"] DIGITS)*    inverse, power; left to right
# atom   := NAME | "1" | "(" word ")"
#
# NAME is a generator name, the longest that matches; "1" is the identity;
# DIGITS are one or more ASCII 0-9.
#
# A text of letters apart, with no "(", ")" or "^" and each whitespace-
# separated piece a letter's spelling "N" or "N'" (the form str() prints),
# skips the tokenizer: it is split at whitespace and each piece looked up.
# The tokenizer reads the same letters from it, since a piece that spells a
# letter leaves the longest-name rule nothing to choose, so both give one
# word.  Such a word with no cancellation keeps the text single-spaced as
# its str().  Every other text goes through the tokenizer.
#
# The tokenizer reads a run of letters (names, each with its apostrophes,
# joined by juxtaposition or whitespace) as one token.  The parser takes a
# run's letters in one step and keeps only the last open, so a "^k" or "'"
# after the run still binds to that letter alone.

#: most letters a parsed word may expand to, counted before free reduction
#: across the factors of one parenthesis level and exactly for a power
MAX_WORD_LENGTH = 100_000
#: deepest parenthesis nesting a word may have
MAX_NESTING_DEPTH = 100


class _Letters(dict):
    """Letter text -> letter, holding the spellings "T" and "T'" of every
    name; any other spelling ("T''", "T '") is read by its apostrophe
    parity and not kept."""

    def __missing__(self, text: str) -> Letter:
        return text.partition("'")[0].rstrip(), (-1) ** text.count("'")


@functools.cache
def _token_pattern(
    names: tuple[str, ...],
) -> tuple[
    re.Pattern[str], re.Pattern[str], _Letters, dict[Letter, Letter], tuple[str, ...]
]:
    """The token pattern of an alphabet, with the letter pattern and the
    letter table that read a run, the inverse of each letter, and the
    cancellations of a single-spaced spelling, " N N' " and " N' N " for
    each name N.

    A token follows whitespace and is a run of letters, a '^' with its
    exponent, or any other single character.  A letter is a generator name
    N (longest first) with its apostrophes, ``N(?:\\s*')*``, so a run,
    letters joined by juxtaposition or whitespace, is ``N(?:\\s*(?:N|'))*``.
    That is a plain greedy repeat with nothing after it, so it never
    backtracks into a shorter name: over names ("a", "ab", "b") the text
    "ab" is the single letter ab, as the longest-name rule says, where a
    pattern that captures the last letter apart, ``((?:L\\s*)*)(L)`` for a
    letter L, backtracks and reads a b.  A run holds at most
    MAX_WORD_LENGTH + 1 names and apostrophes, so the parser's work before
    it refuses a word past the cap is bounded by the cap, not by the text.
    A cut between a name and its apostrophes leaves them to the "'" tokens
    that follow, which invert the letter the cut run keeps open.  Exponent
    digits are ASCII only: ``\\d`` also admits '²', which int() refuses."""
    alternatives = "|".join(map(re.escape, sorted(names, key=len, reverse=True)))
    table = _Letters()
    # keyed by the table's own letters, which most parsed letters are
    inverse: dict[Letter, Letter] = {}
    for name in names:
        table[name], table[name + "'"] = up, down = (name, 1), (name, -1)
        inverse[up], inverse[down] = down, up
    run = rf"(?:{alternatives})(?:\s*(?:{alternatives}|')){{0,{MAX_WORD_LENGTH}}}"
    return (
        re.compile(rf"\s*(?:({run})|(\^[+-]?[0-9]*)|(\S))"),
        re.compile(rf"(?:{alternatives})(?:\s*')*"),
        table,
        inverse,
        tuple(f" {a} {b} " for n in names for a, b in ((n, n + "'"), (n + "'", n))),
    )


def _read_spelled(text: str, table: _Letters) -> tuple[list[Letter], str] | None:
    """The letters of a text with no '(', ')' or '^', and its single-spaced
    spelling, when it has at most MAX_WORD_LENGTH whitespace-separated
    pieces, each a letter's spelling; None for any other such text."""
    # one split past the cap leaves the rest of the text in one piece, so a
    # longer text costs no more pieces; the tokenizer then names the letter
    # that crossed the cap
    pieces = text.split(None, MAX_WORD_LENGTH)
    if len(pieces) > MAX_WORD_LENGTH:
        return None
    letters = list(map(table.get, pieces))
    if None in letters:
        return None
    return letters, " ".join(pieces)


def _parse(alphabet: Alphabet, text: str) -> GenWord:
    tokens, letter, table, inverse, cancels = _token_pattern(alphabet.names)
    plain = None
    if "(" not in text and ")" not in text and "^" not in text:
        plain = _read_spelled(text, table)
    if plain is not None:
        # letters apart cancel exactly where the single-spaced spelling
        # holds " N N' " or " N' N "; without one it is the word's str()
        letters, spelling = plain
        if any(map(f" {spelling} ".__contains__, cancels)):
            return _reduced(alphabet, letters, inverse)
        w = GenWord._trusted(alphabet, tuple(letters))
        w.__dict__["_text"] = spelling or "1"
        return w
    # the letters of the open parenthesis level, reduced once when it closes
    # (not a product per factor, which keeps long words linear); the
    # enclosing levels wait on the stack with the position of their '('
    stack: list[tuple[list[Letter], int]] = []
    letters: list[Letter] = []
    # the reduced letters of the level's last factor and its start, kept
    # apart while "'" and "^k" may still change them
    factor: tuple[Letter, ...] | None = None
    factor_at = 0
    for m in tokens.finditer(text):
        run, power, other = m.groups()
        at = m.start(m.lastindex)
        if power is not None:
            digits = power[1:].lstrip("+-")
            if not digits:
                raise WordParseError("'^' must be followed by an integer", at)
            # an exponent with more digits than the length cap exceeds it on
            # any letter; int() is slow on (or refuses) long digit strings
            if len(digits.lstrip("0")) > len(str(MAX_WORD_LENGTH)):
                raise WordParseError(
                    f"exponent exceeds the {MAX_WORD_LENGTH}-letter cap", at
                )
            if factor is None:
                raise WordParseError(f"unexpected {power!r}", at)
            n = int(power[1:])
            if n and _power_length(factor, n) > MAX_WORD_LENGTH:
                raise WordParseError(
                    f"power expands past {MAX_WORD_LENGTH} letters", at
                )
            factor = (GenWord._trusted(alphabet, factor) ** n).letters
            continue
        if other == "'":
            if factor is None:
                raise WordParseError(f"unexpected {other!r}", at)
            factor = _inverse(factor)
            continue
        # any other token ends the factor before it
        if factor is not None:
            letters += factor
            if len(letters) > MAX_WORD_LENGTH:
                raise WordParseError(
                    f"word expands past {MAX_WORD_LENGTH} letters", factor_at
                )
            factor = None
        if run is not None:
            end = m.end(1)
            # most runs are letters apart, as str() spells a word, and split
            # at whitespace; juxtaposed letters, or an apostrophe apart from
            # its name, leave a piece the table lacks, and then the letter
            # pattern splits the run
            spelled = text[at:end].split()
            closed = list(map(table.get, spelled))
            if None in closed:
                spelled = letter.findall(text, at, end)
                closed = list(map(table.__getitem__, spelled))
            factor, factor_at = (closed.pop(),), end - len(spelled[-1])
            letters += closed
            if len(letters) > MAX_WORD_LENGTH:
                # the run's letter that crossed the cap, located only now
                k = len(closed) - (len(letters) - MAX_WORD_LENGTH)
                crossed = list(letter.finditer(text, at, end))[k]
                raise WordParseError(
                    f"word expands past {MAX_WORD_LENGTH} letters", crossed.start()
                )
        elif other == "1":
            factor, factor_at = (), at
        elif other == "(":
            if len(stack) == MAX_NESTING_DEPTH:
                raise WordParseError(
                    f"parentheses nest deeper than {MAX_NESTING_DEPTH}", at
                )
            stack.append((letters, at))
            letters = []
        elif other == ")":
            if not stack:
                raise WordParseError("unbalanced ')'", at)
            factor = _reduce(letters)
            letters, factor_at = stack.pop()
        else:
            raise WordParseError(f"unexpected token {other!r}", at)
    if stack:
        raise WordParseError("unbalanced '('", stack[-1][1])
    if factor is not None:
        letters += factor
        if len(letters) > MAX_WORD_LENGTH:
            raise WordParseError(
                f"word expands past {MAX_WORD_LENGTH} letters", factor_at
            )
    return _reduced(alphabet, letters, inverse)


def _reduced(
    alphabet: Alphabet, letters: list[Letter], inverse: dict[Letter, Letter]
) -> GenWord:
    """The word of the parsed ``letters``, freely reduced."""
    # a C-level scan finds the first letter followed by its inverse; the
    # letters before it are reduced, so the reducing loop starts there
    try:
        i = operator.indexOf(
            map(operator.eq, letters[1:], map(inverse.__getitem__, letters)), True
        )
    except ValueError:
        return GenWord._trusted(alphabet, tuple(letters))
    return GenWord._trusted(alphabet, _reduce(letters[i:], letters[:i]))
