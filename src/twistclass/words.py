"""Free-group words over named generator alphabets.

Words are stored freely reduced, so equality of group elements is plain
sequence equality.  Conjugation follows the right-action convention
``w^h = h^-1 w h``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .labels import AlphabetMismatch, WordParseError

Letter = tuple[str, int]


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for name, sign in letters:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


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

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def identity(self) -> "GenWord":
        return GenWord(self, ())

    def gen(self, name: str, sign: int = 1) -> "GenWord":
        if name not in self.names:
            raise AlphabetMismatch(f"{name!r} is not a generator of {self.names}")
        return GenWord(self, ((name, sign),))

    def gens(self) -> list["GenWord"]:
        return [self.gen(name) for name in self.names]

    def word(self, letters: Iterable[Letter]) -> "GenWord":
        return GenWord(self, _reduce(letters))

    def parse(self, text: str) -> "GenWord":
        return _parse(self, text)


@dataclass(frozen=True)
class GenWord:
    """Freely reduced word; the empty sequence is the identity."""

    alphabet: Alphabet
    letters: tuple[Letter, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, sign in self.letters:
            if name not in self.alphabet:
                raise AlphabetMismatch(
                    f"{name!r} is not a generator of {self.alphabet.names}"
                )
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {sign}")
        if self.letters != _reduce(self.letters):
            raise ValueError(f"letters are not freely reduced: {self.letters}")
        object.__setattr__(self, "_hash", hash((self.alphabet.names, self.letters)))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def _check(self, other: "GenWord") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"mixed alphabets: {self.alphabet.names} vs {other.alphabet.names}"
            )

    def __mul__(self, other: "GenWord") -> "GenWord":
        self._check(other)
        return GenWord(self.alphabet, _reduce(self.letters + other.letters))

    def __invert__(self) -> "GenWord":
        return GenWord(
            self.alphabet, tuple((n, -s) for n, s in reversed(self.letters))
        )

    def __pow__(self, n: int) -> "GenWord":
        base = self if n >= 0 else ~self
        return GenWord(self.alphabet, _reduce(base.letters * abs(n)))

    def conjugate(self, h: "GenWord") -> "GenWord":
        """Return ``h^-1 * self * h`` reduced."""
        self._check(h)
        return ~h * self * h

    def exponent_sum(self, name: str) -> int:
        return sum(s for n, s in self.letters if n == name)

    def letter_count(self, name: str) -> int:
        return sum(1 for n, _ in self.letters if n == name)

    def sort_key(self) -> tuple:
        order = {n: i for i, n in enumerate(self.alphabet.names)}
        return (
            len(self.letters),
            tuple((order[n], 0 if s > 0 else 1) for n, s in self.letters),
        )

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(n if s > 0 else n + "'" for n, s in self.letters)

    def __repr__(self) -> str:
        return f"GenWord({self})"


def reduce_word(alphabet: Alphabet, letters: Iterable[Letter]) -> GenWord:
    """Freely reduce a raw letter sequence into a canonical word."""
    return alphabet.word(letters)


def conjugate(w: GenWord, h: GenWord) -> GenWord:
    return w.conjugate(h)


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

    @classmethod
    def make(cls, alphabet: Alphabet, images: dict[str, GenWord]) -> "Endo":
        return cls(alphabet, tuple((n, images[n]) for n in alphabet.names))

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Endo":
        return cls.make(alphabet, {n: alphabet.gen(n) for n in alphabet.names})

    def image(self, name: str) -> GenWord:
        for n, img in self.images:
            if n == name:
                return img
        raise AlphabetMismatch(f"{name!r} has no image")

    def __call__(self, w: GenWord) -> GenWord:
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("word is over a different alphabet")
        out: list[Letter] = []
        for name, sign in w.letters:
            img = self.image(name)
            seq = img.letters if sign > 0 else tuple(
                (n, -s) for n, s in reversed(img.letters)
            )
            for letter in seq:
                if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                    out.pop()
                else:
                    out.append(letter)
        return GenWord(self.alphabet, tuple(out))

    def then(self, other: "Endo") -> "Endo":
        """Composite applying ``self`` first, then ``other``."""
        if other.alphabet != self.alphabet:
            raise AlphabetMismatch("cannot compose endos over different alphabets")
        return Endo(
            self.alphabet, tuple((n, other(img)) for n, img in self.images)
        )

    def iterate(self, k: int) -> "Endo":
        if k < 0:
            raise ValueError("iterate needs k >= 0; supply the inverse action instead")
        out = Endo.identity(self.alphabet)
        for _ in range(k):
            out = out.then(self)
        return out

    def is_identity_on_gens(self) -> bool:
        return all(img == self.alphabet.gen(n) for n, img in self.images)


def apply_endo(e: Endo, w: GenWord) -> GenWord:
    return e(w)


def fold_actions(source: Alphabet, actions: dict[Letter, Endo], w: GenWord) -> Endo:
    """Action of a word over ``source`` whose letters act by ``actions``,
    letters applied left to right."""
    if w.alphabet != source:
        raise AlphabetMismatch(f"expected a word over {source.names}: {w}")
    out = Endo.identity(next(iter(actions.values())).alphabet)
    for letter in w.letters:
        out = out.then(actions[letter])
    return out


#: the fundamental group of the plane minus the three post-critical points,
#: shared by every family
PI1 = Alphabet(("alpha", "beta", "gamma"))


# --- word grammar -----------------------------------------------------------
#
# tokens: generator names, "'" (inverse), "^" INT (power), parentheses;
# juxtaposition or whitespace is concatenation, applied left to right.

def _tokenize(alphabet: Alphabet, text: str) -> list[tuple[str, str | int, int]]:
    names = sorted(alphabet.names, key=len, reverse=True)
    tokens: list[tuple[str, str | int, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()'":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "1":
            tokens.append(("one", 1, i))
            i += 1
            continue
        if ch == "^":
            j = i + 1
            if j < len(text) and text[j] in "+-":
                j += 1
            k = j
            while k < len(text) and text[k].isdigit():
                k += 1
            if k == j:
                raise WordParseError("'^' must be followed by an integer", i)
            tokens.append(("pow", int(text[i + 1 : k]), i))
            i = k
            continue
        for name in names:
            if text.startswith(name, i):
                tokens.append(("name", name, i))
                i += len(name)
                break
        else:
            raise WordParseError(f"unexpected token {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, alphabet: Alphabet, text: str):
        self.alphabet = alphabet
        self.tokens = _tokenize(alphabet, text)
        self.pos = 0
        self.text_len = len(text)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def word(self) -> GenWord:
        out = self.alphabet.identity()
        while True:
            tok = self.peek()
            if tok is None or tok[0] == ")":
                return out
            out = out * self.factor()

    def factor(self) -> GenWord:
        tok = self.peek()
        if tok is None:
            raise WordParseError("unexpected end of word", self.text_len)
        kind, value, at = tok
        if kind == "name":
            atom = self.alphabet.gen(str(value))
            self.pos += 1
        elif kind == "one":
            atom = self.alphabet.identity()
            self.pos += 1
        elif kind == "(":
            self.pos += 1
            atom = self.word()
            closing = self.peek()
            if closing is None or closing[0] != ")":
                raise WordParseError("unbalanced '('", at)
            self.pos += 1
        else:
            raise WordParseError(f"unexpected {value!r}", at)
        while True:
            tok = self.peek()
            if tok is None:
                return atom
            if tok[0] == "'":
                atom = ~atom
                self.pos += 1
            elif tok[0] == "pow":
                atom = atom ** int(tok[1])
                self.pos += 1
            else:
                return atom


def _parse(alphabet: Alphabet, text: str) -> GenWord:
    return _Parser(alphabet, text).word()
