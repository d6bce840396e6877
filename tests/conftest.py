import random

from twistclass.words import Alphabet, GenWord


def reduced_words(alphabet: Alphabet, max_len: int, include_identity=True):
    """All freely reduced words up to the given length, breadth-first."""
    letters = alphabet.gens() + [~g for g in alphabet.gens()]
    if include_identity:
        yield alphabet.identity()
    frontier = [alphabet.identity()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for l in letters:
                w2 = w * l
                if len(w2) == len(w) + 1:
                    nxt.append(w2)
                    yield w2
        frontier = nxt


def psi_bar_cycles(step, alphabet: Alphabet, max_len: int) -> set[frozenset]:
    """The cycle each reduced word of length <= ``max_len`` reaches under
    ``step``, iterating each orbit to its first revisit; words met on an
    earlier orbit share that orbit's cycle."""
    cycle_of = {}
    for w in reduced_words(alphabet, max_len):
        path, index = [], {}
        while w not in cycle_of and w not in index:
            assert len(path) < 1024, f"orbit of {path[0]} revisits nothing"
            index[w] = len(path)
            path.append(w)
            w = step(w)
        cycle = frozenset(path[index[w]:]) if w in index else cycle_of[w]
        cycle_of.update(dict.fromkeys(path, cycle))
    return set(cycle_of.values())


def random_word(alphabet: Alphabet, length: int, rng: random.Random) -> GenWord:
    letters = alphabet.gens() + [~g for g in alphabet.gens()]
    out = alphabet.identity()
    for _ in range(length):
        out = out * rng.choice(letters)
    return out
