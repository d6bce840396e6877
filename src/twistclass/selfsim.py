"""Contraction machinery: restriction closures, nuclei, word problems,
Moore diagrams, automaton comparison and homotopy shifts.

Every search is one _Search and keeps two rules.  ``bound`` caps the
states of its answer: a word problem's breadth-first walk may visit
``bound`` distinct states, and a nucleus search's candidate set may hold
``bound`` states; one more raises BoundExceeded.  A letter budget caps the
work: the restrictions one search computes may hold ``max(100 * bound,
100_000)`` letters in all, so a recursion whose restrictions grow gives up.
A blown bound or budget is evidence (not proof) that the recursion is not
contracting on the given seeds.  A self-loop is proof: if a non-trivial word
``w`` fixes a letter ``x`` and ``w|_x = w``, then ``w^n|_x = w^n`` for every
``n``, so the infinitely many powers of ``w`` all lie in the word-level
nucleus.  The nucleus search raises NotContracting, a BoundExceeded, as
soon as it meets one.

Two word problems live here and they differ: triviality of the tree action
(no active restriction anywhere) and membership in the kernel of the
iterated recursion (all deep restrictions become the empty word).  The
second is strictly stronger; see is_kernel_element.  Both walk cyclically
reduced conjugates of restrictions; the active state that ends a
triviality walk is the witness of a non-trivial action.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .labels import AlphabetMismatch, BoundExceeded, NotContracting
from .words import GenWord, _core_span
from .wreath import Recursion, WreathElem, act, phi_apply


def _sorted_words(words: Iterable[GenWord]) -> list[GenWord]:
    return sorted(words, key=GenWord.sort_key)


def _cyclic_core(w: GenWord) -> GenWord:
    """Cyclically reduced conjugate of ``w`` (matching end pairs stripped)."""
    i, j = _core_span(w.letters)
    if i == 0:
        return w
    return GenWord._trusted(w.alphabet, w.letters[i:j])


def is_trivial_action(rec: Recursion, w: GenWord, bound: int = 10000) -> bool:
    """True iff ``w`` acts trivially on the whole binary tree.

    The action is trivial exactly when no element of the restriction closure
    is active.  Triviality is a conjugacy invariant, so the search walks
    cyclically reduced conjugates (which keeps it finite for recursions whose
    tables conjugate rather than shorten), and it stops at the first active
    state.
    """
    return _Search(rec, bound).walk(w)[1] is None


def is_kernel_element(rec: Recursion, w: GenWord, bound: int = 10000) -> bool:
    """True iff ``w`` dies under iterated restriction: at some depth every
    restriction is the empty word (``w`` is trivial in the quotient by the
    kernels of the iterated wreath recursion).

    This is strictly stronger than acting trivially on the tree: an element
    may fix every vertex yet keep non-trivial restriction words forever, and
    such an element is *not* a kernel element.

    The walk runs over cyclic cores, and an active state ends it (outside
    the kernel).  A finished walk is outside the kernel exactly when its
    graph has a cycle other than the identity's self-loop.
    """
    if w.alphabet != rec.alphabet:
        raise AlphabetMismatch(f"word must be over {rec.alphabet.names}")
    graph, stop = _Search(rec, bound).walk(w)
    return stop is None and all(
        g.is_identity for g in _components(graph, list(graph), set())
    )


def action_equal(
    rec: Recursion, u: GenWord, v: GenWord, bound: int = 10000
) -> bool:
    """Equality of the tree actions of two words."""
    return is_trivial_action(rec, u * ~v, bound)


#: tree level whose vertices, numbered by their binary spelling, key the
#: up-to-action index; the identity acts on them as this translate image
_LEVEL = 4
_VERTICES = bytes(range(2**_LEVEL))


def _level_actions(rec: Recursion) -> dict[tuple[str, int], bytes]:
    """Letter -> its action on level ``_LEVEL`` as a ``bytes.translate``
    table; built on first use and kept on ``rec`` (not on a copy)."""
    tables = rec.__dict__.get("_level_actions")
    if tables is None:
        spelled = [format(v, f"0{_LEVEL}b") for v in _VERTICES]
        tables = {
            x: bytes(int(act(rec, rec.alphabet.word([x]), v), 2) for v in spelled)
            .ljust(256, b"\0")
            for x in rec._by_letter
        }
        object.__setattr__(rec, "_level_actions", tables)
    return tables


class _Search:
    """One search over ``rec`` within ``bound``: its restrictions, its word
    problem walks and its up-to-action index.

    ``restrict`` computes each word's restrictions once and keeps them;
    ``charge`` counts their letters against the budget of ``max(100 *
    bound, 100_000)`` letters, and the restriction that passes it raises
    BoundExceeded.  ``canon`` maps a word to the first word met with the
    same tree action.  It keys words by their action on level ``_LEVEL``
    (which fixes the activity of each restriction above it), so only words
    with equal keys pay for a ``walk``, and those walks share the
    restrictions and core children of the search they serve.
    """

    def __init__(self, rec: Recursion, bound: int):
        self.rec, self.bound = rec, bound
        self.limit, self.spent = max(100 * bound, 100_000), 0
        self.elems: dict[GenWord, WreathElem] = {}
        # cyclic core -> the cores of its two restrictions; None if active
        self.cores: dict[GenWord, tuple[GenWord, GenWord] | None] = {}
        self.rep_of: dict[GenWord, GenWord] = {}
        self.by_key: dict[bytes, list[GenWord]] = {}

    def restrict(self, w: GenWord) -> WreathElem:
        elem = self.elems.get(w)
        if elem is None:
            elem = self.elems[w] = self.charge(phi_apply(self.rec, w))
        return elem

    def charge(self, elem: WreathElem) -> WreathElem:
        self.spent += len(elem.c0.letters) + len(elem.c1.letters)
        if self.spent > self.limit:
            raise BoundExceeded(f"restrictions grew past {self.limit} letters")
        return elem

    def walk(self, w: GenWord) -> tuple[dict, GenWord | None]:
        """Breadth-first walk over the cyclic cores of the restrictions of
        ``w``, from the core of ``w``: the graph of the cores visited, and
        the active core that ended the walk (None when it finished).  The
        (bound+1)-th distinct core raises BoundExceeded."""
        graph: dict[GenWord, tuple[GenWord, ...]] = {}
        queue = deque([_cyclic_core(w)])
        while queue:
            g = queue.popleft()
            if g in graph:
                continue
            if len(graph) >= self.bound:
                raise BoundExceeded(
                    f"restriction closure grew past {self.bound} states"
                )
            if g not in self.cores:
                elem = self.restrict(g)
                self.cores[g] = None if elem.active else (
                    _cyclic_core(elem.c0), _cyclic_core(elem.c1)
                )
            kids = self.cores[g]
            if kids is None:
                return graph, g
            graph[g] = kids
            queue += kids
        return graph, None

    def key(self, w: GenWord) -> bytes:
        # the tree acts on the right: a letter's table applies after earlier ones
        tables = _level_actions(self.rec)
        return functools.reduce(
            bytes.translate, map(tables.__getitem__, w.letters), _VERTICES
        )

    def canon(self, w: GenWord) -> GenWord:
        rep = self.rep_of.get(w)
        if rep is None:
            reps = self.by_key.setdefault(self.key(w), [])
            rep = next((c for c in reps if self.walk(w * ~c)[1] is None), w)
            if rep is w:
                reps.append(w)
            self.rep_of[w] = rep
        return rep


def _components(
    graph: dict[GenWord, tuple[GenWord, ...]],
    roots: list[GenWord],
    placed: set[GenWord],
) -> list[GenWord]:
    """Place the words ``roots`` reach in ``graph`` that ``placed`` lacks in
    strongly connected components (Tarjan 1972, iteratively); return the
    ones on a cycle."""
    cyclic: list[GenWord] = []
    for root in roots:
        if root in placed:
            continue
        # each word on the stack -> the least stack position it reaches
        low = {root: 0}
        stack = [root]
        work = [(root, iter(graph[root]), 0)]
        while work:
            v, kids, at = work[-1]
            for c in kids:
                if c in placed:
                    continue
                if c in low:  # on the stack: c and v share a component
                    low[v] = min(low[v], low[c])
                else:
                    low[c] = len(stack)
                    work.append((c, iter(graph[c]), len(stack)))
                    stack.append(c)
                    break
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == at:
                    members = stack[at:]
                    del stack[at:]
                    placed.update(members)
                    if len(members) > 1 or v in graph[v]:
                        cyclic += members
    return cyclic


def nucleus(
    rec: Recursion,
    gens: Iterable[GenWord],
    bound: int = 10000,
    up_to_action: bool = False,
) -> set[GenWord]:
    """Nucleus of the recursion: the least set containing 1 whose products
    with generators have all sufficiently deep restrictions back in the set.

    By default states are reduced words of the group carrying the recursion.
    With ``up_to_action`` words are identified when their tree actions agree,
    which computes the nucleus of the faithful quotient instead; recursions
    whose quotient has torsion are only contracting in that sense.  Raises
    BoundExceeded when the candidate set grows past ``bound`` states, when
    the restrictions of the search pass ``max(100 * bound, 100_000)``
    letters, or, up to action, when one comparison of the index walks past
    ``bound`` states: the recursion is then not contracting within bound.

    Over words the search also raises NotContracting, a BoundExceeded,
    on the first expanded state ``w`` that is not the identity, is
    inactive and is its own restriction at a letter ``x``: all powers of
    ``w`` are then in the nucleus, so it is infinite and the search could
    never finish.  Up to action the powers of ``w`` may coincide (``b^4``
    acts trivially under the moduli-i recursion), so that mode has no
    certificate and stops only on its bound or budget.

    Each round scans the products ``g * s`` of the states the last round
    added, and adds the words reachable from a cycle of their closures.  One
    restriction graph serves all products: each product's new words are
    expanded breadth first, one pass places the round's new words in
    strongly connected components, and a flood from the cyclic ones finds
    the new states.
    """
    search = _Search(rec, bound)
    canon, restrict = search.canon, search.restrict
    if not up_to_action:
        # over words a word's representative is the first equal object: set
        # and dict lookups then match on identity and skip the dataclass __eq__
        canon = lambda w: search.rep_of.setdefault(w, w)
        # each word is expanded once and no walk reads its restrictions, so
        # they are charged to the budget and not kept
        restrict = lambda w: search.charge(phi_apply(rec, w))
    # the restriction graph: each expanded word -> its two canonical children
    graph: dict[GenWord, tuple[GenWord, GenWord]] = {}
    placed: set[GenWord] = set()

    # the identity first, so that it represents its own action
    one = canon(rec.alphabet.identity())
    symmetric = {canon(h) for g in gens for h in (g, ~g)}
    symmetric.discard(one)
    gen_list = _sorted_words(symmetric)

    # a state scanned in an earlier round has its products' states in result;
    # result | extra is closed under restriction, so a flood stops there
    result: set[GenWord] = set()
    extra = {one}
    while extra:
        result |= extra
        new, extra = extra, set()
        roots = []
        for g in _sorted_words(new):
            for s in [one] + gen_list:
                root = canon(g * s)
                if root in graph:
                    continue
                roots.append(root)
                # breadth first, with expanded words as leaves
                queue = deque([root])
                while queue:
                    w = queue.popleft()
                    if w in graph:
                        continue
                    elem = restrict(w)
                    kids = graph[w] = canon(elem.c0), canon(elem.c1)
                    # w is interned too, so `is` finds a self-loop
                    if not up_to_action and not elem.active and w.letters and (
                        kids[0] is w or kids[1] is w
                    ):
                        raise NotContracting(w, 0 if kids[0] is w else 1)
                    queue += kids
        todo = _components(graph, roots, placed)
        while todo:
            h = todo.pop()
            if h not in result and h not in extra:
                extra.add(h)
                if len(result) + len(extra) > bound:
                    raise BoundExceeded(
                        f"nucleus candidate set grew past {bound}: "
                        f"not contracting within bound"
                    )
                todo += graph[h]
    return result


# --- Moore diagrams ---------------------------------------------------------


@dataclass(frozen=True)
class MooreDiagram:
    """Automaton view of a state-closed set: states, transitions, activity."""

    states: tuple[GenWord, ...]
    next0: tuple[int, ...]
    next1: tuple[int, ...]
    active: tuple[bool, ...]

    @property
    def size(self) -> int:
        return len(self.states)

    def to_dot(self) -> str:
        lines = ["digraph moore {", "  rankdir=LR;"]
        for i, s in enumerate(self.states):
            color = "grey" if self.active[i] else "white"
            lines.append(
                f'  "{s}" [style=filled, fillcolor={color}];'
            )
        for i, s in enumerate(self.states):
            lines.append(f'  "{s}" -> "{self.states[self.next0[i]]}" [label="0"];')
            lines.append(f'  "{s}" -> "{self.states[self.next1[i]]}" [label="1"];')
        lines.append("}")
        return "\n".join(lines)


class NotStateClosed(ValueError):
    def __init__(self, violations: list[tuple[GenWord, int, GenWord]]):
        self.violations = violations
        detail = "; ".join(
            f"{state}|_{letter} = {target}" for state, letter, target in violations
        )
        super().__init__(f"state set is not closed under restriction: {detail}")


def moore_diagram(
    rec: Recursion,
    states: Iterable[GenWord],
    bound: int = 10000,
) -> MooreDiagram:
    """Build the Moore diagram of a state-closed set, or report violations.

    A restriction target counts as one of the given states when their tree
    actions agree, the first such state in sort order: a target that is no
    state goes to the up-to-action index of :func:`nucleus`, built on first
    need and seeded with the states; ``bound`` caps its action comparisons.
    """
    ordered = _sorted_words(set(states))
    pos = {s: i for i, s in enumerate(ordered)}
    search = _Search(rec, bound)

    next0, next1, active = [], [], []
    violations: list[tuple[GenWord, int, GenWord]] = []
    for s in ordered:
        elem = search.restrict(s)
        row = []
        for letter, child in ((0, elem.c0), (1, elem.c1)):
            hit = pos.get(child)
            if hit is None:
                if not search.rep_of:
                    for state in ordered:
                        search.canon(state)
                hit = pos.get(search.canon(child))
            if hit is None:
                violations.append((s, letter, child))
            else:
                row.append(hit)
        if not violations:
            next0.append(row[0])
            next1.append(row[1])
            active.append(elem.active)
    if violations:
        raise NotStateClosed(violations)
    return MooreDiagram(tuple(ordered), tuple(next0), tuple(next1), tuple(active))


def automata_distinct(d1: MooreDiagram, d2: MooreDiagram) -> bool:
    """True iff no state bijection preserves transitions and activity.

    Mirror images (the two tree branches relabelled) count as distinct:
    mirror-related recursions arise from complex-conjugate polynomials,
    which are genuinely inequivalent.  A comparison up to the mirror also
    compares against a copy of ``d2`` with ``next0`` and ``next1`` exchanged.

    The first unmapped state of d1 is tried against each unused state of d2,
    and the pair is propagated along both transitions: every state it
    reaches has a forced image, so only states that no mapped state reaches
    are guessed.
    """
    if d1.size != d2.size:
        return True

    def extend(image: dict[int, int]) -> bool:
        free = next((k for k in range(d1.size) if k not in image), None)
        if free is None:
            return True
        for j in set(range(d2.size)).difference(image.values()):
            trial, used = dict(image), set(image.values())
            pairs = [(free, j)]
            while pairs:
                k, m = pairs.pop()
                if k in trial:
                    if trial[k] != m:
                        break
                elif m in used or d1.active[k] != d2.active[m]:
                    break
                else:
                    trial[k] = m
                    used.add(m)
                    pairs += (
                        (d1.next0[k], d2.next0[m]), (d1.next1[k], d2.next1[m])
                    )
            else:
                if extend(trial):
                    return True
        return False

    return not extend({})


# --- homotopy shift ---------------------------------------------------------


def homotopy_shift(
    rec_a: Recursion, rec_b: Recursion, a_word: GenWord, nmax: int
) -> int | None:
    """Smallest |n| <= nmax with Phi_A(g) = Phi_B(a^n g a^-n) for every
    generator g, scanning n = 0, 1, -1, 2, -2, ...; None when no shift fits.
    Raises AlphabetMismatch when the recursions or ``a_word`` do not share
    one alphabet.
    """
    gens = rec_a.alphabet.gens()
    images = [phi_apply(rec_a, g) for g in gens]
    for n in _shift_order(nmax):
        shift = a_word ** (-n)
        if all(
            img == phi_apply(rec_b, g.conjugate(shift))
            for g, img in zip(gens, images)
        ):
            return n
    return None


def _shift_order(nmax: int):
    yield 0
    for k in range(1, nmax + 1):
        yield k
        yield -k
