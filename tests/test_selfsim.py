import dataclasses
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import random_word
from twistclass import cli, selfsim
from twistclass.labels import BoundExceeded, NotContracting
from twistclass.rabbit import (
    ADDING_MACHINE,
    MCG,
    PI1,
    mcg_recursion,
    rabbit_recursion,
    twisted_rabbit_recursion,
)
from twistclass.periodic2 import MODULI, moduli_i_recursion
from twistclass.preperiod2 import moduli_q_recursion
from twistclass.selfsim import (
    _components,
    _cyclic_core,
    _level_actions,
    _Search,
    _sorted_words,
    NotStateClosed,
    automata_distinct,
    homotopy_shift,
    is_kernel_element,
    is_trivial_action,
    moore_diagram,
    nucleus,
)
from twistclass.words import Alphabet, GenWord
from twistclass.wreath import Recursion, WreathElem, act, phi_apply, restrict

T, S = MCG.gens()
A, B = MODULI.gens()


# --- closures -----------------------------------------------------------------

def plain_closure(roots, children, bound):
    """Breadth-first closure of ``roots`` under ``children``: the successor
    graph of the states visited, and the state at which ``children`` stopped
    the walk by returning None (None when the walk finished).  The
    (bound+1)-th distinct state raises BoundExceeded before ``children``
    sees it.  The plain searches below take their walks from it."""
    graph = {}
    queue = deque(roots)
    while queue:
        w = queue.popleft()
        if w in graph:
            continue
        if len(graph) >= bound:
            raise BoundExceeded(f"restriction closure grew past {bound} states")
        kids = children(w)
        if kids is None:
            return graph, w
        graph[w] = kids
        queue += kids
    return graph, None


def restriction_states(rec, seeds, bound=10000):
    """States of the plain restriction closure, with both coordinates of
    the recursion image as children."""
    def children(w):
        elem = phi_apply(rec, w)
        return elem.c0, elem.c1
    return set(plain_closure(seeds, children, bound)[0])


def test_closure_of_identity():
    rec = mcg_recursion()
    assert restriction_states(rec, [MCG.identity()]) == {MCG.identity()}


def test_closure_of_t():
    rec = mcg_recursion()
    got = restriction_states(rec, [T], 100)
    assert got == {T, MCG.identity(), ~S * ~T, S}


def test_closure_of_b_pinned():
    rec = moduli_i_recursion()
    got = restriction_states(rec, [B], 100)
    assert got == {B, ~B * ~A, A * B, ~B}


def test_closure_contracting_words_terminate():
    rec = rabbit_recursion("R")
    rng = random.Random(41)
    for _ in range(15):
        w = random_word(PI1, 12, rng)
        assert len(restriction_states(rec, [w])) <= 10000


def reachable(graph, node):
    """Nodes reachable from ``node`` in one or more steps."""
    seen, todo = set(), list(graph[node])
    while todo:
        g = todo.pop()
        if g not in seen:
            seen.add(g)
            todo.extend(graph[g])
    return seen


@st.composite
def closed_graphs(draw):
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    return {
        g: tuple(draw(st.lists(node, max_size=3))) for g in range(n)
    }


def peel(graph):
    """Nodes of a closed graph reachable from a directed cycle (self-loops
    included): repeatedly drop nodes that have no predecessors.  The plain
    nucleus search below takes its ranges from it."""
    indegree = dict.fromkeys(graph, 0)
    for kids in graph.values():
        for child in kids:
            indegree[child] += 1
    sources = [g for g, n in indegree.items() if n == 0]
    while sources:
        g = sources.pop()
        del indegree[g]
        for child in graph[g]:
            indegree[child] -= 1
            if indegree[child] == 0:
                sources.append(child)
    return set(indegree)


@given(closed_graphs())
def test_peel_keeps_what_a_cycle_reaches(graph):
    reach = {g: reachable(graph, g) for g in graph}
    cyclic = {g for g in graph if g in reach[g]}
    want = {g for g in graph if any(g in reach[c] for c in cyclic)}
    assert peel(graph) == want


@given(closed_graphs(), st.data())
def test_components_place_what_the_roots_reach_and_find_cycles(graph, data):
    # two passes, as two rounds of a nucleus search: the second skips the
    # words the first placed
    reach = {g: reachable(graph, g) for g in graph}
    placed, seen = set(), set()
    for _ in range(2):
        roots = data.draw(st.lists(st.sampled_from(sorted(graph)), max_size=4))
        cyclic = _components(graph, roots, placed)
        new = set().union(*[reach[g] | {g} for g in roots]) - seen
        assert placed == seen | new
        assert sorted(cyclic) == sorted(g for g in new if g in reach[g])
        seen = placed.copy()


def closure_size(rec, w, step):
    """States of the restriction closure of ``step(w)`` under ``step``."""
    seen, todo = set(), [step(w)]
    while todo:
        g = todo.pop()
        if g not in seen:
            seen.add(g)
            elem = phi_apply(rec, g)
            todo += [step(elem.c0), step(elem.c1)]
    return len(seen)


@pytest.mark.parametrize("search, step, rec, w, want", [
    (is_trivial_action, _cyclic_core, moduli_i_recursion(), (A * B) ** 4, True),
    (is_kernel_element, _cyclic_core, moduli_i_recursion(), A * A, True),
    (is_trivial_action, _cyclic_core, moduli_i_recursion(), A * A, True),
    (is_trivial_action, _cyclic_core, moduli_i_recursion(), B ** 4, True),
    (is_kernel_element, _cyclic_core, moduli_i_recursion(), (A * B) ** 4, True),
    (is_kernel_element, _cyclic_core, moduli_i_recursion(), B ** 4, False),
])
def test_a_closure_of_k_states_fits_bound_k(search, step, rec, w, want):
    k = closure_size(rec, w, step)
    assert k > 1
    assert search(rec, w, k) == want
    with pytest.raises(BoundExceeded):
        search(rec, w, k - 1)


# --- word problem --------------------------------------------------------------

def test_trivial_action_examples():
    rec = moduli_i_recursion()
    assert is_trivial_action(rec, A * A)
    assert is_trivial_action(rec, (A * B) ** 4)
    assert not is_trivial_action(rec, B)
    assert not is_trivial_action(rec, B ** 2)
    assert not is_trivial_action(rec, B ** 3)


def test_fourth_twist_power_acts_trivially_but_is_no_kernel_element():
    # the action quotient has a twist of order four; the recursion-kernel
    # quotient does not
    rec = moduli_i_recursion()
    assert is_trivial_action(rec, B ** 4)
    assert not is_kernel_element(rec, B ** 4)
    assert not is_kernel_element(rec, B ** 8)
    assert is_kernel_element(rec, A * A)
    assert is_kernel_element(rec, (A * B) ** 4)


def test_trivial_action_inverse_agreement():
    rec = moduli_i_recursion()
    rng = random.Random(43)
    for _ in range(30):
        w = random_word(MODULI, rng.randrange(8), rng)
        assert is_trivial_action(rec, w) == is_trivial_action(rec, ~w)


def test_trivial_action_product_of_trivials():
    rec = moduli_i_recursion()
    trivials = [A * A, (A * B) ** 4, (B * A) ** 4, A ** -2]
    for u in trivials:
        for v in trivials:
            assert is_trivial_action(rec, u * v)


# --- nucleus -------------------------------------------------------------------

def test_mcg_nucleus_exact():
    rec = mcg_recursion()
    got = nucleus(rec, MCG.gens(), 100)
    assert got == {MCG.identity(), S, T, T * S, ~S, ~T, ~S * ~T}


def test_moduli_q_nucleus_exact():
    rec = moduli_q_recursion()
    got = nucleus(rec, MODULI.gens(), 100)
    expect = {MODULI.identity()}
    for w in (A, B, A * B, ~A * B):
        expect.add(w)
        expect.add(~w)
    assert got == expect


def test_gx_nucleus_not_contracting_within_bound():
    rec = moduli_i_recursion()
    with pytest.raises(BoundExceeded):
        nucleus(rec, MODULI.gens(), 1)
    with pytest.raises(BoundExceeded):
        nucleus(rec, MODULI.gens(), 60)


def test_moduli_i_nucleus_stops_on_a_self_loop():
    # b fixes vertex 1 and b|_1 = b, so every power of b is in the nucleus
    rec = moduli_i_recursion()
    with pytest.raises(NotContracting) as err:
        nucleus(rec, MODULI.gens(), 10000)
    assert isinstance(err.value, BoundExceeded)
    assert (err.value.state, err.value.vertex) == (B, 1)
    elem = phi_apply(rec, B)
    assert not elem.active and elem.c1 == B
    for n in (2, 3, 5):
        assert phi_apply(rec, B ** n).c1 == B ** n


def test_moduli_i_nucleus_up_to_action_is_finite():
    # b^4 acts trivially, so the self-loop b|_1 = b proves nothing here
    rec = moduli_i_recursion()
    assert is_trivial_action(rec, B ** 4)
    got = nucleus(rec, MODULI.gens(), 10000, up_to_action=True)
    assert len(got) == 19
    assert B in got


@pytest.mark.parametrize("rec", [
    rabbit_recursion("R"),
    rabbit_recursion("A"),
    rabbit_recursion("C"),
    mcg_recursion(),
    moduli_q_recursion(),
], ids=["rabbit", "airplane", "corabbit", "mcg-rabbit", "moduli-q"])
def test_contracting_nuclei_hold_no_self_loop_certificate(rec):
    states = nucleus(rec, rec.alphabet.gens(), 10000)
    for w in states:
        elem = phi_apply(rec, w)
        if not w.is_identity and not elem.active:
            assert w not in (elem.c0, elem.c1), w


def test_nucleus_properties():
    for variant in ("R", "A", "C"):
        rec = rabbit_recursion(variant)
        n = nucleus(rec, PI1.gens(), 200)
        assert rec.alphabet.identity() in n
        assert {~w for w in n} == n
        for w in n:
            elem = phi_apply(rec, w)
            assert elem.c0 in n and elem.c1 in n


def test_rabbit_nucleus_sizes():
    sizes = {
        v: len(nucleus(rabbit_recursion(v), PI1.gens(), 200))
        for v in ("R", "A", "C")
    }
    assert sizes == {"R": 9, "A": 7, "C": 9}


class PortraitIndex:
    """Canonical representatives of words up to equal tree action, keyed by
    the activity portrait of the first PORTRAIT_DEPTH tree levels: the
    activity of each restriction there, by a walk of phi_apply calls.  Only
    portrait collisions pay for a word-problem run, whose restrictions come
    from ``phi``."""

    PORTRAIT_DEPTH = 4

    def __init__(self, rec, phi, bound):
        self.rec = rec
        self.phi = phi
        self.bound = bound
        self.rep_of = {}
        self.by_portrait = {}

    def portrait(self, w):
        bits = []
        level = [w]
        for _ in range(self.PORTRAIT_DEPTH):
            nxt = []
            for g in level:
                elem = phi_apply(self.rec, g)
                bits.append(elem.active)
                nxt += [elem.c0, elem.c1]
            level = nxt
        return tuple(bits)

    def core_children(self, w):
        elem = self.phi(w)
        if elem.active:
            return None
        return _cyclic_core(elem.c0), _cyclic_core(elem.c1)

    def canon(self, w):
        hit = self.rep_of.get(w)
        if hit is not None:
            return hit
        key = self.portrait(w)
        for cand in self.by_portrait.get(key, []):
            if plain_closure(
                [_cyclic_core(w * ~cand)], self.core_children, self.bound
            )[1] is None:
                self.rep_of[w] = cand
                return cand
        self.rep_of[w] = w
        self.by_portrait.setdefault(key, []).append(w)
        return w


def plain_nucleus(rec, gens, bound, up_to_action):
    """The nucleus search with nothing shared: every root gets a fresh
    closure with no state bound, every round rescans all states found so
    far, and up to action words are keyed by their activity portrait.  All
    closures of a round come first, then the candidate check.  The letter
    budget charges the restrictions of each distinct word once, the first
    time a closure or a word problem meets it; portraits are not charged."""
    one = rec.alphabet.identity()
    limit, spent, charged = max(100 * bound, 100_000), 0, set()

    def phi(w):
        nonlocal spent
        elem = phi_apply(rec, w)
        if w not in charged:
            charged.add(w)
            spent += len(elem.c0) + len(elem.c1)
            if spent > limit:
                raise BoundExceeded(f"restrictions grew past {limit} letters")
        return elem

    if up_to_action:
        canon = PortraitIndex(rec, phi, bound).canon
    else:
        interned = {}
        canon = lambda w: interned.setdefault(w, w)

    def children(w):
        elem = phi(w)
        c0, c1 = canon(elem.c0), canon(elem.c1)
        if not up_to_action and not elem.active and w.letters and (
            c0 is w or c1 is w
        ):
            raise NotContracting(w, 0 if c0 is w else 1)
        return c0, c1

    ranges = {}

    def eventual_range(w):
        w = canon(w)
        if w not in ranges:
            ranges[w] = peel(plain_closure([w], children, math.inf)[0])
        return ranges[w]

    # the identity first, so that it represents its own action
    one = canon(one)
    symmetric = {canon(h) for g in gens for h in (g, ~g)}
    symmetric.discard(one)
    gen_list = _sorted_words(symmetric)
    result = {one}
    while True:
        found = set().union(*[
            eventual_range(g * s) for g in _sorted_words(result)
            for s in [one] + gen_list
        ])
        if len(result | found) > bound:
            raise BoundExceeded(
                f"nucleus candidate set grew past {bound}: "
                f"not contracting within bound"
            )
        if found <= result:
            return result
        result |= found


def outcome(search, rec, bound, up_to_action):
    try:
        return search(rec, rec.alphabet.gens(), bound, up_to_action)
    except BoundExceeded as err:
        witness = (err.state, err.vertex) if isinstance(err, NotContracting) else None
        return type(err), str(err), witness


@pytest.mark.parametrize("name", list(cli.RECURSIONS))
def test_nucleus_matches_the_plain_search(name):
    rec = cli.RECURSIONS[name][0]()
    for up_to_action in (False, True):
        for bound in (1, 2, 3, 5, 8, 13, 30, 60):
            assert outcome(nucleus, rec, bound, up_to_action) == outcome(
                plain_nucleus, rec, bound, up_to_action
            ), (bound, up_to_action)


@st.composite
def small_recursions(draw, longest=2):
    """Recursions over two or three generators, one of them active, whose
    table coordinates are words of 0 to ``longest`` letters."""
    names = ("a", "b", "c")[: draw(st.integers(2, 3))]
    alphabet = Alphabet(names)
    letters = [(name, sign) for name in names for sign in (1, -1)]
    word = st.lists(st.sampled_from(letters), max_size=longest).map(alphabet.word)
    active = draw(st.sampled_from(names))
    return Recursion.make(alphabet, {
        name: WreathElem(draw(word), draw(word), name == active) for name in names
    })


AB2 = Alphabet(("a", "b"))
#: a -> <1, 1>, b -> <a, b b>s: the self-loop a b b|_0 = a b b lies past the
#: root of a product's closure, more than 4 states into its walk, and the
#: search names it at every bound (found by a random search)
LOOP_PAST_THE_BOUND = Recursion.make(AB2, {
    "a": WreathElem(AB2.identity(), AB2.identity()),
    "b": WreathElem(AB2.word([("a", 1)]), AB2.word([("b", 1), ("b", 1)]), True),
})


@settings(max_examples=60, deadline=None)
@given(small_recursions(), st.integers(1, 13))
@example(LOOP_PAST_THE_BOUND, 4)
def test_nucleus_matches_the_plain_search_on_small_recursions(rec, bound):
    for up_to_action in (False, True):
        got = outcome(nucleus, rec, bound, up_to_action)
        assert got == outcome(plain_nucleus, rec, bound, up_to_action), up_to_action
        if up_to_action and isinstance(got, set):
            assert rec.alphabet.identity() in got


def test_an_up_to_action_nucleus_holds_the_identity():
    # a acts trivially; canonised before the identity, it stood for the
    # identity's action, and the answer was {a}
    states = nucleus(LOOP_PAST_THE_BOUND, AB2.gens(), 100, up_to_action=True)
    assert states == {AB2.identity()}


#: nucleus sizes of the built-ins, each with its registry flag
NUCLEUS_SIZES = {
    "rabbit": 9, "airplane": 7, "corabbit": 9, "mcg-rabbit": 7, "fi": 8,
    "fstar": 14, "q14": 9, "q34": 9, "q512": 10, "moduli-q": 9,
}


def test_a_nucleus_answers_exactly_from_its_size_on():
    # the one rule: a search answers when its candidate set stays within
    # the bound, and a contracting built-in's set never outgrows its nucleus
    for name, (factory, up_to_action) in cli.RECURSIONS.items():
        rec = factory()
        gens = rec.alphabet.gens()
        if name == "moduli-i":
            for bound in range(1, 41):
                with pytest.raises(NotContracting) as err:
                    nucleus(rec, gens, bound, up_to_action)
                assert (err.value.state, err.value.vertex) == (B, 1)
            continue
        states = nucleus(rec, gens, 10000, up_to_action)
        assert len(states) == NUCLEUS_SIZES[name]
        for bound in range(1, 41):
            if bound >= len(states):
                assert nucleus(rec, gens, bound, up_to_action) == states
            else:
                with pytest.raises(BoundExceeded) as err:
                    nucleus(rec, gens, bound, up_to_action)
                assert not isinstance(err.value, NotContracting)


ABC = Alphabet(("alpha", "beta", "gamma"))
#: alpha -> <beta, 1>, beta -> <alpha alpha, 1>, gamma -> <1, gamma' beta
#: alpha'>s: alpha^2|_00 = alpha^4, so restrictions double in length every
#: two levels, and no word is its own restriction
GROWING = Recursion.make(ABC, {
    "alpha": WreathElem(ABC.parse("beta"), ABC.identity()),
    "beta": WreathElem(ABC.parse("alpha alpha"), ABC.identity()),
    "gamma": WreathElem(ABC.identity(), ABC.parse("gamma' beta alpha'"), True),
})


@pytest.mark.parametrize("up_to_action", [False, True])
def test_growing_restrictions_blow_the_letter_budget(up_to_action):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BoundExceeded, match="1000000 letters") as err:
            nucleus(GROWING, ABC.gens(), 10000, up_to_action)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not isinstance(err.value, NotContracting)
    assert took < 1.0
    assert peak < 100 * 2**20


def test_a_word_level_search_keeps_no_restrictions():
    # over words each word is expanded once, so its restrictions are charged
    # and dropped: fi gives up on the budget at bound 1000 with a tracemalloc
    # peak of ~2.0 MB, where keeping every restriction peaked at ~4.5 MB
    rec = cli.RECURSIONS["fi"][0]()
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded, match="past 100000 letters"):
            nucleus(rec, rec.alphabet.gens(), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_the_letter_budget_counts_the_letters_of_restrictions():
    # alpha^n|_0 = beta^n and alpha^n|_1 = 1: a word of n letters spends n
    # letters the first time, and nothing when it is asked for again
    alpha = ABC.gen("alpha")
    for bound, limit in ((1, 100_000), (2000, 200_000)):
        n = limit // 2
        search = _Search(GROWING, bound)
        search.restrict(alpha ** n)
        search.restrict(alpha ** -n)
        # the limit is spent; had the repeat been charged, it would raise
        search.restrict(alpha ** n)
        with pytest.raises(BoundExceeded, match=f"past {limit} letters"):
            search.restrict(alpha)


def test_word_problems_on_growing_restrictions_blow_the_letter_budget():
    alpha = ABC.gen("alpha")
    for search in (is_trivial_action, is_kernel_element):
        with pytest.raises(BoundExceeded, match="letters"):
            search(GROWING, alpha)
    with pytest.raises(BoundExceeded, match="letters"):
        moore_diagram(GROWING, [ABC.identity(), alpha])


@seed(19)
@settings(max_examples=10, deadline=None)
@given(small_recursions(3))
def test_every_search_ends_at_the_default_bound(rec):
    # with a set or BoundExceeded: any other exception fails the test
    for up_to_action in (False, True):
        try:
            assert isinstance(nucleus(rec, rec.alphabet.gens(), 10000, up_to_action), set)
        except BoundExceeded:
            pass


RECURSIONS = {name: factory() for name, (factory, _) in cli.RECURSIONS.items()}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(RECURSIONS)),
    st.lists(st.integers(0, 12), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_level_action_keys_split_words_like_activity_portraits(name, lengths, rng):
    rec = RECURSIONS[name]
    words = [random_word(rec.alphabet, n, rng) for n in lengths]
    # a 16th power acts trivially on level 4, so these collide with words
    words += [w * words[-1] ** 16 for w in words]
    key = _Search(rec, 0).key
    portrait = PortraitIndex(rec, None, 0).portrait
    pairs = {(key(w), portrait(w)) for w in words}
    # equal keys exactly when equal portraits: keys and portraits pair up
    assert len(pairs) == len({k for k, _ in pairs}) == len({p for _, p in pairs})
    for w in words[:2]:
        vertices = [format(v, "04b") for v in range(16)]
        assert list(key(w)) == [int(act(rec, w, v), 2) for v in vertices]


def test_level_action_tables_are_built_once_per_recursion(monkeypatch):
    rec = moduli_q_recursion()
    gens = rec.alphabet.gens()
    acts = Counter()

    def spy(r, w, v):
        acts[id(r)] += 1
        return act(r, w, v)

    monkeypatch.setattr(selfsim, "act", spy)
    assert "_level_actions" not in vars(rec)
    nucleus(rec, gens, 10000)
    assert not acts
    tables = _level_actions(rec)
    assert acts == {id(rec): 16 * 2 * len(gens)}
    states = nucleus(rec, gens, 10000, up_to_action=True)
    moore_diagram(rec, states | {gens[0] ** 2})
    assert _level_actions(rec) is tables
    assert acts == {id(rec): 16 * 2 * len(gens)}
    copy = dataclasses.replace(rec)
    assert copy == rec and "_level_actions" not in vars(copy)
    assert _level_actions(copy) == tables
    assert _level_actions(copy) is not tables
    assert acts[id(copy)] == 16 * 2 * len(gens)


CONTRACTING = [name for name in cli.RECURSIONS if name != "moduli-i"]


@pytest.mark.parametrize("name", CONTRACTING)
def test_nucleus_expands_each_word_once(name, monkeypatch):
    factory, up_to_action = cli.RECURSIONS[name]
    rec = factory()
    expanded = Counter()

    def spy(rec, w):
        expanded[w] += 1
        return phi_apply(rec, w)

    monkeypatch.setattr(selfsim, "phi_apply", spy)
    nucleus(rec, rec.alphabet.gens(), 10000, up_to_action)
    assert expanded and max(expanded.values()) == 1


@pytest.mark.parametrize("name, bound", [
    ("rabbit", 10000), ("mcg-rabbit", 10000), ("moduli-q", 10000), ("fi", 60),
])
def test_nucleus_scans_each_state_once(name, bound, monkeypatch):
    # over words the only products a search forms are its scans g * s, one
    # per state and generator or inverse (the identity among them)
    rec = cli.RECURSIONS[name][0]()
    products = 0
    mul = GenWord.__mul__

    def counting(u, v):
        nonlocal products
        products += 1
        return mul(u, v)

    monkeypatch.setattr(GenWord, "__mul__", counting)
    per_state = 1 + 2 * len(rec.alphabet.gens())
    try:
        states = nucleus(rec, rec.alphabet.gens(), bound)
    except BoundExceeded:
        # at most bound + 1 states were ever found, so scanned
        assert 0 < products <= (bound + 1) * per_state
    else:
        assert products == len(states) * per_state


# --- Moore diagrams ------------------------------------------------------------

def test_identity_diagram():
    rec = mcg_recursion()
    d = moore_diagram(rec, [MCG.identity()])
    assert d.size == 1
    assert d.next0 == (0,) and d.next1 == (0,)
    assert d.active == (False,)


def test_mcg_diagram_active_states():
    rec = mcg_recursion()
    d = moore_diagram(rec, nucleus(rec, MCG.gens(), 100))
    active = {d.states[i] for i in range(d.size) if d.active[i]}
    assert active == {T, ~T, T * S, ~S * ~T}


@pytest.mark.parametrize("name", ["mcg-rabbit", "rabbit", "moduli-q"])
def test_a_word_level_diagram_runs_no_word_problem(name, monkeypatch):
    # every restriction of a word-level nucleus state is a state, so the
    # up-to-action index of moore_diagram is never built
    rec = cli.RECURSIONS[name][0]()
    states = nucleus(rec, rec.alphabet.gens(), 10000)
    walks = []
    walk = _Search.walk

    def spy(search, w):
        walks.append(w)
        return walk(search, w)

    monkeypatch.setattr(_Search, "walk", spy)
    assert moore_diagram(rec, states).size == len(states)
    assert walks == []


def test_moore_diagram_not_closed_error():
    rec = mcg_recursion()
    with pytest.raises(NotStateClosed) as err:
        moore_diagram(rec, [T])
    assert any(state == T for state, _, _ in err.value.violations)


def test_moore_serialization():
    rec = mcg_recursion()
    d = moore_diagram(rec, nucleus(rec, MCG.gens(), 100))
    dot = d.to_dot()
    assert "fillcolor=grey" in dot and "fillcolor=white" in dot
    assert 'label="0"' in dot and 'label="1"' in dot
    assert dot.count("fillcolor=") == d.size == 7
    assert dot == moore_diagram(rec, nucleus(rec, MCG.gens(), 100)).to_dot()


# --- automaton comparison --------------------------------------------------------

def diagram_of(variant):
    rec = rabbit_recursion(variant)
    return moore_diagram(rec, nucleus(rec, PI1.gens(), 200))


def test_automata_distinct_reflexively_false():
    d = diagram_of("R")
    assert not automata_distinct(d, d)


def test_automata_distinct_pairs():
    dr, da, dc = diagram_of("R"), diagram_of("A"), diagram_of("C")
    assert automata_distinct(dr, da)
    assert automata_distinct(dc, da)
    assert automata_distinct(dr, dc)
    assert automata_distinct(da, dr) and automata_distinct(da, dc)


def test_mirror_pair_only_merges_under_letter_swap():
    # complex-conjugate polynomials give mirror automata; the comparison
    # must keep them apart, and only the letter-swapped copy matches
    dr, dc = diagram_of("R"), diagram_of("C")
    assert automata_distinct(dr, dc)
    assert not automata_distinct(dr, _relabelled(dc, range(dc.size), True))


def _random_diagram(rnd, size):
    return selfsim.MooreDiagram(
        tuple(MCG.parse(f"T^{k}") for k in range(size)),
        tuple(rnd.randrange(size) for _ in range(size)),
        tuple(rnd.randrange(size) for _ in range(size)),
        tuple(rnd.random() < 0.5 for _ in range(size)),
    )


def _relabelled(d, perm, swap):
    """Copy of ``d`` with state i renamed perm[i], input letters swapped
    when ``swap`` is set."""
    n0, n1 = (d.next1, d.next0) if swap else (d.next0, d.next1)
    inv = sorted(range(d.size), key=perm.__getitem__)
    return selfsim.MooreDiagram(
        d.states,
        tuple(perm[n0[i]] for i in inv),
        tuple(perm[n1[i]] for i in inv),
        tuple(d.active[i] for i in inv),
    )


def _brute_isomorphic(d1, d2):
    if d1.size != d2.size:
        return False
    return any(
        all(
            d1.active[i] == d2.active[p[i]]
            and p[d1.next0[i]] == d2.next0[p[i]]
            and p[d1.next1[i]] == d2.next1[p[i]]
            for i in range(d1.size)
        )
        for p in itertools.permutations(range(d2.size))
    )


def test_automata_distinct_matches_a_search_over_all_permutations():
    # each random diagram against a relabelled copy, a relabelled copy with
    # the input letters swapped and an unrelated diagram of the same size,
    # and against the letter-swapped copy of each of them
    rnd = random.Random(20)
    outcomes = Counter()
    for _ in range(150):
        size = rnd.randint(0, 6)
        d1 = _random_diagram(rnd, size)
        perm = rnd.sample(range(size), size)
        for d2 in (
            _relabelled(d1, perm, False),
            _relabelled(d1, perm, True),
            _random_diagram(rnd, size),
        ):
            for d in (d2, _relabelled(d2, range(size), True)):
                expected = not _brute_isomorphic(d1, d)
                assert automata_distinct(d1, d) == expected, (d1, d)
                outcomes[expected] += 1
        assert not automata_distinct(d1, _relabelled(d1, perm, False))
        mirror = _relabelled(d1, range(size), True)
        assert not automata_distinct(mirror, _relabelled(d1, perm, True))
        # d1 embeds in a copy with one more state, yet they are distinct
        grown = selfsim.MooreDiagram(
            d1.states + (MCG.parse(f"T^{size}"),),
            d1.next0 + (size,),
            d1.next1 + (size,),
            d1.active + (False,),
        )
        assert automata_distinct(d1, grown)
    assert min(outcomes.values()) >= 100, outcomes


# --- homotopy shift --------------------------------------------------------------

def test_homotopy_shift_equal_recursions():
    rec = rabbit_recursion("R")
    assert homotopy_shift(rec, rec, ADDING_MACHINE, 4) == 0


def test_homotopy_shift_twisted_vs_corabbit():
    assert (
        homotopy_shift(
            twisted_rabbit_recursion(-1), rabbit_recursion("C"), ADDING_MACHINE, 4
        )
        == 0
    )


def test_homotopy_shift_round_trip():
    rec_a = rabbit_recursion("R")
    table = {
        n: phi_apply(rec_a, PI1.gen(n).conjugate(~ADDING_MACHINE))
        for n in PI1.names
    }
    rec_b = Recursion.make(PI1, table)
    n_ab = homotopy_shift(rec_a, rec_b, ADDING_MACHINE, 4)
    n_ba = homotopy_shift(rec_b, rec_a, ADDING_MACHINE, 4)
    assert n_ba == 1
    assert n_ab == -n_ba


def test_homotopy_shift_absent():
    assert (
        homotopy_shift(rabbit_recursion("R"), rabbit_recursion("A"), ADDING_MACHINE, 4)
        is None
    )


# --- virtual endomorphisms -------------------------------------------------------

#: letter-0 virtual endomorphism of each moduli recursion: its restriction at
#: the vertex 0 on generators of the index-2 domain (the words fixing 0), and
#: the generator whose coset is outside the domain
VIRTUAL_ENDOS = {
    "mcg": (mcg_recursion, "T", {"T T": "S' T'", "S": "T", "T' S T": "1"}),
    "moduli-i": (moduli_i_recursion, "a", {"a a": "1", "b": "b' a'", "a' b a": "b"}),
    "moduli-q": (
        moduli_q_recursion, "a", {"a a": "b", "b": "b' a'", "a' b a": "b' a b"}
    ),
}


@pytest.mark.parametrize("name", VIRTUAL_ENDOS)
def test_virtual_endomorphism_is_pinned(name):
    factory, outside, images = VIRTUAL_ENDOS[name]
    rec = factory()
    parse = rec.alphabet.parse
    assert phi_apply(rec, parse(outside)).active
    for g, image in images.items():
        assert not phi_apply(rec, parse(g)).active, g
        assert restrict(rec, parse(g), "0") == parse(image), g
