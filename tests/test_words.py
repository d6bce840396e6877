import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_word, reduced_words
from twistclass.labels import AlphabetMismatch, WordParseError
from twistclass.words import (
    AB,
    MAX_NESTING_DEPTH,
    MAX_WORD_LENGTH,
    Alphabet,
    Endo,
    GenWord,
    dehn_twist,
)
from twistclass import moduli, periodic2, selfsim, wreath
from twistclass.periodic2 import a_pi1_action, fstar_recursion
from twistclass.preperiod2 import (
    MODULI,
    VARIANTS,
    twisted_quater_recursion,
    word_action,
)
from twistclass.rabbit import MCG, PI1, mcg_word_action, twisted_mcg_recursion

AL, BE, GA = PI1.gens()
T, S = MCG.gens()


def test_reduce_cancellation():
    assert PI1.word([("alpha", 1), ("alpha", -1), ("beta", 1)]) == BE


def test_reduce_empty_is_identity():
    assert PI1.word([]).is_identity


def test_reduce_seam_only():
    w = ~(BE * AL) * AL * (BE * AL)
    assert w == PI1.word(
        [("alpha", -1), ("beta", -1), ("alpha", 1), ("beta", 1), ("alpha", 1)]
    )


def test_reduce_idempotent_on_random_raw_sequences():
    rng = random.Random(7)
    names = list(PI1.names)
    for _ in range(200):
        raw = [(rng.choice(names), rng.choice((1, -1))) for _ in range(20)]
        once = PI1.word(raw)
        assert PI1.word(once.letters) == once


def test_length_subadditive_and_parity():
    rng = random.Random(11)
    for _ in range(100):
        u = random_word(PI1, rng.randrange(12), rng)
        v = random_word(PI1, rng.randrange(12), rng)
        assert len(u * v) <= len(u) + len(v)
        assert (len(u * v) - len(u) - len(v)) % 2 == 0


def test_conjugate_examples():
    assert BE.conjugate(AL) == ~AL * BE * AL
    assert BE.conjugate(PI1.identity()) == BE
    assert AL.conjugate(BE * AL) == PI1.parse("alpha' beta' alpha beta alpha")


def test_conjugate_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        w = random_word(PI1, rng.randrange(10), rng)
        h = random_word(PI1, rng.randrange(10), rng)
        assert w.conjugate(h).conjugate(~h) == w


def test_t_action_on_generators():
    t = mcg_word_action(T)
    assert t(AL) == PI1.parse("alpha' beta' alpha beta alpha")
    assert t(BE) == BE.conjugate(AL)
    assert t(GA) == GA


#: images of (alpha, beta, gamma) under each twist action, as spelled out by
#: the hand-written tables that the curve loops replaced
TWIST_IMAGES = {
    "T": ("alpha' beta' alpha beta alpha", "alpha' beta alpha", "gamma"),
    "T'": ("beta alpha beta'", "beta alpha beta alpha' beta'", "gamma"),
    "S": ("alpha", "beta' gamma' beta gamma beta", "beta' gamma beta"),
    "S'": ("alpha", "gamma beta gamma'", "gamma beta gamma beta' gamma'"),
    "a": ("alpha gamma alpha gamma' alpha'", "beta", "alpha gamma alpha'"),
    "a'": ("gamma' alpha gamma", "beta", "gamma' alpha' gamma alpha gamma"),
    "b": (
        "alpha",
        "beta alpha gamma alpha' beta alpha gamma' alpha' beta'",
        "alpha' beta alpha gamma alpha' beta' alpha",
    ),
    "b'": (
        "alpha",
        "alpha gamma' alpha' beta alpha gamma alpha'",
        "gamma' alpha' beta' alpha gamma alpha' beta alpha gamma",
    ),
    "a_pi1": (
        "alpha' beta' gamma' beta alpha beta' gamma beta alpha",
        "beta",
        "beta alpha' beta' gamma beta alpha beta'",
    ),
}


@pytest.mark.parametrize("name", TWIST_IMAGES)
def test_twist_actions_pin_their_generator_images(name):
    if name == "a_pi1":
        action = a_pi1_action()
    elif name[0] in MCG:
        action = mcg_word_action(MCG.parse(name))
    else:
        action = word_action(MODULI.parse(name))
    for g, image in zip(PI1.gens(), TWIST_IMAGES[name]):
        assert action(g) == PI1.parse(image), str(g)


#: sha256 over every twisted table, twist action and f* below, computed
#: before the twist actions were folded into one routine
TWIST_TABLES_DIGEST = "cf472970ae5ab63c6fe78795a9fee2815f81e4332d03e0c5bc006cff1867aee0"


def test_twisted_tables_are_pinned():
    # the twisted recursion and twist action of every reduced word of length
    # <= 3 in both moduli alphabets, each quater variant, and f*: 212 tables
    h = hashlib.sha256()

    def add(*parts):
        h.update(("|".join(map(str, parts)) + "\n").encode())

    def add_recursion(*key, rec):
        add(*key, *(f"{n}={e}" for n, e in rec.table), rec.adding_machine)

    def add_action(*key, action):
        add(*key, *(f"{n}={img}" for n, img in action.images))

    for w in reduced_words(MCG, 3):
        add_recursion("mcg", w, rec=twisted_mcg_recursion(w))
        add_action("mcg", w, action=mcg_word_action(w))
    for w in reduced_words(MODULI, 3):
        add_action("ab", w, action=word_action(w))
        for v in VARIANTS:
            add_recursion(v, w, rec=twisted_quater_recursion(v, w))
    add_recursion("fstar", rec=fstar_recursion())
    assert h.hexdigest() == TWIST_TABLES_DIGEST


def test_dehn_twist_about_one_puncture_is_trivial():
    for g in PI1.gens():
        for power in (1, -1, 3):
            assert dehn_twist((g,), power) == Endo.identity(PI1)


@pytest.mark.parametrize("loop", ["alpha beta", "alpha beta gamma", "alpha beta alpha"])
def test_dehn_twist_rejects_a_loop_not_about_one_letter(loop):
    with pytest.raises(ValueError):
        dehn_twist((BE, PI1.parse(loop)), 1)


def test_dehn_twist_rejects_an_empty_curve():
    with pytest.raises(ValueError):
        dehn_twist((), 1)


def test_identity_endo():
    e = Endo.identity(PI1)
    rng = random.Random(5)
    for _ in range(50):
        w = random_word(PI1, rng.randrange(12), rng)
        assert e(w) == w


def test_endo_inverse_letters_map_to_inverted_images():
    t = mcg_word_action(T)
    assert t(~BE) == ~t(BE)


def test_t_then_t_inverse_is_identity_exhaustive():
    e = mcg_word_action(T).then(mcg_word_action(~T))
    f = mcg_word_action(~T).then(mcg_word_action(T))
    for w in reduced_words(PI1, 4):
        assert e(w) == w
        assert f(w) == w


def test_t_then_t_inverse_is_identity_long_random():
    e = mcg_word_action(T).then(mcg_word_action(~T))
    rng = random.Random(13)
    for _ in range(40):
        w = random_word(PI1, 16, rng)
        assert e(w) == w


def test_s_then_s_inverse_is_identity():
    e = mcg_word_action(S).then(mcg_word_action(~S))
    for w in reduced_words(PI1, 3):
        assert e(w) == w


def test_endo_composition_convention():
    # applying a composite = applying the first factor, then the second
    e1, e2 = mcg_word_action(T), mcg_word_action(S)
    rng = random.Random(17)
    for _ in range(30):
        w = random_word(PI1, 8, rng)
        assert e1.then(e2)(w) == e2(e1(w))


#: public entry points that take a word over one family alphabet, each
#: called with a word over another
WRONG_ALPHABET_CALLS = {
    "affine_image": lambda: periodic2.affine_image(T),
    "q_image": lambda: periodic2.q_image(T),
    "classify_mod5": lambda: periodic2.classify_mod5(T),
    "classify_full": lambda: periodic2.classify_full(T),
    "classify_numeric": lambda: moduli.classify_numeric(moduli.i_family(), T),
    "phi_apply": lambda: wreath.phi_apply(periodic2.fi_recursion(), T),
    "coordinate_step": lambda: wreath.coordinate_step(
        periodic2.moduli_i_recursion(), 1, AB.gen("a"), T
    ),
    "restrict": lambda: wreath.restrict(periodic2.fi_recursion(), T, "0"),
    "act": lambda: wreath.act(periodic2.fi_recursion(), T, "0"),
    "mcg_word_action": lambda: mcg_word_action(AB.gen("a")),
    "word_action": lambda: word_action(T),
    # the identity is a leaf of the kernel walk, so this checks before it
    "gx_equal": lambda: periodic2.gx_equal(T, T),
    "word_path": lambda: moduli.word_path(moduli.rabbit_family(), AB.gen("a")),
    "homotopy_shift": lambda: selfsim.homotopy_shift(
        periodic2.fi_recursion(), periodic2.moduli_i_recursion(), AB.gen("a"), 2
    ),
}


@pytest.mark.parametrize("name", WRONG_ALPHABET_CALLS)
def test_a_word_over_the_wrong_alphabet_raises_alphabet_mismatch(name):
    with pytest.raises(AlphabetMismatch):
        WRONG_ALPHABET_CALLS[name]()


def test_alphabet_mismatch_raises():
    other = Alphabet(("x", "y"))
    with pytest.raises(AlphabetMismatch):
        AL * other.gen("x")
    with pytest.raises(AlphabetMismatch):
        AL.conjugate(other.gen("x"))


def test_reduce_rejects_foreign_letters():
    with pytest.raises(AlphabetMismatch):
        PI1.word([("T", 1)])
    # a letter outside the alphabet's letter set is named letter by letter,
    # an unhashable one too
    with pytest.raises(AlphabetMismatch):
        GenWord(PI1, ((["alpha"], 1),))
    with pytest.raises(ValueError, match="sign must be"):
        GenWord(PI1, (("alpha", 2),))


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_words_always_stored_reduced():
    with pytest.raises(ValueError):
        GenWord(PI1, (("alpha", 1), ("alpha", -1)))


# --- parsing ------------------------------------------------------------------

GRAMMAR = Alphabet(("T", "S", "a"))


def test_parse_grammar_example():
    w = GRAMMAR.parse("(S T)^-3 a'")
    st = GRAMMAR.gen("S") * GRAMMAR.gen("T")
    assert w == st ** -3 * ~GRAMMAR.gen("a")


def test_parse_powers_and_apostrophes():
    assert GRAMMAR.parse("T^4") == GRAMMAR.gen("T") ** 4
    assert GRAMMAR.parse("T^-2") == GRAMMAR.gen("T") ** -2
    assert GRAMMAR.parse("a''") == GRAMMAR.gen("a")
    assert GRAMMAR.parse("1").is_identity
    assert GRAMMAR.parse("  ").is_identity


def test_parse_longest_name_match():
    two = Alphabet(("a", "ab"))
    w = two.parse("ab a")
    assert w.letters == (("ab", 1), ("a", 1))
    # a run of letters is one token, which must not split "ab" as a b
    three = Alphabet(("a", "ab", "b"))
    assert three.parse("ab").letters == (("ab", 1),)
    assert three.parse("a b").letters == (("a", 1), ("b", 1))


#: ("a", "ab") has a name that starts another, and in ("a", "ab", "b") the
#: juxtaposed letters a, b spell a third
RUN_ALPHABETS = [MCG, AB, PI1, Alphabet(("a", "ab")), Alphabet(("a", "ab", "b"))]
GAPS = st.sampled_from(["", " ", "  ", "\t", "\n "])


@given(st.sampled_from(RUN_ALPHABETS), st.data())
@settings(max_examples=300, deadline=None)
def test_parse_reads_a_run_letter_by_letter(alphabet, data):
    # each letter is a name and up to three apostrophes, any of them after
    # whitespace; letters are juxtaposed or apart
    letters = data.draw(st.lists(
        st.tuples(st.sampled_from(alphabet.names), st.lists(GAPS, max_size=3)),
        max_size=30,
    ))
    text = data.draw(GAPS)
    for name, primes in reversed(letters):
        gap = data.draw(GAPS)
        # a plain name juxtaposed with a text that spells a longer name
        # would be read as that name, so it takes a space
        if not gap and not primes and any(
            len(n) > len(name) and (name + text).startswith(n)
            for n in alphabet.names
        ):
            gap = " "
        text = name + "".join(g + "'" for g in primes) + gap + text
    text = data.draw(GAPS) + text
    want = alphabet.word((name, (-1) ** len(primes)) for name, primes in letters)
    assert alphabet.parse(text) == want


# ("a", "ab") has a name that is a prefix of another
@pytest.mark.parametrize("alphabet", [PI1, MCG, AB, Alphabet(("a", "ab"))],
                         ids=lambda a: "-".join(a.names))
def test_str_round_trip(alphabet):
    rng = random.Random(23)
    for _ in range(100):
        w = random_word(alphabet, rng.randrange(10), rng)
        assert alphabet.parse(str(w)) == w


@pytest.mark.parametrize("alphabet", [MCG, PI1], ids=lambda a: "-".join(a.names))
def test_parse_reduces_from_the_first_cancellation(alphabet):
    # the parser reduces only from the first letter followed by its inverse:
    # a cancellation at the start, inside, at the end and across the whole
    # text, and none, against the letter-by-letter reduction of the text
    rng = random.Random(29)
    for _ in range(20):
        w = random_word(alphabet, rng.randrange(2, 300), rng)
        k = rng.randrange(len(w) + 1)
        u, v = alphabet.word(w.letters[:k]), alphabet.word(w.letters[k:])
        for text in (f"{w}", f"{~u} {w}", f"{u} {~u} {v}", f"{w} {~v}",
                     f"{w} {~w}", f"{u} {w} {~v}"):
            letters = [alphabet.parse(piece).letters[0] for piece in text.split()]
            assert alphabet.parse(text) == alphabet.word(letters), text


def tokenizer_parse(alphabet: Alphabet, text: str) -> GenWord:
    """The word the tokenizer reads from ``text``, which has no parentheses:
    in parentheses it holds an operator, so it never takes the path for
    letters apart, and it reads as the same word; an error's position moves
    back past the '('."""
    try:
        return alphabet.parse(f"({text})")
    except WordParseError as err:
        message = str(err).rpartition(" (at position")[0]
        raise WordParseError(message, err.position - 1) from None


def outcome(parse, alphabet: Alphabet, text: str) -> tuple:
    try:
        w = parse(alphabet, text)
    except WordParseError as err:
        return str(err), err.position
    # a word read from its spelling keeps the single-spaced one
    assert str(w) == str(alphabet.word(w.letters)), repr(text)
    return w.letters,


#: whitespace that str.split and the tokenizer's \s both take
WHITESPACE = st.sampled_from(
    [" ", "  ", "\t", "\n", " \t ", "\r\n", "\x0b\x0c", "\xa0", "\u2003", "\x1c"]
)


@st.composite
def spelled_texts(draw, alphabet: Alphabet):
    """A text of letter spellings apart, with inserted cancellations at the
    start, inside or at the end, and at times the inverse of the whole word
    after it; a few pieces are juxtaposed, "1" or a detached or doubled
    apostrophe, which the tokenizer must read."""
    letter = st.tuples(st.sampled_from(alphabet.names), st.sampled_from([1, -1]))
    letters = draw(st.lists(letter, max_size=20))
    for at, (name, sign) in draw(st.lists(
        st.tuples(st.integers(0, len(letters)), letter), max_size=3
    )):
        letters[at:at] = [(name, sign), (name, -sign)]
    if draw(st.booleans()):
        letters += [(name, -sign) for name, sign in reversed(letters)]
    pieces = [name + "'" * (sign < 0) for name, sign in letters]
    if pieces and draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(pieces) - 1))
        pieces[at] = draw(st.sampled_from(["1", "'", "''", pieces[at] + "'"]))
    text = draw(st.sampled_from(["", " ", "\t"]))
    for i, piece in enumerate(pieces):
        gap = draw(WHITESPACE)
        if i and draw(st.integers(0, 15)) == 0:
            gap = ""
        text += (gap if i else "") + piece
    return text + draw(st.sampled_from(["", " ", "\n"]))


def assert_read_as_the_tokenizer(alphabet: Alphabet, text: str) -> None:
    got = outcome(Alphabet.parse, alphabet, text)
    assert got == outcome(tokenizer_parse, alphabet, text), repr(text)


@given(st.sampled_from(RUN_ALPHABETS), st.data())
@settings(max_examples=300, deadline=None)
def test_parse_reads_letters_apart_as_the_tokenizer(alphabet, data):
    assert_read_as_the_tokenizer(alphabet, data.draw(spelled_texts(alphabet)))


@given(st.sampled_from(RUN_ALPHABETS), st.data())
@settings(max_examples=8, deadline=None)
def test_parse_reads_letters_apart_as_the_tokenizer_at_the_cap(alphabet, data):
    # exactly MAX_WORD_LENGTH letters apart, or one more, which the
    # tokenizer refuses at the letter that crossed the cap
    chunk = data.draw(spelled_texts(alphabet).filter(lambda t: t.strip()))
    pieces = chunk.split()
    count = data.draw(st.sampled_from([MAX_WORD_LENGTH, MAX_WORD_LENGTH + 1]))
    pieces = (pieces * (count // len(pieces) + 1))[:count]
    gap = data.draw(WHITESPACE)
    text = gap.join(pieces) + data.draw(st.sampled_from(["", " "]))
    assert_read_as_the_tokenizer(alphabet, text)


def test_parse_errors_carry_position():
    with pytest.raises(WordParseError) as err:
        GRAMMAR.parse("T x")
    assert err.value.position == 2
    with pytest.raises(WordParseError):
        GRAMMAR.parse("T^")
    with pytest.raises(WordParseError):
        GRAMMAR.parse("(T S")
    # a ')' that closes no '(' is an error, not the end of the word
    with pytest.raises(WordParseError, match="unbalanced") as err:
        GRAMMAR.parse("T) S")
    assert err.value.position == 1
    with pytest.raises(WordParseError, match="unbalanced") as err:
        GRAMMAR.parse(")")
    assert err.value.position == 0


N = MAX_WORD_LENGTH


@pytest.mark.parametrize("text, length", [
    (f"T^{N}", N),
    (f"(T S)^{N // 2}", N),
    (f"T^{N - 1} S", N),
    # the conjugating ends of a power appear once
    (f"(T S T')^{N - 2}", N),
    # the cap is on letters, so an identity power passes
    ("1^999999", 0),
])
def test_parse_accepts_words_up_to_the_length_cap(text, length):
    assert len(GRAMMAR.parse(text)) == length


@pytest.mark.parametrize("text", [
    f"T^{N + 1}",
    f"T^-{N + 1}",
    f"(T S)^{N // 2 + 1}",
    f"T^{N} S",
    f"(T S T')^{N - 1}",
    "(T S)^3000000",
    "T^" + "9" * 5000,
    # letters count before free reduction
    f"T^{N // 2 + 1} T'^{N // 2}",
])
def test_parse_rejects_words_past_the_length_cap(text):
    with pytest.raises(WordParseError, match="cap|past"):
        GRAMMAR.parse(text)


#: a text of exactly N plain letters, none of them a power
PLAIN_CAP = "T S' " * (N // 2)


@pytest.mark.parametrize("before, after", [
    ("", ""),
    ("", " S T'"),
    ("", "' S^2"),
    ("(", " S)"),
    ("", "(S)"),
])
def test_parse_caps_a_run_of_plain_letters(before, after):
    # a run of letters is read in one step, yet the error points at the
    # first character of the letter that crossed the cap, the "a"
    assert len(GRAMMAR.parse(PLAIN_CAP)) == N
    text = before + PLAIN_CAP + "a" + after
    with pytest.raises(WordParseError, match="past") as err:
        GRAMMAR.parse(text)
    assert err.value.position == len(before + PLAIN_CAP)


def test_parse_work_past_the_cap_is_bounded_by_the_cap():
    # a run is cut at the cap, so a text of 2,000,000 letters is refused
    # after about two runs' worth of them, as one letter at a time was
    text = "T " * (20 * N)
    tracemalloc.start()
    try:
        with pytest.raises(WordParseError, match="past") as err:
            GRAMMAR.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.position == 2 * N
    # ~190 bytes per cap letter; an uncut run took ~6,000, the text's worth
    assert peak < 400 * N


def test_parse_refuses_an_oversized_power_before_building_it():
    # the power is checked before it is built, so "(T^N)^999999" costs no
    # 10^11-letter tuple; the error points at its '^'
    with pytest.raises(WordParseError, match="power") as err:
        GRAMMAR.parse(f"(T^{N})^2")
    assert err.value.position == len(f"(T^{N})")


def test_parse_nesting_cap():
    depth = MAX_NESTING_DEPTH
    assert GRAMMAR.parse("(" * depth + "T" + ")" * depth) == GRAMMAR.gen("T")
    with pytest.raises(WordParseError, match="nest") as err:
        GRAMMAR.parse("(" * 1500 + "T" + ")" * 1500)
    assert err.value.position == depth


@pytest.mark.parametrize("text", ["T^\u00b2", "T^\u0663", "T^-\u00b2"])
def test_parse_exponents_take_ascii_digits_only(text):
    # str.isdigit admits these, and int() refuses the first
    with pytest.raises(WordParseError):
        GRAMMAR.parse(text)
