"""Hypothesis-drawn text through the word parser and the command line: only
a word, a parse error or exit codes 0, 2 and 3 may come out."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from twistclass.cli import main
from twistclass.labels import WordParseError
from twistclass.preperiod2 import MODULI
from twistclass.rabbit import MCG, PI1
from twistclass.words import MAX_WORD_LENGTH, GenWord

#: pieces that mostly follow the grammar, plus exponents and nestings near
#: and past the caps, and non-ASCII digits
PIECES = (
    "a", "b", "T", "S", "alpha", "beta", "gamma", "x", "'", "^", "^2", "^-3",
    "^+12", "^0", "^999", "^-50000", "^100001", "^" + "9" * 30, "(", ")",
    "(" * 40, ")" * 40, "1", " ", "  ", "\u00b2", "\u0663",
)

texts = st.lists(
    st.sampled_from(PIECES) | st.text(max_size=2), max_size=24
).map("".join)


@given(st.sampled_from([MODULI, MCG, PI1]), texts)
@settings(max_examples=300, deadline=None)
def test_parse_gives_a_word_or_a_parse_error(alphabet, text):
    try:
        w = alphabet.parse(text)
    except WordParseError:
        return
    assert isinstance(w, GenWord)
    assert w.alphabet == alphabet
    assert len(w) <= MAX_WORD_LENGTH
    assert text.count("(") == text.count(")")
    assert alphabet.parse(str(w)) == w


#: each command with the budgets it reads; any other option would exit 2
#: before the text is parsed
COMMANDS = (
    (("classify-rabbit",), ()),
    (("classify-quater",), ()),
    (("classify-i",), ()),
    (("trivial", "moduli-i"), ("--bound",)),
    (("trivial", "rabbit"), ("--bound",)),
)


@given(st.sampled_from(COMMANDS), texts, st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_cli_exits_0_2_or_3_on_any_text(command, text, bound):
    words, options = command
    argv = [*words, text]
    for option in options:
        argv += [option, str(bound)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    assert code in (0, 2, 3)
