import json

import pytest

from twistclass.cli import main, RECURSIONS
from twistclass.labels import AIRPLANE, F34, Diverged
from twistclass.preperiod2 import MODULI, classify_quater
from twistclass.rabbit import MCG, classify_mcg


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


def test_classify_rabbit_power(capsys):
    code, payload, _ = run_json(capsys, "classify-rabbit", "--power", "-4")
    assert code == 0
    assert payload["label"] == "corabbit"


def test_classify_rabbit_word(capsys):
    code, payload, _ = run_json(capsys, "classify-rabbit", "T'")
    assert code == 0
    assert payload["label"] == "corabbit"
    assert MCG.parse(payload["witness"]) is not None
    assert payload["iterations"] >= 0


def test_classify_rabbit_st_power(capsys):
    code, payload, _ = run_json(capsys, "classify-rabbit", "--st-power", "2")
    assert code == 0
    assert payload["label"] == "rabbit"


def test_classify_i_identity(capsys):
    code, payload, _ = run_json(capsys, "classify-i", "a'a")
    assert code == 0
    assert payload["label"] == "f_i"


def test_classify_i_obstructed_carries_index(capsys):
    code, payload, _ = run_json(capsys, "classify-i", "a b^5")
    assert code == 0
    assert payload["label"] == "obstructed"
    assert payload["index"] == 5


def test_classify_quater(capsys):
    code, payload, _ = run_json(capsys, "classify-quater", "a")
    assert code == 0
    assert payload["label"] == "f_5/12"


def test_nucleus_json(capsys):
    code, payload, _ = run_json(capsys, "nucleus", "mcg-rabbit")
    assert code == 0
    assert payload["count"] == 7
    assert len(payload["states"]) == 7
    for state in payload["states"]:
        MCG.parse(state)


def test_nucleus_output_stable(capsys):
    _, first, _ = run(capsys, "nucleus", "mcg-rabbit", "--json")
    _, second, _ = run(capsys, "nucleus", "mcg-rabbit", "--json")
    assert first == second


def test_nucleus_dot(capsys):
    code, out, _ = run(capsys, "nucleus", "mcg-rabbit", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "fillcolor=grey" in out


def test_distinct_command(capsys):
    code, payload, _ = run_json(capsys, "distinct", "rabbit", "airplane")
    assert code == 0
    assert payload["distinct"] is True
    code, payload, _ = run_json(capsys, "distinct", "rabbit", "rabbit")
    assert payload["distinct"] is False


def test_trivial_command(capsys):
    code, payload, _ = run_json(capsys, "trivial", "moduli-i", "a^2")
    assert code == 0
    assert payload["trivial"] is True
    code, payload, _ = run_json(capsys, "trivial", "moduli-i", "b")
    assert payload["trivial"] is False
    assert MCG.parse(payload["witness"].replace("a", "T").replace("b", "S"))


def test_moduli_command(capsys):
    code, payload, _ = run_json(capsys, "moduli", "rabbit", "T")
    assert code == 0
    assert payload["label"] == "airplane"
    assert payload["iterations"] > 0


def test_moduli_trace_file(capsys, tmp_path):
    path = tmp_path / "trace.txt"
    code, _, _ = run(capsys, "moduli", "rabbit", "T", "--trace-file", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines and lines[0].split()[0] == "0"


def test_moduli_unwritable_trace_file(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "trace.txt"
    code, out, err = run(capsys, "moduli", "rabbit", "T", "--trace-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "abc"])
def test_moduli_rejects_a_bad_tolerance(capsys, tol):
    code, out, err = run(capsys, "moduli", "rabbit", "T", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "classify-i", "xyz")
    assert code == 2
    assert "position" in err


def test_bound_exceeded_exit_code(capsys):
    code, payload, err = run_json(capsys, "nucleus", "moduli-i", "--bound", "50")
    assert code == 3
    assert payload["label"] == "bound-exceeded"
    assert "bound" in err


def test_unknown_recursion_name(capsys):
    code, _, _ = run(capsys, "nucleus", "no-such-thing")
    assert code == 2


def test_registry_names():
    assert set(RECURSIONS) == {
        "rabbit", "airplane", "corabbit", "mcg-rabbit", "fi", "fstar",
        "moduli-i", "q14", "q34", "q512", "moduli-q",
    }


def test_moduli_diverged_exit_code(capsys):
    code, _, err = run(capsys, "moduli", "rabbit", "T", "--max-lifts", "2")
    assert code == 3
    assert "gave up" in err


def test_classify_rabbit_requires_input(capsys):
    code, _, err = run(capsys, "classify-rabbit")
    assert code == 2


def test_nucleus_of_action_level_recursion(capsys):
    code, payload, _ = run_json(capsys, "nucleus", "fi")
    assert code == 0
    assert payload["count"] == 8


@pytest.mark.parametrize("command, text, steps, label, witness, classify, alphabet", [
    ("classify-rabbit", "T^200", 6, AIRPLANE, "T", classify_mcg, MCG),
    ("classify-quater", "a b^50", 6, F34, "a a", classify_quater, MODULI),
])
def test_classify_gives_up_on_a_spent_budget(
    capsys, command, text, steps, label, witness, classify, alphabet
):
    # the orbit reaches its terminal in `steps` steps: a budget of exactly
    # that many gives up, in the CLI and in the library alike
    code, payload, _ = run_json(capsys, command, text, "--max-iters", str(steps))
    assert code == 3
    assert payload["label"] == "diverged"
    with pytest.raises(Diverged):
        classify(alphabet.parse(text), steps)

    code, payload, _ = run_json(capsys, command, text, "--max-iters", str(steps + 1))
    assert code == 0
    assert payload["label"] == label.kind
    assert payload["iterations"] == steps
    assert payload["witness"] == witness
    assert classify(alphabet.parse(text), steps + 1) == label
