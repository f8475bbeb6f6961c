"""A grammar fuzzer for the input contract of the command line.

In the style of mutation fuzzing (Zeller et al., *The Fuzzing Book*): take
a valid input, replace, delete or insert one or two tokens drawn from a
fixed vocabulary of the grammar, and run the result through ``cli.main``
in-process.  Whatever the mutant, the command must exit 0, 1 or 2, let no
exception escape, and explain every exit 2 on a ``vtc: `` line of stderr.
The seeds are the shipped model files and the bracket expressions of the
command line.  Examples are derandomized, so every run sees the same
mutants.
"""

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from vtc import builtin_models, cli

# Every character of a text falls in exactly one piece, so joining the
# pieces gives the text back.  Whitespace pieces are never mutated.
_PIECE = re.compile(r"\s+|\d+(?:/\d+)?|[A-Za-z_]\w*|->|:=|\S")

VOCABULARY = (
    # declarations and attributes
    "model", "dim", "metric", "parameter", "field", "algebra", "structure",
    "density", "master", "foliation", "time", "map", "phase", "parity",
    "ghost", "role", "shape", "conjugate", "slots", "factor", "constants",
    "form", "internal", "base", "source", "antifield", "su2", "odd",
    # names, reserved and declared
    "A", "As", "C", "E", "D", "phi", "phib", "eta", "etab", "k", "lam",
    "vol", "dx", "x", "d", "del", "ib",
    # numbers and punctuation
    "0", "1", "2", "3", "5", "1/2", "1/0", "{", "}", "(", ")", "[", "]",
    ",", "=", "+", "-", "*", "^", "->", ":=", "\n",
)

EXPRESSIONS = {
    "maxwell": ("C ^ vol", "As[0] ^ vol", "A[1],[0] * As[1] ^ vol"),
    "chiral": ("etab[0] ^ d(phi[0] ^ (dx[0] + dx[1]))",
               "k*etab[1]*phib[2] ^ vol", "etab[2] ^ vol"),
}


def mutate(text, edits):
    """Apply (kind, site, word) edits to the non-blank pieces of ``text``."""
    pieces = _PIECE.findall(text)
    for kind, site, word in edits:
        slots = [i for i, p in enumerate(pieces) if not p.isspace()]
        if not slots:
            break
        i = slots[site % len(slots)]
        if kind == "replace":
            pieces[i] = word
        elif kind == "delete":
            del pieces[i]
        else:
            pieces.insert(i, word + " ")
    return "".join(pieces)


EDITS = st.lists(
    st.tuples(st.sampled_from(("replace", "delete", "insert")),
              st.integers(0, 10_000), st.sampled_from(VOCABULARY)),
    min_size=1, max_size=2)

FUZZ = settings(max_examples=150, derandomize=True, deadline=None)


def run_cli(argv):
    """(exit code, stderr) of ``cli.main`` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def assert_contract(rc, err):
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.startswith("vtc: ")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", builtin_models.BUILTINS)
def test_mutated_model_files_keep_the_exit_contract(workdir, name):
    path = workdir / f"{name}.vtc"
    seed = builtin_models.model_text(name)

    @FUZZ
    @given(edits=EDITS,
           command=st.sampled_from(("check-master", "descend", "current")))
    def check(edits, command):
        path.write_text(mutate(seed, edits), encoding="utf-8")
        assert_contract(*run_cli([command, str(path)]))

    check()


@pytest.mark.parametrize("name", builtin_models.BUILTINS)
def test_mutated_bracket_expressions_keep_the_exit_contract(name):
    seeds = EXPRESSIONS[name]

    @FUZZ
    @given(a=st.sampled_from(seeds), b=st.sampled_from(seeds),
           edits=EDITS, which=st.booleans())
    def check(a, b, edits, which):
        if which:
            a = mutate(a, edits)
        else:
            b = mutate(b, edits)
        assert_contract(*run_cli(["bracket", name, f"--a={a}", f"--b={b}"]))

    check()


def test_mutation_keeps_the_untouched_text():
    text = builtin_models.model_text("chiral")
    assert "".join(_PIECE.findall(text)) == text
    assert mutate("a ^ b", [("replace", 1, "+")]) == "a + b"
    assert mutate("a ^ b", [("delete", 0, "x")]) == " ^ b"
    assert mutate("a ^ b", [("insert", 2, "d")]) == "a ^ d b"
