"""A grammar fuzzer for the input contract of the command line.

In the style of mutation fuzzing (Zeller et al., *The Fuzzing Book*): take
a valid input, replace, delete or insert one or two tokens drawn from a
fixed vocabulary of the grammar, and run the result through ``cli.main``
in-process.  A model mutant may also rewrite up to three number literals
and skip the token edits, so that many mutants parse and the commands run
past the parser.  Whatever the mutant, the command must exit 0, 1 or 2, let
no exception escape, and explain every exit 2 on a ``vtc: `` line of stderr.
A mutated model text that the parser accepts must also print as a text
that parses back to an equal model and prints the same, and hold every
coefficient in its one form (``kernel.exact``).
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

from vtc import builtin_models, cli, kernel, model, parser

from test_exact import coefficients
from test_linsolve import is_exact

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

# Number literals for the round trip, integral ones in several spellings.
LITERALS = ("0", "1", "2", "3", "4/2", "2/4", "3/2", "6/3", "10/4")

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

# No edit at all, or the edits of EDITS.
EDITS_OR_NONE = st.one_of(st.just([]), EDITS)

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


def _replaced(text, literals):
    """``text`` with the (piece index, word) replacements made."""
    pieces = _PIECE.findall(text)
    for i, word in literals:
        pieces[i] = word
    return "".join(pieces)


def _parses(text):
    """The model of ``text``, or None when the parser rejects it."""
    try:
        return parser.parse_model(text)
    except (parser.ParseError, kernel.EngineError):
        return None


def literal_rewrites(seed):
    """Lists of up to three (piece index, literal) rewrites of ``seed``.

    They touch only the number literals the parser reads as rationals: most
    token edits break the grammar, while edits of these alone keep it and
    reach every literal the parser reads.
    """
    rationals = [i for i, p in enumerate(_PIECE.findall(seed))
                 if p[0].isdigit() and _parses(_replaced(seed, [(i, "3/2")]))]
    assert rationals
    return st.lists(st.tuples(st.sampled_from(rationals),
                              st.sampled_from(LITERALS)), max_size=3)


@pytest.mark.parametrize("name", builtin_models.BUILTINS)
def test_mutated_model_files_keep_the_exit_contract(workdir, name):
    path = workdir / f"{name}.vtc"
    seed = builtin_models.model_text(name)
    parsed = 0

    @FUZZ
    @given(edits=EDITS_OR_NONE, literals=literal_rewrites(seed),
           command=st.sampled_from(("check-master", "descend", "current")))
    def check(edits, literals, command):
        nonlocal parsed
        text = mutate(_replaced(seed, literals), edits)
        parsed += _parses(text) is not None
        path.write_text(text, encoding="utf-8")
        assert_contract(*run_cli([command, str(path)]))

    check()
    # enough accepted mutants that the commands run past the parser
    assert parsed >= 40


@pytest.mark.parametrize("name", builtin_models.BUILTINS)
def test_accepted_mutated_models_print_and_parse_back(name):
    # a mutant the parser accepts must mean exactly what it prints: the
    # printed text parses back to an equal model, which prints the same text
    seed = builtin_models.model_text(name)

    @FUZZ
    @given(edits=EDITS_OR_NONE, literals=literal_rewrites(seed))
    def check(edits, literals):
        m = _parses(mutate(_replaced(seed, literals), edits))
        if m is None:
            return
        assert all(map(is_exact, coefficients(m)))
        text = model.print_model(m)
        again = parser.parse_model(text)
        assert again == m
        assert model.print_model(again) == text

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
