"""The library surface that the commands run.

Every ``vtc`` command on both built-in models (the report in both formats,
the bracket plain and on the leaf), ``model.print_model`` of both, and the
200 seed-0 calculus queries of ``perfbench/calculus.py`` run in-process
under a profile hook, which records every function of the ``vtc`` package
that is entered.  The definitions that none of them enters are pinned in
``NEVER_ENTERED`` by file and qualified name, not by line, so an edit
elsewhere in a file moves no pin; each has the reason it stays: an error
path, a ``__repr__``, code that runs only while the package is imported,
or documented API that README or the tests use.  A
definition that the commands stop entering fails the test until it is
moved to the tests, deleted or pinned with its reason; one that they start
entering fails it until its pin goes.
"""

import ast
import contextlib
import io
import pathlib
import sys

import vtc
from vtc import builtin_models, cli, model

from test_linsolve import _load_calculus

SRC = pathlib.Path(vtc.__file__).parent

ERROR = "an error path: no command input raises it"
REPR = "a __repr__, for the reader of a session or a test failure"
README_QQ = "README's [Q, Q] = 0 block uses it"
SCALE_FIELD = ("builds e^{-X}, the inverse flow that pullback's docstring "
               "names; test_pullback_inverts uses it")
DERIVED_BRACKET = ("the benchmark's tracer installs a span on it (ROADMAP "
                   "item 14); the oracle of report._algebra_closure")
TESTS_USE = "the tests use it across the suite"
SCALAR_API = ("the scalar's half of an operation that forms have too; the "
              "tests use it")
BY_VALUE = ("pairs with __eq__, which drops the default hash: values are "
            "equal and hash alike by value, as the tests check")
IMPORT = ("runs while the package is imported, when each module declares "
          "its records, before any command")
RECORD_VALUE = ("a record compares, and a frozen one hashes, by its fields; "
                "no command compares records, and the tests check both")
FROZEN = ("refuses to change a frozen record's field: no command tries, "
          "and the tests check that it raises")

# (file, qualified name): reason
NEVER_ENTERED = {
    ("foliation.py", "IncompletePhaseMapError.__init__"): ERROR,
    ("forms.py", "LocalForm.__repr__"): REPR,
    ("forms.py", "LocalForm.__mul__"): TESTS_USE,
    ("forms.py", "contact"): TESTS_USE,
    ("forms.py", "EvoField.apply"): README_QQ,
    ("forms.py", "EvoField.is_zero"): README_QQ,
    ("forms.py", "EvoField.__eq__"): BY_VALUE,
    ("forms.py", "EvoField.__hash__"): BY_VALUE,
    ("forms.py", "EvoField.__repr__"): REPR,
    ("forms.py", "scale_field"): SCALE_FIELD,
    ("forms.py", "commutator"): README_QQ,
    ("grading.py", "derived_bracket"): DERIVED_BRACKET,
    ("kernel.py", "DeclarationError.__init__"): ERROR,
    ("kernel.py", "Fresh.__init__"): IMPORT,
    ("kernel.py", "record"): IMPORT,
    ("kernel.py", "record.<locals>.__eq__"): RECORD_VALUE,
    ("kernel.py", "record.<locals>.__hash__"): RECORD_VALUE,
    ("kernel.py", "record.<locals>.__repr__"): REPR,
    ("kernel.py", "record.<locals>.__setattr__"): FROZEN,
    ("kernel.py", "record.<locals>.__delattr__"): FROZEN,
    ("kernel.py", "Spectrum.__hash__"): BY_VALUE,
    ("kernel.py", "GradedScalar.is_zero"): SCALAR_API,
    ("kernel.py", "GradedScalar.__repr__"): REPR,
    ("kernel.py", "GradedScalar.__rsub__"): SCALAR_API,
    ("kernel.py", "GradedScalar.parity"): SCALAR_API,
    ("kernel.py", "GradedScalar.max_jet_order"): TESTS_USE,
    ("parser.py", "ParseError.__init__"): ERROR,
    ("parser.py", "_shown"): ERROR,
    ("parser.py", "_Parser.fail"): ERROR,
    ("symplectic.py", "NoHamiltonianFieldError.__init__"): ERROR,
    ("variational.py", "NotDivergenceError.__init__"): ERROR,
}

# exit code of each command: maxwell has no homogenizer
COMMANDS = [
    (["check-master", "maxwell"], 0),
    (["descend", "maxwell"], 0),
    (["current", "maxwell"], 0),
    (["homogenize", "maxwell"], 1),
    (["report", "maxwell"], 0),
    (["report", "maxwell", "--format", "text"], 0),
    (["bracket", "maxwell", "--a", "A[1]*A[1] ^ vol", "--b", "As[1] ^ vol"], 0),
    (["bracket", "maxwell", "--foliated", "--a", "C ^ vol",
      "--b", "As[0] ^ vol"], 0),
    (["check-master", "chiral"], 0),
    (["descend", "chiral"], 0),
    (["current", "chiral"], 0),
    (["homogenize", "chiral"], 0),
    (["report", "chiral"], 0),
    (["report", "chiral", "--format", "text"], 0),
    (["bracket", "chiral", "--a", "phib[0]*phib[0] ^ vol",
      "--b", "phi[0] ^ vol"], 0),
    (["bracket", "chiral", "--foliated", "--a", "etab[0] ^ vol",
      "--b", "etab[1] ^ vol"], 0),
]


def definitions():
    """Every function definition of the package: its qualified name, keyed
    by its file and its first line, decorators included, as its code
    object's ``co_firstlineno`` is."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = prefix + child.name
                    defs[(path.name, first)] = name
                    stack.append((child, name + ".<locals>."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + "."))
                else:
                    stack.append((child, prefix))
    return defs


def run_commands():
    for argv, code in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == code, argv
    for name in builtin_models.BUILTINS:
        model.print_model(builtin_models.builtin(name))
    calculus = _load_calculus()
    calc = calculus.Calculus(vtc)
    assert all(ok for ok, _ in (calc.run(q)
                                for q in calculus.make_queries(0, 200)))


def entered_under(run):
    """(file, first line, name) of every package code object entered during
    run(): functions, and also lambdas and comprehensions."""
    src = str(SRC)
    names = {}
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = names.get(code.co_filename)
            if name is None:
                path = pathlib.Path(code.co_filename)
                name = names[code.co_filename] = (
                    path.name if str(path.parent) == src else "")
            if name:
                entered.add((name, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return entered


def test_qualified_names_are_unique_per_file():
    # so that (file, qualified name) names one definition
    names = [(file, name) for (file, _), name in definitions().items()]
    assert len(names) == len(set(names))


def test_the_commands_enter_every_definition_but_the_pinned_ones():
    previous = sys.getprofile()
    defs = definitions()
    entered = entered_under(run_commands)
    assert sys.getprofile() is previous
    entered = {(file, defs[(file, line)]) for file, line, name in entered
               if defs.get((file, line), "").rpartition(".")[2] == name}
    never = {(file, name) for (file, _), name in defs.items()} - entered
    assert sorted(never) == sorted(NEVER_ENTERED)
