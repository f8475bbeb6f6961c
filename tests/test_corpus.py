"""A pinned corpus of reports beyond the two built-ins.

Each model of the corpus has its report pinned in ``corpus.json``: its
verdict and the sha256 of its JSON and text emissions.  A change to any
mathematical answer, to generator order (the row-echelon solves pick their
pivots in it) or to the report layout breaks a pin, as it breaks the
built-in pins of ``test_frontend.py``.  The corpus:

- Maxwell in dimension 2, 3, 5 and 6 (``modelgen.maxwell``); dimension 4
  is the shipped ``maxwell.vtc``, checked against the built-in pins;
- su(2) Yang-Mills in dimension 2, 3 and 4 (``modelgen.yang_mills``), and
  in dimension 3 with the coupling signs (+, -, +), which fail the master
  equation.  The three passing reports are byte for byte the ones of the
  ROADMAP baseline;
- accepted fuzz mutants of both built-ins, written out in ``corpus.json``
  as text with the ``test_fuzz.mutate`` edits that made them.

Every pin is checked in-process, and once more in one subprocess under
another hash seed.
"""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from vtc import builtin_models, parser, report

import modelgen
from test_frontend import PINNED_REPORT_SHA256

HERE = pathlib.Path(__file__).parent
PINS = json.loads((HERE / "corpus.json").read_text(encoding="utf-8"))


def corpus_texts(mutants):
    """Model text of every corpus case, by case name."""
    texts = {f"maxwell-{n}": modelgen.maxwell(n) for n in (2, 3, 5, 6)}
    texts.update({f"ym-{n}": modelgen.yang_mills(n) for n in (2, 3, 4)})
    texts["ym-3-signs+-+"] = modelgen.yang_mills(3, (1, -1, 1))
    for i, m in enumerate(mutants):
        texts[f"mutant-{i}-of-{m['of']}"] = m["text"]
    return texts


TEXTS = corpus_texts(PINS["mutants"])


def pins(text):
    """The verdict and the JSON and text digests of a model's report."""
    rep = report.run_pipeline(parser.parse_model(text))
    return {"ok": rep["ok"], **{fmt: hashlib.sha256(report.emit(rep, fmt)).hexdigest()
                                for fmt in ("json", "text")}}


def test_every_case_is_pinned():
    assert set(TEXTS) == set(PINS["reports"])


@pytest.mark.parametrize("case", sorted(TEXTS))
def test_corpus_report_matches_its_pin(case):
    assert pins(TEXTS[case]) == PINS["reports"][case]


def test_pins_hold_under_another_hash_seed():
    # one subprocess for the whole corpus under PYTHONHASHSEED 1
    script = ("import json, sys\n"
              "import test_corpus\n"
              "json.dump({c: test_corpus.pins(t) for c, t in test_corpus.TEXTS.items()},"
              " sys.stdout)\n")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join([str(HERE), str(HERE.parent / "src")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == PINS["reports"]


def test_maxwell_in_dimension_4_is_the_builtin():
    text = modelgen.maxwell(4)
    assert text == builtin_models.model_text("maxwell")
    got = pins(text)
    assert got["ok"] is True
    for fmt in ("json", "text"):
        assert got[fmt] == PINNED_REPORT_SHA256[("maxwell", fmt)]


def test_exactly_two_coupling_sign_choices_pass_in_dimension_3():
    passing = [s for s in itertools.product((1, -1), repeat=3)
               if report.run_pipeline(parser.parse_model(
                   modelgen.yang_mills(3, s)))["ok"]]
    assert passing == [(1, 1, 1), (-1, -1, -1)]
