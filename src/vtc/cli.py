"""Command-line pipeline driver.

Models are addressed by file path or by built-in name.  Exit codes: 0 when
every check passes, 1 on a mathematical violation or engine failure, 2 on
usage or parse errors.  The environment variable VTC_JET_ORDER_CAP bounds
the jet order of every symbolic operation.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import builtin_models, kernel, parser, printing, report, symplectic
from .forms import LocalForm
from .model import Model

USAGE_ERROR = 2
MATH_ERROR = 1


class UsageError(Exception):
    """A command-line argument the command cannot take."""


def _load_model(ref: str) -> Model:
    if os.path.exists(ref):
        with open(ref, encoding="utf-8") as fh:
            text = fh.read()
        return parser.parse_model(text)
    if ref in builtin_models.BUILTINS:
        return builtin_models.builtin(ref)
    raise UsageError(f"no such file or built-in model: {ref!r}")


def _run_and_print(m: Model, stages: Sequence[str], steps: int = 2) -> int:
    rep = report.run_pipeline(m, stages, steps=steps)
    sys.stdout.write(report.emit(rep, "text").decode())
    return 0 if rep["ok"] else MATH_ERROR


def _cmd_check_master(args) -> int:
    return _run_and_print(_load_model(args.model), ("master",))


def _cmd_descend(args) -> int:
    return _run_and_print(_load_model(args.model), ("descend",),
                          steps=args.steps)


def _cmd_current(args) -> int:
    return _run_and_print(_load_model(args.model), ("current",))


def _cmd_homogenize(args) -> int:
    return _run_and_print(_load_model(args.model), ("homogenize",))


def _density(option: str, text: str, spectrum: kernel.Spectrum) -> LocalForm:
    """Parse a bracket argument, which must be a density of one parity."""
    a = parser.parse_expression(text, spectrum)
    if not a.is_density():
        raise UsageError(f"{option}: {text!r} is not a density (vertical "
                         f"degree 0, horizontal degree {spectrum.dim})")
    if not a.is_zero() and a.parity() is None:
        raise UsageError(f"{option}: {text!r} has no definite parity")
    return a


def _cmd_bracket(args) -> int:
    m = _load_model(args.model)
    if args.foliated and m.foliation is None:
        raise UsageError("model declares no foliation")
    spectrum = m.foliation.spatial if args.foliated else m.spectrum
    a = _density("--a", args.a, spectrum)
    b = _density("--b", args.b, spectrum)
    if args.foliated:
        st = report._Run(m, steps=1).reduced_structure
    else:
        st = m.structure()
    out = symplectic.bracket(a, b, st)
    sys.stdout.write(printing.form_text(out) + "\n")
    return 0


def _cmd_report(args) -> int:
    m = _load_model(args.model)
    rep = report.run_pipeline(m, steps=args.steps)
    payload = report.emit(rep, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())
    return 0 if rep["ok"] else MATH_ERROR


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vtc",
        description="Variational calculus for local gauge systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("model", help="model file or built-in name")
        p.set_defaults(func=func)
        return p

    add("check-master", _cmd_check_master,
        help="verify the classical master equation")
    p = add("descend", _cmd_descend,
            help="descend the presymplectic structure")
    p.add_argument("--steps", type=int, default=1,
                   help="number of descent steps (default 1)")
    add("current", _cmd_current, help="compute the conserved current")
    p = add("bracket", _cmd_bracket, help="bracket of two densities")
    p.add_argument("--a", required=True, help="first expression")
    p.add_argument("--b", required=True, help="second expression")
    p.add_argument("--foliated", action="store_true",
                   help="evaluate on the leaves of the declared slicing")
    add("homogenize", _cmd_homogenize,
        help="homogenize the reduced structure")
    p = add("report", _cmd_report, help="run the full pipeline")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write the report to a file")
    p.add_argument("--steps", type=int, default=2,
                   help="descent steps in the report (default 2)")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_argparser()
    args = ap.parse_args(argv)
    try:
        kernel.jet_order_cap()
    except ValueError as e:
        sys.stderr.write(f"vtc: {e}\n")
        return USAGE_ERROR
    try:
        return args.func(args)
    except (parser.ParseError, UsageError, OSError) as e:
        sys.stderr.write(f"vtc: {e}\n")
        return USAGE_ERROR
    except report._ENGINE_ERRORS as e:
        sys.stderr.write(f"vtc: {type(e).__name__}: {e}\n")
        return MATH_ERROR


if __name__ == "__main__":
    sys.exit(main())
