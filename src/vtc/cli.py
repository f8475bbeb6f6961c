"""Command-line pipeline driver.

Models are addressed by file path or by built-in name.  Exit codes: 0 when
every check passes; 1 when a check fails or an engine error
(``kernel.EngineError``) is raised, which prints ``vtc: <Type>: <message>``;
2 on usage or parse errors (``UsageError``, ``parser.ParseError``).

The environment variable VTC_JET_ORDER_CAP bounds the jet order of every
symbolic operation.  ``main`` is its only reader: it parses the variable
once per call, a value that is not a positive integer being a usage error,
and runs the command in a copy of the caller's context with
``kernel.JET_ORDER_CAP`` set to it, so the caller's cap does not change.
Unset, the variable leaves the cap in force (8 by default).
"""
from __future__ import annotations

import argparse
import contextvars
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
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise UsageError(f"model file {ref!r} is not UTF-8: "
                                 f"bad byte at offset {exc.start}") from None
        return parser.parse_model(text)
    if ref in builtin_models.BUILTINS:
        return builtin_models.builtin(ref)
    raise UsageError(f"no such file or built-in model: {ref!r}")


def _cmd_stages(args) -> int:
    """Run the subcommand's stages and emit the report: 0 when every check
    passes, 1 when one fails or a stage raises an engine error."""
    if args.steps < 0:
        raise UsageError(f"--steps must be 0 or more, got {args.steps}")
    rep = report.run_pipeline(_load_model(args.model), args.stages,
                              steps=args.steps)
    payload = report.emit(rep, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())
    return 0 if rep["ok"] else MATH_ERROR


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


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vtc",
        description="Variational calculus for local gauge systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help, stages=None, steps=2, format="text",
            func=_cmd_stages):
        p = sub.add_parser(name, help=help)
        p.add_argument("model", help="model file or built-in name")
        p.set_defaults(func=func, stages=stages, steps=steps, format=format,
                       out=None)
        return p

    add("check-master", "verify the classical master equation", ("master",))
    p = add("descend", "descend the presymplectic structure", ("descend",),
            steps=1)
    p.add_argument("--steps", type=int,
                   help="number of descent steps (default 1)")
    add("current", "compute the conserved current", ("current",))
    p = add("bracket", "bracket of two densities", func=_cmd_bracket)
    p.add_argument("--a", required=True, help="first expression")
    p.add_argument("--b", required=True, help="second expression")
    p.add_argument("--foliated", action="store_true",
                   help="evaluate on the leaves of the declared slicing")
    add("homogenize", "homogenize the reduced structure", ("homogenize",))
    p = add("report", "run the full pipeline", format="json")
    p.add_argument("--format", choices=("json", "text"))
    p.add_argument("--out", help="write the report to a file")
    p.add_argument("--steps", type=int,
                   help="descent steps in the report (default 2)")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_argparser().parse_args(argv)
    ctx = contextvars.copy_context()
    try:
        raw = os.environ.get("VTC_JET_ORDER_CAP")
        if raw is not None:
            try:
                cap = int(raw)
            except ValueError:
                raise UsageError("VTC_JET_ORDER_CAP must be an integer, "
                                 f"got {raw!r}") from None
            if cap < 1:
                raise UsageError("VTC_JET_ORDER_CAP must be positive")
            ctx.run(kernel.JET_ORDER_CAP.set, cap)
        return ctx.run(args.func, args)
    except (parser.ParseError, UsageError, OSError) as e:
        sys.stderr.write(f"vtc: {e}\n")
        return USAGE_ERROR
    except kernel.EngineError as e:
        sys.stderr.write(f"vtc: {type(e).__name__}: {e}\n")
        return MATH_ERROR


if __name__ == "__main__":
    sys.exit(main())
