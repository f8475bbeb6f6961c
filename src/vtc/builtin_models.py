"""Built-in example models: Maxwell electrodynamics and chiral bosons.

Each built-in is defined once, by its model file in the package data
(``models/<name>.vtc``), written in physics form: field strengths squared,
dressings spelled out.  ``builtin`` parses that file, so a built-in is
exactly what a user model file with the same text would be.  The file is
read as ``vtc`` reads a model file: ``open`` with UTF-8 and universal
newlines, next to this module.
"""
from __future__ import annotations

import os

from . import kernel, model, parser

BUILTINS = ("maxwell", "chiral")


def builtin(name: str) -> model.Model:
    """The built-in model of that name, parsed from its shipped file."""
    return parser.parse_model(model_text(name))


def model_text(name: str) -> str:
    """Shipped text of a built-in model."""
    if name not in BUILTINS:
        raise kernel.DeclarationError(f"unknown built-in model {name!r}",
                                      "model", name)
    path = os.path.join(os.path.dirname(__file__), "models", f"{name}.vtc")
    with open(path, encoding="utf-8") as fh:
        return fh.read()
