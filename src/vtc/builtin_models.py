"""Built-in example models: Maxwell electrodynamics and chiral bosons.

Each built-in is defined once, by its model file in the package data
(``models/<name>.vtc``), written in physics form: field strengths squared,
dressings spelled out.  ``builtin`` parses that file, so a built-in is
exactly what a user model file with the same text would be.
"""
from __future__ import annotations

from importlib import resources

from . import model, parser

BUILTINS = ("maxwell", "chiral")


def builtin(name: str) -> model.Model:
    """The built-in model of that name, parsed from its shipped file."""
    return parser.parse_model(model_text(name))


def model_text(name: str) -> str:
    """Shipped text of a built-in model."""
    if name not in BUILTINS:
        raise model.ModelError(f"unknown built-in model {name!r}")
    return resources.files(__package__).joinpath(
        f"models/{name}.vtc").read_text(encoding="utf-8")
