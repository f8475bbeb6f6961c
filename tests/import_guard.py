"""Import guard: ``vtc``'s command module and a built-in model load none of
the standard modules that would slow its start-up.

Run as ``python -I -S tests/import_guard.py DIR``, where DIR is the
directory that holds the ``vtc`` package: ``src`` of a checkout, or the
site-packages directory of an installed wheel.  ``-S`` keeps ``site`` (and
any ``.pth`` file it runs) from importing those modules first, and ``-I``
keeps the environment and the current directory off ``sys.path``.  It
imports ``vtc.cli`` from DIR, reads and parses the built-in chiral model,
and exits 1 naming every module of ``UNWANTED`` that got imported.
"""

import os
import sys

UNWANTED = ("dataclasses", "inspect", "importlib.resources")

if not sys.flags.no_site:
    sys.exit("run the import guard under python -S")
home = os.path.abspath(sys.argv[1])
sys.path.insert(0, home)

import vtc.cli  # noqa: E402
from vtc import builtin_models  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(vtc.__file__))) != home:
    sys.exit(f"vtc was imported from {vtc.__file__}, not from {home}")
builtin_models.builtin("chiral")
loaded = [name for name in UNWANTED if name in sys.modules]
if loaded:
    sys.exit("vtc.cli and a built-in model imported " + ", ".join(loaded))
print(f"vtc.cli and a built-in model from {home} import none of "
      + ", ".join(UNWANTED))
