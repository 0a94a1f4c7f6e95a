"""Start ``python -m maxminlp``, or any ``python`` command line, in a child interpreter.

The child must run the same package the test process imported, whatever
its working directory. A relative ``PYTHONPATH`` such as ``src`` stops
resolving once the child starts elsewhere, so the directory holding the
imported package (``src/`` in a plain checkout, ``site-packages`` after an
install) is put in front of the inherited ``PYTHONPATH``.
"""
import os
import subprocess
import sys
from pathlib import Path

import maxminlp

PACKAGE_ROOT = str(Path(maxminlp.__file__).resolve().parents[1])


def cli(*args, cwd=None, env=None):
    return python("-m", "maxminlp", *args, cwd=cwd, env=env)


def python(*args, cwd=None, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    inherited = merged.get("PYTHONPATH")
    merged["PYTHONPATH"] = (
        PACKAGE_ROOT + os.pathsep + inherited if inherited else PACKAGE_ROOT
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, cwd=cwd, env=merged,
    )
