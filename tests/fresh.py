"""Run this interpreter in a fresh process that imports the coupledosc under test.

Not a test module: pytest collects only test_*.py files. The tests import it by
name, as pyproject.toml puts tests/ on pytest's path.
"""

import os
import re
import subprocess
import sys

# the child finds coupledosc, and tests/, where this process does
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def python(*args, cwd=None, env=ENV, **kwargs):
    """``python *args`` in ``cwd``, its stdout and stderr captured as text."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120, **kwargs
    )


def cli(argv, *flags, **kwargs):
    """``python *flags -m coupledosc.cli *argv``, as python() runs it."""
    return python(*flags, "-m", "coupledosc.cli", *argv, **kwargs)


def imported(importtime):
    """The set of modules named on the lines of ``-X importtime``'s stderr."""
    return set(re.findall(r"^import time:.*\|\s*(\S+)$", importtime, re.M))
