import ast
import os
import subprocess
import sys

import numpy as np
import pytest

from arithdyn import MonicPoly, sample


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_pair(rng, d, X, centered_first=True):
    f = sample(d, X, rng, centered=centered_first)
    g = sample(d, X, rng)
    while g == f:
        g = sample(d, X, rng)
    return f, g


def poly(text: str) -> MonicPoly:
    return MonicPoly.from_text(text)


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
HEAVY = ("sympy", "mpmath", "scipy")


def heavy_modules_loaded(code: str) -> set:
    """Run code in a fresh interpreter with src/ on the path; return the subset
    of HEAVY it loaded.  The code's own assertions fail the run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    code += f"\nimport sys\nprint([m for m in {HEAVY!r} if m in sys.modules])\n"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return set(ast.literal_eval(out.stdout.strip().splitlines()[-1]))
