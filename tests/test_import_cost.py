"""numpy.fft is loaded by lattice code alone.

Importing fracbern, and the pointwise operator and oracle calls, must
not pay for numpy.fft's import: only a lattice operator, whose stencil
action is an FFT convolution, loads it.  A fresh interpreter is the only
place where sys.modules shows that.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import fracbern, fracbern.cli
from fracbern.funcspace import gaussian_bump
from fracbern.nonlocal_ops import (Lattice, apply_fractional,
                                   assemble_discrete, spectral_oracle)
for n in (1, 2):
    u = gaussian_bump(n, [0.1] * n, 0.8)
    apply_fractional(0.5, u, [0.2] * n)
    spectral_oracle(0.5, u, [0.2] * n)
print("numpy.fft" in sys.modules)
assemble_discrete(0.5, Lattice(2, 1.5, 9, 1.0), u)
print("numpy.fft" in sys.modules)
"""


def test_numpy_fft_loads_with_the_lattice_alone():
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
