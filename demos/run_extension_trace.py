"""The harmonic extension of cos x and the trace constant.

At order one half the extension has the closed form e^{-y} cos x; the
weighted normal derivative recovers the operator on the trace up to the
positive constant d_s = 2^{1-2s} Gamma(1-s) / Gamma(s), in closed form;
the ratio of the normal derivative to the spectral oracle recovers it."""

import numpy as np

from fracbern.funcspace import plane_wave, gaussian_bump
from fracbern.extension import (extend, weighted_normal_derivative,
                                trace_constant)
from fracbern.nonlocal_ops import spectral_oracle

E = extend(plane_wave(1.0), 0.5)
print("closed form check, s = 1/2: U(x,y) vs e^{-y} cos x")
for (x, y) in [(0.0, 0.1), (1.0, 0.5), (2.0, 1.0)]:
    u = E.value(x, y)[0]
    print("  (%.1f, %.1f): %+.10f  (exact %+.10f)"
          % (x, y, u, np.exp(-y) * np.cos(x)))

print()
print("weighted normal derivative at x = 0.3:",
      weighted_normal_derivative(E, 0.3), " (cos(0.3) =", np.cos(0.3), ")")

print()
print("closed-form trace constant, and the ratio route's gap to it "
      "(gaussian at x = 0.35):")
g = gaussian_bump(1, 0.0, 1.0)
for s in [0.25, 0.5, 0.75]:
    ds, _ = trace_constant(s)
    ratio = (weighted_normal_derivative(extend(g, s), 0.35)
             / spectral_oracle(s, g, 0.35))
    print("  s=%.2f: d_s = %.8f  (ratio gap %.1e)"
          % (s, ds, abs(ratio / ds - 1)))

print()
print("interior equation residual for a gaussian at s = 0.35:")
rep = extend(gaussian_bump(1, 0.0, 1.0), 0.35).verify()
for k, v in rep.items():
    print(" ", k, "=", v)
