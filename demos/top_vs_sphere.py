"""The heavy symmetric top solved twice.

Once with the textbook Euler-angle equations, once as a charged particle on
a sphere of radius I1 / (M ell) carrying charge I3 w_a in the curvature
field, under the potential m g R cos(x1).  The two runs agree to roundoff.
Also finds the slow steady-precession rate and shows the tilt holding.
"""

import math

import numpy as np

from gyrosurf import dynamics
from gyrosurf.integrators import IntegratorSettings
from gyrosurf.suites import (
    steady_precession_rate,
    steady_precession_tilt_error,
    top_vs_sphere,
)

top = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)
eq = dynamics.top_to_sphere(top)
omega_a = 30.0
print("top M=1 ell=0.5 I1=2 I3=1 g=9.8, axial rate %.0f" % omega_a)
print("equivalent sphere: R = %g, particle mass m = %g, charge L = %g"
      % (eq.R, eq.m, eq.charge(omega_a)))

x1 = math.pi / 3
settings = IntegratorSettings(dt=1e-3, n_steps=5000, sample_every=10)

traj_top, rep = top_vs_sphere(top, [x1, 0.0], [0.0, 0.4], omega_a, settings)
print("worst separation over %d samples: %.3e (metric distance, R = %g)"
      % (traj_top.n_samples, rep.max_abs, eq.R))

lo = traj_top.column("x1").min()
hi = traj_top.column("x1").max()
print("nutation band: tilt swings between %.6f and %.6f" % (lo, hi))

rate = steady_precession_rate(top, x1, omega_a)
print()
print("steady precession at tilt pi/3 needs rate %.6f" % rate)
wobble = np.max(np.abs(
    steady_precession_tilt_error(top, x1, omega_a, settings)))
print("tilt drift over t in [0, 5]: %.3e" % wobble)
