"""Model objects: chart, parameters and potential behind one flat interface.

The pure right-hand sides in `dynamics` speak state objects; integrators,
oracles and the CLI want flat float vectors.  Each model class fixes a state
layout, forwards to its right-hand side, and exposes the scalars every
monitor needs (energy, metric speed, axial spin) plus the Lagrangian the
discrete residual oracle differentiates.

`SurfaceModel` is the single surface law m Dv/dt = L K Jv - grad V, plus
the disk's diametral inertia I_d when that is nonzero.  `GeodesicModel`
(L = 0), `MagneticModel` (I_d = 0) and `ReducedDiskModel` only name its
special cases.

State layouts:

* surface models: y = (x1, x2, v1, v2)
* full disk and top: y = (x1, x2, theta, v1, v2, theta_dot)

Positions always come first, so `y[:n_pos]` are the generalized coordinates
and the surface velocity follows at `y[n_pos:n_pos + 2]`.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics
from .charts import SurfaceChart
from .dynamics import (
    DiskParams,
    FullState,
    ReducedState,
    TopParams,
    top_to_sphere,
)
from .errors import NonOrthogonalChartError
from .geometry import geometry_jet
from .potentials import Potential, none as no_potential


class _Model:
    """State-layout plumbing; the surface layout (x, v) is the default."""

    columns = ("x1", "x2", "v1", "v2")
    n_pos = 2

    def pack(self, state: ReducedState) -> np.ndarray:
        return np.concatenate([state.x, state.v])

    def unpack(self, y) -> ReducedState:
        y = np.asarray(y, dtype=float)
        return ReducedState(x=y[0:2], v=y[2:4])

    def position(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float)[0:2]

    def velocity(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float)[self.n_pos:self.n_pos + 2]

    # the velocity slot of a rate vector holds the surface acceleration
    accel_from_rate = velocity

    def speed(self, y) -> float:
        v = self.velocity(y)
        g = geometry_jet(self.monitor_chart, self.position(y)).g
        return math.sqrt(float(v @ g @ v))


class _SpinningModel(_Model):
    """Surface point plus a rotational phase theta: the FullState layout."""

    columns = ("x1", "x2", "theta", "v1", "v2", "theta_dot")
    n_pos = 3

    def pack(self, state: FullState) -> np.ndarray:
        return np.concatenate(
            [state.x, [state.theta], state.v, [state.theta_dot]]
        )

    def unpack(self, y) -> FullState:
        y = np.asarray(y, dtype=float)
        return FullState(x=y[0:2], v=y[3:5], theta=y[2], theta_dot=y[5])


class SurfaceModel(_Model):
    """Charge L in the magnetic field K, with diametral inertia I_d.

    At I_d = 0 the right-hand side is `dynamics.magnetic_geodesic_rhs`, the
    Christoffel path, which runs on any chart.  At I_d > 0 it is
    `dynamics.reduced_disk_rhs`, a mass-matrix solve that needs an
    orthogonal chart with an embedding.
    """

    name = "surface"

    def __init__(self, chart: SurfaceChart, m: float, L: float = 0.0,
                 I_d: float = 0.0, potential: Potential | None = None,
                 omega_d_form: str = "third_form"):
        if m <= 0.0:
            raise ValueError("m must be positive")
        if I_d < 0.0:
            raise ValueError("I_d must be nonnegative")
        if omega_d_form not in dynamics.OMEGA_D_FORMS:
            raise ValueError(
                f"omega_d_form must be one of {dynamics.OMEGA_D_FORMS}")
        self.chart = chart
        self.monitor_chart = chart
        self.m = float(m)
        self.L = float(L)
        self.I_d = float(I_d)
        self.potential = potential if potential is not None else no_potential()
        self.omega_d_form = omega_d_form

    def rhs(self, y) -> np.ndarray:
        state = self.unpack(y)
        if self.I_d == 0.0:
            dx, dv = dynamics.magnetic_geodesic_rhs(
                self.chart, self.m, self.L, self.potential, state)
        else:
            dx, dv = dynamics.reduced_disk_rhs(
                self.chart, self.m, self.I_d, self.L, self.potential, state,
                self.omega_d_form)
        return np.concatenate([dx, dv])

    def energy(self, y) -> float:
        return dynamics.reduced_disk_energy(
            self.chart, self.m, self.I_d, self.potential, self.unpack(y),
            self.omega_d_form,
        )

    def omega_a(self, y) -> float:
        return math.nan

    def lagrangian(self, q, qdot) -> float:
        """Routhian-reduced Lagrangian; the L f.v term carries the charge."""
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        jet = geometry_jet(self.chart, q)
        mass = dynamics.disk_mass_matrix(self.chart, jet, self.m, self.I_d,
                                         self.omega_d_form)
        value = 0.5 * float(qdot @ mass @ qdot) - self.potential.value(jet.x)
        if self.L != 0.0:
            if jet.f is None:
                raise NonOrthogonalChartError(
                    "charged Lagrangian needs an orthogonal chart"
                )
            value += self.L * float(jet.f @ qdot)
        return value


class GeodesicModel(SurfaceModel):
    name = "geodesic"

    def __init__(self, chart, m, potential):
        super().__init__(chart, m, potential=potential)


class MagneticModel(SurfaceModel):
    name = "magnetic"

    def __init__(self, chart, m, L, potential=None):
        super().__init__(chart, m, L, potential=potential)


class ReducedDiskModel(SurfaceModel):
    name = "reduced_disk"

    def __init__(self, chart, m, I_d, L, potential=None,
                 omega_d_form: str = "third_form"):
        super().__init__(chart, m, L, I_d, potential, omega_d_form)


class FullDiskModel(_SpinningModel):
    name = "full_disk"

    def __init__(self, chart: SurfaceChart, disk: DiskParams,
                 potential: Potential | None = None,
                 omega_d_form: str = "third_form"):
        self.chart = chart
        self.monitor_chart = chart
        self.disk = disk
        self.potential = potential if potential is not None else no_potential()
        self.omega_d_form = omega_d_form

    def rhs(self, y) -> np.ndarray:
        dx, dv, dth, dthd = dynamics.full_disk_rhs(
            self.chart, self.disk, self.potential, self.unpack(y),
            self.omega_d_form,
        )
        return np.concatenate([dx, [dth], dv, [dthd]])

    def energy(self, y) -> float:
        return dynamics.full_disk_energy(
            self.chart, self.disk, self.potential, self.unpack(y),
            self.omega_d_form,
        )

    def omega_a(self, y) -> float:
        s = self.unpack(y)
        jet = geometry_jet(self.chart, s.x)
        return dynamics.axial_spin(jet, s)

    def lagrangian(self, q, qdot) -> float:
        """Full three-coordinate Lagrangian; q = (x1, x2, theta)."""
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        jet = geometry_jet(self.chart, q[0:2])
        v = qdot[0:2]
        omega_a = qdot[2] + float(jet.f @ v)
        mass = dynamics.disk_mass_matrix(self.chart, jet, self.disk.m,
                                         self.disk.I_d, self.omega_d_form)
        return (
            0.5 * self.disk.I_a * omega_a**2
            + 0.5 * float(v @ mass @ v)
            - self.potential.value(jet.x)
        )


class TopModel(_SpinningModel):
    name = "top"

    def __init__(self, top: TopParams):
        self.top = top
        self.equivalence = top_to_sphere(top)
        # axis-direction monitors live on the equivalent sphere
        self.monitor_chart = self.equivalence.chart()
        self.chart = None

    def rhs(self, y) -> np.ndarray:
        dx, dv, dth, dthd = dynamics.top_rhs(self.top, self.unpack(y))
        return np.concatenate([dx, [dth], dv, [dthd]])

    def energy(self, y) -> float:
        return dynamics.top_energy(self.top, self.unpack(y))

    def omega_a(self, y) -> float:
        s = self.unpack(y)
        return float(s.theta_dot + s.v[1] * math.cos(float(s.x[0])))

    def lagrangian(self, q, qdot) -> float:
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        t = self.top
        s, c = math.sin(q[0]), math.cos(q[0])
        omega3 = qdot[2] + qdot[1] * c
        return (
            0.5 * t.I1 * (qdot[0] ** 2 + qdot[1] ** 2 * s * s)
            + 0.5 * t.I3 * omega3**2
            - t.M * t.g * t.ell * c
        )
