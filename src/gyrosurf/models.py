"""Model objects: chart, parameters and potential behind one flat interface.

Integrators, oracles and the CLI speak flat float vectors y = (q, qdot).
Every model is one Lagrangian L = qdot . M qdot / 2 + A . qdot - V, and
supplies it through `terms`: `terms(q)` gives (M, A, V) and
`terms(q, qdot)` gives (M, dM, G, dV) for the Euler-Lagrange solve (see
`dynamics`).  `_Model` writes `rhs`, `energy`, `lagrangian`, `momenta`
(p = M qdot + A) and the integrator's monitor pass once from them.

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
from .errors import DomainError, NonOrthogonalChartError, SpeedFloorError
from .geometry import geodesic_curvature_monitor, geometry_jet
from .potentials import Potential, none as no_potential


class _Model:
    """The Lagrangian core and state-layout plumbing; the surface layout
    (x, v) is the default."""

    columns = ("x1", "x2", "v1", "v2")
    n_pos = 2

    def pack(self, state: ReducedState) -> np.ndarray:
        return np.concatenate([state.x, state.v])

    def unpack(self, y) -> ReducedState:
        y = np.asarray(y, dtype=float)
        return ReducedState(x=y[0:2], v=y[2:4])

    def _split(self, y) -> tuple[np.ndarray, np.ndarray]:
        y = np.asarray(y, dtype=float)
        return y[:self.n_pos], y[self.n_pos:]

    def rhs(self, y) -> np.ndarray:
        q, qdot = self._split(y)
        accel = dynamics.quadratic_el_accel(*self.terms(q, qdot), qdot)
        return np.concatenate([qdot, accel])

    @staticmethod
    def _energy(qdot, mass, V) -> float:
        return 0.5 * float(qdot @ mass @ qdot) + V

    def energy(self, y) -> float:
        q, qdot = self._split(y)
        mass, _, V = self.terms(q)
        return self._energy(qdot, mass, V)

    def _omega_a(self, qdot, mass, A) -> float:
        return math.nan

    def omega_a(self, y) -> float:
        """Axial spin p_theta / axial_inertia; NaN on surface models."""
        q, qdot = self._split(y)
        mass, A, _ = self.terms(q)
        return self._omega_a(qdot, mass, A)

    def monitors(self, y) -> tuple[float, float, float, float, float]:
        """(E, speed, omega_a, k_geo, K) at y from one `terms(q)` call and
        one jet of `monitor_chart`.

        k_geo takes its acceleration from `self.rhs`, so that a model that
        overrides only `rhs` is monitored by its own law.  It is NaN at a
        stalled point and where the rhs refuses the state (the top's tilt
        guard).
        """
        q, qdot = self._split(y)
        mass, A, V = self.terms(q)
        jet = geometry_jet(self.monitor_chart, q[:2])
        v = qdot[:2]
        try:
            accel = self.rhs(y)[self.n_pos:self.n_pos + 2]
            k_geo = geodesic_curvature_monitor(jet, v, accel)
        except (SpeedFloorError, DomainError):
            k_geo = math.nan
        return (self._energy(qdot, mass, V), math.sqrt(float(v @ jet.g @ v)),
                self._omega_a(qdot, mass, A), k_geo, jet.K)

    def _terms_with_A(self, q):
        """`terms(q)`, refusing a charge whose vector potential the chart
        lacks."""
        mass, A, V = self.terms(q)
        if A is None:
            raise NonOrthogonalChartError(
                "charged Lagrangian needs an orthogonal chart")
        return mass, A, V

    def lagrangian(self, q, qdot) -> float:
        qdot = np.asarray(qdot, dtype=float)
        mass, A, V = self._terms_with_A(np.asarray(q, dtype=float))
        return 0.5 * float(qdot @ mass @ qdot) + float(A @ qdot) - V

    def momenta(self, y) -> np.ndarray:
        """Canonical momenta p = M qdot + A."""
        q, qdot = self._split(y)
        mass, A, _ = self._terms_with_A(q)
        return mass @ qdot + A


class _SpinningModel(_Model):
    """Surface point plus a rotational phase theta: the FullState layout.

    `axial_inertia` is the inertia about the spin axis, so that the axial
    rate is p_theta / axial_inertia.
    """

    columns = ("x1", "x2", "theta", "v1", "v2", "theta_dot")
    n_pos = 3

    def pack(self, state: FullState) -> np.ndarray:
        return np.concatenate(
            [state.x, [state.theta], state.v, [state.theta_dot]]
        )

    def unpack(self, y) -> FullState:
        y = np.asarray(y, dtype=float)
        return FullState(x=y[0:2], v=y[3:5], theta=y[2], theta_dot=y[5])

    def _omega_a(self, qdot, mass, A) -> float:
        return float((mass @ qdot + A)[2]) / self.axial_inertia


class SurfaceModel(_Model):
    """Charge L in the magnetic field K, with diametral inertia I_d.

    At I_d = 0 the right-hand side is `dynamics.magnetic_geodesic_rhs`, the
    Christoffel path, which runs on any chart.  At I_d > 0 it is the
    mass-matrix solve of `dynamics.surface_terms`, which needs an
    orthogonal chart with an embedding.
    """

    name = "surface"

    def __init__(self, chart: SurfaceChart, m: float, L: float = 0.0,
                 I_d: float = 0.0, potential: Potential | None = None):
        if m <= 0.0:
            raise ValueError("m must be positive")
        if I_d < 0.0:
            raise ValueError("I_d must be nonnegative")
        self.chart = chart
        self.monitor_chart = chart
        self.m = float(m)
        self.L = float(L)
        self.I_d = float(I_d)
        self.potential = potential if potential is not None else no_potential()

    def terms(self, q, qdot=None):
        return dynamics.surface_terms(self.chart, self.m, self.I_d, self.L,
                                      self.potential, q, qdot)

    def rhs(self, y) -> np.ndarray:
        if self.I_d != 0.0:
            return super().rhs(y)
        dx, dv = dynamics.magnetic_geodesic_rhs(
            self.chart, self.m, self.L, self.potential, self.unpack(y))
        return np.concatenate([dx, dv])


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

    def __init__(self, chart, m, I_d, L, potential=None):
        super().__init__(chart, m, L, I_d, potential)


class FullDiskModel(_SpinningModel):
    name = "full_disk"

    def __init__(self, chart: SurfaceChart, disk: DiskParams,
                 potential: Potential | None = None):
        self.chart = chart
        self.monitor_chart = chart
        self.disk = disk
        self.axial_inertia = disk.I_a
        self.potential = potential if potential is not None else no_potential()

    def terms(self, q, qdot=None):
        return dynamics.full_disk_terms(self.chart, self.disk, self.potential,
                                        q, qdot)


class TopModel(_SpinningModel):
    name = "top"

    def __init__(self, top: TopParams):
        self.top = top
        self.axial_inertia = top.I3
        self.equivalence = top_to_sphere(top)
        # axis-direction monitors live on the equivalent sphere
        self.monitor_chart = self.equivalence.chart()
        self.chart = None

    def terms(self, q, qdot=None):
        return dynamics.top_terms(self.top, q, qdot)
