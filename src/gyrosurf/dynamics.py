"""Lagrangians of a spinning disk on a curved surface, and of the heavy top.

Every model here has one Lagrangian L = qdot . M(q) qdot / 2 + A(q) . qdot
- V(q), and this module gives it as a provider of its terms:

* `surface_terms`: a charge L on the surface, M = m g + I_d B with B the
  third fundamental form, A = L f with f the frame rotation covector.  It
  is the disk with its axial phase eliminated at axial momentum L; its
  field is the curl of f, the Gaussian curvature K.
* `full_disk_terms`: the disk in (x1, x2, theta) with the axial spin kept.
  Its mass matrix carries I_a (theta_dot + f . v)^2 and no K, so that the
  reduction to `surface_terms` is a theorem the integrator can test.
* `top_terms`: the Lagrange top in Euler angles, a charged particle on the
  sphere that `top_to_sphere` sizes.

`quadratic_el_accel` turns (M, dM, G, dV) into accelerations;
`models._Model` builds every right-hand side, energy and momentum from
the providers.  `magnetic_geodesic_rhs` is the Christoffel form of the
surface law at I_d = 0, which also runs on non-orthogonal charts.

Positions are chart coordinates x = (x1, x2); velocities are coordinate
velocities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import SurfaceChart, sphere
from .errors import (
    DomainError,
    MissingEmbeddingError,
    NonOrthogonalChartError,
    SingularMassMatrixError,
)
from .geometry import J_FLAT, GeometryJet, geometry_jet
from .potentials import Potential, none as no_potential


# -- parameter and state containers ----------------------------------------


@dataclass(frozen=True)
class DiskParams:
    """Inertia data of the disk.

    m : total mass
    I_a : moment of inertia about the symmetry axis
    I_d : moment of inertia about a diameter
    R_disk : disk radius, or None; no computation reads it
    """

    m: float
    I_a: float
    I_d: float
    R_disk: float | None = None

    def __post_init__(self):
        for name in ("m", "I_a", "I_d"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"DiskParams.{name} must be positive")
        if self.R_disk is not None and not self.R_disk > 0.0:
            raise ValueError("DiskParams.R_disk must be positive")

    @classmethod
    def uniform(cls, m: float, R_disk: float) -> "DiskParams":
        """Homogeneous disk: I_a = m R^2 / 2, I_d = m R^2 / 4."""
        return cls(m=m, I_a=0.5 * m * R_disk**2, I_d=0.25 * m * R_disk**2,
                   R_disk=R_disk)


@dataclass(frozen=True)
class TopParams:
    """Lagrange top: mass M, pivot-to-center distance ell, inertia I1 (about
    a transverse axis through the pivot) and I3 (about the symmetry axis),
    gravitational acceleration g."""

    M: float
    ell: float
    I1: float
    I3: float
    g: float

    def __post_init__(self):
        for name in ("M", "ell", "I1", "I3"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"TopParams.{name} must be positive")
        if self.g < 0.0:
            raise ValueError("TopParams.g must be nonnegative")


@dataclass
class ReducedState:
    """Position and velocity on the surface."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.x = np.array(self.x, dtype=float).reshape(2)
        self.v = np.array(self.v, dtype=float).reshape(2)


@dataclass
class FullState:
    """Surface position/velocity plus the rotational phase theta and its
    rate.  For the top, x = (tilt, precession) and theta is the spin angle."""

    x: np.ndarray
    v: np.ndarray
    theta: float
    theta_dot: float

    def __post_init__(self):
        self.x = np.array(self.x, dtype=float).reshape(2)
        self.v = np.array(self.v, dtype=float).reshape(2)
        self.theta = float(self.theta)
        self.theta_dot = float(self.theta_dot)


# -- kinematics of the moving frame ----------------------------------------


def parallel_transport_rate(jet: GeometryJet, v) -> float:
    """Rotation rate of a parallel-transported frame relative to the
    coordinate frame, along a path with velocity v.

    In an orthogonal chart this is -(k1 sqrt(a11) v1 + k2 sqrt(a22) v2),
    i.e. -f . v with f the jet's frame rotation covector.
    """
    if jet.f is None:
        raise NonOrthogonalChartError("transport rate needs an orthogonal chart")
    v = np.asarray(v, dtype=float)
    return float(-(jet.f @ v))


def magnetic_force_covector(jet: GeometryJet, L: float, v) -> np.ndarray:
    """Right-hand side of the momentum balance: sqrt(a11 a22) L K [[0,-1],[1,0]] v.

    This is the covariant (lower-index) Lorentz force of charge L in the
    magnetic field K; raising the index turns it into (L K) Jv.
    """
    v = np.asarray(v, dtype=float)
    return jet.sqrt_det_g * L * jet.K * (J_FLAT @ v)


def quadratic_el_accel(mass, dmass, gyro, vgrad, qdot) -> np.ndarray:
    """Accelerations of a Lagrangian quadratic in the velocities.

    Solves  M(q) qddot = G - dV/dq - Mdot qdot + (1/2) d/dq (qdot . M qdot)
    where `dmass[k]` is dM/dq_k (zero matrices for coordinates M does not
    depend on) and G is a gyroscopic covector already evaluated at (q, qdot).
    """
    mass = np.asarray(mass, dtype=float)
    dmass = np.asarray(dmass, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    # sum_k dmass[k] qdot_k and (qdot . dmass[k]) . qdot, batched over k;
    # each sum runs in the order an explicit loop over k would use, so the
    # floats do not depend on the batching
    mdot = np.add.reduce(dmass * qdot[:, None, None])
    quad = 0.5 * ((qdot @ dmass)[:, None] @ qdot)[:, 0]
    rhs = np.asarray(gyro, dtype=float) - np.asarray(vgrad, dtype=float) \
        - mdot @ qdot + quad
    try:
        return np.linalg.solve(mass, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMassMatrixError(f"mass matrix singular: {mass!r}") from exc


# -- disk mass matrices ------------------------------------------------------


def disk_mass_matrix(jet: GeometryJet, m: float, I_d: float) -> np.ndarray:
    """Mass matrix m g + I_d B of the disk's translation and wobble.

    B = h g^-1 h is the third fundamental form: the axis is the unit normal,
    so the wobble rate is |d normal / dt|^2 = v . B v.  It needs the
    embedding and is skipped when I_d = 0.
    """
    mass = m * jet.g
    if I_d != 0.0:
        if jet.h is None:
            raise MissingEmbeddingError(
                "diametral inertia needs the shape operator; chart has no embedding"
            )
        mass = mass + I_d * (jet.h @ jet.g_inv @ jet.h)
    return mass


def _disk_mass(chart: SurfaceChart, jet: GeometryJet, m: float, I_d: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """`disk_mass_matrix` and its coordinate derivatives dmass[k].

    Both parts are analytic.  With r_ijk the embedding's third partials and
    the Weingarten equation d normal / dx_k = -S^l_k r_l,

        dh_k = r_ijk . normal - h_kl Gamma^l_ij,
        dS_k = g^-1 (dh_k - dg_k S),
        dB_k = dh_k S + h dS_k.
    """
    mass = disk_mass_matrix(jet, m, I_d)
    dmass = m * jet.dg
    if I_d != 0.0:
        h, S = jet.h, jet.S
        dh = chart.embedding_d3(jet.x) @ jet.normal \
            - (h @ jet.christoffel.reshape(2, 4)).reshape(2, 2, 2)
        dS = jet.g_inv @ (dh - jet.dg @ S)
        dmass = dmass + I_d * (dh @ S + h @ dS)
    return mass, dmass


# -- the three Lagrangians ----------------------------------------------------
#
# Each provider returns (M, A, V) at q, or (M, dM, G, dV/dq) at (q, qdot)
# for `quadratic_el_accel`; G is the gyroscopic covector at qdot.


def surface_terms(chart: SurfaceChart, m: float, I_d: float, L: float,
                  potential: Potential, q, qdot=None):
    """Charge L on the surface: M = m g + I_d B, A = L f, G = L K sqrt(det g) Jv.

    A is None for a nonzero charge on a chart without the frame covector f
    (a non-orthogonal chart).  The force path needs an orthogonal chart.
    """
    jet = geometry_jet(chart, q)
    if qdot is None:
        A = np.zeros(2) if L == 0.0 else (None if jet.f is None else L * jet.f)
        return disk_mass_matrix(jet, m, I_d), A, potential.value(jet.x)
    if not chart.orthogonal:
        raise NonOrthogonalChartError(
            "disk mass-matrix law needs an orthogonal chart")
    mass, dmass = _disk_mass(chart, jet, m, I_d)
    return mass, dmass, magnetic_force_covector(jet, L, qdot), \
        potential.gradient(jet.x)


def full_disk_terms(chart: SurfaceChart, disk: DiskParams,
                    potential: Potential, q, qdot=None):
    """The disk in q = (x1, x2, theta) with its axial spin kept, A = 0.

    The axial rate is omega_a = theta_dot + f . v, so with c = I_a f

        M = [[m g + I_d B + c f^T, c], [c^T, I_a]]

    and no charge or K appears: the reduced model's magnetic force must
    come out of the solve.
    """
    jet = geometry_jet(chart, q[:2])
    if jet.f is None:
        raise NonOrthogonalChartError("full disk model needs an orthogonal chart")
    f, c = jet.f, disk.I_a * jet.f
    mass = np.empty((3, 3))
    mass[:2, 2] = mass[2, :2] = c
    mass[2, 2] = disk.I_a
    if qdot is None:
        mass[:2, :2] = disk_mass_matrix(jet, disk.m, disk.I_d) + c[:, None] * f
        return mass, np.zeros(3), potential.value(jet.x)
    surface_mass, surface_dmass = _disk_mass(chart, jet, disk.m, disk.I_d)
    mass[:2, :2] = surface_mass + c[:, None] * f
    dc = disk.I_a * jet.df.T  # dc[k] = dc / dx_k
    dcf = dc[:, :, None] * f
    dmass = np.zeros((3, 3, 3))
    dmass[:2, :2, :2] = surface_dmass + dcf + dcf.transpose(0, 2, 1)
    dmass[:2, :2, 2] = dmass[:2, 2, :2] = dc
    vgrad = np.zeros(3)
    vgrad[:2] = potential.gradient(jet.x)
    return mass, dmass, np.zeros(3), vgrad


TOP_TILT_GUARD = 1e-3


def top_terms(top: TopParams, q, qdot=None):
    """The Lagrange top: q = (tilt of the axis from the upward vertical,
    precession azimuth, spin angle), A = 0 and

        L = I1 (x1dot^2 + x2dot^2 sin^2 x1) / 2
          + I3 (theta_dot + x2dot cos x1)^2 / 2 - M g ell cos x1.

    The force path refuses a tilt within TOP_TILT_GUARD of a pole.
    """
    x1 = float(q[0])
    s, c = math.sin(x1), math.cos(x1)
    mass = np.array([[top.I1, 0.0, 0.0],
                     [0.0, top.I1 * s * s + top.I3 * c * c, top.I3 * c],
                     [0.0, top.I3 * c, top.I3]])
    if qdot is None:
        return mass, np.zeros(3), top.M * top.g * top.ell * c
    if not (TOP_TILT_GUARD < x1 < math.pi - TOP_TILT_GUARD):
        raise DomainError(f"top tilt x1 = {x1!r} within {TOP_TILT_GUARD} of a pole")
    dmass = np.zeros((3, 3, 3))
    dmass[0, 1, 1] = (top.I1 - top.I3) * math.sin(2.0 * x1)
    dmass[0, 1, 2] = dmass[0, 2, 1] = -top.I3 * s
    vgrad = np.array([-top.M * top.g * top.ell * s, 0.0, 0.0])
    return mass, dmass, np.zeros(3), vgrad


def reduced_disk_rhs(chart: SurfaceChart, m: float, I_d: float, L: float,
                     potential: Potential | None, state: ReducedState):
    """Time derivatives (dx, dv) of `surface_terms`' Euler-Lagrange law;
    I_d = 0 recovers `magnetic_geodesic_rhs` up to rounding."""
    if I_d < 0.0:
        raise ValueError("I_d must be nonnegative")
    potential = potential if potential is not None else no_potential()
    terms = surface_terms(chart, m, I_d, L, potential, state.x, state.v)
    return state.v.copy(), quadratic_el_accel(*terms, state.v)


def magnetic_geodesic_rhs(
    chart: SurfaceChart,
    m: float,
    L: float,
    potential: Potential | None,
    state: ReducedState,
):
    """Charged-particle motion: m Dv/dt = L K Jv - grad V, any chart.

    Componentwise  a^k = -Gamma^k_ij v^i v^j + (L K / m) (Jv)^k
                          - (1/m) (g^-1 dV/dx)^k.
    """
    if m <= 0.0:
        raise ValueError("m must be positive")
    potential = potential if potential is not None else no_potential()
    jet = geometry_jet(chart, state.x)
    v = state.v
    accel = -np.einsum("kij,i,j->k", jet.christoffel, v, v)
    accel = accel + (L * jet.K / m) * (jet.sqrt_det_g * (jet.g_inv @ (J_FLAT @ v)))
    accel = accel - (jet.g_inv @ potential.gradient(jet.x)) / m
    return v.copy(), accel


@dataclass(frozen=True)
class TopSphereEquivalence:
    """Sphere radius and particle mass realizing a top as a magnetic geodesic.

    R = I1 / (M ell) and m = (M ell)^2 / I1, so that m R^2 = I1 and
    m g R = M g ell hold identically; the magnetic charge is I3 * omega_a.
    The matching potential on the sphere is axis_cosine(m * g * R).
    """

    R: float
    m: float
    I3: float

    def charge(self, omega_a: float) -> float:
        return self.I3 * omega_a

    def chart(self) -> SurfaceChart:
        return sphere(self.R)


def top_to_sphere(top: TopParams) -> TopSphereEquivalence:
    """Map top parameters to the equivalent sphere problem."""
    R = top.I1 / (top.M * top.ell)
    m = (top.M * top.ell) ** 2 / top.I1
    return TopSphereEquivalence(R=R, m=m, I3=top.I3)
