"""Equations of motion for a spinning disk rolling-free on a curved surface.

Four right-hand sides share this module:

* `full_disk_rhs`: disk center constrained to the surface, axis along the
  normal, all three rotational degrees of freedom kept.  The axial spin
  couples to the frame rotation rate f(x) . xdot and is conserved.
* `reduced_disk_rhs`: the axial degree eliminated at fixed axial momentum L;
  what remains is a charged particle on the surface, charge L, magnetic
  field K, plus the disk's diametral inertia correction.
* `magnetic_geodesic_rhs`: the clean magnetic system m Dv/dt = L K Jv - grad V
  with no inertia correction; coincides with the reduced disk at I_d = 0,
  and L = 0 gives the uncharged geodesic control case.
* `top_rhs`: the Lagrange top in Euler angles; algebraically identical to a
  magnetic geodesic on a sphere whose radius is set by `top_to_sphere`.

`models.SurfaceModel` drives the middle two as one surface law: the
magnetic path at I_d = 0, the reduced-disk path otherwise.

The disk's mass matrix m g + I_d B, with B the third fundamental form, and
its coordinate derivatives are analytic: built from the geometry jet and
the embedding's third partials.

Positions are chart coordinates x = (x1, x2); velocities are coordinate
velocities.  Right-hand sides return tuples of time derivatives in state
order, e.g. (dx, dv) with dx = v.
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


def axial_spin(jet: GeometryJet, state: FullState) -> float:
    """Angular velocity about the surface normal: omega_a = theta_dot + f . v.

    Constant along full-disk motion; the conserved momentum is I_a * omega_a.
    """
    if jet.f is None:
        raise NonOrthogonalChartError("axial spin needs an orthogonal chart")
    return float(state.theta_dot + jet.f @ state.v)


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
    qdot = np.asarray(qdot, dtype=float)
    n = qdot.size
    mdot = sum(dmass[k] * qdot[k] for k in range(n))
    quad = 0.5 * np.array([qdot @ dmass[k] @ qdot for k in range(n)])
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


# -- right-hand sides --------------------------------------------------------


def full_disk_rhs(chart: SurfaceChart, disk: DiskParams,
                  potential: Potential | None, state: FullState):
    """Time derivatives (dx, dv, dtheta, dtheta_dot) of the full disk.

    The x-equations are the Euler-Lagrange equations of

        E = I_a (theta_dot + f.v)^2 / 2 + (m <A v, v> + I_d w_d^2) / 2 - V(x)

    with the axial term folded into a gyroscopic force: since I_a omega_a is
    conserved, the axial coupling acts on x exactly like a magnetic force of
    instantaneous charge L = I_a omega_a.  theta_ddot then follows from
    d/dt (theta_dot + f . v) = 0.  No small-I_d approximation is made.
    """
    potential = potential if potential is not None else no_potential()
    jet = geometry_jet(chart, state.x)
    if jet.f is None:
        raise NonOrthogonalChartError("full disk model needs an orthogonal chart")
    v = state.v
    omega_a = state.theta_dot + float(jet.f @ v)
    charge = disk.I_a * omega_a
    mass, dmass = _disk_mass(chart, jet, disk.m, disk.I_d)
    gyro = magnetic_force_covector(jet, charge, v)
    accel = quadratic_el_accel(mass, dmass, gyro, potential.gradient(jet.x), v)
    theta_ddot = -float(v @ (jet.df @ v) + jet.f @ accel)
    return v.copy(), accel, state.theta_dot, theta_ddot


def reduced_disk_rhs(chart: SurfaceChart, m: float, I_d: float, L: float,
                     potential: Potential | None, state: ReducedState):
    """Time derivatives (dx, dv) of the disk after eliminating the axial
    phase at fixed axial momentum L.

    Solves  d/dt T_v - T_x + V_x = sqrt(a11 a22) L K [[0,-1],[1,0]] v  for
    the coordinate accelerations, with T = (m <A v, v> + I_d w_d^2) / 2.
    I_d = 0 recovers `magnetic_geodesic_rhs` up to rounding.
    """
    if I_d < 0.0:
        raise ValueError("I_d must be nonnegative")
    potential = potential if potential is not None else no_potential()
    jet = geometry_jet(chart, state.x)
    if not chart.orthogonal:
        raise NonOrthogonalChartError("reduced disk model needs an orthogonal chart")
    mass, dmass = _disk_mass(chart, jet, m, I_d)
    gyro = magnetic_force_covector(jet, L, state.v)
    accel = quadratic_el_accel(mass, dmass, gyro, potential.gradient(jet.x), state.v)
    return state.v.copy(), accel


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


# -- the Lagrange top --------------------------------------------------------

TOP_TILT_GUARD = 1e-3


def _top_mass(top: TopParams, x1: float) -> np.ndarray:
    s, c = math.sin(x1), math.cos(x1)
    return np.array(
        [
            [top.I1, 0.0, 0.0],
            [0.0, top.I1 * s * s + top.I3 * c * c, top.I3 * c],
            [0.0, top.I3 * c, top.I3],
        ]
    )


def top_rhs(top: TopParams, state: FullState):
    """Time derivatives (dx, dv, dtheta, dtheta_dot) of the Lagrange top.

    Coordinates: x1 tilt of the symmetry axis from the upward vertical,
    x2 precession azimuth, theta spin about the symmetry axis.  Euler-
    Lagrange equations of

        L = I1 (x1dot^2 + x2dot^2 sin^2 x1) / 2
          + I3 (theta_dot + x2dot cos x1)^2 / 2 - M g ell cos x1,

    which conserve E, p_theta = I3 (theta_dot + x2dot cos x1) and p_x2.
    """
    x1 = float(state.x[0])
    if not (TOP_TILT_GUARD < x1 < math.pi - TOP_TILT_GUARD):
        raise DomainError(f"top tilt x1 = {x1!r} within {TOP_TILT_GUARD} of a pole")
    s, c = math.sin(x1), math.cos(x1)
    mass = _top_mass(top, x1)
    dmass0 = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, (top.I1 - top.I3) * math.sin(2.0 * x1), -top.I3 * s],
            [0.0, -top.I3 * s, 0.0],
        ]
    )
    dmass = [dmass0, np.zeros((3, 3)), np.zeros((3, 3))]
    qdot = np.array([state.v[0], state.v[1], state.theta_dot])
    vgrad = np.array([-top.M * top.g * top.ell * s, 0.0, 0.0])
    qddot = quadratic_el_accel(mass, dmass, np.zeros(3), vgrad, qdot)
    return state.v.copy(), qddot[:2], state.theta_dot, float(qddot[2])


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

    def chart(self, pole_guard: float = 1e-3) -> SurfaceChart:
        return sphere(self.R, pole_guard=pole_guard)


def top_to_sphere(top: TopParams) -> TopSphereEquivalence:
    """Map top parameters to the equivalent sphere problem."""
    R = top.I1 / (top.M * top.ell)
    m = (top.M * top.ell) ** 2 / top.I1
    return TopSphereEquivalence(R=R, m=m, I3=top.I3)


# -- energies and Lagrangians -------------------------------------------------


def reduced_disk_energy(chart: SurfaceChart, m: float, I_d: float,
                        potential: Potential | None, state: ReducedState) -> float:
    """E = (m <A v, v> + I_d w_d^2) / 2 + V (axial constant dropped)."""
    potential = potential if potential is not None else no_potential()
    jet = geometry_jet(chart, state.x)
    mass = disk_mass_matrix(jet, m, I_d)
    return 0.5 * float(state.v @ mass @ state.v) + potential.value(jet.x)


def full_disk_energy(chart: SurfaceChart, disk: DiskParams,
                     potential: Potential | None, state: FullState) -> float:
    """E = I_a omega_a^2 / 2 + (m <A v, v> + I_d w_d^2) / 2 + V."""
    potential = potential if potential is not None else no_potential()
    jet = geometry_jet(chart, state.x)
    omega_a = axial_spin(jet, state)
    mass = disk_mass_matrix(jet, disk.m, disk.I_d)
    return (
        0.5 * disk.I_a * omega_a**2
        + 0.5 * float(state.v @ mass @ state.v)
        + potential.value(jet.x)
    )


def top_energy(top: TopParams, state: FullState) -> float:
    qdot = np.array([state.v[0], state.v[1], state.theta_dot])
    mass = _top_mass(top, float(state.x[0]))
    return 0.5 * float(qdot @ mass @ qdot) \
        + top.M * top.g * top.ell * math.cos(float(state.x[0]))


def top_momenta(top: TopParams, state: FullState) -> tuple[float, float]:
    """(p_theta, p_x2), both conserved along top motion."""
    x1 = float(state.x[0])
    s, c = math.sin(x1), math.cos(x1)
    omega3 = state.theta_dot + state.v[1] * c
    p_theta = top.I3 * omega3
    p_x2 = (top.I1 * s * s + top.I3 * c * c) * state.v[1] + top.I3 * c * state.theta_dot
    return float(p_theta), float(p_x2)
