"""Independent oracles: algebraic identity, holonomy, discrete EL residuals.

Every oracle here avoids the code path it validates.  The holonomy check
integrates the transport rate along a loop and compares against an area
quadrature; the discrete Euler-Lagrange oracle differentiates only the
scalar Lagrangian value, never touching the analytic right-hand sides; the
finite-difference steps are fixed locally rather than shared with the
dynamics modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import SurfaceChart
from .errors import (
    DomainError,
    GridMismatchError,
    InsufficientSamplesError,
    NonOrthogonalChartError,
    NonSymmetricError,
    OpenLoopError,
    QuadratureError,
)
from .geometry import J_FLAT, _gl_nodes, curvature_density, geometry_jet
from .integrators import Trajectory

TWO_PI = 2.0 * math.pi

# finite-difference steps of the residual oracle
_Q_STEP = 1e-5
_V_STEP = 1e-3


def wrap_angle(angle: float) -> float:
    """Representative of the angle in (-pi, pi]; wrap_angle(-pi) is +pi."""
    return math.pi - (math.pi - float(angle)) % TWO_PI


@dataclass(frozen=True)
class ResidualReport:
    """Summary of a pointwise deviation check.

    location is the time (or parameter) of the worst sample.  max_abs >= rms
    always holds; passed compares max_abs against tolerance when one was
    supplied and is True otherwise.
    """

    max_abs: float
    rms: float
    location: float
    tolerance: float | None = None
    passed: bool = True


def _make_report(values: np.ndarray, locations: np.ndarray,
                 tolerance: float | None) -> ResidualReport:
    flat = np.abs(np.asarray(values, dtype=float))
    if flat.ndim == 1:
        per_sample = flat
    else:
        per_sample = flat.max(axis=tuple(range(1, flat.ndim)))
    i = int(np.argmax(per_sample))
    max_abs = float(per_sample[i])
    rms = float(np.sqrt(np.mean(flat**2)))
    passed = True if tolerance is None else bool(max_abs <= tolerance)
    return ResidualReport(max_abs=max_abs, rms=rms,
                          location=float(locations[i]),
                          tolerance=tolerance, passed=passed)


def hjh_identity(H) -> float:
    """Max-norm residual of H J H = det(H) J for a symmetric 2x2 matrix."""
    H = np.asarray(H, dtype=float)
    if H.shape != (2, 2):
        raise NonSymmetricError(f"expected a 2x2 matrix, got shape {H.shape}")
    scale = float(np.max(np.abs(H)))
    if abs(H[0, 1] - H[1, 0]) > 1e-12 * (1.0 + scale):
        raise NonSymmetricError("matrix is not symmetric")
    det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
    return float(np.max(np.abs(H @ J_FLAT @ H - det * J_FLAT)))


@dataclass(frozen=True)
class RectangleLoop:
    """Counterclockwise coordinate rectangle with corner at (x1, x2)."""

    corner: tuple[float, float]
    eps: float
    delta: float


@dataclass(frozen=True)
class LatitudeLoop:
    """One full turn of a periodic x2 coordinate at fixed x1.

    Bounds the cap on the decreasing-x1 side, which is the region a
    counterclockwise traversal encloses.
    """

    x1: float


@dataclass(frozen=True)
class HolonomyResult:
    """Transport angle vs enclosed-curvature area, compared mod 2 pi."""

    transport: float
    area: float

    @property
    def mismatch(self) -> float:
        return abs(wrap_angle(self.transport - self.area))


def _line_integral_f(chart: SurfaceChart, component: int, fixed: float,
                     lo: float, hi: float, n_quad: int) -> float:
    """Integral of f_component along one coordinate segment."""
    pts, wts = _gl_nodes(lo, hi, n_quad)
    total = 0.0
    for p, w in zip(pts, wts):
        x = (p, fixed) if component == 0 else (fixed, p)
        jet = geometry_jet(chart, x)
        total += w * float(jet.f[component])
    return total


def _area_integral(chart: SurfaceChart, x1_lo: float, x1_hi: float,
                   x2_lo: float, x2_hi: float, n_quad: int,
                   enforce_domain: bool) -> float:
    def quad(n):
        p1, w1 = _gl_nodes(x1_lo, x1_hi, n)
        p2, w2 = _gl_nodes(x2_lo, x2_hi, n)
        total = 0.0
        for a, wa in zip(p1, w1):
            for b, wb in zip(p2, w2):
                total += wa * wb * curvature_density(
                    chart, (a, b), enforce_domain=enforce_domain
                )
        return total

    coarse, fine = quad(n_quad), quad(2 * n_quad)
    if abs(fine - coarse) > 1e-9 * (1.0 + abs(fine)):
        raise QuadratureError(
            f"area quadrature not converged: {coarse!r} vs {fine!r}"
        )
    return fine


def holonomy_loop(chart: SurfaceChart, loop, n_quad: int = 32) -> HolonomyResult:
    """Parallel-transport angle around a closed loop vs enclosed curvature.

    transport is the net rotation of a parallel vector against the coordinate
    frame, -loop integral of f.dx; area is the curvature integral over the
    enclosed region.  The two agree mod 2 pi (compare via `mismatch`).
    """
    if not chart.orthogonal:
        raise NonOrthogonalChartError(
            "holonomy transport needs an orthogonal chart"
        )
    if isinstance(loop, RectangleLoop):
        if loop.eps <= 0.0 or loop.delta <= 0.0:
            raise OpenLoopError("rectangle sides must be positive")
        a, b = float(loop.corner[0]), float(loop.corner[1])
        for corner in ((a, b), (a + loop.eps, b + loop.delta)):
            if not chart.domain.contains(corner):
                raise DomainError(f"rectangle corner {corner} outside domain")
        # -loop integral of f.dx, counterclockwise, side by side
        transport = -(
            _line_integral_f(chart, 0, b, a, a + loop.eps, n_quad)
            + _line_integral_f(chart, 1, a + loop.eps, b, b + loop.delta, n_quad)
            - _line_integral_f(chart, 0, b + loop.delta, a, a + loop.eps, n_quad)
            - _line_integral_f(chart, 1, a, b, b + loop.delta, n_quad)
        )
        area = _area_integral(chart, a, a + loop.eps, b, b + loop.delta,
                              n_quad, enforce_domain=True)
        return HolonomyResult(transport=transport, area=area)

    if isinstance(loop, LatitudeLoop):
        if not chart.domain.periodic_x2:
            raise OpenLoopError("latitude loop needs a periodic x2 coordinate")
        if chart.domain.periodic_x1:
            raise OpenLoopError(
                "latitude loop bounds no disk when x1 is periodic too"
            )
        x1 = float(loop.x1)
        lo1, hi1 = chart.domain.x1_range
        if not lo1 <= x1 <= hi1:
            raise DomainError(f"latitude x1={x1} outside domain")
        lo2, hi2 = chart.domain.x2_range
        transport = -_line_integral_f(chart, 1, x1, lo2, hi2, n_quad)
        # cap on the decreasing-x1 side down to the chart closure; the
        # guarded strip near the closure point is smooth in the density
        cap_lo = chart.closure_x1[0]
        area = _area_integral(chart, cap_lo, x1, lo2, hi2, n_quad,
                              enforce_domain=False)
        return HolonomyResult(transport=transport, area=area)

    raise OpenLoopError(f"unsupported loop object: {loop!r}")


def _lagrangian_dq(model, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    grad = np.empty(q.size)
    for k in range(q.size):
        h = _Q_STEP * (1.0 + abs(q[k]))
        qp, qm = q.copy(), q.copy()
        qp[k] += h
        qm[k] -= h
        grad[k] = (model.lagrangian(qp, v) - model.lagrangian(qm, v)) / (2.0 * h)
    return grad


def _lagrangian_dv(model, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    # central difference is exact for the quadratic velocity dependence, so
    # a coarse step only buys lower round-off
    grad = np.empty(v.size)
    for k in range(v.size):
        h = _V_STEP * (1.0 + abs(v[k]))
        vp, vm = v.copy(), v.copy()
        vp[k] += h
        vm[k] -= h
        grad[k] = (model.lagrangian(q, vp) - model.lagrangian(q, vm)) / (2.0 * h)
    return grad


def el_residual_oracle(model, traj: Trajectory,
                       tolerance: float | None = None) -> ResidualReport:
    """Discrete Euler-Lagrange residual of a sampled trajectory.

    Uses only the scalar model.lagrangian(q, qdot), finite-differenced in
    position and velocity; the analytic right-hand sides are never invoked.
    With midpoint discrete momenta

        p-(k) = L_v(m-, v-) + dt/2 L_q(m-, v-)
        p+(k) = L_v(m+, v+) - dt/2 L_q(m+, v+)

    where (m-, v-) live on segment (k-1, k) and (m+, v+) on (k, k+1), the
    residual (p- - p+)/dt vanishes as O(dt^2) on true trajectories.
    """
    if traj.n_samples < 5:
        raise InsufficientSamplesError(
            f"need at least 5 samples, got {traj.n_samples}"
        )
    steps = np.diff(traj.times)
    dt = float(steps[0])
    if np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise GridMismatchError("trajectory samples are not uniformly spaced")

    n_pos = model.n_pos
    q = traj.states[:, :n_pos]
    n = traj.n_samples
    residuals = np.empty((n - 2, n_pos))
    for k in range(1, n - 1):
        mid_m = 0.5 * (q[k - 1] + q[k])
        vel_m = (q[k] - q[k - 1]) / dt
        mid_p = 0.5 * (q[k] + q[k + 1])
        vel_p = (q[k + 1] - q[k]) / dt
        p_minus = _lagrangian_dv(model, mid_m, vel_m) \
            + 0.5 * dt * _lagrangian_dq(model, mid_m, vel_m)
        p_plus = _lagrangian_dv(model, mid_p, vel_p) \
            - 0.5 * dt * _lagrangian_dq(model, mid_p, vel_p)
        residuals[k - 1] = (p_minus - p_plus) / dt
    return _make_report(residuals, traj.times[1:-1], tolerance)


def _shared_position_columns(t1: Trajectory, t2: Trajectory) -> list[str]:
    return [c for c in ("x1", "x2", "theta")
            if c in t1.columns and c in t2.columns]


def _wrap_deltas(delta: np.ndarray, columns: list[str],
                 chart: SurfaceChart | None) -> np.ndarray:
    if chart is None:
        return delta
    out = delta.copy()
    for j, name in enumerate(columns):
        if name == "x1" and chart.domain.periodic_x1:
            lo, hi = chart.domain.x1_range
        elif name == "x2" and chart.domain.periodic_x2:
            lo, hi = chart.domain.x2_range
        else:
            continue
        period = hi - lo
        out[:, j] -= period * np.round(out[:, j] / period)
    return out


def compare_trajectories(t1: Trajectory, t2: Trajectory,
                         metric: str = "coordinate_sup",
                         chart: SurfaceChart | None = None,
                         tolerance: float | None = None) -> ResidualReport:
    """Pointwise deviation between two trajectories on the same time grid.

    coordinate_sup takes the sup over the position columns the two layouts
    share; chart_distance measures (x1, x2) separation in the metric at the
    midpoint and needs `chart`.  Periodic coordinate differences are wrapped
    when a chart is supplied.
    """
    if t1.n_samples != t2.n_samples or np.max(
        np.abs(t1.times - t2.times), initial=0.0
    ) > 1e-12 * (1.0 + float(np.max(np.abs(t1.times), initial=0.0))):
        raise GridMismatchError("trajectories are not on identical time grids")

    if metric == "coordinate_sup":
        cols = _shared_position_columns(t1, t2)
        if not cols:
            raise GridMismatchError("no shared position columns to compare")
        delta = np.column_stack(
            [t1.column(c) - t2.column(c) for c in cols]
        )
        delta = _wrap_deltas(delta, cols, chart)
        return _make_report(delta, t1.times, tolerance)

    if metric == "chart_distance":
        if chart is None:
            raise ValueError("chart_distance needs the chart")
        cols = ["x1", "x2"]
        delta = np.column_stack(
            [t1.column(c) - t2.column(c) for c in cols]
        )
        delta = _wrap_deltas(delta, cols, chart)
        dist = np.empty(t1.n_samples)
        for i in range(t1.n_samples):
            mid = 0.5 * (np.array([t1.column("x1")[i], t1.column("x2")[i]])
                         + np.array([t2.column("x1")[i], t2.column("x2")[i]]))
            g = geometry_jet(chart, mid).g
            dist[i] = math.sqrt(max(float(delta[i] @ g @ delta[i]), 0.0))
        return _make_report(dist, t1.times, tolerance)

    raise ValueError(f"unknown metric {metric!r}")
