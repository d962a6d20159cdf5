"""Pointwise differential geometry: metric jets, curvature, 90-degree rotation.

Sign conventions (fixed once, used by every caller):

* the coordinate geodesic curvatures of an orthogonal metric are

      k1 = -(d a11 / d x2) / (2 a11 sqrt(a22)),
      k2 = +(d a22 / d x1) / (2 a22 sqrt(a11)),

  chosen so that the structure identity

      d(k1 sqrt(a11))/dx2 - d(k2 sqrt(a22))/dx1 = sqrt(a11 a22) K

  holds, and so that a frame slid along a coordinate line rotates at rate
  -(k1 sqrt(a11) dx1/dt + k2 sqrt(a22) dx2/dt) relative to transport;

* rotate90 turns a tangent vector by +90 degrees counterclockwise with
  respect to the chart orientation (on the flat plane (v1, v2) goes to
  (-v2, v1));

* Gaussian curvature of an orthogonal chart is assembled intrinsically from
  metric derivatives; a non-orthogonal chart needs an embedding, where K is
  det(shape operator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .charts import SurfaceChart
from .errors import (
    DegenerateMetricError,
    DomainError,
    MissingEmbeddingError,
    NonOrthogonalChartError,
    QuadratureError,
    SpeedFloorError,
)

J_FLAT = np.array([[0.0, -1.0], [1.0, 0.0]])

CURVATURE_SPEED_FLOOR = 1e-8


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors (faster than np.cross for this shape)."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


@dataclass
class GeometryJet:
    """Everything the dynamics needs about one point of one chart.

    Attributes
    ----------
    x : ndarray, shape (2,)
        The evaluation point, with periodic coordinates wrapped.
    g, g_inv : ndarray, shape (2, 2)
        First fundamental form and its inverse.
    det_g, sqrt_det_g : float
    dg : ndarray, shape (2, 2, 2)
        dg[k] is the derivative of g along x_k.
    christoffel : ndarray, shape (2, 2, 2)
        christoffel[k, i, j] holds Gamma^k_ij.
    K : float
        Gaussian curvature.
    orthogonal : bool
    k1, k2 : float or None
        Geodesic curvatures of the coordinate lines (orthogonal charts only).
    f : ndarray or None, shape (2,)
        Frame rotation covector (k1 sqrt(a11), k2 sqrt(a22)).
    df : ndarray or None, shape (2, 2)
        df[i, j] is the derivative of f_i along x_j.
    normal : ndarray or None, shape (3,)
        Unit normal unit(r_1 x r_2), present when the chart is embedded.
    h, S : ndarray or None, shape (2, 2)
        Second fundamental form r_kl . normal and shape operator g^-1 h,
        present when the chart is embedded.
    """

    x: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    det_g: float
    sqrt_det_g: float
    dg: np.ndarray
    christoffel: np.ndarray
    K: float
    orthogonal: bool
    k1: float | None = None
    k2: float | None = None
    f: np.ndarray | None = None
    df: np.ndarray | None = None
    normal: np.ndarray | None = None
    h: np.ndarray | None = None
    S: np.ndarray | None = None


def geometry_jet(chart: SurfaceChart, x, enforce_domain: bool = True) -> GeometryJet:
    """Evaluate the metric jet of `chart` at `x`.

    Parameters
    ----------
    chart : SurfaceChart
    x : array_like, shape (2,)
        Point in chart coordinates.  Periodic coordinates may be given
        unwrapped.
    enforce_domain : bool
        When False, skip the rectangle containment check on non-periodic
        coordinates.  Quadratures that probe a chart's raw geometric edge
        (inside its guard band) use this; everything else keeps the default.

    Returns
    -------
    GeometryJet

    Raises
    ------
    DomainError
        Point outside the chart domain (with enforce_domain=True).
    DegenerateMetricError
        Metric not positive-definite at the point.
    MissingEmbeddingError
        Non-orthogonal chart without an embedding: no curvature available.
    """
    x = chart.wrap_point(x, enforce=enforce_domain)
    g = chart.metric(x)
    det_g = float(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    if not np.isfinite(det_g) or det_g <= 0.0 or g[0, 0] <= 0.0:
        raise DegenerateMetricError(f"metric degenerate at x = {x}")
    g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det_g
    sqrt_det_g = math.sqrt(det_g)
    if not chart.orthogonal and not chart.has_embedding:
        raise MissingEmbeddingError(
            "non-orthogonal chart needs an embedding to define curvature"
        )

    dg = chart.metric_d1(x)
    # Gamma^k_ij = g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) / 2
    braces = (
        dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg
    )
    christoffel = 0.5 * np.tensordot(g_inv, braces, axes=1)

    normal = h = S = None
    if chart.has_embedding:
        d1 = chart.embedding_d1(x)
        d2 = chart.embedding_d2(x)
        normal = cross3(d1[0], d1[1])
        norm = math.sqrt(float(normal @ normal))
        if norm <= 0.0 or not np.isfinite(norm):
            raise DegenerateMetricError(f"embedding degenerate at x = {x}")
        normal = normal / norm
        h = d2 @ normal
        S = g_inv @ h

    if chart.orthogonal:
        a11, a22 = float(g[0, 0]), float(g[1, 1])
        d2g = chart.metric_d2(x)
        W = sqrt_det_g
        dW = np.array(
            [
                (dg[k, 0, 0] * a22 + a11 * dg[k, 1, 1]) / (2.0 * W)
                for k in range(2)
            ]
        )
        k1 = -dg[1, 0, 0] / (2.0 * a11 * math.sqrt(a22))
        k2 = dg[0, 1, 1] / (2.0 * a22 * math.sqrt(a11))
        f = np.array([-dg[1, 0, 0], dg[0, 1, 1]]) / (2.0 * W)
        df = np.empty((2, 2))
        for j in range(2):
            df[0, j] = -(d2g[1, j, 0, 0] * W - dg[1, 0, 0] * dW[j]) / (2.0 * W * W)
            df[1, j] = (d2g[0, j, 1, 1] * W - dg[0, 1, 1] * dW[j]) / (2.0 * W * W)
        K = (df[0, 1] - df[1, 0]) / W
        return GeometryJet(
            x=x, g=g, g_inv=g_inv, det_g=det_g, sqrt_det_g=sqrt_det_g, dg=dg,
            christoffel=christoffel, K=float(K), orthogonal=True,
            k1=float(k1), k2=float(k2), f=f, df=df, normal=normal, h=h, S=S,
        )

    K = float(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]) / det_g
    return GeometryJet(
        x=x, g=g, g_inv=g_inv, det_g=det_g, sqrt_det_g=sqrt_det_g, dg=dg,
        christoffel=christoffel, K=K, orthogonal=False, normal=normal, h=h, S=S,
    )


def rotate90(jet: GeometryJet, v) -> np.ndarray:
    """Rotate tangent vector `v` by +90 degrees in the metric of `jet`.

    The intrinsic rotation J satisfies <Jv, Jv> = <v, v>, <Jv, v> = 0 and
    J(Jv) = -v; in components (Jv)^i = sqrt(det g) g^{ik} eps_kj v^j.
    """
    v = np.asarray(v, dtype=float)
    return jet.sqrt_det_g * (jet.g_inv @ (J_FLAT @ v))


def geodesic_curvature_monitor(jet: GeometryJet, v, accel) -> float:
    """Signed geodesic curvature of a path through `jet.x` with velocity v.

    k = <Dv/dt, Jv>_g / |v|_g^3 with Dv/dt the covariant acceleration
    assembled from the coordinate acceleration `accel`.  Positive k bends
    the path to the left of the motion.  Below the speed floor the quantity
    is 0/0; that raises rather than returning garbage.
    """
    v = np.asarray(v, dtype=float)
    speed_sq = float(v @ jet.g @ v)
    if speed_sq < CURVATURE_SPEED_FLOOR**2:
        raise SpeedFloorError(
            f"metric speed {math.sqrt(max(speed_sq, 0.0))!r} below floor"
        )
    cov_accel = np.asarray(accel, dtype=float) + np.einsum(
        "kij,i,j->k", jet.christoffel, v, v
    )
    # <D, Jv>_g = sqrt(det g) * D . (J_flat v)
    return float(
        jet.sqrt_det_g * (cov_accel @ (J_FLAT @ v)) / speed_sq**1.5
    )


def curvature_density(chart: SurfaceChart, x, enforce_domain: bool = True) -> float:
    """K * sqrt(det g) at x; the integrand of every curvature-area integral."""
    jet = geometry_jet(chart, x, enforce_domain=enforce_domain)
    return jet.K * jet.sqrt_det_g


def _gl_nodes(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def gauss_bonnet_patch_K(
    chart: SurfaceChart, x, eps: float, delta: float, n_quad: int = 16
) -> float:
    """Average Gaussian curvature of the rectangle [x1, x1+eps] x [x2, x2+delta].

    The estimate is the Gauss-Bonnet balance of the coordinate rectangle:
    (2 pi - corner turns - boundary integral of geodesic curvature) divided
    by the rectangle's metric area.  In an orthogonal chart the four corner
    turns are each pi/2 and the boundary integrand along a coordinate line
    is k1 sqrt(a11) or k2 sqrt(a22), grouped as opposite-side differences.
    Converges to K(x) at first order as eps = delta -> 0 (the rectangle is
    cornered at x, not centered).

    Raises
    ------
    NonOrthogonalChartError
        Corner turns are only pi/2 when the coordinate lines meet at right
        angles.
    DomainError
        Rectangle does not fit inside the chart domain.
    QuadratureError
        Doubling the node count moves the estimate; integrand too rough for
        n_quad (or not finite).
    """
    if not chart.orthogonal:
        raise NonOrthogonalChartError("patch estimator needs an orthogonal chart")
    if eps <= 0.0 or delta <= 0.0:
        raise ValueError("eps and delta must be positive")
    x = chart.wrap_point(x)
    for k, ext in ((0, eps), (1, delta)):
        lo, hi = (chart.domain.x1_range, chart.domain.x2_range)[k]
        periodic = (chart.domain.periodic_x1, chart.domain.periodic_x2)[k]
        if periodic:
            if ext >= hi - lo:
                raise ValueError(f"extent along x{k + 1} covers the whole period")
        elif x[k] + ext > hi:
            raise DomainError(
                f"rectangle leaves the domain along x{k + 1}"
            )

    def estimate(n: int) -> float:
        x1n, x1w = _gl_nodes(x[0], x[0] + eps, n)
        x2n, x2w = _gl_nodes(x[1], x[1] + delta, n)
        boundary = 0.0
        for s, w in zip(x1n, x1w):
            f_lo = geometry_jet(chart, (s, x[1]), enforce_domain=False).f[0]
            f_hi = geometry_jet(chart, (s, x[1] + delta), enforce_domain=False).f[0]
            boundary += w * (f_lo - f_hi)
        for s, w in zip(x2n, x2w):
            f_lo = geometry_jet(chart, (x[0], s), enforce_domain=False).f[1]
            f_hi = geometry_jet(chart, (x[0] + eps, s), enforce_domain=False).f[1]
            boundary += w * (f_hi - f_lo)
        area = 0.0
        for s1, w1 in zip(x1n, x1w):
            for s2, w2 in zip(x2n, x2w):
                jet = geometry_jet(chart, (s1, s2), enforce_domain=False)
                area += w1 * w2 * jet.sqrt_det_g
        turns = 4.0 * (math.pi / 2.0)
        return (2.0 * math.pi - turns - boundary) / area

    coarse = estimate(n_quad)
    fine = estimate(2 * n_quad)
    if not (math.isfinite(coarse) and math.isfinite(fine)) or abs(
        coarse - fine
    ) > 1e-7 + 1e-5 * abs(fine):
        raise QuadratureError(
            f"patch quadrature unconverged at n_quad={n_quad}: "
            f"{coarse!r} vs {fine!r}"
        )
    return fine
