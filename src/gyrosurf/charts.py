"""Coordinate charts on surfaces.

A chart is a rectangle of coordinates x = (x1, x2), a first fundamental form

    ds^2 = a11 dx1^2 + 2 a12 dx1 dx2 + a22 dx2^2,

and, when the surface is realized in R^3, an embedding map r(x1, x2) with its
first and second coordinate derivatives.  Built-in charts carry
hand-written derivatives; expression-defined charts (`custom`) carry
kernels compiled from the symbolic derivatives of their expressions.  Both
are exact up to rounding.

Orientation conventions fixed here and relied on everywhere else:

* the unit normal of an embedded chart is r_1 x r_2 normalized, so the
  coordinate order (x1, x2) is right-handed with respect to that normal;
* on the sphere x1 is the colatitude measured from the north pole and x2 the
  azimuth, which makes (x1, x2) right-handed for the outward normal;
* on the torus x1 is the poloidal angle (0 at the outer equator) and x2 the
  toroidal angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .expressions import ZERO, kernel, parse, partials

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Domain:
    """Coordinate rectangle with per-coordinate periodicity flags."""

    x1_range: tuple[float, float]
    x2_range: tuple[float, float]
    periodic_x1: bool = False
    periodic_x2: bool = False

    def wrap(self, x, enforce: bool = True) -> np.ndarray:
        """Wrap periodic coordinates into range; check the others.

        With enforce=False the containment check is skipped (used by
        quadratures that probe up to a chart's raw geometric edge).
        """
        x = np.array(x, dtype=float).reshape(2)
        for k, (lo_hi, periodic) in enumerate(
            ((self.x1_range, self.periodic_x1), (self.x2_range, self.periodic_x2))
        ):
            lo, hi = lo_hi
            if periodic:
                x[k] = lo + (x[k] - lo) % (hi - lo)
            elif enforce and not (lo <= x[k] <= hi):
                raise DomainError(
                    f"x{k + 1} = {float(x[k])!r} outside [{lo!r}, {hi!r}]"
                )
        return x

    def contains(self, x) -> bool:
        try:
            self.wrap(x, enforce=True)
        except DomainError:
            return False
        return True


class SurfaceChart:
    """A surface presented in one coordinate chart.

    Instances are built by the module-level factories (`sphere`, `torus`,
    `cylinder`, `plane`, `saddle`, `custom`); the constructor is wiring only.

    Parameters
    ----------
    kind : str
        Chart family name.
    params : dict
        Constructor arguments, kept verbatim for reporting and config
        round-trips.
    domain : Domain
    orthogonal : bool
        True when a12 vanishes identically on the chart.
    metric : callable
        x -> (2, 2) first fundamental form.
    metric_d1, metric_d2 : callable
        Derivative maps x -> (2, 2, 2) and x -> (2, 2, 2, 2) with layout
        d1[k] = d g / d x_k and d2[k, l] = d^2 g / d x_k d x_l.  Every
        factory passes both; without them the chart gives no jet.
    embedding, embedding_d1, embedding_d2 : callable or None
        x -> (3,), x -> (2, 3) rows r_k, and x -> (2, 2, 3) entries r_kl.
        embedding=None marks an abstract (metric-only) chart.
    pole_guard : float or None
        Width of the excluded band around metric singularities, when the
        chart has one.
    closure_x1 : tuple or None
        Raw geometric x1 extent, which may exceed the guarded domain (the
        sphere's is (0, pi)).  Used by cap-area quadratures.
    """

    def __init__(
        self,
        kind: str,
        params: dict,
        domain: Domain,
        orthogonal: bool,
        metric,
        metric_d1=None,
        metric_d2=None,
        embedding=None,
        embedding_d1=None,
        embedding_d2=None,
        pole_guard: float | None = None,
        closure_x1: tuple[float, float] | None = None,
    ):
        self.kind = kind
        self.params = dict(params)
        self.domain = domain
        self.orthogonal = orthogonal
        self._metric = metric
        self._metric_d1 = metric_d1
        self._metric_d2 = metric_d2
        self._embedding = embedding
        self._embedding_d1 = embedding_d1
        self._embedding_d2 = embedding_d2
        self.pole_guard = pole_guard
        self.closure_x1 = closure_x1 if closure_x1 is not None else domain.x1_range

    # -- metric jets ----------------------------------------------------

    def metric(self, x) -> np.ndarray:
        return np.asarray(self._metric(np.asarray(x, dtype=float)), dtype=float)

    def metric_d1(self, x) -> np.ndarray:
        return np.asarray(self._metric_d1(np.asarray(x, dtype=float)), dtype=float)

    def metric_d2(self, x) -> np.ndarray:
        return np.asarray(self._metric_d2(np.asarray(x, dtype=float)), dtype=float)

    # -- embedding jets -------------------------------------------------

    @property
    def has_embedding(self) -> bool:
        return self._embedding is not None

    def embedding(self, x) -> np.ndarray:
        self._require_embedding()
        return np.asarray(self._embedding(np.asarray(x, dtype=float)), dtype=float)

    def embedding_d1(self, x) -> np.ndarray:
        self._require_embedding()
        return np.asarray(self._embedding_d1(np.asarray(x, dtype=float)), dtype=float)

    def embedding_d2(self, x) -> np.ndarray:
        self._require_embedding()
        return np.asarray(self._embedding_d2(np.asarray(x, dtype=float)), dtype=float)

    def _require_embedding(self) -> None:
        if self._embedding is None:
            from .errors import MissingEmbeddingError

            raise MissingEmbeddingError(f"{self.kind} chart has no embedding")

    # -- domain ----------------------------------------------------------

    def wrap_point(self, x, enforce: bool = True) -> np.ndarray:
        return self.domain.wrap(x, enforce=enforce)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"SurfaceChart({self.kind}, {inner})"


# -- built-in factories ---------------------------------------------------


def plane(extent: float = 50.0) -> SurfaceChart:
    """Euclidean plane, identity metric, embedded as z = 0."""
    if extent <= 0.0:
        raise ValueError("extent must be positive")
    eye = np.eye(2)
    zeros1 = np.zeros((2, 2, 2))
    zeros2 = np.zeros((2, 2, 2, 2))
    e_d1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    e_d2 = np.zeros((2, 2, 3))
    return SurfaceChart(
        kind="plane",
        params={"extent": extent},
        domain=Domain((-extent, extent), (-extent, extent)),
        orthogonal=True,
        metric=lambda x: eye.copy(),
        metric_d1=lambda x: zeros1.copy(),
        metric_d2=lambda x: zeros2.copy(),
        embedding=lambda x: np.array([x[0], x[1], 0.0]),
        embedding_d1=lambda x: e_d1.copy(),
        embedding_d2=lambda x: e_d2.copy(),
    )


def sphere(R: float, pole_guard: float = 1e-3) -> SurfaceChart:
    """Round sphere of radius R in colatitude/azimuth coordinates.

    x1 is the colatitude in (0, pi), x2 the azimuth.  The metric degenerates
    at the poles, so the chart domain keeps x1 at least pole_guard away from
    them; closure_x1 still records the raw (0, pi) extent.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    if not (0.0 < pole_guard < math.pi / 2.0):
        raise ValueError("pole_guard must lie in (0, pi/2)")
    R2 = R * R

    def metric(x):
        s = math.sin(x[0])
        return np.array([[R2, 0.0], [0.0, R2 * s * s]])

    def metric_d1(x):
        out = np.zeros((2, 2, 2))
        out[0, 1, 1] = R2 * math.sin(2.0 * x[0])
        return out

    def metric_d2(x):
        out = np.zeros((2, 2, 2, 2))
        out[0, 0, 1, 1] = 2.0 * R2 * math.cos(2.0 * x[0])
        return out

    def embedding(x):
        s1, c1 = math.sin(x[0]), math.cos(x[0])
        s2, c2 = math.sin(x[1]), math.cos(x[1])
        return np.array([R * s1 * c2, R * s1 * s2, R * c1])

    def embedding_d1(x):
        s1, c1 = math.sin(x[0]), math.cos(x[0])
        s2, c2 = math.sin(x[1]), math.cos(x[1])
        return np.array(
            [
                [R * c1 * c2, R * c1 * s2, -R * s1],
                [-R * s1 * s2, R * s1 * c2, 0.0],
            ]
        )

    def embedding_d2(x):
        s1, c1 = math.sin(x[0]), math.cos(x[0])
        s2, c2 = math.sin(x[1]), math.cos(x[1])
        out = np.empty((2, 2, 3))
        out[0, 0] = [-R * s1 * c2, -R * s1 * s2, -R * c1]
        out[0, 1] = [-R * c1 * s2, R * c1 * c2, 0.0]
        out[1, 0] = out[0, 1]
        out[1, 1] = [-R * s1 * c2, -R * s1 * s2, 0.0]
        return out

    return SurfaceChart(
        kind="sphere",
        params={"R": R, "pole_guard": pole_guard},
        domain=Domain(
            (pole_guard, math.pi - pole_guard), (0.0, TWO_PI), periodic_x2=True
        ),
        orthogonal=True,
        metric=metric,
        metric_d1=metric_d1,
        metric_d2=metric_d2,
        embedding=embedding,
        embedding_d1=embedding_d1,
        embedding_d2=embedding_d2,
        pole_guard=pole_guard,
        closure_x1=(0.0, math.pi),
    )


def torus(R0: float, r: float) -> SurfaceChart:
    """Torus of revolution, ring radius R0, tube radius r, with R0 > r > 0.

    x1 is the poloidal angle (0 at the outer equator, pi at the inner one),
    x2 the toroidal angle around the symmetry axis.
    """
    if not (R0 > r > 0.0):
        raise ValueError("need R0 > r > 0")

    def w(x1):
        return R0 + r * math.cos(x1)

    def metric(x):
        return np.array([[r * r, 0.0], [0.0, w(x[0]) ** 2]])

    def metric_d1(x):
        out = np.zeros((2, 2, 2))
        out[0, 1, 1] = -2.0 * r * math.sin(x[0]) * w(x[0])
        return out

    def metric_d2(x):
        s, c = math.sin(x[0]), math.cos(x[0])
        out = np.zeros((2, 2, 2, 2))
        out[0, 0, 1, 1] = -2.0 * r * c * w(x[0]) + 2.0 * r * r * s * s
        return out

    def embedding(x):
        s1, c1 = math.sin(x[0]), math.cos(x[0])
        s2, c2 = math.sin(x[1]), math.cos(x[1])
        return np.array([w(x[0]) * c2, w(x[0]) * s2, r * s1])

    def embedding_d1(x):
        s1, c1 = math.sin(x[0]), math.cos(x[0])
        s2, c2 = math.sin(x[1]), math.cos(x[1])
        return np.array(
            [
                [-r * s1 * c2, -r * s1 * s2, r * c1],
                [-w(x[0]) * s2, w(x[0]) * c2, 0.0],
            ]
        )

    def embedding_d2(x):
        s1, c1 = math.sin(x[0]), math.cos(x[0])
        s2, c2 = math.sin(x[1]), math.cos(x[1])
        out = np.empty((2, 2, 3))
        out[0, 0] = [-r * c1 * c2, -r * c1 * s2, -r * s1]
        out[0, 1] = [r * s1 * s2, -r * s1 * c2, 0.0]
        out[1, 0] = out[0, 1]
        out[1, 1] = [-w(x[0]) * c2, -w(x[0]) * s2, 0.0]
        return out

    return SurfaceChart(
        kind="torus",
        params={"R0": R0, "r": r},
        domain=Domain((0.0, TWO_PI), (0.0, TWO_PI), periodic_x1=True, periodic_x2=True),
        orthogonal=True,
        metric=metric,
        metric_d1=metric_d1,
        metric_d2=metric_d2,
        embedding=embedding,
        embedding_d1=embedding_d1,
        embedding_d2=embedding_d2,
    )


def cylinder(r: float, half_length: float = 50.0) -> SurfaceChart:
    """Circular cylinder of radius r; x1 runs along the axis, x2 around it."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    if half_length <= 0.0:
        raise ValueError("half_length must be positive")
    g = np.array([[1.0, 0.0], [0.0, r * r]])
    zeros1 = np.zeros((2, 2, 2))
    zeros2 = np.zeros((2, 2, 2, 2))

    def embedding(x):
        return np.array([r * math.cos(x[1]), r * math.sin(x[1]), x[0]])

    def embedding_d1(x):
        return np.array(
            [[0.0, 0.0, 1.0], [-r * math.sin(x[1]), r * math.cos(x[1]), 0.0]]
        )

    def embedding_d2(x):
        out = np.zeros((2, 2, 3))
        out[1, 1] = [-r * math.cos(x[1]), -r * math.sin(x[1]), 0.0]
        return out

    return SurfaceChart(
        kind="cylinder",
        params={"r": r, "half_length": half_length},
        domain=Domain((-half_length, half_length), (0.0, TWO_PI), periodic_x2=True),
        orthogonal=True,
        metric=lambda x: g.copy(),
        metric_d1=lambda x: zeros1.copy(),
        metric_d2=lambda x: zeros2.copy(),
        embedding=embedding,
        embedding_d1=embedding_d1,
        embedding_d2=embedding_d2,
    )


def saddle(kappa: float, extent: float = 5.0) -> SurfaceChart:
    """Graph z = kappa * x1 * x2 over a square.

    The induced coordinates are not orthogonal (a12 = kappa^2 x1 x2), so this
    chart exercises every code path that must not assume a diagonal metric.
    """
    if kappa == 0.0:
        raise ValueError("kappa must be nonzero (use plane() for kappa = 0)")
    if extent <= 0.0:
        raise ValueError("extent must be positive")
    k2 = kappa * kappa

    def metric(x):
        return np.array(
            [
                [1.0 + k2 * x[1] * x[1], k2 * x[0] * x[1]],
                [k2 * x[0] * x[1], 1.0 + k2 * x[0] * x[0]],
            ]
        )

    def metric_d1(x):
        out = np.zeros((2, 2, 2))
        out[0, 0, 1] = out[0, 1, 0] = k2 * x[1]
        out[0, 1, 1] = 2.0 * k2 * x[0]
        out[1, 0, 0] = 2.0 * k2 * x[1]
        out[1, 0, 1] = out[1, 1, 0] = k2 * x[0]
        return out

    def metric_d2(x):
        out = np.zeros((2, 2, 2, 2))
        out[0, 0, 1, 1] = 2.0 * k2
        out[1, 1, 0, 0] = 2.0 * k2
        out[0, 1, 0, 1] = out[0, 1, 1, 0] = k2
        out[1, 0, 0, 1] = out[1, 0, 1, 0] = k2
        return out

    def embedding(x):
        return np.array([x[0], x[1], kappa * x[0] * x[1]])

    def embedding_d1(x):
        return np.array([[1.0, 0.0, kappa * x[1]], [0.0, 1.0, kappa * x[0]]])

    def embedding_d2(x):
        out = np.zeros((2, 2, 3))
        out[0, 1, 2] = kappa
        out[1, 0, 2] = kappa
        return out

    return SurfaceChart(
        kind="saddle",
        params={"kappa": kappa, "extent": extent},
        domain=Domain((-extent, extent), (-extent, extent)),
        orthogonal=False,
        metric=metric,
        metric_d1=metric_d1,
        metric_d2=metric_d2,
        embedding=embedding,
        embedding_d1=embedding_d1,
        embedding_d2=embedding_d2,
    )


def custom(
    a11: str,
    a22: str,
    embedding: tuple[str, str, str] | list[str] | None = None,
    domain: Domain | None = None,
) -> SurfaceChart:
    """Chart from expression strings, orthogonal by construction.

    a11 and a22 are expressions in x1, x2; the off-diagonal term is zero.  An
    optional embedding is three expressions (x, y, z).  The metric, the
    embedding and their first and second derivatives are each one kernel
    compiled from the expressions' symbolic partials (see `expressions`), so
    derivatives are exact up to rounding and a value is the float the text
    evaluates to.  When an embedding is given, its pullback metric is
    checked against the declared one on a coarse interior grid.

    Raises ExpressionError for a malformed expression or one that fails on
    that grid, and ValueError for a metric that is not positive there or an
    embedding that disagrees with it.
    """
    dom = domain if domain is not None else Domain((-5.0, 5.0), (-5.0, 5.0))
    metric_maps = _jet_maps(
        [parse(a11), ZERO, ZERO, parse(a22)], (2, 2),
        f"{a11!r}, {a22!r}",
    )
    emb_maps = (None, None, None)
    if embedding is not None:
        if len(embedding) != 3:
            raise ValueError("embedding needs exactly three expressions")
        emb_maps = _jet_maps(
            [parse(t) for t in embedding], (3,),
            ", ".join(repr(t) for t in embedding),
        )

    chart = SurfaceChart(
        kind="custom",
        params={
            "a11": a11,
            "a22": a22,
            "embedding": list(embedding) if embedding is not None else None,
            "domain": dom,
        },
        domain=dom,
        orthogonal=True,
        metric=metric_maps[0],
        metric_d1=metric_maps[1],
        metric_d2=metric_maps[2],
        embedding=emb_maps[0],
        embedding_d1=emb_maps[1],
        embedding_d2=emb_maps[2],
    )
    _validate_custom(chart)
    return chart


def _jet_maps(trees: list, shape: tuple, label: str) -> tuple:
    """Maps x -> value, first and second partials of `trees`, as arrays of
    shape `shape`, (2,) + shape and (2, 2) + shape."""

    def compiled(order: int):
        fn = kernel(partials(trees, order),
                    label if order == 0 else f"order-{order} partials of {label}")
        full = (2,) * order + shape
        return lambda x: np.array(fn(*x.tolist())).reshape(full)

    return tuple(compiled(order) for order in range(3))


def _validate_custom(chart: SurfaceChart) -> None:
    """Sample a coarse interior grid: positive metric, embedding consistent."""
    (lo1, hi1), (lo2, hi2) = chart.domain.x1_range, chart.domain.x2_range
    for u in (0.25, 0.5, 0.75):
        for v in (0.25, 0.5, 0.75):
            x = np.array([lo1 + u * (hi1 - lo1), lo2 + v * (hi2 - lo2)])
            g = chart.metric(x)
            if not np.all(np.isfinite(g)) or g[0, 0] <= 0.0 or g[1, 1] <= 0.0:
                raise ValueError(f"declared metric not positive at {x}")
            if chart.has_embedding:
                d1 = chart.embedding_d1(x)
                pullback = d1 @ d1.T
                scale = 1.0 + np.max(np.abs(g))
                if np.max(np.abs(pullback - g)) > 1e-6 * scale:
                    raise ValueError(
                        f"embedding pullback disagrees with declared metric at {x}"
                    )
