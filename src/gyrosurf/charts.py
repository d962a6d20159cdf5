"""Coordinate charts on surfaces.

A chart is a rectangle of coordinates x = (x1, x2), a first fundamental form

    ds^2 = a11 dx1^2 + 2 a12 dx1 dx2 + a22 dx2^2,

and, when the surface is realized in R^3, an embedding map r(x1, x2) with its
coordinate derivatives through the third.  Every chart, built-in or
`custom`, is written as expression text; its derivatives are kernels
compiled from the symbolic partials of that text, exact up to rounding.

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

from .errors import DomainError, MissingEmbeddingError
from .expressions import ZERO, kernel, parse, partials

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Domain:
    """Coordinate rectangle with per-coordinate periodicity flags.

    Raises ValueError unless each range has finite ends with lo < hi.
    """

    x1_range: tuple[float, float]
    x2_range: tuple[float, float]
    periodic_x1: bool = False
    periodic_x2: bool = False

    def __post_init__(self):
        for name in ("x1_range", "x2_range"):
            lo, hi = getattr(self, name)
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"{name} needs finite ends with lo < hi, "
                                 f"got {(lo, hi)!r}")

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
    `cylinder`, `plane`, `saddle`, `custom`).  Every chart is a spec: the
    metric and, optionally, the embedding as expression text (see
    `expressions`), compiled to one kernel per derivative order (the
    metric through the second, the embedding through the third), so
    derivatives are exact up to rounding.

    Parameters
    ----------
    kind : str
        Chart family name.
    params : dict
        Constructor arguments, kept verbatim for reporting and config
        round-trips.
    domain : Domain
    metric : tuple of str
        (a11, a12, a22) in x1, x2.  The chart is orthogonal when a12 parses
        to the constant 0.
    embedding : tuple of str or None
        (x, y, z) in x1, x2; None marks an abstract (metric-only) chart.
    pole_guard : float or None
        Width of the excluded band around metric singularities, when the
        chart has one.
    closure_x1 : tuple or None
        Raw geometric x1 extent, which may exceed the guarded domain (the
        sphere's is (0, pi)).  Used by cap-area quadratures.

    Raises ExpressionError for malformed expression text.
    """

    def __init__(
        self,
        kind: str,
        params: dict,
        domain: Domain,
        metric: tuple[str, str, str],
        embedding: tuple[str, str, str] | None = None,
        pole_guard: float | None = None,
        closure_x1: tuple[float, float] | None = None,
    ):
        a11, a12, a22 = (parse(t) for t in metric)
        self.kind = kind
        self.params = dict(params)
        self.domain = domain
        self.orthogonal = a12 == ZERO
        self._metric = _jet_maps([a11, a12, a12, a22], (2, 2), metric, 2)
        self._embedding = None if embedding is None else _jet_maps(
            [parse(t) for t in embedding], (3,), embedding, 3)
        self.pole_guard = pole_guard
        self.closure_x1 = closure_x1 if closure_x1 is not None else domain.x1_range

    # -- metric jets: g, d1[k] = d g / d x_k, d2[k, l] = d^2 g / d x_k d x_l

    def metric(self, x) -> np.ndarray:
        return self._metric[0](x)

    def metric_d1(self, x) -> np.ndarray:
        return self._metric[1](x)

    def metric_d2(self, x) -> np.ndarray:
        return self._metric[2](x)

    # -- embedding jets: r (3,), r_k (2, 3), r_kl (2, 2, 3), r_klm (2, 2, 2, 3)

    @property
    def has_embedding(self) -> bool:
        return self._embedding is not None

    def embedding(self, x) -> np.ndarray:
        return self._require_embedding()[0](x)

    def embedding_d1(self, x) -> np.ndarray:
        return self._require_embedding()[1](x)

    def embedding_d2(self, x) -> np.ndarray:
        return self._require_embedding()[2](x)

    def embedding_d3(self, x) -> np.ndarray:
        return self._require_embedding()[3](x)

    def _require_embedding(self) -> tuple:
        if self._embedding is None:
            raise MissingEmbeddingError(f"{self.kind} chart has no embedding")
        return self._embedding

    # -- domain ----------------------------------------------------------

    def wrap_point(self, x, enforce: bool = True) -> np.ndarray:
        return self.domain.wrap(x, enforce=enforce)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"SurfaceChart({self.kind}, {inner})"


def _jet_maps(trees: list, shape: tuple, texts, top_order: int) -> tuple:
    """Maps x -> partials of `trees` of order 0 to `top_order`, the one of
    order n as an array of shape (2,) * n + shape."""
    label = ", ".join(repr(t) for t in texts)

    def compiled(order: int):
        fn = kernel(partials(trees, order),
                    label if order == 0 else f"order-{order} partials of {label}")
        full = (2,) * order + shape
        return lambda x: np.array(
            fn(*np.asarray(x, dtype=float).tolist())).reshape(full)

    return tuple(compiled(order) for order in range(top_order + 1))


def _literal(value: float) -> str:
    """A parameter as expression text: its repr in parentheses, with
    infinity (which R * R can reach) as 1e999, which parses back to it."""
    return f"({float(value)!r})".replace("inf", "1e999")


# -- built-in factories ---------------------------------------------------


def plane(extent: float = 50.0) -> SurfaceChart:
    """Euclidean plane, identity metric, embedded as z = 0."""
    if extent <= 0.0:
        raise ValueError("extent must be positive")
    return SurfaceChart(
        kind="plane",
        params={"extent": extent},
        domain=Domain((-extent, extent), (-extent, extent)),
        metric=("1", "0", "1"),
        embedding=("x1", "x2", "0"),
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
    r, r2 = _literal(R), _literal(R * R)
    return SurfaceChart(
        kind="sphere",
        params={"R": R, "pole_guard": pole_guard},
        domain=Domain(
            (pole_guard, math.pi - pole_guard), (0.0, TWO_PI), periodic_x2=True
        ),
        metric=(r2, "0", f"{r2} * sin(x1) * sin(x1)"),
        embedding=(f"{r} * sin(x1) * cos(x2)", f"{r} * sin(x1) * sin(x2)",
                   f"{r} * cos(x1)"),
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
    w = f"({_literal(R0)} + {_literal(r)} * cos(x1))"
    return SurfaceChart(
        kind="torus",
        params={"R0": R0, "r": r},
        domain=Domain((0.0, TWO_PI), (0.0, TWO_PI), periodic_x1=True, periodic_x2=True),
        metric=(_literal(r * r), "0", f"{w}^2"),
        embedding=(f"{w} * cos(x2)", f"{w} * sin(x2)", f"{_literal(r)} * sin(x1)"),
    )


def cylinder(r: float, half_length: float = 50.0) -> SurfaceChart:
    """Circular cylinder of radius r; x1 runs along the axis, x2 around it."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    if half_length <= 0.0:
        raise ValueError("half_length must be positive")
    return SurfaceChart(
        kind="cylinder",
        params={"r": r, "half_length": half_length},
        domain=Domain((-half_length, half_length), (0.0, TWO_PI), periodic_x2=True),
        metric=("1", "0", _literal(r * r)),
        embedding=(f"{_literal(r)} * cos(x2)", f"{_literal(r)} * sin(x2)", "x1"),
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
    k, k2 = _literal(kappa), _literal(kappa * kappa)
    return SurfaceChart(
        kind="saddle",
        params={"kappa": kappa, "extent": extent},
        domain=Domain((-extent, extent), (-extent, extent)),
        metric=(f"1 + {k2} * x2 * x2", f"{k2} * x1 * x2", f"1 + {k2} * x1 * x1"),
        embedding=("x1", "x2", f"{k} * x1 * x2"),
    )


def custom(
    a11: str,
    a22: str,
    embedding: tuple[str, str, str] | list[str] | None = None,
    domain: Domain | None = None,
) -> SurfaceChart:
    """Chart from expression strings, orthogonal by construction.

    a11 and a22 are expressions in x1, x2; the off-diagonal term is zero.  An
    optional embedding is three expressions (x, y, z).  When an embedding is
    given, its pullback metric is checked against the declared one on a
    coarse interior grid.

    Raises ExpressionError for a malformed expression or one that fails on
    that grid, and ValueError for a metric that is not positive there or an
    embedding that disagrees with it.
    """
    dom = domain if domain is not None else Domain((-5.0, 5.0), (-5.0, 5.0))
    if embedding is not None and len(embedding) != 3:
        raise ValueError("embedding needs exactly three expressions")
    chart = SurfaceChart(
        kind="custom",
        params={
            "a11": a11,
            "a22": a22,
            "embedding": list(embedding) if embedding is not None else None,
            "domain": dom,
        },
        domain=dom,
        metric=(a11, "0", a22),
        embedding=embedding,
    )
    _validate_custom(chart)
    return chart


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
