"""Fixed-step time integration with per-sample diagnostic monitors.

The schemes are deliberately plain: classical RK4 and the explicit midpoint
rule, fixed step, no adaptivity, no internal state.  Rerunning a scenario
reproduces the same floats bit for bit.

Monitors are evaluated on the stored samples after stepping and never touch
the integration state.  A step that leaves the chart domain truncates the
trajectory at the last valid sample and flags it; non-finite states abort.
A step's end point is only checked by the next step, so a last sample
outside the chart is dropped and the run marked truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonFiniteStateError

SCHEMES = ("rk4", "midpoint")

# the monitor tracks, in the order `monitors(y)` returns them
MONITORS = ("E", "speed", "omega_a", "k_geo", "K")


@dataclass(frozen=True)
class IntegratorSettings:
    dt: float
    n_steps: int
    sample_every: int = 1
    scheme: str = "rk4"

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        # so that the last step is stored and no computed step is dropped
        if self.n_steps % self.sample_every:
            raise ValueError(f"sample_every = {self.sample_every} must "
                             f"divide n_steps = {self.n_steps}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")


@dataclass
class Trajectory:
    """Sampled states plus diagnostic monitor tracks.

    states has one row per retained sample; column names are in `columns`.
    monitors maps name -> array aligned with `times`; entries that are not
    defined at a sample (axial spin of a surface model, curvature of a
    stalled point) hold NaN.
    """

    model: str
    columns: tuple[str, ...]
    times: np.ndarray
    states: np.ndarray
    monitors: dict[str, np.ndarray] = field(default_factory=dict)
    truncated: bool = False
    truncation_reason: str | None = None

    @property
    def n_samples(self) -> int:
        return self.times.size

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.columns.index(name)]


def _rk4_step(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint_step(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(y)
    return y + dt * rhs(y + 0.5 * dt * k1)


def integrate(model, y0, settings: IntegratorSettings) -> Trajectory:
    """Advance `model.rhs` from y0 and collect samples plus monitors.

    Parameters
    ----------
    model
        Object with `rhs(y)`, `monitors(y)` -> (E, speed, omega_a, k_geo,
        K), a `columns` tuple and a `name` (see `gyrosurf.models`).
    y0 : array_like
        Flat initial state in the model's layout.
    settings : IntegratorSettings

    Returns
    -------
    Trajectory
        Sample 0 is y0.  If a step raises DomainError, or the last sample
        lies outside the chart, the trajectory ends at the last valid sample
        with `truncated` set and the reason recorded.

    Raises
    ------
    NonFiniteStateError
        A step produced NaN or infinity.
    """
    y = np.array(y0, dtype=float).reshape(-1)
    if y.size != len(model.columns):
        raise ValueError(
            f"state length {y.size} does not match layout {model.columns}"
        )
    step_fn = _rk4_step if settings.scheme == "rk4" else _midpoint_step

    times = [0.0]
    samples = [y.copy()]
    truncated = False
    reason = None
    for step in range(1, settings.n_steps + 1):
        try:
            y = step_fn(model.rhs, y, settings.dt)
        except DomainError as exc:
            truncated = True
            reason = f"step {step}: {exc}"
            break
        if not np.all(np.isfinite(y)):
            raise NonFiniteStateError(f"non-finite state at step {step}")
        if step % settings.sample_every == 0:
            times.append(step * settings.dt)
            samples.append(y.copy())

    # each earlier sample began a step, whose rhs checked it against the
    # chart; nothing checked the last one
    rows = [model.monitors(y) for y in samples[:-1]]
    try:
        rows.append(model.monitors(samples[-1]))
    except DomainError as exc:
        if not rows:
            raise
        del samples[-1], times[-1]
        if not truncated:
            truncated, reason = True, f"step {settings.n_steps}: {exc}"

    return Trajectory(
        model=model.name,
        columns=tuple(model.columns),
        times=np.array(times),
        states=np.array(samples),
        monitors=dict(zip(MONITORS, np.array(rows).T.copy())),
        truncated=truncated,
        truncation_reason=reason,
    )
