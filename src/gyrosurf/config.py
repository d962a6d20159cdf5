"""Scenario files: strict JSON schema, builders, trajectory writers.

A scenario pins one run completely: surface, model kind, physical
parameters, initial conditions, integrator settings and output routing.
Unknown keys are rejected with their full key path; defaults are filled in
at parse time so a config re-serialized with to_dict() and re-parsed is
identical.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

from . import charts, dynamics, models, potentials
from .errors import ConfigError
from .integrators import SCHEMES, IntegratorSettings, Trajectory

SURFACE_KINDS = ("plane", "sphere", "torus", "cylinder", "saddle", "custom")
MODEL_KINDS = ("geodesic", "magnetic", "reduced_disk", "full_disk", "top")
POTENTIAL_KINDS = ("none", "axis_cosine", "expression")
OUTPUT_FORMATS = ("csv", "json")
COMPARE_METRICS = ("coordinate_sup", "chart_distance")

SURFACE_COLUMNS = ("t", "x1", "x2", "v1", "v2", "E", "speed", "k_geo", "K")
SPINNING_COLUMNS = ("t", "x1", "x2", "theta", "v1", "v2", "theta_dot",
                    "E", "speed", "omega_a", "k_geo", "K")


def _check_keys(block: dict, path: str, allowed: set[str],
                required: tuple[str, ...]) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError("unknown key", key=f"{path}.{key}")
    for key in required:
        if key not in block:
            raise ConfigError("missing required key", key=f"{path}.{key}")


def _block(data: dict, key: str) -> dict:
    value = data[key]
    if not isinstance(value, dict):
        raise ConfigError("expected an object", key=key)
    return value


def _number(block: dict, path: str, key: str, *, positive=False,
            nonnegative=False) -> float:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("expected a number", key=f"{path}.{key}")
    if positive and not value > 0:
        raise ConfigError("must be positive", key=f"{path}.{key}")
    if nonnegative and value < 0:
        raise ConfigError("must be nonnegative", key=f"{path}.{key}")
    return float(value)


def _integer(block: dict, path: str, key: str, minimum: int) -> int:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("expected an integer", key=f"{path}.{key}")
    if value < minimum:
        raise ConfigError(f"must be at least {minimum}", key=f"{path}.{key}")
    return value


def _string(block: dict, path: str, key: str,
            choices: tuple[str, ...] | None = None) -> str:
    value = block[key]
    if not isinstance(value, str):
        raise ConfigError("expected a string", key=f"{path}.{key}")
    if choices is not None and value not in choices:
        raise ConfigError(f"must be one of {choices}", key=f"{path}.{key}")
    return value


def _pair(block: dict, path: str, key: str) -> list[float]:
    value = block[key]
    if (not isinstance(value, list) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in value)):
        raise ConfigError("expected a pair of numbers", key=f"{path}.{key}")
    return [float(v) for v in value]


def _validate_surface(block: dict) -> dict:
    kind = _string(block, "surface", "kind", SURFACE_KINDS) \
        if "kind" in block else None
    if kind is None:
        raise ConfigError("missing required key", key="surface.kind")
    out = {"kind": kind}
    if kind == "plane":
        _check_keys(block, "surface", {"kind", "extent"}, ())
        out["extent"] = _number(block, "surface", "extent", positive=True) \
            if "extent" in block else 50.0
    elif kind == "sphere":
        _check_keys(block, "surface", {"kind", "R", "pole_guard"}, ("R",))
        out["R"] = _number(block, "surface", "R", positive=True)
        out["pole_guard"] = (
            _number(block, "surface", "pole_guard", positive=True)
            if "pole_guard" in block else 1e-3
        )
        if out["pole_guard"] >= math.pi / 2:
            raise ConfigError("must be below pi/2", key="surface.pole_guard")
    elif kind == "torus":
        _check_keys(block, "surface", {"kind", "R0", "r"}, ("R0", "r"))
        out["R0"] = _number(block, "surface", "R0", positive=True)
        out["r"] = _number(block, "surface", "r", positive=True)
        if out["r"] >= out["R0"]:
            raise ConfigError("tube radius must be below R0", key="surface.r")
    elif kind == "cylinder":
        _check_keys(block, "surface", {"kind", "r", "half_length"}, ("r",))
        out["r"] = _number(block, "surface", "r", positive=True)
        out["half_length"] = (
            _number(block, "surface", "half_length", positive=True)
            if "half_length" in block else 50.0
        )
    elif kind == "saddle":
        _check_keys(block, "surface", {"kind", "kappa", "extent"}, ("kappa",))
        out["kappa"] = _number(block, "surface", "kappa")
        if out["kappa"] == 0.0:
            raise ConfigError("must be nonzero", key="surface.kappa")
        out["extent"] = _number(block, "surface", "extent", positive=True) \
            if "extent" in block else 5.0
    else:
        _check_keys(
            block, "surface",
            {"kind", "a11", "a22", "x1_range", "x2_range",
             "periodic_x1", "periodic_x2", "embedding"},
            ("a11", "a22", "x1_range", "x2_range"),
        )
        out["a11"] = _string(block, "surface", "a11")
        out["a22"] = _string(block, "surface", "a22")
        out["x1_range"] = _pair(block, "surface", "x1_range")
        out["x2_range"] = _pair(block, "surface", "x2_range")
        for key in ("periodic_x1", "periodic_x2"):
            flag = block.get(key, False)
            if not isinstance(flag, bool):
                raise ConfigError("expected a boolean", key=f"surface.{key}")
            out[key] = flag
        if "embedding" in block:
            emb = block["embedding"]
            if (not isinstance(emb, list) or len(emb) != 3
                    or any(not isinstance(e, str) for e in emb)):
                raise ConfigError("expected three expression strings",
                                  key="surface.embedding")
            out["embedding"] = list(emb)
    return out


_PARAM_KEYS = {
    "geodesic": (("m",), ()),
    "magnetic": (("m", "L"), ()),
    "reduced_disk": (("m", "I_d", "L"), ("omega_d_form",)),
    "full_disk": (("m", "I_a", "I_d", "R_disk"), ("omega_d_form",)),
    "top": (("M", "ell", "I1", "I3", "g"), ()),
}


def _validate_params(block: dict, model: str) -> dict:
    required, optional = _PARAM_KEYS[model]
    _check_keys(block, "params", set(required) | set(optional), required)
    out = {}
    for key in required:
        if key in ("L", "g"):
            out[key] = _number(block, "params", key)
        elif key == "I_d":
            out[key] = _number(block, "params", key, nonnegative=True)
        else:
            out[key] = _number(block, "params", key, positive=True)
    if "omega_d_form" in optional:
        out["omega_d_form"] = (
            _string(block, "params", "omega_d_form",
                    ("third_form", "second_form"))
            if "omega_d_form" in block else "third_form"
        )
    return out


def _validate_initial(block: dict, model: str) -> dict:
    out = {}
    if model in ("full_disk", "top"):
        _check_keys(block, "initial",
                    {"x", "v", "theta", "theta_dot", "omega_a"}, ("x", "v"))
        if ("theta_dot" in block) == ("omega_a" in block):
            raise ConfigError(
                "exactly one of theta_dot and omega_a is required",
                key="initial",
            )
        out["x"] = _pair(block, "initial", "x")
        out["v"] = _pair(block, "initial", "v")
        out["theta"] = _number(block, "initial", "theta") \
            if "theta" in block else 0.0
        spin_key = "theta_dot" if "theta_dot" in block else "omega_a"
        out[spin_key] = _number(block, "initial", spin_key)
    else:
        _check_keys(block, "initial", {"x", "v"}, ("x", "v"))
        out["x"] = _pair(block, "initial", "x")
        out["v"] = _pair(block, "initial", "v")
    return out


def _validate_integrator(block: dict) -> dict:
    _check_keys(block, "integrator",
                {"dt", "n_steps", "sample_every", "scheme"},
                ("dt", "n_steps"))
    return {
        "dt": _number(block, "integrator", "dt", positive=True),
        "n_steps": _integer(block, "integrator", "n_steps", 1),
        "sample_every": (_integer(block, "integrator", "sample_every", 1)
                         if "sample_every" in block else 1),
        "scheme": (_string(block, "integrator", "scheme", SCHEMES)
                   if "scheme" in block else "rk4"),
    }


def _validate_potential(block: dict) -> dict:
    if "kind" not in block:
        raise ConfigError("missing required key", key="potential.kind")
    kind = _string(block, "potential", "kind", POTENTIAL_KINDS)
    if kind == "none":
        _check_keys(block, "potential", {"kind"}, ())
        return {"kind": "none"}
    if kind == "axis_cosine":
        _check_keys(block, "potential", {"kind", "c"}, ("c",))
        return {"kind": kind, "c": _number(block, "potential", "c")}
    _check_keys(block, "potential", {"kind", "text"}, ("text",))
    return {"kind": kind, "text": _string(block, "potential", "text")}


def _validate_output(block: dict, columns: tuple[str, ...]) -> dict:
    _check_keys(block, "output", {"format", "path", "fields"},
                ("format", "path"))
    out = {
        "format": _string(block, "output", "format", OUTPUT_FORMATS),
        "path": _string(block, "output", "path"),
    }
    if "fields" in block:
        fields = block["fields"]
        if not isinstance(fields, list) or not fields:
            raise ConfigError("expected a non-empty list",
                              key="output.fields")
        for name in fields:
            if name not in columns:
                raise ConfigError(
                    f"unknown field {name!r}; columns are {columns}",
                    key="output.fields",
                )
        out["fields"] = list(fields)
    else:
        out["fields"] = list(columns)
    return out


def _validate_compare(block: dict) -> dict:
    _check_keys(block, "compare", {"metric", "tolerance"}, ("tolerance",))
    return {
        "metric": (_string(block, "compare", "metric", COMPARE_METRICS)
                   if "metric" in block else "coordinate_sup"),
        "tolerance": _number(block, "compare", "tolerance", positive=True),
    }


class ScenarioConfig:
    """Validated scenario with defaults filled in."""

    TOP_LEVEL = {"surface", "model", "params", "initial", "potential",
                 "integrator", "output", "compare"}

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("scenario must be a JSON object")
        for key in data:
            if key not in self.TOP_LEVEL:
                raise ConfigError("unknown key", key=key)
        if "model" not in data:
            raise ConfigError("missing required key", key="model")
        if not isinstance(data["model"], str) or data["model"] not in MODEL_KINDS:
            raise ConfigError(f"must be one of {MODEL_KINDS}", key="model")
        model = data["model"]

        normalized: dict = {"model": model}
        if model == "top":
            if "surface" in data:
                raise ConfigError("the top model fixes its own geometry",
                                  key="surface")
            if "potential" in data:
                raise ConfigError("the top model carries its own gravity term",
                                  key="potential")
        else:
            if "surface" not in data:
                raise ConfigError("missing required key", key="surface")
            normalized["surface"] = _validate_surface(_block(data, "surface"))
        for key in ("params", "initial", "integrator"):
            if key not in data:
                raise ConfigError("missing required key", key=key)
        normalized["params"] = _validate_params(_block(data, "params"), model)
        normalized["initial"] = _validate_initial(_block(data, "initial"),
                                                  model)
        normalized["integrator"] = _validate_integrator(
            _block(data, "integrator")
        )
        if model != "top":
            normalized["potential"] = (
                _validate_potential(_block(data, "potential"))
                if "potential" in data else {"kind": "none"}
            )
        if "output" in data:
            normalized["output"] = _validate_output(
                _block(data, "output"), self._columns_for(model)
            )
        if "compare" in data:
            normalized["compare"] = _validate_compare(_block(data, "compare"))
        self.data = normalized

    @staticmethod
    def _columns_for(model: str) -> tuple[str, ...]:
        return SPINNING_COLUMNS if model in ("full_disk", "top") \
            else SURFACE_COLUMNS

    @property
    def model_kind(self) -> str:
        return self.data["model"]

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns_for(self.model_kind)

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)

    def __eq__(self, other) -> bool:
        return isinstance(other, ScenarioConfig) and self.data == other.data

    def __repr__(self) -> str:
        return f"ScenarioConfig({self.data['model']})"


def parse_scenario(data: dict) -> ScenarioConfig:
    return ScenarioConfig(data)


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}")
    return ScenarioConfig(data)


# -- builders ------------------------------------------------------------------


def build_chart(cfg: ScenarioConfig) -> charts.SurfaceChart:
    s = cfg.data["surface"]
    kind = s["kind"]
    if kind == "plane":
        return charts.plane(extent=s["extent"])
    if kind == "sphere":
        return charts.sphere(s["R"], pole_guard=s["pole_guard"])
    if kind == "torus":
        return charts.torus(s["R0"], s["r"])
    if kind == "cylinder":
        return charts.cylinder(s["r"], half_length=s["half_length"])
    if kind == "saddle":
        return charts.saddle(s["kappa"], extent=s["extent"])
    domain = charts.Domain(
        tuple(s["x1_range"]), tuple(s["x2_range"]),
        periodic_x1=s["periodic_x1"], periodic_x2=s["periodic_x2"],
    )
    try:
        return charts.custom(s["a11"], s["a22"],
                             embedding=s.get("embedding"), domain=domain)
    except ValueError as exc:
        raise ConfigError(str(exc), key="surface")


def build_potential(cfg: ScenarioConfig) -> potentials.Potential:
    p = cfg.data.get("potential", {"kind": "none"})
    if p["kind"] == "none":
        return potentials.none()
    if p["kind"] == "axis_cosine":
        return potentials.axis_cosine(p["c"])
    try:
        return potentials.from_expression(p["text"])
    except Exception as exc:
        raise ConfigError(str(exc), key="potential.text")


def build_model(cfg: ScenarioConfig):
    kind = cfg.model_kind
    prm = cfg.data["params"]
    if kind == "top":
        top = dynamics.TopParams(M=prm["M"], ell=prm["ell"], I1=prm["I1"],
                                 I3=prm["I3"], g=prm["g"])
        return models.TopModel(top)
    chart = build_chart(cfg)
    potential = build_potential(cfg)
    if kind == "geodesic":
        return models.GeodesicModel(chart, prm["m"], potential)
    if kind == "magnetic":
        return models.MagneticModel(chart, prm["m"], prm["L"], potential)
    if kind == "reduced_disk":
        return models.ReducedDiskModel(chart, prm["m"], prm["I_d"], prm["L"],
                                       potential, prm["omega_d_form"])
    disk = dynamics.DiskParams(m=prm["m"], I_a=prm["I_a"], I_d=prm["I_d"],
                               R_disk=prm["R_disk"])
    return models.FullDiskModel(chart, disk, potential, prm["omega_d_form"])


def build_initial(cfg: ScenarioConfig, model) -> np.ndarray:
    ini = cfg.data["initial"]
    x = np.array(ini["x"], dtype=float)
    v = np.array(ini["v"], dtype=float)
    chart = model.chart if model.chart is not None else model.monitor_chart
    chart.domain.wrap(x)
    if model.n_pos == 2:
        return model.pack(dynamics.ReducedState(x=x, v=v))
    state = dynamics.FullState(x=x, v=v, theta=ini["theta"],
                               theta_dot=ini.get("theta_dot", 0.0))
    if "theta_dot" not in ini:
        # omega_a is theta_dot plus a term in (x, v); at theta_dot = 0 the
        # model's axial spin is that term alone
        state.theta_dot = ini["omega_a"] - model.omega_a(model.pack(state))
    return model.pack(state)


def build_settings(cfg: ScenarioConfig) -> IntegratorSettings:
    i = cfg.data["integrator"]
    return IntegratorSettings(dt=i["dt"], n_steps=i["n_steps"],
                              sample_every=i["sample_every"],
                              scheme=i["scheme"])


def map_top_scenario(cfg: ScenarioConfig) -> ScenarioConfig:
    """Derive the equivalent sphere-magnetic scenario from a top scenario."""
    if cfg.model_kind != "top":
        raise ConfigError("mapping applies to top scenarios only", key="model")
    prm = cfg.data["params"]
    ini = cfg.data["initial"]
    top = dynamics.TopParams(M=prm["M"], ell=prm["ell"], I1=prm["I1"],
                             I3=prm["I3"], g=prm["g"])
    eq = dynamics.top_to_sphere(top)
    if "omega_a" in ini:
        omega_a = ini["omega_a"]
    else:
        omega_a = ini["theta_dot"] + ini["v"][1] * math.cos(ini["x"][0])
    derived = {
        "surface": {"kind": "sphere", "R": eq.R},
        "model": "magnetic",
        "params": {"m": eq.m, "L": eq.charge(omega_a)},
        "initial": {"x": list(ini["x"]), "v": list(ini["v"])},
        "potential": {"kind": "axis_cosine", "c": eq.m * top.g * eq.R},
        "integrator": dict(cfg.data["integrator"]),
    }
    if "compare" in cfg.data:
        derived["compare"] = dict(cfg.data["compare"])
    return ScenarioConfig(derived)


# -- trajectory output ---------------------------------------------------------


def _field_values(traj: Trajectory, name: str) -> np.ndarray:
    if name == "t":
        return traj.times
    if name in traj.columns:
        return traj.column(name)
    return traj.monitors[name]


def trajectory_table(traj: Trajectory,
                     fields: list[str]) -> tuple[list[str], np.ndarray]:
    table = np.column_stack([_field_values(traj, name) for name in fields])
    return list(fields), table


def write_csv(path: str, traj: Trajectory, fields: list[str]) -> None:
    header, table = trajectory_table(traj, fields)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
        if traj.truncated:
            fh.write(f"# truncated: {traj.truncation_reason}\n")


def write_json(path: str, traj: Trajectory, fields: list[str]) -> None:
    header, table = trajectory_table(traj, fields)
    doc = {
        "model": traj.model,
        "columns": header,
        "rows": [list(row) for row in table.tolist()],
        "truncated": traj.truncated,
        "truncation_reason": traj.truncation_reason,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_trajectory(cfg: ScenarioConfig, traj: Trajectory) -> None:
    out = cfg.data["output"]
    if out["format"] == "csv":
        write_csv(out["path"], traj, out["fields"])
    else:
        write_json(out["path"], traj, out["fields"])
