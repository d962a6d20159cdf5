import csv
import json
import math

import pytest

from gyrosurf.cli import main
from gyrosurf.config import ScenarioConfig, parse_scenario


def scenario(tmp_path, out_name="out.csv", **overrides):
    cfg = {
        "surface": {"kind": "sphere", "R": 1.0},
        "model": "magnetic",
        "params": {"m": 1.0, "L": 2.0},
        "initial": {"x": [math.pi / 2, 0.0], "v": [0.0, 1.0]},
        "integrator": {"dt": 1e-3, "n_steps": 100, "sample_every": 10},
        "output": {"format": "csv", "path": str(tmp_path / out_name)},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_writes_csv(tmp_path, capsys):
    cfg = scenario(tmp_path)
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "11 samples" in out
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "v1", "v2", "E", "speed", "k_geo", "K"]
    assert len(rows) == 12
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(0.1)
    # K = 1 everywhere on the unit sphere
    assert all(abs(float(r[-1]) - 1.0) < 1e-12 for r in rows[1:])


def test_run_json_output(tmp_path):
    cfg = scenario(tmp_path, out_name="out.json")
    cfg["output"] = {"format": "json", "path": str(tmp_path / "out.json")}
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["model"] == "magnetic"
    assert doc["columns"][0] == "t"
    assert len(doc["rows"]) == 11
    assert doc["truncated"] is False
    assert doc["truncation_reason"] is None


@pytest.mark.parametrize("model,params", [
    ("geodesic", {"m": 1.0}),
    ("reduced_disk", {"m": 1.0, "I_d": 0.0, "L": 2.0}),
    ("reduced_disk", {"m": 1.0, "I_d": 0.01, "L": 2.0}),
])
def test_run_json_names_surface_model_kind(tmp_path, model, params):
    cfg = scenario(tmp_path, model=model, params=params)
    cfg["output"] = {"format": "json", "path": str(tmp_path / "out.json")}
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["model"] == model


def test_run_subset_of_output_fields(tmp_path):
    cfg = scenario(tmp_path)
    cfg["output"]["fields"] = ["t", "x1", "E"]
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "E"]


def test_run_rejects_unknown_field(tmp_path, capsys):
    cfg = scenario(tmp_path)
    cfg["output"]["fields"] = ["t", "x9"]
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "output.fields" in capsys.readouterr().err


def test_negative_mass_is_config_error(tmp_path, capsys):
    cfg = scenario(tmp_path)
    cfg["params"]["m"] = -1.0
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "params.m" in err


def test_unknown_key_rejected_with_path(tmp_path, capsys):
    cfg = scenario(tmp_path)
    cfg["surface"]["radius"] = 2.0
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "surface.radius" in capsys.readouterr().err


def test_missing_output_block_is_config_error(tmp_path, capsys):
    cfg = scenario(tmp_path)
    del cfg["output"]
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "output" in capsys.readouterr().err


def test_pole_crossing_truncates_with_exit_3(tmp_path, capsys):
    cfg = scenario(tmp_path)
    cfg["model"] = "geodesic"
    cfg["params"] = {"m": 1.0}
    cfg["initial"] = {"x": [math.pi / 2, 0.0], "v": [-1.0, 0.0]}
    cfg["integrator"] = {"dt": 1e-2, "n_steps": 1000}
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    captured = capsys.readouterr()
    assert "truncated:" in captured.err
    lines = (tmp_path / "out.csv").read_text().rstrip().splitlines()
    assert lines[-1].startswith("# truncated: step ")


def test_initial_point_outside_domain(tmp_path, capsys):
    cfg = scenario(tmp_path)
    cfg["initial"]["x"] = [4.0, 0.0]
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "initial.x" in capsys.readouterr().err


def test_theta_dot_and_omega_a_are_exclusive(tmp_path, capsys):
    base = {
        "surface": {"kind": "sphere", "R": 1.0},
        "model": "full_disk",
        "params": {"m": 1.0, "I_a": 0.02, "I_d": 0.01, "R_disk": 0.2},
        "integrator": {"dt": 1e-3, "n_steps": 10},
        "output": {"format": "csv", "path": str(tmp_path / "fd.csv")},
    }
    both = dict(base, initial={"x": [1.0, 0.0], "v": [0.0, 1.0],
                               "theta_dot": 1.0, "omega_a": 1.0})
    assert main(["run", write_config(tmp_path, both, "a.json")]) == 2
    assert "initial" in capsys.readouterr().err
    neither = dict(base, initial={"x": [1.0, 0.0], "v": [0.0, 1.0]})
    assert main(["run", write_config(tmp_path, neither, "b.json")]) == 2
    ok = dict(base, initial={"x": [1.0, 0.0], "v": [0.0, 1.0],
                             "omega_a": 50.0})
    assert main(["run", write_config(tmp_path, ok, "c.json")]) == 0


def test_top_scenario_forbids_surface(tmp_path, capsys):
    cfg = {
        "surface": {"kind": "sphere", "R": 1.0},
        "model": "top",
        "params": {"M": 1.0, "ell": 0.5, "I1": 2.0, "I3": 1.0, "g": 9.8},
        "initial": {"x": [1.0, 0.0], "v": [0.0, 0.4], "omega_a": 30.0},
        "integrator": {"dt": 1e-3, "n_steps": 10},
        "output": {"format": "csv", "path": str(tmp_path / "top.csv")},
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "surface" in capsys.readouterr().err
    del cfg["surface"]
    assert main(["run", write_config(tmp_path, cfg, "ok.json")]) == 0


def test_config_round_trip(tmp_path):
    cfg = parse_scenario(scenario(tmp_path))
    again = parse_scenario(cfg.to_dict())
    assert cfg == again
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.model_kind == "magnetic"


def test_verify_geometry_suite(capsys):
    assert main(["verify", "geometry"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    names = {ln.split(",")[0] for ln in lines}
    assert "lemma2_identity" in names
    assert "holonomy_latitude" in names
    assert all(ln.split(",")[1] == "pass" for ln in lines)


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "everything"])


def test_compare_map_top(tmp_path, capsys):
    cfg = {
        "model": "top",
        "params": {"M": 1.0, "ell": 0.5, "I1": 2.0, "I3": 1.0, "g": 9.8},
        "initial": {"x": [math.pi / 3, 0.0], "v": [0.0, 0.4],
                    "omega_a": 30.0},
        "integrator": {"dt": 1e-3, "n_steps": 400, "sample_every": 10},
        "compare": {"tolerance": 1e-6, "metric": "chart_distance"},
    }
    assert main(["compare", write_config(tmp_path, cfg), "--map-top"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("compare_chart_distance,pass,")


def test_compare_two_scenarios(tmp_path, capsys):
    # magnetic model with L=0 against the plain geodesic
    a = scenario(tmp_path, out_name="a.csv")
    a["surface"] = {"kind": "cylinder", "r": 1.0, "half_length": 20.0}
    a["params"] = {"m": 1.0, "L": 2.0}
    a["initial"] = {"x": [0.0, 0.0], "v": [0.3, 1.0]}
    a["integrator"] = {"dt": 1e-3, "n_steps": 500, "sample_every": 10}
    del a["output"]
    b = json.loads(json.dumps(a))
    b["model"] = "geodesic"
    b["params"] = {"m": 1.0}
    pa = write_config(tmp_path, a, "a.json")
    pb = write_config(tmp_path, b, "b.json")
    assert main(["compare", pa, pb, "--tol", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("compare_coordinate_sup,pass,")
    # a tolerance the curved-deflection cannot meet flips the exit code
    a["surface"] = {"kind": "sphere", "R": 1.0}
    a["initial"] = {"x": [math.pi / 2, 0.0], "v": [0.0, 1.0]}
    b["surface"] = {"kind": "sphere", "R": 1.0}
    b["initial"] = {"x": [math.pi / 2, 0.0], "v": [0.0, 1.0]}
    pa = write_config(tmp_path, a, "a2.json")
    pb = write_config(tmp_path, b, "b2.json")
    assert main(["compare", pa, pb, "--tol", "1e-8"]) == 1
    assert capsys.readouterr().out.startswith("compare_coordinate_sup,fail,")


def test_compare_requires_matching_integrators(tmp_path, capsys):
    a = scenario(tmp_path)
    del a["output"]
    b = json.loads(json.dumps(a))
    b["integrator"]["dt"] = 2e-3
    b["compare"] = {"tolerance": 1e-6}
    a["compare"] = {"tolerance": 1e-6}
    pa = write_config(tmp_path, a, "a.json")
    pb = write_config(tmp_path, b, "b.json")
    assert main(["compare", pa, pb]) == 2
    assert "integrator" in capsys.readouterr().err


def test_compare_needs_tolerance_somewhere(tmp_path, capsys):
    a = scenario(tmp_path)
    del a["output"]
    b = json.loads(json.dumps(a))
    pa = write_config(tmp_path, a, "a.json")
    pb = write_config(tmp_path, b, "b.json")
    assert main(["compare", pa, pb]) == 2
    assert "compare.tolerance" in capsys.readouterr().err
    assert main(["compare", pa, pb, "--tol", "1e-6"]) == 0


def test_curvature_command(tmp_path, capsys):
    path = write_config(tmp_path, {"surface": {"kind": "torus",
                                               "R0": 2.0, "r": 0.5}},
                        "surf.json")
    assert main(["curvature", path, "--at", "0,0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "K,0.80000000000000004"

    assert main(["curvature", path, "--at", "0,0",
                 "--patch", "0.01,0.01"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "K,0.80000000000000004"
    assert lines[1].startswith("patch_K,0.7999")
    assert float(lines[2].split(",")[1]) < 1e-3


def test_curvature_accepts_full_scenario(tmp_path, capsys):
    path = write_config(tmp_path, scenario(tmp_path))
    assert main(["curvature", path, "--at", "1.0,0.5"]) == 0
    assert capsys.readouterr().out.startswith("K,1")


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
