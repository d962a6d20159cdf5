"""Command-line front end: run scenarios, verify suites, compare, query K.

Exit codes: 0 success, 1 numeric failure, 2 configuration error, 3 domain
truncation.
"""

from __future__ import annotations

import argparse
import sys

from . import config, suites, verify
from .errors import ConfigError, DomainError, GridMismatchError, GyrosurfError
from .geometry import gauss_bonnet_patch_K, geometry_jet
from .integrators import integrate


def _parse_pair(text: str, option: str, kind) -> list[float]:
    """Two comma-separated numbers, checked as the schema type `kind`."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{option} expects two comma-separated numbers")
    try:
        pair = [float(parts[0]), float(parts[1])]
    except ValueError:
        raise ConfigError(f"{option} expects numbers, got {text!r}")
    return config._value(kind, pair, option)


def _cmd_run(args) -> int:
    cfg = config.load_scenario(args.config)
    if "output" not in cfg.data:
        raise ConfigError("missing required key for run", key="output")
    model = config.build_model(cfg)
    try:
        y0 = config.build_initial(cfg, model)
    except DomainError as exc:
        raise ConfigError(f"initial condition outside chart domain: {exc}",
                          key="initial.x")
    traj = integrate(model, y0, config.build_settings(cfg))
    config.write_trajectory(cfg, traj)
    out = cfg.data["output"]
    print(f"wrote {out['path']} ({traj.n_samples} samples)")
    if traj.truncated:
        print(f"truncated: {traj.truncation_reason}", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    results = suites.run_suite(args.suite)
    for result in results:
        print(result.line())
    failing = [r.name for r in results if not r.passed]
    if failing:
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def _chart_for_compare(model_a, model_b):
    for model in (model_b, model_a):
        if getattr(model, "chart", None) is not None:
            return model.chart
    # two tops: compare on the shared monitor sphere
    return model_a.monitor_chart


def _cmd_compare(args) -> int:
    cfg_a = config.load_scenario(args.config_a)
    if args.map_top:
        if args.config_b is not None:
            raise ConfigError("--map-top derives the second scenario; "
                              "give only one config")
        cfg_b = config.map_top_scenario(cfg_a)
    else:
        if args.config_b is None:
            raise ConfigError("compare needs a second config or --map-top")
        cfg_b = config.load_scenario(args.config_b)

    if cfg_a.data["integrator"] != cfg_b.data["integrator"]:
        raise ConfigError("scenarios must share integrator settings",
                          key="integrator")

    compare_block = cfg_a.data.get("compare") or cfg_b.data.get("compare")
    tolerance = None if args.tol is None \
        else config._value("positive", args.tol, "--tol")
    metric = args.metric
    if compare_block is not None:
        if tolerance is None:
            tolerance = compare_block["tolerance"]
        if metric is None:
            metric = compare_block["metric"]
    if tolerance is None:
        raise ConfigError("no tolerance given (compare block or --tol)",
                          key="compare.tolerance")
    if metric is None:
        metric = "coordinate_sup"

    model_a = config.build_model(cfg_a)
    model_b = config.build_model(cfg_b)
    traj_a = integrate(model_a, config.build_initial(cfg_a, model_a),
                       config.build_settings(cfg_a))
    traj_b = integrate(model_b, config.build_initial(cfg_b, model_b),
                       config.build_settings(cfg_b))
    for name, traj in (("A", traj_a), ("B", traj_b)):
        if traj.truncated:
            print(f"trajectory {name} truncated: {traj.truncation_reason}",
                  file=sys.stderr)
            return 3

    report = verify.compare_trajectories(
        traj_a, traj_b, metric,
        chart=_chart_for_compare(model_a, model_b),
        tolerance=tolerance,
    )
    status = "pass" if report.passed else "fail"
    print("compare_%s,%s,%.6e,%.6e,%.6e"
          % (metric, status, report.max_abs, report.rms, tolerance))
    return 0 if report.passed else 1


def _load_chart_config(path: str):
    data = config.read_json(path)
    if isinstance(data, dict) and set(data) == {"surface"}:
        return config.build_surface(config.parse_surface(data["surface"]))
    cfg = config.ScenarioConfig(data)
    if cfg.model_kind == "top":
        raise ConfigError("top scenarios have no coordinate chart",
                          key="model")
    return config.build_chart(cfg)


def _cmd_curvature(args) -> int:
    chart = _load_chart_config(args.config)
    x = _parse_pair(args.at, "--at", "pair")
    if args.patch is not None:
        eps, delta = _parse_pair(args.patch, "--patch", ["positive"])
    try:
        jet = geometry_jet(chart, x)
    except DomainError as exc:
        raise ConfigError(f"point outside chart domain: {exc}")
    print("K,%.17g" % jet.K)
    if args.patch is not None:
        estimate = gauss_bonnet_patch_K(chart, x, eps, delta)
        print("patch_K,%.17g" % estimate)
        print("patch_error,%.17g" % (estimate - jet.K))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gyrosurf",
        description="Spinning-disk dynamics on curved surfaces: run "
                    "scenarios, verify invariants, compare trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and write output")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run a named check suite")
    p_verify.add_argument("suite", choices=suites.SUITE_NAMES)
    p_verify.set_defaults(func=_cmd_verify)

    p_cmp = sub.add_parser("compare",
                           help="integrate two scenarios and report deviation")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b", nargs="?", default=None)
    p_cmp.add_argument("--map-top", action="store_true",
                       help="derive scenario B from a top scenario A")
    p_cmp.add_argument("--tol", type=float, default=None,
                       help="override the config compare tolerance")
    p_cmp.add_argument("--metric", choices=config.COMPARE_METRICS,
                       default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_curv = sub.add_parser("curvature",
                            help="evaluate K at a point, optionally with a "
                                 "loop-based estimate")
    p_curv.add_argument("config")
    p_curv.add_argument("--at", required=True, metavar="x1,x2")
    p_curv.add_argument("--patch", default=None, metavar="eps,delta")
    p_curv.set_defaults(func=_cmd_curvature)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GridMismatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except GyrosurfError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
