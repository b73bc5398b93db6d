"""Batch experiment runner: `dnls-lab <scenario> --config cfg.json`.

Configuration is one JSON object; the scenario schema below validates it
and fills defaults.  Each run writes into the output directory:

    report.json     machine-readable results (deterministic for a fixed
                    config + seed: no timestamps inside)
    report.csv      flat metric rows, plus elapsed wall time
    plotdata/*.tsv  two-column series for external plotting
    fields/*.fd     optional field dumps

Exit codes: 0 all in-scenario assertions passed, 1 an assertion failed,
2 the config did not validate.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import scenarios
from .errors import DnlsLabError
from .fields import _is_power_of_two
from .io import write_field


class SchemaError(Exception):
    pass


# name -> (runner, {param: (type, required, default)})
SCENARIOS = {
    "solve": (scenarios.run_solve, {
        "kind": (str, False, "torus"),
        "n_points": (int, False, 256),
        "domain_scale": (int, False, 1),
        "dt": (float, True, None),
        "t_final": (float, True, None),
        "lambda": (float, False, 0.0),
        "k_power": (int, False, 0),
        "gauged": (bool, False, False),
        "integrator": (str, False, "etdrk4"),
        "pad_factor": (int, False, 4),
        "initial": (dict, False, {"type": "trig", "h1_norm": 0.3}),
    }),
    "plane-wave": (scenarios.run_plane_wave, {
        "n_points": (int, False, 256),
        "dt": (float, True, None),
        "t_final": (float, False, 0.1),
        "amplitude": (float, False, 0.5),
        "lambda": (float, False, 0.0),
        "k_power": (int, False, 0),
        "refine": (bool, False, True),
    }),
    "gauge-roundtrip": (scenarios.run_gauge_roundtrip, {
        "kind": (str, False, "torus"),
        "n_points": (int, False, 256),
        "domain_scale": (int, False, 1),
        "ensemble": (int, False, 100),
    }),
    "gauge-equivalence": (scenarios.run_gauge_equivalence, {
        "kind": (str, False, "torus"),
        "n_points": (int, False, 256),
        "domain_scale": (int, False, 1),
        "dt": (float, True, None),
        "t_final": (float, False, 0.05),
        "h1_norm": (float, False, 0.3),
        "lambda": (float, False, 1.0),
        "k_power": (int, False, 1),
        "l_refine": (bool, False, True),
    }),
    "scaling": (scenarios.run_scaling, {
        "kind": (str, False, "line"),
        "n_points": (int, False, 256),
        "domain_scale": (int, False, 4),
        "dt": (float, True, None),
        "t_final": (float, False, 0.05),
        "sigmas": (list, False, [2, 4]),
    }),
    "flowmap": (scenarios.run_flowmap, {
        "kind": (str, False, "torus"),
        "n_points": (int, False, 128),
        "domain_scale": (int, False, 1),
        "dt": (float, True, None),
        "t_final": (float, False, 0.05),
        "r": (float, False, 0.5),
        "eps_list": (list, False, [1e-2, 1e-3, 1e-4]),
        "ensemble": (int, False, 10),
        "lambda": (float, False, 0.0),
        "k_power": (int, False, 0),
        "gauged": (bool, False, False),
    }),
    "verify-resonance": (scenarios.run_verify_resonance, {
        "n": (int, False, 10 ** 6),
        "box": (float, False, 1e3),
    }),
    "verify-domination": (scenarios.run_verify_domination, {
        "n": (int, False, 10 ** 5),
        "box": (float, False, 100.0),
        "delta": (float, False, 1.0 / 24.0),
    }),
    "probe-strichartz": (scenarios.run_probe_strichartz, {
        "b": (float, False, 0.5),
        "ensemble": (int, False, 100),
        "n_points": (int, False, 32),
        "n_t": (int, False, 256),
        "dt": (float, False, 0.02),
    }),
    "probe-trilinear": (scenarios.run_probe_trilinear, {
        "s": (float, False, 0.5),
        "t_values": (list, False, [1.0, 0.5, 0.25, 0.125]),
        "ensemble": (int, False, 100),
        "n_points": (int, False, 32),
        "kind": (str, False, "torus"),
    }),
    "probe-multilinear": (scenarios.run_probe_multilinear, {
        "k": (int, False, 1),
        "s": (float, False, 0.5),
        "t_values": (list, False, [1.0, 0.5, 0.25, 0.125]),
        "ensemble": (int, False, 50),
        "n_points": (int, False, 32),
        "kind": (str, False, "torus"),
        "delta": (float, False, 1.0 / 16.0),
        "quintic": (bool, False, False),
    }),
    "probe-smult": (scenarios.run_probe_smult, {
        "s": (float, False, 0.5),
        "s1": (float, False, 0.5),
        "s2": (float, False, 0.75),
        "ensemble": (int, False, 100),
        "n_points": (int, False, 256),
    }),
    "dyadic-checks": (scenarios.run_dyadic_checks, {
        "delta": (float, False, 0.25),
        "s": (float, False, 0.5),
        "b": (float, False, 0.5),
        "n_points": (int, False, 64),
    }),
}


# value ranges of the domain and solver keys, wherever a scenario has them
VALUE_RULES = {
    "kind": (lambda v: v in ("torus", "line"), "'torus' or 'line'"),
    "n_points": (lambda v: v >= 8 and _is_power_of_two(v), "a power of two >= 8"),
    "domain_scale": (_is_power_of_two, "a power of two"),
    "dt": (lambda v: 0 < v < math.inf, "positive and finite"),
    "t_final": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "pad_factor": (lambda v: v in (2, 4), "2 or 4"),
    "integrator": (lambda v: v in ("etdrk4", "ifrk4"), "'etdrk4' or 'ifrk4'"),
    "ensemble": (lambda v: v >= 1, "an integer >= 1"),
    # verify-domination's stability pass doubles the box; above 1e55 a
    # product of brackets in its multiplier pieces overflows (worst case
    # between 3.5e55 and 4e55)
    "box": (lambda v: 1 <= v <= 1e55,
            "in [1, 1e55], where every multiplier piece stays finite"),
    "n_t": (lambda v: v >= 2, "an integer >= 2"),
    "amplitude": (lambda v: v != 0, "nonzero"),
    "k_power": (lambda v: v >= 0, "an integer >= 0"),
    "r": (lambda v: v > 0, "positive"),
}

# scenario-specific ranges: the conditions under which the library call behind
# the scenario raises ParameterError, checked up front (NaN, which a library
# check may let through, fails every rule); a rule sees all params
SCENARIO_RULES = {
    "probe-trilinear": [("s", lambda p: p["s"] >= 0.5, ">= 1/2")],
    "probe-multilinear": [("k", lambda p: p["k"] in (0, 1, 2), "0, 1 or 2"),
                          ("delta", lambda p: 0 < p["delta"] < 1 / 8, "in (0, 1/8)")],
    "verify-domination": [("n", lambda p: p["n"] >= 10 ** 4, "an integer >= 10^4")],
    "probe-strichartz": [("b", lambda p: p["b"] > 3 / 8, "> 3/8")],
    "probe-smult": [("s", lambda p: p["s"] >= 0, ">= 0"),
                    ("s1", lambda p: p["s1"] >= p["s"], ">= params.s"),
                    ("s2", lambda p: p["s2"] >= p["s"] and p["s1"] + p["s2"] - p["s"] > 0.5,
                     ">= params.s, with s1 + s2 - s > 1/2")],
    "dyadic-checks": [("delta", lambda p: p["delta"] > 0, "positive")],
}

# entries of the list keys, which must be non-empty; type() rules out bools
ENTRY_RULES = {
    "t_values": (lambda v: type(v) in (int, float) and 0 < v <= 1, "a number in (0, 1]"),
    "sigmas": (lambda v: type(v) is int and _is_power_of_two(v), "an integer power of two"),
    "eps_list": (lambda v: type(v) in (int, float) and 0 < v < math.inf,
                 "a positive finite number"),
}

# keys of solve's `initial` object by type, as scenarios._initial_data reads them
INITIAL_KEYS = {
    "plane": ("amplitude", "mode"),
    "trig": ("h1_norm",),
    "gaussian": ("amplitude", "width", "center", "mode", "h1_norm"),
    "random": ("band", "h1_norm"),
}
# the scales among them, which must be positive
POSITIVE_INITIAL_KEYS = ("width", "h1_norm", "band")


def _check_initial(initial: dict, kind: str):
    typ = initial.get("type", "trig" if kind == "torus" else "gaussian")
    if not isinstance(typ, str) or typ not in INITIAL_KEYS:
        raise SchemaError(f"params.initial.type: must be one of "
                          f"{sorted(INITIAL_KEYS)}, got {typ!r}")
    if typ == "trig" and kind != "torus":
        raise SchemaError("params.initial.type: 'trig' is periodic, torus only")
    for key, val in initial.items():
        if key == "type":
            continue
        if key not in INITIAL_KEYS[typ]:
            raise SchemaError(f"params.initial.{key}: unknown key for type {typ!r}")
        if type(val) not in (int, float) or not math.isfinite(val):
            raise SchemaError(f"params.initial.{key}: must be a finite number, got {val!r}")
        if key in POSITIVE_INITIAL_KEYS and val <= 0:
            raise SchemaError(f"params.initial.{key}: must be positive, got {val!r}")


def validate_spec(spec: dict) -> dict:
    """Check the config against the scenario schema; returns resolved params.

    Error messages carry the JSON path of the offending entry.
    """
    if not isinstance(spec, dict):
        raise SchemaError("config root must be a JSON object")
    scenario = spec.get("scenario")
    if scenario not in SCENARIOS:
        raise SchemaError(
            f"scenario: expected one of {sorted(SCENARIOS)}, got {scenario!r}")
    seed = spec.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SchemaError("seed: must be an integer")
    params_in = spec.get("params", {})
    if not isinstance(params_in, dict):
        raise SchemaError("params: must be a JSON object")
    _, schema = SCENARIOS[scenario]
    resolved = {}
    for key, (typ, required, default) in schema.items():
        if key in params_in:
            val = params_in[key]
            if typ is float and isinstance(val, int) and not isinstance(val, bool):
                val = float(val)
            if typ is int and isinstance(val, bool):
                raise SchemaError(f"params.{key}: expected int, got bool")
            if not isinstance(val, typ):
                raise SchemaError(
                    f"params.{key}: expected {typ.__name__}, got "
                    f"{type(val).__name__}")
            if typ is float and not math.isfinite(val):
                raise SchemaError(f"params.{key}: must be a finite number, got {val!r}")
            resolved[key] = val
        elif required:
            raise SchemaError(f"params.{key}: missing required parameter")
        else:
            resolved[key] = default
    unknown = set(params_in) - set(schema)
    if unknown:
        raise SchemaError(f"params.{sorted(unknown)[0]}: unknown parameter")
    extra_top = set(spec) - {"name", "scenario", "seed", "params", "out"}
    if extra_top:
        raise SchemaError(f"{sorted(extra_top)[0]}: unknown top-level key")
    for key, (ok, valid) in VALUE_RULES.items():
        if key in resolved and not ok(resolved[key]):
            raise SchemaError(f"params.{key}: must be {valid}, got {resolved[key]!r}")
    for key, ok, valid in SCENARIO_RULES.get(scenario, []):
        if not ok(resolved):
            raise SchemaError(f"params.{key}: must be {valid}, got {resolved[key]!r}")
    for key, (ok, valid) in ENTRY_RULES.items():
        if resolved.get(key) == []:
            raise SchemaError(f"params.{key}: must be a non-empty list, got []")
        for i, v in enumerate(resolved.get(key, [])):
            if not ok(v):
                raise SchemaError(f"params.{key}[{i}]: must be {valid}, got {v!r}")
    if "initial" in resolved:
        _check_initial(resolved["initial"], resolved["kind"])
    if resolved.get("kind") == "torus" and resolved.get("domain_scale", 1) != 1:
        raise SchemaError("params.domain_scale: must be 1 on the torus")
    if "t_final" in resolved:  # every scenario with t_final also has dt
        steps = np.rint(resolved["t_final"] / resolved["dt"])  # inf if dt is tiny
        if steps < 1 or abs(steps * resolved["dt"] - resolved["t_final"]) > 1e-9:
            raise SchemaError("params.t_final: must be a positive integer "
                              "multiple of params.dt")
        for i, sigma in enumerate(resolved.get("sigmas", [])):
            if sigma > resolved["t_final"] ** -0.5:  # int vs float: no overflow
                raise SchemaError(f"params.sigmas[{i}]: sigma^2 * t_final must be "
                                  f"<= 1, got {sigma}^2 * {resolved['t_final']}")
    return resolved


def run(spec: dict, out_dir) -> tuple[int, dict]:
    """Validate, execute and persist one experiment; returns (exit code, report)."""
    try:
        params = validate_spec(spec)
    except SchemaError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2, {}
    scenario = spec["scenario"]
    seed = spec.get("seed", 0)
    runner, _ = SCENARIOS[scenario]
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    try:
        result = runner(params, rng)
    except DnlsLabError as e:
        print(f"run failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1, {}
    elapsed = time.perf_counter() - started

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    passed = all(a["passed"] for a in result["assertions"])
    report = {
        "name": spec.get("name", scenario),
        "scenario": scenario,
        "seed": seed,
        "params": params,
        "metrics": result["metrics"],
        "assertions": result["assertions"],
        "probe_reports": result.get("reports", []),
        "passed": passed,
    }
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2))

    with open(out / "report.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value"])
        for k, v in sorted(result["metrics"].items()):
            w.writerow([k, v])
        for a in result["assertions"]:
            w.writerow([f"assert.{a['name']}", int(a["passed"])])
        w.writerow(["elapsed_s", f"{elapsed:.3f}"])

    plots = result.get("plotdata", {})
    if plots:
        pdir = out / "plotdata"
        pdir.mkdir(exist_ok=True)
        for name, rows in plots.items():
            with open(pdir / f"{name}.tsv", "w") as fh:
                for x, y in rows:
                    fh.write(f"{x}\t{y}\n")

    fields = result.get("fields", {})
    if fields:
        fdir = out / "fields"
        fdir.mkdir(exist_ok=True)
        for name, (sf, t) in fields.items():
            write_field(fdir / f"{name}.fd", sf, t)

    for a in result["assertions"]:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: value={a['value']:.6g} "
              f"{a['op']} {a['threshold']:.6g}")
    if not passed:
        failing = next(a for a in result["assertions"] if not a["passed"])
        print(f"assertion failed: {failing['name']} = {failing['value']:.6g}",
              file=sys.stderr)
    return (0 if passed else 1), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dnls-lab",
        description="Batch experiments for the derivative-NLS laboratory")
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config; defaults are used when omitted")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = {"scenario": args.scenario, "params": {}}
    if args.config is not None:
        try:
            spec = json.loads(args.config.read_text())
        except json.JSONDecodeError as e:
            print(f"config error: {args.config}:{e.lineno}:{e.colno}: {e.msg}",
                  file=sys.stderr)
            return 2
        if not isinstance(spec, dict):
            print("config error: root must be a JSON object", file=sys.stderr)
            return 2
        spec.setdefault("scenario", args.scenario)
        if spec["scenario"] != args.scenario:
            print(f"config error: scenario: config says {spec['scenario']!r} "
                  f"but command line says {args.scenario!r}", file=sys.stderr)
            return 2
    if args.seed is not None:
        spec["seed"] = args.seed
    out_dir = args.out or Path("runs") / spec.get("name", args.scenario)
    code, _ = run(spec, out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
