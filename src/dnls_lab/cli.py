"""Batch experiment runner: `dnls-lab <scenario> --config cfg.json`.

Configuration is one JSON object.  The scenario's schema gives every key
its type, default and range rule; a rule may read the keys listed before
it.  Each run writes into the output directory:

    report.json     machine-readable results (deterministic for a fixed
                    config + seed: no timestamps inside), strict JSON with
                    non-finite numbers as "NaN", "Infinity", "-Infinity"
    report.csv      flat metric rows, plus elapsed wall time
    plotdata/*.tsv  two-column series for external plotting
    fields/*.fd     optional field dumps

Exit codes: 0 all in-scenario assertions passed, 1 an assertion failed or
the run aborted, 2 the config did not validate.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import scenarios
from .errors import DnlsLabError, EdgeDecayError
from .fields import _is_power_of_two, check_edge_decay
from .io import write_field


class SchemaError(Exception):
    pass


# one config key, required where it has no default: ok(value, params) is its
# range rule and `valid` says what it accepts; a list key must be non-empty
# and its rule checks each entry.  A callable default, like a rule, reads
# the keys before it: default(params)
Key = namedtuple("Key", "type default ok valid", defaults=(None, None, ""))

# `solve` keeps every time slice: (steps + 1) * n_points * 16 bytes per
# member, 410 MB at 10^5 steps of 256 points
MAX_STEPS = 10 ** 5


def _whole_steps(t: float, dt: float) -> bool:
    steps = np.rint(t / dt)  # inf if dt is tiny
    return 1 <= steps <= MAX_STEPS and abs(steps * dt - t) <= 1e-9


# the rules that several keys share, as (ok, valid); type() rules out bools
KIND = (lambda v, p: v in ("torus", "line"), "'torus' or 'line'")
N_POINTS = (lambda v, p: v >= 8 and _is_power_of_two(v), "a power of two >= 8")
# the window probes' modes reach |xi| = 8, strictly inside the lattice only
# from 32 points on (probes._window_probe)
_WINDOW_N_POINTS = (lambda v, p: v >= 32 and _is_power_of_two(v),
                    "a power of two >= 32, where every probe mode lies inside the lattice")
DOMAIN_SCALE = (lambda v, p: _is_power_of_two(v) and (v == 1 or p["kind"] == "line"),
                "a power of two, and 1 on the torus")
POSITIVE = (lambda v, p: v > 0, "positive")
AT_LEAST_ONE = (lambda v, p: v >= 1, "an integer >= 1")
NON_NEGATIVE = (lambda v, p: v >= 0, ">= 0")
T_FINAL = (lambda v, p: 0 < v <= 1 and _whole_steps(v, p["dt"]),
           f"in (0, 1] and 1 to {MAX_STEPS} steps of params.dt")
# verify-domination's stability pass doubles the box; above 1e55 a product of
# brackets in its multiplier pieces overflows (worst case 3.5e55 to 4e55)
BOX = (lambda v, p: 1 <= v <= 1e55, "in [1, 1e55], where every multiplier piece stays finite")
T_VALUES = (lambda v, p: type(v) in (int, float) and 0 < v <= 1, "a number in (0, 1]")

# keys of solve's `initial` object by type, as scenarios._initial_data reads
# them, each marked True where it is a scale and must be positive
INITIAL_KEYS = {
    "plane": dict(amplitude=False, mode=False),
    "trig": dict(h1_norm=True),
    "gaussian": dict(amplitude=False, width=True, center=False, mode=False, h1_norm=True),
    "random": dict(band=True, h1_norm=True),
}


def _initial_ok(initial: dict, p: dict) -> bool:
    """The rule of solve's `initial`; raises with the path of the offence."""
    typ = scenarios._initial_type(initial, p["kind"])
    if not isinstance(typ, str) or typ not in INITIAL_KEYS:
        raise SchemaError(f"params.initial.type: must be one of "
                          f"{sorted(INITIAL_KEYS)}, got {typ!r}")
    if typ in ("trig", "plane") and p["kind"] != "torus":
        raise SchemaError(f"params.initial.type: {typ!r} is periodic, torus only")
    for key, val in initial.items():
        if key == "type":
            continue
        if key not in INITIAL_KEYS[typ]:
            raise SchemaError(f"params.initial.{key}: unknown key for type {typ!r}")
        if type(val) not in (int, float) or not math.isfinite(val):
            raise SchemaError(f"params.initial.{key}: must be a finite number, got {val!r}")
        if INITIAL_KEYS[typ][key] and val <= 0:
            raise SchemaError(f"params.initial.{key}: must be positive, got {val!r}")
        if key == "mode" and p["kind"] == "torus" and not float(val).is_integer():
            raise SchemaError(f"params.initial.mode: must be an integer on the torus "
                              f"(a periodic wave), got {val!r}")
    if typ == "gaussian" and p["kind"] == "line":
        # the packet the run builds, rescaled, must vanish at the box edges
        # as solve requires; width and center alone do not say whether it does
        try:
            check_edge_decay(scenarios._initial_data(scenarios._domain(p), initial, None),
                             "the gaussian packet")
        except EdgeDecayError as err:
            raise SchemaError(f"params.initial: {err}") from None
    return True


# name -> (runner, {param: Key}); the ranges include those for which the
# library raises ParameterError, so that such a value exits 2 with its path
SCENARIOS = {
    "solve": (scenarios.run_solve, {
        "kind": Key(str, "torus", *KIND),
        "n_points": Key(int, 256, *N_POINTS),
        "domain_scale": Key(int, 1, *DOMAIN_SCALE),
        "dt": Key(float, None, *POSITIVE),
        "t_final": Key(float, None, *T_FINAL),
        "lambda": Key(float, 0.0),
        "k_power": Key(int, 0, *NON_NEGATIVE),
        "gauged": Key(bool, False),
        "integrator": Key(str, "etdrk4", lambda v, p: v in ("etdrk4", "ifrk4"),
                          "'etdrk4' or 'ifrk4'"),
        "pad_factor": Key(int, 4, lambda v, p: v in (2, 4), "2 or 4"),
        "initial": Key(dict, lambda p: {"type": "trig", "h1_norm": 0.3}
                       if p["kind"] == "torus" else {"type": "gaussian"}, _initial_ok),
    }),
    "plane-wave": (scenarios.run_plane_wave, {
        "n_points": Key(int, 256, *N_POINTS),
        "dt": Key(float, None, *POSITIVE),
        # the exact solution's L2 norm and frequency stay finite and nonzero
        "amplitude": Key(float, 0.5, lambda v, p: 1e-150 <= abs(v) <= 1e150,
                         "nonzero, with |amplitude| in [1e-150, 1e150]"),
        "lambda": Key(float, 0.0),
        "k_power": Key(int, 0, lambda v, p: v >= 0 and v * math.log10(abs(p["amplitude"])) <= 150,
                       ">= 0, with |params.amplitude|^(2 k_power) <= 1e300"),
        "refine": Key(bool, True),
        # the refinement study steps to t_final by REFINE_DTS too
        "t_final": Key(float, 0.1, lambda v, p: T_FINAL[0](v, p) and (
            not p["refine"] or _whole_steps(v, scenarios.REFINE_DTS[0])),
            f"{T_FINAL[1]}, and of {scenarios.REFINE_DTS[0]} with params.refine"),
    }),
    "gauge-roundtrip": (scenarios.run_gauge_roundtrip, {
        "kind": Key(str, "torus", *KIND),
        "n_points": Key(int, 256, lambda v, p: v >= 64 and _is_power_of_two(v),
                        "a power of two >= 64, where the gauge image fits the lattice"),
        "domain_scale": Key(int, 1, *DOMAIN_SCALE),
        "ensemble": Key(int, 100, *AT_LEAST_ONE),
    }),
    "gauge-equivalence": (scenarios.run_gauge_equivalence, {
        "kind": Key(str, "torus", *KIND),
        "n_points": Key(int, 256, *N_POINTS),
        "domain_scale": Key(int, 1, lambda v, p: DOMAIN_SCALE[0](v, p) and (
            p["kind"] == "torus" or (v >= 4 and p["n_points"] >= 512)),
            "a power of two: 1 on the torus, >= 4 with n_points >= 512 on the line"),
        "dt": Key(float, None, *POSITIVE),
        "t_final": Key(float, 0.05, *T_FINAL),
        "h1_norm": Key(float, 0.3, *POSITIVE),
        "lambda": Key(float, 1.0),
        "k_power": Key(int, 1, *NON_NEGATIVE),
        "l_refine": Key(bool, True),
    }),
    "scaling": (scenarios.run_scaling, {
        "kind": Key(str, "line", lambda v, p: v == "line", "'line': rescaling changes the period"),
        "n_points": Key(int, 256, *N_POINTS),
        "domain_scale": Key(int, 4, *DOMAIN_SCALE),
        "dt": Key(float, None, *POSITIVE),
        "t_final": Key(float, 0.05, *T_FINAL),
        "sigmas": Key(list, [2, 4], lambda v, p: type(v) is int and _is_power_of_two(v)
                      and v <= p["t_final"] ** -0.5,  # int vs float: no overflow
                      "an integer power of two with sigma^2 * params.t_final <= 1"),
    }),
    "flowmap": (scenarios.run_flowmap, {
        "kind": Key(str, "torus", *KIND),
        "n_points": Key(int, 128, *N_POINTS),
        "domain_scale": Key(int, 1, *DOMAIN_SCALE),
        "dt": Key(float, None, *POSITIVE),
        "t_final": Key(float, 0.05, *T_FINAL),
        "r": Key(float, 0.5, *POSITIVE),
        "eps_list": Key(list, [1e-2, 1e-3, 1e-4], lambda v, p: type(v) in (int, float)
                        and 1e-10 * p["r"] <= v < math.inf,
                        "finite and >= 1e-10 * params.r, above the roundoff of u0 ~ 0.8 r"),
        "ensemble": Key(int, 10, *AT_LEAST_ONE),
        "lambda": Key(float, 0.0),
        "k_power": Key(int, 0, *NON_NEGATIVE),
        "gauged": Key(bool, False),
    }),
    "verify-resonance": (scenarios.run_verify_resonance, {
        "n": Key(int, 10 ** 6, *AT_LEAST_ONE),
        "box": Key(float, 1e3, *BOX),
    }),
    "verify-domination": (scenarios.run_verify_domination, {
        "n": Key(int, 10 ** 5, lambda v, p: v >= 10 ** 4, "an integer >= 10^4"),
        "box": Key(float, 100.0, *BOX),
        # where the box bound holds: Mt raises brackets to 1/2 + delta and 1/2 - 3 delta
        "delta": Key(float, 1.0 / 24.0, lambda v, p: 0 <= v <= 1 / 8, "in [0, 1/8]"),
    }),
    "probe-strichartz": (scenarios.run_probe_strichartz, {
        "b": Key(float, 0.5, lambda v, p: v > 3 / 8, "> 3/8"),
        "ensemble": Key(int, 100, *AT_LEAST_ONE),
        "n_points": Key(int, 32, *N_POINTS),
        "n_t": Key(int, 256, lambda v, p: v >= 2, "an integer >= 2"),
        # windows are at most 1 long; at 5e-324 the sample times coincide
        "dt": Key(float, 0.02, lambda v, p: 1e-6 <= v <= 1, "in [1e-6, 1]"),
    }),
    "probe-trilinear": (scenarios.run_probe_trilinear, {
        "s": Key(float, 0.5, lambda v, p: v >= 0.5, ">= 1/2"),
        "t_values": Key(list, [1.0, 0.5, 0.25, 0.125], *T_VALUES),
        "ensemble": Key(int, 100, *AT_LEAST_ONE),
        "n_points": Key(int, 32, *_WINDOW_N_POINTS),
        "kind": Key(str, "torus", *KIND),
    }),
    "probe-multilinear": (scenarios.run_probe_multilinear, {
        "k": Key(int, 1, lambda v, p: v in (0, 1, 2), "0, 1 or 2"),
        "s": Key(float, 0.5),
        "t_values": Key(list, [1.0, 0.5, 0.25, 0.125], *T_VALUES),
        "ensemble": Key(int, 50, *AT_LEAST_ONE),
        "n_points": Key(int, 32, *_WINDOW_N_POINTS),
        "kind": Key(str, "torus", *KIND),
        "delta": Key(float, 1.0 / 16.0, lambda v, p: 0 < v < 1 / 8, "in (0, 1/8)"),
        "quintic": Key(bool, False),
    }),
    "probe-smult": (scenarios.run_probe_smult, {
        "s": Key(float, 0.5, *NON_NEGATIVE),
        "s1": Key(float, 0.5, lambda v, p: v >= p["s"], ">= params.s"),
        "s2": Key(float, 0.75, lambda v, p: v >= p["s"] and p["s1"] + v - p["s"] > 0.5,
                  ">= params.s, with s1 + s2 - s > 1/2"),
        "ensemble": Key(int, 100, *AT_LEAST_ONE),
        "n_points": Key(int, 256, *N_POINTS),
    }),
    "dyadic-checks": (scenarios.run_dyadic_checks, {
        "delta": Key(float, 0.25, *POSITIVE),
        "s": Key(float, 0.5),
        "b": Key(float, 0.5),
        "n_points": Key(int, 64, *N_POINTS),
    }),
}


# the scenarios that draw nothing: their runners get rng None, so that their
# runs never import numpy.random (about 6 MB of resident memory)
_DRAWS_NOTHING = frozenset({"plane-wave", "gauge-equivalence", "scaling"})


def validate_spec(spec: dict) -> dict:
    """Check the config against the scenario schema; returns resolved params.

    One pass checks types and fills defaults, one checks the rules in schema
    order.  Error messages carry the JSON path of the offending entry.
    """
    if not isinstance(spec, dict):
        raise SchemaError("config root must be a JSON object")
    scenario = spec.get("scenario")
    if scenario not in SCENARIOS:
        raise SchemaError(
            f"scenario: expected one of {sorted(SCENARIOS)}, got {scenario!r}")
    seed = spec.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SchemaError("seed: must be an integer >= 0")
    if not isinstance(spec.get("name", ""), str):
        raise SchemaError("name: must be a string")
    params_in = spec.get("params", {})
    if not isinstance(params_in, dict):
        raise SchemaError("params: must be a JSON object")
    _, schema = SCENARIOS[scenario]
    resolved = {}
    for key, (typ, default, _, _) in schema.items():
        if key not in params_in:
            if default is None:
                raise SchemaError(f"params.{key}: missing required parameter")
            resolved[key] = default(resolved) if callable(default) else default
            continue
        val = params_in[key]
        if typ is float and isinstance(val, int) and not isinstance(val, bool):
            val = float(val) if abs(val) <= sys.float_info.max else math.inf
        if typ is int and isinstance(val, bool):
            raise SchemaError(f"params.{key}: expected int, got bool")
        if not isinstance(val, typ):
            raise SchemaError(
                f"params.{key}: expected {typ.__name__}, got {type(val).__name__}")
        if typ is float and not math.isfinite(val):
            raise SchemaError(f"params.{key}: must be a finite number, got {val!r}")
        resolved[key] = val
    unknown = set(params_in) - set(schema)
    if unknown:
        raise SchemaError(f"params.{sorted(unknown)[0]}: unknown parameter")
    extra_top = set(spec) - {"name", "scenario", "seed", "params", "out"}
    if extra_top:
        raise SchemaError(f"{sorted(extra_top)[0]}: unknown top-level key")
    for key, (typ, _, ok, valid) in schema.items():
        val = resolved[key]
        if typ is list and not val:
            raise SchemaError(f"params.{key}: must be a non-empty list, got []")
        entries = [(f"{key}[{i}]", v) for i, v in enumerate(val)] if typ is list else [(key, val)]
        for path, v in entries:
            if ok and not ok(v, resolved):
                raise SchemaError(f"params.{path}: must be {valid}, got {v!r}")
    return resolved


def _strict_json(obj):
    """obj with every non-finite float spelled as a string ("NaN",
    "Infinity", "-Infinity"), which strict JSON parsers accept; finite
    numbers are left as they are."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    return obj


def run(spec: dict, out_dir) -> tuple[int, dict]:
    """Validate, execute and persist one experiment; returns (exit code, report).

    The runner gets a numpy Generator seeded with the spec's seed, or None
    for a scenario in _DRAWS_NOTHING.
    """
    try:
        params = validate_spec(spec)
    except SchemaError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2, {}
    scenario = spec["scenario"]
    seed = spec.get("seed", 0)
    runner, _ = SCENARIOS[scenario]
    rng = None if scenario in _DRAWS_NOTHING else np.random.default_rng(seed)
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
    (out / "report.json").write_text(json.dumps(_strict_json(report), sort_keys=True,
                                                indent=2, allow_nan=False))

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
    out_dir = args.out or Path("runs") / str(spec.get("name", args.scenario))
    code, _ = run(spec, out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
