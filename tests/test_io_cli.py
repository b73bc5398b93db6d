"""Field dumps, config validation, and the scenario runner."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnls_lab import scenarios
from dnls_lab.cli import SCENARIOS, SchemaError, main, run, validate_spec
from dnls_lab.fields import Domain, SpectralField
from dnls_lab.io import FieldDumpError, read_field, write_field
from dnls_lab.multipliers import resonance_residuals
from dnls_lab.sampling import random_band_field
from dnls_lab.spaces import sobolev_norm

from test_golden import CASES as GOLDEN_CASES
from tests_support import unit_mass

ROOT = Path(__file__).resolve().parents[1]
# the scenarios whose runners draw nothing
DRAW_FREE = {"gauge-equivalence", "plane-wave", "scaling"}


class TestFieldDump:
    def test_round_trip_bits(self, tmp_path):
        dom = Domain("line", 64, 2)
        rng = np.random.default_rng(0)
        f = random_band_field(dom, rng, band=8.0)
        p = tmp_path / "f.fd"
        write_field(p, f, time=0.25)
        g, header = read_field(p)
        assert np.array_equal(g.coeffs, f.coeffs)
        assert g.domain == dom
        assert header["time"] == 0.25
        assert header["payload_bytes"] == 16 * 64

    def test_rewrite_is_identical(self, tmp_path):
        dom = Domain("torus", 32)
        f = unit_mass(dom, 3.0)
        write_field(tmp_path / "a.fd", f, None)
        write_field(tmp_path / "b.fd", f, None)
        assert (tmp_path / "a.fd").read_bytes() == (tmp_path / "b.fd").read_bytes()

    def test_corruption_detected(self, tmp_path):
        dom = Domain("torus", 32)
        f = unit_mass(dom, 3.0)
        p = tmp_path / "f.fd"
        write_field(p, f, None)
        raw = bytearray(p.read_bytes())
        raw[-5] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(FieldDumpError):
            read_field(p)

    def test_truncation_detected(self, tmp_path):
        dom = Domain("torus", 32)
        f = unit_mass(dom, 3.0)
        p = tmp_path / "f.fd"
        write_field(p, f, None)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(FieldDumpError):
            read_field(p)

    @pytest.mark.parametrize("mutate", [
        lambda h: {k: v for k, v in h.items() if k != "n_points"},
        lambda h: dict(h, n_points="x"),
        lambda h: dict(h, n_points=32.9),
        lambda h: dict(h, kind="circle"),
        lambda h: list(h.items()),
        lambda h: dict(h, kind="line", domain_scale=2 ** 2000),
    ], ids=["missing-n_points", "non-integer-n_points", "fractional-n_points",
            "unknown-kind", "list", "overflowing-domain_scale"])
    def test_malformed_header_is_a_dump_error(self, tmp_path, mutate):
        p = tmp_path / "f.fd"
        write_field(p, unit_mass(Domain("torus", 32), 3.0), None)
        head, payload = p.read_bytes().split(b"\n", 1)
        header = json.dumps(mutate(json.loads(head))).encode("ascii")
        p.write_bytes(header + b"\n" + payload)
        with pytest.raises(FieldDumpError):
            read_field(p)


class TestValidation:
    def test_missing_required_parameter(self):
        with pytest.raises(SchemaError, match=r"params\.dt"):
            validate_spec({"scenario": "plane-wave", "params": {}})

    def test_unknown_parameter(self):
        with pytest.raises(SchemaError, match=r"params\.dx"):
            validate_spec({"scenario": "plane-wave",
                           "params": {"dt": 1e-3, "dx": 0.1}})

    def test_wrong_type(self):
        with pytest.raises(SchemaError, match=r"params\.dt"):
            validate_spec({"scenario": "plane-wave", "params": {"dt": "small"}})

    def test_unknown_scenario(self):
        with pytest.raises(SchemaError, match="scenario"):
            validate_spec({"scenario": "explode"})

    @pytest.mark.parametrize("scenario,params,path", [
        ("solve", {"kind": "foo"}, "kind"),
        ("solve", {"n_points": 100}, "n_points"),
        ("solve", {"n_points": 4}, "n_points"),
        ("solve", {"kind": "line", "domain_scale": 3}, "domain_scale"),
        ("solve", {"domain_scale": 2}, "domain_scale"),
        ("solve", {"dt": -1.0}, "dt"),
        ("solve", {"dt": 0.0}, "dt"),
        ("solve", {"t_final": 2.0}, "t_final"),
        ("solve", {"dt": 0.03}, "t_final"),
        ("solve", {"dt": 0.2}, "t_final"),
        ("solve", {"dt": 5e-324}, "t_final"),
        ("solve", {"pad_factor": 8}, "pad_factor"),
        ("solve", {"integrator": "rk45"}, "integrator"),
        ("plane-wave", {"n_points": 12}, "n_points"),
        ("gauge-equivalence", {"kind": "line", "domain_scale": 6}, "domain_scale"),
        ("probe-trilinear", {"kind": "sphere"}, "kind"),
        ("probe-strichartz", {"dt": -0.02}, "dt"),
        ("probe-trilinear", {"ensemble": 0}, "ensemble"),
        ("probe-trilinear", {"ensemble": -3}, "ensemble"),
        ("probe-trilinear", {"t_values": []}, "t_values"),
        ("probe-trilinear", {"t_values": ["a"]}, "t_values[0]"),
        ("probe-trilinear", {"t_values": [0.5, 0.0]}, "t_values[1]"),
        ("probe-trilinear", {"t_values": [1.5]}, "t_values[0]"),
        ("probe-trilinear", {"t_values": [True]}, "t_values[0]"),
        ("probe-multilinear", {"ensemble": 0}, "ensemble"),
        ("probe-multilinear", {"t_values": []}, "t_values"),
        ("probe-multilinear", {"t_values": [0.5, None]}, "t_values[1]"),
        ("probe-strichartz", {"ensemble": 0}, "ensemble"),
        ("probe-smult", {"ensemble": -1}, "ensemble"),
        ("gauge-roundtrip", {"ensemble": 0}, "ensemble"),
        ("flowmap", {"ensemble": 0}, "ensemble"),
        ("scaling", {"sigmas": []}, "sigmas"),
        ("scaling", {"sigmas": ["a"]}, "sigmas[0]"),
        ("scaling", {"sigmas": [2, True]}, "sigmas[1]"),
        ("scaling", {"sigmas": [3]}, "sigmas[0]"),
        ("scaling", {"sigmas": [2.0]}, "sigmas[0]"),
        ("scaling", {"sigmas": [0]}, "sigmas[0]"),
        ("scaling", {"sigmas": [2, 16]}, "sigmas[1]"),  # 16^2 * 0.01 > 1
        ("scaling", {"sigmas": [2 ** 600]}, "sigmas[0]"),
        ("flowmap", {"eps_list": []}, "eps_list"),
        ("flowmap", {"eps_list": ["x"]}, "eps_list[0]"),
        ("flowmap", {"eps_list": [1e-2, -1e-3]}, "eps_list[1]"),
        ("flowmap", {"eps_list": [0]}, "eps_list[0]"),
        ("flowmap", {"eps_list": [False]}, "eps_list[0]"),
        ("solve", {"initial": {"tipo": "plane"}}, "initial.tipo"),
        ("solve", {"initial": {"type": "plane", "amplitude": "x"}}, "initial.amplitude"),
        ("solve", {"initial": {"type": "wave"}}, "initial.type"),
        ("solve", {"initial": {"type": ["plane"]}}, "initial.type"),
        ("solve", {"initial": {"type": "plane", "width": 1.0}}, "initial.width"),
        ("solve", {"initial": {"type": "random", "band": None}}, "initial.band"),
        ("solve", {"initial": {"type": "trig", "h1_norm": True}}, "initial.h1_norm"),
        ("solve", {"kind": "line", "domain_scale": 4, "initial": {"type": "trig"}},
         "initial.type"),
        ("solve", {"kind": "line", "domain_scale": 4,
                   "initial": {"type": "gaussian", "width": 0}}, "initial.width"),
        ("solve", {"initial": {"type": "trig", "h1_norm": -0.3}}, "initial.h1_norm"),
        ("solve", {"initial": {"type": "random", "band": 0}}, "initial.band"),
        ("probe-trilinear", {"s": 0.25}, "s"),
        ("probe-multilinear", {"k": 3}, "k"),
        ("probe-multilinear", {"delta": 0.5}, "delta"),
        ("probe-multilinear", {"delta": 0.0}, "delta"),
        ("verify-domination", {"n": 10}, "n"),
        ("probe-strichartz", {"b": 0.3}, "b"),
        ("probe-strichartz", {"b": float("nan")}, "b"),
        ("probe-smult", {"s": -0.1}, "s"),
        ("probe-smult", {"s1": 0.25}, "s1"),
        ("probe-smult", {"s2": 0.25}, "s2"),
        ("probe-smult", {"s": 0.0, "s1": 0.25, "s2": 0.25}, "s2"),
        ("dyadic-checks", {"delta": 0.0}, "delta"),
        ("verify-resonance", {"box": 0.5}, "box"),
        ("verify-resonance", {"box": 0}, "box"),
        ("verify-domination", {"box": -5}, "box"),
        ("verify-resonance", {"box": float("inf")}, "box"),
        ("verify-domination", {"box": 1e300}, "box"),
        ("verify-domination", {"box": 1e154}, "box"),  # (2 box)^2 overflows
        ("probe-strichartz", {"n_t": 0}, "n_t"),
        ("probe-strichartz", {"n_t": 1}, "n_t"),
        ("plane-wave", {"amplitude": 0}, "amplitude"),
        ("dyadic-checks", {"b": float("nan")}, "b"),
        ("dyadic-checks", {"b": float("inf")}, "b"),
        ("dyadic-checks", {"s": float("nan")}, "s"),
        ("dyadic-checks", {"s": float("inf")}, "s"),
        ("solve", {"k_power": -1}, "k_power"),
        ("plane-wave", {"k_power": -1}, "k_power"),
        ("gauge-equivalence", {"k_power": -1}, "k_power"),
        ("flowmap", {"k_power": -1}, "k_power"),
        ("solve", {"lambda": float("nan")}, "lambda"),
        ("solve", {"lambda": float("inf")}, "lambda"),
        ("flowmap", {"r": float("nan")}, "r"),
        ("flowmap", {"r": float("inf")}, "r"),
        ("gauge-equivalence", {"h1_norm": float("nan")}, "h1_norm"),
        ("gauge-equivalence", {"h1_norm": float("inf")}, "h1_norm"),
        ("probe-multilinear", {"s": float("nan")}, "s"),
        ("probe-trilinear", {"s": float("inf")}, "s"),
        ("flowmap", {"r": 0}, "r"),
        ("flowmap", {"r": -1}, "r"),
        ("flowmap", {"r": -0.5}, "r"),
        ("verify-domination", {"box": 1.01e55}, "box"),
        ("verify-resonance", {"box": 1.01e55}, "box"),
        ("verify-domination", {"box": 1e77}, "box"),
        # every other (scenario, key) pair that had a rule before the rules
        # moved into the schema, so that no move drops one unseen
        ("plane-wave", {"dt": -1.0}, "dt"),
        ("plane-wave", {"t_final": 1.5}, "t_final"),
        ("gauge-roundtrip", {"kind": "sphere"}, "kind"),
        ("gauge-roundtrip", {"n_points": 48}, "n_points"),
        ("gauge-roundtrip", {"domain_scale": 2}, "domain_scale"),
        ("gauge-equivalence", {"kind": "sphere"}, "kind"),
        ("gauge-equivalence", {"n_points": 4}, "n_points"),
        ("gauge-equivalence", {"dt": 0.0}, "dt"),
        ("gauge-equivalence", {"t_final": 0.0105}, "t_final"),
        ("scaling", {"kind": "sphere"}, "kind"),
        ("scaling", {"n_points": 100}, "n_points"),
        ("scaling", {"domain_scale": 6}, "domain_scale"),
        ("scaling", {"dt": -1e-3}, "dt"),
        ("scaling", {"t_final": 1.01}, "t_final"),
        ("flowmap", {"kind": "sphere"}, "kind"),
        ("flowmap", {"n_points": 0}, "n_points"),
        ("flowmap", {"domain_scale": 4}, "domain_scale"),
        ("flowmap", {"dt": -2e-3}, "dt"),
        ("flowmap", {"dt": 3e-3}, "t_final"),
        ("probe-strichartz", {"n_points": 24}, "n_points"),
        ("probe-trilinear", {"n_points": 2}, "n_points"),
        ("probe-multilinear", {"kind": "sphere"}, "kind"),
        ("probe-multilinear", {"n_points": 33}, "n_points"),
        ("probe-smult", {"n_points": 1000}, "n_points"),
        ("dyadic-checks", {"n_points": 65}, "n_points"),
        # values that once passed validation and then ended in a traceback
        # or in the wrong exit code
        ("verify-domination", {"n": 10 ** 4, "box": 1e10, "delta": 10}, "delta"),
        ("verify-domination", {"n": 10 ** 4, "box": 1e10, "delta": -10}, "delta"),
        ("verify-domination", {"delta": 0.126}, "delta"),
        ("solve", {"dt": 1e-300, "t_final": 0.005}, "t_final"),
        ("solve", {"dt": 4e-6, "t_final": 0.400004}, "t_final"),  # 10^5 + 1 steps
        ("plane-wave", {"dt": 1e-300, "t_final": 0.05}, "t_final"),
        ("gauge-equivalence", {"dt": 1e-300, "t_final": 0.005}, "t_final"),
        ("scaling", {"dt": 1e-300, "t_final": 0.005}, "t_final"),
        ("flowmap", {"dt": 1e-300, "t_final": 0.005}, "t_final"),
        ("plane-wave", {"amplitude": 1e-200}, "amplitude"),
        ("plane-wave", {"amplitude": -1e200}, "amplitude"),
        ("plane-wave", {"amplitude": 2.0, "k_power": 600}, "k_power"),
        ("gauge-equivalence", {"h1_norm": 0}, "h1_norm"),
        ("gauge-equivalence", {"h1_norm": -0.3}, "h1_norm"),
        ("plane-wave", {"dt": 0.015, "t_final": 0.03}, "t_final"),
        ("plane-wave", {"dt": 0.025, "t_final": 0.075}, "t_final"),
        ("gauge-equivalence", {"kind": "line", "domain_scale": 4}, "domain_scale"),
        ("scaling", {"kind": "torus", "domain_scale": 1}, "kind"),
        ("verify-resonance", {"n": -600}, "n"),
        ("probe-strichartz", {"dt": 5e-324}, "dt"),
        ("probe-strichartz", {"dt": 2.0}, "dt"),
        ("solve", {"lambda": 10 ** 400}, "lambda"),
        ("gauge-roundtrip", {"n_points": 32}, "n_points"),
        ("gauge-roundtrip", {"kind": "line", "n_points": 16}, "n_points"),
        ("flowmap", {"eps_list": [1e-300]}, "eps_list[0]"),
        ("flowmap", {"r": 1.0, "eps_list": [1e-2, 5e-11]}, "eps_list[1]"),
        # data that cannot pass its own mass check (these exited 1): a plane
        # wave never vanishes at the line's box edges, and a wave of
        # non-integer mode is not periodic on the torus
        ("solve", {"kind": "line", "domain_scale": 4, "initial": {"type": "plane"}},
         "initial.type"),
        ("solve", {"initial": {"type": "plane", "mode": 1.5}}, "initial.mode"),
        ("solve", {"initial": {"type": "gaussian", "mode": 0.5}}, "initial.mode"),
        ("solve", {"initial": {"type": "gaussian", "mode": -1e-9}}, "initial.mode"),
        # a line packet too wide or too far off center for the box: |u| is
        # 8.0e-5 and 5.2e-9 at the edges (these exited 1)
        ("solve", {"kind": "line", "n_points": 64, "domain_scale": 4,
                   "initial": {"type": "gaussian", "width": 3.0}}, "initial"),
        ("solve", {"kind": "line", "n_points": 64, "domain_scale": 4,
                   "initial": {"type": "gaussian", "center": 5.0}}, "initial"),
    ])
    def test_bad_value_exits_2_with_path(self, tmp_path, capsys, scenario,
                                         params, path):
        base = {} if scenario.startswith(("probe", "gauge-r", "verify", "dyadic")) \
            else {"dt": 1e-3, "t_final": 0.01}
        code, _ = run({"scenario": scenario, "params": {**base, **params}},
                      tmp_path)
        assert code == 2
        assert f"params.{path}" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario,extra", [
        pytest.param("verify-domination", {}, id="verify-domination"),
        pytest.param("verify-domination", {"delta": 0.0}, id="verify-domination-delta=0"),
        pytest.param("verify-domination", {"delta": 0.125}, id="verify-domination-delta=0.125"),
        pytest.param("verify-resonance", {}, id="verify-resonance"),
    ])
    def test_largest_box_runs_without_warnings(self, tmp_path, scenario, extra):
        # at the bound, every bracket and multiplier piece (doubled box
        # included) stays finite, so no overflow warning is raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run({"scenario": scenario,
                           "params": {"box": 1e55, "n": 10 ** 4, **extra}}, tmp_path)
        assert code in (0, 1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("kind,initial", [
        ("torus", {"type": "plane", "amplitude": 0.5, "mode": 2}),
        ("torus", {"h1_norm": 0.2}),
        ("line", {"amplitude": 0.3, "width": 1.2, "center": 0, "mode": 1,
                  "h1_norm": 0.3}),
        ("line", {"type": "random", "band": 4.0, "h1_norm": 0.3}),
        ("torus", {"type": "random", "band": 8.0, "h1_norm": 0.3}),
        # an integral float is an integer mode
        ("torus", {"type": "plane", "amplitude": 0.5, "mode": 2.0}),
    ])
    def test_initial_keys_accepted(self, tmp_path, kind, initial):
        spec = {"scenario": "solve", "seed": 5, "params": {
            "kind": kind, "n_points": 64, "domain_scale": 1 if kind == "torus" else 4,
            "dt": 1e-3, "t_final": 0.005, "initial": initial}}
        assert validate_spec(spec)["initial"] == initial
        # each type runs, conserves mass and takes its scale
        code, report = run(spec, tmp_path)
        assert code == 0
        assert [a["name"] for a in report["assertions"] if a["passed"]] == [
            "mass_rel_drift"]
        u0, _ = read_field(tmp_path / "fields" / "initial.fd")
        if "h1_norm" in initial:
            assert sobolev_norm(u0, 1.0) == pytest.approx(initial["h1_norm"], rel=1e-12)
        else:  # 0.5 exp(2ix): L2 norm 0.5 sqrt(2 pi)
            assert report["metrics"]["mass_initial"] == pytest.approx(
                0.5 * np.sqrt(2 * np.pi), rel=1e-12)

    @pytest.mark.parametrize("kind,default", [
        ("torus", {"type": "trig", "h1_norm": 0.3}),
        ("line", {"type": "gaussian"}),
    ])
    def test_initial_default_follows_kind(self, tmp_path, kind, default):
        # the torus takes its trig data, the line its gaussian packet
        spec = {"scenario": "solve", "params": {
            "kind": kind, "n_points": 64, "domain_scale": 1 if kind == "torus" else 4,
            "dt": 1e-2, "t_final": 0.05}}
        assert validate_spec(spec)["initial"] == default
        code, report = run(spec, tmp_path)
        assert code == 0 and report["params"]["initial"] == default

    @pytest.mark.parametrize("params", [{"s": 400.0}, {"b": 400.0}])
    def test_non_finite_constant_exits_1(self, tmp_path, capsys, params):
        # the block weights overflow; no config range depends on s or b alone
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _ = run({"scenario": "dyadic-checks", "params": params}, tmp_path)
        assert code == 1
        assert "NonFiniteError" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario,params,why", [
        ("probe-strichartz", {"b": 400.0, "ensemble": 1, "n_points": 8, "n_t": 16},
         "NonFiniteError"),
        ("probe-trilinear", {"s": 400.0, "ensemble": 1, "n_points": 8},
         "NonFiniteError"),
        ("probe-smult", {"s1": 400.0, "ensemble": 1, "n_points": 16},
         "NonFiniteError"),
        ("gauge-equivalence", {"h1_norm": 1e-200, "n_points": 32, "dt": 0.025,
                               "t_final": 0.1}, "assertion failed: mass_rel_drift"),
        ("solve", {"n_points": 32, "dt": 0.025, "t_final": 0.1,
                   "initial": {"type": "plane", "amplitude": 1e-170}},
         "assertion failed: mass_rel_drift"),
    ])
    def test_nan_ratio_is_not_dropped_from_a_sup(self, tmp_path, capsys, scenario,
                                                 params, why):
        # the weights overflow (a NaN or infinite norm) or the mass underflows
        # (0/0 drift); the sup or the drift must keep the NaN, not skip it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _ = run({"scenario": scenario, "params": params}, tmp_path)
        assert code == 1
        assert why in capsys.readouterr().err
        if scenario in ("gauge-equivalence", "solve"):
            # the run got as far as its report: strict JSON, the NaN spelled out
            def refuse(token):
                raise ValueError(f"bare {token} in report.json")

            report = json.loads((tmp_path / "report.json").read_text(),
                                parse_constant=refuse)
            assert report["metrics"]["mass_rel_drift"] == "NaN"

    def test_integer_t_values_run(self, tmp_path):
        code, report = run({"scenario": "probe-trilinear",
                            "params": {"t_values": [1, 0.5], "ensemble": 1}}, tmp_path)
        assert code == 0
        assert sorted(report["probe_reports"][0]["details"]["sup_x_by_T"]) == ["0.5", "1"]

    def test_defaults_filled(self):
        params = validate_spec({"scenario": "plane-wave",
                                "params": {"dt": 1e-3}})
        assert params["n_points"] == 256
        assert params["amplitude"] == 0.5


# one small valid config per scenario: every size key (n, n_points,
# ensemble, n_t, the step count) at or below its default
SMALL = {
    "solve": {"n_points": 32, "dt": 0.025, "t_final": 0.1},
    "plane-wave": {"n_points": 16, "dt": 0.025, "t_final": 0.1},
    "gauge-roundtrip": {"n_points": 64, "ensemble": 2},
    "gauge-equivalence": {"n_points": 32, "dt": 0.025, "t_final": 0.1},
    "scaling": {"n_points": 64, "dt": 0.025, "t_final": 0.05},
    "flowmap": {"n_points": 16, "dt": 0.025, "t_final": 0.1, "ensemble": 1,
                "eps_list": [1e-2, 1e-3]},
    "verify-resonance": {"n": 10 ** 4},
    "verify-domination": {"n": 10 ** 4},
    "probe-strichartz": {"ensemble": 1, "n_points": 8, "n_t": 16},
    "probe-trilinear": {"ensemble": 1, "n_points": 8},
    "probe-multilinear": {"ensemble": 1, "n_points": 8},
    "probe-smult": {"ensemble": 1, "n_points": 16},
    "dyadic-checks": {"n_points": 16},
}
# mutations of every key: wrong types, bools, zero, a negative, NaN, +-inf
MUTATIONS = ["x", None, [], {}, True, False, 0, 0.0, -1, math.nan, math.inf, -math.inf]
# values at and past each rule's boundary, and the values that once ended in
# a traceback or a wrong exit code; none makes a run larger than SMALL's (a
# tiny dt has more steps than any array can hold, so nothing is allocated)
EDGES = {
    "kind": ["torus", "line", "sphere"],
    "n_points": [8, 4, 12],
    "domain_scale": [1, 2, 3, 4],
    "dt": [1e-300, 5e-324, 0.03, 0.05, 1.0],
    "t_final": [1 + 1e-9, 0.03, 0.075, 0.005],
    "k_power": [1, 2],
    "box": [1.0, 0.999, 1e55, 1.01e55],
    "n": [10 ** 4 - 1, 1],
    "n_t": [2, 1],
    "amplitude": [1e-200, 1e-150, 1e150, 1e200],
    "h1_norm": [1e-200, 1e150],
    "lambda": [1e300, -1e300],
    "r": [1e-300, 1e300],
    "delta": [1 / 8, 1 / 16, 10.0, -10.0, 1e-300],
    "s": [0.5, 0.4999, 400.0, -400.0],
    "s1": [0.5, 0.4999, 400.0],
    "s2": [0.5, 0.4999, 400.0],
    "b": [0.375, 0.376, 400.0, -400.0],
    "k": [2, 3],
    "sigmas": [[1], [3], [2 ** 600], [2.0]],
    "eps_list": [[1e-300], [1e300]],
    "t_values": [[1.0], [1e-300], [1 + 1e-9]],
    "initial": [{"type": "trig", "h1_norm": 0}, {"type": "gaussian", "width": 1e-300},
                {"type": "plane", "amplitude": 1e200}, {"type": "random", "band": 1e300}],
}
# keys whose sign is free, and those for which zero is in range; for every
# other key, zero or the sign flip of a positive value must not run
SIGNED = {"lambda", "amplitude", "s", "b"}
ZERO_OK = {"lambda", "s", "b", "k", "k_power", "delta"}


@st.composite
def mutated_configs(draw):
    """(scenario, params, must_reject): SMALL's resolved params with one key
    mutated."""
    scenario = draw(st.sampled_from(sorted(SMALL)))
    params = validate_spec({"scenario": scenario, "params": SMALL[scenario]})
    key = draw(st.sampled_from(sorted(SCENARIOS[scenario][1])))
    old = params[key]
    flips = []
    if isinstance(old, list):
        flips = [[-v for v in old]] + [[v] for v in MUTATIONS]
    elif type(old) in (int, float) and old > 0:
        flips = [-old]
    huge = [10 ** 400] if type(old) is float else []  # past the float range
    params[key] = draw(st.sampled_from(MUTATIONS + flips + huge + EDGES.get(key, [])))
    new = params[key]
    must_reject = (type(old) in (int, float) and old > 0 and type(new) in (int, float)
                   and (new < 0 and key not in SIGNED or new == 0 and key not in ZERO_OK))
    return scenario, params, must_reject


class TestExitCodeContract:
    @given(mutated_configs())
    @example(("solve", {"dt": 1e-300, "t_final": 0.005}, False))
    @example(("plane-wave", {"dt": 0.025, "amplitude": 1e-200}, False))
    @example(("dyadic-checks", {"s": 400.0}, False))
    @example(("gauge-equivalence", {"dt": 0.025, "h1_norm": 0.0}, True))
    @example(("gauge-equivalence", {"dt": 0.025, "h1_norm": -0.3}, True))
    @example(("plane-wave", {"dt": 0.015, "t_final": 0.03}, False))
    @example(("plane-wave", {"dt": 0.025, "t_final": 0.075}, False))
    @example(("verify-domination", {"n": 10 ** 4, "delta": -10.0}, True))
    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    def test_bad_config_exits_2_and_no_run_raises(self, case):
        # exit 0 or 1 without a traceback, or 2 with the JSON path; a value
        # the library rejects (ParameterError) must not get past validation
        scenario, params, must_reject = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _ = run({"scenario": scenario, "params": params}, out)
        err = err.getvalue()
        assert code in (0, 1, 2), err
        assert code != 2 or "config error: params." in err, err
        assert code != 1 or "ParameterError" not in err, err
        assert code == 2 or not must_reject, err


class TestRun:
    def test_malformed_spec_exits_2(self, tmp_path):
        code, _ = run({"scenario": "plane-wave", "params": {}}, tmp_path)
        assert code == 2

    def test_plane_wave_scenario(self, tmp_path):
        spec = {"scenario": "plane-wave", "seed": 1,
                "params": {"dt": 1e-3, "n_points": 128, "refine": False}}
        code, report = run(spec, tmp_path)
        assert code == 0
        assert report["passed"]
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.csv").exists()

    def test_genuine_failure_exits_1(self, tmp_path):
        # a coarse step with a fast nonlinear rotation cannot meet 1e-8
        spec = {"scenario": "plane-wave", "seed": 1,
                "params": {"dt": 0.05, "n_points": 64, "refine": False,
                           "amplitude": 1.2, "lambda": 3.0, "k_power": 2}}
        code, report = run(spec, tmp_path)
        assert code == 1
        assert not report["passed"]

    def test_reproducible_report(self, tmp_path):
        spec = {"scenario": "verify-resonance", "seed": 7,
                "params": {"n": 20000}}
        run(spec, tmp_path / "a")
        run(spec, tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_nan_resonance_residual_exits_1(self, tmp_path, monkeypatch):
        # every sup keeps a NaN: a NaN residual fails its assertion
        def nan_residuals(*pts):
            r1, r2, gap = resonance_residuals(*pts)
            return np.full_like(r1, np.nan), r2, gap

        monkeypatch.setattr(scenarios, "resonance_residuals", nan_residuals)
        code, report = run({"scenario": "verify-resonance", "seed": 7,
                            "params": {"n": 5000}}, tmp_path)
        assert code == 1
        assert math.isnan(report["metrics"]["max_rel_residual_Z"])

    def test_solve_scenario_writes_artifacts(self, tmp_path):
        spec = {"scenario": "solve", "seed": 3,
                "params": {"dt": 1e-3, "t_final": 0.01, "n_points": 64,
                           "initial": {"type": "trig", "h1_norm": 0.2}}}
        code, _ = run(spec, tmp_path)
        assert code == 0
        assert (tmp_path / "fields" / "initial.fd").exists()
        assert (tmp_path / "fields" / "final.fd").exists()
        assert (tmp_path / "plotdata" / "mass_vs_time.tsv").exists()
        f, header = read_field(tmp_path / "fields" / "final.fd")
        assert header["n_points"] == 64

    def test_dyadic_checks_scenario(self, tmp_path):
        code, report = run({"scenario": "dyadic-checks", "seed": 2,
                            "params": {}}, tmp_path)
        assert code == 0 and report["passed"]

    def test_runs_that_draw_nothing_never_import_numpy_random(self, tmp_path):
        # numpy.random, and OpenSSL through its `secrets` import, take about
        # 6 MB of resident memory; a fresh interpreter runs the golden specs
        # of the scenarios that draw nothing and must load neither
        specs = {n: s for n, s in GOLDEN_CASES.items() if s["scenario"] in DRAW_FREE}
        assert {s["scenario"] for s in specs.values()} == DRAW_FREE
        code = ("import json, sys; from pathlib import Path; from dnls_lab.cli import run; "
                "out = Path(sys.argv[2]); "
                "codes = [run(dict(s, name=n), out / n)[0] "
                "for n, s in json.loads(sys.argv[1]).items()]; "
                "json.dump([codes, sorted({'numpy.random', 'secrets'} & set(sys.modules))], "
                "open(out / 'result.json', 'w'))")
        subprocess.run([sys.executable, "-c", code, json.dumps(specs), str(tmp_path)],
                       check=True, capture_output=True,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        codes, loaded = json.loads((tmp_path / "result.json").read_text())
        assert codes == [0] * len(specs)
        assert loaded == []


class TestFlowmap:
    def _metrics(self, tmp_path, tag, **extra):
        spec = {"scenario": "flowmap", "seed": 11,
                "params": {"dt": 2e-3, "t_final": 0.05, "n_points": 64,
                           "ensemble": 3, "eps_list": [1e-2, 1e-3], **extra}}
        code, report = run(spec, tmp_path / tag)
        assert code == 0
        return report["metrics"]

    def test_gauged_matches_original_within_factor_four(self, tmp_path):
        orig = self._metrics(tmp_path, "orig")
        gauged = self._metrics(tmp_path, "gauged", gauged=True)
        ratio = max(orig["L_max"], gauged["L_max"]) \
            / min(orig["L_max"], gauged["L_max"])
        assert ratio < 4.0

    def test_smaller_ball_keeps_l_bounded(self, tmp_path):
        big = self._metrics(tmp_path, "r-big", r=0.5)
        small = self._metrics(tmp_path, "r-small", r=0.25)
        assert np.isfinite(small["L_max"])
        assert small["max_over_median_L"] <= 2.0
        assert big["max_over_median_L"] <= 2.0


class TestMain:
    def test_cli_end_to_end(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "name": "pw-demo", "scenario": "plane-wave", "seed": 5,
            "params": {"dt": 1e-3, "n_points": 128, "refine": False}}))
        out = tmp_path / "out"
        assert main(["plane-wave", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["name"] == "pw-demo"

    def test_cli_rejects_bad_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["plane-wave", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_cli_scenario_mismatch(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "solve",
                                   "params": {"dt": 1e-3, "t_final": 0.01}}))
        assert main(["plane-wave", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("top,path", [
        ({"seed": -1}, "seed"),
        ({"seed": True}, "seed"),
        ({"name": 5}, "name"),
    ])
    def test_cli_bad_top_level_key_exits_2(self, tmp_path, capsys, top, path):
        # without --out the run directory is named after `name`
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "dyadic-checks", **top}))
        assert main(["dyadic-checks", "--config", str(cfg)]) == 2
        assert f"config error: {path}:" in capsys.readouterr().err

    def test_cli_defaults_without_config(self, tmp_path):
        assert main(["dyadic-checks", "--seed", "4",
                     "--out", str(tmp_path / "o")]) == 0
