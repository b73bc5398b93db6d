"""Field dumps, config validation, and the scenario runner."""

import json
import warnings

import numpy as np
import pytest

from dnls_lab.cli import SchemaError, main, run, validate_spec
from dnls_lab.fields import Domain, SpectralField
from dnls_lab.io import FieldDumpError, read_field, write_field
from dnls_lab.sampling import random_band_field


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
        f = SpectralField.unit_mass(dom, 3.0)
        write_field(tmp_path / "a.fd", f)
        write_field(tmp_path / "b.fd", f)
        assert (tmp_path / "a.fd").read_bytes() == (tmp_path / "b.fd").read_bytes()

    def test_corruption_detected(self, tmp_path):
        dom = Domain("torus", 32)
        f = SpectralField.unit_mass(dom, 3.0)
        p = tmp_path / "f.fd"
        write_field(p, f)
        raw = bytearray(p.read_bytes())
        raw[-5] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(FieldDumpError):
            read_field(p)

    def test_truncation_detected(self, tmp_path):
        dom = Domain("torus", 32)
        f = SpectralField.unit_mass(dom, 3.0)
        p = tmp_path / "f.fd"
        write_field(p, f)
        p.write_bytes(p.read_bytes()[:-16])
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
    ])
    def test_bad_value_exits_2_with_path(self, tmp_path, capsys, scenario,
                                         params, path):
        base = {} if scenario.startswith(("probe", "gauge-r", "verify", "dyadic")) \
            else {"dt": 1e-3, "t_final": 0.01}
        code, _ = run({"scenario": scenario, "params": {**base, **params}},
                      tmp_path)
        assert code == 2
        assert f"params.{path}" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["verify-domination", "verify-resonance"])
    def test_largest_box_runs_without_warnings(self, tmp_path, scenario):
        # at the bound, every bracket and multiplier piece (doubled box
        # included) stays finite, so no overflow warning is raised
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run({"scenario": scenario,
                           "params": {"box": 1e55, "n": 10 ** 4}}, tmp_path)
        assert code in (0, 1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("kind,initial", [
        ("torus", {"type": "plane", "amplitude": 0.5, "mode": 2}),
        ("torus", {"h1_norm": 0.2}),
        ("line", {"amplitude": 0.3, "width": 1.2, "center": 0, "mode": 1,
                  "h1_norm": 0.3}),
        ("line", {"type": "random", "band": 4.0, "h1_norm": 0.3}),
    ])
    def test_initial_keys_accepted(self, kind, initial):
        params = validate_spec({"scenario": "solve", "params": {
            "kind": kind, "domain_scale": 1 if kind == "torus" else 4,
            "dt": 1e-3, "t_final": 0.01, "initial": initial}})
        assert params["initial"] == initial

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

    def test_cli_defaults_without_config(self, tmp_path):
        assert main(["dyadic-checks", "--seed", "4",
                     "--out", str(tmp_path / "o")]) == 0
