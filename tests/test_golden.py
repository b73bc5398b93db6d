"""Scenario reports against golden copies (tests/golden/<name>.json).

The goldens are the reports of the specs below; a change that reorders
float operations keeps them, a change of behaviour does not.  To refresh
a golden on purpose, run its spec through dnls_lab.cli.run and copy the
report.json over.
"""

import json
from pathlib import Path

import pytest

from dnls_lab.cli import run

from tests_support import golden_mismatches

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "probe-trilinear": {"scenario": "probe-trilinear", "seed": 1,
                        "params": {"ensemble": 4}},
    "probe-multilinear-k1": {"scenario": "probe-multilinear", "seed": 2,
                             "params": {"k": 1, "ensemble": 4}},
    "probe-multilinear-k2": {"scenario": "probe-multilinear", "seed": 3,
                             "params": {"k": 2, "s": 0.75, "ensemble": 4}},
    "probe-quintic": {"scenario": "probe-multilinear", "seed": 4,
                      "params": {"quintic": True, "ensemble": 3}},
    # seed 23 draws every sample branch (single-mode, conjugate-paired,
    # random mode sums), the single-mode one included, which sets the sups
    "probe-trilinear-branches": {"scenario": "probe-trilinear", "seed": 23,
                                 "params": {"ensemble": 4}},
    "probe-quintic-branches": {"scenario": "probe-multilinear", "seed": 23,
                               "params": {"quintic": True, "ensemble": 3}},
    # k = 0 (one factor, no resonant branch) and its k0_embedding_ratio
    # assertion
    "probe-multilinear-k0": {"scenario": "probe-multilinear", "seed": 19,
                             "params": {"k": 0, "ensemble": 4}},
    # seed 5 draws picks 0.81, 0.84, 0.37 and 0.19, so the (2a, -a, 2a)
    # resonant branch too, which seed 3 above never draws
    "probe-multilinear-k2-branches": {"scenario": "probe-multilinear", "seed": 5,
                                      "params": {"k": 2, "s": 0.75, "ensemble": 4}},
    # the line's (-1)^k plane-wave coefficients
    "probe-trilinear-line": {"scenario": "probe-trilinear", "seed": 23,
                             "params": {"kind": "line", "ensemble": 4}},
    "dyadic-checks": {"scenario": "dyadic-checks", "seed": 5, "params": {}},
    "flowmap": {"scenario": "flowmap", "seed": 6,
                "params": {"dt": 5e-3, "ensemble": 3}},
    "flowmap-line-gauged": {"scenario": "flowmap", "seed": 7,
                            "params": {"kind": "line", "n_points": 128,
                                       "domain_scale": 2, "dt": 5e-3,
                                       "ensemble": 2, "lambda": 1.0,
                                       "k_power": 1, "gauged": True}},
    "plane-wave": {"scenario": "plane-wave", "seed": 8,
                   "params": {"dt": 1e-3, "n_points": 64, "lambda": 0.8,
                              "k_power": 1}},
    "gauge-roundtrip": {"scenario": "gauge-roundtrip", "seed": 9,
                        "params": {"n_points": 64, "ensemble": 12}},
    "gauge-roundtrip-line": {"scenario": "gauge-roundtrip", "seed": 10,
                             "params": {"kind": "line", "n_points": 256,
                                        "domain_scale": 4, "ensemble": 12}},
    "gauge-equivalence": {"scenario": "gauge-equivalence", "seed": 11,
                          "params": {"n_points": 64, "dt": 5e-3}},
    "gauge-equivalence-line": {"scenario": "gauge-equivalence", "seed": 12,
                               "params": {"kind": "line", "n_points": 512,
                                          "domain_scale": 4, "dt": 1e-2,
                                          "l_refine": False}},
    # the line box doubling: the smallest line config the schema takes, whose
    # packet passes the edge check in both boxes (512 / 4 and 1024 / 8)
    "gauge-equivalence-line-refine": {"scenario": "gauge-equivalence", "seed": 28,
                                      "params": {"kind": "line", "n_points": 512,
                                                 "domain_scale": 4, "dt": 1e-2}},
    "verify-resonance": {"scenario": "verify-resonance", "seed": 13,
                         "params": {"n": 5000}},
    "verify-domination": {"scenario": "verify-domination", "seed": 14,
                          "params": {"n": 10 ** 4}},
    "probe-smult": {"scenario": "probe-smult", "seed": 15,
                    "params": {"ensemble": 8, "n_points": 64}},
    "probe-strichartz": {"scenario": "probe-strichartz", "seed": 16,
                         "params": {"ensemble": 4, "n_t": 64}},
    "solve": {"scenario": "solve", "seed": 17,
              "params": {"n_points": 64, "dt": 1e-2, "t_final": 0.2,
                         "lambda": 1.0, "k_power": 1, "gauged": True,
                         "integrator": "ifrk4"}},
    "scaling": {"scenario": "scaling", "seed": 18,
                "params": {"n_points": 128, "dt": 5e-3, "t_final": 0.05}},
    # the line return of the quintic form
    "probe-quintic-line": {"scenario": "probe-multilinear", "seed": 23,
                           "params": {"quintic": True, "kind": "line", "ensemble": 3}},
    # the gaussian, plane and random initial data; an explicit empty
    # `initial` takes the line's gaussian default whatever the key's default
    "solve-line-gaussian": {"scenario": "solve", "seed": 24,
                            "params": {"kind": "line", "n_points": 64,
                                       "domain_scale": 4, "dt": 1e-2,
                                       "t_final": 0.1, "initial": {}}},
    "solve-plane": {"scenario": "solve", "seed": 26,
                    "params": {"n_points": 64, "dt": 1e-2, "t_final": 0.1,
                               "initial": {"type": "plane", "amplitude": 0.5,
                                           "mode": 2}}},
    # pad factor 2; at dt 1e-2 the drift (4.6e-10) sits near its 1e-9 bound
    "solve-random": {"scenario": "solve", "seed": 25,
                     "params": {"n_points": 64, "dt": 5e-3, "t_final": 0.1,
                                "lambda": 0.5, "k_power": 1, "pad_factor": 2,
                                "initial": {"type": "random", "band": 8,
                                            "h1_norm": 0.3}}},
    # the gaussian rescaled to an H^1 norm
    "solve-gaussian-h1": {"scenario": "solve", "seed": 27,
                          "params": {"n_points": 64, "dt": 1e-2, "t_final": 0.1,
                                     "initial": {"type": "gaussian", "h1_norm": 0.3}}},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name):
    code, _ = run(dict(CASES[name], name=name), tmp_path)
    assert code == 0
    # keys, strings and booleans (assertion outcomes) match exactly,
    # numbers by the golden rule
    assert golden_mismatches(json.loads((tmp_path / "report.json").read_text()),
                             json.loads((GOLDEN_DIR / f"{name}.json").read_text())) == []


def test_comparator_rule():
    assert golden_mismatches({"a": [1.0, 2.0]}, {"a": [1.0, 2.0 + 1e-11]}) == []
    assert golden_mismatches({"a": 1.0 + 1e-9}, {"a": 1.0}) == [".a: 1.000000001 != 1.0"]
    # below the roundoff floor only growth counts
    assert golden_mismatches(3e-13, 1e-13) == []
    assert golden_mismatches(2e-12, 1e-13) != []
    assert golden_mismatches({"ok": True}, {"ok": False}) != []
    assert golden_mismatches({"a": 1}, {"b": 1}) != []
