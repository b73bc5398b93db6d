"""Acceptance suite: every criterion at its stated tolerance.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -s`` to see them live).  Shared solver
runs are computed once in module-scoped fixtures; wall-clock limits are
asserted where the criterion carries one.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dnls_lab.fields import Domain, GridFunction
from dnls_lab.gauge import gauge_forward, gauge_inverse, gauge_trajectory
from dnls_lab.multipliers import (REGIME_LABELS, resonance_residuals,
                                  resonance_scale, sample_points)
from dnls_lab.nonlinear import (NonlinearityConfig, quintic_Q_general_slices,
                                trilinear_T_slices)
from dnls_lab.probes import (domination_scan, multilinear_probe,
                             trilinear_probe)
from dnls_lab.sampling import (gaussian_packet, plane_wave, random_band_field,
                               random_decaying_field, scaled_to_besov,
                               scaled_to_h1)
from dnls_lab.solver import SolverConfig, rescale, solve
from dnls_lab.spaces import besov_norm, sobolev_norm, xsb_norm, ysb_norm

from tests_support import (conj_flip, picard_iterate, quintic_Q_fourier,
                           trilinear_T_fourier, xy_embedding_constant)


def report(name: str, passed: bool, detail: str):
    print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def plane_wave_run():
    dom = Domain("torus", 256)
    cfg = SolverConfig(dom, NonlinearityConfig(0.0, 0, False), 1e-4, 0.1)
    t0 = time.perf_counter()
    traj = solve(plane_wave(dom, 0.5, 1), cfg)
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        cfg_c = SolverConfig(dom, NonlinearityConfig(0.0, 0, False), dt, 0.1)
        tr = solve(plane_wave(dom, 0.5, 1), cfg_c)
        exact = 0.5 * np.exp(1j * (dom.x - 0.75 * 0.1))
        diff = tr.values[-1] - exact
        errs.append(float(np.sqrt(np.sum(np.abs(diff) ** 2) * dom.dx)
                          / (0.5 * np.sqrt(2 * np.pi))))
    elapsed = time.perf_counter() - t0
    exact = 0.5 * np.exp(1j * (dom.x - 0.75 * 0.1))
    diff = traj.values[-1] - exact
    err = float(np.sqrt(np.sum(np.abs(diff) ** 2) * dom.dx)
                / (0.5 * np.sqrt(2 * np.pi)))
    return {"traj": traj, "error": err, "refine_errors": errs,
            "elapsed": elapsed}


def _gauge_equivalence(dom, rng):
    if dom.kind == "torus":
        x = dom.x
        u0 = scaled_to_h1(GridFunction(
            dom, np.exp(1j * x) + 0.5 * np.exp(-2j * x) + 0.3 * np.exp(3j * x)),
            0.3)
    else:
        u0 = scaled_to_h1(gaussian_packet(dom, 1.0, 1.3, mode=1), 0.3)
    cfg_o = SolverConfig(dom, NonlinearityConfig(1.0, 1, False), 5e-4, 0.05)
    cfg_g = SolverConfig(dom, NonlinearityConfig(1.0, 1, True), 5e-4, 0.05)
    direct = solve(u0, cfg_o)
    gauged = solve(gauge_forward(u0), cfg_g)
    # the map writes into its input, and the drift below reads gauged
    recovered = gauge_trajectory(replace(gauged, values=gauged.values.copy()),
                                 inverse=True)
    disc = float(np.max(np.sqrt(np.sum(
        np.abs(direct.values - recovered.values) ** 2, axis=1) * dom.dx)))
    drift = 0.0
    for traj in (direct, gauged):
        m = traj.mass()
        drift = max(drift, float(np.max(np.abs(m - m[0])) / m[0]))
    return disc, drift


@pytest.fixture(scope="module")
def gauge_equivalence_runs():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    out = {}
    for dom in (Domain("torus", 256), Domain("line", 512, 4)):
        out[dom.kind] = _gauge_equivalence(dom, rng)
    out["elapsed"] = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_a1_resonance_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for lattice in ("Z", "R"):
        n = 10 ** 6
        per = n // len(REGIME_LABELS) + 1
        for regime in REGIME_LABELS:
            pts = sample_points(rng, per, 1e3, lattice, regime)
            r1, r2, gap = resonance_residuals(*pts)
            scale = resonance_scale(*pts)
            worst = max(worst, float(np.max(np.maximum(r1, r2) / (1.0 + scale))))
            worst = max(worst, float(np.max(-gap / (1.0 + scale))))
    elapsed = time.perf_counter() - t0
    report("A1 resonance identity",
           worst <= 1e-9 and elapsed < 10.0,
           f"max rel residual {worst:.2e}, {elapsed:.1f}s")


def test_a2_plane_wave_exactness(plane_wave_run):
    err = plane_wave_run["error"]
    errs = plane_wave_run["refine_errors"]
    floor = 1e-11
    order_ok = all(errs[i + 1] <= errs[i] / 8.0 or errs[i + 1] < floor
                   for i in range(len(errs) - 1))
    ok = err < 1e-8 and order_ok and plane_wave_run["elapsed"] < 30.0
    report("A2 plane-wave exactness", ok,
           f"rel err {err:.2e}, refinement errors "
           + "/".join(f"{e:.1e}" for e in errs)
           + f", {plane_wave_run['elapsed']:.1f}s")


def test_a3_gauge_equivalence(gauge_equivalence_runs):
    torus_disc = gauge_equivalence_runs["torus"][0]
    line_disc = gauge_equivalence_runs["line"][0]
    elapsed = gauge_equivalence_runs["elapsed"]
    ok = torus_disc < 1e-6 and line_disc < 1e-6 and elapsed < 120.0
    report("A3 gauge equivalence", ok,
           f"sup L2 discrepancy torus {torus_disc:.2e}, line {line_disc:.2e}, "
           f"{elapsed:.1f}s")


def test_a4_gauge_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    rt = mod = 0.0
    for i in range(100):
        # the gauge image is analytic but wider-band than its argument;
        # the line grid carries the headroom the 1e-12 contract needs
        dom = Domain("torus", 256) if i % 2 == 0 else Domain("line", 512, 4)
        f = random_decaying_field(dom, rng, band=8.0)
        f = f * (1.0 / f.l2_norm())
        g = gauge_forward(f)
        back = gauge_inverse(g)
        rt = max(rt, float(np.max(np.abs(back.values - f.values))))
        mod = max(mod, float(np.max(np.abs(np.abs(g.values) - np.abs(f.values)))))
    elapsed = time.perf_counter() - t0
    ok = rt < 1e-12 and mod < 1e-12 and elapsed < 5.0
    report("A4 gauge round trip", ok,
           f"round trip {rt:.2e}, modulus {mod:.2e}, {elapsed:.1f}s")


def test_a5_mass_conservation(plane_wave_run, gauge_equivalence_runs):
    m = plane_wave_run["traj"].mass()
    drift_pw = float(np.max(np.abs(m - m[0])) / m[0])
    drift_ge = max(gauge_equivalence_runs["torus"][1],
                   gauge_equivalence_runs["line"][1])
    ok = drift_pw < 1e-9 and drift_ge < 1e-9
    report("A5 mass conservation", ok,
           f"plane-wave drift {drift_pw:.2e}, gauge runs drift {drift_ge:.2e}")


def test_a6_scaling_law():
    dom = Domain("line", 256, 4)
    u0 = scaled_to_h1(gaussian_packet(dom, 1.0, 1.3, mode=1), 0.3)
    cfg = SolverConfig(dom, NonlinearityConfig(0.0, 0, False), 1e-3, 0.05)
    traj = solve(u0, cfg)
    worst = 0.0
    for sigma in (2, 4):
        out = rescale(traj, sigma)
        worst = max(worst, float(np.max(np.abs(out.mass() - traj.mass()))))
    report("A6 scaling law", worst <= 1e-12,
           f"max L2 mismatch at matched times {worst:.2e}")


def test_a7_oracle_equivalence():
    rng = np.random.default_rng(2)
    dom_t = Domain("torus", 32)
    worst_tri = 0.0
    for _ in range(50):
        sv = random_band_field(dom_t, rng, band=8.0)
        c, cb = sv.coeffs, conj_flip(sv).coeffs
        fast = trilinear_T_slices(dom_t, c, c, cb)
        oracle = trilinear_T_fourier(sv, sv, conj_flip(sv))
        scale = max(float(np.max(np.abs(fast))), 1.0)
        worst_tri = max(worst_tri, float(np.max(np.abs(fast - oracle.coeffs))) / scale)
    dom_q = Domain("torus", 16)
    worst_q = 0.0
    for _ in range(50):
        sv = random_band_field(dom_q, rng, band=4.0)
        c, cb = sv.coeffs, conj_flip(sv).coeffs
        fast = quintic_Q_general_slices(dom_q, [c, cb, c, cb, c])
        oracle = quintic_Q_fourier([sv, conj_flip(sv), sv, conj_flip(sv), sv])
        scale = max(float(np.max(np.abs(fast))), 1.0)
        worst_q = max(worst_q, float(np.max(np.abs(fast - oracle.coeffs))) / scale)
    ok = worst_tri < 1e-10 and worst_q < 1e-9
    report("A7 oracle equivalence", ok,
           f"trilinear {worst_tri:.2e}, quintic {worst_q:.2e}")


def test_a8_multiplier_domination():
    rng = np.random.default_rng(3)
    details = []
    ok = True
    for family in ("M", "Mt"):
        for lattice in ("Z", "R"):
            rep = domination_scan(family, 100.0, 10 ** 5, lattice, rng=rng)
            ok = ok and np.isfinite(rep.sup_ratio) and rep.refinement_stable
            details.append(f"{family}/{lattice} sup {rep.sup_ratio:.3f}"
                           f"{'' if rep.refinement_stable else ' UNSTABLE'}")
    report("A8 multiplier domination", ok, ", ".join(details))


def test_a9_embeddings():
    rng = np.random.default_rng(4)
    dom = Domain("torus", 256)
    worst = 0.0
    for _ in range(1000):
        f = random_band_field(dom, rng, band=64.0)
        h = sobolev_norm(f, 0.5)
        if h > 0:
            worst = max(worst, besov_norm(f, 0.5) / h)
    ok_besov = worst <= 2.0

    from tests_support import random_spacetime
    ok_xy = True
    for seed in range(100):
        u = random_spacetime(seed)
        c = xy_embedding_constant(u, 0.0, 0.55)
        lhs = ysb_norm(u, 0.5, 0.0)
        rhs = c * xsb_norm(u, 0.5, 0.55, +1)
        ok_xy = ok_xy and lhs <= rhs * (1 + 1e-12)
    report("A9 embedding checks", ok_besov and ok_xy,
           f"max besov/sobolev ratio {worst:.3f} (<= 2), "
           f"XY inequality with Cauchy-Schwarz constant on 100 fields: "
           f"{'holds' if ok_xy else 'violated'}")


def test_a10_picard_contraction():
    dom = Domain("torus", 128)
    rng = np.random.default_rng(5)
    u0 = scaled_to_h1(random_band_field(dom, rng, band=8.0).to_grid(), 0.1)
    cfg = SolverConfig(dom, NonlinearityConfig(1.0, 1, False), 1e-3, 0.05)
    res = picard_iterate(u0, cfg, 8)
    ratios = [res.diff_norms[i + 1] / res.diff_norms[i]
              for i in range(3) if res.diff_norms[i] > 0]
    ref = solve(u0, cfg)
    agree = float(np.max(np.sqrt(np.sum(
        np.abs(res.trajectory.values - ref.values) ** 2, axis=1) * dom.dx)))
    ok = res.contracted and all(r < 0.5 for r in ratios) and agree < 1e-6
    report("A10 Picard contraction", ok,
           f"ratios {'/'.join(f'{r:.1e}' for r in ratios)}, "
           f"match vs stepper {agree:.2e}")


def test_a11_flow_map_continuity():
    dom = Domain("torus", 128)
    rng = np.random.default_rng(6)
    cfg = SolverConfig(dom, NonlinearityConfig(0.0, 0, False), 2e-3, 0.05)
    eps_list = (1e-2, 1e-3, 1e-4)
    worst = 0.0
    for _ in range(10):
        u0 = scaled_to_besov(random_decaying_field(dom, rng, band=16.0), 0.5, 0.4)
        phi = scaled_to_besov(random_decaying_field(dom, rng, band=16.0), 0.5, 1.0)
        tu = solve(u0, cfg)
        ls = []
        for eps in eps_list:
            v0 = GridFunction(dom, u0.values + eps * phi.values)
            tv = solve(v0, cfg)
            den = besov_norm((v0 - u0).to_spectral(), 0.5)
            sup = max(besov_norm(
                GridFunction(dom, tv.values[l] - tu.values[l]).to_spectral(), 0.5) / den
                for l in range(tu.n_slices))
            ls.append(sup)
        worst = max(worst, max(ls) / float(np.median(ls)))
    report("A11 flow-map continuity", worst <= 2.0,
           f"max L / median L = {worst:.3f} over 10 data points")


def test_a12_estimate_probes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    reps = [trilinear_probe(ensemble=100, rng=rng),
            multilinear_probe(k=2, ensemble=100, rng=rng),
            multilinear_probe(quintic=True, ensemble=100, rng=rng)]
    ok = True
    details = []
    for rep in reps:
        for key in ("sup_x_by_T", "sup_y_by_T"):
            series = rep.details[key]
            ts = sorted((float(t) for t in series), reverse=True)
            vals = [series[str(t)] for t in ts]
            mono = all(vals[i + 1] <= vals[i] * (1 + 1e-9)
                       for i in range(len(vals) - 1))
            ok = ok and mono and np.isfinite(rep.sup_ratio)
        details.append(f"{rep.name} sup {rep.sup_ratio:.2e} "
                       f"decay x{series[str(ts[0])] / series[str(ts[-1])]:.1f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report("A12 estimate probes", ok,
           ", ".join(details) + f", {elapsed:.0f}s")
