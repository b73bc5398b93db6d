"""Reproducible experiment scenarios behind the command-line runner.

Every runner takes (params, rng) and returns a result dict.  rng is the
run's seeded numpy Generator, or None for a scenario that draws nothing
(cli names those, so that such a run never imports numpy.random).  The
result dict holds

    metrics     -- flat name -> number map for the CSV report,
    assertions  -- list of {name, value, threshold, op, passed},
    plotdata    -- name -> list of (x, y) rows for TSV emission, optional,
    reports     -- the probe reports (ProbeReport fields as a dict), optional,
    fields      -- name -> (SpectralField, time) to dump, optional.

Thresholds are fixed here, not configurable: a scenario either meets its
contract or exits nonzero.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .fields import (Domain, GridFunction, SpaceTimeField, SpectralField, Trajectory,
                     _live_rows, _row_blocks, _square_sums)
from .gauge import gauge_forward, gauge_report, gauge_trajectory
from .multipliers import (REGIME_LABELS, resonance_residuals, resonance_scale,
                          sample_points)
from .nonlinear import NonlinearityConfig
from .probes import (domination_scan, dyadic_sum_check, multilinear_probe,
                     sobolev_mult_probe, strichartz_probe, trilinear_probe)
from .sampling import (gaussian_packet, plane_wave, random_decaying_field,
                       scaled_to_besov, scaled_to_h1, random_mode_sum_values)
from .solver import SolverConfig, rescale, solve
from .spaces import besov_norm


def _assertion(name, value, threshold):
    """An upper-bound assertion: passed when value <= threshold."""
    return {"name": name, "value": float(value), "threshold": float(threshold),
            "op": "<=", "passed": bool(value <= threshold)}


def _check(name, ok):
    """A yes/no assertion: value 0 where ok holds, 1 where not, against 0.5."""
    return _assertion(name, 0.0 if ok else 1.0, 0.5)


def _mass_drift(*masses) -> float:
    """The worst relative drift max_t |m(t) - m(0)| / m(0) over the mass
    series; np.max keeps the NaN (or inf) of a zero or underflowing m(0),
    which fails the drift assertion."""
    return float(np.max([np.max(np.abs(m - m[0])) / m[0] for m in masses]))


def _probe_result(rep, metrics, assertions) -> dict:
    """A probe runner's result, rep's report included."""
    return {"metrics": metrics, "assertions": assertions, "reports": [asdict(rep)]}


def _refined_result(rep, name) -> dict:
    """The result of a probe run at two refinements: its sup and stability
    verdict, which the `name`_stable check asserts."""
    return _probe_result(rep, {"sup_ratio": rep.sup_ratio,
                               "stable": float(rep.refinement_stable)},
                         [_check(f"{name}_stable", rep.refinement_stable)])


def _domain(params) -> Domain:
    return Domain(params["kind"], params["n_points"], params["domain_scale"])


def _initial_type(spec: dict, kind: str) -> str:
    """solve's `initial` type: trig on the torus and gaussian on the line
    unless spec names one."""
    return spec.get("type", "trig" if kind == "torus" else "gaussian")


def _initial_data(dom: Domain, spec: dict, rng) -> GridFunction:
    kind = _initial_type(spec, dom.kind)
    if kind == "plane":
        return plane_wave(dom, spec.get("amplitude", 0.5), spec.get("mode", 1))
    if kind == "trig":  # the config check keeps it on the torus
        return _smooth_torus_data(dom, spec.get("h1_norm", 0.3))
    if kind == "gaussian":
        # center mid-box so the tails, not the peak, meet the seam
        center = spec.get("center", np.pi if dom.kind == "torus" else 0.0)
        u = gaussian_packet(dom, spec.get("amplitude", 0.3),
                            spec.get("width", 1.2), center=center,
                            mode=spec.get("mode", 1))
    else:  # random: cli checks the type first
        u = random_decaying_field(dom, rng, band=spec.get("band", dom.xi_max / 4))
    return scaled_to_h1(u, spec["h1_norm"]) if "h1_norm" in spec else u


def _smooth_torus_data(dom: Domain, h1_norm: float) -> GridFunction:
    x = dom.x
    vals = np.exp(1j * x) + 0.5 * np.exp(-2j * x) + 0.3 * np.exp(3j * x)
    return scaled_to_h1(GridFunction(dom, vals), h1_norm)


def _packet_data(dom: Domain, h1_norm: float) -> GridFunction:
    """The mode-1 gaussian packet of width 1.3, scaled to the given H^1
    norm: gauge-equivalence's data on the line, and scaling's."""
    return scaled_to_h1(gaussian_packet(dom, 1.0, 1.3, mode=1), h1_norm)


def run_solve(params, rng):
    dom = _domain(params)
    nl = NonlinearityConfig(params["lambda"], params["k_power"], params["gauged"])
    cfg = SolverConfig(dom, nl, params["dt"], params["t_final"],
                       params["integrator"], params["pad_factor"])
    u0 = _initial_data(dom, params["initial"], rng)
    traj = solve(u0, cfg)
    masses = traj.mass()
    drift = _mass_drift(masses)
    return {
        "metrics": {"mass_initial": float(masses[0]),
                    "mass_final": float(masses[-1]),
                    "mass_rel_drift": drift,
                    "n_steps": cfg.n_steps},
        "assertions": [_assertion("mass_rel_drift", drift, 1e-9)],
        "plotdata": {"mass_vs_time": list(zip(traj.times.tolist(),
                                              masses.tolist()))},
        "fields": {"initial": (u0.to_spectral(), 0.0),
                   "final": (traj.slice_function(-1).to_spectral(),
                             float(traj.times[-1]))},
    }


def _plane_wave_solve(n_points, amplitude, lam, k_power, dt,
                      t_final) -> tuple[Trajectory, float, float]:
    """The plane-wave trajectory, its relative L2 error at t_final and the
    exact frequency omega of a exp(i(x - omega t))."""
    dom = Domain("torus", n_points)
    a = amplitude
    omega = 1.0 - a ** 2 + lam * a ** (2 * k_power)
    cfg = SolverConfig(dom, NonlinearityConfig(lam, k_power, False), dt, t_final)
    traj = solve(plane_wave(dom, a, 1), cfg)
    exact = a * np.exp(1j * (dom.x - omega * t_final))
    err = GridFunction(dom, traj.values[-1] - exact)
    return traj, err.l2_norm() / GridFunction(dom, exact).l2_norm(), omega


# the refinement study's steps, above the roundoff floor
REFINE_DTS = (0.05, 0.025, 0.0125)


def run_plane_wave(params, rng):
    a, lam, kp = params["amplitude"], params["lambda"], params["k_power"]
    traj, err, omega = _plane_wave_solve(params["n_points"], a, lam, kp,
                                         params["dt"], params["t_final"])
    assertions = [_assertion("plane_wave_rel_l2_error", err, 1e-8)]
    metrics = {"rel_l2_error": err, "omega": omega}
    plot = {}
    if params["refine"]:
        dts = REFINE_DTS  # convergence-order study at coarse steps
        errs = [_plane_wave_solve(params["n_points"], a, lam, kp, h,
                                  params["t_final"])[1] for h in dts]
        for i in range(1, len(errs)):
            # each halving of dt cuts the error 8x, down to a 1e-11 floor
            assertions.append(_assertion(f"refine_dt_{dts[i]:g}", errs[i],
                                         max(errs[i - 1] / 8.0, 1e-11)))
            metrics[f"error_dt_{dts[i]:g}"] = errs[i]
        metrics[f"error_dt_{dts[0]:g}"] = errs[0]
        plot["error_vs_dt"] = list(zip(dts, errs))
    # mass conservation rides along on the main run
    drift = _mass_drift(traj.mass())
    metrics["mass_rel_drift"] = drift
    assertions.append(_assertion("mass_rel_drift", drift, 1e-9))
    return {"metrics": metrics, "assertions": assertions, "plotdata": plot}


def run_gauge_roundtrip(params, rng):
    dom = _domain(params)
    members = []
    for _ in range(params["ensemble"]):
        # the gauge image is analytic but wider-band than its argument;
        # keep an 8x lattice headroom so the 1e-12 contract is meaningful
        f = random_decaying_field(dom, rng, band=dom.xi_max / 8)
        members.append(f.values * (1.0 / f.l2_norm()))
    rt, mod = gauge_report(GridFunction(dom, np.array(members)))
    return {
        "metrics": {"max_round_trip_error": rt, "max_modulus_error": mod},
        "assertions": [_assertion("round_trip_error", rt, 1e-12),
                       _assertion("modulus_error", mod, 1e-12)],
    }


def _gauge_equivalence_discrepancy(dom: Domain, dt, t_final, h1_norm,
                                   lam, k_power) -> tuple[float, float]:
    """(sup-t L2 discrepancy, worst relative mass drift) for one domain."""
    u0 = (_smooth_torus_data if dom.kind == "torus" else _packet_data)(dom, h1_norm)
    cfg_orig = SolverConfig(dom, NonlinearityConfig(lam, k_power, False), dt, t_final)
    cfg_gauged = SolverConfig(dom, NonlinearityConfig(lam, k_power, True), dt, t_final)
    # one trajectory alive: the gauged one is mapped back in place, and the
    # direct solve streams its slices into it, each subtracted from its
    # recovered row (the solves and the map draw nothing, so the order
    # changes no bit; per-row sums keep the bits of whole-array ones)
    gauged = solve(gauge_forward(u0), cfg_gauged)
    gauged_mass = gauged.mass()
    diff = gauge_trajectory(gauged, inverse=True)
    rows = diff.values
    direct_sq = np.empty(diff.n_slices)

    def subtract(j, values):
        np.subtract(values, rows[j], out=rows[j])
        direct_sq[j] = _square_sums(values)

    solve(u0, cfg_orig, each=subtract)
    direct_mass = np.sqrt(direct_sq * dom.dx)
    return float(np.max(diff.mass())), _mass_drift(direct_mass, gauged_mass)


def run_gauge_equivalence(params, rng):
    dom = _domain(params)
    disc, drift = _gauge_equivalence_discrepancy(
        dom, params["dt"], params["t_final"], params["h1_norm"],
        params["lambda"], params["k_power"])
    metrics = {"sup_l2_discrepancy": disc, "mass_rel_drift": drift}
    assertions = [_assertion("gauge_equivalence_sup_l2", disc, 1e-6),
                  _assertion("mass_rel_drift", drift, 1e-9)]
    if dom.kind == "line" and params["l_refine"]:
        dom2 = Domain("line", dom.n_points * 2, dom.domain_scale * 2)
        disc2, _ = _gauge_equivalence_discrepancy(
            dom2, params["dt"], params["t_final"], params["h1_norm"],
            params["lambda"], params["k_power"])
        metrics["sup_l2_discrepancy_double_box"] = disc2
        metrics["l_refinement_delta"] = abs(disc2 - disc)
    return {"metrics": metrics, "assertions": assertions}


def run_scaling(params, rng):
    dom = _domain(params)
    cfg = SolverConfig(dom, NonlinearityConfig(0.0, 0, False),
                       params["dt"], params["t_final"])
    traj = solve(_packet_data(dom, 0.3), cfg)
    base_mass = traj.mass()
    metrics, assertions = {}, []
    for sigma in params["sigmas"]:
        scaled = rescale(traj, sigma)
        err_mass = float(np.max(np.abs(scaled.mass() - base_mass)))
        metrics[f"mass_matching_error_sigma{sigma}"] = err_mass
        assertions.append(_assertion(f"mass_matching_sigma{sigma}", err_mass, 1e-12))
        # the rescaled data must solve the equation on the enlarged box
        cfg2 = SolverConfig(scaled.domain, cfg.nonlinearity,
                            sigma ** 2 * params["dt"],
                            sigma ** 2 * params["t_final"])
        re_solved = solve(scaled.slice_function(0), cfg2)
        rel = np.sqrt(_square_sums(re_solved.values - scaled.values)
                      / _square_sums(scaled.values))
        resid = float(np.max(rel))
        metrics[f"resolve_residual_sigma{sigma}"] = resid
        assertions.append(_assertion(f"resolve_residual_sigma{sigma}", resid, 1e-8))
    return {"metrics": metrics, "assertions": assertions}


def run_flowmap(params, rng):
    dom = _domain(params)
    nl = NonlinearityConfig(params["lambda"], params["k_power"], params["gauged"])
    cfg = SolverConfig(dom, nl, params["dt"], params["t_final"])
    eps_list = sorted(params["eps_list"], reverse=True)
    # u0 and u0 + eps * phi for every eps, per member, marched in one batch
    # so that u0 is solved once
    data = []
    for _ in range(params["ensemble"]):
        u0 = scaled_to_besov(random_decaying_field(dom, rng, band=dom.xi_max / 4),
                             0.5, params["r"] * 0.8)
        phi = scaled_to_besov(random_decaying_field(dom, rng, band=dom.xi_max / 4),
                              0.5, 1.0)
        data.append([u0.values] + [u0.values + eps * phi.values for eps in eps_list])
    # (n_slices, ensemble, 1 + len(eps_list), n)
    vals = solve(GridFunction(dom, np.array(data)), cfg).values
    diffs = GridFunction(dom, vals[..., 1:, :] - vals[..., :1, :]).to_spectral().coeffs
    norms = besov_norm(SpectralField(dom, diffs), 0.5)
    # L[i, j]: sup over t of the B^{1/2}_{2,inf} ratio of the difference to
    # the difference of the data (slice 0)
    table = np.max(norms / norms[0], axis=0)
    worst = 0.0
    for i in range(params["ensemble"]):
        med = float(np.median(table[i]))
        worst = max(worst, float(np.max(table[i])) / med if med > 0 else np.inf)
    metrics = {"max_over_median_L": worst,
               "L_max": float(np.max(table)), "L_min": float(np.min(table))}
    assertions = [_assertion("flowmap_L_max_over_median", worst, 2.0)]
    plot = {"L_vs_eps": [(eps, float(np.max(table[:, j])))
                         for j, eps in enumerate(eps_list)]}
    return {"metrics": metrics, "assertions": assertions, "plotdata": plot}


# bytes of one point array's row block in _resonance_batch
_RESONANCE_BLOCK_BYTES = 2 ** 17


def _resonance_batch(rng, n, box, lattice, regime) -> tuple[float, float]:
    """(max relative residual, max relative gap deficit) of one regime's
    batch of points; the batch's arrays are freed before the next draw.

    The residuals and scales are taken over row blocks of the points, at
    most _RESONANCE_BLOCK_BYTES of each coordinate, so their temporaries
    stay small beside the batch; the block maxima fold with np.maximum,
    which keeps a NaN, and a max is exact, so the fold is the whole
    batch's max."""
    pts = sample_points(rng, n, box, lattice, regime)
    residual = deficit = -np.inf
    for rows in _row_blocks(n, 8, _RESONANCE_BLOCK_BYTES):
        block = [p[rows] for p in pts]
        r1, r2, gap = resonance_residuals(*block)
        scale = 1.0 + resonance_scale(*block)
        residual = np.maximum(residual, np.max(np.maximum(r1, r2) / scale))
        deficit = np.maximum(deficit, np.max(-gap / scale))
    return float(residual), float(deficit)


def run_verify_resonance(params, rng):
    metrics, assertions = {}, []
    for lattice in ("Z", "R"):
        worst = 0.0
        n = params["n"]
        per = max(1, n // len(REGIME_LABELS))
        for regime in REGIME_LABELS:
            for v in _resonance_batch(rng, per, params["box"], lattice, regime):
                worst = np.maximum(worst, v)  # keeps a NaN
        metrics[f"max_rel_residual_{lattice}"] = float(worst)
        assertions.append(_assertion(f"resonance_residual_{lattice}", worst, 1e-9))
    return {"metrics": metrics, "assertions": assertions}


def run_verify_domination(params, rng):
    metrics, assertions = {}, []
    for family in ("M", "Mt"):
        for lattice in ("Z", "R"):
            rep = domination_scan(family, params["box"], params["n"], lattice,
                                  params["delta"], rng)
            key = f"{family}_{lattice}"
            metrics[f"sup_ratio_{key}"] = rep.sup_ratio
            metrics[f"stable_{key}"] = float(rep.refinement_stable)
            assertions += [_check(f"domination_finite_{key}", np.isfinite(rep.sup_ratio)),
                           _check(f"domination_stable_{key}", rep.refinement_stable)]
    return {"metrics": metrics, "assertions": assertions}


def run_probe_strichartz(params, rng):
    rep = strichartz_probe(params["b"], params["ensemble"],
                           Domain("torus", params["n_points"]),
                           params["n_t"], params["dt"], rng)
    return _refined_result(rep, "strichartz")


def _window_result(rep, prefix, extra=()):
    """A window probe's result: its sup, the sups by T monotone in T (then
    the extra assertions), and sup_x by T plotted."""
    checks = []
    for key in ("sup_x_by_T", "sup_y_by_T"):
        series = rep.details[key]
        vals = [series[t] for t in sorted(series, key=float, reverse=True)]
        checks.append(_check(f"{prefix}_{key}_monotone", all(
            vals[i + 1] <= vals[i] * (1 + 1e-9) for i in range(len(vals) - 1))))
    plot = [(float(t), v) for t, v in rep.details["sup_x_by_T"].items()]
    return dict(_probe_result(rep, {"sup_ratio": rep.sup_ratio}, checks + list(extra)),
                plotdata={"supratio_vs_T": plot})


def run_probe_trilinear(params, rng):
    rep = trilinear_probe(params["s"], tuple(params["t_values"]), params["ensemble"],
                          Domain(params["kind"], params["n_points"]), rng)
    return _window_result(rep, "trilinear")


def run_probe_multilinear(params, rng):
    rep = multilinear_probe(params["k"], params["s"], tuple(params["t_values"]),
                            params["ensemble"],
                            Domain(params["kind"], params["n_points"]),
                            params["delta"], params["quintic"], rng)
    extra = []
    if params["k"] == 0 and not params["quintic"]:
        extra.append(_assertion("k0_embedding_ratio",
                                np.max(list(rep.details["sup_x_by_T"].values())), 1.0))
    return _window_result(rep, rep.name, extra)


def run_probe_smult(params, rng):
    rep = sobolev_mult_probe(params["s"], params["s1"], params["s2"],
                             params["ensemble"], params["n_points"],
                             rng=rng)
    return _refined_result(rep, "smult")


def run_dyadic_checks(params, rng):
    dom = Domain("torus", params["n_points"])
    dt = 1.0 / 64.0
    times = -2.0 + dt * np.arange(256)
    vals = random_mode_sum_values(dom, times, rng, band=dom.xi_max / 2)
    rows = _live_rows(vals.T)
    u = SpaceTimeField.from_time_values(dom, times, vals.T[rows], rows=rows)
    rep = dyadic_sum_check(u, params["delta"], params["s"], params["b"])
    return _probe_result(rep, {"worst_slack": rep.sup_ratio},
                         [_check("dyadic_inequalities", rep.details["all_ok"])])
