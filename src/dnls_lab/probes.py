"""Sampling-based verification of the estimate inequalities.

Inequalities with unspecified constants cannot be pass/fail on a single
grid, so every probe reports an empirical sup constant together with a
refinement-stability verdict: stable means the sup moves by less than a
factor of two when the sampling box, resolution or ensemble doubles.
Ratio probes are homogeneous of degree zero in the field amplitudes, so
the reported constants do not depend on the sampler's scale.  Every
probe setting that a run varies is an argument with no default (the CLI
schema holds the defaults); the settings that no run varies are constants
here, and the reports still print them: the stability factor 2, the
window probes' time grid (step 1/128 on [-4, 4)), the similarity factor
C = 8 of the dyadic (XX) check, and the torus of the Besov-product probe.
The random fields' shapes are fixed in sampling.

The trilinear and multilinear window probes share one driver,
_window_probe, with one factor draw per family (_trilinear_draw,
_quintic_draw, _power_draw), single-mode tuples built by _single_modes.
The driver reuses the same base fields for every window size, so the
sup-ratio trend across T reflects the window effect, not sampling noise.
It also factors the window out of the product forms: the window w(t) is
real and every form (the trilinear T, the quintic Q and the plain
products) acts slice by slice and is multilinear in each slice, its torus
mean corrections included, so F(w u1, ..., w um) = w^m F(u1, ..., um).  A
probe finds once the slices that some window keeps (255 of the 1024); each
sample draws its factors as per-slice coefficients on those slices alone
(the samplers write each travelling mode's coefficient directly, with no
grid samples and no spatial transform), evaluates its form there (the
forms are coefficients in and out), and scales the stack of form and
factors by w_T^m and w_T per window.  In exact arithmetic this is the same
number; in floating point each element of the windowed product is rounded
once more (a relative change of order 1e-16).

Most xi rows of such a stack are exactly zero: a 12-mode factor fills a
few of the 32, a single-mode factor one.  A sample finds the rows with an
entry != 0 once, on its kept slices (_live_rows), and keeps those rows
alone: scaled for every window, the windows on a leading axis, they are
transformed in time in one call into one compact field, which each norm
call reads for all windows.  The tau transform of a zero row is zero and a
zero row adds exactly 0 to every block norm, so the ratios keep their
bits.  The windowed rows are a sample's one large array (fresh per
sample, so the time transform may overwrite it), and the norms take the
moduli of one window at a time.

The Strichartz and Besov-product ensembles draw their samples in blocks,
in the order a one-sample-at-a-time loop draws them, and evaluate each
block in one batched pass: one free evolution (its phases exp(-i t xi^2)
built once per ensemble), one window transform and one X^{0,b} norm call
per kind of sample, and one product and three Besov norm calls per block of
pairs.  Each member gets the bits of its own call, and the generator ends
in the same state.  The Strichartz samples stay per-slice coefficients: the
window multiplies them and the time transform and the X norm read their
live rows alone, with no spatial transform.  The L^4 norm is summed from
one inverse spatial transform of the block, with w^4 factored out of
|w u|^4, instead of inverting the windowed field's space-time transform
(the inverse only reproduces the windowed samples, up to roundoff).  A
block holds at most BLOCK_BYTES of space-time samples (Strichartz) or of
padded-grid rows (the Besov pairs' two factors, product and spectrum), so
a block, not the ensemble, sets the memory the ensembles add.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ParameterError
from .fields import (Domain, SpaceTimeField, SpectralField, _conj_reverse,
                     _live_rows, _plane_wave_coeffs, _row_blocks,
                     dealiased_product_coeffs)
from .frequency import dyadic_range
from .multipliers import REGIME_LABELS, domination_ratio_arrays, sample_points
from .nonlinear import quintic_Q_general_slices, trilinear_T_slices
from .sampling import random_band_field, random_mode_sum_values
from .spaces import (besov_norm, block_norms, cal_y_norm, frak_x_norm, plateau,
                     window_trajectory, xsb_norm)
from .solver import free_evolution


# byte budget of one block of probe samples evaluated together (see the
# module docstring)
BLOCK_BYTES = 2 ** 20
# the window probes' time step, which their reports print
_BASE_DT = 1.0 / 128.0


def _map_samples(fn, seeds):
    """Each probe's map over its pre-drawn sample seeds, in order.
    perfbench/child.py's pool mode wraps it by name to time the samples."""
    return [fn(s) for s in seeds]


@dataclass
class ProbeReport:
    """Outcome of one sampling probe."""

    name: str
    samples: int
    sup_ratio: float
    refinement_stable: bool | None
    params: dict
    details: dict

    def __post_init__(self):
        if self.samples <= 0:
            raise ValueError("sample count must be positive")
        if not np.isfinite(self.sup_ratio):
            raise NonFiniteError("empirical constant must be finite")

    def to_json(self) -> dict:
        return {"name": self.name, "samples": self.samples,
                "sup_ratio": self.sup_ratio,
                "refinement_stable": self.refinement_stable,
                "params": self.params, "details": self.details}


def _stable(a: float, b: float) -> bool:
    """The sups a and b differ by at most a factor of two."""
    hi, lo = max(a, b), min(a, b)
    if lo == 0.0:
        return hi == 0.0
    return hi / lo <= 2.0


def _refined(name: str, samples: int, sups: dict, params: dict, **details) -> ProbeReport:
    """The report of a probe run twice: sups maps the two passes' detail keys
    to their sups, whose larger (a NaN kept) is the sup and whose ratio is
    the stability verdict; the other details ride along."""
    a, b = sups.values()
    return ProbeReport(name=name, samples=samples, sup_ratio=float(np.maximum(a, b)),
                       refinement_stable=_stable(a, b), params=params,
                       details=dict(sups, **details))


# ---------------------------------------------------------------------------
# multiplier domination
# ---------------------------------------------------------------------------

def _domination_pass(family: str, box: float, n: int, lattice: str,
                     rng: np.random.Generator, delta: float):
    per_case: dict[str, float] = {}
    overall = 0.0
    argmax_point = None
    case2_sup = 0.0
    per_regime = max(1, n // len(REGIME_LABELS))
    for regime in REGIME_LABELS:
        pts = sample_points(rng, per_regime, box, lattice, regime)
        r, over_m4 = domination_ratio_arrays(family, *pts, delta=delta)
        j = int(np.argmax(r))
        per_case[regime] = float(r[j])
        if np.isnan(r[j]) or r[j] > overall:  # keeps a NaN
            overall = float(r[j])
            argmax_point = {"xi": [float(p[j]) for p in pts[:3]],
                            "tau": [float(p[j]) for p in pts[3:]],
                            "regime": regime}
        xi1, xi2, xi3 = pts[0], pts[1], pts[2]
        xi = xi1 + xi2 + xi3
        case2 = (np.abs(xi) <= 2 * np.abs(xi1)) & (np.abs(xi) <= 2 * np.abs(xi2))
        if np.any(case2):
            case2_sup = float(np.maximum(case2_sup, np.max(over_m4[case2])))
    return overall, per_case, argmax_point, case2_sup


def domination_scan(family: str, box: float, n: int, lattice: str, delta: float,
                    rng: np.random.Generator) -> ProbeReport:
    """Empirical sup of |M| / sum_j M_j (or the Mt family) over case-labeled
    samples, with a doubled-box stability check."""
    if n < 10 ** 4:
        raise ParameterError("need at least 1e4 samples")
    sup1, per_case, argmax_point, case2 = _domination_pass(
        family, box, n, lattice, rng, delta)
    sup2 = _domination_pass(family, 2.0 * box, n, lattice, rng, delta)[0]
    return _refined(
        f"domination-{family}-{lattice}", 2 * n,
        {"sup_box": sup1, "sup_box_doubled": sup2},
        {"box": box, "lattice": lattice, "delta": delta,
         "sampling": "log-uniform magnitudes, case-labeled regimes"},
        per_case=per_case, argmax=argmax_point, case_ii_over_M4=case2)


# ---------------------------------------------------------------------------
# Strichartz probe
# ---------------------------------------------------------------------------

def _strichartz_ratios(times: np.ndarray, slices: SpectralField, T: float,
                       b: float) -> np.ndarray:
    """||w u||_{L^4_{t,x}} / ||w u||_{X^{0,b,+}}, w the plateau window of
    half-width T, for every member u of a batch of per-slice coefficients
    (n_t, B, n): NaN where the X norm overflows, which the sup keeps, and 0
    where it vanishes.

    The X norm windows the coefficients and transforms only their live xi
    rows in time; the L^4 norm is summed from one inverse spatial transform
    of the unwindowed coefficients, w^4 factored out of |w u|^4."""
    den = xsb_norm(window_trajectory(times, slices, T), 0.0, b, +1)
    w4 = plateau(times, T) ** 4
    v4 = np.abs(slices.to_grid().values)
    l4 = (w4 @ np.sum(np.power(v4, 4, out=v4), axis=-1)
          * (slices.domain.dx * (times[1] - times[0]))) ** 0.25
    ratio = np.divide(l4, den, out=np.zeros_like(l4), where=den > 0)
    ratio[~np.isfinite(den)] = np.nan
    return ratio


def _strichartz_ensemble(dom: Domain, n_t: int, dt: float, b: float,
                         ensemble: int, rng: np.random.Generator) -> float:
    """Sup of the ratios over the ensemble: even samples are random mode
    sums, odd ones free evolutions of random data, drawn in sample order
    and evaluated a block at a time."""
    times = -0.5 * n_t * dt + dt * np.arange(n_t)
    T = min(1.0, 0.45 * n_t * dt)
    sup = 0.0
    band = min(8.0, dom.xi_max / 2)
    for rows in _row_blocks(ensemble, 16 * n_t * dom.n_points, BLOCK_BYTES):
        sums, data = [], []
        for i in range(rows.start, rows.stop):
            if i % 2 == 0:
                sums.append(random_mode_sum_values(dom, times, rng, band=band))
            else:
                data.append(random_band_field(dom, rng, band=band).coeffs)
        blocks = []
        if sums:
            blocks.append(SpectralField(dom, np.stack(sums, axis=1)))
        if data:
            blocks.append(free_evolution(SpectralField(dom, np.array(data)), times))
        for slices in blocks:
            sup = np.maximum(sup, np.max(_strichartz_ratios(times, slices, T, b)))
    return float(sup)


def strichartz_probe(b: float, ensemble: int, dom: Domain, n_t: int, dt: float,
                     rng: np.random.Generator) -> ProbeReport:
    """sup of ||u||_{L^4_{t,x}} / ||u||_{X^{0,b,+}} over random windowed
    fields and windowed free evolutions; requires b > 3/8."""
    if not b > 3.0 / 8.0:
        raise ParameterError("the L^4 bound needs b > 3/8")
    return _refined(
        "strichartz-L4", 2 * ensemble,
        {"sup_coarse": _strichartz_ensemble(dom, n_t, dt, b, ensemble, rng),
         "sup_refined": _strichartz_ensemble(dom, 2 * n_t, dt / 2, b, ensemble, rng)},
        {"b": b, "n_points": dom.n_points, "n_t": n_t, "dt": dt})


# ---------------------------------------------------------------------------
# trilinear / multilinear probes
# ---------------------------------------------------------------------------

def _base_times() -> np.ndarray:
    """The window probes' time grid: step _BASE_DT on [-4, 4)."""
    return -4.0 + _BASE_DT * np.arange(round(8.0 / _BASE_DT))


def _mode_wave(dom: Domain, times: np.ndarray, k: float, char_sign: int,
               amp: complex) -> np.ndarray:
    """Travelling wave amp exp(i(k x - char_sign k^2 t)) at the lattice
    frequency k, as per-slice coefficients (n_t, n): the single column
    amp exp(-i char_sign k^2 t) at the FFT index of k, times the
    coefficient of exp(i k x) there."""
    i = round(k / dom.dxi) % dom.n_points
    out = np.zeros((len(times), dom.n_points), dtype=np.complex128)
    out[:, i] = (amp * _plane_wave_coeffs(dom)[i]) * np.exp(
        -1j * char_sign * k * k * np.asarray(times))
    return out


def _nested_sups(raw: dict) -> dict:
    """Cumulative max over window scales <= T.

    A field supported in [-T', T'] with T' <= T is admissible for window
    size T, so the empirical sup for T includes every smaller-window
    sample; this mirrors the nesting that makes the true sup constant
    monotone in T.
    """
    ts = sorted(raw, reverse=True)
    out, running = {}, 0.0
    for t in reversed(ts):
        running = float(np.maximum(running, raw[t]))  # keeps a NaN
        out[t] = running
    return out


@functools.cache
def _quintic_resonant_tuples() -> tuple[tuple[int, ...], ...]:
    """Integer mode tuples (x1..x5) whose conjugate-alternating quintic
    output lands exactly on the characteristic while respecting the torus
    constraints x1 != x2, x3 != x4, x1 - x2 + x3 - x4 != 0; entries in
    -4..4, in lexicographic order."""
    x = np.indices((9,) * 5).reshape(5, -1) - 4
    x1, x2, x3, x4, x5 = x
    keep = ((x1 != x2) & (x3 != x4) & (x1 - x2 + x3 - x4 != 0)
            & ((x1 - x2 + x3 - x4 + x5) ** 2
               == x1 ** 2 - x2 ** 2 + x3 ** 2 - x4 ** 2 + x5 ** 2))
    return tuple(map(tuple, x[:, keep].T.tolist()))


def _support(w: np.ndarray) -> slice:
    """The time slices from the first to the last nonzero entry of w."""
    nz = np.flatnonzero(w)
    return slice(nz[0], nz[-1] + 1) if nz.size else slice(0, 0)


def _plain_product(dom: Domain, cs: list[np.ndarray]) -> np.ndarray:
    """Coefficients (..., n) of v1 v2 ..., one dealiased pair at a time."""
    prod = cs[0]
    for c in cs[1:]:
        prod = dealiased_product_coeffs(dom, [prod, c])
    return prod


def _corollary_rhs(u: SpaceTimeField, s: float, signs: list[int]) -> list[float]:
    """sum_k ||u_k||_{frak X^{s,1/2,sk}} prod_{j!=k} ||u_j||_{frak X^{1/2,1/2,sj}}
    over the members u_k of a compact field, one value per window (leading
    axis); each run of equal signs is normed in one call."""
    half, top, start = [], [], 0
    for sg, run in itertools.groupby(signs):
        stop = start + len(list(run))
        u_run = u.members(start, stop)
        h = frak_x_norm(u_run, 0.5, 0.5, sg)
        half.append(h)
        top.append(h if s == 0.5 else frak_x_norm(u_run, s, 0.5, sg))
        start = stop
    return [sum(t[k] * math.prod(h[:k] + h[k + 1:]) for k in range(len(signs)))
            for h, t in zip(np.hstack(half).tolist(), np.hstack(top).tolist())]


def _windows(times: np.ndarray, t_values) -> tuple[slice, dict]:
    """The slices that some plateau window w_T keeps, and {T: w_T on them}."""
    ws = np.array([plateau(times, T) for T in t_values])
    kept = _support(np.any(ws, axis=0))
    return kept, dict(zip(t_values, ws[:, kept]))


def _window_ratios(dom: Domain, times: np.ndarray, kept: slice, windows: dict,
                   base: list[np.ndarray], form, signs: list[int], s: float,
                   b_out: float) -> dict:
    """One sample's ratios ||F||_{frak X^{s,b_out}} / RHS and ||F||_{cal Y^{s,-1}}
    / RHS for every window size T, F being form(w_T base) and RHS the
    corollary right-hand side of the windowed factors w_T base.  kept and
    windows come from _windows; base holds the factors' coefficients on the
    kept slices (n_kept, n), and form maps them to F's.

    The form runs once per sample, on the kept slices, into one stack
    (form, factors) whose live xi rows are found once; those rows, scaled
    by w^deg (form) and w (factors) for every window, zero-padded in time
    and with the windows on a leading axis, are transformed in one call
    into one compact field, whose members (form, factors) each norm call
    reads for all windows.
    """
    deg = len(base)
    factors = np.array(base)
    by_xi = np.empty((deg + 1, dom.n_points, factors.shape[1]), dtype=np.complex128)
    by_xi[0] = form(factors).T
    by_xi[1:] = np.swapaxes(factors, -1, -2)
    live = _live_rows(by_xi)
    rows, m0 = by_xi[live], np.count_nonzero(live[0])
    ws = np.array(list(windows.values()))[:, None, :]
    # a block of one size for every sample (room for half the stack's rows),
    # so that glibc serves each sample from the heap pages the last one freed
    shape = (len(ws), len(rows), len(times))
    stack = np.empty(len(ws) * max(len(rows), live.size // 2) * len(times),
                     dtype=np.complex128)[:math.prod(shape)].reshape(shape)
    stack[..., :kept.start] = stack[..., kept.stop:] = 0.0
    np.multiply(rows[:m0], ws ** deg, out=stack[:, :m0, kept])
    np.multiply(rows[m0:], ws, out=stack[:, m0:, kept])
    u = SpaceTimeField.from_time_values(dom, times, stack, rows=live)
    lhs = u.members(0, 1)
    den = _corollary_rhs(u.members(1, deg + 1), s, signs)
    x = frak_x_norm(lhs, s, b_out, +1)[:, 0].tolist()
    y = cal_y_norm(lhs, s, -1.0)[:, 0].tolist()
    return {T: (x[i] / den[i], y[i] / den[i]) for i, T in enumerate(windows)}


def _window_report(name: str, results: list[dict], t_values, params: dict) -> ProbeReport:
    """Per-T sups over the samples' window ratios, nested over T (keeping NaN)."""
    raw_x = {T: float(np.max([r[T][0] for r in results])) for T in t_values}
    raw_y = {T: float(np.max([r[T][1] for r in results])) for T in t_values}
    sup_x, sup_y = _nested_sups(raw_x), _nested_sups(raw_y)
    return ProbeReport(
        name=name, samples=len(results),
        sup_ratio=float(np.max([*sup_x.values(), *sup_y.values()])),
        refinement_stable=None, params=params,
        details={"sup_x_by_T": {str(T): v for T, v in sup_x.items()},
                 "sup_y_by_T": {str(T): v for T, v in sup_y.items()},
                 "window_sup_x": {str(T): v for T, v in raw_x.items()},
                 "window_sup_y": {str(T): v for T, v in raw_y.items()}})


def _window_probe(name: str, dom: Domain, t_values, ensemble: int,
                  rng: np.random.Generator, draw, form, signs: list[int], s: float,
                  b_out: float, params: dict) -> ProbeReport:
    """The window probes' driver: each sample draws its factors as
    draw(r, dom, tk), r seeded by the sample's pre-drawn seed and tk the kept
    slices, and _window_ratios evaluates form on them for every window size;
    the report's params gain t_values, dt and kind."""
    if not all(0 < T <= 1 for T in t_values):
        raise ParameterError("window sizes must lie in (0, 1]")
    times = _base_times()
    kept, windows = _windows(times, t_values)
    tk = times[kept]
    seeds = rng.integers(0, 2 ** 63 - 1, size=ensemble)

    def one(seed):
        base = draw(np.random.default_rng(seed), dom, tk)
        return _window_ratios(dom, times, kept, windows, base, form, signs, s, b_out)

    return _window_report(name, _map_samples(one, seeds), t_values,
                          dict(params, t_values=list(t_values), dt=_BASE_DT,
                               kind=dom.kind))


def _single_modes(r: np.random.Generator, dom: Domain, tk: np.ndarray, modes,
                  signs: list[int]) -> list[np.ndarray]:
    """One travelling wave per mode and sign, complex normal amplitudes (real parts first)."""
    amps = r.normal(size=len(modes)) + 1j * r.normal(size=len(modes))
    return [_mode_wave(dom, tk, m, sg, a) for m, sg, a in zip(modes, signs, amps)]


def _trilinear_draw(r: np.random.Generator, dom: Domain, tk: np.ndarray) -> list[np.ndarray]:
    """Three factors: single modes (1/4), conjugate-paired (1/4), mode sums."""
    pick = r.random()
    if pick < 0.25:
        # minimal-modulation single-mode tuple: with xi1+xi3 = a and
        # xi2+xi3 = b the output modulation is exactly 2ab, the
        # smallest the excluded hyperplanes allow
        kk, a, b = (int(r.integers(lo, hi)) for lo, hi in ((2, 7), (1, 3), (1, 3)))
        return _single_modes(r, dom, tk, [kk + a, kk + b, -kk], [+1, +1, -1])
    if pick < 0.5:
        # conjugate pairing puts the output near the first factor's characteristic
        u1, u2 = (random_mode_sum_values(dom, tk, r) for _ in range(2))
        return [u1, u2, _conj_reverse(u2)]
    return [random_mode_sum_values(dom, tk, r, char_sign=sg) for sg in (+1, +1, -1)]


def _quintic_draw(r: np.random.Generator, dom: Domain, tk: np.ndarray) -> list[np.ndarray]:
    """Five factors: resonant single modes (1/4), conjugate-paired (1/4), mode sums."""
    pick = r.random()
    if pick < 0.25:
        tuples = _quintic_resonant_tuples()
        return _single_modes(r, dom, tk, tuples[int(r.integers(0, len(tuples)))],
                             [+1] * 5)
    if pick < 0.5:
        # conjugate-paired saturator: slots (1,2) and (3,4) share a field
        f1, f3, f5 = (random_mode_sum_values(dom, tk, r) for _ in range(3))
        return [f1, f1, f3, f3, f5]
    return [random_mode_sum_values(dom, tk, r) for _ in range(5)]


def _power_draw(k: int, r: np.random.Generator, dom: Domain, tk: np.ndarray) -> list[np.ndarray]:
    """k + 1 factors: for k >= 1 resonant single modes (1/4), near-DC (1/4) or
    mode sums; for k = 0 one mode sum."""
    pick = r.random()
    if k >= 1 and pick < 0.25:
        # exactly resonant plain-product modes: (a, 0) for two factors,
        # (2a, -a, 2a) for three
        a = int(r.integers(1, 4))
        return _single_modes(r, dom, tk, [a, 0] if k == 1 else [2 * a, -a, 2 * a],
                             [+1] * (k + 1))
    if k >= 1 and pick < 0.5:
        # near-DC saturator: all but one factor concentrated at low modes
        return [random_mode_sum_values(dom, tk, r)] + [
            random_mode_sum_values(dom, tk, r, band=2.0) for _ in range(k)]
    return [random_mode_sum_values(dom, tk, r) for _ in range(k + 1)]


def _quintic_form(dom: Domain, c) -> np.ndarray:
    """Q(c1, conj c2, c3, conj c4, c5) on per-slice coefficients."""
    return quintic_Q_general_slices(
        dom, [c[0], _conj_reverse(c[1]), c[2], _conj_reverse(c[3]), c[4]])


def trilinear_probe(s: float, t_values: tuple, ensemble: int, dom: Domain,
                    rng: np.random.Generator) -> ProbeReport:
    """Sup ratios of the trilinear derivative estimates across window sizes.

    For each sample a triple of base fields on [-4, 4) is drawn once; for
    every T it is supported in [-T, T] by the plateau window and the two
    ratios  ||T(u1,u2,u3)||_{frak X^{s,-1/2}} / RHS  and
    ||T(u1,u2,u3)||_{cal Y^{s,-1}} / RHS  are evaluated, RHS being the
    s >= 1/2 corollary right-hand side with the minus sign on the third
    slot.  Sups over the ensemble are reported per T.
    """
    if not s >= 0.5:
        raise ParameterError("need s >= 1/2")
    return _window_probe(
        "trilinear", dom, t_values, ensemble, rng,
        _trilinear_draw, lambda c: trilinear_T_slices(dom, *c), [+1, +1, -1], s,
        -0.5, {"s": s, "n_points": dom.n_points})


def multilinear_probe(k: int, s: float, t_values: tuple, ensemble: int, dom: Domain,
                      delta: float, quintic: bool,
                      rng: np.random.Generator) -> ProbeReport:
    """Sup ratios for the power-nonlinearity estimate (k+1 plain factors) or
    the constrained quintic form (quintic=True, five factors with slots 2
    and 4 conjugated)."""
    if k not in (0, 1, 2):
        raise ParameterError("k must be 0, 1 or 2")
    if not 0 < delta < 1.0 / 8.0:
        raise ParameterError("delta must lie in (0, 1/8)")
    if quintic:
        name, draw, form, n_factors = "quintic", _quintic_draw, _quintic_form, 5
    else:
        name, draw, form, n_factors = (f"multilinear-k{k}",
                                       functools.partial(_power_draw, k),
                                       _plain_product, k + 1)
    return _window_probe(
        name, dom, t_values, ensemble, rng, draw,
        functools.partial(form, dom), [+1] * n_factors, s, -3.0 / 8.0 - delta,
        {"k": k, "s": s, "delta": delta, "quintic": quintic})


# ---------------------------------------------------------------------------
# dyadic summation checks
# ---------------------------------------------------------------------------

def dyadic_sum_check(u: SpaceTimeField, delta: float, s: float, b: float,
                     small_k: int = 8) -> ProbeReport:
    """Verify the four block-summation inequalities with explicit constants.

    (X)   sum_N N^(-delta) ||P_N u||_X <= (1 + sum_{N>1} N^(-delta)) frak(u)
    (Y)   sum_N ||P_N u||_{X^{s}} <= (1 + 2^delta sum_{N>1} N^(-delta)) frak^{s+delta}(u)
    (XX)  sum_{N1 ~ N} ||P_{N1} u||_X <= (2 floor(log2 C) + 1) frak(u), C = 8
    (XXX) sum_{N <= k} ||P_N u||_X <= (floor(log2 k) + 1) frak(u)
    """
    if delta <= 0:
        raise ParameterError("delta must be positive")
    ns = np.array(dyadic_range(u.domain.xi_max), dtype=float)
    block = block_norms(u, s, b)
    block_s_plus = block_norms(u, s + delta, b)
    frak = block[0] + block[1:].max(initial=0.0)
    frak_plus = block_s_plus[0] + block_s_plus[1:].max(initial=0.0)
    tail = float(np.sum(ns[1:] ** -delta))
    n_mid = ns[len(ns) // 2]
    similarity = 8  # the C of (XX)
    sim = (n_mid / similarity <= ns) & (ns <= n_mid * similarity)
    low = ns <= small_k
    # name: (constant, left side, bounding norm, capped block count): the
    # (XX) and (XXX) sums take at most `constant` blocks, 0 leaves (X), (Y) uncapped
    table = {
        "X": (1.0 + tail, float(np.sum(ns ** -delta * block)), frak, 0),
        "Y": (1.0 + 2.0 ** delta * tail, float(np.sum(block)), frak_plus, 0),
        "XX": (2 * int(np.floor(np.log2(similarity))) + 1, float(np.sum(block[sim])),
               frak, np.count_nonzero(sim)),
        "XXX": (int(np.floor(np.log2(small_k))) + 1, float(np.sum(block[low])),
                frak, np.count_nonzero(low)),
    }
    ok = {f"ok_{k}": bool(lhs <= c * norm * (1 + 1e-12) and cap <= c)
          for k, (c, lhs, norm, cap) in table.items()}
    # np.max keeps a NaN ratio
    worst = np.max([lhs / (c * norm) if norm else 0.0
                    for c, lhs, norm, _ in table.values()])
    return ProbeReport(
        name="dyadic-sums", samples=1, sup_ratio=float(worst),
        refinement_stable=None,
        params={"delta": delta, "s": s, "b": b,
                "similarity": similarity, "small_k": small_k},
        details=dict(ok, all_ok=all(ok.values()),
                     constants={k: row[0] for k, row in table.items()}))


# ---------------------------------------------------------------------------
# Besov product probe
# ---------------------------------------------------------------------------

def _smult_ensemble(dom: Domain, s, s1, s2, ensemble, rng) -> float:
    """Sup of the product ratios over random pairs (f1, f2), drawn in pair
    order and evaluated a block at a time; a pair whose denominator
    vanishes is skipped, and a NaN ratio is kept."""
    sup = 0.0
    band = dom.xi_max / 4
    # a pair's work: its two padded factors, their product and its
    # spectrum, four rows on the 2x grid that keeps a pair alias-free
    for rows in _row_blocks(ensemble, 4 * 16 * 2 * dom.n_points, BLOCK_BYTES):
        pairs = np.array([[random_band_field(dom, rng, band=band).coeffs
                           for _ in range(2)] for _ in range(rows.start, rows.stop)])
        f1, f2 = SpectralField(dom, pairs[:, 0]), SpectralField(dom, pairs[:, 1])
        prod = SpectralField(dom, dealiased_product_coeffs(dom, [f1.coeffs, f2.coeffs]))
        num = besov_norm(prod, s)
        den = besov_norm(f1, s1) * besov_norm(f2, s2)
        sup = np.maximum(sup, np.max(np.divide(num, den, out=np.zeros_like(num),
                                               where=den != 0)))
    return float(sup)


def sobolev_mult_probe(s: float, s1: float, s2: float, ensemble: int, n_points: int,
                       rng: np.random.Generator) -> ProbeReport:
    """sup of ||f1 f2||_{B^s} / (||f1||_{B^{s1}} ||f2||_{B^{s2}}) over random
    pairs on the torus, at two resolutions; needs s >= 0, s1, s2 >= s,
    s1 + s2 - s > 1/2."""
    if s < 0 or s1 < s or s2 < s or not (s1 + s2 - s > 0.5):
        raise ParameterError("need s >= 0, s1, s2 >= s and s1 + s2 - s > 1/2")
    return _refined(
        "besov-product", 2 * ensemble,
        {"sup_coarse": _smult_ensemble(Domain("torus", n_points), s, s1, s2, ensemble, rng),
         "sup_fine": _smult_ensemble(Domain("torus", 2 * n_points), s, s1, s2,
                                     ensemble, rng)},
        {"s": s, "s1": s1, "s2": s2, "n_points": n_points, "kind": "torus"})
