"""Sampling-based verification of the estimate inequalities.

Inequalities with unspecified constants cannot be pass/fail on a single
grid, so every probe reports an empirical sup constant together with a
refinement-stability verdict: stable means the sup moves by less than a
factor of two when the sampling box, resolution or ensemble doubles.
Ratio probes are homogeneous of degree zero in the field amplitudes, so
the reported constants do not depend on the sampler's scale.  Settings
that every caller leaves at one value are constants here, and the reports
still print them: the stability factor 2, the window probes' time grid
(step 1/128 on [-4, 4)), the similarity factor C = 8 of the dyadic (XX)
check, and the torus of the Besov-product probe.  The random fields'
shapes are fixed in sampling.

The T-refinement probes reuse the same base fields for every window size;
the reported sup-ratio trend across T then reflects the window effect
alone and not sampling noise.  They also factor the window out of the
product forms: the window w(t) is real and every form (the trilinear T,
the quintic Q and the plain products) acts slice by slice and is
multilinear in each slice, its torus mean corrections included, so
F(w u1, ..., w um) = w^m F(u1, ..., um).  A probe finds once the slices
that some window keeps (255 of the 1024); each sample draws its factors
as per-slice coefficients on those slices alone (the samplers write each
travelling mode's coefficient directly, with no grid samples and no
spatial transform), evaluates its form there (the forms are coefficients
in and out), and scales the stack of form and factors by w_T^m and w_T per
window.  In exact arithmetic this is the same number; in floating point
each element of the windowed product is rounded once more (a relative
change of order 1e-16).

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
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ParameterError
from .fields import (Domain, SpaceTimeField, SpectralField,
                     _conj_reverse, _plane_wave_coeffs, dealiased_product_coeffs)
from .frequency import dyadic_range
from .multipliers import REGIME_LABELS, domination_ratio_arrays, sample_points
from .nonlinear import quintic_Q_general_slices, trilinear_T_slices
from .sampling import random_band_field, random_mode_sum_values
from .spaces import (TimeWindow, besov_norm, block_norms, cal_y_norm,
                     frak_x_norm, window_trajectory, xsb_norm)
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
    params: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

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
        if r[j] > overall:
            overall = float(r[j])
            argmax_point = {"xi": [float(p[j]) for p in pts[:3]],
                            "tau": [float(p[j]) for p in pts[3:]],
                            "regime": regime}
        xi1, xi2, xi3 = pts[0], pts[1], pts[2]
        xi = xi1 + xi2 + xi3
        case2 = (np.abs(xi) <= 2 * np.abs(xi1)) & (np.abs(xi) <= 2 * np.abs(xi2))
        if np.any(case2):
            case2_sup = max(case2_sup, float(np.max(over_m4[case2])))
    return overall, per_case, argmax_point, case2_sup


def domination_scan(family: str = "M", box: float = 100.0, n: int = 10 ** 5,
                    lattice: str = "Z", delta: float = 1.0 / 24.0,
                    rng: np.random.Generator | None = None) -> ProbeReport:
    """Empirical sup of |M| / sum_j M_j (or the Mt family) over case-labeled
    samples, with a doubled-box stability check."""
    if n < 10 ** 4:
        raise ParameterError("need at least 1e4 samples")
    rng = rng or np.random.default_rng(0)
    sup1, per_case, argmax_point, case2 = _domination_pass(
        family, box, n, lattice, rng, delta)
    sup2, _, _, _ = _domination_pass(family, 2.0 * box, n, lattice, rng, delta)
    return ProbeReport(
        name=f"domination-{family}-{lattice}",
        samples=2 * n,
        sup_ratio=max(sup1, sup2),
        refinement_stable=_stable(sup1, sup2),
        params={"box": box, "lattice": lattice, "delta": delta,
                "sampling": "log-uniform magnitudes, case-labeled regimes"},
        details={"sup_box": sup1, "sup_box_doubled": sup2,
                 "per_case": per_case, "argmax": argmax_point,
                 "case_ii_over_M4": case2})


# ---------------------------------------------------------------------------
# Strichartz probe
# ---------------------------------------------------------------------------

def _blocks(count: int, row_bytes: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) sample ranges of at most
    BLOCK_BYTES // row_bytes samples each, covering range(count)."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return [(i, min(i + step, count)) for i in range(0, count, step)]


def _live_rows(by_xi: np.ndarray) -> np.ndarray:
    """The xi rows of a (..., n, n_t) coefficient stack with an entry != 0,
    shape (..., n); a row of roundoff or NaN stays live."""
    return np.any(by_xi != 0, axis=-1)


def _strichartz_ratios(times: np.ndarray, slices: SpectralField, window: TimeWindow,
                       b: float) -> np.ndarray:
    """||w u||_{L^4_{t,x}} / ||w u||_{X^{0,b,+}} for every member u of a
    batch of per-slice coefficients (n_t, B, n): NaN where the X norm
    overflows, which the sup keeps, and 0 where it vanishes.

    The X norm windows the coefficients and transforms only their live xi
    rows in time; the L^4 norm is summed from one inverse spatial transform
    of the unwindowed coefficients, w^4 factored out of |w u|^4."""
    live = _live_rows(np.moveaxis(slices.coeffs, 0, -1))
    den = xsb_norm(window_trajectory(times, slices, window, rows=live), 0.0, b, +1)
    w4 = window(times) ** 4
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
    window = TimeWindow.plateau(min(1.0, 0.45 * n_t * dt))
    sup = 0.0
    band = min(8.0, dom.xi_max / 2)
    for start, stop in _blocks(ensemble, 16 * n_t * dom.n_points):
        sums, data = [], []
        for i in range(start, stop):
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
            sup = np.maximum(sup, np.max(_strichartz_ratios(times, slices, window, b)))
    return float(sup)


def strichartz_probe(b: float = 0.5, ensemble: int = 100,
                     dom: Domain | None = None, n_t: int = 256, dt: float = 0.02,
                     rng: np.random.Generator | None = None) -> ProbeReport:
    """sup of ||u||_{L^4_{t,x}} / ||u||_{X^{0,b,+}} over random windowed
    fields and windowed free evolutions; requires b > 3/8."""
    if not b > 3.0 / 8.0:
        raise ParameterError("the L^4 bound needs b > 3/8")
    rng = rng or np.random.default_rng(0)
    dom = dom or Domain("torus", 32)
    sup1 = _strichartz_ensemble(dom, n_t, dt, b, ensemble, rng)
    sup2 = _strichartz_ensemble(dom, 2 * n_t, dt / 2, b, ensemble, rng)
    return ProbeReport(
        name="strichartz-L4", samples=2 * ensemble,
        sup_ratio=float(np.maximum(sup1, sup2)), refinement_stable=_stable(sup1, sup2),
        params={"b": b, "n_points": dom.n_points, "n_t": n_t, "dt": dt},
        details={"sup_coarse": sup1, "sup_refined": sup2})


# ---------------------------------------------------------------------------
# trilinear / multilinear probes
# ---------------------------------------------------------------------------

def _base_times() -> np.ndarray:
    """The window probes' time grid: step _BASE_DT on [-4, 4)."""
    return -4.0 + _BASE_DT * np.arange(round(8.0 / _BASE_DT))


def _mode_wave(dom: Domain, times: np.ndarray, k: float, char_sign: int = +1,
               amp: complex = 1.0) -> np.ndarray:
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
    edges = np.concatenate(([0], np.cumsum(np.count_nonzero(u.rows, axis=-1))))
    half, top, start = [], [], 0
    for sg, run in itertools.groupby(signs):
        stop = start + len(list(run))
        u_run = SpaceTimeField(u.lattice, u.coeffs[:, edges[start]:edges[stop]],
                               u.rows[start:stop])
        h = frak_x_norm(u_run, 0.5, 0.5, sg)
        half.append(h)
        top.append(h if s == 0.5 else frak_x_norm(u_run, s, 0.5, sg))
        start = stop
    return [sum(t[k] * math.prod(h[:k] + h[k + 1:]) for k in range(len(signs)))
            for h, t in zip(np.hstack(half).tolist(), np.hstack(top).tolist())]


def _windows(times: np.ndarray, t_values) -> tuple[slice, dict]:
    """The slices that some plateau window w_T keeps, and {T: w_T on them}."""
    ws = np.array([TimeWindow.plateau(T)(times) for T in t_values])
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
    into one compact field, which each norm call reads for all windows.
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
    lhs = SpaceTimeField(u.lattice, u.coeffs[:, :m0], live[0])
    den = _corollary_rhs(SpaceTimeField(u.lattice, u.coeffs[:, m0:], live[1:]), s, signs)
    x, y = frak_x_norm(lhs, s, b_out, +1).tolist(), cal_y_norm(lhs, s, -1.0).tolist()
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


def trilinear_probe(s: float = 0.5, t_values: tuple = (1.0, 0.5, 0.25, 0.125),
                    ensemble: int = 100, dom: Domain | None = None,
                    rng: np.random.Generator | None = None) -> ProbeReport:
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
    if not all(0 < T <= 1 for T in t_values):
        raise ParameterError("window sizes must lie in (0, 1]")
    rng = rng or np.random.default_rng(0)
    dom = dom or Domain("torus", 32)
    times = _base_times()
    kept, windows = _windows(times, t_values)
    tk = times[kept]
    seeds = rng.integers(0, 2 ** 63 - 1, size=ensemble)

    def one(seed):
        r = np.random.default_rng(seed)
        pick = r.random()
        if pick < 0.25:
            # minimal-modulation single-mode tuple: with xi1+xi3 = a and
            # xi2+xi3 = b the output modulation is exactly 2ab, the
            # smallest the excluded hyperplanes allow
            kk = int(r.integers(2, 7))
            a = int(r.integers(1, 3))
            b = int(r.integers(1, 3))
            amps = r.normal(size=3) + 1j * r.normal(size=3)
            base = [_mode_wave(dom, tk, kk + a, +1, amps[0]),
                    _mode_wave(dom, tk, kk + b, +1, amps[1]),
                    _mode_wave(dom, tk, -kk, -1, amps[2])]
        elif pick < 0.5:
            # conjugate pairing puts the output near the first factor's
            # characteristic
            u1 = random_mode_sum_values(dom, tk, r)
            u2 = random_mode_sum_values(dom, tk, r)
            base = [u1, u2, _conj_reverse(u2)]
        else:
            base = [random_mode_sum_values(dom, tk, r),
                    random_mode_sum_values(dom, tk, r),
                    random_mode_sum_values(dom, tk, r, char_sign=-1)]
        return _window_ratios(dom, times, kept, windows, base,
                              lambda c: trilinear_T_slices(dom, *c),
                              [+1, +1, -1], s, -0.5)

    return _window_report(
        "trilinear", _map_samples(one, seeds), t_values,
        {"s": s, "t_values": list(t_values), "dt": _BASE_DT,
         "n_points": dom.n_points, "kind": dom.kind})


def multilinear_probe(k: int = 1, s: float = 0.5,
                      t_values: tuple = (1.0, 0.5, 0.25, 0.125),
                      ensemble: int = 50, dom: Domain | None = None,
                      delta: float = 1.0 / 16.0, quintic: bool = False,
                      rng: np.random.Generator | None = None) -> ProbeReport:
    """Sup ratios for the power-nonlinearity estimate (k+1 plain factors) or
    the constrained quintic form (quintic=True, five factors with slots 2
    and 4 conjugated)."""
    if k not in (0, 1, 2):
        raise ParameterError("k must be 0, 1 or 2")
    if not 0 < delta < 1.0 / 8.0:
        raise ParameterError("delta must lie in (0, 1/8)")
    if not all(0 < T <= 1 for T in t_values):
        raise ParameterError("window sizes must lie in (0, 1]")
    rng = rng or np.random.default_rng(0)
    dom = dom or Domain("torus", 32)
    times = _base_times()
    kept, windows = _windows(times, t_values)
    tk = times[kept]
    n_factors = 5 if quintic else k + 1
    b_out = -3.0 / 8.0 - delta
    seeds = rng.integers(0, 2 ** 63 - 1, size=ensemble)
    if quintic:
        def form(c):
            return quintic_Q_general_slices(
                dom, [c[0], _conj_reverse(c[1]), c[2], _conj_reverse(c[3]), c[4]])
    else:
        def form(c):
            return _plain_product(dom, c)

    def one(seed):
        r = np.random.default_rng(seed)
        pick = r.random()
        if quintic and pick < 0.25:
            modes = _quintic_resonant_tuples()[
                int(r.integers(0, len(_quintic_resonant_tuples())))]
            amps = r.normal(size=5) + 1j * r.normal(size=5)
            base = [_mode_wave(dom, tk, m, +1, a)
                    for m, a in zip(modes, amps)]
        elif quintic and pick < 0.5:
            # conjugate-paired saturator: slots (1,2) and (3,4) share a field
            f1 = random_mode_sum_values(dom, tk, r)
            f3 = random_mode_sum_values(dom, tk, r)
            f5 = random_mode_sum_values(dom, tk, r)
            base = [f1, f1, f3, f3, f5]
        elif not quintic and k >= 1 and pick < 0.25:
            # exactly resonant plain-product modes: (a, 0) for two factors,
            # (2a, -a, 2a) for three
            a = int(r.integers(1, 4))
            modes = [a, 0] if k == 1 else [2 * a, -a, 2 * a]
            amps = r.normal(size=k + 1) + 1j * r.normal(size=k + 1)
            base = [_mode_wave(dom, tk, m, +1, c)
                    for m, c in zip(modes, amps)]
        elif not quintic and k >= 1 and pick < 0.5:
            # near-DC saturator: all but one factor concentrated at low modes
            base = [random_mode_sum_values(dom, tk, r)]
            base += [random_mode_sum_values(dom, tk, r, band=2.0)
                     for _ in range(n_factors - 1)]
        else:
            base = [random_mode_sum_values(dom, tk, r)
                    for _ in range(n_factors)]
        return _window_ratios(dom, times, kept, windows, base, form,
                              [+1] * n_factors, s, b_out)

    return _window_report(
        "quintic" if quintic else f"multilinear-k{k}", _map_samples(one, seeds),
        t_values, {"k": k, "s": s, "delta": delta, "quintic": quintic,
                   "t_values": list(t_values), "dt": _BASE_DT, "kind": dom.kind})


# ---------------------------------------------------------------------------
# dyadic summation checks
# ---------------------------------------------------------------------------

def dyadic_sum_check(u: SpaceTimeField, delta: float = 0.25, s: float = 0.5,
                     b: float = 0.5, small_k: int = 8) -> ProbeReport:
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

    c_x = 1.0 + float(np.sum(ns[1:] ** -delta))
    lhs_x = float(np.sum(ns ** -delta * block))
    ok_x = lhs_x <= c_x * frak * (1 + 1e-12)

    c_y = 1.0 + 2.0 ** delta * float(np.sum(ns[1:] ** -delta))
    lhs_y = float(np.sum(block))
    ok_y = lhs_y <= c_y * frak_plus * (1 + 1e-12)

    n_mid = ns[len(ns) // 2]
    similarity = 8  # the C of (XX)
    sim = (n_mid / similarity <= ns) & (ns <= n_mid * similarity)
    c_xx = 2 * int(np.floor(np.log2(similarity))) + 1
    lhs_xx = float(np.sum(block[sim]))
    ok_xx = lhs_xx <= c_xx * frak * (1 + 1e-12) and np.count_nonzero(sim) <= c_xx

    low = ns <= small_k
    c_xxx = int(np.floor(np.log2(small_k))) + 1
    lhs_xxx = float(np.sum(block[low]))
    ok_xxx = lhs_xxx <= c_xxx * frak * (1 + 1e-12) and np.count_nonzero(low) <= c_xxx

    all_ok = ok_x and ok_y and ok_xx and ok_xxx
    worst = max(lhs_x / (c_x * frak) if frak else 0.0,
                lhs_y / (c_y * frak_plus) if frak_plus else 0.0,
                lhs_xx / (c_xx * frak) if frak else 0.0,
                lhs_xxx / (c_xxx * frak) if frak else 0.0)
    return ProbeReport(
        name="dyadic-sums", samples=1, sup_ratio=float(worst),
        refinement_stable=None,
        params={"delta": delta, "s": s, "b": b,
                "similarity": similarity, "small_k": small_k},
        details={"ok_X": bool(ok_x), "ok_Y": bool(ok_y),
                 "ok_XX": bool(ok_xx), "ok_XXX": bool(ok_xxx),
                 "all_ok": bool(all_ok),
                 "constants": {"X": c_x, "Y": c_y, "XX": c_xx, "XXX": c_xxx}})


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
    for start, stop in _blocks(ensemble, 4 * 16 * 2 * dom.n_points):
        pairs = np.array([[random_band_field(dom, rng, band=band).coeffs
                           for _ in range(2)] for _ in range(start, stop)])
        f1, f2 = SpectralField(dom, pairs[:, 0]), SpectralField(dom, pairs[:, 1])
        prod = SpectralField(dom, dealiased_product_coeffs(dom, [f1.coeffs, f2.coeffs]))
        num = besov_norm(prod, s)
        den = besov_norm(f1, s1) * besov_norm(f2, s2)
        sup = np.maximum(sup, np.max(np.divide(num, den, out=np.zeros_like(num),
                                               where=den != 0)))
    return float(sup)


def sobolev_mult_probe(s: float = 0.5, s1: float = 0.5, s2: float = 0.75,
                       ensemble: int = 100, n_points: int = 256,
                       rng: np.random.Generator | None = None) -> ProbeReport:
    """sup of ||f1 f2||_{B^s} / (||f1||_{B^{s1}} ||f2||_{B^{s2}}) over random
    pairs on the torus, at two resolutions; needs s >= 0, s1, s2 >= s,
    s1 + s2 - s > 1/2."""
    if s < 0 or s1 < s or s2 < s or not (s1 + s2 - s > 0.5):
        raise ParameterError("need s >= 0, s1, s2 >= s and s1 + s2 - s > 1/2")
    rng = rng or np.random.default_rng(0)
    dom1 = Domain("torus", n_points)
    dom2 = Domain("torus", 2 * n_points)
    sup1 = _smult_ensemble(dom1, s, s1, s2, ensemble, rng)
    sup2 = _smult_ensemble(dom2, s, s1, s2, ensemble, rng)
    return ProbeReport(
        name="besov-product", samples=2 * ensemble,
        sup_ratio=float(np.maximum(sup1, sup2)), refinement_stable=_stable(sup1, sup2),
        params={"s": s, "s1": s1, "s2": s2, "n_points": n_points, "kind": "torus"},
        details={"sup_coarse": sup1, "sup_fine": sup2})
