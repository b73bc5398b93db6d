"""Sampling probes for the estimate inequalities."""

import itertools
import math

import numpy as np
import pytest

from dnls_lab import probes, solver, spaces
from dnls_lab.errors import NonFiniteError, ParameterError
from dnls_lab.fields import (Domain, GridFunction, SpectralField, _conj_reverse,
                             _row_blocks, dealiased_product_coeffs)
from dnls_lab.frequency import dyadic_range
from dnls_lab.nonlinear import quintic_Q_general_slices, trilinear_T_slices
from dnls_lab.probes import (ProbeReport, domination_scan, dyadic_sum_check,
                             multilinear_probe, sobolev_mult_probe,
                             strichartz_probe, trilinear_probe)
from dnls_lab.sampling import random_band_field, random_mode_sum_values
from dnls_lab.solver import free_evolution
from dnls_lab.spaces import (besov_norm, block_norms, cal_y_norm, frak_x_norm,
                             plateau, xsb_norm)
from tests_support import at_cli_defaults, count_ffts, dense_spacetime


def monotone_decreasing(series: dict) -> bool:
    ts = sorted((float(t) for t in series), reverse=True)
    vals = [series[str(t)] for t in ts]
    return all(vals[i + 1] <= vals[i] * (1 + 1e-9) for i in range(len(vals) - 1))


class TestProbeReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeReport("x", 0, 1.0, None, {}, {})
        with pytest.raises(ValueError):
            ProbeReport("x", 5, np.inf, None, {}, {})

    def test_json_round_trip(self):
        rep = ProbeReport("x", 5, 1.25, True, {"a": 1}, {"b": 2.0})
        d = rep.to_json()
        assert d["sup_ratio"] == 1.25 and d["params"]["a"] == 1


class TestDominationScan:
    def test_minimum_samples(self):
        with pytest.raises(ParameterError):
            at_cli_defaults(domination_scan, "M", n=100, lattice="Z")

    @pytest.mark.parametrize("family", ["M", "Mt"])
    def test_scan_small(self, family):
        rep = at_cli_defaults(domination_scan, family, box=100.0, n=2 * 10 ** 4,
                              lattice="Z", rng=np.random.default_rng(0))
        assert np.isfinite(rep.sup_ratio)
        assert rep.refinement_stable
        assert set(rep.details["per_case"]) == {
            "uniform", "I", "IIa", "IIb1+", "IIb1-", "IIb2",
            "IIIa1", "IIIa2", "IIIb", "IIIc"}
        assert rep.details["argmax"] is not None

    @pytest.mark.parametrize("nan_calls", [range(20), [0]], ids=["every", "first"])
    def test_nan_ratio_is_kept(self, monkeypatch, nan_calls):
        # a NaN in every regime's batch of both passes, or in the first batch
        # alone, followed by finite ones: the sup keeps it, so the report raises
        ratio_arrays, calls = probes.domination_ratio_arrays, []

        def with_nan(*args, **kwargs):
            r, over_m4 = ratio_arrays(*args, **kwargs)
            if len(calls) in nan_calls:
                r[len(r) // 2] = np.nan
            calls.append(len(r))
            return r, over_m4

        monkeypatch.setattr(probes, "domination_ratio_arrays", with_nan)
        with pytest.raises(NonFiniteError):
            at_cli_defaults(domination_scan, "M", n=10 ** 4, lattice="Z",
                            rng=np.random.default_rng(0))
        assert len(calls) == 20


class TestStrichartz:
    def test_parameter_region(self):
        with pytest.raises(ParameterError):
            at_cli_defaults(strichartz_probe, b=0.375)

    def test_small_ensemble_stable(self):
        rep = at_cli_defaults(strichartz_probe, b=0.5, ensemble=10,
                              rng=np.random.default_rng(1))
        assert np.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
        assert rep.refinement_stable


class TestTrilinearProbe:
    def test_t_monotone(self):
        rep = at_cli_defaults(trilinear_probe, ensemble=12,
                              rng=np.random.default_rng(2))
        assert monotone_decreasing(rep.details["sup_x_by_T"])
        assert monotone_decreasing(rep.details["sup_y_by_T"])
        assert np.isfinite(rep.sup_ratio)

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            at_cli_defaults(trilinear_probe, s=0.25)
        with pytest.raises(ParameterError):
            at_cli_defaults(trilinear_probe, t_values=(2.0, 1.0))

    def test_ratio_amplitude_invariance(self):
        # degree-zero homogeneity: the same seeds with globally scaled
        # amplitudes give identical sup ratios
        a = at_cli_defaults(trilinear_probe, ensemble=4, rng=np.random.default_rng(3))
        b = at_cli_defaults(trilinear_probe, ensemble=4, rng=np.random.default_rng(3))
        assert a.details["sup_x_by_T"] == b.details["sup_x_by_T"]


class TestMultilinearProbe:
    def test_k0_reduces_to_embedding(self):
        rep = at_cli_defaults(multilinear_probe, k=0, ensemble=8,
                              rng=np.random.default_rng(4))
        assert max(rep.details["sup_x_by_T"].values()) <= 1.0
        assert monotone_decreasing(rep.details["sup_x_by_T"])

    @pytest.mark.parametrize("k", [1, 2])
    def test_t_monotone(self, k):
        rep = at_cli_defaults(multilinear_probe, k=k, ensemble=10,
                              rng=np.random.default_rng(5))
        assert monotone_decreasing(rep.details["sup_x_by_T"])
        assert monotone_decreasing(rep.details["sup_y_by_T"])

    def test_quintic(self):
        rep = at_cli_defaults(multilinear_probe, quintic=True, ensemble=8,
                              rng=np.random.default_rng(6))
        assert monotone_decreasing(rep.details["sup_x_by_T"])
        assert monotone_decreasing(rep.details["sup_y_by_T"])

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            at_cli_defaults(multilinear_probe, k=3)
        with pytest.raises(ParameterError):
            at_cli_defaults(multilinear_probe, delta=0.2)


class TestDyadicSums:
    def _field(self, seed):
        dom = Domain("torus", 64)
        rng = np.random.default_rng(seed)
        dt = 1.0 / 64.0
        times = -2.0 + dt * np.arange(256)
        vals = random_mode_sum_values(dom, times, rng, band=dom.xi_max / 2)
        return dense_spacetime(dom, times, vals)

    def test_single_block_field(self):
        dom = Domain("torus", 64)
        dt = 1.0 / 64.0
        times = -2.0 + dt * np.arange(256)
        vals = np.exp(1j * (5 * dom.x[None, :] - 25.0 * times[:, None]))
        u = dense_spacetime(dom, times, GridFunction(dom, vals).to_spectral().coeffs)
        rep = at_cli_defaults(dyadic_sum_check, u, delta=0.25)
        assert rep.details["all_ok"]

    def test_random_fields(self):
        for seed in range(5):
            rep = at_cli_defaults(dyadic_sum_check, self._field(seed), delta=0.25)
            assert rep.details["all_ok"], rep.details

    def test_block_counts(self):
        rep = at_cli_defaults(dyadic_sum_check, self._field(0))
        assert rep.params["small_k"] == 8
        assert rep.details["constants"]["XXX"] == 4   # blocks 1, 2, 4, 8
        assert rep.details["constants"]["XX"] == 7    # similarity factor 8

    def test_delta_validation(self):
        with pytest.raises(ParameterError):
            at_cli_defaults(dyadic_sum_check, self._field(0), delta=0.0)

    def test_nan_block_is_kept(self, monkeypatch):
        # NaN X^{s+delta,b} blocks make the (Y) ratio NaN, which the sup of
        # the four ratios keeps
        def nan_plus(u, s, b):
            out = block_norms(u, s, b)
            return np.full_like(out, np.nan) if s == 0.75 else out

        monkeypatch.setattr(probes, "block_norms", nan_plus)
        with pytest.raises(NonFiniteError):
            at_cli_defaults(dyadic_sum_check, self._field(0), delta=0.25, s=0.5)

    def test_y_binding_pins_s_plus_delta_blocks(self):
        # one travelling mode at xi = N in each block N = 2..512 (chi_N(N) =
        # 1), scaled so that ||P_N u||_{X^{s,b}} = N^-delta: then (Y) is the
        # binding inequality (ratio 0.681, against 0.637 for (XXX) and 0.530
        # for (XX) and (X)), so the reported sup is its ratio, built from
        # the X^{s+delta,b} blocks
        dom = Domain("torus", 1024)
        dt = 1.0 / 64.0
        times = -2.0 + dt * np.arange(256)
        delta, s, b = 0.25, 0.5, 0.5
        ns = np.array(dyadic_range(dom.xi_max), dtype=float)
        modes = {n: np.exp(1j * (n * dom.x[None, :] - n * n * times[:, None]))
                 for n in (2, 4, 8, 16, 32, 64, 128, 256, 512)}
        unit = block_norms(dense_spacetime(
            dom, times, GridFunction(dom, sum(modes.values())).to_spectral().coeffs), s, b)
        vals = sum(n ** -delta / unit[list(ns).index(n)] * m for n, m in modes.items())
        u = dense_spacetime(dom, times, GridFunction(dom, vals).to_spectral().coeffs)
        rep = dyadic_sum_check(u, delta, s, b)
        plus = block_norms(u, s + delta, b)
        c_y = 1.0 + 2.0 ** delta * float(np.sum(ns[1:] ** -delta))
        lhs_y = float(np.sum(block_norms(u, s, b)))
        assert rep.sup_ratio == pytest.approx(
            lhs_y / (c_y * (plus[0] + plus[1:].max())), rel=1e-12)


class TestBesovProduct:
    def test_parameter_region(self):
        with pytest.raises(ParameterError):
            # boundary excluded
            at_cli_defaults(sobolev_mult_probe, s=0.5, s1=0.5, s2=0.5)
        with pytest.raises(ParameterError):
            at_cli_defaults(sobolev_mult_probe, s=0.5, s1=0.25, s2=1.0)

    def test_stable(self):
        rep = at_cli_defaults(sobolev_mult_probe, ensemble=25, n_points=128,
                              rng=np.random.default_rng(7))
        assert np.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
        assert rep.refinement_stable


class TestSampleOrder:
    """A sample's ratios depend on its own pre-drawn seed alone: evaluating
    the samples in reverse order (and restoring their order) leaves the
    report unchanged, so no state leaks between samples through caches or
    work buffers."""

    @pytest.mark.parametrize("probe", [
        lambda: at_cli_defaults(trilinear_probe, ensemble=4,
                                rng=np.random.default_rng(8)),
        lambda: at_cli_defaults(multilinear_probe, quintic=True, ensemble=3,
                                rng=np.random.default_rng(9)),
        lambda: at_cli_defaults(multilinear_probe, k=1, ensemble=4,
                                rng=np.random.default_rng(10)),
        lambda: at_cli_defaults(multilinear_probe, k=2, ensemble=4,
                                rng=np.random.default_rng(11)),
    ], ids=["trilinear", "quintic", "k1", "k2"])
    def test_same_report_in_reverse_sample_order(self, monkeypatch, probe):
        forward = probe().to_json()
        maps = []

        def reversed_map(fn, seeds):
            maps.append(len(seeds))
            return [fn(s) for s in seeds[::-1]][::-1]
        monkeypatch.setattr(probes, "_map_samples", reversed_map)
        assert probe().to_json() == forward
        assert maps  # the probe's samples went through the reversed map


_SUPPORT_DOMAINS = [Domain("torus", 32), Domain("line", 32)]
_PRODUCT_FORMS = {
    "trilinear": (3, lambda dom, f: trilinear_T_slices(dom, *f)),
    "quintic": (5, lambda dom, f: quintic_Q_general_slices(dom, f)),
    "pairwise-k1": (2, probes._plain_product),
    "pairwise-k2": (3, probes._plain_product),
}


# the four window probes at small ensembles, on a given domain
_WINDOW_PROBES = {
    "trilinear": lambda dom: at_cli_defaults(trilinear_probe, ensemble=3, dom=dom,
                                             rng=np.random.default_rng(14)),
    "k1": lambda dom: at_cli_defaults(multilinear_probe, k=1, ensemble=3, dom=dom,
                                      rng=np.random.default_rng(15)),
    "k2": lambda dom: at_cli_defaults(multilinear_probe, k=2, ensemble=3, dom=dom,
                                      rng=np.random.default_rng(16)),
    "quintic": lambda dom: at_cli_defaults(multilinear_probe, quintic=True, ensemble=3,
                                           dom=dom, rng=np.random.default_rng(17)),
}


def _strichartz_small(dom):
    return at_cli_defaults(strichartz_probe, ensemble=5, dom=dom, n_t=64, dt=0.05,
                           rng=np.random.default_rng(18))


class TestWindowSupport:
    """The probes evaluate their products on the slices that the windows keep;
    the full-lattice evaluation must equal that bit for bit there and be
    exactly zero elsewhere."""

    @staticmethod
    def _factors(dom, times, w, n_factors, seed):
        # the coefficients of windowed samples, as the probes feed the forms
        rng = np.random.default_rng(seed)
        return [random_mode_sum_values(dom, times, rng) * w[:, None]
                for _ in range(n_factors)]

    @staticmethod
    def _assert_support_evaluation_exact(fn, dom, w, vs):
        full = fn(dom, vs)
        kept = probes._support(w)
        assert np.array_equal(fn(dom, [v[kept] for v in vs]), full[kept])
        outside = np.ones(len(w), dtype=bool)
        outside[kept] = False
        assert not np.any(full[outside])
        return kept

    @pytest.mark.parametrize("dom", _SUPPORT_DOMAINS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("form", sorted(_PRODUCT_FORMS))
    def test_default_windows_bit_identical(self, dom, form):
        n_factors, fn = _PRODUCT_FORMS[form]
        times = probes._base_times()
        for T in (1.0, 0.5, 0.25, 0.125):
            w = plateau(times, T)
            vs = self._factors(dom, times, w, n_factors, seed=11)
            kept = self._assert_support_evaluation_exact(fn, dom, w, vs)
            assert kept.stop - kept.start < len(times)

    @pytest.mark.parametrize("edge", ["first", "last"])
    @pytest.mark.parametrize("form", sorted(_PRODUCT_FORMS))
    def test_window_reaching_lattice_edge(self, form, edge):
        dom = Domain("torus", 32)
        n_factors, fn = _PRODUCT_FORMS[form]
        times = -1.0 + np.arange(256) / 128.0
        w = plateau(times - times[0 if edge == "first" else -1], 0.5)
        assert w[0 if edge == "first" else -1] == 1.0
        vs = self._factors(dom, times, w, n_factors, seed=12)
        kept = self._assert_support_evaluation_exact(fn, dom, w, vs)
        assert (kept.start == 0) if edge == "first" else (kept.stop == len(times))

    def test_zero_window_gives_zeros(self):
        # an all-zero window keeps no slice, so no form is evaluated
        times = probes._base_times()
        assert times[probes._support(np.zeros_like(times))].size == 0

    @pytest.mark.parametrize("dom", _SUPPORT_DOMAINS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("probe", list(_WINDOW_PROBES.values()), ids=list(_WINDOW_PROBES))
    def test_probe_report_unchanged(self, monkeypatch, dom, probe):
        kept = probe(dom).to_json()
        monkeypatch.setattr(probes, "_support", lambda w: slice(None))
        assert probe(dom).to_json() == kept

    @pytest.mark.parametrize("dom", _SUPPORT_DOMAINS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("probe", [*_WINDOW_PROBES.values(), _strichartz_small],
                             ids=[*_WINDOW_PROBES, "strichartz"])
    def test_probe_report_unchanged_with_every_row_live(self, monkeypatch, dom, probe):
        # the transforms and norms skip the xi rows that carry no data; with
        # every row live they run on the whole lattice, with the same bits.
        # The window probes find their rows in probes, the Strichartz probe
        # in spaces.window_trajectory: each binding is patched, and the one
        # the probe uses must be called
        live = probe(dom).to_json()
        calls = {probes: 0, spaces: 0}

        def every_row_live(module):
            def rows(by_xi):
                calls[module] += 1
                return np.ones(by_xi.shape[:-1], dtype=bool)
            return rows

        for module in calls:
            monkeypatch.setattr(module, "_live_rows", every_row_live(module))
        assert probe(dom).to_json() == live
        assert calls[spaces if probe is _strichartz_small else probes] > 0


def _mode_sum_reference(dom, times, rng, n_modes=12, band=8.0, tau_spread=20.0,
                        char_sign=+1):
    """random_mode_sum_values as one full-size exp per mode."""
    u = rng.random()
    if u < 0.5:
        sigma0 = np.exp(rng.uniform(np.log(1e-2), np.log(0.5)))
    elif u < 0.75:
        sigma0 = np.exp(rng.uniform(np.log(0.5), np.log(4.0)))
    else:
        sigma0 = np.exp(rng.uniform(np.log(4.0), np.log(max(tau_spread, 8.0))))
    xi_lattice = dom.xi[np.abs(dom.xi) <= band]
    out = np.zeros((len(times), dom.n_points), dtype=np.complex128)
    for _ in range(n_modes):
        xi = rng.choice(xi_lattice)
        nu = char_sign * xi ** 2 + sigma0 * rng.uniform(-1.0, 1.0)
        c = (rng.normal() + 1j * rng.normal()) / np.sqrt(n_modes)
        out += c * np.exp(1j * (xi * dom.x[None, :] - nu * times[:, None]))
    return out


class TestModeSum:
    @pytest.mark.parametrize("dom,band,char_sign", [
        (Domain("torus", 32), 8.0, +1), (Domain("torus", 32), 2.0, -1),
        (Domain("line", 64, 4), 4.0, +1)])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_mode_loop(self, dom, band, char_sign, seed):
        times = -4.0 + np.arange(1024) / 128.0
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_mode_sum_values(dom, times, r1, band=band, char_sign=char_sign)
        ref = GridFunction(dom, _mode_sum_reference(
            dom, times, r2, band=band, char_sign=char_sign)).to_spectral().coeffs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert r1.random() == r2.random()   # same draws, same generator state


def _mode_wave_reference(dom, times, k, char_sign=+1, amp=1.0):
    """_mode_wave as one full-size exp."""
    return amp * np.exp(1j * (k * dom.x[None, :] - char_sign * k * k * times[:, None]))


class TestModeWave:
    @pytest.mark.parametrize("dom", [Domain("torus", 32), Domain("line", 64, 4)],
                             ids=lambda d: d.kind)
    @pytest.mark.parametrize("k,char_sign", [(8, +1), (-6, -1), (3, +1), (0, +1)])
    def test_matches_full_size_exp(self, dom, k, char_sign):
        times = probes._base_times()
        amp = 0.7 - 1.3j
        got = probes._mode_wave(dom, times, k, char_sign, amp)
        ref = GridFunction(dom, _mode_wave_reference(dom, times, k, char_sign, amp)
                           ).to_spectral().coeffs
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestQuinticResonantTuples:
    def test_matches_tuple_filter(self):
        ref = tuple((x1, x2, x3, x4, x5)
                    for x1, x2, x3, x4, x5 in itertools.product(range(-4, 5), repeat=5)
                    if x1 != x2 and x3 != x4 and x1 - x2 + x3 - x4 != 0
                    and (x1 - x2 + x3 - x4 + x5) ** 2
                    == x1 ** 2 - x2 ** 2 + x3 ** 2 - x4 ** 2 + x5 ** 2)
        got = probes._quintic_resonant_tuples()
        assert got == ref
        assert all(type(m) is int for m in got[0])


def _reference_window_ratios(dom, times, base_kept, t_values, base, form, signs,
                             s, b_out):
    """The per-window loop of the unbatched probes: window every factor's
    coefficients (base, on the slices base_kept of times), evaluate the
    form per T on the window's slices, transform each field on its own and
    take one norm call per field."""
    out = {}
    for T in t_values:
        w = plateau(times, T)
        vs = [np.zeros((len(times), dom.n_points), dtype=np.complex128) for _ in base]
        for v, f in zip(vs, base):
            v[base_kept] = f
            v *= w[:, None]
        nz = np.flatnonzero(w)
        kept = slice(nz[0], nz[-1] + 1)
        prod = np.zeros_like(vs[0])
        prod[kept] = form([v[kept] for v in vs])
        lhs = dense_spacetime(dom, times, prod)
        u = [dense_spacetime(dom, times, v) for v in vs]
        half = [frak_x_norm(f, 0.5, 0.5, sg) for f, sg in zip(u, signs)]
        top = half if s == 0.5 else [frak_x_norm(f, s, 0.5, sg)
                                     for f, sg in zip(u, signs)]
        den = sum(top[k] * math.prod(half[:k] + half[k + 1:]) for k in range(len(u)))
        out[T] = (frak_x_norm(lhs, s, b_out, +1) / den,
                  cal_y_norm(lhs, s, -1.0) / den)
    return out


# form on the coefficients of the factors, factor count, signs, output b
_WINDOW_FORMS = {
    "trilinear": (lambda dom, f: trilinear_T_slices(dom, *f), 3, [+1, +1, -1], -0.5),
    "k0": (probes._plain_product, 1, [+1], -3 / 8 - 1 / 16),
    "k1": (probes._plain_product, 2, [+1, +1], -3 / 8 - 1 / 16),
    "k2": (probes._plain_product, 3, [+1, +1, +1], -3 / 8 - 1 / 16),
    "quintic": (lambda dom, c: quintic_Q_general_slices(
        dom, [c[0], _conj_reverse(c[1]), c[2], _conj_reverse(c[3]), c[4]]),
        5, [+1] * 5, -3 / 8 - 1 / 16),
}


class TestWindowRatios:
    """The per-sample helper (form once, scaled per window; one transform
    and one call per norm for all windows) against the per-window reference
    loop."""

    @pytest.mark.parametrize("t_values", [(0.3,), (1.0, 0.7, 0.2)], ids=["one", "three"])
    @pytest.mark.parametrize("s", [0.5, 0.75])
    @pytest.mark.parametrize("dom", [Domain("torus", 32), Domain("line", 64, 4)],
                             ids=lambda d: d.kind)
    @pytest.mark.parametrize("name", sorted(_WINDOW_FORMS))
    def test_matches_per_window_loop(self, name, dom, s, t_values):
        fn, n_factors, signs, b_out = _WINDOW_FORMS[name]
        times = probes._base_times()
        kept, windows = probes._windows(times, t_values)
        rng = np.random.default_rng(21)
        base = [random_mode_sum_values(dom, times[kept], rng, char_sign=sg)
                for sg in signs]
        form = lambda f: fn(dom, f)  # noqa: E731
        got = probes._window_ratios(dom, times, kept, windows, base, form, signs,
                                    s, b_out)
        ref = _reference_window_ratios(dom, times, kept, t_values, base, form, signs,
                                       s, b_out)
        assert list(got) == list(t_values)
        for T in t_values:
            assert got[T] == pytest.approx(ref[T], rel=1e-12, abs=0)


def _reference_strichartz_ensemble(dom, n_t, dt, b, ensemble, rng):
    """The per-sample Strichartz loop the block-batched ensemble replaced:
    the windowed grid samples of each sample transformed in space and time,
    one X^{0,b} norm and one inverse transform for the L^4 norm."""
    times = -0.5 * n_t * dt + dt * np.arange(n_t)
    w = plateau(times, min(1.0, 0.45 * n_t * dt))
    sup = 0.0
    band = min(8.0, dom.xi_max / 2)
    for i in range(ensemble):
        if i % 2 == 0:
            slices = SpectralField(dom, random_mode_sum_values(dom, times, rng, band=band))
        else:
            slices = free_evolution(random_band_field(dom, rng, band=band), times)
        u = dense_spacetime(dom, times, GridFunction(
            dom, slices.to_grid().values * w[:, None]).to_spectral().coeffs)
        den = xsb_norm(u, 0.0, b, +1)
        vals = u.to_time_values()
        lp = (np.sum(np.abs(vals) ** 4) * (dom.dx * u.lattice.dt)) ** 0.25
        ratio = np.nan if not np.isfinite(den) else (lp / den if den > 0 else 0.0)
        sup = np.maximum(sup, ratio)
    return float(sup)


def _reference_smult_ensemble(dom, s, s1, s2, ensemble, rng):
    """The per-pair Besov-product loop the block-batched ensemble replaced."""
    sup = 0.0
    for _ in range(ensemble):
        f1 = random_band_field(dom, rng, band=dom.xi_max / 4)
        f2 = random_band_field(dom, rng, band=dom.xi_max / 4)
        prod = SpectralField(dom, dealiased_product_coeffs(dom, [f1.coeffs, f2.coeffs]))
        den = besov_norm(f1, s1) * besov_norm(f2, s2)
        if den != 0:
            sup = np.maximum(sup, besov_norm(prod, s) / den)
    return float(sup)


class TestProbeWork:
    # a deterministic guard on the work per probe sample, with no timing:
    # the quintic form pads each factor once and truncates its products in
    # one stacked transform; a window-probe sample transforms its stack in
    # time once for all its windows, only the xi rows of the stack that
    # carry data, and its factors never in space

    @pytest.mark.parametrize("dom", [Domain("torus", 32), Domain("line", 64, 4)],
                             ids=lambda d: d.kind)
    @pytest.mark.parametrize("batch", [(), (7,)])
    def test_quintic_pads_each_factor_once(self, monkeypatch, dom, batch):
        rng = np.random.default_rng(31)
        cs = [rng.normal(size=batch + (dom.n_points,)) + 1j * rng.normal(
            size=batch + (dom.n_points,)) for _ in range(5)]
        calls = count_ffts(monkeypatch)
        out = quintic_Q_general_slices(dom, cs)
        assert out.shape == batch + (dom.n_points,)
        assert (calls["fft"], calls["ifft"]) == (1, 5)

    # form, and the forward and inverse FFTs of one call of it
    @pytest.mark.parametrize("name,form_fft,form_ifft", [
        ("k0", 0, 0), ("trilinear", 1, 3), ("quintic", 1, 5)])
    @pytest.mark.parametrize("t_values", [(0.3,), (1.0, 0.5, 0.25, 0.125)],
                             ids=["one", "four"])
    def test_window_sample_transforms_once_for_all_windows(self, monkeypatch, name,
                                                           form_fft, form_ifft,
                                                           t_values):
        fn, n_factors, signs, b_out = _WINDOW_FORMS[name]
        dom = Domain("torus", 32)
        times = probes._base_times()
        kept, windows = probes._windows(times, t_values)
        rng = np.random.default_rng(32)
        base = [random_mode_sum_values(dom, times[kept], rng) for _ in signs]
        form_points, stack_rows = self._form_points_and_rows(
            monkeypatch, dom, fn, base)
        calls = count_ffts(monkeypatch)
        got = probes._window_ratios(dom, times, kept, windows, base,
                                    lambda f: fn(dom, f), signs, 0.5, b_out)
        assert list(got) == list(t_values)
        assert (calls["fft"], calls["ifft"]) == (1 + form_fft, form_ifft)
        # the one transform takes the stack's live rows, whole time axis
        # each, once per window
        assert stack_rows < (n_factors + 1) * dom.n_points
        assert calls["points"] == form_points + len(t_values) * stack_rows * len(times)

    @staticmethod
    def _form_points_and_rows(monkeypatch, dom, fn, base):
        """The points one form call transforms, and the count of (slot, xi)
        rows of the sample's stack (form, factors) with a nonzero entry."""
        with monkeypatch.context() as m:
            calls = count_ffts(m)
            prod = fn(dom, np.array(base))
        rows = sum(int(np.count_nonzero(np.any(c != 0, axis=0))) for c in [prod, *base])
        return calls["points"], rows

    def test_single_mode_trilinear_sample_transforms_one_row_per_factor(
            self, monkeypatch):
        fn, _, signs, b_out = _WINDOW_FORMS["trilinear"]
        dom = Domain("torus", 32)
        times = probes._base_times()
        t_values = (1.0, 0.5, 0.25, 0.125)
        kept, windows = probes._windows(times, t_values)
        tk = times[kept]
        # the probe's minimal-modulation tuple kk = 5, a = b = 1
        base = [probes._mode_wave(dom, tk, 6, +1, 1.0 + 0.5j),
                probes._mode_wave(dom, tk, 6, +1, -0.3 + 1j),
                probes._mode_wave(dom, tk, -5, -1, 0.8 - 0.2j)]
        form_points, stack_rows = self._form_points_and_rows(
            monkeypatch, dom, fn, base)
        prod = fn(dom, np.array(base))
        form_rows = int(np.count_nonzero(np.any(prod != 0, axis=0)))
        assert form_rows >= 1 and stack_rows == form_rows + 3
        calls = count_ffts(monkeypatch)
        probes._window_ratios(dom, times, kept, windows, base,
                              lambda f: fn(dom, f), signs, 0.5, b_out)
        assert calls["points"] == form_points + len(t_values) * (form_rows + 3) * len(times)

    def test_strichartz_probe_builds_one_phase_table_per_ensemble(self):
        # 13 and 25 blocks of free evolutions at the defaults, two time grids
        solver._free_phases.cache_clear()
        at_cli_defaults(probes.strichartz_probe)
        info = solver._free_phases.cache_info()
        assert (info.misses, info.hits) == (2, 36)


class TestBlockBatchedEnsembles:
    """Block-batched ensembles against the per-sample loops they replaced:
    the same sup, and the generator left in the same state."""

    @staticmethod
    def _compare(batched, reference, seed):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got, ref = batched(rng_a), reference(rng_b)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    # samples per block: the default budget (8 at n_t 256, 32 points, so
    # 11 samples leave a tail of 3), and 3 so that blocks start on odd samples
    @pytest.mark.parametrize("per_block", [None, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_t,dt,ensemble", [(256, 0.02, 11), (64, 0.05, 8)])
    def test_strichartz_matches_per_sample_loop(self, monkeypatch, per_block, seed,
                                                n_t, dt, ensemble):
        dom = Domain("torus", 32)
        if per_block is not None:
            monkeypatch.setattr(probes, "BLOCK_BYTES", per_block * 16 * n_t * dom.n_points)
        self._compare(
            lambda r: probes._strichartz_ensemble(dom, n_t, dt, 0.5, ensemble, r),
            lambda r: _reference_strichartz_ensemble(dom, n_t, dt, 0.5, ensemble, r),
            seed)

    @pytest.mark.parametrize("per_block", [None, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_points,ensemble", [(256, 10), (64, 7)])
    def test_smult_matches_per_pair_loop(self, monkeypatch, per_block, seed,
                                         n_points, ensemble):
        dom = Domain("torus", n_points)
        if per_block is not None:
            monkeypatch.setattr(probes, "BLOCK_BYTES", per_block * 4 * 16 * 2 * n_points)
        self._compare(
            lambda r: probes._smult_ensemble(dom, 0.5, 0.5, 0.75, ensemble, r),
            lambda r: _reference_smult_ensemble(dom, 0.5, 0.5, 0.75, ensemble, r),
            seed)

    def test_blocks_cover_the_ensemble_in_order(self):
        assert _row_blocks(7, 30, 100) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert _row_blocks(2, 10 ** 6, 100) == [slice(0, 1), slice(1, 2)]
        assert _row_blocks(6, 30, 100) == [slice(0, 3), slice(3, 6)]
