"""Sampling probes for the estimate inequalities."""

import numpy as np
import pytest

from dnls_lab import probes
from dnls_lab.errors import ParameterError
from dnls_lab.fields import Domain, SpaceTimeField
from dnls_lab.frequency import dyadic_range
from dnls_lab.nonlinear import quintic_Q_general_slices, trilinear_T_slices
from dnls_lab.probes import (ProbeReport, domination_scan, dyadic_sum_check,
                             multilinear_probe, sobolev_mult_probe,
                             strichartz_probe, strichartz_single_mode_ratio,
                             trilinear_probe)
from dnls_lab.sampling import random_mode_sum_values
from dnls_lab.spaces import TimeWindow, block_norms


def monotone_decreasing(series: dict) -> bool:
    ts = sorted((float(t) for t in series), reverse=True)
    vals = [series[str(t)] for t in ts]
    return all(vals[i + 1] <= vals[i] * (1 + 1e-9) for i in range(len(vals) - 1))


class TestProbeReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeReport("x", 0, 1.0, None)
        with pytest.raises(ValueError):
            ProbeReport("x", 5, np.inf, None)

    def test_json_round_trip(self):
        rep = ProbeReport("x", 5, 1.25, True, {"a": 1}, {"b": 2.0})
        d = rep.to_json()
        assert d["sup_ratio"] == 1.25 and d["params"]["a"] == 1


class TestDominationScan:
    def test_minimum_samples(self):
        with pytest.raises(ParameterError):
            domination_scan(n=100)

    @pytest.mark.parametrize("family", ["M", "Mt"])
    def test_scan_small(self, family):
        rep = domination_scan(family, box=100.0, n=2 * 10 ** 4, lattice="Z",
                              rng=np.random.default_rng(0))
        assert np.isfinite(rep.sup_ratio)
        assert rep.refinement_stable
        assert set(rep.details["per_case"]) == {
            "uniform", "I", "IIa", "IIb1+", "IIb1-", "IIb2",
            "IIIa1", "IIIa2", "IIIb", "IIIc"}
        assert rep.details["argmax"] is not None


class TestStrichartz:
    def test_parameter_region(self):
        with pytest.raises(ParameterError):
            strichartz_probe(b=0.375)

    def test_small_ensemble_stable(self):
        rep = strichartz_probe(b=0.5, ensemble=10,
                               rng=np.random.default_rng(1))
        assert np.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
        assert rep.refinement_stable

    def test_single_mode_ratio_mode_independent(self):
        dom = Domain("torus", 32)
        ratios = [strichartz_single_mode_ratio(dom, m, 0.5) for m in (1, 4, 8)]
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], rel=0.05)


class TestTrilinearProbe:
    def test_t_monotone(self):
        rep = trilinear_probe(ensemble=12, rng=np.random.default_rng(2))
        assert monotone_decreasing(rep.details["sup_x_by_T"])
        assert monotone_decreasing(rep.details["sup_y_by_T"])
        assert np.isfinite(rep.sup_ratio)

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            trilinear_probe(s=0.25)
        with pytest.raises(ParameterError):
            trilinear_probe(t_values=(2.0, 1.0))

    def test_ratio_amplitude_invariance(self):
        # degree-zero homogeneity: the same seeds with globally scaled
        # amplitudes give identical sup ratios
        a = trilinear_probe(ensemble=4, rng=np.random.default_rng(3))
        b = trilinear_probe(ensemble=4, rng=np.random.default_rng(3))
        assert a.details["sup_x_by_T"] == b.details["sup_x_by_T"]


class TestMultilinearProbe:
    def test_k0_reduces_to_embedding(self):
        rep = multilinear_probe(k=0, ensemble=8, rng=np.random.default_rng(4))
        assert max(rep.details["sup_x_by_T"].values()) <= 1.0
        assert monotone_decreasing(rep.details["sup_x_by_T"])

    @pytest.mark.parametrize("k", [1, 2])
    def test_t_monotone(self, k):
        rep = multilinear_probe(k=k, ensemble=10,
                                rng=np.random.default_rng(5))
        assert monotone_decreasing(rep.details["sup_x_by_T"])
        assert monotone_decreasing(rep.details["sup_y_by_T"])

    def test_quintic(self):
        rep = multilinear_probe(quintic=True, ensemble=8,
                                rng=np.random.default_rng(6))
        assert monotone_decreasing(rep.details["sup_x_by_T"])
        assert monotone_decreasing(rep.details["sup_y_by_T"])

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            multilinear_probe(k=3)
        with pytest.raises(ParameterError):
            multilinear_probe(delta=0.2)


class TestDyadicSums:
    def _field(self, seed):
        dom = Domain("torus", 64)
        rng = np.random.default_rng(seed)
        dt = 1.0 / 64.0
        times = -2.0 + dt * np.arange(256)
        vals = random_mode_sum_values(dom, times, rng, band=dom.xi_max / 2)
        return SpaceTimeField.from_time_values(dom, times, vals)

    def test_single_block_field(self):
        dom = Domain("torus", 64)
        dt = 1.0 / 64.0
        times = -2.0 + dt * np.arange(256)
        vals = np.exp(1j * (5 * dom.x[None, :] - 25.0 * times[:, None]))
        u = SpaceTimeField.from_time_values(dom, times, vals)
        rep = dyadic_sum_check(u, delta=0.25)
        assert rep.details["all_ok"]

    def test_random_fields(self):
        for seed in range(5):
            rep = dyadic_sum_check(self._field(seed), delta=0.25)
            assert rep.details["all_ok"], rep.details

    def test_block_counts(self):
        rep = dyadic_sum_check(self._field(0), small_k=8)
        assert rep.details["constants"]["XXX"] == 4   # blocks 1, 2, 4, 8
        assert rep.details["constants"]["XX"] == 7    # similarity factor 8

    def test_delta_validation(self):
        with pytest.raises(ParameterError):
            dyadic_sum_check(self._field(0), delta=0.0)

    def test_y_binding_pins_s_plus_delta_blocks(self):
        # one travelling mode at xi = N in each block N = 2..16 (chi_N(N) = 1),
        # scaled so that ||P_N u||_{X^{s,b}} = N^-delta: then (Y) is the
        # binding inequality (small_k = 2 keeps (XXX) below it), so the
        # reported sup is its ratio, built from the X^{s+delta,b} blocks
        dom = Domain("torus", 64)
        dt = 1.0 / 64.0
        times = -2.0 + dt * np.arange(256)
        delta, s, b = 0.25, 0.5, 0.5
        ns = np.array(dyadic_range(dom.xi_max), dtype=float)
        modes = {n: np.exp(1j * (n * dom.x[None, :] - n * n * times[:, None]))
                 for n in (2, 4, 8, 16)}
        unit = block_norms(SpaceTimeField.from_time_values(
            dom, times, sum(modes.values())), s, b)
        vals = sum(n ** -delta / unit[list(ns).index(n)] * m for n, m in modes.items())
        u = SpaceTimeField.from_time_values(dom, times, vals)
        rep = dyadic_sum_check(u, delta, s, b, small_k=2)
        plus = block_norms(u, s + delta, b)
        c_y = 1.0 + 2.0 ** delta * float(np.sum(ns[1:] ** -delta))
        lhs_y = float(np.sum(block_norms(u, s, b)))
        assert rep.sup_ratio == pytest.approx(
            lhs_y / (c_y * (plus[0] + plus[1:].max())), rel=1e-12)


class TestBesovProduct:
    def test_parameter_region(self):
        with pytest.raises(ParameterError):
            sobolev_mult_probe(s=0.5, s1=0.5, s2=0.5)  # boundary excluded
        with pytest.raises(ParameterError):
            sobolev_mult_probe(s=0.5, s1=0.25, s2=1.0)

    def test_stable(self):
        rep = sobolev_mult_probe(ensemble=25, n_points=128,
                                 rng=np.random.default_rng(7))
        assert np.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
        assert rep.refinement_stable


class TestWorkerCount:
    """Reports must not depend on DNLS_LAB_THREADS: samples draw from
    pre-drawn per-sample seeds, and worker threads share the weight cache."""

    @pytest.mark.parametrize("probe", [
        lambda: trilinear_probe(ensemble=4, rng=np.random.default_rng(8)),
        lambda: multilinear_probe(quintic=True, ensemble=3,
                                  rng=np.random.default_rng(9)),
    ], ids=["trilinear", "quintic"])
    def test_same_report_with_two_workers(self, monkeypatch, probe):
        monkeypatch.delenv("DNLS_LAB_THREADS", raising=False)
        serial = probe().to_json()
        monkeypatch.setenv("DNLS_LAB_THREADS", "2")
        assert probe().to_json() == serial


_SUPPORT_DOMAINS = [Domain("torus", 32), Domain("line", 32)]
_PRODUCT_FORMS = {
    "trilinear": (3, lambda dom, f: trilinear_T_slices(dom, *f)),
    "quintic": (5, lambda dom, f: quintic_Q_general_slices(dom, f)),
    "pairwise-k1": (2, probes._plain_product),
    "pairwise-k2": (3, probes._plain_product),
}


class TestWindowSupport:
    """The probes' products evaluated on the window's slices only must equal
    the full-lattice evaluation bit for bit."""

    @staticmethod
    def _factors(dom, times, w, n_factors, seed):
        rng = np.random.default_rng(seed)
        return [random_mode_sum_values(dom, times, rng) * w[:, None]
                for _ in range(n_factors)]

    @pytest.mark.parametrize("dom", _SUPPORT_DOMAINS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("form", sorted(_PRODUCT_FORMS))
    def test_default_windows_bit_identical(self, dom, form):
        n_factors, fn = _PRODUCT_FORMS[form]
        times = probes._base_times()
        for T in (1.0, 0.5, 0.25, 0.125):
            w = TimeWindow.plateau(T)(times)
            vs = self._factors(dom, times, w, n_factors, seed=11)
            full = fn(dom, vs)
            kept = probes._on_window_support(w, lambda f: fn(dom, f), vs)
            assert np.array_equal(kept, full)
            assert np.count_nonzero(np.any(kept != 0, axis=-1)) < len(times)

    @pytest.mark.parametrize("edge", ["first", "last"])
    @pytest.mark.parametrize("form", sorted(_PRODUCT_FORMS))
    def test_window_reaching_lattice_edge(self, form, edge):
        dom = Domain("torus", 32)
        n_factors, fn = _PRODUCT_FORMS[form]
        times = -1.0 + np.arange(256) / 128.0
        w = TimeWindow.plateau(0.5)(times - times[0 if edge == "first" else -1])
        assert w[0 if edge == "first" else -1] == 1.0
        vs = self._factors(dom, times, w, n_factors, seed=12)
        kept = probes._on_window_support(w, lambda f: fn(dom, f), vs)
        assert np.array_equal(kept, fn(dom, vs))

    def test_zero_window_gives_zeros(self):
        dom = Domain("torus", 32)
        times = probes._base_times()
        vs = self._factors(dom, times, np.ones_like(times), 3, seed=13)

        def never(f):
            raise AssertionError("form evaluated under a zero window")

        out = probes._on_window_support(np.zeros_like(times), never, vs)
        assert out.shape == vs[0].shape and not np.any(out)

    @pytest.mark.parametrize("dom", _SUPPORT_DOMAINS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("probe", [
        lambda dom: trilinear_probe(ensemble=3, dom=dom, rng=np.random.default_rng(14)),
        lambda dom: multilinear_probe(k=1, ensemble=3, dom=dom,
                                      rng=np.random.default_rng(15)),
        lambda dom: multilinear_probe(k=2, ensemble=3, dom=dom,
                                      rng=np.random.default_rng(16)),
        lambda dom: multilinear_probe(quintic=True, ensemble=3, dom=dom,
                                      rng=np.random.default_rng(17)),
    ], ids=["trilinear", "k1", "k2", "quintic"])
    def test_probe_report_unchanged(self, monkeypatch, dom, probe):
        kept = probe(dom).to_json()
        monkeypatch.setattr(probes, "_on_window_support",
                            lambda w, form, factors: form(factors))
        assert probe(dom).to_json() == kept


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
        ref = _mode_sum_reference(dom, times, r2, band=band, char_sign=char_sign)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert r1.random() == r2.random()   # same draws, same generator state
