"""Sampling probes for the estimate inequalities."""

import numpy as np
import pytest

from dnls_lab.errors import ParameterError
from dnls_lab.fields import Domain, SpaceTimeField
from dnls_lab.probes import (ProbeReport, domination_scan, dyadic_sum_check,
                             multilinear_probe, sobolev_mult_probe,
                             strichartz_probe, strichartz_single_mode_ratio,
                             trilinear_probe)
from dnls_lab.sampling import random_mode_sum_values


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
