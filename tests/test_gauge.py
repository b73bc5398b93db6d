"""Gauge transformations, their inverses, and the scalar functionals."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnls_lab import gauge
from dnls_lab.errors import ConservationError, EdgeDecayError, WrongDomainError
from dnls_lab.fields import SQRT_2PI, Domain, GridFunction, Trajectory
from dnls_lab.gauge import (_torus_mus, gauge_forward, gauge_inverse, gauge_phase,
                            gauge_report, gauge_trajectory)
from dnls_lab.sampling import gaussian_packet, plane_wave, random_decaying_field
from dnls_lab.scenarios import _gauge_equivalence_discrepancy
from dnls_lab.solver import free_evolution
from dnls_lab.spaces import besov_norm

from tests_support import (gauge_equivalence_reference, psi_functional,
                           traced_peak, zero_grid)

TORUS = Domain("torus", 256)
LINE = Domain("line", 512, 4)


def mu(f: GridFunction) -> float:
    """The torus gauge's mean mass density ||f||^2 / (2 pi)."""
    return float(_torus_mus(f.values, f.domain))


class TestMassDensityMean:
    def test_zero(self):
        assert mu(zero_grid(TORUS)) == 0.0

    def test_constant_one(self):
        f = GridFunction(TORUS, np.ones(256, complex))
        assert mu(f) == pytest.approx(1.0, rel=1e-14)

    def test_plane_wave(self):
        f = plane_wave(TORUS, 0.5 + 0.5j, 1)
        assert mu(f) == pytest.approx(0.5, rel=1e-13)

    def test_per_row(self):
        f = GridFunction(TORUS, np.stack([np.ones(256, complex), 2 * np.ones(256)]))
        assert _torus_mus(f.values, TORUS) == pytest.approx([1.0, 4.0], rel=1e-14)


class TestGaugeForward:
    def test_constant_is_fixed_point(self):
        f = GridFunction(TORUS, (0.3 - 0.2j) * np.ones(256, complex))
        out = gauge_forward(f)
        assert np.max(np.abs(out.values - f.values)) < 1e-13

    def test_analytic_two_mode_example(self):
        # |f|^2 = 2 + 2 cos x, mu = 2, phase = 2 sin x
        f = GridFunction(TORUS, 1.0 + np.exp(1j * TORUS.x))
        out = gauge_forward(f)
        expected = np.exp(-2j * np.sin(TORUS.x)) * f.values
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_l2_preserved(self):
        rng = np.random.default_rng(0)
        f = random_decaying_field(TORUS, rng, band=32.0)
        assert gauge_forward(f).l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)

    def test_modulus_preserved_pointwise(self):
        rng = np.random.default_rng(1)
        f = random_decaying_field(TORUS, rng, band=32.0)
        out = gauge_forward(f)
        assert np.max(np.abs(np.abs(out.values) - np.abs(f.values))) < 1e-13

    def test_torus_phase_integrand_is_mean_free(self):
        rng = np.random.default_rng(2)
        f = random_decaying_field(TORUS, rng, band=32.0)
        resid = np.sum(np.abs(f.values) ** 2 - mu(f)) * TORUS.dx
        assert abs(resid) < 1e-12


class TestGaugeInverse:
    def test_zero(self):
        out = gauge_inverse(zero_grid(TORUS))
        assert np.all(out.values == 0)

    @given(st.integers(0, 10 ** 6))
    @example(2107)  # band 32 at L2 norm 3.4 gave 1.045e-12
    @settings(max_examples=25, deadline=None)
    def test_round_trip_torus(self, seed):
        # the contract of run_gauge_roundtrip: unit-L2 members with 8x
        # lattice headroom, as the gauge image is wider-band than f and the
        # inverse reads its modulus back from the lattice
        rng = np.random.default_rng(seed)
        f = random_decaying_field(TORUS, rng, band=TORUS.xi_max / 8)
        f = GridFunction(TORUS, f.values * (1.0 / f.l2_norm()))
        back = gauge_inverse(gauge_forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_round_trip_line(self):
        rng = np.random.default_rng(3)
        f = random_decaying_field(LINE, rng, band=8.0)
        back = gauge_inverse(gauge_forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_round_trip_preserves_besov(self):
        rng = np.random.default_rng(4)
        f = random_decaying_field(TORUS, rng, band=32.0)
        back = gauge_inverse(gauge_forward(f))
        a = besov_norm(f.to_spectral(), 0.5)
        b = besov_norm(back.to_spectral(), 0.5)
        assert a == pytest.approx(b, rel=1e-10)


class TestLinePhase:
    def test_right_edge_equals_total_mass(self):
        rng = np.random.default_rng(5)
        f = random_decaying_field(LINE, rng, band=8.0)
        assert gauge_phase(f)[-1] == pytest.approx(f.l2_norm() ** 2, rel=1e-8)

    def test_phase_non_decreasing(self):
        rng = np.random.default_rng(6)
        f = random_decaying_field(LINE, rng, band=8.0)
        assert np.all(np.diff(gauge_phase(f)) >= -1e-12)

    def test_edge_decay_required(self):
        f = plane_wave(LINE, 0.5, 1)  # does not vanish at the box edges
        with pytest.raises(EdgeDecayError):
            gauge_phase(f)


class TestGaugeTrajectory:
    def test_zero_trajectory(self):
        times = 0.01 * np.arange(5)
        traj = Trajectory(TORUS, times, np.zeros((5, 256), complex))
        out = gauge_trajectory(traj, False)
        assert np.all(out.values == 0)

    def test_single_mode_translation_speed(self):
        # u(t) = A e^{ix} e^{-i omega t}: mu = |A|^2, the transform shifts
        # by 2 |A|^2 t and leaves the modulus constant in x
        A = 0.7
        omega = 1 - A ** 2
        times = 0.02 * np.arange(6)
        vals = np.stack([A * np.exp(1j * (TORUS.x - omega * t)) for t in times])
        traj = Trajectory(TORUS, times, vals)
        out = gauge_trajectory(traj, False)
        # single mode: |u|^2 - mu = 0, so the slice gauge is the identity and
        # only the translation acts: out(x, t) = u(x - 2 mu t, t)
        for l, t in enumerate(times):
            shifted = A * np.exp(1j * (TORUS.x - 2 * A ** 2 * t - omega * t))
            assert np.max(np.abs(out.values[l] - shifted)) < 1e-12

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(7)
        f = random_decaying_field(TORUS, rng, band=16.0)
        times = 0.01 * np.arange(8)
        # synthetic mass-preserving trajectory: rigid phase rotations
        vals = np.stack([f.values * np.exp(-0.3j * t) for t in times])
        # the map writes into its input, so the round trip runs on a copy
        back = gauge_trajectory(gauge_trajectory(Trajectory(TORUS, times, vals.copy()), False),
                                inverse=True)
        assert np.max(np.abs(back.values - vals)) < 1e-11

    def test_mu_drift_detected(self):
        rng = np.random.default_rng(8)
        f = random_decaying_field(TORUS, rng, band=16.0)
        times = 0.01 * np.arange(4)
        vals = np.stack([(1.0 + 0.01 * l) * f.values for l in range(4)])
        traj = Trajectory(TORUS, times, vals.copy())
        with pytest.raises(ConservationError):
            gauge_trajectory(traj, False)
        # the check runs before the first write
        assert np.array_equal(traj.values, vals)

    def test_edge_failure_leaves_the_trajectory_as_it_was(self, monkeypatch):
        # blocks of one row; the last slice reaches the box edge, and the map
        # raises before it writes the first block
        monkeypatch.setattr(gauge, "BLOCK_BYTES", 2 * LINE.n_points * 16)
        f = _stack(LINE, 25, rows=4)
        vals = f.values.copy()
        vals[-1] = plane_wave(LINE, 0.5, 1).values
        traj = Trajectory(LINE, 0.01 * np.arange(4), vals.copy())
        for inverse in (False, True):
            with pytest.raises(EdgeDecayError):
                gauge_trajectory(traj, inverse=inverse)
            assert np.array_equal(traj.values, vals)

    def test_nan_drift_detected(self):
        # one NaN sample makes the drift NaN, which must raise, not pass
        dom = Domain("torus", 32)
        vals = np.tile(0.3 * np.exp(1j * dom.x), (4, 1))
        vals[2, 5] = np.nan
        with pytest.raises(ConservationError):
            gauge_trajectory(Trajectory(dom, 0.01 * np.arange(4), vals), False)

    def test_report(self):
        rng = np.random.default_rng(9)
        f = random_decaying_field(TORUS, rng, band=16.0)
        rt, mod = gauge_report(f)
        assert rt < 1e-12
        assert mod < 1e-13

    def test_report_keeps_a_nan(self):
        # every sup keeps a NaN: a NaN row gives NaN errors, not 0
        dom = Domain("torus", 64)
        rows = _stack(dom, 24, rows=3).values
        rows[1, 5] = np.nan
        with np.errstate(invalid="ignore"):
            rt, mod = gauge_report(GridFunction(dom, rows))
        assert np.isnan(rt) and np.isnan(mod)


def _stack(dom, seed, rows=5):
    rng = np.random.default_rng(seed)
    band = 8.0 if dom.kind == "line" else 32.0
    return GridFunction(dom, np.array([random_decaying_field(dom, rng, band=band).values
                                       for _ in range(rows)]))


def _per_slice_gauge(traj, inverse):
    """The trajectory gauge one slice at a time."""
    dom = traj.domain
    out = np.empty_like(traj.values)
    mus = np.sum(np.abs(traj.values) ** 2, axis=1) * dom.dx / (2.0 * np.pi)
    mu0 = float(mus[0])
    for l, t in enumerate(traj.times):
        u = GridFunction(dom, traj.values[l])
        if dom.kind == "line":
            out[l] = (gauge_inverse(u) if inverse else gauge_forward(u)).values
            continue
        shift = 2.0 * mu0 * t
        if not inverse:
            coeffs = gauge_forward(u).to_spectral().coeffs * np.exp(-1j * shift * dom.xi)
            out[l] = np.fft.ifft(coeffs) * (SQRT_2PI / dom.dx)
        else:
            coeffs = u.to_spectral().coeffs * np.exp(+1j * shift * dom.xi)
            w = GridFunction(dom, np.fft.ifft(coeffs) * (SQRT_2PI / dom.dx))
            out[l] = gauge_inverse(w).values
    return out


class TestRowWise:
    @pytest.mark.parametrize("dom", [TORUS, LINE], ids=["torus", "line"])
    def test_stack_matches_rows(self, dom):
        f = _stack(dom, 20)
        phase = gauge_phase(f)
        fwd = gauge_forward(f)
        inv = gauge_inverse(f)
        for i, row in enumerate(f.values):
            u = GridFunction(dom, row)
            assert np.array_equal(phase[i], gauge_phase(u))
            assert np.array_equal(fwd.values[i], gauge_forward(u).values)
            assert np.array_equal(inv.values[i], gauge_inverse(u).values)

    def test_line_edge_checked_per_row(self):
        f = _stack(LINE, 21, rows=3)
        f.values[1] = plane_wave(LINE, 0.5, 1).values
        with pytest.raises(EdgeDecayError):
            gauge_forward(f)

    @pytest.mark.parametrize("dom", [TORUS, LINE], ids=["torus", "line"])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_trajectory_over_row_blocks(self, monkeypatch, dom, inverse):
        # blocks of 4 rows; 11 slices leave a short last block
        monkeypatch.setattr(gauge, "BLOCK_BYTES", 4 * 2 * dom.n_points * 16)
        u0 = GridFunction(dom, _stack(dom, 22, rows=1).values[0])
        times = 0.002 * np.arange(11)
        traj = Trajectory(dom, times,
                          free_evolution(u0.to_spectral(), times).to_grid().values)
        values, expected = traj.values, _per_slice_gauge(traj, inverse)
        out = gauge_trajectory(traj, inverse=inverse)
        # in place: the input's rows hold the map, with the bits the
        # out-of-place map had
        assert out is traj and out.values is values
        assert np.array_equal(values, expected)

    def test_report_over_row_blocks(self, monkeypatch):
        monkeypatch.setattr(gauge, "BLOCK_BYTES", 3 * 2 * TORUS.n_points * 16)
        f = _stack(TORUS, 23, rows=7)
        rt, _ = gauge_report(f)
        rows = [GridFunction(TORUS, v) for v in f.values]
        assert rt == max(
            float(np.max(np.abs(gauge_inverse(gauge_forward(u)).values - u.values)))
            for u in rows)


class TestGaugeEquivalenceStream:
    # the direct solve streams into the recovered trajectory: every bit of
    # the two-trajectory form, which stores both and subtracts whole arrays
    @pytest.mark.parametrize("dom,h1_norm,lam,k", [
        (Domain("torus", 64), 0.3, 1.0, 1),
        (Domain("torus", 256), 0.5, 0.5, 2),
        (Domain("line", 512, 4), 0.3, 1.0, 1),
        (Domain("line", 512, 4), 0.3, 0.0, 0),
        (Domain("line", 1024, 8), 0.3, 1.0, 1),
    ], ids=["torus64", "torus256-k2", "line", "line-cubic", "double-box"])
    def test_bitwise_the_two_trajectory_form(self, dom, h1_norm, lam, k):
        args = (dom, 1e-3, 0.05, h1_norm, lam, k)
        assert _gauge_equivalence_discrepancy(*args) == gauge_equivalence_reference(*args)


class TestPeakMemory:
    def test_gauge_equivalence_keeps_one_trajectory(self, monkeypatch):
        # blocks of 4 rows leave the peak to the trajectories: the recovered
        # one, into which the direct solve streams, plus that solve's work
        # (1.69); a stored direct trajectory would add one more (2.65)
        dom = Domain("line", 512, 4)
        monkeypatch.setattr(gauge, "BLOCK_BYTES", 4 * 2 * dom.n_points * 16)
        dt, t_final = 1e-3, 0.1
        trajectory = (round(t_final / dt) + 1) * dom.n_points * 16
        peak = traced_peak(_gauge_equivalence_discrepancy, dom, dt, t_final,
                           0.3, 1.0, 1)
        assert peak <= 1.85 * trajectory

    def test_row_blocks_cost_less_than_a_trajectory(self):
        # gauged-evolution's largest trajectory, 401 slices at n = 1024: the
        # map writes in place, so one block's transients (0.05x; twice the
        # block budget reads 0.13x, an output trajectory would add 1x)
        dom = Domain("line", 1024, 8)
        times = 5e-4 * np.arange(401)
        u0 = gaussian_packet(dom, 0.3, 1.3, mode=1).to_spectral()
        traj = Trajectory(dom, times, free_evolution(u0, times).to_grid().values)
        peak = traced_peak(gauge_trajectory, traj, True)
        assert peak <= 0.1 * traj.values.nbytes


class TestPsiFunctional:
    def test_zero(self):
        assert psi_functional(zero_grid(TORUS)) == 0.0

    def test_constant_one(self):
        f = GridFunction(TORUS, np.ones(256, complex))
        assert psi_functional(f) == pytest.approx(0.5, abs=1e-12)

    def test_single_mode(self):
        f = plane_wave(TORUS, 1.0, 1)
        assert psi_functional(f) == pytest.approx(-1.5, abs=1e-12)

    def test_wrong_domain(self):
        with pytest.raises(WrongDomainError):
            psi_functional(zero_grid(LINE))

    def test_phase_invariance(self):
        rng = np.random.default_rng(10)
        f = random_decaying_field(TORUS, rng, band=16.0)
        g = GridFunction(TORUS, f.values * np.exp(0.37j))
        assert psi_functional(g) == pytest.approx(psi_functional(f), abs=1e-12)


class TestBilipschitz:
    def test_besov_lipschitz_constant_stable_under_refinement(self):
        constants = []
        for n in (128, 256):
            dom = Domain("torus", n)
            rng = np.random.default_rng(11)
            sup = 0.0
            for _ in range(40):
                f = random_decaying_field(dom, rng, band=16.0)
                g = random_decaying_field(dom, rng, band=16.0)
                # pairs inside a bounded ball
                scale = 0.5 / max(besov_norm(f.to_spectral(), 0.5),
                                  besov_norm(g.to_spectral(), 0.5))
                f, g = GridFunction(dom, f.values * scale), GridFunction(dom, g.values * scale)
                num = besov_norm(GridFunction(dom, gauge_forward(f).values
                                              - gauge_forward(g).values).to_spectral(), 0.5)
                den = besov_norm(GridFunction(dom, f.values - g.values).to_spectral(), 0.5)
                if den > 0:
                    sup = max(sup, num / den)
            constants.append(sup)
        assert all(np.isfinite(c) for c in constants)
        assert max(constants) / min(constants) < 2.0
