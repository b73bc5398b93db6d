"""Free evolution, exponential integrators, Picard iteration, rescaling."""

import functools

import numpy as np
import pytest

from dnls_lab.errors import (BlowUpError, EdgeDecayError, ParameterError,
                             WrongDomainError)
from dnls_lab.fields import (Domain, GridFunction, SpectralField, Trajectory,
                             check_edge_decay)
from dnls_lab.gauge import gauge_forward, gauge_trajectory
from dnls_lab.nonlinear import NonlinearityConfig
from dnls_lab.sampling import (gaussian_packet, plane_wave,
                               random_band_field, scaled_to_h1)
from dnls_lab.scenarios import _plane_wave_solve
from dnls_lab.solver import (SolverConfig, _free_phases, _phi, free_evolution,
                             make_spectral_forcing, rescale, solve)
from tests_support import (besov_endpoint_data, count_ffts, gauged_rhs_reference,
                           original_rhs_reference, picard_iterate, reference_march,
                           reverse, solitary_wave, traced_peak, unit_mass,
                           zero_grid)

TORUS = Domain("torus", 64)


def small_cfg(dom=TORUS, lam=0.0, k=0, gauged=False, dt=1e-3, T=0.05,
              integrator="etdrk4"):
    return SolverConfig(dom, NonlinearityConfig(lam, k, gauged), dt, T,
                        integrator)


class TestPhiFunctions:
    def test_series_matches_closed_form_at_boundary(self):
        # evaluate on a ring just outside the series radius and compare with
        # the series evaluated inside by continuity of the coefficients
        z = np.array([0.49j, -0.49j, 0.3 + 0.3j, 0.51j, 1.0j, -2.0j])
        for k in (1, 2, 3):
            vals = _phi(z, k)
            import math
            series = sum(z ** j / math.factorial(j + k) for j in range(40))
            assert np.max(np.abs(vals - series)) < 1e-13

    def test_phi_at_zero(self):
        import math
        for k in (1, 2, 3):
            assert _phi(np.array([0.0j]), k)[0] == pytest.approx(
                1.0 / math.factorial(k))


def free_at(f: SpectralField, t: float) -> SpectralField:
    """f evolved by the free flow to time t, through free_evolution."""
    return SpectralField(f.domain, free_evolution(f, np.array([t])).coeffs[0])


class TestFreeTrajectory:
    def test_identity_at_zero(self):
        f = unit_mass(TORUS, 3.0)
        assert np.allclose(free_at(f, 0.0).coeffs, f.coeffs)

    def test_mode_two_quarter_pi(self):
        f = unit_mass(TORUS, 2.0)
        out = free_at(f, np.pi / 4.0)
        idx = int(np.argmin(np.abs(TORUS.xi - 2)))
        assert out.coeffs[idx] == pytest.approx(-1.0, abs=1e-14)

    def test_unitary(self):
        rng = np.random.default_rng(0)
        f = random_band_field(TORUS, rng, band=16.0)
        assert np.linalg.norm(free_at(f, 0.37).coeffs) == pytest.approx(
            np.linalg.norm(f.coeffs), rel=1e-14)

    def test_reversible(self):
        rng = np.random.default_rng(1)
        f = random_band_field(TORUS, rng, band=16.0)
        back = free_at(free_at(f, 0.21), -0.21)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-13

    def test_semigroup(self):
        rng = np.random.default_rng(2)
        f = random_band_field(TORUS, rng, band=16.0)
        a = free_at(free_at(f, 0.1), 0.15)
        b = free_at(f, 0.25)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13

    @pytest.mark.parametrize("dom", [TORUS, Domain("line", 32, 2)], ids=lambda d: d.kind)
    def test_batch_is_one_call_per_member(self, dom):
        # coefficients (n_slices, 2, 3, n), the batch layout of solve
        rng = np.random.default_rng(3)
        data = rng.normal(size=(2, 3, dom.n_points)) + 1j * rng.normal(size=(2, 3, dom.n_points))
        times = -0.3 + 0.01 * np.arange(40)
        got = free_evolution(SpectralField(dom, data), times)
        assert got.coeffs.shape == (40, 2, 3, dom.n_points)
        for i, j in np.ndindex(2, 3):
            one = free_evolution(SpectralField(dom, data[i, j]), times)
            assert np.array_equal(got.coeffs[:, i, j], one.coeffs)

    def test_phase_table_is_built_once_per_times(self):
        # the cached table has the bits of a fresh exp(-i t xi^2), and a
        # second call at equal times (another array) reuses it
        _free_phases.cache_clear()
        rng = np.random.default_rng(4)
        data = rng.normal(size=(3, TORUS.n_points)) + 1j * rng.normal(size=(3, TORUS.n_points))
        times = -0.3 + 0.01 * np.arange(40)
        fresh = np.exp(-1j * times[:, None] * TORUS.xi[None, :] ** 2)
        for _ in range(2):
            got = free_evolution(SpectralField(TORUS, data), times.copy())
            assert np.array_equal(got.coeffs, fresh[:, None, :] * data)
        free_evolution(SpectralField(TORUS, data), times[:-1])
        info = _free_phases.cache_info()
        assert (info.misses, info.hits) == (2, 1)


def plane_wave_error(dt, n=256, A=0.5, lam=0.0, k=0, T=0.1,
                     integrator="etdrk4"):
    dom = Domain("torus", n)
    cfg = SolverConfig(dom, NonlinearityConfig(lam, k, False), dt, T, integrator)
    traj = solve(plane_wave(dom, A, 1), cfg)
    omega = 1 - A ** 2 + lam * A ** (2 * k)
    exact = A * np.exp(1j * (dom.x - omega * T))
    diff = traj.values[-1] - exact
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * dom.dx)
                 / (A * np.sqrt(2 * np.pi)))


class TestSolve:
    def test_zero_data(self):
        traj = solve(zero_grid(TORUS), small_cfg())
        assert np.all(traj.values == 0)

    def test_plane_wave_exactness(self):
        assert plane_wave_error(1e-3) < 1e-10

    def test_plane_wave_with_power_term(self):
        assert plane_wave_error(1e-3, lam=0.8, k=1) < 1e-10

    def test_fourth_order_convergence(self):
        errs = [plane_wave_error(dt, T=0.1) for dt in (0.05, 0.025, 0.0125)]
        assert errs[1] <= errs[0] / 8.0
        assert errs[2] <= errs[1] / 8.0

    def test_plane_wave_scenario_order_without_a_floor(self):
        # the config of the tier-1 plane-wave golden, through the scenario's
        # own solve; its errors reach 2e-13, under the scenario's 1e-11
        # floor, so this asks for the ratio alone: 4th order gives 16
        errs = [_plane_wave_solve(64, 0.5, 0.8, 1, dt, 0.1)[1]
                for dt in (0.1, 0.05, 0.025, 0.0125)]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert min(ratios) >= 12.0, (errs, ratios)

    @pytest.mark.parametrize("kind", ["torus", "line"])
    @pytest.mark.parametrize("gauged", [False, True])
    @pytest.mark.parametrize("integrator", ["etdrk4", "ifrk4"])
    def test_fourth_order_with_working_nonlinearity(self, kind, gauged,
                                                    integrator):
        # on a plane wave the nonlinearity only rotates the phase; here it
        # moves the solution by several percent of its norm
        if kind == "torus":
            dom = Domain("torus", 32)
            x = dom.x
            u0 = GridFunction(dom, 0.5 * np.exp(1j * x) + 0.25 * np.exp(-2j * x)
                              + 0.15j * np.exp(3j * x))
        else:
            dom = Domain("line", 64, 2)
            u0 = gaussian_packet(dom, 0.6, 0.8, mode=1)
        T = 0.2
        finals = [solve(u0, small_cfg(dom, 1.0, 1, gauged, T / m, T,
                                      integrator)).values[-1]
                  for m in (16, 32, 64)]
        e1 = np.linalg.norm(finals[0] - finals[1])
        e2 = np.linalg.norm(finals[1] - finals[2])
        assert 3.5 <= np.log2(e1 / e2) <= 4.5
        free = free_at(u0.to_spectral(), T).to_grid().values
        assert np.linalg.norm(finals[2] - free) > 1e-2 * np.linalg.norm(free)

    def test_ifrk4_agrees(self):
        assert plane_wave_error(1e-3, integrator="ifrk4") < 1e-9

    def test_small_amplitude_cubic_scaling(self):
        # || solve - free || = O(eps^3): halving eps gains a factor ~8
        dom = TORUS
        rng = np.random.default_rng(3)
        base = random_band_field(dom, rng, band=8.0).to_grid()
        base = scaled_to_h1(base, 1.0)
        devs = []
        for eps in (0.2, 0.1):
            u0 = eps * base
            traj = solve(u0, small_cfg(T=0.04, dt=5e-4))
            lin = free_at(u0.to_spectral(), 0.04).to_grid()
            devs.append((traj.slice_function(-1) - lin).l2_norm())
        ratio = devs[0] / devs[1]
        assert 6.0 < ratio < 10.0

    def test_mass_conservation(self):
        rng = np.random.default_rng(4)
        u0 = scaled_to_h1(random_band_field(TORUS, rng, band=8.0).to_grid(), 0.3)
        for gauged in (False, True):
            traj = solve(u0, small_cfg(lam=1.0, k=1, gauged=gauged))
            m = traj.mass()
            assert np.max(np.abs(m - m[0])) / m[0] < 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(5)
        u0 = scaled_to_h1(random_band_field(TORUS, rng, band=8.0).to_grid(), 0.2)
        a = solve(u0, small_cfg(lam=1.0, k=1))
        b = solve(u0, small_cfg(lam=1.0, k=1))
        assert np.array_equal(a.values, b.values)

    def test_blow_up_detected(self):
        u0 = plane_wave(TORUS, 200.0, 1)
        with pytest.raises(BlowUpError):
            solve(u0, small_cfg(dt=0.01, T=1.0))

    def test_line_edge_decay_enforced(self):
        dom = Domain("line", 128, 2)
        u0 = plane_wave(dom, 0.5, 1)
        with pytest.raises(EdgeDecayError):
            solve(u0, small_cfg(dom=dom))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(TORUS, NonlinearityConfig(0.0, 0, False), 0.1, 0.05)
        with pytest.raises(ParameterError):
            SolverConfig(TORUS, NonlinearityConfig(0.0, 0, False), 1e-3, 1.5)
        with pytest.raises(ParameterError):
            SolverConfig(TORUS, NonlinearityConfig(0.0, 0, False), 1e-3, 0.05,
                         integrator="euler")
        with pytest.raises(ParameterError):
            SolverConfig(TORUS, NonlinearityConfig(0.0, 0, False), 3e-4, 0.05)


def _reversal_data(kind):
    """B^{1/2}_{2,inf} endpoint data on the torus (n = 64); on the line
    (n = 256, scale 4) a packet 0.8 gaussian e^{1.5 i x}, which stays clear
    of the edges in both legs."""
    if kind == "torus":
        return besov_endpoint_data(Domain("torus", 64), np.random.default_rng(0))
    dom = Domain("line", 256, 4)
    return GridFunction(dom, gaussian_packet(dom, 0.8, 1.0, mode=0).values * np.exp(1.5j * dom.x))


def _round_trip_error(u0, lam, k, gauged, integrator, dt, T=0.2):
    """||R S_T R S_T u0 - u0|| / ||u0||, R the reversal map conj(f(-x))."""
    cfg = small_cfg(u0.domain, lam, k, gauged, dt, T, integrator)
    there = solve(u0, cfg).values[-1]
    back = solve(GridFunction(u0.domain, reverse(there)), cfg).values[-1]
    return np.linalg.norm(reverse(back) - u0.values) / np.linalg.norm(u0.values)


class TestTimeReversal:
    """For real lambda, if u solves the equation then so does
    conj(u(-t, -x)), for the original and the gauged form alike, so with
    R f = conj(f(-x)) the flow gives R S_T R S_T u0 = u0 on any data.

    The steppers keep the symmetry: R Phi_h R = Phi_{-h}, and the round
    trip Phi_{-h}^m Phi_h^m cancels the h^{p+1} local terms of an even
    order p.  A fourth-order stepper's round trip error therefore falls by
    about 32 per halving of dt here, while a stepper of order three or less
    leaves at most 8: the test asks for 12 at every halving, with no floor,
    and its finest error stays above 1e-13, where roundoff cannot carry it.
    Faults it catches: a third-order stepper, a wrong ETD-RK4 stage
    coefficient, a forcing that drops its 1j.  A fault that keeps the
    equation reversible, such as a flipped sign of the derivative term,
    passes it: catching that needs an oracle of the equation itself, an
    exact solution or a conserved energy."""

    @pytest.mark.parametrize("dom,g", [
        (Domain("torus", 64),
         lambda x: np.exp(1j * x) + 0.5 * np.exp(-2j * x) + 0.3j * np.exp(3j * x)),
        (Domain("line", 256, 4),
         lambda x: np.exp(-0.3 * (x - 0.5) ** 2 + 1j * x)),
    ])
    def test_reversal_map(self, dom, g):
        # R samples conj(g(-x)) on both grids, and is an involution
        f = g(dom.x)
        assert np.allclose(reverse(f), np.conj(g(-dom.x)), rtol=0, atol=1e-14)
        assert np.array_equal(reverse(reverse(f)), f)

    @pytest.mark.parametrize("kind,gauged,integrator,lam,k,dts", [
        ("torus", True, "etdrk4", 0.0, 0, (1e-2, 5e-3, 2.5e-3, 1.25e-3)),
        ("torus", False, "etdrk4", 0.0, 0, (1e-2, 5e-3, 2.5e-3, 1.25e-3)),
        ("line", True, "etdrk4", 0.0, 0, (1e-2, 5e-3, 2.5e-3)),
        ("line", False, "etdrk4", 0.0, 0, (1e-2, 5e-3, 2.5e-3)),
        ("torus", False, "ifrk4", 0.5, 2, (1e-2, 5e-3, 2.5e-3)),
        ("torus", True, "ifrk4", 1.0, 1, (1e-2, 5e-3, 2.5e-3)),
    ], ids=["torus-gauged-etdrk4", "torus-original-etdrk4", "line-gauged-etdrk4",
            "line-original-etdrk4", "torus-original-ifrk4", "torus-gauged-ifrk4"])
    def test_round_trip_is_fourth_order(self, kind, gauged, integrator, lam, k,
                                        dts):
        u0 = _reversal_data(kind)
        errs = [_round_trip_error(u0, lam, k, gauged, integrator, dt) for dt in dts]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert min(ratios) >= 12.0, (errs, ratios)
        assert errs[-1] > 1e-13, errs


# the moving solitary wave of TestMovingSolitaryWave: (omega, c) and the
# final time
SOLITON = (1.0, 0.5)
SOLITON_T = 0.2


@functools.lru_cache(maxsize=None)
def _soliton_run(n, scale, gauged, dt):
    """(relative L2 error at SOLITON_T, final grid values) of the ETD-RK4
    solve of the solitary wave on Domain("line", n, scale) with lambda = 0;
    the gauged form solves gauge_forward(u0) and maps its trajectory back.
    The exact wave exp(i omega T) u0(x + c T) is u0's coefficients times
    exp(i xi c T), a spectral translation of the resolved profile."""
    omega, c = SOLITON
    dom = Domain("line", n, scale)
    u0 = solitary_wave(dom, omega, c)
    cfg = SolverConfig(dom, NonlinearityConfig(0.0, 0, gauged), dt, SOLITON_T)
    if gauged:
        last = gauge_trajectory(solve(gauge_forward(u0), cfg), True).values[-1]
    else:
        last = solve(u0, cfg).values[-1]
    exact = np.exp(1j * omega * SOLITON_T) * SpectralField(
        dom, u0.to_spectral().coeffs * np.exp(1j * c * SOLITON_T * dom.xi)).to_grid().values
    return np.linalg.norm(last - exact) / np.linalg.norm(exact), last


class TestMovingSolitaryWave:
    """The exact wave u(t, x) = exp(i omega t) phi(-x - c t) at (omega, c) =
    (1, 0.5), lambda = 0, moved to T = 0.2 on the line: an oracle of the
    equation itself, which time reversal cannot be, on data where the
    nonlinearity does real work.  Measured (n = 2048, scale 16, dt = 4e-3,
    2e-3, 1e-3): original 1.33e-6, 8.08e-8, 5.01e-9; gauged, mapped back,
    3.40e-8, 2.12e-9, 1.32e-10.  Each halving of dt must cut the error by
    12 or more, with no floor, as a fourth-order march does (16)."""

    @pytest.mark.parametrize("gauged", [False, True], ids=["original", "gauged"])
    def test_error_is_fourth_order(self, gauged):
        errs = [_soliton_run(2048, 16, gauged, dt)[0] for dt in (4e-3, 2e-3, 1e-3)]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert min(ratios) >= 12.0, (errs, ratios)

    @pytest.mark.parametrize("gauged", [False, True], ids=["original", "gauged"])
    def test_wave_stays_clear_of_the_edges(self, gauged):
        last = _soliton_run(2048, 16, gauged, 1e-3)[1]
        check_edge_decay(GridFunction(Domain("line", 2048, 16), last),
                         "the solitary wave at T")

    def test_error_does_not_change_when_the_box_doubles(self):
        # the error is the march's, not the box's: 8.0806e-8 in both
        base = _soliton_run(2048, 16, False, 2e-3)[0]
        doubled = _soliton_run(4096, 32, False, 2e-3)[0]
        assert abs(doubled - base) <= 1e-4 * base, (base, doubled)


class TestBatch:
    @pytest.mark.parametrize("kind", ["torus", "line"])
    @pytest.mark.parametrize("gauged", [False, True])
    @pytest.mark.parametrize("integrator", ["etdrk4", "ifrk4"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_batch_equals_member_solves(self, kind, gauged, integrator, k):
        if kind == "torus":
            dom = Domain("torus", 32)
            rng = np.random.default_rng(11)
            members = [scaled_to_h1(random_band_field(dom, rng, band=6.0).to_grid(), h)
                       for h in (0.2, 0.3, 0.4)]
        else:
            dom = Domain("line", 64, 2)
            members = [gaussian_packet(dom, a, 0.8, mode=m)
                       for a, m in ((0.6, 1), (0.4, -1), (0.5, 2))]
        cfg = small_cfg(dom, 1.0, k, gauged, 1e-3, 0.01, integrator)
        batch = solve(GridFunction(dom, np.stack([u.values for u in members])), cfg)
        assert batch.values.shape == (11, 3, dom.n_points)
        assert batch.mass().shape == (11, 3)
        for b, u in enumerate(members):
            assert np.array_equal(batch.values[:, b], solve(u, cfg).values)

    def test_one_member_blow_up_stops_the_batch(self):
        cfg = small_cfg(dt=0.01, T=1.0)
        with pytest.raises(BlowUpError) as alone:
            solve(plane_wave(TORUS, 200.0, 1), cfg)
        batch = np.stack([plane_wave(TORUS, a, 1).values for a in (0.1, 200.0, 0.1)])
        with pytest.raises(BlowUpError) as err:
            solve(GridFunction(TORUS, batch), cfg)
        assert err.value.time == alone.value.time

    def test_zero_member_is_not_a_blow_up(self):
        rng = np.random.default_rng(13)
        u0 = scaled_to_h1(random_band_field(TORUS, rng, band=8.0).to_grid(), 0.3)
        batch = np.stack([np.zeros(TORUS.n_points, complex), u0.values])
        traj = solve(GridFunction(TORUS, batch), small_cfg(lam=1.0, k=1))
        assert np.all(traj.values[:, 0] == 0)

    def test_edge_decay_checked_per_member(self):
        dom = Domain("line", 128, 2)
        good = gaussian_packet(dom, 0.5, 0.6, mode=0)
        solve(good, small_cfg(dom=dom))
        batch = np.stack([good.values, plane_wave(dom, 0.5, 1).values])
        with pytest.raises(EdgeDecayError):
            solve(GridFunction(dom, batch), small_cfg(dom=dom))


class TestForcingWork:
    # a deterministic guard on the work per forcing call and per solve step,
    # with no timing: the gauged kernel pads v and d_x v as one stack and
    # truncates once; the original form adds the coefficient round trip and
    # its one stacked truncation and inversion
    @pytest.mark.parametrize("dom", [TORUS, Domain("line", 128, 4)],
                             ids=["torus", "line"])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("gauged,ffts", [(True, 2), (False, 6)])
    @pytest.mark.parametrize("lam,k", [(0.0, 0), (1.0, 0), (1.0, 1), (0.5, 3)])
    def test_fft_calls_per_forcing_call(self, monkeypatch, dom, batch, gauged,
                                        ffts, lam, k):
        calls = count_ffts(monkeypatch)
        c = np.random.default_rng(15).normal(size=batch + (dom.n_points,)) + 0j
        nl = make_spectral_forcing(small_cfg(dom=dom, lam=lam, k=k, gauged=gauged),
                                   c.shape)
        out = nl(c, np.empty_like(c))
        assert out.shape == c.shape
        assert calls["fft"] + calls["ifft"] == ffts

    @pytest.mark.parametrize("kind", ["torus", "line"])
    @pytest.mark.parametrize("shape", [(), (3,)])
    @pytest.mark.parametrize("gauged,per_step", [(True, 9), (False, 25)])
    @pytest.mark.parametrize("integrator", ["etdrk4", "ifrk4"])
    def test_fft_calls_per_solve_step(self, monkeypatch, kind, shape, gauged,
                                      per_step, integrator):
        # four forcing calls and the new slice's one inverse transform per
        # step, after the one forward transform of the initial data
        u0 = _batch_data(kind, shape)
        cfg = SolverConfig(u0.domain, NonlinearityConfig(1.0, 1, gauged), 2e-3,
                           0.01, integrator)
        calls = count_ffts(monkeypatch)
        solve(u0, cfg)
        assert calls["fft"] + calls["ifft"] == 1 + cfg.n_steps * per_step


def _batch_data(kind, shape):
    """Initial data of the batch shape + (n,): distinct members, random band
    fields on Domain("torus", 32), moving packets on Domain("line", 64, 2)."""
    members = int(np.prod(shape, dtype=int))
    if kind == "torus":
        dom = Domain("torus", 32)
        rng = np.random.default_rng(17)
        rows = [scaled_to_h1(random_band_field(dom, rng, band=6.0).to_grid(),
                             0.2 + 0.1 * i).values for i in range(members)]
    else:
        dom = Domain("line", 64, 2)
        rows = [gaussian_packet(dom, 0.4 + 0.1 * i, 0.8, mode=1 + i).values
                for i in range(members)]
    return GridFunction(dom, np.reshape(rows, shape + (dom.n_points,)))


class TestMarchOracle:
    # solve's stage buffers and the kernels' work arrays against the
    # steppers' textbook expressions on fresh arrays: every bit of every slice
    @pytest.mark.parametrize("integrator", ["etdrk4", "ifrk4"])
    @pytest.mark.parametrize("gauged", [False, True])
    @pytest.mark.parametrize("kind", ["torus", "line"])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("lam,k", [(0.0, 0), (1.0, 1), (0.5, 2)])
    @pytest.mark.parametrize("pad", [2, 4])
    def test_solve_is_bitwise_the_expression_march(self, integrator, gauged, kind,
                                                   shape, lam, k, pad):
        u0 = _batch_data(kind, shape)
        cfg = SolverConfig(u0.domain, NonlinearityConfig(lam, k, gauged), 2e-3,
                           0.02, integrator, pad)
        got = solve(u0, cfg).values
        want = reference_march(u0, cfg)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestStream:
    # solve(u0, cfg, each) hands each slice to the hook in one reused buffer
    # and stores nothing; the stored trajectory is the same march's
    @pytest.mark.parametrize("integrator", ["etdrk4", "ifrk4"])
    @pytest.mark.parametrize("gauged", [False, True])
    @pytest.mark.parametrize("kind", ["torus", "line"])
    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_each_slice_is_the_stored_row(self, integrator, gauged, kind, shape):
        u0 = _batch_data(kind, shape)
        cfg = SolverConfig(u0.domain, NonlinearityConfig(1.0, 1, gauged), 2e-3,
                           0.02, integrator)
        stored = solve(u0, cfg).values
        seen = []

        def each(j, values):
            assert values.shape == u0.values.shape
            seen.append((j, values.copy()))

        assert solve(u0, cfg, each) is None
        assert [j for j, _ in seen] == list(range(cfg.n_steps + 1))
        for j, values in seen:
            assert np.array_equal(values, stored[j])

    def test_blow_up_after_the_last_good_slice(self):
        cfg = small_cfg(dt=0.01, T=1.0)
        u0 = plane_wave(TORUS, 200.0, 1)
        with pytest.raises(BlowUpError) as stored:
            solve(u0, cfg)
        seen = []
        with pytest.raises(BlowUpError) as streamed:
            solve(u0, cfg, lambda j, values: seen.append(j))
        assert streamed.value.time == stored.value.time
        assert seen == list(range(round(stored.value.time / cfg.dt)))

    def test_streamed_solve_stores_no_trajectory(self):
        # a 401-slice march at n = 512 holds the stages, the forcing's work
        # arrays and the one slice buffer: 0.16 of the trajectory, which a
        # stored march (1.12) adds in full
        dom = Domain("line", 512, 4)
        u0 = gaussian_packet(dom, 0.6, 1.0, mode=1)
        cfg = small_cfg(dom, 1.0, 1, False, 5e-4, 0.2)
        trajectory = (cfg.n_steps + 1) * dom.n_points * 16
        peak = traced_peak(solve, u0, cfg, lambda j, values: None)
        assert peak <= 0.25 * trajectory


def _coeff_rows(dom, n_rows, seed):
    rng = np.random.default_rng(seed)
    return np.stack([random_band_field(dom, rng, band=np.inf).coeffs
                     for _ in range(n_rows)])


class TestForcingWorkArrays:
    # the forcing reuses its work arrays from call to call; these pin what
    # that must not change
    FORMS = [(False, 1.3, 2), (False, 0.0, 0), (True, 1.3, 2), (True, 1.0, 0)]

    @pytest.mark.parametrize("dom", [TORUS, Domain("line", 128, 4)],
                             ids=["torus", "line"])
    @pytest.mark.parametrize("gauged,lam,k", FORMS)
    def test_output_survives_a_later_call(self, dom, gauged, lam, k):
        a, b = _coeff_rows(dom, 2, seed=31)
        nl = make_spectral_forcing(small_cfg(dom=dom, lam=lam, k=k,
                                             gauged=gauged), a.shape)
        out_a, out_b = np.empty_like(a), np.empty_like(b)
        first = nl(a, out_a)
        kept = first.copy()
        second = nl(b, out_b)
        # the result lands in the caller's buffer, which no later call touches
        assert first is out_a and second is out_b
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("dom", [TORUS, Domain("line", 128, 4)],
                             ids=["torus", "line"])
    @pytest.mark.parametrize("gauged,lam,k", FORMS)
    def test_shapes_in_turn_give_each_row_its_own_result(self, dom, gauged,
                                                         lam, k):
        # one forcing per shape: the single-row one takes the rows in turn
        cfg = small_cfg(dom=dom, lam=lam, k=k, gauged=gauged)
        rows = _coeff_rows(dom, 3, seed=32)
        nl_row = make_spectral_forcing(cfg, rows[0].shape)
        single = [nl_row(r, np.empty_like(r)) for r in rows]
        batch = make_spectral_forcing(cfg, rows.shape)(rows, np.empty_like(rows))
        for got, want in zip(batch, single):
            if gauged:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind,n,scale", [("torus", 64, 1), ("line", 256, 4)])
    @pytest.mark.parametrize("lam", [0.0, 1.3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("batch", [(), (21,)])
    def test_original_forcing_is_bitwise_the_reference(self, kind, n, scale,
                                                       lam, k, batch):
        # test_one_pad_kernel_is_bitwise_the_reference through the forcing
        # and its work arrays, twice to catch state left by the first call
        dom = Domain(kind, n, scale)
        c = _coeff_rows(dom, max(batch, default=1), seed=n + k).reshape(
            batch + (n,))
        want = -1j * original_rhs_reference(SpectralField(dom, c), lam, k, 4)
        nl = make_spectral_forcing(small_cfg(dom=dom, lam=lam, k=k), c.shape)
        assert np.array_equal(nl(c, np.empty_like(c)), want)
        assert np.array_equal(nl(c, np.empty_like(c)), want)

    @pytest.mark.parametrize("dom", [TORUS, Domain("line", 128, 4)],
                             ids=["torus", "line"])
    @pytest.mark.parametrize("lam,k", [(0.0, 0), (1.3, 0), (1.0, 1), (0.5, 3)])
    @pytest.mark.parametrize("batch", [(), (21,)])
    def test_gauged_forcing_is_bitwise_the_reference(self, dom, lam, k, batch):
        # the march oracle cannot see a last-bit change of the forcing (a
        # stage scales it by dt below the coefficients' ulp); this can
        c = _coeff_rows(dom, max(batch, default=1), seed=40 + k).reshape(
            batch + (dom.n_points,))
        want = -1j * gauged_rhs_reference(SpectralField(dom, c), lam, k)
        nl = make_spectral_forcing(small_cfg(dom=dom, lam=lam, k=k, gauged=True),
                                   c.shape)
        assert np.array_equal(nl(c, np.empty_like(c)), want)
        assert np.array_equal(nl(c, np.empty_like(c)), want)


class TestPicard:
    def test_zero_data(self):
        res = picard_iterate(zero_grid(TORUS), small_cfg(), 4)
        assert np.all(res.trajectory.values == 0)

    def test_contraction_and_agreement(self):
        dom = Domain("torus", 128)
        rng = np.random.default_rng(9)
        u0 = scaled_to_h1(random_band_field(dom, rng, band=8.0).to_grid(), 0.1)
        cfg = small_cfg(dom=dom, lam=1.0, k=1, dt=1e-3, T=0.05)
        res = picard_iterate(u0, cfg, 8)
        assert res.contracted
        ratios = [res.diff_norms[i + 1] / res.diff_norms[i]
                  for i in range(2) if res.diff_norms[i] > 0]
        assert all(r < 0.5 for r in ratios)
        ref = solve(u0, cfg)
        diff = np.sqrt(np.sum(np.abs(res.trajectory.values - ref.values) ** 2,
                              axis=1) * dom.dx)
        assert np.max(diff) < 1e-6

    @pytest.mark.parametrize("gauged", [False, True])
    def test_matches_per_slice_loop(self, gauged):
        # reference: the forcing slice by slice and a running trapezoid sum,
        # which add in the order the batched forcing and cumsum do
        dom = Domain("torus", 64)
        rng = np.random.default_rng(14)
        u0 = scaled_to_h1(random_band_field(dom, rng, band=8.0).to_grid(), 0.3)
        cfg = small_cfg(dom=dom, lam=1.0, k=1, gauged=gauged, dt=2e-3, T=0.02)
        nl = make_spectral_forcing(cfg, (dom.n_points,))
        times = cfg.dt * np.arange(cfg.n_steps + 1)
        c0 = u0.to_spectral().coeffs
        fwd = np.exp(-1j * times[:, None] * dom.xi[None, :] ** 2)
        bwd = np.exp(+1j * times[:, None] * dom.xi[None, :] ** 2)
        v, diffs = fwd * c0[None, :], []
        for _ in range(3):
            integrand = bwd * np.stack([nl(row, np.empty_like(row)) for row in v])
            cum = np.zeros_like(integrand)
            run = np.zeros(dom.n_points, dtype=np.complex128)
            for l in range(1, cfg.n_steps + 1):
                run = run + 0.5 * cfg.dt * (integrand[l - 1] + integrand[l])
                cum[l] = run
            v_next = fwd * (c0[None, :] + cum)
            diffs.append(float(np.max(np.sqrt(
                np.sum(np.abs(v_next - v) ** 2, axis=1) * dom.dxi))))
            v = v_next
        res = picard_iterate(u0, cfg, 3)
        assert res.diff_norms == diffs
        assert np.array_equal(res.trajectory.values,
                              np.fft.ifft(v, axis=1) * (np.sqrt(2 * np.pi) / dom.dx))

    def test_longer_window_weakens_contraction(self):
        dom = Domain("torus", 128)
        rng = np.random.default_rng(10)
        med_ratios = []
        for T in (0.0125, 0.025, 0.05):
            ratios = []
            for _ in range(5):
                u0 = scaled_to_h1(random_band_field(dom, rng, band=8.0).to_grid(),
                                  0.3)
                res = picard_iterate(u0, small_cfg(dom=dom, lam=1.0, k=1,
                                                   dt=T / 40, T=T), 4)
                if res.diff_norms[0] > 0:
                    ratios.append(res.diff_norms[1] / res.diff_norms[0])
            med_ratios.append(np.median(ratios))
        assert med_ratios[0] < med_ratios[1] < med_ratios[2]


class TestRescale:
    def _line_traj(self):
        dom = Domain("line", 256, 4)
        u0 = scaled_to_h1(gaussian_packet(dom, 1.0, 1.3, mode=1), 0.3)
        return solve(u0, small_cfg(dom=dom, dt=1e-3, T=0.05))

    def test_identity(self):
        traj = self._line_traj()
        out = rescale(traj, 1)
        assert np.array_equal(out.values, traj.values)

    def test_mass_matching(self):
        traj = self._line_traj()
        for sigma in (2, 4):
            out = rescale(traj, sigma)
            assert np.allclose(out.times, sigma ** 2 * traj.times)
            assert np.max(np.abs(out.mass() - traj.mass())) < 1e-12

    def test_rescaled_data_solves_equation(self):
        traj = self._line_traj()
        out = rescale(traj, 2)
        cfg2 = SolverConfig(out.domain, NonlinearityConfig(0.0, 0, False),
                            4e-3, 0.2)
        re_solved = solve(out.slice_function(0), cfg2)
        rel = np.sqrt(np.sum(np.abs(re_solved.values - out.values) ** 2, axis=1)
                      / np.sum(np.abs(out.values) ** 2, axis=1))
        assert np.max(rel) < 1e-8

    def test_torus_rejected(self):
        times = 1e-3 * np.arange(3)
        traj = Trajectory(TORUS, times, np.zeros((3, 64), complex))
        with pytest.raises(WrongDomainError):
            rescale(traj, 2)

    def test_sigma_validation(self):
        traj = self._line_traj()
        with pytest.raises(ParameterError):
            rescale(traj, 3)
