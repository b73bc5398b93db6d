"""Right-hand sides, their Fourier-side oracles, and dealiasing."""

import numpy as np
import pytest

from dnls_lab.errors import ParameterError
from dnls_lab.fields import (Domain, GridFunction, SpectralField, _deriv_mult,
                             dealiased_product_coeffs, padded_values)
from dnls_lab.gauge import gauge_forward
from dnls_lab.nonlinear import (NonlinearityConfig, power_nonlinearity,
                                quintic_Q_general_slices, rhs_gauged,
                                rhs_original, rhs_work, trilinear_T_slices)
from dnls_lab.sampling import gaussian_packet, plane_wave, random_band_field
from tests_support import (SizeLimitError, conj_flip, gauged_rhs_reference,
                           original_rhs_reference, quintic_Q_fourier,
                           solitary_wave, trilinear_T_fourier, zero_grid,
                           zero_spectral)


def random_small_field(n, seed, band=None, kind="torus", scale=1):
    dom = Domain(kind, n, scale)
    rng = np.random.default_rng(seed)
    band = band if band is not None else dom.xi_max / 2
    return random_band_field(dom, rng, band=band).to_grid()


def trilinear_diagonal(v: GridFunction) -> GridFunction:
    """T(v, v, conj v) on grid values, through the coefficient kernel."""
    c = v.to_spectral()
    out = trilinear_T_slices(v.domain, c.coeffs, c.coeffs, conj_flip(c).coeffs)
    return SpectralField(v.domain, out).to_grid()


def quintic_diagonal(v: GridFunction) -> GridFunction:
    """Q(v, conj v, v, conj v, v) on grid values, through the coefficient kernel."""
    c = v.to_spectral()
    cb = conj_flip(c).coeffs
    out = quintic_Q_general_slices(v.domain, [c.coeffs, cb, c.coeffs, cb, c.coeffs])
    return SpectralField(v.domain, out).to_grid()


def with_work(rhs, v: SpectralField, cfg: NonlinearityConfig,
              pad_factor: int = 4) -> SpectralField:
    """rhs(v, cfg, work) on fresh work arrays for v's shape."""
    return rhs(v, cfg, rhs_work(v.domain, cfg, v.coeffs.shape, pad_factor))


class TestRhsOriginal:
    def test_zero(self):
        dom = Domain("torus", 64)
        out = with_work(rhs_original, zero_spectral(dom), NonlinearityConfig(0.0, 0, False))
        assert np.all(out.coeffs == 0)

    def test_single_mode(self):
        dom = Domain("torus", 64)
        A, lam, k = 0.8 - 0.1j, 0.7, 1
        u = plane_wave(dom, A, 1)
        out = with_work(rhs_original, u.to_spectral(),
                        NonlinearityConfig(lam, k, False)).to_grid()
        # i d_x(|A|^2 u) = -|A|^2 u for mode 1; plus lam |A|^(2k) u
        expected = (-abs(A) ** 2 + lam * abs(A) ** (2 * k)) * u.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_plane_wave_residual(self):
        # u = A e^{i(x - omega t)} with omega = 1 - |A|^2 + lam |A|^(2k)
        # satisfies i u_t + u_xx = rhs; at t = 0 check the algebraic identity
        dom = Domain("torus", 64)
        A, lam, k = 0.5, 0.3, 2
        omega = 1 - A ** 2 + lam * A ** (2 * k)
        u = plane_wave(dom, A, 1)
        # i u_t = omega u, u_xx = -u
        lhs = omega * u.values - u.values
        rhs_v = with_work(rhs_original, u.to_spectral(),
                          NonlinearityConfig(lam, k, False)).to_grid().values
        assert np.max(np.abs(lhs - rhs_v)) < 1e-12

    def test_gauged_config_rejected(self):
        dom = Domain("torus", 64)
        with pytest.raises(ParameterError):
            with_work(rhs_original, zero_spectral(dom),
                      NonlinearityConfig(0.0, 0, True))

    @pytest.mark.parametrize("kind,n,scale", [("torus", 64, 1), ("line", 256, 4)])
    @pytest.mark.parametrize("lam", [0.0, 1.3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("batch", [(), (21,)])
    def test_one_pad_kernel_is_bitwise_the_reference(self, kind, n, scale, lam, k,
                                                     batch):
        # the batch of 21 rows is large enough for numpy to reuse temporaries
        # in place, which must not change a product's bits
        dom = Domain(kind, n, scale)
        rng = np.random.default_rng(n + k)
        v = SpectralField(dom, np.stack([
            random_band_field(dom, rng, band=np.inf).coeffs
            for _ in range(max(batch, default=1))]).reshape(batch + (n,)))
        out = with_work(rhs_original, v, NonlinearityConfig(lam, k, False))
        assert np.array_equal(out.coeffs, original_rhs_reference(v, lam, k, 4))

    @pytest.mark.parametrize("kind,n,scale", [("torus", 64, 1), ("line", 256, 4)])
    @pytest.mark.parametrize("k,pad_factor", [(4, 4), (2, 2)])
    def test_one_pad_kernel_where_the_grids_differ(self, kind, n, scale, k,
                                                   pad_factor):
        # the cube alone would use a coarser grid than the power term; both
        # are alias-free, so they agree up to roundoff
        v = random_small_field(n, seed=n + k, band=np.inf, kind=kind,
                               scale=scale).to_spectral()
        out = with_work(rhs_original, v, NonlinearityConfig(1.3, k, False), pad_factor)
        ref = original_rhs_reference(v, 1.3, k, pad_factor)
        assert not np.array_equal(out.coeffs, ref)
        assert np.max(np.abs(out.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


def energy(dom: Domain, c: np.ndarray, lam, k, cubic=1.5, sextic=0.5) -> float:
    """E(u) = int |u_x|^2 + 3/2 Im int |u|^2 u conj(u_x) + 1/2 int |u|^6
    + lam/(k+1) int |u|^(2k+2) for the coefficients c of u, with the two
    gauge-born coefficients as parameters.  The integrands have degree at
    most 6 (2k + 2 <= 6), so the sums on the 4x grid are exact."""
    m = 4 * dom.n_points
    u = padded_values(dom, c, m)
    ux = padded_values(dom, _deriv_mult(dom) * c, m)
    a = np.abs(u) ** 2
    return float((np.sum(np.abs(ux) ** 2) + cubic * np.sum(np.imag(a * u * np.conj(ux)))
                  + sextic * np.sum(a ** 3) + lam / (k + 1) * np.sum(a ** (k + 1)))
                 * (dom.period / m))


def energy_rate(u: GridFunction, lam, k, h=1e-5, **coefficients) -> float:
    """dE/dt along the original flow u_t = i u_xx - i rhs_original(u), as
    the central difference (E(u + h u_t) - E(u - h u_t)) / 2h."""
    dom, c = u.domain, u.to_spectral().coeffs
    cfg = NonlinearityConfig(lam, k, False)
    rhs = with_work(rhs_original, SpectralField(dom, c), cfg).coeffs
    ut = 1j * (-dom.xi ** 2 * c) - 1j * rhs
    return (energy(dom, c + h * ut, lam, k, **coefficients)
            - energy(dom, c - h * ut, lam, k, **coefficients)) / (2.0 * h)


def chirped_packet(dom, amplitude, width, center, mode, chirp):
    x = dom.x
    return amplitude * np.exp(-(x - center) ** 2 / (2.0 * width ** 2)
                              + 1j * (mode * x + chirp * (x - center) ** 2))


class TestEnergy:
    """The energy of the original equation is conserved, so dE/dt vanishes
    at every u: an oracle of the equation itself, which checks the
    right-hand side's terms and their signs against each other.  Packets
    that time reversal maps to themselves (a real even envelope times one
    mode) have dE/dt = 0 for any reversible functional, a wrong energy
    included, so the data here are chirped or pairs of distinct packets.
    A flipped sign of the derivative term keeps the equation reversible,
    which TestTimeReversal in test_solver cannot see; here it moves
    dE/dt far from zero."""

    LINE = Domain("line", 1024, 8)
    PACKETS = {
        "chirp": chirped_packet(LINE, 0.8, 1.0, 0.0, 1, 0.3),
        "chirp-pair": (chirped_packet(LINE, 0.6, 1.2, 0.5, -1, -0.2)
                       + chirped_packet(LINE, 0.5, 0.9, -2.0, 2, 0.0)),
        "pair": (gaussian_packet(LINE, 0.7, 1.0, 1.0, mode=1).values
                 + 1j * gaussian_packet(LINE, 0.5, 0.8, -1.5, mode=-2).values),
    }

    @pytest.mark.parametrize("packet", sorted(PACKETS))
    @pytest.mark.parametrize("lam,k", [(0.0, 0), (1.0, 1), (0.5, 2), (-1.0, 1)])
    def test_energy_is_conserved(self, packet, lam, k):
        u = GridFunction(self.LINE, self.PACKETS[packet])
        assert abs(energy_rate(u, lam, k)) <= 1.1e-8

    @pytest.mark.parametrize("packet", sorted(PACKETS))
    def test_data_see_a_wrong_coefficient(self, packet):
        # the oracle is not vacuous on these data: either gauge-born
        # coefficient off moves dE/dt by 1e-3 or more
        u = GridFunction(self.LINE, self.PACKETS[packet])
        assert abs(energy_rate(u, 1.0, 1, cubic=1.0)) >= 1e-3
        assert abs(energy_rate(u, 1.0, 1, sextic=0.25)) >= 1e-3


def wave_residual(omega, c, drift, gauged) -> float:
    """max |i u_t + u_xx - rhs(u)| / max |rhs(u)| at t = 0 for the solitary
    wave (omega, c) on TestSolitaryWave.LINE with lam = 0, where
    u_t = i omega u + drift u_x (the wave's own when drift = c), and the
    gauged kernel acts on gauge_forward(u)."""
    dom = TestSolitaryWave.LINE
    u = solitary_wave(dom, omega, c)
    if gauged:
        u = gauge_forward(u)
    v = u.to_spectral()
    d = _deriv_mult(dom)
    rhs = with_work(rhs_gauged if gauged else rhs_original, v,
                    NonlinearityConfig(0.0, 0, gauged)).coeffs
    ut = 1j * omega * v.coeffs + drift * d * v.coeffs
    return float(np.max(np.abs(1j * ut + d * d * v.coeffs - rhs)) / np.max(np.abs(rhs)))


class TestSolitaryWave:
    """The exact travelling wave (tests_support.solitary_wave) solves the
    equation, so each kernel must balance i u_t + u_xx on it to roundoff:
    an oracle of the equation, signs and constants included, and of the
    line machinery.  The gauged wave gauge_forward(u) is a function of
    x + c t times exp(i omega t) too (its phase integrates |u|^2 from the
    left edge), so it obeys the same u_t.  n = 1024 leaves (1, 0.5)
    under-resolved (residual 2.3e-6)."""

    LINE = Domain("line", 2048, 16)
    WAVES = [(1.0, 0.5), (1.0, -1.0)]

    @pytest.mark.parametrize("omega,c", WAVES)
    @pytest.mark.parametrize("gauged", [False, True], ids=["original", "gauged"])
    def test_kernel_balances_the_wave(self, omega, c, gauged):
        assert wave_residual(omega, c, c, gauged) <= 1e-10

    @pytest.mark.parametrize("omega,c", WAVES)
    @pytest.mark.parametrize("gauged", [False, True], ids=["original", "gauged"])
    def test_wave_moving_the_other_way_does_not_balance(self, omega, c, gauged):
        # the check bites: the same profile with the opposite velocity in u_t
        assert wave_residual(omega, c, -c, gauged) >= 0.1

    @pytest.mark.parametrize("omega,c", WAVES)
    def test_mass_is_eight_arctan_q(self, omega, c):
        u = solitary_wave(self.LINE, omega, c)
        q = np.sqrt((2.0 * np.sqrt(omega) + c) / (2.0 * np.sqrt(omega) - c))
        mass = np.sum(np.abs(u.values) ** 2) * self.LINE.dx
        assert mass == pytest.approx(8.0 * np.arctan(q), rel=1e-12)


class TestTrilinear:
    def test_constant_field_torus(self):
        dom = Domain("torus", 64)
        v = GridFunction(dom, 0.4 * np.ones(64, complex))
        out = trilinear_diagonal(v)
        assert np.max(np.abs(out.values)) < 1e-13

    def test_single_mode_torus(self):
        dom = Domain("torus", 64)
        A = 0.9 - 0.3j
        v = plane_wave(dom, A, 1)
        out = trilinear_diagonal(v)
        # v^2 d_x conj(v) = -i |A|^2 v; the mean correction adds 2i |A|^2 v
        expected = 1j * abs(A) ** 2 * v.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_single_mode_line_keeps_raw_sign(self):
        dom = Domain("line", 64, 1)
        # line variant: no mean correction
        dom = Domain("line", 64, 2)
        A = 0.9 - 0.3j
        v = GridFunction(dom, A * np.exp(1j * dom.x))  # xi = 1 is on the lattice
        out = trilinear_diagonal(v)
        expected = -1j * abs(A) ** 2 * v.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_oracle_zero(self):
        dom = Domain("torus", 32)
        z = zero_spectral(dom)
        assert np.all(trilinear_T_fourier(z, z, z).coeffs == 0)

    def test_oracle_single_mode_diagonal_term(self):
        dom = Domain("torus", 32)
        A = 0.6 + 0.2j
        v = plane_wave(dom, A, 1).to_spectral()
        out = trilinear_T_fourier(v, v, conj_flip(v))
        expected = trilinear_T_slices(dom, v.coeffs, v.coeffs, conj_flip(v).coeffs)
        assert np.max(np.abs(out.coeffs - expected)) < 1e-12

    @pytest.mark.parametrize("kind,scale", [("torus", 1), ("line", 2)])
    def test_oracle_equivalence_random(self, kind, scale):
        dom = Domain(kind, 32, scale)
        rng = np.random.default_rng(42)
        for _ in range(5):
            sv = random_band_field(dom, rng, band=dom.xi_max / 2)
            fast = trilinear_T_slices(dom, sv.coeffs, sv.coeffs, conj_flip(sv).coeffs)
            oracle = trilinear_T_fourier(sv, sv, conj_flip(sv))
            scale_ = max(np.max(np.abs(fast)), 1.0)
            assert np.max(np.abs(fast - oracle.coeffs)) < 1e-10 * scale_

    def test_oracle_size_limit(self):
        dom = Domain("torus", 128)
        z = zero_spectral(dom)
        with pytest.raises(SizeLimitError):
            trilinear_T_fourier(z, z, z)


class TestQuintic:
    def test_zero(self):
        dom = Domain("torus", 32)
        out = quintic_diagonal(zero_grid(dom))
        assert np.all(out.values == 0)

    def test_single_mode_torus_annihilates(self):
        dom = Domain("torus", 32)
        v = plane_wave(dom, 0.8, 1)
        out = quintic_diagonal(v)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_line_is_plain_quintic(self):
        # band * 5 must stay inside the lattice for the pointwise comparison
        dom = Domain("line", 128, 2)
        rng = np.random.default_rng(0)
        v = random_band_field(dom, rng, band=3.0).to_grid()
        out = quintic_diagonal(v)
        expected = np.abs(v.values) ** 4 * v.values
        assert np.max(np.abs(out.values - expected)) < 1e-10

    @pytest.mark.parametrize("mode", [0, 1, 3])
    def test_single_mode_corrections_cancel_the_product(self, mode):
        # every term of Q(c, conj c, c, conj c, c) for one mode lies on the
        # excluded hyperplane k1 + k2 = 0, so each of the four torus
        # corrections is needed to cancel the plain product |v|^4 v
        dom = Domain("torus", 32)
        v = plane_wave(dom, 0.7, mode).to_spectral()
        c, cb = v.coeffs, conj_flip(v).coeffs
        plain = dealiased_product_coeffs(dom, [c, cb, c, cb, c])
        assert np.max(np.abs(plain)) > 0.4
        q = quintic_Q_general_slices(dom, [c, cb, c, cb, c])
        assert np.max(np.abs(q)) < 1e-14

    @pytest.mark.parametrize("kind,scale", [("torus", 1), ("line", 2)])
    def test_oracle_equivalence_random(self, kind, scale):
        dom = Domain(kind, 16, scale)
        rng = np.random.default_rng(7)
        for _ in range(3):
            sv = random_band_field(dom, rng, band=dom.xi_max / 2)
            c, cb = sv.coeffs, conj_flip(sv).coeffs
            fast = quintic_Q_general_slices(dom, [c, cb, c, cb, c])
            oracle = quintic_Q_fourier(
                [sv, conj_flip(sv), sv, conj_flip(sv), sv])
            scale_ = max(np.max(np.abs(fast)), 1.0)
            assert np.max(np.abs(fast - oracle.coeffs)) < 1e-9 * scale_

    def test_oracle_size_limit(self):
        dom = Domain("torus", 64)
        z = zero_spectral(dom)
        with pytest.raises(SizeLimitError):
            quintic_Q_fourier([z] * 5)


class TestBatchedForms:
    """The coefficient kernels on stacks (2, 2, n) of general (not diagonal)
    factors: every row matches the Fourier oracle of its factors, and equals
    a call on that row alone bit for bit."""

    @staticmethod
    def _stacks(dom, n_factors, seed):
        rng = np.random.default_rng(seed)
        return [np.array([[random_band_field(dom, rng, band=dom.xi_max / 2).coeffs
                           for _ in range(2)] for _ in range(2)])
                for _ in range(n_factors)]

    @staticmethod
    def _check_rows(dom, got, cs, kernel, oracle, tol):
        for i in np.ndindex(got.shape[:-1]):
            row = [c[i] for c in cs]
            assert np.array_equal(got[i], kernel(row))
            want = oracle([SpectralField(dom, c) for c in row]).coeffs
            assert np.max(np.abs(got[i] - want)) < tol * max(np.max(np.abs(want)), 1.0)

    @pytest.mark.parametrize("kind,scale", [("torus", 1), ("line", 2)])
    def test_trilinear(self, kind, scale):
        dom = Domain(kind, 32, scale)
        cs = self._stacks(dom, 3, seed=31)
        got = trilinear_T_slices(dom, *cs)
        assert got.shape == (2, 2, dom.n_points)
        self._check_rows(dom, got, cs, lambda r: trilinear_T_slices(dom, *r),
                         lambda f: trilinear_T_fourier(*f), 1e-10)

    @pytest.mark.parametrize("kind,scale", [("torus", 1), ("line", 2)])
    def test_quintic(self, kind, scale):
        dom = Domain(kind, 16, scale)
        cs = self._stacks(dom, 5, seed=32)
        got = quintic_Q_general_slices(dom, cs)
        assert got.shape == (2, 2, dom.n_points)
        self._check_rows(dom, got, cs, lambda r: quintic_Q_general_slices(dom, r),
                         quintic_Q_fourier, 1e-9)


class TestPowerNonlinearity:
    def test_k0_is_scaling(self):
        dom = Domain("torus", 32)
        rng = np.random.default_rng(2)
        v = random_band_field(dom, rng, band=8.0).to_grid()
        out = power_nonlinearity(v, -1.3, 0)
        assert np.max(np.abs(out.values + 1.3 * v.values)) < 1e-14

    def test_constant_two(self):
        dom = Domain("torus", 32)
        v = GridFunction(dom, 2.0 * np.ones(32, complex))
        out = power_nonlinearity(v, 1.0, 1)
        assert np.max(np.abs(out.values - 8.0)) < 1e-12

    def test_pointwise_modulus_law(self):
        # degree-5 output must stay inside the lattice: band <= xi_max / 5
        dom = Domain("torus", 64)
        rng = np.random.default_rng(3)
        v = random_band_field(dom, rng, band=6.0).to_grid()
        out = power_nonlinearity(v, -2.0, 2)
        expected = 2.0 * np.abs(v.values) ** 5
        assert np.max(np.abs(np.abs(out.values) - expected)) < 1e-10


class TestRhsGauged:
    def test_zero(self):
        dom = Domain("torus", 32)
        out = with_work(rhs_gauged, zero_spectral(dom), NonlinearityConfig(0, 0, True))
        assert np.all(out.coeffs == 0)

    def test_single_mode_lambda_zero(self):
        dom = Domain("torus", 64)
        A = 0.8 + 0.1j
        v = plane_wave(dom, A, 1)
        out = with_work(rhs_gauged, v.to_spectral(),
                        NonlinearityConfig(0.0, 0, True)).to_grid()
        # -i (i |A|^2 v) - 0 = |A|^2 v
        expected = abs(A) ** 2 * v.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_linearity_in_lambda(self):
        dom = Domain("torus", 64)
        rng = np.random.default_rng(4)
        v = random_band_field(dom, rng, band=8.0).to_grid()
        a, b = (with_work(rhs_gauged, v.to_spectral(),
                          NonlinearityConfig(lam, 1, True)).to_grid()
                for lam in (2.0, 0.5))
        diff = a.values - b.values
        expected = power_nonlinearity(v, 1.5, 1).values
        assert np.max(np.abs(diff - expected)) < 1e-11

    @pytest.mark.parametrize("kind,n,scale", [("torus", 32, 1), ("torus", 256, 1),
                                              ("line", 512, 4)])
    @pytest.mark.parametrize("lam,k", [(0.0, 0), (1.3, 0), (1.0, 1), (-0.7, 2),
                                       (0.3, 4)])
    def test_fused_kernel_matches_reference_composition(self, kind, n, scale,
                                                        lam, k):
        # full band (Nyquist mode zero); k = 4 needs pad factor 8
        v = random_small_field(n, seed=n + k, band=np.inf, kind=kind, scale=scale)
        ref = (-1j * trilinear_diagonal(v).values
               - 0.5 * quintic_diagonal(v).values
               + power_nonlinearity(v, lam, k).values)
        out = with_work(rhs_gauged, v.to_spectral(), NonlinearityConfig(lam, k, True))
        assert np.max(np.abs(out.to_grid().values - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind,n,scale", [("torus", 64, 1), ("line", 256, 4)])
    @pytest.mark.parametrize("lam,k", [(0.0, 0), (1.3, 0), (1.0, 1), (-0.7, 2),
                                       (0.3, 4)])
    @pytest.mark.parametrize("batch", [(), (21,)])
    def test_kernel_is_bitwise_the_reference(self, kind, n, scale, lam, k, batch):
        # the work arrays keep the bits of the expressions on fresh arrays,
        # down to a last-bit change of the torus scalar
        dom = Domain(kind, n, scale)
        rng = np.random.default_rng(n + k)
        v = SpectralField(dom, np.stack([
            random_band_field(dom, rng, band=np.inf).coeffs
            for _ in range(max(batch, default=1))]).reshape(batch + (n,)))
        out = with_work(rhs_gauged, v, NonlinearityConfig(lam, k, True))
        assert np.array_equal(out.coeffs, gauged_rhs_reference(v, lam, k))

    def test_original_config_rejected(self):
        dom = Domain("torus", 32)
        with pytest.raises(ParameterError):
            with_work(rhs_gauged, zero_spectral(dom), NonlinearityConfig(0, 0, False))

    def test_scalar_pieces_phase_invariant(self):
        dom = Domain("torus", 64)
        rng = np.random.default_rng(5)
        v = random_band_field(dom, rng, band=8.0).to_grid()
        w = GridFunction(dom, v.values * np.exp(0.81j))
        a, b = (with_work(rhs_gauged, f.to_spectral(),
                          NonlinearityConfig(1.0, 1, True)).to_grid() for f in (v, w))
        # the whole rhs is equivariant: rhs(e^{i theta} v) = e^{i theta} rhs(v)
        assert np.max(np.abs(b.values - np.exp(0.81j) * a.values)) < 1e-11
