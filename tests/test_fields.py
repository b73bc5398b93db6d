"""Grids, transforms, dealiased products, space-time fields."""

import tracemalloc

import numpy as np
import pytest

from dnls_lab.errors import DomainMismatchError
from dnls_lab.fields import (Domain, GridFunction, ModulationLattice, SpaceTimeField,
                             SpectralField, Trajectory, _deriv_mult,
                             _square_sums, dealiased_product_coeffs)
from dnls_lab.spaces import block_norms, xsb_norm

from tests_support import conj_flip, unit_mass, zero_grid


class TestDomain:
    def test_torus_lattice_is_integers(self):
        dom = Domain("torus", 64)
        assert dom.period == pytest.approx(2 * np.pi)
        assert np.allclose(np.sort(dom.xi), np.arange(-32, 32))

    def test_line_lattice_scaling(self):
        dom = Domain("line", 64, 4)
        assert dom.period == pytest.approx(8 * np.pi)
        assert dom.dxi == pytest.approx(0.25)
        assert dom.x[0] == pytest.approx(-4 * np.pi)

    @pytest.mark.parametrize("bad", [{"kind": "torus", "n_points": 6},
                                     {"kind": "torus", "n_points": 48},
                                     {"kind": "line", "n_points": 64,
                                      "domain_scale": 3},
                                     {"kind": "plane", "n_points": 64},
                                     # 2 pi * 2^1022 overflows to inf
                                     {"kind": "line", "n_points": 64,
                                      "domain_scale": 2 ** 1022}])
    def test_invalid_domains(self, bad):
        with pytest.raises(ValueError):
            Domain(**bad)

    def test_domain_mismatch(self):
        f = zero_grid(Domain("torus", 64))
        g = zero_grid(Domain("torus", 128))
        with pytest.raises(DomainMismatchError):
            f - g


class TestTransforms:
    @pytest.mark.parametrize("dom", [Domain("torus", 64), Domain("line", 128, 4)])
    def test_round_trip(self, dom):
        rng = np.random.default_rng(0)
        f = GridFunction(dom, rng.normal(size=dom.n_points)
                         + 1j * rng.normal(size=dom.n_points))
        back = f.to_spectral().to_grid()
        rel = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12

    @pytest.mark.parametrize("dom", [Domain("torus", 64), Domain("line", 128, 2)])
    def test_plancherel(self, dom):
        rng = np.random.default_rng(1)
        f = GridFunction(dom, rng.normal(size=dom.n_points)
                         + 1j * rng.normal(size=dom.n_points))
        spectral = np.sqrt(np.sum(np.abs(f.to_spectral().coeffs) ** 2) * dom.dxi)
        assert f.l2_norm() == pytest.approx(spectral, rel=1e-13)

    def test_single_mode_coefficient(self):
        dom = Domain("torus", 64)
        f = GridFunction(dom, np.exp(3j * dom.x))
        c = f.to_spectral()
        idx = int(np.argmin(np.abs(dom.xi - 3)))
        # hat(e^{i 3 x})(3) = sqrt(2 pi) with the symmetric normalization
        assert c.coeffs[idx] == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)
        others = np.abs(np.delete(c.coeffs, idx))
        assert np.max(others) < 1e-12

    def test_conj_flip(self):
        dom = Domain("torus", 32)
        rng = np.random.default_rng(2)
        f = GridFunction(dom, rng.normal(size=32) + 1j * rng.normal(size=32))
        direct = GridFunction(dom, np.conj(f.values)).to_spectral().coeffs
        flipped = conj_flip(f.to_spectral()).coeffs
        assert np.max(np.abs(direct - flipped)) < 1e-12


class TestDerivative:
    def test_trig_polynomial(self):
        dom = Domain("torus", 64)
        f = GridFunction(dom, np.sin(2 * dom.x) + 1j * np.cos(3 * dom.x))
        expected = 2 * np.cos(2 * dom.x) - 3j * np.sin(3 * dom.x)
        out = SpectralField(dom, _deriv_mult(dom) * f.to_spectral().coeffs).to_grid()
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_nyquist_mode_zeroed_by_one_shared_multiplier(self):
        # the right-hand sides use the same cached i xi; a caller must not
        # be able to change it for the others
        dom = Domain("line", 32, 2)
        f = SpectralField(dom, unit_mass(dom, dom.xi[16]).coeffs
                          + unit_mass(dom, 1.5).coeffs)
        out = _deriv_mult(dom) * f.coeffs
        assert out[16] == 0 and out[3] == 1.5j
        mult = _deriv_mult(dom)
        assert mult is _deriv_mult(Domain("line", 32, 2))
        with pytest.raises(ValueError):
            mult[0] = 1.0


def _product_values(factors, conjugate=None, pad_factor=4):
    """Grid values of the dealiased product of GridFunction factors."""
    dom = factors[0].domain
    out = dealiased_product_coeffs(dom, [f.to_spectral().coeffs for f in factors],
                                   conjugate, pad_factor)
    return SpectralField(dom, out).to_grid().values


class TestDealiasedProduct:
    def test_matches_exact_product_of_trig_polys(self):
        dom = Domain("torus", 64)
        f = GridFunction(dom, np.exp(2j * dom.x) + 0.5)
        g = GridFunction(dom, np.exp(-5j * dom.x) - 1j)
        out = _product_values([f, g])
        exact = f.values * g.values
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_cubic_with_conjugate(self):
        dom = Domain("torus", 64)
        v = GridFunction(dom, 0.7 * np.exp(1j * dom.x) + 0.2 * np.exp(-2j * dom.x))
        out = _product_values([v, v, v], [False, False, True])
        exact = v.values * v.values * np.conj(v.values)
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_padding_insensitive_on_band_limited_data(self):
        dom = Domain("torus", 64)
        rng = np.random.default_rng(3)
        coeffs = np.zeros(64, complex)
        for k in range(-8, 9):  # occupies n/8 modes
            coeffs[k % 64] = rng.normal() + 1j * rng.normal()
        v = SpectralField(dom, coeffs).to_grid()
        a = _product_values([v, v, v, v, v],
                            [False, True, False, True, False], pad_factor=4)
        b = _product_values([v, v, v, v, v],
                            [False, True, False, True, False], pad_factor=8)
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) < 1e-10 * max(scale, 1.0)

    @pytest.mark.parametrize("conj", [[False, False, True],
                                      [False, True, False, True, False]])
    def test_repeated_factor_is_bit_identical_to_copies(self, conj):
        # the original-form RHS passes one array several times; padding it
        # once must not move a bit, since time-step error figures of about
        # 1e-12 keep few stable digits
        dom = Domain("torus", 64)
        rng = np.random.default_rng(8)
        c = rng.normal(size=64) + 1j * rng.normal(size=64)
        same = dealiased_product_coeffs(dom, [c] * len(conj), conj)
        copies = dealiased_product_coeffs(dom, [c.copy() for _ in conj], conj)
        assert np.array_equal(same, copies)


class TestTrajectory:
    def test_validation(self):
        dom = Domain("torus", 16)
        with pytest.raises(ValueError):
            Trajectory(dom, np.array([0.0, 0.1, 0.1]), np.zeros((3, 16), complex))
        with pytest.raises(ValueError):
            Trajectory(dom, np.array([0.0, 0.1, 0.3]), np.zeros((3, 16), complex))

    def test_mass(self):
        dom = Domain("torus", 16)
        vals = np.ones((3, 16), complex)
        traj = Trajectory(dom, np.array([0.0, 0.1, 0.2]), vals)
        assert np.allclose(traj.mass(), np.sqrt(2 * np.pi))

    def test_mass_sums_in_row_blocks(self):
        # gauged-evolution's largest trajectory, 401 slices at n = 1024: a
        # whole-array |.|^2 would allocate a float temporary half its size
        dom = Domain("line", 1024, 8)
        rng = np.random.default_rng(6)
        vals = rng.normal(size=(401, 1024)) + 1j * rng.normal(size=(401, 1024))
        traj = Trajectory(dom, 5e-4 * np.arange(401), vals)
        tracemalloc.start()
        try:
            mass = traj.mass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * vals.nbytes
        assert np.array_equal(
            mass, np.sqrt(np.sum(np.abs(vals) ** 2, axis=-1) * dom.dx))

    @pytest.mark.parametrize("shape", [(64,), (3, 64), (401, 2, 64), (5000, 64)])
    def test_square_sums_keep_the_whole_sums_bits(self, shape):
        # each row is reduced on its own, however the rows are blocked
        rng = np.random.default_rng(7)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = _square_sums(vals)
        assert got.shape == shape[:-1]
        assert np.array_equal(got, np.sum(np.abs(vals) ** 2, axis=-1))


class TestSpaceTimeField:
    def test_round_trip(self):
        dom = Domain("torus", 16)
        rng = np.random.default_rng(5)
        times = -1.0 + 0.125 * np.arange(16)
        vals = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        u = SpaceTimeField.from_time_values(dom, times, GridFunction(dom, vals).to_spectral())
        back = u.to_time_values()
        assert np.max(np.abs(back - vals)) < 1e-12 * np.max(np.abs(vals))

    def test_travelling_mode_lands_on_lattice_point(self):
        dom = Domain("torus", 16)
        dt = np.pi / 32
        times = -128 * dt + dt * np.arange(256)
        # u = e^{i(2x - 3t)}: uhat concentrated at (xi, tau) = (2, -3)
        vals = np.exp(1j * (2 * dom.x[None, :] - 3.0 * times[:, None]))
        u = SpaceTimeField.from_time_values(dom, times, GridFunction(dom, vals).to_spectral())
        ix = int(np.argmin(np.abs(dom.xi - 2)))
        it = int(np.argmin(np.abs(u.lattice.tau + 3.0)))
        mag = np.abs(u.coeffs)
        assert mag[ix, it] == pytest.approx(np.max(mag))
        # all mass on the xi = 2 row
        assert np.sum(mag[np.arange(16) != ix, :]) < 1e-9 * mag[ix, it]

    def test_l2_matches_time_slice_sum(self):
        dom = Domain("torus", 16)
        rng = np.random.default_rng(6)
        times = 0.05 * np.arange(64)
        vals = rng.normal(size=(64, 16)) + 1j * rng.normal(size=(64, 16))
        u = SpaceTimeField.from_time_values(dom, times, GridFunction(dom, vals).to_spectral())
        direct = np.sqrt(np.sum(np.abs(vals) ** 2) * dom.dx * 0.05)
        assert xsb_norm(u, 0.0, 0.0, +1) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("dom", [Domain("torus", 32), Domain("line", 64, 4)],
                             ids=lambda d: d.kind)
    def test_batch_equals_one_call_per_member(self, dom):
        rng = np.random.default_rng(8)
        times = -1.0 + np.arange(128) / 64.0
        vals = rng.normal(size=(3, 128, dom.n_points)) \
            + 1j * rng.normal(size=(3, 128, dom.n_points))
        single = [SpaceTimeField.from_time_values(dom, times,
                                                  GridFunction(dom, v).to_spectral())
                  for v in vals]
        batch = SpaceTimeField.from_time_values(dom, times,
                                                GridFunction(dom, vals).to_spectral())
        assert batch.coeffs.shape == (3, dom.n_points, 128)
        for j, u in enumerate(single):
            assert np.array_equal(batch.coeffs[j], u.coeffs)
            assert np.array_equal(batch.to_time_values()[j], u.to_time_values())
        # per-slice coefficients, stored xi-major as the probes keep them
        slices_hat = np.fft.fft(vals, axis=-1) * (dom.dx / np.sqrt(2 * np.pi))
        by_xi = np.ascontiguousarray(np.swapaxes(slices_hat, -1, -2))
        spectral = SpaceTimeField.from_time_values(
            dom, times, SpectralField(dom, np.swapaxes(by_xi, -1, -2)))
        assert np.array_equal(spectral.coeffs, batch.coeffs)

    @pytest.mark.parametrize("dom", [Domain("torus", 32), Domain("line", 64, 4)],
                             ids=lambda d: d.kind)
    def test_dense_norms_do_not_depend_on_the_input_layout(self, dom):
        # the same per-slice coefficients stored time-major (as a trajectory
        # holds them) and xi-major (as the probes build them) give one
        # tau-contiguous field, so every block norm has one set of bits
        rng = np.random.default_rng(15)
        times = -2.0 + 0.02 * np.arange(200)
        by_time = rng.normal(size=(4, 200, dom.n_points)) \
            + 1j * rng.normal(size=(4, 200, dom.n_points))
        by_xi = np.ascontiguousarray(np.swapaxes(by_time, -1, -2))
        a = SpaceTimeField.from_time_values(dom, times, SpectralField(dom, by_time))
        b = SpaceTimeField.from_time_values(
            dom, times, SpectralField(dom, np.swapaxes(by_xi, -1, -2)))
        assert np.array_equal(a.coeffs, b.coeffs)
        for s, bb, sign, space in [(0.0, 0.5, +1, "X"), (0.5, -0.4375, -1, "X"),
                                   (0.5, 0.0, +1, "Y")]:
            assert np.array_equal(block_norms(a, s, bb, sign, space),
                                  block_norms(b, s, bb, sign, space))
        assert np.array_equal(xsb_norm(a, 0.0, 0.5, +1), xsb_norm(b, 0.0, 0.5, +1))
        assert a.coeffs.flags.c_contiguous and b.coeffs.flags.c_contiguous

    @staticmethod
    def _rows_input(dom, n_t, seed, shift):
        """Per-slice coefficients (3, n_t, n), stored xi-major, that vanish
        off a row mask (3, n): member 0 keeps every third row, member 1
        every fifth with a NaN in its first, member 2 none."""
        rng = np.random.default_rng(seed)
        n = dom.n_points
        rows = np.zeros((3, n), dtype=bool)
        rows[0, shift::3] = True
        rows[1, shift::5] = True
        by_xi = rng.normal(size=(3, n, n_t)) + 1j * rng.normal(size=(3, n, n_t))
        by_xi[~rows] = 0.0
        by_xi[1, shift, 7] = np.nan
        return by_xi, rows

    @staticmethod
    def _dense_and_compact(dom, times, by_xi, rows):
        """The dense field of per-slice coefficients stored xi-major, and
        the compact field of the same data's live rows."""
        dense = SpaceTimeField.from_time_values(
            dom, times, SpectralField(dom, np.swapaxes(by_xi, -1, -2)))
        compact = SpaceTimeField.from_time_values(dom, times, by_xi[..., rows, :],
                                                  rows=rows)
        return dense, compact

    @pytest.mark.parametrize("dom", [Domain("torus", 32), Domain("line", 64, 4)],
                             ids=lambda d: d.kind)
    def test_compact_rows_have_the_bits_of_the_dense_transform(self, dom):
        times = -1.0 + np.arange(128) / 64.0
        by_xi, rows = self._rows_input(dom, 128, 9, 1)
        dense, got = self._dense_and_compact(dom, times, by_xi, rows)
        assert got.lattice == dense.lattice and got.rows is rows
        assert got.coeffs.shape == (np.count_nonzero(rows), 128)
        assert np.array_equal(got.coeffs, dense.coeffs[rows], equal_nan=True)
        # the rows left out, member 2's included, are zero in the dense field
        assert not np.any(dense.coeffs[~rows])
        # the NaN entry spreads over its own row alone
        nan_row = np.count_nonzero(rows[0])
        assert np.isnan(got.coeffs[nan_row]).all()
        assert not np.isnan(np.delete(got.coeffs, nan_row, axis=0)).any()
        # one member alone
        one = SpaceTimeField.from_time_values(dom, times, by_xi[0][rows[0]],
                                              rows=rows[0])
        assert np.array_equal(one.coeffs, dense.coeffs[0][rows[0]])

    def test_compact_rows_on_a_window_axis(self):
        dom = Domain("torus", 32)
        times = -1.0 + np.arange(128) / 64.0
        by_xi, rows = self._rows_input(dom, 128, 10, 2)
        w = np.stack([np.cos(times), 0.5 + times ** 2])[:, None, None, :]
        dense, got = self._dense_and_compact(dom, times, by_xi * w, rows)
        assert got.coeffs.shape == (2, np.count_nonzero(rows), 128)
        assert np.array_equal(got.coeffs, dense.coeffs[:, rows], equal_nan=True)
        for j in range(2):
            alone = SpaceTimeField.from_time_values(
                dom, times, SpectralField(dom, np.swapaxes(by_xi * w[j], -1, -2)))
            assert np.array_equal(got.coeffs[j], alone.coeffs[rows], equal_nan=True)

    def test_compact_field_with_no_live_row(self):
        dom = Domain("torus", 32)
        times = -1.0 + np.arange(128) / 64.0
        rows = np.zeros((2, 3, dom.n_points), dtype=bool)
        by_xi = np.zeros((4, 2, 3, dom.n_points, 128), dtype=np.complex128)
        dense, got = self._dense_and_compact(dom, times, by_xi, rows)
        assert got.coeffs.shape == (4, 0, 128) and got.rows is rows
        assert not np.any(dense.coeffs)

    def test_members_slice_the_compact_order(self):
        # members(start, stop) against slicing the compact rows by hand at
        # the cumulative row counts of the members, every range included
        dom = Domain("torus", 32)
        times = -1.0 + np.arange(128) / 64.0
        by_xi, rows = self._rows_input(dom, 128, 11, 0)
        w = np.stack([np.cos(times), 0.5 + times ** 2])[:, None, None, :]
        _, u = self._dense_and_compact(dom, times, by_xi * w, rows)
        edges = np.concatenate(([0], np.cumsum(np.count_nonzero(rows, axis=-1))))
        for start in range(4):
            for stop in range(start, 4):
                got = u.members(start, stop)
                assert got.lattice == u.lattice
                assert np.array_equal(got.rows, rows[start:stop])
                assert np.array_equal(got.coeffs,
                                      u.coeffs[:, edges[start]:edges[stop]],
                                      equal_nan=True)
                assert np.shares_memory(got.coeffs, u.coeffs) or got.coeffs.size == 0
        assert np.array_equal(block_norms(u.members(0, 1), 0.5, 0.5)[:, 0],
                              block_norms(u, 0.5, 0.5)[:, 0], equal_nan=True)

    def test_compact_rows_must_match_coefficients(self):
        lat = ModulationLattice(Domain("torus", 16), 8, 0.1, 0.0)
        rows = np.zeros((2, 16), dtype=bool)
        rows[:, 3] = True
        SpaceTimeField(lat, np.zeros((5, 2, 8)), rows)
        with pytest.raises(ValueError):
            SpaceTimeField(lat, np.zeros((3, 8)), rows)
        with pytest.raises(ValueError):
            SpaceTimeField(lat, np.zeros((2, 8)), rows[:, :8])

    def test_spectral_input_must_match_domain(self):
        times = 0.1 * np.arange(8)
        f = SpectralField(Domain("torus", 16), np.zeros((8, 16)))
        with pytest.raises(DomainMismatchError):
            SpaceTimeField.from_time_values(Domain("torus", 32), times, f)
