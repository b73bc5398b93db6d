"""Grids, transforms, dealiased products, space-time fields."""

import tracemalloc

import numpy as np
import pytest

from dnls_lab.errors import DomainMismatchError
from dnls_lab.fields import (Domain, GridFunction, ModulationLattice, SpaceTimeField,
                             SpectralField, Trajectory, _conj_reverse, _deriv_mult,
                             _square_sums, band_truncate, dealiased_product_coeffs,
                             padded_values, scaled_fft, scaled_ifft, truncated_coeffs)
from dnls_lab.nonlinear import power_nonlinearity
from dnls_lab.spaces import block_norms, xsb_norm

from tests_support import conj_flip, dense_spacetime, unit_mass, zero_grid


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


def _product_values(factors):
    """Grid values of the dealiased product of GridFunction factors."""
    dom = factors[0].domain
    out = dealiased_product_coeffs(dom, [f.to_spectral().coeffs for f in factors])
    return SpectralField(dom, out).to_grid().values


def _random_coeffs(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _named_product(dom, c1, c2, c3):
    """The dealiased product of three factors written out: each padded by
    padded_values, multiplied left to right on named operands, truncated."""
    nf = 2 * dom.n_points
    w1, w2, w3 = (padded_values(dom, c, nf) for c in (c1, c2, c3))
    w12 = w1 * w2
    prod = w12 * w3
    return truncated_coeffs(dom, prod)


class TestDealiasedProduct:
    def test_matches_exact_product_of_trig_polys(self):
        dom = Domain("torus", 64)
        f = GridFunction(dom, np.exp(2j * dom.x) + 0.5)
        g = GridFunction(dom, np.exp(-5j * dom.x) - 1j)
        out = _product_values([f, g])
        exact = f.values * g.values
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_cubic_with_conjugate(self):
        # the conjugate factor lives in power_nonlinearity, which conjugates
        # its padded samples
        dom = Domain("torus", 64)
        v = GridFunction(dom, 0.7 * np.exp(1j * dom.x) + 0.2 * np.exp(-2j * dom.x))
        out = power_nonlinearity(v, 1.0, 1).values
        exact = v.values * v.values * np.conj(v.values)
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_padding_insensitive_on_band_limited_data(self):
        # the one pad factor a caller sets is power_nonlinearity's: the
        # cube at 2x and 4x, the quintic at 4x and 8x
        dom = Domain("torus", 64)
        rng = np.random.default_rng(3)
        coeffs = np.zeros(64, complex)
        for k in range(-8, 9):  # occupies n/8 modes
            coeffs[k % 64] = rng.normal() + 1j * rng.normal()
        v = SpectralField(dom, coeffs).to_grid()
        for k, pad in [(1, 2), (2, 4)]:
            a = power_nonlinearity(v, 1.0, k, pad).values
            b = power_nonlinearity(v, 1.0, k, 2 * pad).values
            scale = np.max(np.abs(a))
            assert np.max(np.abs(a - b)) < 1e-10 * max(scale, 1.0)

    @pytest.mark.parametrize("conj", [[False, False, True],
                                      [False, True, False, True, False]])
    def test_repeated_factor_is_bit_identical_to_copies(self, conj):
        # one array passed as several factors (trilinear_T_slices' diagonal
        # call passes c twice) must not move a bit: padding a factor writes
        # a fresh buffer, never its input or another factor's samples; the
        # conjugate factors are passed as their own coefficients
        dom = Domain("torus", 64)
        rng = np.random.default_rng(8)
        c = rng.normal(size=64) + 1j * rng.normal(size=64)
        cb = _conj_reverse(c)
        same = dealiased_product_coeffs(dom, [cb if j else c for j in conj])
        copies = dealiased_product_coeffs(dom, [(cb if j else c).copy() for j in conj])
        assert np.array_equal(same, copies)

    def test_is_the_named_left_to_right_product(self):
        # numpy's complex multiply is not bitwise commutative, and it may
        # evaluate x * f(...) into f(...)'s fresh temporary with the
        # operands swapped (for arrays of 256 KiB or more, as the fine
        # (8, 2048) product here): the product must keep its order
        dom = Domain("line", 1024, 4)
        cs = _random_coeffs(np.random.default_rng(11), (3, 8, 1024))
        assert np.array_equal(dealiased_product_coeffs(dom, list(cs)),
                              _named_product(dom, *cs))

    def test_row_subset_keeps_the_bits_of_the_batch(self):
        # the window probes evaluate a product on the kept slices alone, and
        # must get the full batch's rows: here the batch's fine product is
        # large enough for numpy to reuse a temporary, the subset's is not
        dom = Domain("line", 1024, 4)
        cs = _random_coeffs(np.random.default_rng(12), (3, 24, 1024))
        rows = [0, 3, 4, 10, 23]
        full = dealiased_product_coeffs(dom, list(cs))
        sub = dealiased_product_coeffs(dom, [c[rows] for c in cs])
        assert np.array_equal(sub, _named_product(dom, *cs[:, rows]))
        assert np.array_equal(sub, full[rows])


def _transform(op, n):
    """The operation op of fields on stacks (..., n) of a torus domain's
    coefficients or samples; band_truncate reads them as samples of a fine
    grid on n points, and keeps the band of an n/2-point one."""
    dom = Domain("torus", n)
    return {
        "scaled_fft": lambda x: scaled_fft(x, 0.3),
        "scaled_ifft": lambda x: scaled_ifft(x, 1.7),
        "scaled_ifft_in_place": lambda x: scaled_ifft(x, 1.7, x),
        "padded_values": lambda x: padded_values(dom, x, 2 * n),
        "band_truncate": lambda x: band_truncate(
            x, 0.3, None, np.empty(x.shape[:-1] + (2, n // 4), dtype=np.complex128)),
    }[op]


class TestStackedTransforms:
    """Each row of a (k, ..., n) stack gets exactly the bits of its own call:
    the batched solver and probe paths, and any stacking of transforms,
    rely on it."""

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("op", ["scaled_fft", "scaled_ifft", "scaled_ifft_in_place",
                                    "padded_values", "band_truncate"])
    def test_every_row_keeps_the_bits_of_its_own_call(self, op, n):
        rng = np.random.default_rng(n)
        f = _transform(op, n)
        for k in range(1, 9):
            stack = _random_coeffs(rng, (k, 2, n))
            got = f(stack.copy())
            for j in range(k):
                for i in range(2):
                    assert np.array_equal(got[j, i], f(stack[j, i].copy()))

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_in_place_inverse_keeps_the_bits_of_a_fresh_one(self, n):
        # padded_values transforms its buffer in place
        stack = _random_coeffs(np.random.default_rng(n), (8, 2, n))
        fresh = scaled_ifft(stack, 1.7)
        assert np.array_equal(scaled_ifft(stack, 1.7, stack), fresh)


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
        u = dense_spacetime(dom, times, GridFunction(dom, vals).to_spectral().coeffs)
        back = u.to_time_values()
        assert np.max(np.abs(back - vals)) < 1e-12 * np.max(np.abs(vals))

    def test_travelling_mode_lands_on_lattice_point(self):
        dom = Domain("torus", 16)
        dt = np.pi / 32
        times = -128 * dt + dt * np.arange(256)
        # u = e^{i(2x - 3t)}: uhat concentrated at (xi, tau) = (2, -3)
        vals = np.exp(1j * (2 * dom.x[None, :] - 3.0 * times[:, None]))
        u = dense_spacetime(dom, times, GridFunction(dom, vals).to_spectral().coeffs)
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
        u = dense_spacetime(dom, times, GridFunction(dom, vals).to_spectral().coeffs)
        direct = np.sqrt(np.sum(np.abs(vals) ** 2) * dom.dx * 0.05)
        assert xsb_norm(u, 0.0, 0.0, +1) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("dom", [Domain("torus", 32), Domain("line", 64, 4)],
                             ids=lambda d: d.kind)
    def test_batch_equals_one_call_per_member(self, dom):
        rng = np.random.default_rng(8)
        times = -1.0 + np.arange(128) / 64.0
        vals = rng.normal(size=(3, 128, dom.n_points)) \
            + 1j * rng.normal(size=(3, 128, dom.n_points))
        slices_hat = GridFunction(dom, vals).to_spectral().coeffs
        single = [dense_spacetime(dom, times, c) for c in slices_hat]
        batch = dense_spacetime(dom, times, slices_hat)
        assert batch.coeffs.shape == (3, dom.n_points, 128)
        for j, u in enumerate(single):
            assert np.array_equal(batch.coeffs[j], u.coeffs)
            assert np.array_equal(batch.to_time_values()[j], u.to_time_values())
        # the same fields as three members of one field, not three windows
        by_xi = np.ascontiguousarray(np.swapaxes(slices_hat, -1, -2))
        members = SpaceTimeField.from_time_values(
            dom, times, by_xi.reshape(-1, 128),
            rows=np.ones((3, dom.n_points), dtype=bool))
        assert np.array_equal(members.coeffs, batch.coeffs.reshape(-1, 128))
        assert np.array_equal(members.to_time_values(), batch.to_time_values())

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
        """The field with every row live of per-slice coefficients stored
        xi-major, and the field of the same data's live rows."""
        dense = dense_spacetime(dom, times, np.swapaxes(by_xi, -1, -2))
        compact = SpaceTimeField.from_time_values(
            dom, times, np.ascontiguousarray(by_xi[..., rows, :]), rows=rows)
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
            alone = dense_spacetime(dom, times, np.swapaxes(by_xi * w[j], -1, -2))
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

    def test_round_trip_of_a_compact_field(self):
        # a window axis and three members, member 2 with no live row: the
        # live rows scattered back give every slice's samples, zero rows
        # included
        dom = Domain("line", 64, 4)
        times = -1.0 + np.arange(128) / 64.0
        by_xi, rows = self._rows_input(dom, 128, 12, 1)
        by_xi[1, 1, 7] = 1.0    # no NaN: every sample is compared
        w = np.stack([np.cos(times), 0.5 + times ** 2])[:, None, None, :]
        by_xi = by_xi * w
        expect = SpectralField(dom, np.swapaxes(by_xi, -1, -2)).to_grid().values
        u = SpaceTimeField.from_time_values(
            dom, times, np.ascontiguousarray(by_xi[..., rows, :]), rows=rows)
        back = u.to_time_values()
        assert back.shape == (2, 3, 128, dom.n_points)
        assert np.max(np.abs(back - expect)) < 1e-12 * np.max(np.abs(expect))
        assert not np.any(back[:, 2])

    def test_strided_values_raise(self):
        dom = Domain("torus", 16)
        times = 0.1 * np.arange(8)
        rows = np.zeros(16, dtype=bool)
        rows[[1, 3]] = True
        values = np.zeros((8, 2), dtype=np.complex128).T
        with pytest.raises(ValueError, match="C-contiguous"):
            SpaceTimeField.from_time_values(dom, times, values, rows=rows)
        SpaceTimeField.from_time_values(dom, times, values.copy(), rows=rows)
