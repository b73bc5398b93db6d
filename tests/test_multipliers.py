"""Resonance identity and the trilinear multiplier family."""

import numpy as np
import pytest

from dnls_lab import scenarios
from dnls_lab.fields import _row_blocks
from dnls_lab.frequency import bracket
from dnls_lab.multipliers import (REGIME_LABELS, domination_ratio_arrays,
                                  multiplier_pieces, resonance_residuals,
                                  resonance_scale, sample_points)
from dnls_lab.scenarios import _RESONANCE_BLOCK_BYTES, _resonance_batch

from tests_support import cli_defaults, reference_sample_points, traced_peak

# the delta of the Mt family that verify-domination runs at by default
DELTA = cli_defaults("verify-domination")["delta"]


def per_tag(tag, xi1, xi2, xi3, tau1, tau2, tau3, delta):
    """One multiplier per call, each with its own brackets and region."""
    xi = xi1 + xi2 + xi3
    tau = tau1 + tau2 + tau3
    b_out = bracket(tau + xi ** 2)
    b1 = bracket(tau1 + xi1 ** 2)
    b2 = bracket(tau2 + xi2 ** 2)
    b3 = bracket(tau3 - xi3 ** 2)
    g, g1, g2, g3 = bracket(xi), bracket(xi1), bracket(xi2), bracket(xi3)
    # the largest modulation, ties to the lowest index
    region = np.argmax(np.abs([tau + xi ** 2, tau1 + xi1 ** 2, tau2 + xi2 ** 2,
                               tau3 - xi3 ** 2]), axis=0)

    def ind(j):
        return (region == j).astype(float)

    if tag == "Mt0":
        e = 0.5 + delta
        return ind(0) / (b1 ** e * b2 ** e * b3 ** e
                         * g ** (0.5 - 3.0 * delta) * g1 ** 0.5 * g2 ** 0.5
                         * g3 ** (0.5 - 3.0 * delta))
    base = tag.replace("Mt", "M")
    if base == "M":
        out = (g ** 0.5 * np.abs(xi3)
               / (b_out ** 0.5 * b1 ** 0.5 * b2 ** 0.5 * b3 ** 0.5
                  * g1 ** 0.5 * g2 ** 0.5 * g3 ** 0.5))
    elif base == "M0":
        out = ind(0) / (b1 ** 0.5 * b2 ** 0.5 * b3 ** 0.5 * g1 ** 0.5 * g2 ** 0.5)
    elif base == "M1":
        out = ind(1) / (b_out ** 0.5 * b2 ** 0.5 * b3 ** 0.5 * g1 ** 0.5 * g2 ** 0.5)
    elif base == "M2":
        out = ind(2) / (b_out ** 0.5 * b1 ** 0.5 * b3 ** 0.5 * g1 ** 0.5 * g2 ** 0.5)
    elif base == "M3":
        out = ind(3) / (b_out ** 0.5 * b1 ** 0.5 * b2 ** 0.5 * g1 ** 0.5 * g2 ** 0.5)
    else:
        out = 1.0 / (b_out ** (7.0 / 16.0) * b1 ** (7.0 / 16.0)
                     * b2 ** (7.0 / 16.0) * b3 ** (7.0 / 16.0))
    return out / b_out ** 0.5 if tag.startswith("Mt") else out


def point(xi_vec, tau_vec):
    """One hyperplane point as six length-1 coordinate arrays."""
    return tuple(np.array([float(c)]) for c in (*xi_vec, *tau_vec))


class TestResonance:
    def test_explicit_example(self):
        # xi = 6, both sides equal 2 * 5 * 4 = 40
        tau_vec = (0.3, -0.7, 1.1)
        combo = (sum(tau_vec) + 6 ** 2) - (tau_vec[0] + 1 + tau_vec[1] + 4
                                           + tau_vec[2] - 9)
        assert combo == pytest.approx(40.0)
        r1, r2, _ = resonance_residuals(*point((1, 2, 3), tau_vec))
        assert r1[0] < 1e-12 and r2[0] < 1e-12

    def test_degenerate_factor(self):
        # xi1 = xi forces xi2 + xi3 = 0 and both sides vanish
        r1, r2, _ = resonance_residuals(*point((5, 2, -2), (0.1, 0.2, 0.3)))
        assert r1[0] < 1e-12 and r2[0] < 1e-12

    @pytest.mark.parametrize("lattice", ["Z", "R"])
    def test_bulk_random(self, lattice):
        rng = np.random.default_rng(0)
        pts = sample_points(rng, 10 ** 5, 1e3, lattice, "uniform")
        r1, r2, gap = resonance_residuals(*pts)
        scale = resonance_scale(*pts)
        assert np.max(np.maximum(r1, r2) / (1.0 + scale)) < 1e-9
        assert np.min(gap / (1.0 + scale)) > -1e-9


def stacked_residuals(xi1, xi2, xi3, tau1, tau2, tau3):
    """The resonance residuals with max A taken over a (4, n) stack."""
    xi = xi1 + xi2 + xi3
    tau = tau1 + tau2 + tau3
    combo = (tau + xi ** 2) - (tau1 + xi1 ** 2 + tau2 + xi2 ** 2 + tau3 - xi3 ** 2)
    prod = 2.0 * (xi - xi1) * (xi - xi2)
    rhs = 2.0 * np.abs(xi1 + xi3) * np.abs(xi2 + xi3)
    mods = np.stack([np.abs(tau + xi ** 2), np.abs(tau1 + xi1 ** 2),
                     np.abs(tau2 + xi2 ** 2), np.abs(tau3 - xi3 ** 2)])
    return (np.abs(combo - prod), np.abs(np.abs(prod) - rhs),
            4.0 * np.max(mods, axis=0) - rhs)


def stacked_scale(xi1, xi2, xi3, tau1, tau2, tau3):
    """The resonance scale as the max over an (8, n) stack."""
    xi = xi1 + xi2 + xi3
    tau = tau1 + tau2 + tau3
    return np.max(np.stack([np.abs(tau), np.abs(tau1), np.abs(tau2), np.abs(tau3),
                            xi ** 2, xi1 ** 2, xi2 ** 2, xi3 ** 2]), axis=0)


class TestStackFreeResonance:
    @pytest.mark.parametrize("lattice", ["Z", "R"])
    @pytest.mark.parametrize("regime", REGIME_LABELS)
    def test_bits_of_the_stacked_maxima(self, lattice, regime):
        pts = sample_points(np.random.default_rng(17), 4000, 1e3, lattice, regime)
        copies = [p.copy() for p in pts]
        for got, ref in zip(resonance_residuals(*pts), stacked_residuals(*copies)):
            assert np.array_equal(got, ref)
        assert np.array_equal(resonance_scale(*pts), stacked_scale(*copies))
        # the inputs are read, never written
        assert all(np.array_equal(p, c) for p, c in zip(pts, copies))

    # n = 1, one block, one block + 1, and a ragged batch of many blocks
    BLOCK = _RESONANCE_BLOCK_BYTES // 8

    @pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 10 ** 5 + 7])
    @pytest.mark.parametrize("nan_at", [None, "middle block"])
    def test_blocked_fold_is_the_whole_batch_max(self, monkeypatch, n, nan_at):
        pts = sample_points(np.random.default_rng(29), n, 1e3, "R", "IIb1-")
        if nan_at is not None:
            blocks = _row_blocks(n, 8, _RESONANCE_BLOCK_BYTES)
            pts[4][blocks[len(blocks) // 2].start] = np.nan
        monkeypatch.setattr(scenarios, "sample_points",
                            lambda *args: tuple(p.copy() for p in pts))
        r1, r2, gap = stacked_residuals(*pts)
        scale = 1.0 + stacked_scale(*pts)
        whole = (np.max(np.maximum(r1, r2) / scale), np.max(-gap / scale))
        got = _resonance_batch(None, n, 1e3, "R", "IIb1-")
        assert np.array_equal(got, whole, equal_nan=True)
        assert np.isnan(got).all() == (nan_at is not None)
        if n > 10 ** 5:
            assert len(_row_blocks(n, 8, _RESONANCE_BLOCK_BYTES)) > 2


class TestSamplerStream:
    """sample_points forms its points in place of its draws; the generator
    calls, their order and sizes, and every float operation are those of
    the expression oracle, so each output and the generator's final state
    agree bit for bit.  The verify-resonance goldens sit below 1e-12 and
    are compared one-sidedly, so they would not see a reordered draw."""

    @pytest.mark.parametrize("seed", [3, 4242])
    @pytest.mark.parametrize("lattice", ["Z", "R"])
    @pytest.mark.parametrize("regime", REGIME_LABELS)
    def test_bits_of_the_expression_oracle(self, seed, lattice, regime):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for n, box in ((2000, 1e3), (1, 5.0)):
            got = sample_points(rng, n, box, lattice, regime)
            ref = reference_sample_points(ref_rng, n, box, lattice, regime)
            for g, r in zip(got, ref, strict=True):
                assert g.dtype == r.dtype and np.array_equal(g, r)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestPeakMemory:
    # one point array of a 10^5-point batch, verify-resonance's regime size
    POINTS = 8 * 10 ** 5

    @pytest.mark.parametrize("lattice", ["Z", "R"])
    @pytest.mark.parametrize("regime", REGIME_LABELS)
    def test_resonance_batch_holds_few_point_arrays(self, lattice, regime):
        # at the last draw: three xi, the three broadband taus (which
        # become the points' taus), three jitters, the near mask and one
        # temporary, about 10 point arrays, with the residuals in row
        # blocks; a sampler that keeps its magnitudes and exponents alive
        # and forms every expression in a fresh array reached 16 to 19
        peak = traced_peak(_resonance_batch, np.random.default_rng(0), 10 ** 5,
                           1e3, lattice, regime)
        assert peak <= 12 * self.POINTS


class TestMultiplierEvaluation:
    def test_zero_third_frequency(self):
        p = point((1, -1, 0), (0.5, 0.5, 0.5))
        assert multiplier_pieces("M", *p, DELTA)[0][0] == 0.0

    def test_origin_is_region_zero(self):
        p = point((0, 0, 0), (0, 0, 0))
        _, pieces = multiplier_pieces("M", *p, DELTA)
        assert pieces[0][0] == 1.0
        assert pieces[1][0] == 0.0

    def test_indicator_partition(self):
        rng = np.random.default_rng(1)
        pts = sample_points(rng, 10 ** 4, 100.0, "R", "uniform")
        # exactly one of the region pieces M_0..M_3 is nonzero at each point
        _, pieces = multiplier_pieces("M", *pts, DELTA)
        total = sum((p != 0).astype(int) for p in pieces[:4])
        assert np.all(total == 1)

    def test_explicit_m_value(self):
        # hand-computed |M| at a concrete point
        xi1, xi2, xi3 = 2.0, -1.0, 3.0
        t1, t2, t3 = 0.5, 1.0, -2.0
        xi, tau = 4.0, -0.5
        num = bracket(xi) ** 0.5 * abs(xi3)
        den = (bracket(tau + xi ** 2) ** 0.5 * bracket(t1 + xi1 ** 2) ** 0.5
               * bracket(t2 + xi2 ** 2) ** 0.5 * bracket(t3 - xi3 ** 2) ** 0.5
               * bracket(xi1) ** 0.5 * bracket(xi2) ** 0.5 * bracket(xi3) ** 0.5)
        p = point((xi1, xi2, xi3), (t1, t2, t3))
        assert multiplier_pieces("M", *p, DELTA)[0][0] == pytest.approx(num / den)

    def test_damped_family_identity(self):
        rng = np.random.default_rng(2)
        pts = sample_points(rng, 1000, 50.0, "R", "uniform")
        m, _ = multiplier_pieces("M", *pts, DELTA)
        mt, _ = multiplier_pieces("Mt", *pts, DELTA)
        xi = pts[0] + pts[1] + pts[2]
        tau = pts[3] + pts[4] + pts[5]
        expected = m / bracket(tau + xi ** 2) ** 0.5
        assert np.max(np.abs(mt - expected)) < 1e-12 * max(np.max(m), 1.0)

    def test_family_validation(self):
        with pytest.raises(ValueError, match="M9"):
            multiplier_pieces("M9", *point((1, 2, 3), (0, 0, 0)), DELTA)

    @pytest.mark.parametrize("family", ["M", "Mt"])
    @pytest.mark.parametrize("lattice", ["Z", "R"])
    def test_pieces_match_per_tag_formulas(self, family, lattice):
        # the helper shares brackets and regions between the six quantities
        # but keeps every product's association order: bitwise equal to one
        # evaluation per tag
        rng = np.random.default_rng(12)
        delta = 1.0 / 24.0
        for regime in REGIME_LABELS:
            pts = sample_points(rng, 500, 100.0, lattice, regime)
            num, pieces = multiplier_pieces(family, *pts, delta=delta)
            ref_num = per_tag(family, *pts, delta=delta)
            ref_pieces = [per_tag(f"{family}{j}", *pts, delta=delta) for j in range(5)]
            assert np.array_equal(num, ref_num)
            for piece, ref in zip(pieces, ref_pieces):
                assert np.array_equal(piece, ref)
            ratio, over_m4 = domination_ratio_arrays(family, *pts, delta=delta)
            assert np.array_equal(ratio, np.where(ref_num == 0.0, 0.0,
                                                  ref_num / sum(ref_pieces)))
            assert np.array_equal(over_m4, np.where(ref_num == 0.0, 0.0,
                                                    ref_num / ref_pieces[4]))


class TestDomination:
    def test_zero_numerator_counts_as_zero(self):
        r, over_m4 = domination_ratio_arrays("M", np.array([1.0]), np.array([-1.0]),
                                             np.array([0.0]), np.array([0.0]),
                                             np.array([0.0]), np.array([0.0]), DELTA)
        assert r[0] == 0.0
        assert over_m4[0] == 0.0

    @pytest.mark.parametrize("family", ["M", "Mt"])
    @pytest.mark.parametrize("lattice", ["Z", "R"])
    def test_bounded_over_regimes(self, family, lattice):
        rng = np.random.default_rng(3)
        worst = 0.0
        for regime in REGIME_LABELS:
            pts = sample_points(rng, 2000, 100.0, lattice, regime)
            worst = max(worst, float(np.max(
                domination_ratio_arrays(family, *pts, DELTA)[0])))
        assert np.isfinite(worst)
        assert worst < 10.0

    def test_case_ii_dominated_by_m4_alone(self):
        rng = np.random.default_rng(4)
        pts = sample_points(rng, 10 ** 4, 100.0, "R", "IIa")
        xi = pts[0] + pts[1] + pts[2]
        case2 = (np.abs(xi) <= 2 * np.abs(pts[0])) & (np.abs(xi) <= 2 * np.abs(pts[1]))
        assert np.any(case2)
        num, pieces = multiplier_pieces("M", *pts, DELTA)
        ratio = np.where(num == 0, 0.0, num / pieces[4])[case2]
        assert np.max(ratio) < 10.0
        assert np.array_equal(domination_ratio_arrays("M", *pts, DELTA)[1][case2], ratio)

    def test_ratio_scale_invariance(self):
        # the domination ratio is homogeneous of degree zero under a joint
        # rescaling that preserves the parabola structure
        rng = np.random.default_rng(5)
        pts = sample_points(rng, 100, 30.0, "R", "uniform")
        lam = 2.0
        scaled = (lam * pts[0], lam * pts[1], lam * pts[2],
                  lam ** 2 * pts[3], lam ** 2 * pts[4], lam ** 2 * pts[5])
        a, _ = domination_ratio_arrays("M", *pts, DELTA)
        b, _ = domination_ratio_arrays("M", *scaled, DELTA)
        # not equal pointwise (brackets are inhomogeneous) but both bounded
        # by the same constant; check boundedness and finiteness here
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))


class TestSamplers:
    @pytest.mark.parametrize("regime", REGIME_LABELS)
    @pytest.mark.parametrize("lattice", ["Z", "R"])
    def test_hyperplane_exact(self, regime, lattice):
        rng = np.random.default_rng(6)
        pts = sample_points(rng, 500, 100.0, lattice, regime)
        assert all(p.shape == (500,) for p in pts)
        if lattice == "Z":
            for p in pts[:3]:
                assert np.allclose(p, np.rint(p))

    def test_regime_magnitude_ordering(self):
        rng = np.random.default_rng(7)
        xi1, xi2, xi3, *_ = sample_points(rng, 1000, 100.0, "R", "I")
        # case I: N1 <= N2 << N3
        assert np.median(np.abs(xi3)) > 8 * np.median(np.abs(xi2))

    def test_unknown_regime(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            sample_points(rng, 10, 100.0, "Z", "IV")
