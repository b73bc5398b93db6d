"""Right-hand-side nonlinearities and the multilinear forms of the
estimates.

Pointwise products are dealiased by zero padding and derivatives act
spectrally.  The multilinear forms and power_nonlinearity pad each factor
through fields.padded_values, the one allocating pad (the trilinear form
through fields.dealiased_product_coeffs); each right-hand side pads once,
into the preallocated spectra of rhs_work, through its views of their
coarse band (rhs_work is the one caller of fields.band outside fields).
Both right-hand sides take and return coefficients, rhs(v: SpectralField,
cfg, work) -> SpectralField.
rhs_gauged pads v and d_x v as one stack: its 2 FFTs are the whole
forcing call's.  rhs_original makes 6: a grid round trip of v (whose
forward transform fixes the bits the plane-wave goldens pin, until those
goldens check an order of convergence instead), the padded inverse, the
stacked truncation, the coarse inverse and the result's forward
transform.  Both write their intermediates and their result into work
arrays from rhs_work, which a caller that evaluates one form many times
builds once (the solver's forcing does): rhs_work also holds the shape's
constants, the derivative multiplier, the transform scales and (gauged)
the torus weight, and the views of its arrays that a call reads and
writes (rows, real parts, the coarse band of a padded spectrum as
fields.band gives it), so that a call neither allocates nor rebuilds them
from Domain properties and slices.  The transforms run through
fields.scaled_fft, scaled_ifft and band_truncate, which take those scales and
work arrays, so that no transform runs outside fields.

The multilinear forms trilinear_T_slices and quintic_Q_general_slices take
and return FFT-ordered coefficient arrays (..., n), row by row, on the
smallest alias-free grid (2x for the trilinear form, 4x for the quintic
one).  Their torus corrections come from the coefficients too: a pair
integral is int a b dx = sum_xi a^(xi) b^(-xi) dxi.  The quintic form
pads each factor once and shares its fine-grid products between its main
term and its corrections; the quadruple integral is the fine-grid sum of
the four-factor product, which the 4x grid holds without aliasing.  The
tests check both forms against brute-force constrained convolution sums,
the Fourier oracles of tests/tests_support.py.

With the package's transform conventions the discrete convolution
constants are (2 pi)^-1 * dxi^2 for the trilinear form and
(2 pi)^-2 * dxi^4 for the quintic form; both are pinned by the
single-mode tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fields import (Domain, GridFunction, SpectralField, _deriv_mult,
                     _min_pad_factor, band, band_truncate, dealiased_product_coeffs,
                     padded_values, scaled_fft, scaled_ifft, transform_scales,
                     truncated_coeffs)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class NonlinearityConfig:
    """lam * |u|^(2 k_power) u strength plus the gauged/original switch."""

    lam: float
    k_power: int
    gauged: bool

    def __post_init__(self):
        if self.k_power < 0 or int(self.k_power) != self.k_power:
            raise ParameterError("k_power must be a nonnegative integer")


def _pair_integrals(dom: Domain, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int a b dx = sum_xi a^(xi) b^(-xi) dxi for every row of the FFT-ordered
    coefficients a, b (..., n), shape (..., 1): kept as arrays, because a
    product of numpy complex scalars is rounded differently from the same
    product in an array, and a row must get the bits of its own call."""
    n = dom.n_points
    return np.sum(a * b[..., -np.arange(n) % n], axis=-1, keepdims=True) * dom.dxi


# ---------------------------------------------------------------------------
# trilinear derivative term
# ---------------------------------------------------------------------------

def trilinear_T_slices(dom: Domain, c1: np.ndarray, c2: np.ndarray,
                       c3: np.ndarray) -> np.ndarray:
    """General trilinear derivative form of the fields v1, v2, v3 with the
    coefficients c1, c2, c3 (..., n), as coefficients, row by row; the
    diagonal call is (c, c, _conj_reverse(c)), the last being the
    coefficients of conj(v).

    Line:  v1 * v2 * d_x v3.
    Torus: the same minus the two mean corrections
           (1/2pi) (int v2 d_x v3) v1 + (1/2pi) (int v1 d_x v3) v2,
    which is the physical-space counterpart of excluding the xi1 = xi and
    xi2 = xi hyperplanes from the convolution sum.
    """
    d3 = _deriv_mult(dom) * c3
    out = dealiased_product_coeffs(dom, [c1, c2, d3])
    if dom.kind == "torus":
        i23 = _pair_integrals(dom, c2, d3)
        i13 = _pair_integrals(dom, c1, d3)
        out -= (i23 * c1 + i13 * c2) / TWO_PI
    return out


# ---------------------------------------------------------------------------
# quintic term
# ---------------------------------------------------------------------------

def quintic_Q_general_slices(dom: Domain, cs: list[np.ndarray]) -> np.ndarray:
    """General five-factor form of the fields w1..w5 with the coefficients
    cs (..., n), one shape for all five, as coefficients, row by row; the
    diagonal call is (c, _conj_reverse(c), c, _conj_reverse(c), c).

    Line:  w1 w2 w3 w4 w5.
    Torus: the inclusion-exclusion complement of the hyperplanes
    k1+k2+k3+k4 = 0, k1+k2 = 0, k3+k4 = 0:
        P - (1/2pi)(int w1 w2 w3 w4) w5
          - (1/2pi)(int w1 w2) w3 w4 w5 - (1/2pi)(int w3 w4) w1 w2 w5
          + 2 (1/2pi)^2 (int w1 w2)(int w3 w4) w5.
    Each factor is padded once, to the 4x grid that keeps a quintic
    product alias-free; P, w3 w4 w5 and w1 w2 w5 are built there from the
    shared products w1 w2 and w3 w4 and truncated in one stacked transform,
    and int w1 w2 w3 w4 is the fine-grid sum of the four-factor product,
    exact because that product's band fits the fine grid.
    """
    if len(cs) != 5:
        raise ValueError("need exactly five factors")
    nf = _min_pad_factor(5) * dom.n_points
    w12, w34, w5 = (padded_values(dom, cs[i], nf) for i in (0, 2, 4))
    w12 *= padded_values(dom, cs[1], nf)
    w34 *= padded_values(dom, cs[3], nf)
    fine = np.empty((3,) + w12.shape, dtype=np.complex128)  # P, w3w4w5, w1w2w5
    np.multiply(w34, w5, out=fine[1])
    np.multiply(w12, fine[1], out=fine[0])
    if dom.kind == "line":
        return truncated_coeffs(dom, fine[0])
    np.multiply(w12, w5, out=fine[2])
    i1234 = np.einsum("...j,...j->...", w12, w34)[..., None] * (dom.period / nf)
    out, t345, t125 = truncated_coeffs(dom, fine)
    i12 = _pair_integrals(dom, cs[0], cs[1])
    i34 = _pair_integrals(dom, cs[2], cs[3])
    out -= i1234 * cs[4] / TWO_PI
    out -= (i12 * t345 + i34 * t125) / TWO_PI
    out += 2.0 * (i12 * i34) * cs[4] / TWO_PI ** 2
    return out


# ---------------------------------------------------------------------------
# power term and assembled right-hand sides
# ---------------------------------------------------------------------------

def power_nonlinearity(v: GridFunction, lam: float, k: int,
                       pad_factor: int = 4) -> GridFunction:
    """lam |v|^(2k) v, dealiased at the degree-(2k+1) product on the grid of
    max(pad_factor, its smallest alias-free) times the base resolution; v may
    be a stack of slices (..., n).  v is padded and conjugated once, and the
    product v conj(v) v ... is formed left to right."""
    if k < 0:
        raise ParameterError("k must be >= 0")
    if lam == 0.0:
        return GridFunction(v.domain, np.zeros_like(v.values))
    if k == 0:
        return GridFunction(v.domain, lam * v.values)
    dom = v.domain
    nf = max(pad_factor, _min_pad_factor(2 * k + 1)) * dom.n_points
    vf = padded_values(dom, v.to_spectral().coeffs, nf)
    vc = np.conj(vf)
    prod = vf
    for _ in range(k):
        prod = prod * vc
        prod = prod * vf
    out = truncated_coeffs(dom, prod)
    return GridFunction(dom, lam * SpectralField(dom, out).to_grid().values)


def rhs_work(dom: Domain, cfg: NonlinearityConfig, shape: tuple, pad_factor: int) -> dict:
    """Work arrays and constants for rhs_gauged or rhs_original calls (by
    cfg.gauged) on inputs of the given shape (..., n): the zero-padded
    spectra, whose gaps stay zero, the fine-grid and coarse intermediates,
    the array the result is written to, the views of them that a call
    reads and writes, and the shape's derivative multiplier and transform
    scales.  A caller that evaluates one form many times on one
    shape builds them once."""
    # the fine grid is alias-free for the quintic (gauged) or the cube
    # (original) and for the power term; the degree's minimum is 4 or more
    # for the gauged form, so pad_factor (2 or 4) changes only the original
    # form with k_power <= 1
    degree = max(5 if cfg.gauged else 3, 2 * cfg.k_power + 1)
    nf = max(pad_factor, _min_pad_factor(degree)) * dom.n_points
    batch, n = tuple(shape[:-1]), dom.n_points
    c, r = np.complex128, np.float64
    pad_scale, trunc_scale = transform_scales(dom, nf)
    # coarse coefficients held as (..., 2, n/2) line up with fields.band
    halves = (2, n // 2)
    work = {"deriv": _deriv_mult(dom), "pad_scale": pad_scale,
            "trunc_scale": trunc_scale}
    if cfg.gauged:
        # c and d_x c stacked on the axis before the grid: one transform pads both
        pad = np.zeros(batch + (2, nf), c)
        fine = np.empty(batch + (2, nf), c)
        g = np.empty(batch + (nf,), c)
        coarse = np.empty(batch + halves, c)
        vf, pad_band = fine[..., 0, :], band(pad, n)
        return {**work, "weight": dom.period / nf / TWO_PI,
                "band_shape": batch + halves, "deriv_band": work["deriv"].reshape(halves),
                "pad": pad, "pad_v": pad_band[..., 0, :, :],
                "pad_dv": pad_band[..., 1, :, :],
                "fine": fine, "vf": vf, "v_dv": fine[..., 1, :],
                "vf_re": vf.real, "vf_im": vf.imag,
                "dens": np.empty(batch + (nf,), r),
                "real": np.empty(batch + (nf,), r),
                "g": g, "g_re": g.real,
                "coarse_band": coarse, "coarse": coarse.reshape(batch + (n,)),
                "scaled": np.empty(batch + (n,), c)}
    # one row for the cube, a second for the power term when it needs one;
    # "grid" holds the samples of u, and "spec" first its coefficients, then
    # the result's
    rows = (2 if cfg.lam != 0.0 and cfg.k_power > 0 else 1,)
    pad = np.zeros(batch + (nf,), c)
    pair = np.empty((2,) + batch + (nf,), c)
    fine = np.empty(rows + batch + (nf,), c)
    spec = np.empty(batch + halves, c)
    coarse = np.empty(rows + batch + halves, c)
    coarse_flat = coarse.reshape(rows + batch + (n,))
    vals = np.empty(rows + batch + (n,), c)
    grid_scale, spec_scale = transform_scales(dom, n)
    return {**work, "grid_scale": grid_scale, "spec_scale": spec_scale,
            "grid": np.empty(batch + (n,), c),
            "spec": spec.reshape(batch + (n,)), "spec_band": spec,
            "pad": pad, "pad_band": band(pad, n),
            # the pair holds u and conj(u), then the fine spectrum
            "vf": pair[0], "vc": pair[1], "fine_spec": pair[:rows[0]],
            "fine": fine, "cube": fine[0], "power": fine[-1],
            "coarse_band": coarse, "coarse": coarse_flat, "dcube": coarse_flat[0],
            "vals": vals, "vals_cube": vals[0], "vals_last": vals[-1],
            "rhs": np.empty(batch + (n,), c)}


def rhs_original(v: SpectralField, cfg: NonlinearityConfig, work: dict) -> SpectralField:
    """i d_x(|u|^2 u) + lam |u|^(2k) u row by row on one grid of degree max(3, 2k+1),
    each term bitwise its own dealiased product when their grids coincide,
    for the coefficients v of u.

    work is rhs_work's arrays for v.coeffs.shape; the result is written into
    work["spec"], which the next call with the same work overwrites.  The
    grid round trip of v (the inverse transform into work["grid"] and the
    forward one into work["spec"]) fixes the bits the plane-wave goldens pin."""
    if cfg.gauged:
        raise ParameterError("rhs_original requires cfg.gauged = False")
    k, lam = cfg.k_power, cfg.lam
    vf, vc, fine, cube = work["vf"], work["vc"], work["fine"], work["cube"]
    u = scaled_ifft(v.coeffs, work["grid_scale"], work["grid"])
    spec = scaled_fft(u, work["spec_scale"], work["spec"])
    work["pad_band"][...] = work["spec_band"]
    scaled_ifft(work["pad"], work["pad_scale"], vf)
    np.conjugate(vf, out=vc)
    # every product keeps its operand order: the plane-wave goldens pin the bits
    np.multiply(vf, vf, out=cube)
    np.multiply(cube, vc, out=cube)
    if len(fine) == 2:
        power = work["power"]
        power[...] = vf
        for _ in range(k):
            np.multiply(power, vc, out=power)
            np.multiply(power, vf, out=power)
    # the pair is free again: it takes the fine spectrum
    band_truncate(fine, work["trunc_scale"], work["fine_spec"], work["coarse_band"])
    dcube = work["dcube"]
    np.multiply(work["deriv"], dcube, out=dcube)
    # on the coarse grid there is no gap to pad
    scaled_ifft(work["coarse"], work["grid_scale"], work["vals"])
    out, last = work["rhs"], work["vals_last"]
    np.multiply(1j, work["vals_cube"], out=out)
    if lam != 0.0:
        # the last row takes the power term: its own row, or the spent cube's
        np.multiply(lam, last if k > 0 else u, out=last)
        out += last
    # spec is free once padded: it takes the result's coefficients
    return SpectralField(v.domain, scaled_fft(out, work["spec_scale"], spec))


def rhs_gauged(v: SpectralField, cfg: NonlinearityConfig, work: dict) -> SpectralField:
    """-i T(v) - Q(v)/2 + lam |v|^(2k) v with the domain-correct T, Q.

    -i v^2 conj(d_x v) - |v|^4 v / 2 + mu |v|^2 v (torus, mu = int |v|^2 / 2pi)
    + lam |v|^(2k) v is built on the smallest alias-free grid for degree
    max(5, 2k+1), 4x or more, and truncated once; the torus scalar
    (2i int v d_x conj(v) + int |v|^4 / 2) / 2pi - mu^2, and lam when k = 0,
    multiply v without truncation.  The fine grid integrates |v|^4 exactly
    (band 2n < 4n).  v may be a stack of slices (..., n); the torus integrals
    are taken per slice.  v and d_x v are padded as one stack by one inverse
    transform.  work is rhs_work's arrays for v.coeffs.shape; the result is
    written into work["coarse"], which the next call with the same work
    overwrites.
    """
    if not cfg.gauged:
        raise ParameterError("rhs_gauged requires cfg.gauged = True")
    dom = v.domain
    k, lam = cfg.k_power, cfg.lam
    c = v.coeffs
    fine, vf, v_dv = work["fine"], work["vf"], work["v_dv"]
    g, g_re, dens, real = work["g"], work["g_re"], work["dens"], work["real"]
    halves = c.reshape(work["band_shape"])
    work["pad_v"][...] = halves
    np.multiply(work["deriv_band"], halves, out=work["pad_dv"])
    scaled_ifft(work["pad"], work["pad_scale"], fine)
    np.conjugate(v_dv, out=v_dv)
    np.multiply(vf, v_dv, out=v_dv)
    np.square(work["vf_re"], out=dens)
    np.square(work["vf_im"], out=real)
    dens += real
    # g = -i v conj(d_x v) plus its real terms, each added to g.real
    np.multiply(-1j, v_dv, out=g)
    np.multiply(dens, dens, out=real)
    real *= 0.5
    g_re -= real
    scalar = lam if k == 0 else 0.0
    if dom.kind == "torus":
        w = work["weight"]
        mu = dens.sum(axis=-1, keepdims=True) * w
        scalar += (2j * v_dv.sum(axis=-1, keepdims=True)
                   + real.sum(axis=-1, keepdims=True)) * w - mu * mu
        np.multiply(mu, dens, out=real)
        g_re += real
    if lam != 0.0 and k > 0:
        np.power(dens, k, out=real)
        real *= lam
        g_re += real
    np.multiply(vf, g, out=g)
    # vf is spent: its row takes the fine spectrum
    band_truncate(g, work["trunc_scale"], vf, work["coarse_band"])
    coeffs, scaled = work["coarse"], work["scaled"]
    np.multiply(scalar, c, out=scaled)
    coeffs += scaled
    return SpectralField(dom, coeffs)
