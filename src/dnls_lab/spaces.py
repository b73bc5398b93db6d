"""Norm evaluation on discrete fields.

Spatial norms (Sobolev, Besov) act on SpectralField; space-time norms
(X^{s,b} and Y^{s,b}, and their dyadic-sup variants frak X and cal Y) act
on SpaceTimeField.
All mixed norms use Riemann quadrature weights dxi and dtau; on the
2 pi torus dxi == 1 and the xi sums are counting-measure sums.

Dyadic block norms are one row reduction over tau times the (blocks x n)
matrix of chi_N(xi)^2, cached per Domain (chi_N depends on xi alone and is
>= 0); the <xi>^s <tau +/- xi^2>^b weights are cached per lattice, s, b and
sign.  Both caches hold read-only arrays.  Every dyadic-sup norm is the
low block plus the sup over N > 1 (_low_plus_sup), and every block norm
comes from the chi_N^2 product (_dyadic_blocks); besov_norm is the paper's
B^s_{2,inf} (q = inf only), the same rule on the blocks N^s ||P_N f||.
block_norms, xsb_norm, frak_x_norm and cal_y_norm accept a SpaceTimeField
with a leading batch axis, and besov_norm a SpectralField with one; they
then return one value per member (a float for a single field), equal bit
for bit to one call per member; ysb_norm takes a single field.  They also
read a compact field (SpaceTimeField.rows) in place, one value per window
and member (_rows): a row it leaves out adds what a zero row adds (0, or
NaN where the weight overflowed), so each value keeps the dense bits.
The exact lattice constant C of Y^{s,b1} <= C X^{s,b2}, which the
acceptance tests check ysb_norm and xsb_norm against, is a test helper
(tests/tests_support.py), since no run needs it.

Restriction norms over a finite time interval are handled through one
canonical windowed extension (window_trajectory): multiply the
trajectory's per-slice coefficients by the plateau window chi(2t/T) of
half-width T (plateau) and transform the xi rows that carry data in time,
into a compact field; the resulting value is an upper bound for the
infimum over all extensions, which suffices for every monotone check
performed here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ExtensionError
from .fields import (Domain, ModulationLattice, SpaceTimeField, SpectralField,
                     _live_rows)
from .frequency import bracket, cutoff_low, dyadic_multiplier, dyadic_range


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm: the L2 norm of <xi>^s fhat on the lattice."""
    w = bracket(f.domain.xi) ** (2.0 * s)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2) * f.domain.dxi))


@lru_cache(maxsize=8)
def _chi_sq(domain: Domain) -> np.ndarray:
    """(blocks, n) matrix of chi_N(xi)^2, one row per N in dyadic_range."""
    m = np.array([dyadic_multiplier(domain.xi, n) ** 2
                  for n in dyadic_range(domain.xi_max)])
    m.flags.writeable = False
    return m


def _dyadic_blocks(domain: Domain, rows: np.ndarray) -> np.ndarray:
    """||P_N|| for every N in dyadic_range from the per-xi squared
    contributions rows (..., n), shape (..., blocks): sqrt(chi_N^2 . rows),
    one matrix-vector product per member, so a batch gets the bits of one
    call per member."""
    return np.sqrt(np.matmul(_chi_sq(domain), rows[..., None])[..., 0])


def _member_values(out: np.ndarray):
    """A float for a single field, one value per member for a batch."""
    return float(out) if out.ndim == 0 else out


def _low_plus_sup(norms: np.ndarray):
    """Low-block norm plus the sup over the higher dyadic blocks (last axis)."""
    return _member_values(norms[..., 0] + norms[..., 1:].max(axis=-1, initial=0.0))


def besov_norm(f: SpectralField, s: float):
    """B^s_{2,inf} norm: ||P_1 f|| + sup_{N>1} N^s ||P_N f||.  A float for a
    single field, one value per member for coefficients with a leading
    batch axis."""
    blocks = _dyadic_blocks(f.domain, np.abs(f.coeffs) ** 2 * f.domain.dxi)
    ns = np.array(dyadic_range(f.domain.xi_max), dtype=float)
    return _low_plus_sup(ns ** s * blocks)


@lru_cache(maxsize=16)
def _xsb_weight(lattice: ModulationLattice, s: float, b: float, sign: int) -> np.ndarray:
    xi = lattice.domain.xi[:, None]
    w = bracket(xi) ** s * bracket(lattice.tau[None, :] + sign * xi ** 2) ** b
    w.flags.writeable = False
    return w


@lru_cache(maxsize=16)
def _zero_row_terms(lattice: ModulationLattice, s: float, b: float, sign: int) -> np.ndarray:
    """What an all-zero xi row adds to _rows, shape (n,): 0 where the
    weight row is finite, NaN where it overflowed (0 * inf); cached per
    lattice, s, b and sign, read-only."""
    t = np.where(np.all(np.isfinite(_xsb_weight(lattice, s, b, sign)), axis=-1),
                 0.0, np.nan)
    t.flags.writeable = False
    return t


def _row_terms(c: np.ndarray, w: np.ndarray, lattice: ModulationLattice,
               space: str) -> np.ndarray:
    """Per-row squared contributions of coefficient rows c (..., n_t)
    under their weight rows w."""
    wc = np.abs(c)
    wc *= w
    if space == "X":
        return np.sum(np.square(wc, out=wc), axis=-1) * (lattice.domain.dxi * lattice.dtau)
    return (np.sum(wc, axis=-1) * lattice.dtau) ** 2 * lattice.domain.dxi


def _rows(u: SpaceTimeField, s: float, b: float, sign: int, space: str) -> np.ndarray:
    """Per-xi squared contributions (..., n): ||u||^2 = sum(rows) and, since
    chi_N depends on xi alone, ||P_N u||^2 = chi_N^2 . rows.

    A compact field is read one leading member (window) at a time, so the
    moduli of one window exist at a time, and every row it leaves out adds
    what a zero row adds: the result has the bits of the dense field's."""
    w = _xsb_weight(u.lattice, s, b, sign)
    if u.rows is None:
        return _row_terms(u.coeffs, w, u.lattice, space)
    w, lead = w[np.nonzero(u.rows)[-1]], u.coeffs.shape[:-2]
    full = np.broadcast_to(_zero_row_terms(u.lattice, s, b, sign),
                           lead + u.rows.shape).copy()
    for i in np.ndindex(lead):
        full[i][u.rows] = _row_terms(u.coeffs[i], w, u.lattice, space)
    return full


def block_norms(u: SpaceTimeField, s: float, b: float, sign: int = +1,
                space: str = "X") -> np.ndarray:
    """||P_N u|| in X^{s,b,sign} (space "X") or Y^{s,b} (space "Y", sign +1)
    for every N in dyadic_range, in one pass over u; shape (..., blocks)."""
    return _dyadic_blocks(u.domain, _rows(u, s, b, sign, space))


def xsb_norm(u: SpaceTimeField, s: float, b: float, sign: int):
    """X^{s,b,+/-} norm: weighted L2 over the (xi, tau) lattice."""
    return _member_values(np.sqrt(np.sum(_rows(u, s, b, sign, "X"), axis=-1)))


def ysb_norm(u: SpaceTimeField, s: float, b: float) -> float:
    """Y^{s,b} norm of a single field: inner L1 in tau, outer L2 in xi."""
    return float(np.sqrt(np.sum(_rows(u, s, b, +1, "Y"))))


def frak_x_norm(u: SpaceTimeField, s: float, b: float, sign: int):
    """||P_1 u||_{X^{s,b,sign}} + sup_{N>1} ||P_N u||_{X^{s,b,sign}}."""
    return _low_plus_sup(block_norms(u, s, b, sign))


def cal_y_norm(u: SpaceTimeField, s: float, b: float):
    return _low_plus_sup(block_norms(u, s, b, space="Y"))


def plateau(times: np.ndarray, T: float) -> np.ndarray:
    """The plateau window chi(2t / T) of half-width T at the times: 1 for
    |t| <= T/2, 0 for |t| >= T."""
    return cutoff_low(times, 0.5 * T)


def window_trajectory(times: np.ndarray, slices: SpectralField,
                      T: float) -> SpaceTimeField:
    """Multiply a trajectory, given as its per-slice coefficients
    slices.coeffs (n_t, ..., n) at the uniform times, by the plateau window
    of half-width T and transform in time to (xi, tau); no spatial
    transform is made.

    The window support (-T, T) must lie inside the trajectory's time span
    [t0, t1 + dt]; the result is one admissible extension of the restricted
    solution, hence an upper bound representative for restriction norms.
    It is the compact field of the xi rows with a nonzero coefficient
    (_live_rows), rows of shape (..., n) for a batch of coefficients
    (n_t, ..., n); only those rows are windowed and transformed.
    """
    times = np.asarray(times, dtype=float)
    t0, t1 = times[0], times[-1]
    if -T < t0 - 1e-12 or T > t1 + float(times[1] - times[0]) + 1e-12:
        raise ExtensionError(
            f"window support ({-T:g}, {T:g}) exceeds the trajectory span "
            f"[{t0:g}, {t1:g}]")
    by_xi = np.moveaxis(slices.coeffs, 0, -1)
    rows = _live_rows(by_xi)
    live = by_xi[rows]
    live *= plateau(times, T)
    return SpaceTimeField.from_time_values(slices.domain, times, live, rows=rows)
