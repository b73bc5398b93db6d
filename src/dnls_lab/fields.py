"""Uniform periodic grids and the discrete fields living on them.

Transform conventions, fixed here once and used by every other module:

* spatial:   coeff(xi) = dx/sqrt(2 pi) * sum_j exp(-i (x_j - x_0) xi) f(x_j),
  x_0 the first grid point, i.e. dx/sqrt(2 pi) * fft(f), inverted by
  f(x_j) = sqrt(2 pi)/dx * ifft(coeffs).  x_0 is 0 on the torus; on the
  line it is -period/2, and exp(i x_0 xi_k) = (-1)^k, so there the
  coefficient of exp(i xi_k x) is (-1)^k period/sqrt(2 pi)
  (_plane_wave_coeffs).  With this scaling
  sum_j |f_j|^2 dx == sum_k |coeff_k|^2 dxi  (discrete Plancherel), where
  dxi = 2 pi / period, so dxi == 1 on the 2 pi torus and the spectral sum
  is a plain counting-measure sum there.
* space-time: uhat(xi, tau) = dt/sqrt(2 pi) * sum_l exp(-i t_l tau) * fhat_l(xi),
  i.e. the kernel is exp(-i (x xi + t tau)) with the same symmetric
  normalization on the time axis.  The tau transform is an FFT over the
  slice index times dt/sqrt(2 pi) exp(-i t_0 tau), t_0 the first sample
  time; that factor is cached per ModulationLattice.  A SpaceTimeField
  may carry a leading batch axis: a stack of fields on one lattice,
  transformed and normed in one call.  It is built from per-slice
  coefficients without a spatial transform: a dense field from a
  SpectralField, with its coeffs stored tau-contiguous however the input
  was laid out, or a compact field of the xi rows that carry data
  (_live_rows; the others are exactly zero) from those rows alone.
  SpaceTimeField.members slices a compact field by member, so the
  compact row order is known here alone.
* products:  padded to the smallest grid on which a product of their
  degree is alias-free on the retained band (_min_pad_factor), unless
  the caller asks for a larger one.

The real line is approximated by a torus of period 2 pi * domain_scale
("line" kind); data must decay well inside the box for the approximation
to be meaningful.  Operations that rely on the decay check it explicitly.

Spectral coefficient arrays are stored in FFT index order (0, 1, ...,
n/2-1, -n/2, ..., -1); ``Domain.xi`` gives the frequency values in the
same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainMismatchError, EdgeDecayError

SQRT_2PI = np.sqrt(2.0 * np.pi)
EDGE_DECAY_TOL = 1e-10


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _row_blocks(count: int, row_bytes: int, budget: int) -> list[slice]:
    """Consecutive slices of at most budget // row_bytes rows each (one at
    least), covering range(count) in order."""
    step = max(1, budget // row_bytes)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


@dataclass(frozen=True)
class Domain:
    """Uniform periodic spatial grid.

    kind          -- "torus" (period 2 pi, integer frequencies) or "line"
                     (period 2 pi * domain_scale, frequencies k/domain_scale).
    n_points      -- number of grid points, a power of two >= 8.
    domain_scale  -- power-of-two box enlargement, 1 for the torus.
    """

    kind: str
    n_points: int
    domain_scale: int = 1

    def __post_init__(self):
        if self.kind not in ("torus", "line"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not (_is_power_of_two(self.n_points) and self.n_points >= 8):
            raise ValueError("n_points must be a power of two >= 8")
        if not _is_power_of_two(self.domain_scale):
            raise ValueError("domain_scale must be a power of two")
        if self.kind == "torus" and self.domain_scale != 1:
            raise ValueError("torus domains have domain_scale == 1")
        try:
            finite = np.isfinite(self.period)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError("domain_scale must give a finite period")

    @property
    def period(self) -> float:
        return 2.0 * np.pi * self.domain_scale

    @property
    def dx(self) -> float:
        return self.period / self.n_points

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.period

    @cached_property
    def x(self) -> np.ndarray:
        """Grid points: [0, 2 pi) on the torus, [-L/2, L/2) on the line."""
        x0 = 0.0 if self.kind == "torus" else -0.5 * self.period
        return x0 + self.dx * np.arange(self.n_points)

    @cached_property
    def xi(self) -> np.ndarray:
        """Lattice frequencies in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @property
    def xi_max(self) -> float:
        return float(np.abs(self.xi).max())

    def require_same(self, other: "Domain"):
        if self != other:
            raise DomainMismatchError(f"domains differ: {self} vs {other}")


def _check_last_axis(arr: np.ndarray, n: int, what: str):
    if arr.ndim < 1 or arr.shape[-1] != n:
        raise ValueError(f"{what} shape does not match the grid")


class GridFunction:
    """Complex samples of a spatial field on a Domain grid.

    values has shape (..., n_points): one time slice, or a stack of slices
    on one domain that the transforms and the nonlinear kernels treat row
    by row.  l2_norm expects a single slice.
    """

    __slots__ = ("domain", "values")

    def __init__(self, domain: Domain, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        _check_last_axis(values, domain.n_points, "values")
        self.domain = domain
        self.values = values

    def to_spectral(self) -> "SpectralField":
        return SpectralField(self.domain,
                             scaled_fft(self.values, self.domain.dx / SQRT_2PI))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.domain.dx))

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self.domain.require_same(other.domain)
        return GridFunction(self.domain, self.values - other.values)

    def __mul__(self, scalar) -> "GridFunction":
        return GridFunction(self.domain, self.values * scalar)

    __rmul__ = __mul__


class SpectralField:
    """Complex Fourier coefficients on the lattice dual to a Domain grid,
    shape (..., n_points) like GridFunction.values."""

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain: Domain, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        _check_last_axis(coeffs, domain.n_points, "coeffs")
        self.domain = domain
        self.coeffs = coeffs

    def to_grid(self) -> GridFunction:
        return GridFunction(self.domain,
                            scaled_ifft(self.coeffs, SQRT_2PI / self.domain.dx))


def _conj_reverse(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the complex conjugate, (conj u)^(xi) = conj(u^(-xi)):
    conj(c[-k]) on an FFT-ordered axis (index 0 and Nyquist map to themselves)."""
    n = coeffs.shape[-1]
    idx = (-np.arange(n)) % n
    return np.conj(coeffs[..., idx])


def check_edge_decay(f: GridFunction, what: str):
    """On the line, every row of f (..., n) must stay below EDGE_DECAY_TOL
    at both box edges for `what` to hold; the torus has no edges."""
    if f.domain.kind != "line":
        return
    edge = np.maximum(np.abs(f.values[..., 0]), np.abs(f.values[..., -1]))
    if np.any(edge >= EDGE_DECAY_TOL):
        raise EdgeDecayError(f"{what} needs |f| < {EDGE_DECAY_TOL:g} at the box "
                             f"edges, got {np.max(edge):g}")


@lru_cache(maxsize=8)
def _deriv_mult(domain: Domain) -> np.ndarray:
    """The d/dx multiplier i xi with the Nyquist mode zeroed; cached per
    domain, read-only."""
    m = 1j * domain.xi
    m[domain.n_points // 2] = 0.0
    m.flags.writeable = False
    return m


@lru_cache(maxsize=8)
def _plane_wave_coeffs(domain: Domain) -> np.ndarray:
    """Coefficient of exp(i xi_k x) at each FFT index k: period/sqrt(2 pi)
    exp(i xi_k x_0), where exp(i xi_k x_0) is 1 on the torus and exactly
    (-1)^k on the line, whose grid starts at x_0 = -period/2; cached per
    domain, read-only."""
    w = np.full(domain.n_points, domain.period / SQRT_2PI, dtype=np.complex128)
    if domain.kind == "line":
        w[1::2] *= -1.0
    w.flags.writeable = False
    return w


def _min_pad_factor(degree: int) -> int:
    """Smallest power-of-two pad factor that keeps a degree-m product
    alias-free on the retained band (the coarse Nyquist mode, which the
    truncation zeroes, may still be touched)."""
    p = 1
    while 2 * p < degree + 1:
        p *= 2
    return max(p, 2) if degree > 1 else 1


def band(a: np.ndarray, n: int) -> np.ndarray:
    """The coarse band of the FFT-ordered fine-grid array a (..., n_fine),
    its first and last n/2 entries, as a (..., 2, n/2) view (the whole of a
    when n_fine = n); coarse coefficients (..., n) reshaped to (..., 2, n/2)
    line up with it entry by entry.  Splitting the last axis never copies,
    so writes to the view reach a."""
    h = n // 2
    blocks = a.reshape(a.shape[:-1] + (a.shape[-1] // h, h))
    return blocks[..., ::blocks.shape[-2] - 1, :]


def padded_values(domain: Domain, coeffs: np.ndarray, n_fine: int,
                  pad: np.ndarray | None = None) -> np.ndarray:
    """Samples on the n_fine-point grid of the field with the given coarse
    FFT-ordered coefficients (..., n_points): zero-pad, inverse transform.

    pad is an optional (..., n_fine) work array that must be zero outside
    the coarse band, which is the only part written."""
    c = np.asarray(coeffs, dtype=np.complex128)
    n = domain.n_points
    if pad is None:
        pad = np.zeros(c.shape[:-1] + (n_fine,), dtype=np.complex128)
    band(pad, n)[...] = c.reshape(c.shape[:-1] + (2, n // 2))
    return scaled_ifft(pad, transform_scales(domain, n_fine)[0])


def transform_scales(domain: Domain, n_grid: int) -> tuple[float, float]:
    """(sqrt(2 pi)/h, h/sqrt(2 pi)), h = period/n_grid the spacing of the
    domain's n_grid-point grid: the factors by which scaled_ifft gives its
    samples and scaled_fft (or band_truncate, on a fine grid) its
    coefficients, for a caller that forms them once (n_grid = n_points
    gives to_grid's and to_spectral's)."""
    h = domain.period / n_grid
    return SQRT_2PI / h, h / SQRT_2PI


def scaled_ifft(a: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """scale times the inverse FFT of a along its last axis, into out when
    given: to_grid's samples, or padded_values' once a holds the padded
    coefficients."""
    out = np.fft.ifft(a, axis=-1, out=out)
    out *= scale
    return out


def scaled_fft(a: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """scale times the FFT of a along its last axis, into out when given:
    to_spectral's coefficients."""
    out = np.fft.fft(a, axis=-1, out=out)
    out *= scale
    return out


def truncated_coeffs(domain: Domain, fine_values: np.ndarray) -> np.ndarray:
    """Coarse coefficients of fine-grid samples: forward transform, keep the
    coarse band, zero the coarse Nyquist mode (the one mode a borderline
    pad factor can contaminate)."""
    n = domain.n_points
    out = np.empty(fine_values.shape[:-1] + (2, n // 2), dtype=np.complex128)
    band_truncate(fine_values, transform_scales(domain, fine_values.shape[-1])[1],
                  None, out)
    return out.reshape(fine_values.shape[:-1] + (n,))


def band_truncate(fine_values: np.ndarray, scale: float, spec: np.ndarray | None,
                  out: np.ndarray) -> np.ndarray:
    """truncated_coeffs into out, the coarse coefficients (..., n) held as
    (..., 2, n/2), with its scale (fine grid spacing)/sqrt(2 pi) given and
    the fine spectrum written into spec (shaped like fine_values) when
    given: a caller that truncates one shape many times forms them once."""
    cfine = np.fft.fft(fine_values, axis=-1, out=spec)
    out[...] = band(cfine, 2 * out.shape[-1])
    out *= scale
    out[..., 1, 0] = 0.0
    return out


def dealiased_product_coeffs(
    domain: Domain,
    coeff_arrays: Sequence[np.ndarray],
    conjugate: Sequence[bool] | None = None,
    pad_factor: int = 1,
) -> np.ndarray:
    """Alias-free pointwise product, vectorized over leading axes.

    Inputs and output are FFT-ordered spectral coefficient arrays of shape
    (..., n_points).  Every factor is zero-padded in frequency to pad_factor
    times the base resolution, raised to the smallest alias-free grid for
    the polynomial degree (_min_pad_factor: 2x for two or three factors, 4x
    for four to seven), which is also the default; it is multiplied pointwise
    on the fine grid, and truncated back.
    """
    if not coeff_arrays:
        raise ValueError("no factors")
    if conjugate is None:
        conjugate = [False] * len(coeff_arrays)
    nf = max(pad_factor, _min_pad_factor(len(coeff_arrays))) * domain.n_points
    prod = None
    for c, cj in zip(coeff_arrays, conjugate):
        vals = padded_values(domain, c, nf)
        if cj:
            vals = np.conj(vals)
        prod = vals if prod is None else prod * vals
    return truncated_coeffs(domain, prod)


@dataclass
class Trajectory:
    """Time-ordered solution samples: values[l] is the slice at times[l].

    times are uniformly spaced and strictly increasing.  values has shape
    (n_slices, n_points), or (n_slices, ..., n_points) for a batched
    solve, whose batch axes sit between time and space.
    """

    domain: Domain
    times: np.ndarray
    values: np.ndarray  # (n_slices, ..., n_points) complex physical samples

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if (self.values.ndim < 2 or self.values.shape[0] != self.times.size
                or self.values.shape[-1] != self.domain.n_points):
            raise ValueError("trajectory shape mismatch")
        if self.times.size >= 2:
            steps = np.diff(self.times)
            if np.any(steps <= 0):
                raise ValueError("times must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise ValueError("times must be uniformly spaced")

    @property
    def n_slices(self) -> int:
        return self.times.size

    def slice_function(self, l: int) -> GridFunction:
        return GridFunction(self.domain, self.values[l])

    def mass(self) -> np.ndarray:
        """L2 norm of every slice (and batch member), shape values.shape[:-1]."""
        return np.sqrt(np.sum(np.abs(self.values) ** 2, axis=-1) * self.domain.dx)


@dataclass(frozen=True)
class ModulationLattice:
    """(xi, tau) lattice dual to a uniformly sampled time span.

    dtau = 2 pi / (n_t * dt) and the largest |tau|, pi / dt, are fixed by
    discrete Fourier duality; tau values run over dtau * {-n_t/2, ..., n_t/2 - 1}
    in FFT order.  t0 is the first sample time of the underlying span.
    """

    domain: Domain
    n_t: int
    dt: float
    t0: float

    def __post_init__(self):
        if self.n_t < 2 or self.dt <= 0:
            raise ValueError("need n_t >= 2 and dt > 0")

    @property
    def span(self) -> float:
        return self.n_t * self.dt

    @property
    def dtau(self) -> float:
        return 2.0 * np.pi / self.span

    @cached_property
    def tau(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_t, d=self.dt)


@lru_cache(maxsize=8)
def _tau_factor(lattice: ModulationLattice) -> np.ndarray:
    """dt/sqrt(2 pi) * exp(-i t0 tau): the tau transform's normalization and
    the phase that moves its time origin to t0; cached per lattice, read-only."""
    factor = (lattice.dt / SQRT_2PI) * np.exp(-1j * lattice.t0 * lattice.tau)
    factor.flags.writeable = False
    return factor


def _live_rows(by_xi: np.ndarray) -> np.ndarray:
    """The xi rows of a (..., n, n_t) coefficient stack with an entry != 0,
    shape (..., n); a row of roundoff or NaN stays live."""
    return np.any(by_xi != 0, axis=-1)


class SpaceTimeField:
    """Coefficients on a ModulationLattice; coeffs[..., k, m] sits at
    (xi_k, tau_m).  Leading axes, when any, are a batch of fields on one
    lattice, which the transforms and the block norms of spaces treat
    member by member.

    A compact field keeps only the xi rows that carry data, named by
    rows, a boolean (members..., n) array: coeffs (..., m, n_t) holds them
    in np.nonzero(rows) order, every other row being zero, and its leading
    axes (a window axis) stack fields with these rows.  The block norms of
    spaces read it; to_time_values needs a dense field (rows None).
    """

    __slots__ = ("lattice", "coeffs", "rows")

    def __init__(self, lattice: ModulationLattice, coeffs: np.ndarray,
                 rows: np.ndarray | None = None):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        n = lattice.domain.n_points
        m = n if rows is None else np.count_nonzero(rows)
        if (coeffs.shape[-2:] != (m, lattice.n_t)
                or (rows is not None and rows.shape[-1] != n)):
            raise ValueError("coeffs shape does not match the lattice")
        self.lattice = lattice
        self.coeffs = coeffs
        self.rows = rows

    @property
    def domain(self) -> Domain:
        return self.lattice.domain

    @classmethod
    def from_time_values(cls, domain: Domain, times: np.ndarray, values,
                         rows: np.ndarray | None = None) -> "SpaceTimeField":
        """Build from a SpectralField of per-slice coefficients (..., n_t, n)
        at the uniform times.

        The tau transform runs along the last axis of the (..., n, n_t)
        transpose of the slice coefficients, copied tau-contiguous unless
        they are stored xi-major (passed as the swapped view of a contiguous
        (..., n, n_t) array), so that every dense field's coeffs are
        tau-contiguous and its norms' bits do not depend on how it was built.

        With rows, the xi rows that carry data, values is instead the
        complex array (..., m, n_t) of their per-slice coefficients in the
        compact field's order: it is transformed in place, each row with the
        bits of the full transform, and becomes the compact field's coeffs.
        The caller finds the rows (_live_rows; this call does not scan) and
        hands the array over: it is the field's coeffs afterwards, not the
        caller's slice coefficients.
        """
        times = np.asarray(times, dtype=float)
        dt = float(times[1] - times[0])
        lat = ModulationLattice(domain, times.size, dt, float(times[0]))
        if rows is not None:
            ghat = np.fft.fft(values, axis=-1, out=values)
            ghat *= _tau_factor(lat)
            return cls(lat, ghat, rows)
        domain.require_same(values.domain)
        by_xi = np.ascontiguousarray(np.swapaxes(values.coeffs, -1, -2))
        ghat = np.fft.fft(by_xi, axis=-1)
        ghat *= _tau_factor(lat)
        return cls(lat, ghat)

    def members(self, start: int, stop: int) -> "SpaceTimeField":
        """The compact field of members start..stop-1 (the first axis of
        rows) of a compact field, its leading (window) axes kept: their
        rows are one run of the compact order, so coeffs is a view."""
        lo, hi = (np.count_nonzero(self.rows[:i]) for i in (start, stop))
        return SpaceTimeField(self.lattice, self.coeffs[..., lo:hi, :],
                              self.rows[start:stop])

    def to_time_values(self) -> np.ndarray:
        """Physical samples u(x_j, t_l), shape (..., n_t, n_points)."""
        lat = self.lattice
        phase = np.exp(1j * lat.t0 * lat.tau)
        g = np.fft.ifft(self.coeffs * phase, axis=-1) * (SQRT_2PI / lat.dt)
        slices_hat = np.swapaxes(g, -1, -2)
        return np.fft.ifft(slices_hat, axis=-1) * (SQRT_2PI / self.domain.dx)
