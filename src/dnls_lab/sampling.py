"""Random and analytic test fields shared by probes, scenarios and tests.

The random fields have fixed shapes, one value each in every caller:
band fields fall off as <xi>^-1.5; decaying fields take a Gaussian
envelope of width 0.06 * period on the line, whose value at the box edges,
exp(-(1/2)(0.5/0.06)^2) ~ 8e-16, is far below the 1e-10 edge requirement;
a mode sum has 12 modes and its broadband modulation scale reaches 20.
A mode sum is returned as per-slice coefficients, which is what the
probes consume; a caller that needs grid samples transforms them.
"""

from __future__ import annotations

import numpy as np

from .fields import Domain, GridFunction, SpectralField, _plane_wave_coeffs
from .frequency import bracket


def plane_wave(dom: Domain, amplitude: complex, mode: int) -> GridFunction:
    """A exp(i mode x) sampled on the grid."""
    return GridFunction(dom, amplitude * np.exp(1j * mode * dom.x))


def gaussian_packet(dom: Domain, amplitude: float, width: float,
                    center: float = 0.0, *, mode: int) -> GridFunction:
    """Modulated Gaussian; on the line the width must keep the edges empty."""
    env = amplitude * np.exp(-((dom.x - center) ** 2) / (2.0 * width ** 2))
    return GridFunction(dom, env * np.exp(1j * mode * dom.x))


def random_band_field(dom: Domain, rng: np.random.Generator,
                      band: float) -> SpectralField:
    """Random coefficients supported on |xi| <= band with <xi>^-1.5 fall-off."""
    xi = dom.xi
    mask = np.abs(xi) <= band
    amp = np.where(mask, bracket(xi) ** -1.5, 0.0)
    coeffs = amp * (rng.normal(size=dom.n_points) + 1j * rng.normal(size=dom.n_points))
    coeffs[dom.n_points // 2] = 0.0
    return SpectralField(dom, coeffs)


def random_decaying_field(dom: Domain, rng: np.random.Generator,
                          band: float) -> GridFunction:
    """Random band field, on the line times the Gaussian envelope of width
    0.06 * period that makes it vanish at the box edges."""
    f = random_band_field(dom, rng, band).to_grid()
    if dom.kind == "line":
        env = np.exp(-(dom.x ** 2) / (2.0 * (0.06 * dom.period) ** 2))
        f = GridFunction(dom, f.values * env)
    return f


def scaled_to_h1(f: GridFunction, target: float) -> GridFunction:
    from .spaces import sobolev_norm
    cur = sobolev_norm(f.to_spectral(), 1.0)
    if cur == 0:
        return f
    return GridFunction(f.domain, f.values * (target / cur))


def scaled_to_besov(f: GridFunction, s: float, target: float) -> GridFunction:
    from .spaces import besov_norm
    cur = besov_norm(f.to_spectral(), s)
    if cur == 0:
        return f
    return GridFunction(f.domain, f.values * (target / cur))


def random_mode_sum_values(dom: Domain, times: np.ndarray, rng: np.random.Generator,
                           band: float = 8.0, char_sign: int = +1) -> np.ndarray:
    """Sum of travelling modes c_j exp(i xi_j x - i nu_j t), as per-slice
    coefficients (n_t, n) in FFT order.

    Every mode sits near the sign-chosen characteristic nu = char_sign xi^2
    up to an offset bounded by a modulation scale drawn once per field:
    strongly near-resonant (< 1/2) for about half the fields, intermediate
    or broadband (up to 20) for the rest.  The near-resonant fields
    are the ones that saturate restriction-norm estimates -- window
    localization then dominates their modulation content -- while the
    broadband fields exercise the high-modulation weights.

    The xi_j are lattice frequencies, so mode j is the single coefficient
    c_j exp(-i nu_j t) at the FFT index of xi_j, times the coefficient of
    exp(i xi_j x) (period / sqrt(2 pi), with the sign of the line's grid
    origin): no grid samples are formed, and times may be any subset of a
    time grid.
    """
    u = rng.random()
    if u < 0.5:
        sigma0 = np.exp(rng.uniform(np.log(1e-2), np.log(0.5)))
    elif u < 0.75:
        sigma0 = np.exp(rng.uniform(np.log(0.5), np.log(4.0)))
    else:
        sigma0 = np.exp(rng.uniform(np.log(4.0), np.log(20.0)))
    lattice = np.flatnonzero(np.abs(dom.xi) <= band)
    n_modes = 12
    idx, nu = np.empty(n_modes, int), np.empty(n_modes)
    c = np.empty(n_modes, complex)
    for j in range(n_modes):
        idx[j] = rng.choice(lattice)
        nu[j] = char_sign * dom.xi[idx[j]] ** 2 + sigma0 * rng.uniform(-1.0, 1.0)
        c[j] = (rng.normal() + 1j * rng.normal()) / np.sqrt(n_modes)
    columns = (c * _plane_wave_coeffs(dom)[idx]) * np.exp(-1j * np.outer(times, nu))
    out = np.zeros((len(times), dom.n_points), dtype=np.complex128)
    for j in range(n_modes):
        out[:, idx[j]] += columns[:, j]
    return out
