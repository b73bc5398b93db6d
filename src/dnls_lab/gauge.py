"""Gauge transformations removing the worst derivative nonlinearity.

On the torus the phase is the zero-mean antiderivative of |f|^2 - mu(f)
(mu is the mean mass density), and the trajectory transform additionally
translates by 2 mu t.  On the line approximation the phase is the running
integral of |f|^2 from the left box edge, which requires the data to
vanish there.

Phases are computed spectrally: the mass density is evaluated alias-free
on a refined grid, its zero-mean antiderivative is obtained by dividing
by (i xi), and the linear-in-x part (line only) is added back in closed
form.  This keeps the phase exact for band-limited data; a running
trapezoid rule would pollute gauge-equivalence comparisons with O(dx^2)
phase errors.

Every transform here is a unimodular multiplier, so moduli and all L^2
based norms are preserved exactly, and the inverse is the conjugate
phase computed from the (identical) modulus of the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConservationError, EdgeDecayError, WrongDomainError
from .fields import (SQRT_2PI, Domain, GridFunction, Trajectory, padded_values,
                     spectral_derivative)

EDGE_DECAY_TOL = 1e-10
MU_DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class GaugePhase:
    """Real phase samples of the gauge integral, plus the mean used (torus)."""

    domain: Domain
    values: np.ndarray
    mu: float | None


def mass_density_mean(f: GridFunction) -> float:
    """mu(f) = ||f||_{L^2}^2 / (2 pi); defined on the torus only."""
    if f.domain.kind != "torus":
        raise WrongDomainError("mu is defined on the torus")
    return float(np.sum(np.abs(f.values) ** 2) * f.domain.dx / (2.0 * np.pi))


def _density_antiderivative(f: GridFunction) -> tuple[np.ndarray, float]:
    """Zero-mean periodic antiderivative of |f|^2 - mean(|f|^2), plus the mean.

    |f|^2 is sampled alias-free on a twice-refined grid (its band is twice
    the band of f), integrated spectrally there, and read back at the
    coarse points, which form a subset of the fine grid.
    """
    dom = f.domain
    nf = 2 * dom.n_points
    dxf = dom.period / nf
    vf = padded_values(dom, f.to_spectral().coeffs, nf)
    dens = np.abs(vf) ** 2
    chat = np.fft.fft(dens) * (dxf / SQRT_2PI)
    mean = float(np.real(chat[0]) * SQRT_2PI / dom.period)
    xif = 2.0 * np.pi * np.fft.fftfreq(nf, d=dxf)
    ghat = np.zeros_like(chat)
    ghat[1:] = chat[1:] / (1j * xif[1:])
    anti = np.real(np.fft.ifft(ghat) * (SQRT_2PI / dxf))
    return anti[::2], mean


def gauge_phase(f: GridFunction) -> GaugePhase:
    """The gauge integral: zero-mean antiderivative on the torus, running
    integral from the left edge on the line."""
    anti, mean = _density_antiderivative(f)
    if f.domain.kind == "torus":
        return GaugePhase(f.domain, anti, mu=mean)
    edge = max(abs(f.values[0]), abs(f.values[-1]))
    if edge >= EDGE_DECAY_TOL:
        raise EdgeDecayError(
            f"line gauge needs |f| < {EDGE_DECAY_TOL:g} at the box edges, got {edge:g}")
    x = f.domain.x
    phase = mean * (x - x[0]) + (anti - anti[0])
    return GaugePhase(f.domain, phase, mu=None)


def gauge_forward(f: GridFunction) -> GridFunction:
    """Multiply by exp(-i phase(|f|^2)); preserves |f| pointwise."""
    phase = gauge_phase(f)
    return GridFunction(f.domain, np.exp(-1j * phase.values) * f.values)


def gauge_inverse(g: GridFunction) -> GridFunction:
    """Exact inverse of gauge_forward: the phase depends only on |g| = |f|."""
    phase = gauge_phase(g)
    return GridFunction(g.domain, np.exp(+1j * phase.values) * g.values)


def _check_mu_drift(masses_mu: np.ndarray) -> float:
    mu0 = masses_mu[0]
    drift = float(np.max(np.abs(masses_mu - mu0)))
    if drift > MU_DRIFT_TOL * max(1.0, mu0):
        raise ConservationError(
            f"mu drifted by {drift:g} along the trajectory; the flow that "
            f"produced it did not conserve mass")
    return drift


def gauge_trajectory(traj: Trajectory, inverse: bool = False) -> Trajectory:
    """Gauge every slice; on the torus also translate by 2 mu t.

    mu is evaluated once on the initial slice (the transform is defined
    with a single mean); its drift along the trajectory is a solver
    diagnostic and raises when it exceeds tolerance.
    """
    dom = traj.domain
    if dom.kind == "line":
        fn = gauge_inverse if inverse else gauge_forward
        return traj.map_slices(fn)

    mus = np.sum(np.abs(traj.values) ** 2, axis=1) * dom.dx / (2.0 * np.pi)
    drift = _check_mu_drift(mus)
    mu0 = float(mus[0])
    out = np.empty_like(traj.values)
    for l, t in enumerate(traj.times):
        u = GridFunction(dom, traj.values[l])
        shift = 2.0 * mu0 * t
        if not inverse:
            g = gauge_forward(u)
            coeffs = g.to_spectral().coeffs * np.exp(-1j * shift * dom.xi)
            out[l] = np.fft.ifft(coeffs) * (SQRT_2PI / dom.dx)
        else:
            coeffs = u.to_spectral().coeffs * np.exp(+1j * shift * dom.xi)
            w = GridFunction(dom, np.fft.ifft(coeffs) * (SQRT_2PI / dom.dx))
            out[l] = gauge_inverse(w).values
    diag = dict(traj.diagnostics)
    diag["gauge_mu"] = mu0
    diag["gauge_mu_drift"] = drift
    return Trajectory(dom, traj.times.copy(), out, config=traj.config, diagnostics=diag)


def psi_functional(v: GridFunction) -> float:
    """Scalar mean functional of the gauged torus flow:
    (1/2pi) int (2 Im(v d_x conj(v)) - |v|^4 / 2) dx + mu(v)^2."""
    if v.domain.kind != "torus":
        raise WrongDomainError("psi is defined on the torus")
    dom = v.domain
    dxv = spectral_derivative(v)
    # band(v * conj(d_x v)) < n, so the plain grid sum integrates it exactly
    term_im = float(np.sum(2.0 * np.imag(v.values * np.conj(dxv.values))) * dom.dx)
    # |v|^4 has twice that band; sample it alias-free on a refined grid
    nf = 4 * dom.n_points
    vf = padded_values(dom, v.to_spectral().coeffs, nf)
    term_quartic = float(np.sum(np.abs(vf) ** 4) * (dom.period / nf))
    mu = mass_density_mean(v)
    return (term_im - 0.5 * term_quartic) / (2.0 * np.pi) + mu ** 2


@dataclass
class GaugeReport:
    """Round-trip and invariance diagnostics for a trajectory."""

    round_trip_error: float
    modulus_error: float
    mu_drift: float


def gauge_report(traj: Trajectory) -> GaugeReport:
    """Max pointwise round-trip and modulus-preservation errors slice by slice."""
    rt = 0.0
    mod = 0.0
    for l in range(traj.n_slices):
        u = traj.slice_function(l)
        g = gauge_forward(u)
        back = gauge_inverse(g)
        rt = max(rt, float(np.max(np.abs(back.values - u.values))))
        mod = max(mod, float(np.max(np.abs(np.abs(g.values) - np.abs(u.values)))))
    if traj.domain.kind == "torus":
        mus = np.sum(np.abs(traj.values) ** 2, axis=1) * traj.domain.dx / (2 * np.pi)
        drift = float(np.max(np.abs(mus - mus[0])))
    else:
        masses = traj.mass()
        drift = float(np.max(np.abs(masses - masses[0])))
    return GaugeReport(rt, mod, drift)
