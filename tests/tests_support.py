"""Helpers shared across test modules, and the oracles and reference
computations that only tests call (the brute-force Fourier oracles, the
Duhamel iteration, the Y <= C X constant, the gauged torus functional psi,
the exact solitary wave): src holds what a run reaches."""

import functools
import importlib.util
import inspect
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dnls_lab import cli
from dnls_lab.errors import DnlsLabError, WrongDomainError
from dnls_lab.fields import (Domain, GridFunction, ModulationLattice,
                             SpaceTimeField, SpectralField, Trajectory,
                             _conj_reverse, _deriv_mult, _min_pad_factor,
                             check_edge_decay, dealiased_product_coeffs,
                             padded_values, truncated_coeffs)
from dnls_lab.frequency import bracket
from dnls_lab.gauge import _torus_mus, gauge_forward, gauge_trajectory
from dnls_lab.nonlinear import TWO_PI, NonlinearityConfig, power_nonlinearity
from dnls_lab.sampling import gaussian_packet, scaled_to_h1
from dnls_lab.scenarios import _mass_drift, _smooth_torus_data
from dnls_lab.solver import (SolverConfig, _EtdrkCoefficients, _free_phases,
                             make_spectral_forcing, solve)
from dnls_lab.spaces import besov_norm


def zero_grid(dom: Domain) -> GridFunction:
    return GridFunction(dom, np.zeros(dom.n_points, dtype=np.complex128))


def zero_spectral(dom: Domain) -> SpectralField:
    return SpectralField(dom, np.zeros(dom.n_points, dtype=np.complex128))


def zero_spacetime(lat: ModulationLattice) -> SpaceTimeField:
    return SpaceTimeField(lat, np.zeros((lat.domain.n_points, lat.n_t),
                                        dtype=np.complex128))


def unit_mass(dom: Domain, xi: float) -> SpectralField:
    """Coefficient 1 at the lattice frequency closest to xi, 0 elsewhere."""
    coeffs = np.zeros(dom.n_points, dtype=np.complex128)
    coeffs[int(np.argmin(np.abs(dom.xi - xi)))] = 1.0
    return SpectralField(dom, coeffs)


def conj_flip(f: SpectralField) -> SpectralField:
    """Coefficients of the complex conjugate: (conj u)^(xi) = conj(u^(-xi))."""
    return SpectralField(f.domain, _conj_reverse(f.coeffs))


class SizeLimitError(DnlsLabError):
    """Brute-force oracle invoked beyond its intended grid size."""


def trilinear_T_fourier(f1: SpectralField, f2: SpectralField,
                        f3: SpectralField) -> SpectralField:
    """Constrained-convolution oracle for the trilinear term.

    Torus: sum over k1+k2+k3 = k with k1, k2 != k, plus the diagonal term
    f1(k) f2(k) (i xi(k)) f3(-k).  Line: the plain convolution sum.  Cost
    is O(n^2) per output mode, hence the limit n <= 64.
    """
    dom = f1.domain
    dom.require_same(f2.domain)
    dom.require_same(f3.domain)
    n = dom.n_points
    if n > 64:
        raise SizeLimitError("trilinear oracle limited to n <= 64")
    k = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)  # integer mode index
    kmin, kmax = k.min(), k.max()

    def fetch(arr, kk):
        # coefficient at integer mode kk (0 outside the lattice)
        inside = (kk >= kmin) & (kk <= kmax)
        kk_idx = np.mod(kk, n)
        vals = arr[kk_idx]
        return np.where(inside, vals, 0.0)

    c1, c2, c3 = f1.coeffs, f2.coeffs, f3.coeffs
    xi3_of = lambda kk: kk * dom.dxi
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    out = np.zeros(n, dtype=np.complex128)
    constrained = dom.kind == "torus"
    for i, kk in enumerate(k):
        K3 = kk - K1 - K2
        mask = (K3 >= kmin) & (K3 <= kmax)
        if constrained:
            mask &= (K1 != kk) & (K2 != kk)
        term = (c1[np.mod(K1, n)] * c2[np.mod(K2, n)]
                * (1j * xi3_of(K3)) * fetch(c3, K3))
        acc = np.sum(np.where(mask, term, 0.0))
        if constrained and -kk >= kmin and -kk <= kmax:
            acc += c1[i] * c2[i] * (1j * kk * dom.dxi) * c3[np.mod(-kk, n)]
        out[i] = acc
    out *= dom.dxi ** 2 / TWO_PI
    out[n // 2] = 0.0  # the fold mode is outside both paths' contract
    return SpectralField(dom, out)


def quintic_Q_fourier(fs: list[SpectralField]) -> SpectralField:
    """Constrained-convolution oracle for the quintic term.

    Torus: sum over k1+..+k5 = k excluding k1+k2+k3+k4 = 0, k1+k2 = 0 and
    k3+k4 = 0.  Line: the plain sum.  O(n^4) per output mode, hence the
    limit n <= 32.
    """
    if len(fs) != 5:
        raise ValueError("need exactly five factors")
    dom = fs[0].domain
    for f in fs[1:]:
        dom.require_same(f.domain)
    n = dom.n_points
    if n > 32:
        raise SizeLimitError("quintic oracle limited to n <= 32")
    k = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
    kmin, kmax = k.min(), k.max()
    c = [f.coeffs for f in fs]
    K1 = k[:, None, None, None]
    K2 = k[None, :, None, None]
    K3 = k[None, None, :, None]
    K4 = k[None, None, None, :]
    a = (c[0][:, None, None, None] * c[1][None, :, None, None]
         * c[2][None, None, :, None] * c[3][None, None, None, :])
    ksum = K1 + K2 + K3 + K4
    base_mask = np.ones(ksum.shape, dtype=bool)
    if dom.kind == "torus":
        base_mask &= (ksum != 0) & ((K1 + K2) != 0) & ((K3 + K4) != 0)
    out = np.zeros(n, dtype=np.complex128)
    for i, kk in enumerate(k):
        K5 = kk - ksum
        mask = base_mask & (K5 >= kmin) & (K5 <= kmax)
        term = a * c[4][np.mod(K5, n)]
        out[i] = np.sum(np.where(mask, term, 0.0))
    out *= dom.dxi ** 4 / TWO_PI ** 2
    out[n // 2] = 0.0  # the fold mode is outside both paths' contract
    return SpectralField(dom, out)


def psi_functional(v: GridFunction) -> float:
    """Scalar mean functional of the gauged torus flow:
    (1/2pi) int (2 Im(v d_x conj(v)) - |v|^4 / 2) dx + mu(v)^2, with
    mu(v) = ||v||_{L^2}^2 / (2 pi)."""
    if v.domain.kind != "torus":
        raise WrongDomainError("psi is defined on the torus")
    dom = v.domain
    c = v.to_spectral()
    dxv = SpectralField(dom, _deriv_mult(dom) * c.coeffs).to_grid()
    # band(v * conj(d_x v)) < n, so the plain grid sum integrates it exactly
    term_im = float(np.sum(2.0 * np.imag(v.values * np.conj(dxv.values))) * dom.dx)
    # |v|^4 has twice that band; sample it alias-free on a refined grid
    nf = 4 * dom.n_points
    vf = padded_values(dom, c.coeffs, nf)
    term_quartic = float(np.sum(np.abs(vf) ** 4) * (dom.period / nf))
    mu = float(_torus_mus(v.values, dom))
    return (term_im - 0.5 * term_quartic) / (2.0 * np.pi) + mu ** 2


def xy_embedding_constant(u: SpaceTimeField, b1: float, b2: float) -> float:
    """Exact Cauchy-Schwarz constant with Y^{s,b1} <= C X^{s,b2,+} on u's lattice.

    C = max_xi sqrt(sum_tau <tau + xi^2>^{2(b1-b2)} dtau); the inequality
    then holds verbatim for every field on the lattice.
    """
    if not b2 > b1 + 0.5:
        raise ValueError("need b2 > b1 + 1/2")
    xi = u.domain.xi[:, None]
    tau = u.lattice.tau[None, :]
    s = np.sum(bracket(tau + xi ** 2) ** (2.0 * (b1 - b2)), axis=1) * u.lattice.dtau
    return float(np.sqrt(np.max(s)))


@dataclass
class PicardResult:
    trajectory: Trajectory
    diff_norms: list[float]
    contracted: bool


def picard_iterate(u0: GridFunction, cfg: SolverConfig, n_iter: int) -> PicardResult:
    """Fixed-point iteration of the Duhamel map on [0, t_final].

    Starts from the free evolution and repeatedly applies
    v -> U_t u0 + int_0^t U_{t-t'} N(v)(t') dt' with trapezoid quadrature on
    the cfg time grid.  Returns the last iterate together with the
    successive-difference norms max_t ||v_{m+1} - v_m||_{L^2}; iteration
    stops early (with contracted = False) once the ratios fail to stay
    below 1 three times in a row.
    """
    cfg.domain.require_same(u0.domain)
    check_edge_decay(u0, "initial data on the line")
    dom = cfg.domain
    nl = make_spectral_forcing(cfg, (cfg.n_steps + 1, dom.n_points))
    n_steps = cfg.n_steps
    times = cfg.dt * np.arange(n_steps + 1)
    c0 = u0.to_spectral().coeffs
    fwd = _free_phases(dom, times.tobytes())
    bwd = np.conj(fwd)
    v = fwd * c0[None, :]

    def advance(vcur: np.ndarray) -> np.ndarray:
        # one forcing call on all slices, then the cumulative trapezoid
        integrand = bwd * nl(vcur, np.empty_like(vcur))
        panels = 0.5 * cfg.dt * (integrand[:-1] + integrand[1:])
        cum = np.concatenate((np.zeros_like(integrand[:1]),
                              np.cumsum(panels, axis=0)))
        return fwd * (c0[None, :] + cum)

    diffs: list[float] = []
    contracted = True
    bad_streak = 0
    for _ in range(n_iter):
        v_next = advance(v)
        d = float(np.max(np.sqrt(
            np.sum(np.abs(v_next - v) ** 2, axis=1) * dom.dxi)))
        diffs.append(d)
        if len(diffs) >= 2 and diffs[-2] > 0:
            bad_streak = bad_streak + 1 if diffs[-1] >= diffs[-2] else 0
            if bad_streak >= 3:
                contracted = False
                v = v_next
                break
        v = v_next

    traj = Trajectory(dom, times, SpectralField(dom, v).to_grid().values)
    return PicardResult(traj, diffs, contracted)


def original_rhs_reference(v: SpectralField, lam, k, pad_factor) -> np.ndarray:
    """rhs_original's coefficients for the coefficients v of u, i d_x(|u|^2 u)
    + lam |u|^(2k) u composed term by term on the samples of u: the
    dealiased cube, then i d_x, then the power term, each on its own fine
    grid."""
    dom, u = v.domain, v.to_grid()
    c = u.to_spectral().coeffs
    cube = dealiased_product_coeffs(dom, [c, c, c], [False, False, True],
                                    pad_factor)
    dcube = SpectralField(dom, _deriv_mult(dom) * cube).to_grid().values
    rhs = 1j * dcube + power_nonlinearity(u, lam, k, pad_factor).values
    return GridFunction(dom, rhs).to_spectral().coeffs


def gauged_rhs_reference(v: SpectralField, lam, k) -> np.ndarray:
    """rhs_gauged's coefficients from its expressions on fresh arrays, each
    operation in the kernel's operand order (the torus scalar included, as
    (..., 1) arrays): the bitwise oracle of its work arrays.  A stack is
    taken row by row, since a row gets the bits of its own call; a whole
    stack on fresh arrays would not: numpy writes a product into a large
    temporary operand in place with the operands swapped, and a complex
    product's rounding depends on their order."""
    dom, c = v.domain, v.coeffs
    if c.ndim > 1:
        return np.stack([gauged_rhs_reference(SpectralField(dom, row), lam, k)
                         for row in c])
    nf = max(4, _min_pad_factor(max(5, 2 * k + 1))) * dom.n_points
    vf = padded_values(dom, c, nf)
    v_dv = vf * np.conjugate(padded_values(dom, _deriv_mult(dom) * c, nf))
    dens = np.square(vf.real) + np.square(vf.imag)
    quartic = dens * dens * 0.5
    g = -1j * v_dv
    g.real -= quartic
    scalar = lam if k == 0 else 0.0
    if dom.kind == "torus":
        w = dom.period / nf / (2.0 * np.pi)
        mu = dens.sum(axis=-1, keepdims=True) * w
        scalar += (2j * v_dv.sum(axis=-1, keepdims=True)
                   + quartic.sum(axis=-1, keepdims=True)) * w - mu * mu
        g.real += mu * dens
    if lam != 0.0 and k > 0:
        g.real += np.power(dens, k) * lam
    return truncated_coeffs(dom, vf * g) + scalar * c


def _reference_forcing(cfg):
    """-i rhs from fresh arrays on every call: gauged_rhs_reference, and
    original_rhs_reference on the kernel's one fine grid, where each of its
    terms is bitwise the kernel's."""
    dom, nonlin = cfg.domain, cfg.nonlinearity
    lam, k = nonlin.lam, nonlin.k_power
    pad = max(cfg.pad_factor, _min_pad_factor(max(3, 2 * k + 1)))

    def nl(c):
        v = SpectralField(dom, c)
        if nonlin.gauged:
            return -1j * gauged_rhs_reference(v, lam, k)
        return -1j * original_rhs_reference(v, lam, k, pad)

    return nl


def _etdrk4_reference(c, k, nl):
    n0 = nl(c)
    a = k.E2 * c + k.a0 * n0
    na = nl(a)
    b = k.E2 * c + k.a0 * na
    nb = nl(b)
    cstage = k.E2 * a + k.a0 * (2.0 * nb - n0)
    nc = nl(cstage)
    return k.E * c + k.f1 * n0 + 2.0 * k.f2 * (na + nb) + k.f3 * nc


def _ifrk4_reference(c, k, nl):
    h = k.h
    k1 = nl(c)
    ya = k.E2 * (c + 0.5 * h * k1)
    k2 = nl(ya)
    yb = k.E2 * c + 0.5 * h * k2
    k3 = nl(yb)
    yc = k.E * c + k.E2 * h * k3
    k4 = nl(yc)
    return k.E * c + (h / 6.0) * (k.E * k1 + 2.0 * k.E2 * (k2 + k3) + k4)


def reference_march(u0: GridFunction, cfg) -> np.ndarray:
    """The slices (n_slices, ..., n) of solve(u0, cfg), from the textbook
    expressions of the two steppers on fresh arrays: the bitwise oracle of
    solve's stage buffers and work arrays (no blow-up check)."""
    k = _EtdrkCoefficients(cfg.domain, cfg.dt)
    nl = _reference_forcing(cfg)
    step = _etdrk4_reference if cfg.integrator == "etdrk4" else _ifrk4_reference
    c = u0.to_spectral().coeffs.copy()
    slices = [u0.values]
    for _ in range(cfg.n_steps):
        c = step(c, k, nl)
        slices.append(SpectralField(cfg.domain, c).to_grid().values)
    return np.stack(slices)


def gauge_equivalence_reference(dom: Domain, dt, t_final, h1_norm, lam,
                                k_power) -> tuple[float, float]:
    """scenarios._gauge_equivalence_discrepancy in its two-trajectory form:
    both trajectories stored, the direct one subtracted from the recovered
    one as whole arrays, and both masses taken from stored trajectories.
    The bitwise oracle of the streamed discrepancy."""
    if dom.kind == "torus":
        u0 = _smooth_torus_data(dom, h1_norm)
    else:
        u0 = scaled_to_h1(gaussian_packet(dom, 1.0, 1.3, mode=1), h1_norm)
    cfg_orig = SolverConfig(dom, NonlinearityConfig(lam, k_power, False), dt, t_final)
    cfg_gauged = SolverConfig(dom, NonlinearityConfig(lam, k_power, True), dt, t_final)
    gauged = solve(gauge_forward(u0), cfg_gauged)
    gauged_mass = gauged.mass()
    recovered = gauge_trajectory(gauged, inverse=True)
    direct = solve(u0, cfg_orig)
    diff = Trajectory(dom, direct.times, direct.values - recovered.values)
    return float(np.max(diff.mass())), _mass_drift(direct.mass(), gauged_mass)


def reference_sample_points(rng, n, box, lattice, regime):
    """multipliers.sample_points written with a fresh array per expression:
    the bitwise oracle of its draws (their order and their sizes) and of
    the in-place arithmetic it forms its points with."""
    def log_uniform(n, lo, hi):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))

    def signs(n):
        return rng.choice([-1.0, 1.0], size=n)

    def round_lattice(x):
        return np.rint(x) if lattice == "Z" else x

    def int_between(lo, hi):
        return rng.integers(lo, np.maximum(hi, lo + 1), size=n)

    lo = 1.0 if lattice == "Z" else 1e-2
    tau_box = box ** 2
    if regime == "uniform":
        m1, m2, m3 = (log_uniform(n, lo, box) for _ in range(3))
    else:
        emax = int(np.floor(np.log2(max(box, 8.0))))
        gap = 4

        def shell(e):
            return np.minimum(2.0 ** e * (1.0 + rng.random(n)), box)

        if regime == "I":
            e3 = int_between(gap + 1, emax + 1)
            e2 = np.maximum(e3 - gap - rng.integers(0, 3, size=n), 0)
            e1 = rng.integers(0, np.maximum(e2, 1))
        elif regime == "IIa":
            e1 = e2 = e3 = int_between(0, emax + 1)
        elif regime in ("IIb1+", "IIb1-", "IIb2"):
            e2 = e3 = int_between(gap + 1, emax + 1)
            e1 = np.maximum(e2 - gap - rng.integers(0, 3, size=n), 0)
        elif regime == "IIIa1":
            e2 = int_between(2 * gap + 1, emax + 1)
            e1 = np.maximum(e2 - gap, 0)
            e3 = np.maximum(e1 - gap, 0)
        elif regime == "IIIa2":
            e1 = e2 = int_between(gap + 1, emax + 1)
            e3 = np.maximum(e2 - gap - rng.integers(0, 3, size=n), 0)
        elif regime == "IIIb":
            e2 = int_between(gap + 1, emax + 1)
            e1 = e3 = np.maximum(e2 - gap - rng.integers(0, 3, size=n), 0)
        else:  # IIIc
            e2 = int_between(2 * gap + 1, emax + 1)
            e3 = np.maximum(e2 - gap, 0)
            e1 = np.maximum(e3 - gap, 0)
        m1, m2, m3 = shell(e1), shell(e2), shell(e3)

    xi1 = round_lattice(signs(n) * m1)
    xi2 = round_lattice(signs(n) * m2)
    xi3 = round_lattice(signs(n) * m3)
    if regime == "IIb1-" and lattice == "R":
        xi3 = -xi2 + rng.uniform(-1.0, 1.0, size=n) / np.sqrt(np.abs(m3) + 1.0)
    elif regime in ("IIb1+", "IIb1-"):
        xi3 = np.where(np.sign(xi2) == -np.sign(xi3), -xi3, xi3)

    broad = [signs(n) * log_uniform(n, 1e-3, max(tau_box, 1.0)) for _ in range(3)]
    jit = [signs(n) * log_uniform(n, 1e-3, 10.0) for _ in range(3)]
    near = rng.random(n) < 0.5
    tau1 = np.where(near, -xi1 ** 2 + jit[0], broad[0])
    tau2 = np.where(near, -xi2 ** 2 + jit[1], broad[1])
    tau3 = np.where(near, +xi3 ** 2 + jit[2], broad[2])
    return xi1, xi2, xi3, tau1, tau2, tau3


def cli_defaults(scenario: str) -> dict:
    """The default params of a CLI scenario, from its schema in
    cli.SCENARIOS; the keys it requires are left out."""
    _, schema = cli.SCENARIOS[scenario]
    return {key: k.default for key, k in schema.items() if k.default is not None}


# the CLI scenario whose runner calls each probe
PROBE_SCENARIOS = {"trilinear_probe": "probe-trilinear",
                   "multilinear_probe": "probe-multilinear",
                   "strichartz_probe": "probe-strichartz",
                   "sobolev_mult_probe": "probe-smult",
                   "domination_scan": "verify-domination",
                   "dyadic_sum_check": "dyadic-checks"}


def at_cli_defaults(probe, *args, **kwargs):
    """probe(*args, **kwargs) with every argument left out that has no
    default set as a run of its scenario at the CLI's defaults sets it: the
    scenario's default param of that name (t_values as a tuple), dom the
    Domain of the default kind (the torus where the scenario has none) and
    n_points, and rng seeded with the default seed 0.  An argument that is
    no CLI key (domination_scan's family and lattice) must be given."""
    defaults = cli_defaults(PROBE_SCENARIOS[probe.__name__])
    signature = inspect.signature(probe)
    bound = signature.bind_partial(*args, **kwargs).arguments
    for name, param in signature.parameters.items():
        if name in bound or param.default is not param.empty:
            continue
        if name == "dom":
            bound[name] = Domain(defaults.get("kind", "torus"), defaults["n_points"])
        elif name == "rng":
            bound[name] = np.random.default_rng(0)
        elif name == "t_values":
            bound[name] = tuple(defaults[name])
        else:
            bound[name] = defaults[name]
    return probe(**bound)


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak of fn(*args), in bytes: numpy's data buffers
    are traced, so it counts the arrays alive at once."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reverse(values: np.ndarray) -> np.ndarray:
    """R f = conj(f(-x)) on grid values (..., n): the index map
    j -> (n - j) mod n, on the torus (x_j = j dx) and on the line
    (x_j = -L/2 + j dx) alike."""
    return np.conj(np.roll(values[..., ::-1], 1, axis=-1))


def besov_endpoint_data(dom: Domain, rng) -> GridFunction:
    """u0^(xi) = <xi>^-1 exp(i theta_xi) on 0 < |xi| <= n/8 with random
    phases, scaled to ||u0||_{B^{1/2}_{2,inf}} = 1: equal weight
    N^{1/2} ||P_N u0|| in every dyadic block up to n/8."""
    xi = dom.xi
    band = (xi != 0.0) & (np.abs(xi) <= dom.n_points / 8)
    coeffs = np.where(band, (1.0 + xi ** 2) ** -0.5, 0.0) * np.exp(
        2j * np.pi * rng.random(dom.n_points))
    return SpectralField(dom, coeffs / besov_norm(SpectralField(dom, coeffs), 0.5)).to_grid()


def solitary_wave(dom: Domain, omega: float, c: float) -> GridFunction:
    """The travelling wave u(t, x) = exp(i omega t) phi(-x - c t) of
    i u_t + u_xx = i (|u|^2 u)_x at t = 0, sampled on the line dom, with

        kappa = sqrt(4 omega - c^2)                  (4 omega > c^2)
        q = sqrt((2 sqrt(omega) + c) / (2 sqrt(omega) - c))
        Phi(y)^2 = kappa^2 / (sqrt(omega) cosh(kappa y) - c / 2)
        m(y) = 4 (arctan(q tanh(kappa y / 2)) + arctan q),  m' = Phi^2
        phi(y) = Phi(y) exp(i c y / 2 - (3i / 4) m(y)),

    so that u_t = i omega u + c u_x and the mass is m(inf) = 8 arctan q,
    below 4 pi (Colin & Ohta, Ann. IHP Anal. Non Lineaire 23 (2006); Kaup &
    Newell, J. Math. Phys. 19 (1978)).  |u| decays like exp(-kappa |x| / 2),
    which the box must hold."""
    if not 4.0 * omega > c ** 2:
        raise ValueError("need 4 omega > c^2")
    kappa = np.sqrt(4.0 * omega - c ** 2)
    root = np.sqrt(omega)
    q = np.sqrt((2.0 * root + c) / (2.0 * root - c))
    y = -dom.x
    phi_sq = kappa ** 2 / (root * np.cosh(kappa * y) - c / 2.0)
    m = 4.0 * (np.arctan(q * np.tanh(kappa * y / 2.0)) + np.arctan(q))
    return GridFunction(dom, np.sqrt(phi_sq) * np.exp(1j * c * y / 2.0 - 0.75j * m))


def count_ffts(monkeypatch) -> dict:
    """Count the np.fft.fft and np.fft.ifft calls made from now on, and
    under "points" the points they transform: the size of each input, as
    the benchmark's layer tracer counts them."""
    calls = {"fft": 0, "ifft": 0, "points": 0}

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            calls[name] += 1
            calls["points"] += np.size(a)
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    return calls


def random_spacetime(seed, n=16, n_t=128, dt=np.pi / 64):
    """Random coefficients away from the lattice Nyquist edge (the edge has
    no mirror partner under (xi, tau) -> (-xi, -tau))."""
    dom = Domain("torus", n)
    rng = np.random.default_rng(seed)
    lat = ModulationLattice(dom, n_t, dt, -(n_t // 2) * dt)
    coeffs = rng.normal(size=(n, n_t)) + 1j * rng.normal(size=(n, n_t))
    coeffs[n // 2, :] = 0.0
    coeffs[:, n_t // 2] = 0.0
    return SpaceTimeField(lat, coeffs)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _benchmark_run():
    """perfbench/run.py, loaded by path (perfbench is no package), with
    perfbench/ on the path while it loads so that its `import layertrace`
    resolves."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(PERFBENCH))
    return mod


def golden_mismatches(report, golden, path="") -> list[str]:
    """JSON paths at which a report tree differs from its golden tree.

    Keys, strings and booleans match exactly; numbers by the benchmark's
    rule (perfbench/run.py's _close): they agree to 1e-10 relative, and a
    golden number below 1e-12 in magnitude, which has no stable digits, only
    may not grow past 10 times its golden magnitude (or machine epsilon, if
    larger)."""
    if isinstance(report, dict) and isinstance(golden, dict):
        if report.keys() != golden.keys():
            return [f"{path}: keys {sorted(report)} != {sorted(golden)}"]
        return [m for k in golden
                for m in golden_mismatches(report[k], golden[k], f"{path}.{k}")]
    if isinstance(report, list) and isinstance(golden, list):
        if len(report) != len(golden):
            return [f"{path}: length {len(report)} != {len(golden)}"]
        return [m for i, (a, b) in enumerate(zip(report, golden))
                for m in golden_mismatches(a, b, f"{path}[{i}]")]
    return [] if _benchmark_run()._close(report, golden) else [f"{path}: {report!r} != {golden!r}"]
