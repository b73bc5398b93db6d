"""Time evolution: exact free evolution, exponential integrators and
exact lattice rescaling.

The linear part is diagonal in frequency, (U_t f)^(xi) = exp(-i t xi^2) fhat,
and is treated exactly (`free_evolution` applies it to coefficients).  The
default stepper is ETD-RK4 with the Cox-Matthews coefficients assembled
from the phi functions

    phi_k(z) = (exp(z) - sum_{j<k} z^j/j!) / z^k,

evaluated by the closed form for moderate |z| and by a truncated Taylor
series for small |z| to avoid cancellation (Kassam & Trefethen, SIAM J.
Sci. Comput. 26 (2005); Cox & Matthews, J. Comput. Phys. 176 (2002)).
An integrating-factor RK4 is available as a cross-check.

`solve` marches forward from t = 0 only: no caller integrates backward.
It stores the trajectory, or, given a hook `each`, hands each slice's grid
values to the hook in one reused buffer and stores nothing: that is how
a quantity along a trajectory (a difference, a mass, an invariant) is
taken without holding every slice.

Batch axis: `solve` advances a stack of initial data on one SolverConfig
in one march.  u0.values of shape (B, n) gives coefficient arrays (B, n)
in the steppers and the forcing and a Trajectory with values
(n_slices, B, n); more leading batch axes work the same way, and a single
u0 of shape (n,) is the one-member case of the same loop.  Every
operation acts row by row (FFTs along the last axis, torus integrals per
row), so each member gets exactly the bits of its own solve.  The checks
are per member: on the line each member must vanish at the box edges,
and a member blows up when its sup grows by BLOWUP_FACTOR over its own
initial sup or turns non-finite; BlowUpError carries the earliest time at
which any member does.  A forcing call is one kernel call on
coefficients, 2 FFTs in the gauged form and 6 in the original one (its
grid round trip included: see the nonlinear module), so a step makes
4 x 2 + 1 or 4 x 6 + 1, the 1 being the new slice's.
The forcing owns the right-hand side's work arrays and constants for the
one input shape it is made for: a march builds them once instead of on
every call, and they are freed with the forcing rather than held by a
module-level cache, which would outlive the solve.

The march allocates no stage, work or slice array per step (the blow-up
check and the torus integrals still make small ones): `solve` builds the
steppers' STAGES buffers once, a stepper advances the coefficients in
place while the forcing writes each stage's -i rhs into that stage's
buffer, and each new slice is transformed straight into its row of the
trajectory, or into the hook's one buffer when streamed.  Every
trajectory keeps the bits of the textbook steppers on fresh arrays
(tests_support.reference_march).  The benchmark's layer tracer times one
`_etdrk4_step` / `_ifrk4_step` call per step and one `rhs_gauged` /
`rhs_original` call per forcing call; the forcing looks the kernels up in
this module's globals on every call, which is where the tracer rebinds
them.
Outside the kernels, every grid/coefficient transform here goes through
GridFunction.to_spectral and SpectralField.to_grid, or, for the march's
new slices, through fields.scaled_ifft with fields.transform_scales'
factor, so fields alone applies the normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BlowUpError, ParameterError, WrongDomainError
from .fields import (Domain, GridFunction, SpectralField, Trajectory,
                     check_edge_decay, scaled_ifft, transform_scales)
from .nonlinear import NonlinearityConfig, rhs_gauged, rhs_original, rhs_work

PHI_SERIES_RADIUS = 0.5
PHI_SERIES_TERMS = 22
BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class SolverConfig:
    domain: Domain
    nonlinearity: NonlinearityConfig
    dt: float
    t_final: float
    integrator: str = "etdrk4"
    pad_factor: int = 4

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if not self.dt <= self.t_final:
            raise ParameterError("need dt <= t_final")
        if self.t_final > 1.0 + 1e-12:
            raise ParameterError("t_final must stay in (0, 1]")
        if self.integrator not in ("etdrk4", "ifrk4"):
            raise ParameterError(f"unknown integrator {self.integrator!r}")
        if self.pad_factor not in (2, 4):
            raise ParameterError("pad_factor must be 2 or 4")
        n_steps = round(self.t_final / self.dt)
        if abs(n_steps * self.dt - self.t_final) > 1e-9:
            raise ParameterError("t_final must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)


def free_evolution(u0: SpectralField, times: np.ndarray) -> SpectralField:
    """Exact linear evolution of the coefficients u0, as its per-slice
    coefficients at the given (uniform) times.

    u0.coeffs of shape (..., n) gives coefficients (n_slices, ..., n), the
    batch layout of `solve`; the phases exp(-i t xi^2) are built once for
    the whole batch and kept for the next call at the same times, and each
    member gets the bits of its own call."""
    dom = u0.domain
    c0 = u0.coeffs
    times = np.asarray(times, dtype=float)
    phases = _free_phases(dom, times.tobytes())
    phases = phases.reshape((times.size,) + (1,) * (c0.ndim - 1) + (dom.n_points,))
    return SpectralField(dom, phases * c0)


@lru_cache(maxsize=4)
def _free_phases(domain: Domain, times: bytes) -> np.ndarray:
    """exp(-i t xi^2), (n_slices, n), at the float64 times given by their
    bytes; cached per domain and times (a Strichartz ensemble), read-only."""
    t = np.frombuffer(times)
    phases = np.exp(-1j * t[:, None] * domain.xi[None, :] ** 2)
    phases.flags.writeable = False
    return phases


def _phi(z: np.ndarray, k: int) -> np.ndarray:
    """phi_k with a series fallback on |z| < PHI_SERIES_RADIUS."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < PHI_SERIES_RADIUS
    zs = np.where(small, 0.0, z)  # avoid 0/0 in the closed form
    ez = np.exp(zs)
    if k == 1:
        closed = (ez - 1.0) / np.where(small, 1.0, zs)
    elif k == 2:
        closed = (ez - 1.0 - zs) / np.where(small, 1.0, zs) ** 2
    elif k == 3:
        closed = (ez - 1.0 - zs - zs ** 2 / 2.0) / np.where(small, 1.0, zs) ** 3
    else:
        raise ValueError("k in {1,2,3}")
    # Taylor: sum_j z^j / (j+k)!  by Horner from the highest term
    series = np.zeros_like(z)
    for j in range(PHI_SERIES_TERMS, -1, -1):
        series = series * z + 1.0 / float(math.factorial(j + k))
    return np.where(small, series, closed)


class _EtdrkCoefficients:
    """Cox-Matthews ETD-RK4 tableau for the diagonal operator L = -i xi^2,
    with the steppers' per-solve products 2 f2, E2 h and 2 E2."""

    def __init__(self, domain: Domain, h: float):
        z = h * (-1j * domain.xi ** 2)
        self.E = np.exp(z)
        self.E2 = np.exp(z / 2.0)
        self.a0 = (h / 2.0) * _phi(z / 2.0, 1)
        phi1, phi2, phi3 = (_phi(z, k) for k in (1, 2, 3))
        self.f1 = h * (phi1 - 3.0 * phi2 + 4.0 * phi3)
        self.f2 = h * (phi2 - 2.0 * phi3)
        self.f3 = h * (4.0 * phi3 - phi2)
        self.h = h
        self.f2_twice = 2.0 * self.f2
        self.E2_h = self.E2 * h
        self.E2_twice = 2.0 * self.E2


# Both steppers advance c in place through stages, solve's STAGES buffers
# shaped like c, and have the forcing write each stage's N into its own
# buffer.  Each line is one ufunc of the textbook expression, in its operand
# order and association, so a step has the bits of
#     a  = E2 c + a0 N(c)                 b = E2 c + a0 N(a)
#     c' = E2 a + a0 (2 N(b) - N(c))
#     c  <- E c + f1 N(c) + 2 f2 (N(a) + N(b)) + f3 N(c')
# (ETD-RK4) and of
#     ya = E2 (c + h/2 k1)   yb = E2 c + h/2 k2   yc = E c + E2 h k3
#     c  <- E c + h/6 (E k1 + 2 E2 (k2 + k3) + k4)
# (IF-RK4, k_i = N of the previous stage).  The products formed once, E2 c
# and E c per step and 2 f2, E2 h and 2 E2 per solve, are exact repeats:
# the expressions evaluate them first (2.0 * f2 * x is (2.0 * f2) * x).
STAGES = 8


def _etdrk4_step(c: np.ndarray, k: _EtdrkCoefficients, nl, stages) -> None:
    n0, na, nb, nc, e2c, a, y, t = stages
    nl(c, n0)
    np.multiply(k.E2, c, out=e2c)
    np.multiply(k.a0, n0, out=a)
    np.add(e2c, a, out=a)
    nl(a, na)
    np.multiply(k.a0, na, out=y)
    np.add(e2c, y, out=y)
    nl(y, nb)
    np.multiply(2.0, nb, out=t)
    np.subtract(t, n0, out=t)
    np.multiply(k.a0, t, out=t)
    np.multiply(k.E2, a, out=y)
    np.add(y, t, out=y)
    nl(y, nc)
    np.multiply(k.E, c, out=c)
    np.multiply(k.f1, n0, out=t)
    np.add(c, t, out=c)
    np.add(na, nb, out=t)
    np.multiply(k.f2_twice, t, out=t)
    np.add(c, t, out=c)
    np.multiply(k.f3, nc, out=t)
    np.add(c, t, out=c)


def _ifrk4_step(c: np.ndarray, k: _EtdrkCoefficients, nl, stages) -> None:
    k1, k2, k3, k4, ec, y, t, _ = stages
    half_h = 0.5 * k.h
    nl(c, k1)
    np.multiply(half_h, k1, out=t)
    np.add(c, t, out=t)
    np.multiply(k.E2, t, out=y)
    nl(y, k2)
    np.multiply(k.E2, c, out=y)
    np.multiply(half_h, k2, out=t)
    np.add(y, t, out=y)
    nl(y, k3)
    np.multiply(k.E, c, out=ec)
    np.multiply(k.E2_h, k3, out=t)
    np.add(ec, t, out=y)
    nl(y, k4)
    np.multiply(k.E, k1, out=y)
    np.add(k2, k3, out=t)
    np.multiply(k.E2_twice, t, out=t)
    np.add(y, t, out=y)
    np.add(y, k4, out=y)
    np.multiply(k.h / 6.0, y, out=y)
    np.add(ec, y, out=c)


def make_spectral_forcing(cfg: SolverConfig, shape: tuple):
    """Duhamel forcing N(u) = -i * rhs(u) as a map nl(c, out) on
    coefficient arrays c of the given shape (..., n), row by row, with the
    right-hand side's work arrays for that shape.  N is written into out, a
    stepper's stage buffer, since the work arrays hold the kernel's result
    only until the next call."""
    dom, nonlin = cfg.domain, cfg.nonlinearity
    work = rhs_work(dom, nonlin, shape, cfg.pad_factor)

    def nl(c: np.ndarray, out: np.ndarray) -> np.ndarray:
        rhs = rhs_gauged if nonlin.gauged else rhs_original
        return np.multiply(-1j, rhs(SpectralField(dom, c), nonlin, work).coeffs, out=out)

    return nl


def solve(u0: GridFunction, cfg: SolverConfig, each=None) -> Trajectory | None:
    """March the Cauchy problem forward from t=0 to t_final with the
    configured integrator.

    u0 is one initial datum (n,) or a batch (..., n), marched together; the
    Trajectory values are (n_slices, n) or (n_slices, ..., n).  Raises
    BlowUpError when the sup norm of any member grows by BLOWUP_FACTOR over
    its initial sup or turns non-finite.

    With a hook, solve stores no trajectory and returns None: it calls
    each(j, values) for j = 0 .. n_steps, slice j's grid values shaped like
    u0.values, once that slice has passed the blow-up check.  values is one
    buffer that the next step overwrites, so a hook copies what it keeps;
    a march that blows up at slice j has handed over slices 0 .. j-1.
    """
    cfg.domain.require_same(u0.domain)
    check_edge_decay(u0, "initial data on the line")
    coeffs = _EtdrkCoefficients(cfg.domain, cfg.dt)
    step = _etdrk4_step if cfg.integrator == "etdrk4" else _ifrk4_step

    n_steps = cfg.n_steps
    c = u0.to_spectral().coeffs.copy()
    nl = make_spectral_forcing(cfg, c.shape)
    stages = tuple(np.empty((STAGES,) + c.shape, dtype=np.complex128))
    # a member's sup must stay <= its limit, which is finite: zero data may
    # grow but not turn non-finite
    linf0 = np.max(np.abs(u0.values), axis=-1)
    limit = np.minimum(np.where(linf0 > 0, BLOWUP_FACTOR * linf0, np.inf),
                       np.finfo(float).max)
    grid_scale = transform_scales(cfg.domain, cfg.domain.n_points)[0]
    # a stored march transforms slice j into row j; a streamed one into its
    # one row
    keep = each is None
    slices = np.empty((n_steps + 1 if keep else 1,) + c.shape, dtype=np.complex128)
    slices[0] = u0.values
    if not keep:
        each(0, slices[0])
    for j in range(1, n_steps + 1):
        step(c, coeffs, nl, stages)
        vals = scaled_ifft(c, grid_scale, slices[j if keep else 0])
        if not (np.abs(vals).max(axis=-1) <= limit).all():
            raise BlowUpError(j * cfg.dt)
        if not keep:
            each(j, vals)
    return Trajectory(cfg.domain, cfg.dt * np.arange(n_steps + 1), slices) if keep else None


def rescale(traj: Trajectory, sigma: int) -> Trajectory:
    """Exact lattice rescaling u -> sigma^{-1/2} u(x/sigma, t/sigma^2).

    Defined on the line approximation only (the torus period is fixed).
    The target box and point count grow by sigma, source mode k maps to
    target mode k (frequency xi/sigma) with amplitude factor sigma^{1/2},
    and the time axis is relabelled t -> sigma^2 t.
    """
    if traj.domain.kind != "line":
        raise WrongDomainError("rescaling changes the period; line domains only")
    s = int(sigma)
    if s != sigma or s < 1 or (s & (s - 1)) != 0:
        raise ParameterError("sigma must be a power of two")
    if s == 1:
        return Trajectory(traj.domain, traj.times.copy(), traj.values.copy())
    dom = traj.domain
    n = dom.n_points
    tgt = Domain("line", n * s, dom.domain_scale * s)
    k = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
    tgt_idx = np.mod(k, tgt.n_points)
    coeffs = GridFunction(dom, traj.values).to_spectral().coeffs
    big = np.zeros((traj.n_slices, tgt.n_points), dtype=np.complex128)
    big[:, tgt_idx] = np.sqrt(float(s)) * coeffs
    return Trajectory(tgt, (s ** 2) * traj.times, SpectralField(tgt, big).to_grid().values)
