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

The maps act row by row on values (..., n): one mean, antiderivative and
edge check per row and every FFT along the last axis, so each row gets
the bits of its own call.  `gauge_trajectory` maps a trajectory in place,
and `gauge_report` a stack of rows, in blocks of rows whose fine-grid
work arrays take about BLOCK_BYTES each.  gauge-equivalence holds one
trajectory (6.6 MB at n = 1024) while it maps it and while the direct
solve streams into it; the budget keeps the map's transients (0.33 MB
traced there, 5 % of the trajectory) below the streamed solve's own
work, so that the map does not set that run's peak.  Twice the budget
would (0.85 MB); a smaller one cannot lower the peak, which the solves
then set, and makes the map slower.
"""

from __future__ import annotations

import numpy as np

from .errors import ConservationError
from .fields import (SQRT_2PI, Domain, GridFunction, SpectralField, Trajectory,
                     _row_blocks, _square_sums, check_edge_decay, padded_values)

MU_DRIFT_TOL = 1e-8
# bytes of one fine-grid (2n-point complex) work array of a row block
BLOCK_BYTES = 2 ** 16


def _torus_mus(values: np.ndarray, dom: Domain) -> np.ndarray:
    return _square_sums(values) * dom.dx / (2.0 * np.pi)


def _density_antiderivative(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean periodic antiderivative of |f|^2 - mean(|f|^2), plus the
    mean, for every row of f.

    |f|^2 is sampled alias-free on a twice-refined grid (its band is twice
    the band of f), integrated spectrally there, and read back at the
    coarse points, which form a subset of the fine grid.
    """
    dom = f.domain
    fine = Domain(dom.kind, 2 * dom.n_points, dom.domain_scale)
    vf = padded_values(dom, f.to_spectral().coeffs, fine.n_points)
    chat = GridFunction(fine, np.abs(vf) ** 2).to_spectral().coeffs
    mean = np.real(chat[..., 0]) * SQRT_2PI / dom.period
    ghat = np.zeros_like(chat)
    ghat[..., 1:] = chat[..., 1:] / (1j * fine.xi[1:])
    anti = np.real(SpectralField(fine, ghat).to_grid().values)
    return anti[..., ::2], mean


def gauge_phase(f: GridFunction) -> np.ndarray:
    """The real gauge integral of every row, shaped like f.values:
    zero-mean antiderivative on the torus, running integral from the left
    edge on the line."""
    anti, mean = _density_antiderivative(f)
    if f.domain.kind == "torus":
        return anti
    check_edge_decay(f, "the line gauge")
    x = f.domain.x
    return mean[..., None] * (x - x[0]) + (anti - anti[..., :1])


def gauge_forward(f: GridFunction) -> GridFunction:
    """Multiply by exp(-i phase(|f|^2)); preserves |f| pointwise."""
    return GridFunction(f.domain, np.exp(-1j * gauge_phase(f)) * f.values)


def gauge_inverse(g: GridFunction) -> GridFunction:
    """Exact inverse of gauge_forward: the phase depends only on |g| = |f|."""
    return GridFunction(g.domain, np.exp(+1j * gauge_phase(g)) * g.values)


def gauge_trajectory(traj: Trajectory, inverse: bool = False) -> Trajectory:
    """Gauge every slice in place and return traj; on the torus also
    translate by 2 mu t.

    mu is evaluated once on the initial slice (the transform is defined
    with a single mean); its drift along the trajectory raises when it
    exceeds tolerance, since the flow that produced it did not conserve
    mass.  That check, and the line's edge check, run before the first
    write, so a map that raises leaves traj as it was.  Each row block is
    read in full before its image is written back into its rows.
    """
    dom = traj.domain
    if dom.kind == "torus":
        mus = _torus_mus(traj.values, dom)
        mu0 = float(mus[0])
        drift = float(np.max(np.abs(mus - mu0)))
        if not drift <= MU_DRIFT_TOL * max(1.0, mu0):  # a NaN drift raises
            raise ConservationError(
                f"mu drifted by {drift:g} along the trajectory; the flow that "
                f"produced it did not conserve mass")
        # slice l moves by 2 mu t_l (the inverse moves it back): one phase
        # row per slice on the coefficients
        shifts = 2.0 * mu0 * traj.times
        turn = +1j if inverse else -1j
    else:
        check_edge_decay(GridFunction(dom, traj.values), "the line gauge")
    for rows in _row_blocks(traj.n_slices, 2 * dom.n_points * 16, BLOCK_BYTES):
        u = GridFunction(dom, traj.values[rows])
        if not inverse:
            u = gauge_forward(u)
        if dom.kind == "torus":
            translate = np.exp(turn * shifts[rows, None] * dom.xi)
            u = SpectralField(dom, u.to_spectral().coeffs * translate).to_grid()
        traj.values[rows] = gauge_inverse(u).values if inverse else u.values
    return traj


def gauge_report(f: GridFunction) -> tuple[float, float]:
    """(round-trip error, modulus error): the max pointwise errors of
    gauge_inverse(gauge_forward(u)) - u and of |gauge_forward(u)| - |u| over
    the rows u of f (..., n); a NaN error is kept."""
    dom = f.domain
    stack = f.values.reshape(-1, dom.n_points)
    rt = mod = 0.0
    for rows in _row_blocks(len(stack), 2 * dom.n_points * 16, BLOCK_BYTES):
        u = GridFunction(dom, stack[rows])
        g = gauge_forward(u)
        back = gauge_inverse(g)
        rt = np.maximum(rt, np.max(np.abs(back.values - u.values)))
        mod = np.maximum(mod, np.max(np.abs(np.abs(g.values) - np.abs(u.values))))
    return float(rt), float(mod)
