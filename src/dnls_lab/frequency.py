"""Smooth cutoffs and the dyadic Littlewood-Paley multipliers.

The master bump chi is the concrete C-infinity cutoff
    chi(xi) = 1                                   for |xi| <= 1,
    chi(xi) = g(2-|xi|) / (g(2-|xi|) + g(|xi|-1)) for 1 < |xi| < 2,
    chi(xi) = 0                                   for |xi| >= 2,
with g(x) = exp(-1/x) for x > 0 and 0 otherwise.  It is radially
non-increasing and the scaled family chi_T(xi) = chi(xi/T) - chi(2 xi/T)
tiles frequency space: chi_{<=1} + sum_{N>1 dyadic} chi_N == 1.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDyadicIndexError


def bracket(a):
    """Japanese bracket (1 + a^2)^(1/2); accepts scalars or arrays."""
    a = np.asarray(a, dtype=float)
    out = np.sqrt(1.0 + a * a)
    return float(out) if out.ndim == 0 else out


def _bump_ratio(s: np.ndarray) -> np.ndarray:
    # g(s)/(g(s)+g(1-s)) for s strictly inside (0,1): 0 at s=0+, 1 at s=1-.
    a = np.exp(-1.0 / s)
    b = np.exp(-1.0 / (1.0 - s))
    return a / (a + b)


def smooth_cutoff(xi):
    """The master bump chi; scalar in, scalar out (arrays pass through)."""
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    t = np.abs(arr)
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    if np.any(mid):
        out[mid] = _bump_ratio(2.0 - t[mid])
    return float(out[0]) if np.isscalar(xi) or np.ndim(xi) == 0 else out.reshape(np.shape(xi))


def cutoff_low(xi, scale: float):
    """chi_{<=T}(xi) = chi(xi / T)."""
    return smooth_cutoff(np.asarray(xi, dtype=float) / scale)


def cutoff_annulus(xi, scale: float):
    """chi_T(xi) = chi(xi/T) - chi(2 xi/T); supported on T/2 < |xi| < 2T."""
    xi = np.asarray(xi, dtype=float)
    return smooth_cutoff(xi / scale) - smooth_cutoff(2.0 * xi / scale)


def check_dyadic(N) -> int:
    """Validate membership in {1, 2, 4, 8, ...}."""
    n = int(N)
    if n != N or n < 1 or (n & (n - 1)) != 0:
        raise InvalidDyadicIndexError(f"{N!r} is not a dyadic index >= 1")
    return n


def dyadic_range(max_xi: float) -> list[int]:
    """All dyadic blocks that can be active on a lattice with |xi| <= max_xi.

    The list ends at the first power of two >= max_xi; higher blocks vanish
    identically on the lattice, so the returned blocks partition unity there.
    """
    ns = [1]
    while ns[-1] < max_xi:
        ns.append(2 * ns[-1])
    return ns


def dyadic_multiplier(xi: np.ndarray, N) -> np.ndarray:
    """chi_N(xi) for N > 1, chi_{<=1}(xi) for N == 1."""
    n = check_dyadic(N)
    if n == 1:
        return cutoff_low(xi, 1.0)
    return cutoff_annulus(xi, float(n))
