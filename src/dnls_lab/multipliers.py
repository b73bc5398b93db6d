"""Trilinear convolution multipliers and the resonance identity.

Points live on the convolution hyperplane xi1+xi2+xi3 = xi,
tau1+tau2+tau3 = tau; they are constructed from the free coordinates so
the constraint holds exactly.  The modulation magnitudes

    A = {|tau + xi^2|, |tau1 + xi1^2|, |tau2 + xi2^2|, |tau3 - xi3^2|}

satisfy the algebraic identity

    tau + xi^2 - (tau1 + xi1^2 + tau2 + xi2^2 + tau3 - xi3^2)
        = 2 (xi - xi1)(xi - xi2),   |(xi-xi1)(xi-xi2)| = |xi1+xi3||xi2+xi3|,

so 4 max A >= 2 |xi1+xi3||xi2+xi3|: far from the characteristic at least
one factor carries a large modulation.  The multiplier family M, M0..M4
splits the trilinear symbol by which element of A is maximal (ties go to
the lowest index, making the indicator sets a true partition); the "Mt"
family is the same divided by <tau + xi^2>^(1/2), with Mt0 carrying the
delta-dependent weights used near the resonant set.

resonance_residuals and resonance_scale form each square once and take
their maxima with chains of np.maximum over the point arrays, writing into
their own temporaries, instead of stacking four or eight arrays of points:
a max is exact, so the bits are those of the stacked max, and a scan of
10^5 points holds a few point arrays instead of a stack and its copies.

sample_points forms each coordinate in the array of one of its draws (the
exp of a log-uniform draw in place, the signed magnitudes and their rint
in the sign arrays, the near-characteristic taus copied into the broadband
ones) and drops its exponents and magnitudes once spent, with the draws,
their order and every float operation unchanged: a batch peaks at about
ten point arrays, at its last tau draw.
"""

from __future__ import annotations

import numpy as np

from .frequency import bracket

REGIME_LABELS = ("uniform", "I", "IIa", "IIb1+", "IIb1-", "IIb2",
                 "IIIa1", "IIIa2", "IIIb", "IIIc")


def resonance_residuals(xi1, xi2, xi3, tau1, tau2, tau3):
    """Residuals of the two resonance identities plus the max-A lower bound.

    Returns (r1, r2, gap) with
      r1  = |combination - 2 (xi-xi1)(xi-xi2)|,
      r2  = | 2|(xi-xi1)(xi-xi2)| - 2|xi1+xi3||xi2+xi3| |,
      gap = 4 max A - 2 |xi1+xi3||xi2+xi3|  (nonnegative up to roundoff),
    over point arrays, which are read and never written.
    """
    xi = xi1 + xi2 + xi3
    sq1, sq2, sq3 = xi1 ** 2, xi2 ** 2, xi3 ** 2
    m0 = tau1 + tau2 + tau3 + xi ** 2           # tau + xi^2
    combo = m0 - (tau1 + sq1 + tau2 + sq2 + tau3 - sq3)
    prod = 2.0 * (xi - xi1) * (xi - xi2)
    r1 = np.abs(combo - prod, out=combo)
    rhs = 2.0 * np.abs(xi1 + xi3) * np.abs(xi2 + xi3)
    r2 = np.abs(np.abs(prod, out=prod) - rhs, out=prod)
    # the other three modulations are formed in place of their squares
    max_a = np.abs(m0, out=m0)
    for m in (np.add(tau1, sq1, out=sq1), np.add(tau2, sq2, out=sq2),
              np.subtract(tau3, sq3, out=sq3)):
        np.maximum(max_a, np.abs(m, out=m), out=max_a)
    gap = np.subtract(4.0 * max_a, rhs, out=rhs)
    return r1, r2, gap


def resonance_scale(xi1, xi2, xi3, tau1, tau2, tau3):
    """Magnitude scale of the quantities entering the identity: the max of
    |tau|, |tau_j|, xi^2 and xi_j^2 over point arrays."""
    scale = np.abs(tau1 + tau2 + tau3)
    for t in (tau1, tau2, tau3):
        np.maximum(scale, np.abs(t), out=scale)
    for x in (xi1 + xi2 + xi3, xi1, xi2, xi3):
        np.maximum(scale, x ** 2, out=scale)
    return scale


def multiplier_pieces(family: str, xi1, xi2, xi3, tau1, tau2, tau3,
                      delta: float = 1.0 / 24.0) -> tuple[np.ndarray, list[np.ndarray]]:
    """|M| and its five pieces M_0..M_4 over point arrays (family "M"), or
    the Mt analogues (family "Mt").

    The four modulations are formed once; their brackets and the
    max-modulation region (the argmax of their moduli, ties to the lowest
    index) are shared by all six quantities.  Returns (numerator,
    [piece_0..piece_4]).
    """
    if family not in ("M", "Mt"):
        raise ValueError(f"family must be 'M' or 'Mt', got {family!r}")
    xi = xi1 + xi2 + xi3
    mods = [tau1 + tau2 + tau3 + xi ** 2, tau1 + xi1 ** 2, tau2 + xi2 ** 2,
            tau3 - xi3 ** 2]
    region = np.argmax(np.abs(mods), axis=0)
    b_out, b1, b2, b3 = (bracket(m) for m in mods)
    g = bracket(xi)
    g1 = bracket(xi1)
    g2 = bracket(xi2)
    g3 = bracket(xi3)
    r_out, r1, r2, r3 = b_out ** 0.5, b1 ** 0.5, b2 ** 0.5, b3 ** 0.5
    h1, h2 = g1 ** 0.5, g2 ** 0.5
    ind = [(region == j).astype(float) for j in range(4)]

    num = g ** 0.5 * np.abs(xi3) / (r_out * r1 * r2 * r3 * h1 * h2 * g3 ** 0.5)
    if family == "M":
        piece0 = ind[0] / (r1 * r2 * r3 * h1 * h2)
    else:
        e = 0.5 + delta
        piece0 = ind[0] / (b1 ** e * b2 ** e * b3 ** e * g ** (0.5 - 3.0 * delta)
                           * h1 * h2 * g3 ** (0.5 - 3.0 * delta))
    pieces = [
        piece0,
        ind[1] / (r_out * r2 * r3 * h1 * h2),
        ind[2] / (r_out * r1 * r3 * h1 * h2),
        ind[3] / (r_out * r1 * r2 * h1 * h2),
        1.0 / (b_out ** (7.0 / 16.0) * b1 ** (7.0 / 16.0)
               * b2 ** (7.0 / 16.0) * b3 ** (7.0 / 16.0)),
    ]
    if family == "Mt":
        num = num / r_out
        pieces[1:] = [p / r_out for p in pieces[1:]]
    return num, pieces


def domination_ratio_arrays(family: str, xi1, xi2, xi3, tau1, tau2, tau3,
                            delta: float = 1.0 / 24.0) -> tuple[np.ndarray, np.ndarray]:
    """|M| / sum_j M_j (family "M") or the Mt analogue, and |M| / M_4, the
    ratio of case II; 0/0 counts as 0.

    The denominators are strictly positive (the j=4 piece never vanishes),
    so both ratios are always finite.
    """
    num, pieces = multiplier_pieces(family, xi1, xi2, xi3, tau1, tau2, tau3, delta)
    return (np.where(num == 0.0, 0.0, num / sum(pieces)),
            np.where(num == 0.0, 0.0, num / pieces[4]))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _log_uniform(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    draw = rng.uniform(np.log(lo), np.log(hi), size=n)
    return np.exp(draw, out=draw)


def _signs(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice([-1.0, 1.0], size=n)


def _signed(signs: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """signs * mags, formed in the sign array."""
    return np.multiply(signs, mags, out=signs)


def _round_lattice(x: np.ndarray, lattice: str) -> np.ndarray:
    """x rounded to the nearest integer in place on the "Z" lattice."""
    return np.rint(x, out=x) if lattice == "Z" else x


def _draw_taus(rng, mags, tau_box):
    """Half near-characteristic (tau_j ~ -/+ xi_j^2 up to a small jitter),
    half broadband log-uniform up to the tau box: the near values are
    copied into the broadband arrays, and each jitter is dropped once
    spent."""
    n = mags[0].size
    broad = [_signed(_signs(rng, n), _log_uniform(rng, n, 1e-3, max(tau_box, 1.0)))
             for _ in range(3)]
    jit = [_signed(_signs(rng, n), _log_uniform(rng, n, 1e-3, 10.0)) for _ in range(3)]
    near = rng.random(n) < 0.5
    for j, (tau, mag) in enumerate(zip(broad, mags)):
        near_value = mag ** 2
        if j < 2:  # tau1, tau2 ~ -xi_j^2; tau3 ~ +xi3^2
            np.negative(near_value, out=near_value)
        np.add(near_value, jit.pop(0), out=near_value)
        np.copyto(tau, near_value, where=near)
    return tuple(broad)


def _int_between(rng, lo, hi, n):
    return rng.integers(lo, np.maximum(hi, lo + 1), size=n)


def sample_points(rng: np.random.Generator, n: int, box: float,
                  lattice: str = "Z", regime: str = "uniform"):
    """Draw n hyperplane points with magnitudes shaped by the regime label.

    "uniform" draws all six free coordinates log-uniformly up to the box
    bound (random signs); the dyadic regimes fix the relative sizes of the
    block magnitudes N1 <= N2 vs N3 so the proof's case tree is exercised:
        I      N1 <= N2 << N3
        IIa    N1 ~ N2 ~ N3
        IIb1+- N  <~ N1 << N2 ~ N3 (with |xi2+xi3| >= resp. < N3^(-1/2))
        IIb2   N1 << N and N1 << N2 ~ N3
        IIIa1  N2 >> N1 >> N3
        IIIa2  N1 ~ N2 >> N3
        IIIb   N2 >> N1 ~ N3
        IIIc   N2 >> N3 >> N1
    Returns xi1, xi2, xi3, tau1, tau2, tau3 arrays.  Uniform sampling almost
    never lands near the resonant sets, hence the regime-driven magnitudes
    and the near-characteristic tau mixture.
    """
    if lattice not in ("Z", "R"):
        raise ValueError("lattice must be 'Z' or 'R'")
    if regime not in REGIME_LABELS:
        raise ValueError(f"unknown regime {regime!r}")
    lo = 1.0 if lattice == "Z" else 1e-2
    tau_box = box ** 2

    if regime == "uniform":
        m1, m2, m3 = (_log_uniform(rng, n, lo, box) for _ in range(3))
    else:
        emax = int(np.floor(np.log2(max(box, 8.0))))
        gap = 4  # "<<" separation in dyadic exponents (factor 16)

        def shell(e):
            mag = rng.random(n)
            np.add(1.0, mag, out=mag)
            np.multiply(2.0 ** e, mag, out=mag)
            return np.minimum(mag, box, out=mag)

        if regime == "I":
            e3 = _int_between(rng, gap + 1, emax + 1, n)
            e2 = np.maximum(e3 - gap - rng.integers(0, 3, size=n), 0)
            e1 = rng.integers(0, np.maximum(e2, 1))
        elif regime == "IIa":
            e3 = _int_between(rng, 0, emax + 1, n)
            e2 = e3
            e1 = e3
        elif regime in ("IIb1+", "IIb1-", "IIb2"):
            e2 = _int_between(rng, gap + 1, emax + 1, n)
            e3 = e2
            e1 = np.maximum(e2 - gap - rng.integers(0, 3, size=n), 0)
        elif regime == "IIIa1":
            e2 = _int_between(rng, 2 * gap + 1, emax + 1, n)
            e1 = np.maximum(e2 - gap, 0)
            e3 = np.maximum(e1 - gap, 0)
        elif regime == "IIIa2":
            e2 = _int_between(rng, gap + 1, emax + 1, n)
            e1 = e2
            e3 = np.maximum(e2 - gap - rng.integers(0, 3, size=n), 0)
        elif regime == "IIIb":
            e2 = _int_between(rng, gap + 1, emax + 1, n)
            e1 = np.maximum(e2 - gap - rng.integers(0, 3, size=n), 0)
            e3 = e1
        else:  # IIIc
            e2 = _int_between(rng, 2 * gap + 1, emax + 1, n)
            e3 = np.maximum(e2 - gap, 0)
            e1 = np.maximum(e3 - gap, 0)
        m1, m2, m3 = shell(e1), shell(e2), shell(e3)
        del e1, e2, e3

    xi1 = _round_lattice(_signed(_signs(rng, n), m1), lattice)
    xi2 = _round_lattice(_signed(_signs(rng, n), m2), lattice)
    xi3 = _round_lattice(_signed(_signs(rng, n), m3), lattice)
    del m1, m2

    if regime == "IIb1+":
        # keep |xi - xi1| = |xi2 + xi3| comfortably above N3^(-1/2)
        same = np.sign(xi2) == -np.sign(xi3)
        xi3 = np.where(same, -xi3, xi3)
    elif regime == "IIb1-":
        if lattice == "R":
            # |xi2 + xi3| < N3^(-1/2): pin xi3 just off -xi2
            xi3 = -xi2 + rng.uniform(-1.0, 1.0, size=n) / np.sqrt(np.abs(m3) + 1.0)
        else:
            # empty configuration on the integer lattice; fall back to +
            same = np.sign(xi2) == -np.sign(xi3)
            xi3 = np.where(same, -xi3, xi3)
    del m3

    tau1, tau2, tau3 = _draw_taus(rng, (xi1, xi2, xi3), tau_box)
    return xi1, xi2, xi3, tau1, tau2, tau3
