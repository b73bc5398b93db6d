"""Helpers shared across test modules."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np

from dnls_lab.fields import (Domain, GridFunction, ModulationLattice,
                             SpaceTimeField, SpectralField, _conj_reverse,
                             _deriv_mult, dealiased_product_coeffs)
from dnls_lab.nonlinear import power_nonlinearity, rhs_gauged, rhs_original
from dnls_lab.solver import _EtdrkCoefficients


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


def original_rhs_reference(u, lam, k, pad_factor):
    """i d_x(|u|^2 u) + lam |u|^(2k) u composed term by term: the dealiased
    cube, then i d_x, then the power term, each on its own fine grid."""
    dom = u.domain
    c = u.to_spectral().coeffs
    cube = dealiased_product_coeffs(dom, [c, c, c], [False, False, True],
                                    pad_factor)
    dcube = SpectralField(dom, _deriv_mult(dom) * cube).to_grid().values
    return 1j * dcube + power_nonlinearity(u, lam, k, pad_factor).values


def _reference_forcing(cfg):
    """-i rhs as the forcing computes it, with the kernels building their own
    work arrays on every call (work=None) and each result a fresh array."""
    dom, nonlin = cfg.domain, cfg.nonlinearity

    def nl(c):
        if nonlin.gauged:
            return -1j * rhs_gauged(SpectralField(dom, c), nonlin).coeffs
        f = rhs_original(SpectralField(dom, c).to_grid(), nonlin, cfg.pad_factor)
        return -1j * f.to_spectral().coeffs

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
