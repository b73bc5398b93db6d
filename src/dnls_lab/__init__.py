"""Pseudospectral laboratory for the cubic derivative nonlinear Schroedinger
equation on the torus and on a truncated line: gauge transformations,
dyadic/restriction norms, exponential time stepping, and sampling-based
verification of the multiplier and estimate machinery."""

__version__ = "0.1.0"
