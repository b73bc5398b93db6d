"""Pseudospectral laboratory for the cubic derivative nonlinear Schroedinger
equation on the torus and on a truncated line: gauge transformations,
dyadic/restriction norms, exponential time stepping, and sampling-based
verification of the multiplier and estimate machinery."""

from .fields import (Domain, GridFunction, ModulationLattice, SpaceTimeField,
                     SpectralField, Trajectory, dealiased_product,
                     spectral_derivative)
from .frequency import (bracket, bessel_potential, cutoff_annulus, cutoff_low,
                        dyadic_projection, dyadic_range, interval_projection,
                        modulation_weight, smooth_cutoff)
from .gauge import (gauge_forward, gauge_inverse, gauge_trajectory,
                    mass_density_mean, psi_functional)
from .nonlinear import (NonlinearityConfig, power_nonlinearity,
                        quintic_Q_fourier, quintic_Q_physical, rhs_gauged,
                        rhs_original, trilinear_T_fourier, trilinear_T_physical)
from .solver import (PicardResult, SolverConfig, duhamel_apply, free_trajectory,
                     linear_propagate, picard_iterate, rescale, solve)
from .spaces import (TimeWindow, besov_norm, cal_y_norm, cal_z_norm,
                     frak_x_norm, sobolev_norm, window_trajectory, xsb_norm,
                     ysb_norm, zs_norm)

__version__ = "0.1.0"
