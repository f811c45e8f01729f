"""Numerical engine for the differential geometry of Lagrangian submanifolds
in C^n and CP^n: immersion families, pointwise tensor geometry, identity
residual suites, and energy functionals."""

from . import cpn, geometry, identities, immersions, jets, quadrature, tensors
from .geometry import FrameBundle, closedness_residual, geometry_state, scalar_laplacian
from .identities import run_identity_suite
from .immersions import Immersion
from .quadrature import energy_report, integrals
from .tensors import c_tensor_array

__version__ = "0.1.0"
