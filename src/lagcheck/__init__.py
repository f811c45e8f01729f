"""Numerical engine for the differential geometry of Lagrangian submanifolds
in C^n and CP^n: immersion families, pointwise tensor geometry, identity
residual suites, and energy functionals."""

from . import cpn, geometry, identities, immersions, jets, quadrature, tensors
from .cpn import make_cpn_torus, make_rpn, make_whitney_cpn
from .geometry import FrameBundle, closedness_residual, geometry_state, scalar_laplacian
from .identities import (
    check_gauss_ricci,
    check_ricci_identity,
    check_simons_identity,
    check_simons_inequality,
    check_structural,
    run_identity_suite,
)
from .immersions import (
    Immersion,
    from_config,
    make_lagrangian_plane,
    make_perturbed_whitney,
    make_product_torus,
    make_whitney_cn,
)
from .quadrature import (
    QuadratureRule,
    energy_report,
    integrals,
    michael_simon_ratio,
    sphere_rule,
    torus_rule,
)
from .tensors import (
    SpectralSummary,
    c_tensor_array,
    contraction_identity_suite,
    li_li_check,
    spectral_summary,
    tracefree_part,
)

__version__ = "0.1.0"
