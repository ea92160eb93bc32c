"""Positivity laboratory for divergence-form elliptic operators.

The package discretizes elliptic operators on triangulated polygons with
Dirichlet, Robin, complex-Robin, and mixed boundary conditions, then
certifies — with explicit witnesses — strict positivity of principal
eigenvectors, positivity-improving heat semigroups and kernels, the
complex-Robin spectral bound, and strong positivity of boundary-pinned
parabolic solutions. An exact matrix-semigroup oracle validates the abstract
positivity machinery independently of any discretization.
"""

from .assembly import (
    BoundaryMode,
    CoefficientSet,
    DiscreteOperator,
    MassKind,
    assemble,
    ellipticity_check,
    mmatrix_report,
)
from .lattice import (
    MetzlerGenerator,
    invariant_masks,
    is_irreducible,
    perron_report,
    positivity_improving_equiv,
)
from .mesh import (
    BoundaryTag,
    TriMesh,
    check_corkscrew,
    generate_structured,
    load_mesh,
    quality,
    save_mesh,
)
from .parabolic import (
    BoundaryData,
    MildSolution,
    make_test_bank,
    solve_mild,
    strong_positivity_check,
    very_weak_residual,
)
from .semigroup import (
    EvolutionConfig,
    Scheme,
    Verdict,
    kernel,
    kernel_positivity_report,
    positivity_improving_check,
)
from .spectral import (
    EigenReport,
    PerronPair,
    PositivityCertificate,
    certify_positivity,
    complex_robin_bound,
    perron_pair,
    principal_eig,
    spectral_gap,
)

__version__ = "0.1.0"
