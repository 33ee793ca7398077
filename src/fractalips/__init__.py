"""Interacting particle systems on self-similar networks.

Builds IFS attractors with symbolic addressing and self-similar measures,
assembles and integrates Galerkin discretizations of nonlocal evolution
equations on fractal domains, and verifies the convergence theory (continuum
limit, mean-field empirical-measure convergence, and projection rates) at
desk scale.
"""

from .analysis import (
    ModulusReport,
    RateFit,
    TrajectoryError,
    VlasovConvergenceTable,
    lipschitz_norm_estimate,
    lp_projection_bound,
    modulus_profile,
    projection_error,
    rate_fit,
    traj_error,
    vlasov_self_convergence,
)
from .dynamics import (
    BlockGraph,
    CouplingGraph,
    ModelSpec,
    Trajectory,
    assemble_deterministic,
    builtin_kernels,
    builtin_models,
    consensus_model,
    graph_product,
    integrate_ips,
    integrate_levels,
    kuramoto_inertia_model,
    kuramoto_model,
    pairwise_coupling,
    project_kernel,
    sample_bernoulli,
    stack_graphs,
)
from .errors import BudgetExceededError, ConfigError, NumericalAbortError
from .geometry import (
    IFS,
    AffineMap,
    Similitude,
    attractor_points,
    canonical_interval_ifs,
    compose,
    cylinder_diameter_bound,
    fixed_point,
    natural_projection,
    preset,
    similarity_dimension,
    translation_vector,
)
from .quadrature import (
    SelfSimilarMeasure,
    cell_average,
    cell_means,
    integrate_mc,
    integrate_qmc,
    pairwise_sum,
    stationarity_residual,
)
from .symbolic import (
    ProbabilityVector,
    Word,
    cylinder_measure,
    enumerate_level,
    level_weights,
)
from .transfer import (
    KernelMatrix,
    PiecewiseConstantField,
    PixelImage,
    StepFunction,
    coarsen,
    kernel_to_graphon,
    martingale_level,
    transfer_to_interval,
)

__version__ = "0.1.0"
