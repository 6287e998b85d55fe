"""Phase-transition structure of coupled two-channel OU diffusions.

Closed-form and numerical solvers for speciation and collapse times,
stability regions and phase diagrams, plus exact-score forward/reverse
samplers and synchronization diagnostics on Gaussian-mixture data.
"""

from .blockmat import Block2, ModeDecomposition, block_inverse, mat_exp, schur_conditional, spectral_decompose
from .collapse import (
    CollapseParams,
    CollapseResult,
    alpha_from_counts,
    cgf,
    chi,
    collapse_bound,
    collapse_time_conditional,
    collapse_time_det,
    collapse_time_mode,
    collapse_time_symmetric,
)
from .moments import (
    Anisotropic,
    AngledMeans,
    MixtureInit,
    ModeMeans,
    ModelSpec,
    MomentState,
    Scheduled,
    ScheduleSpec,
    Symmetric,
    diffusion_kernel,
    kernel_K,
    mean_at,
    mode_kernels,
    moments_ode,
    stacked_moments,
    transition_cov,
)
from .sampler import (
    ConditionalRunConfig,
    DatasetEmpirical,
    Trajectory,
    conditional_log_density,
    conditional_reverse_group,
    conditional_reverse_sample,
    conditional_score,
    empirical_score,
    flow_sample,
    forward_sample,
    population_log_density,
    population_score,
    reverse_sample,
)
from .speciation import (
    PhaseCell,
    SpeciationResult,
    StabilityReport,
    kappa,
    kappa0_aniso,
    kappa_symmetric_closed,
    phase_diagram,
    speciation_time,
    speciation_time_pure_mode,
    stability_check,
)

__version__ = "0.1.0"
