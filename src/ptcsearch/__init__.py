"""Differentiable search for photonic tensor-core circuit topologies under
foundry footprint constraints."""

from .errors import (
    ConfigError,
    DegeneracyError,
    DivergenceError,
    DomainError,
    InfeasibleError,
    LegalizationError,
    PtcError,
    StateError,
)
from .mesh import (
    MeshGrads,
    SuperMesh,
    certainty_gates,
    expected_keep_prob,
    quantize_coupler,
    quantize_coupler_grad,
)
from .pdk import (
    BUILTIN_PDKS,
    BlockBounds,
    FootprintConstraint,
    PdkSpec,
    PenaltyConfig,
    block_bounds,
    count_crossings,
    footprint_exact,
    footprint_expected,
    footprint_penalty,
    footprint_proxy,
    load_pdk,
)
from .permutation import (
    AlmState,
    alm_loss,
    dual_update,
    init_smoothed_identity,
    is_permutation,
    reparametrize,
    rho_schedule,
    spl_legalize,
)
from .search import (
    SearchConfig,
    SearchSchedule,
    gumbel_sample,
    run_search,
    sample_submesh,
    search_step,
)
from .tasks import (
    ClassifyTask,
    MatrixFitTask,
    NoiseModel,
    load_dataset,
    robustness_sweep,
    variation_aware_train,
)
from .topology import TopoBlock, Topology

__version__ = "0.1.0"
