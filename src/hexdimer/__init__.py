"""Exact partition functions and finite-size free-energy expansions for the
hexagonal-lattice dimer model (boxed plane partitions)."""

from .asymptotics import (
    CONVENTION_FINITE,
    CONVENTION_POSITIVE,
    ExpansionCoefficients,
    coeffs_finite,
    coeffs_infinite,
    coeffs_sliced,
    log_ratio_three,
    log_ratio_two,
    predict_free_energy,
    sliced_f0,
    sliced_f3,
)
from .enumeration import (
    HeightConfig,
    config_energy,
    energy_histogram,
    enumerate_configs,
    is_valid_config,
    oracle_partition,
)
from .errors import (
    ConvergenceError,
    EmbeddingError,
    FiniteDifferenceNoiseError,
    HexdimerError,
    IllConditionedBasisError,
    OracleSizeError,
    SingularMatrixError,
)
from .fitting import FitBasis, FitResult, fit, residual_slope
from .kasteleyn import (
    HexEmbedding,
    build_embedding,
    kasteleyn_matrix,
    kasteleyn_partition,
    log_z_kasteleyn,
)
from .partition import (
    FreeEnergySample,
    Scenario,
    free_energy_value,
    grid_samples,
    log_z_infinite,
    log_z_macmahon,
    log_z_sliced,
    series_free_energy,
)
from .shapes import INFINITE, BoxShape, ScaledShape
from .specialfn import (
    chi,
    chi_dd,
    li,
    q_func,
    universal_constant,
    universal_constant_detail,
    xi,
    zeta3,
)
from .weights import (
    ConstantPhi,
    CosinePhi,
    LinearPhi,
    PhiFunction,
    TabulatedPhi,
    phi_from_id,
)

__version__ = "0.1.0"
