"""Exact partition functions and finite-size free-energy expansions for the
hexagonal-lattice dimer model (boxed plane partitions)."""

from .asymptotics import (
    ExpansionCoefficients,
    coeffs_finite,
    coeffs_infinite,
    coeffs_sliced,
    predict_free_energy,
    sliced_f0,
    sliced_f3,
)
from .enumeration import (
    energy_histogram,
    oracle_partition,
)
from .errors import (
    ConvergenceError,
    EmbeddingError,
    HexdimerError,
    IllConditionedBasisError,
    OracleSizeError,
    SingularMatrixError,
)
from .fitting import FitResult, fit, residual_slope
from .kasteleyn import (
    HexEmbedding,
    build_embedding,
    kasteleyn_matrix,
    kasteleyn_partition,
    log_z_kasteleyn,
)
from .partition import (
    CONVENTION_FINITE,
    CONVENTION_POSITIVE,
    FreeEnergySample,
    Scenario,
    free_energy_value,
    grid_samples,
    log_z_infinite,
    log_z_macmahon,
    log_z_sliced,
    series_free_energy,
)
from .shapes import INFINITE, BoxShape
from .specialfn import (
    chi,
    li,
    q_func,
    universal_constant,
    universal_constant_detail,
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
