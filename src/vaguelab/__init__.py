"""vaguelab: filter-transformed wavelet families.

Construction of the four L2-unbounded filter transformations of an
orthogonal wavelet basis, numerical verification of their vaguelet and
Riesz properties, the exponential-filter counterexample asymptotics, and
Gaussian process synthesis from the biorthogonal expansion.
"""

from .counterexample import (CounterexampleConfig, CounterexampleError,
                             CounterexampleRun, default_window,
                             ratio_exponent, run_counterexample,
                             vaguelet_violation)
from .family import FamilyBuilder, FamilyError, FamilyIndex, FamilyMember
from .filters import (ExpGammaFilter, Filter, FilterEvalError, FilterPair,
                      FractionalFilter, MSTApproxFilter, OUComplexFilter,
                      OUFilter, RationalFilter, UnitFilter,
                      filter_from_config, unit_pair)
from .grids import (FourierGrid, GridError, SampledSpectrum, default_grid,
                    inner_product, l2_norm, make_grid)
from .mra import (MEYER_SUPPORT_RADIUS, WaveletSpec, check_cmf,
                  vanishing_moment_order)
from .procsim import (PathEnsemble, ProcsimError, SynthesisPlan,
                      covariance_kernel, dyadic_times, empirical_covariance,
                      fbm_scaling, simulate, target_autocovariance)
from .report import (CheckResult, config_hash, dump_report, render_report,
                     report_merge)
from .riesz import (GramMatrix, RieszError, Truncation,
                    biorthogonality_defect, bracket_sum, gram,
                    refinement_identity, riesz_bounds, riesz_suite)
from .vaguelet import (VagueletParamError, VagueletParams, synthesis_bound,
                       vaguelet_suite)

__version__ = "0.1.0"
