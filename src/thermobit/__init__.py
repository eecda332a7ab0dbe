"""Monte Carlo toolkit for thermal-noise memory bits.

Simulates two physical one-bit memories — a Johnson-noise-driven
capacitor cell and a bistable double-well coordinate — together with
exact per-trajectory energy ledgers, binary-channel information
measures, and the closed-form dissipation bounds they are compared
against.
"""

__version__ = "0.1.0"  # set before the submodules load: reporting reads it

from .bounds import (BOLTZMANN, BoundComparison, IceCubeModel, NoErasureError, anderson_bound,
                     brillouin_min_dissipation, ice_cube_erasure_energy)
from .capacitor import (EraseRecord, ErasureReport, WriteRecord, WriteTimeoutError, erase,
                        erase_dissipation_theory, partial_erase_error_prob,
                        run_erasure_experiment, write_bit)
from .doublewell import (EscapeInfeasibleError, RelaxationSeries, heated_erase,
                         max_stable_dt, measure_escape_time, relax_ensemble)
from .ensemble import EnsembleWorkerError, run_parallel_ensemble
from .infotheory import (BitChannelStats, binary_entropy, bit_information,
                         estimate_error_prob, wilson_interval)
from .ou import ou_step
from .streams import RngStream, make_stream
