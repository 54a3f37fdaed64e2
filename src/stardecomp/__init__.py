"""k-star decompositions of regular graphs and their numeric certificates.

Modules:

- ``numerics``: entropy rate functions and exact pairing-model probabilities
- ``conditions``: strong/weak decomposition conditions and threshold tables
- ``graph``: regular-graph representations and configuration-model samplers
- ``decompose``: orientation pipeline (path reversal, or push-relabel on large
  graphs), verification, subset oracle
- ``experiments``: reproducible Monte Carlo harness and certificate curves
- ``cli``: command-line surface (``stardecomp`` entry point)
"""

from .conditions import (
    StarParams,
    StrongResult,
    WeakCertificate,
    k_sc,
    k_sc_table,
    star_params,
    strong_condition,
    weak_certificate,
)
from .decompose import (
    StarDecomposition,
    StarProfile,
    Witness,
    balanced_profile,
    brute_force_condition,
    decompose,
    verify_decomposition,
)
from .graph import (
    MultiGraph,
    SimpleGraph,
    gen_configuration,
    read_graph,
    reject_to_simple,
    sample_simple,
    write_graph,
)
from .numerics import entropy_H, entropy_h, exact_P_Mr, rate_F, rate_Fd

__version__ = "0.1.0"

__all__ = [
    "StarParams",
    "StrongResult",
    "WeakCertificate",
    "k_sc",
    "k_sc_table",
    "star_params",
    "strong_condition",
    "weak_certificate",
    "StarDecomposition",
    "StarProfile",
    "Witness",
    "balanced_profile",
    "brute_force_condition",
    "decompose",
    "verify_decomposition",
    "MultiGraph",
    "SimpleGraph",
    "gen_configuration",
    "read_graph",
    "reject_to_simple",
    "sample_simple",
    "write_graph",
    "entropy_H",
    "entropy_h",
    "exact_P_Mr",
    "rate_F",
    "rate_Fd",
    "__version__",
]
