"""Certified bounds for k-equipartition and knapsack-constrained graph partition.

Lower bounds come from doubly nonnegative relaxations solved by a three-block
alternating-direction sweep and made safe by an eigenvalue certificate;
upper bounds come from hyperplane or vector-clustering rounding with pairwise
swap refinement. Tiny instances can be brute-forced to close the sandwich
lb <= opt <= ub end to end.
"""

from .admm import AdmmParams, AdmmResult, AdmmState, ResidualRecord, SolverDivergedError, solve
from .certify import (
    BoundCertificate,
    CutRound,
    certify_bound,
    cutting_loop,
    eig_lower_bound,
    xbar_for,
)
from .graphs import (
    Gpkc,
    GraphInstance,
    InstanceFormatError,
    KEquipartition,
    Partition,
    PartitionSpec,
    SpecValidationError,
    cut_value,
    gen_gpkc_instance,
    gen_rand_graph,
    laplacian,
    read_instance,
    write_instance,
)
from .model import (
    SdpProblem,
    TriangleCut,
    add_cuts,
    build_gpkc_dnn,
    build_gpkc_sdp,
    build_keq_dnn,
    build_keq_sdp,
    separate_met,
)
from .oracle import OracleResult, brute_force_gpkc, brute_force_keq
from .rounding import (
    HeuristicResult,
    gram_factor,
    hyp_plus_two_opt,
    hyperplane_round,
    two_opt_multi,
    vc_plus_two_opt,
    vc_round_gpkc,
    vc_round_keq,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmParams",
    "AdmmResult",
    "AdmmState",
    "BoundCertificate",
    "CutRound",
    "Gpkc",
    "GraphInstance",
    "HeuristicResult",
    "InstanceFormatError",
    "KEquipartition",
    "OracleResult",
    "Partition",
    "PartitionSpec",
    "ResidualRecord",
    "SdpProblem",
    "SolverDivergedError",
    "SpecValidationError",
    "TriangleCut",
    "add_cuts",
    "brute_force_gpkc",
    "brute_force_keq",
    "build_gpkc_dnn",
    "build_gpkc_sdp",
    "build_keq_dnn",
    "build_keq_sdp",
    "certify_bound",
    "cut_value",
    "cutting_loop",
    "eig_lower_bound",
    "gen_gpkc_instance",
    "gen_rand_graph",
    "gram_factor",
    "hyp_plus_two_opt",
    "hyperplane_round",
    "laplacian",
    "read_instance",
    "separate_met",
    "solve",
    "two_opt_multi",
    "vc_plus_two_opt",
    "vc_round_gpkc",
    "vc_round_keq",
    "write_instance",
    "xbar_for",
]
