"""Locally checkable certificates for approximately hyperfinite graphs.

The pipeline: build a smooth per-vertex witness (uniform balls or separator
shifts), quantize it to a common denominator, encode it as constant-size
labels, verify the labels with a radius-bounded local check, and extract a
small-boundary partition from anything the verifier accepts.
"""

from .errors import (
    DegreeExceeded,
    FormatError,
    InfeasibleAlpha,
    InfeasibleSpec,
    InvalidDistribution,
    LocalcertError,
    MalformedLabeling,
    NoQualifyingSet,
    NonSimple,
    NotAccepted,
    NotUniform,
    OutOfRange,
    WitnessTooRough,
)
from .graphs import (
    BoundedDegreeGraph,
    FamilySpec,
    RootedBall,
    ball,
    ball_sweep,
    bfs,
    build_graph,
    components,
    format_graph,
    generate,
    induced_subgraph,
    max_ball_size_actual,
    max_ball_size_bound,
    parse_graph,
    read_graph_file,
    remove_edges,
    write_graph_file,
)
from .measures import (
    RationalDist,
    UniformityReport,
    WitnessFunction,
    check_uniformity,
    discretize,
    l1_distance,
    project_witness,
    tighten_radius,
    uniform_ball_witness,
)
from .separators import (
    SeparatorDistribution,
    grid_shift_distribution,
    is_k_separator,
    max_marginal,
    path_shift_distribution,
    read_separator_distribution_file,
    shift_family_distribution,
    tree_depth_shift_distribution,
    witness_from_separators,
    write_separator_distribution_file,
)
from .labeling import (
    ProofLabeling,
    SchemeParams,
    build_proof,
    distance_coloring,
    read_labeling_file,
    write_labeling_file,
)
from .verifier import (
    BallSetVerifier,
    LabeledBall,
    ProductVerifier,
    Verdict,
    canonical_ball,
    check_vertex,
    combine_verdicts,
    decode_accepted_witness,
    format_verdict,
    is_acyclic,
    is_planar,
    locality_radius,
    pipeline_verify,
    resolve_predicate,
    run_ball_verifier,
    verify_locally_p,
    verify_and_decode,
    verify_property_a,
)
from .hyperfinite import (
    AreaCoareaResult,
    BoundarySets,
    EditDistanceBound,
    HyperfiniteReport,
    LowBoundaryResult,
    PartitionResult,
    area_coarea_check,
    boundary_sets,
    check_hyperfinite,
    edit_distance_upper_bound,
    extract_partition,
    find_low_boundary_set,
    read_partition_file,
    threshold_set,
    write_partition_file,
)

__version__ = "0.1.0"
