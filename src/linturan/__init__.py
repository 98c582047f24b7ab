"""Extremal counts, constructions, and exact search for linear uniform
hypergraphs avoiding loose paths, stars, cycles, and their disjoint unions.
"""

from .bounds import (
    BoundReport,
    disjoint_paths_turan,
    forest_turan,
    inserted_product_lower,
    linear_path_upper,
    packing_lower,
    path_star_forest_upper,
    path_star_turan,
    path_turan_exact,
    removal_upper,
    star_forest_upper,
    star_turan_upper,
    turan_formulas,
)
from .constructions import (
    ConstructionReport,
    FreenessCertificate,
    cone_construction,
    fallback_block_count,
    thm45_construction,
    thm47_construction,
)
from .designs import (
    Design,
    DesignOutcome,
    block_count,
    build_design,
    is_admissible,
    require_design,
    verify_design,
)
from .detect import (
    Embedding,
    contains,
    is_free,
    iter_embeddings,
    verify_embedding,
)
from .endsets import (
    FrameReport,
    SweepReport,
    verify_frame,
    verify_frame_sweep,
)
from .errors import (
    BadParameters,
    DuplicateEdge,
    FormatError,
    HostContainsPath,
    HostNotLinear,
    InterruptedSearch,
    InvariantViolation,
    LinturanError,
    MalformedEmbedding,
    NoDesignAvailable,
    NonUniformEdge,
    NotAPathEmbedding,
    OutOfRangeVertex,
    ProductTooLarge,
    RepeatedVertexInEdge,
)
from .hgio import read_file, write_file
from .hypergraph import (
    Hypergraph,
    cartesian_product,
    connected_components,
    disjoint_union,
    integer_lattice,
    is_linear,
    linearity_violation,
    make_hypergraph,
    remove_vertices,
)
from .oracle import (
    OracleResult,
    SearchBudget,
    ex_table,
    iter_free,
    max_edges,
)
from .patterns import (
    ForbiddenPattern,
    PatternComponent,
    copies,
    forest,
    linear_cycle,
    linear_path,
    linear_star,
    parse_pattern,
    pattern_expr,
    realize,
)
from .results import ResultRecord, ResultsStore

__version__ = "0.1.0"
