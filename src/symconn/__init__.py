"""Connectivity of symmetric semi-algebraic sets by dimension reduction.

A set cut out by symmetric polynomial constraints of degree d <= n can be
probed through the first d power sums.  The machinery here decides whether
two points lie in the same connected component by working on the extremal
faces of the sorted chamber instead of the full n-dimensional space: solve
for a canonical fiber point, glue the components of the face sets where
they meet, and walk wall crossings for queries that leave the chamber.
"""

from .compositions import (
    Composition,
    apply_transpositions,
    composition,
    embed,
    enumerate_compositions,
    extremal_compositions,
    join,
    merge_at_wall,
    precedes,
    sorting_transpositions,
)
from .engine import (
    Engine,
    Verdict,
    get_engine,
)
from .errors import (
    DomainError,
    InvalidCodeError,
    LocateFailure,
    ParseError,
    PreconditionError,
    SolverError,
)
from .oracle import (
    OracleConfig,
    Region,
    brute_force_connected,
    face_region,
    point_feasible,
    sample_components,
)
from .polynomials import (
    Constraint,
    ExpandedPoly,
    PowerSumPoly,
    Relation,
    SymmetricSystem,
    make_box,
    restrict,
    vandermonde_map,
)
from .problemfile import (
    ProblemFile,
    Query,
    build_config,
    parse_point_text,
    parse_problem,
)
from .realroots import (
    AlgebraicPoint,
    RealRoot,
    UniPoly,
    count_real_roots,
    real_roots,
    sign_at_root,
    thom_encoding,
    thom_rooted,
)
from .uniongraph import (
    UnionGraph,
    build_union_graph,
    locate_vertex,
)
from .vandermonde import (
    CanonicalPoint,
    fiber_points,
    min_canonical,
)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "AlgebraicPoint",
    "CanonicalPoint",
    "Composition",
    "Constraint",
    "DomainError",
    "Engine",
    "ExpandedPoly",
    "InvalidCodeError",
    "LocateFailure",
    "OracleConfig",
    "ParseError",
    "PowerSumPoly",
    "PreconditionError",
    "ProblemFile",
    "Query",
    "RealRoot",
    "Region",
    "Relation",
    "SolverError",
    "SymmetricSystem",
    "UnionGraph",
    "UniPoly",
    "Verdict",
    "apply_transpositions",
    "brute_force_connected",
    "build_config",
    "build_union_graph",
    "composition",
    "count_real_roots",
    "embed",
    "enumerate_compositions",
    "extremal_compositions",
    "face_region",
    "fiber_points",
    "get_engine",
    "join",
    "locate_vertex",
    "make_box",
    "merge_at_wall",
    "min_canonical",
    "parse_point_text",
    "parse_problem",
    "point_feasible",
    "precedes",
    "real_roots",
    "restrict",
    "run_verify",
    "sample_components",
    "sign_at_root",
    "sorting_transpositions",
    "thom_encoding",
    "thom_rooted",
    "vandermonde_map",
]
