"""latcensus: finite lattices, subuniverse counting, and exhaustive small-size
verification of the extremal count values."""

from .canon import canonical_form, canonical_lattice
from .census import CensusRecord, census_jsonl, census_records, enumerate_lattices
from .congruence import (
    Congruence,
    count_congruences,
    count_congruences_naive,
    is_congruence,
    join_irreducible_congruences,
    principal_congruence,
)
from .core import (
    BadIndexOrder,
    ExpressionError,
    IndexOutOfRange,
    Lattice,
    LatticeError,
    NotALattice,
    SizeLimit,
    SizeTooSmall,
    UnknownName,
    bit_indices,
    build_expression,
    chain,
    direct_product,
    from_covers,
    glued_cuts,
    glued_sum,
    mask_of,
    named,
    sublattice,
)
from .structure import (
    CHAIN,
    GLUED_B4,
    GLUED_N5,
    OTHER,
    Classification,
    GluedDecomposition,
    classify,
    decompose_glued_sum,
    doubly_irreducibles,
    find_antichain,
    is_chain,
    isolated_edges,
    isolated_elements,
)
from .subuniverse import (
    count_subuniverses,
    count_subuniverses_naive,
    enumerate_subuniverses,
    is_subuniverse,
)
from .verify import (
    SpectrumReport,
    Verdict,
    run_checks,
    spectrum,
    verify_antichain_bound,
    verify_congruence_spectrum,
    verify_gap,
    verify_top_three,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
