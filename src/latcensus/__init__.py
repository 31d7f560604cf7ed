"""latcensus: finite lattices, subuniverse counting, and exhaustive small-size
verification of the extremal count values.

``core``, ``congruence``, ``structure`` and ``subuniverse`` are imported
with the package.  ``canon``, ``census`` and ``verify`` are registered in
``sys.modules`` and bound here as lazy modules: each one's code runs on the
first attribute read from it, so a command on one lattice never compiles
or runs them.  Their public names are re-exported by the module
``__getattr__`` below and read from the module on each access.
"""

from .congruence import (
    count_congruences,
    count_congruences_naive,
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


def _lazy(name: str):
    """Register the submodule ``name`` so that its code runs on first use.

    The caller binds the result as a package attribute: ``from . import
    name`` then finds it without reading ``__spec__``, which would run it.
    Its imports are its own, so that the package namespace holds only the
    names that ``__all__`` lists.
    """
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


canon = _lazy("canon")
census = _lazy("census")
verify = _lazy("verify")

# re-exported name -> the lazy module that defines it
_LAZY_NAMES = {
    **dict.fromkeys(("canonical_form", "canonical_lattice"), canon),
    **dict.fromkeys(
        ("CensusRecord", "census_jsonl", "census_records", "enumerate_lattices"), census
    ),
    **dict.fromkeys((
        "SpectrumReport", "Verdict", "run_checks", "spectrum", "verify_antichain_bound",
        "verify_congruence_spectrum", "verify_gap", "verify_top_three",
    ), verify),
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES})


# every public name bound above, the submodules among them, and the lazy ones
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY_NAMES.keys())
__version__ = "0.1.0"
