"""Exact factorization invariants of zero-sum monoids over Z^r.

The package enumerates minimal zero-sum sequences (Hilbert bases of kernel
cones) over finite subsets of free abelian groups, computes Davenport-type
constants with certified bounds, evaluates sets-of-lengths invariants
(catenary, omega, tau, tame degrees) for finitely generated reduced monoids,
and models three abstract monoid constructions with closed-form arithmetic.
"""

from .ground import GroundSet, RationalSequence, Sequence
from .atoms import (
    AtomSet,
    DavenportResult,
    ElementaryDecomposition,
    brute_force_atoms,
    circuit_length,
    davenport,
    davenport_upper_bounds,
    elementary_davenport,
    enumerate_atoms,
    is_elementary,
    rational_elementary_decomposition,
)
from .invariants import (
    Factorization,
    PresentedMonoid,
    UnionOfLengths,
    atom_invariants,
    block_monoid,
    catenary_element,
    distance,
    factorizations,
    free_monoid,
    omega,
    set_of_lengths,
    tame_degree,
    tau,
    union_of_lengths,
)
from .constructions import (
    FibonacciWitness,
    fibonacci_witness,
    hypercube_plus,
    hypercube_pm,
    r3_extremal_atoms,
)
from .models import (
    AcmModel,
    AcmSpec,
    FiniteAbelianGroup,
    MonextModel,
    TowerData,
    acm_class_group,
    acm_report,
    acm_tame,
    fp_rank1_invariants,
    hnp_monoid,
    hnp_report,
    monext_catenary,
    monext_invariants,
    monext_theta_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
