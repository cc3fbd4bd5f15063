"""Exact factorization invariants of zero-sum monoids over Z^r.

The package enumerates minimal zero-sum sequences (Hilbert bases of kernel
cones) over finite subsets of free abelian groups, computes Davenport-type
constants with certified bounds, evaluates sets-of-lengths invariants
(catenary, omega, tau, tame degrees) for finitely generated reduced monoids,
and models three abstract monoid constructions with closed-form arithmetic.
Import what you need from the modules: ``zsl.atoms``, ``zsl.invariants``,
``zsl.models`` and the rest.
"""

__version__ = "0.1.0"
