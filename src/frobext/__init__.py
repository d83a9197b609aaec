"""Exact Hom/Ext computations for Frobenius modules over finite fields.

Subpackages:
  exact    -- scalars, valuations, polynomials (resultants, ratio polynomials)
  linalg   -- integer/rational matrices, Smith forms over Z and mod p^K,
              Berkowitz charpoly
  zgamma   -- finitely generated abelian groups, z(f) calculus, gamma-invariants
  galois   -- l-adic Galois modules and their Hom/Ext groups
  witt     -- truncated Witt vectors W(F_q)
  crystal  -- F-crystals, Ext presentations, local special-value identity at p
  motive   -- global motives, Hom lattices, global/Weil special-value identities
  zeta     -- varieties, point counts, zeta special values, motivic cohomology
  cli      -- command-line interface
"""

__version__ = "0.1.0"
