"""The torsion-free-lift route to Ext out of a finite crystal, kept as an
oracle for `crystal.koszul_orders`.

It reaches only a source M with invertible F at a single exponent e: then
M = Λ/p^e Λ for the torsion-free crystal Λ with the same F-matrix, and
multiplication by p^e on 0 -> Λ -> Λ -> M -> 0 gives Ext⁰(M, N) =
Hom(Λ, N)[p^e], an extension of Ext¹(Λ, N)[p^e] by Hom(Λ, N)/p^e in degree
one, and Ext²(M, N) = Ext¹(Λ, N)/p^e.  The groups of Λ come from the
presentation θ of `crystal.ext_presentation`, read at K+2 with no count of
vanishing divisors against a free target: every valuation is capped at
e <= K, where a vanishing divisor counts as one of valuation e.
"""

from frobext.crystal import Crystal, _theta_report, ext_presentation
from frobext.exact import int_valuation
from frobext.zgamma import FinGenAbGroup


def _torsion_capped(g: FinGenAbGroup, p: int, e: int) -> int:
    """[G[p^e]] of a finite G, or of the torsion of G."""
    return p ** sum(min(int_valuation(d, p), e) for d in g.torsion)


def _quotient_capped(g: FinGenAbGroup, p: int, e: int) -> int:
    """[G/p^e G]."""
    return p ** (e * g.free_rank) * _torsion_capped(g, p, e)


def lift_orders(m: Crystal, n: Crystal) -> tuple[int, int, int]:
    """([Ext⁰], [Ext¹], [Ext²]) of M into N through the lift Λ."""
    if m.kind != "finite" or not m.is_f_invertible():
        raise ValueError("the source must be finite with invertible F")
    if len(set(m.exponents)) != 1:
        raise ValueError("the lift needs a single exponent")
    lam, e, p = Crystal(m.ring, m.coords), m.exponents[0], m.ring.p
    rep = ext_presentation(lam, n) if n.kind == "finite" \
        else _theta_report(lam, n, m.ring.K + 2)
    return (_torsion_capped(rep.ext0, p, e),
            _quotient_capped(rep.ext0, p, e) * _torsion_capped(rep.ext1, p, e),
            _quotient_capped(rep.ext1, p, e))
