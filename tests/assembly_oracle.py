"""The per-prime reading of a motive pair, which the package replaced by
one rational equality on the gcd split away from the exceptional primes
(`motive._assemble`), kept as a test oracle.  None of this is used by the
package.

Every prime of the support, p included, is read on its own.  Away from the
exceptional primes the local data at l are the l-parts of the pair's gcd
split (`l_side`), each checked against the local identity
z(f_l) = |q^chi N*|_l; an exceptional prime is read on the galois route
(`motive._l_side`).  The report multiplies the local data over the
support, and [Ext^1] is the product of the contributions
[Hom_tors(l)]·|D|_l / z(f_l).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from frobext.exact import (abs_at, int_valuation, l_primary, prime_factors,
                           ratio_limit)
from frobext.motive import (Motive, WeilExtReport, _check_caps, _hom_system,
                            _l_side, _q_power, _require_comparable)
from frobext.zgamma import HypothesisError


def l_side(torsion: int, z0: Fraction, l: int, leading: Fraction) -> dict:
    """The local data at l, p included, off the gcd split's |Res(A, B)|
    and z0, checked against the local identity z(f)·[Ext^2] = |q^chi N*|_l
    (Ext^2 vanishes)."""
    z_f = l_primary(z0, l)
    if z_f != abs_at(l, leading):
        raise RuntimeError("local identity failed at l=%d" % l)
    return {
        "hom_tors": 1,
        "ext1_torsion": l ** int_valuation(torsion, l),
        "ext2": 1,
        "z_f": z_f,
        "swap_tors": 1,
    }


class PerPrimeReport:
    """The assembled data of one motive pair, read prime by prime; its
    fields are those of `motive.GlobalExtReport`, and `per_prime` maps each
    prime of the support to its local data."""

    def __init__(self, x: Motive, y: Motive):
        _require_comparable(x, y)
        _check_caps(x.rank, y.rank)
        rho, nstar = ratio_limit(x.charpoly, y.charpoly)
        torsion, z0, disc = _hom_system(x.charpoly, y.charpoly, rho)
        p = x.p
        chi = x.slope_sum() * y.rank
        leading = _q_power(p, x.a, chi) * abs(nstar)
        support = {p}
        support.update(prime_factors(nstar.numerator))
        support.update(prime_factors(nstar.denominator))
        support.update(prime_factors(disc))
        support.update(x.exceptional)
        support.update(y.exceptional)
        self.per_prime: dict[int, dict] = {}
        ext1_order = 1
        for l in sorted(support):
            on_system = l not in x.exceptional and l not in y.exceptional
            if on_system:
                d = l_side(torsion, z0, l, leading)
            else:
                d = _l_side(x, y, l, rho, nstar)
            self.per_prime[l] = d
            contrib = Fraction(d["hom_tors"]) * abs_at(l, disc) / d["z_f"]
            if contrib.denominator != 1:
                raise RuntimeError("non-integral Ext^1 contribution at l=%d"
                                   % l)
            ext1_order *= contrib.numerator
            if rho == 0 and not on_system and d["ext1_torsion"] is not None \
                    and contrib.numerator != d["ext1_torsion"]:
                raise RuntimeError("the z-route and the group route disagree"
                                   " at l=%d" % l)
        torsions = [d["ext1_torsion"] for d in self.per_prime.values()]
        self.q, self.rho, self.discriminant = x.q, rho, disc
        self.hom_tors_order = self._product("hom_tors", 1)
        self.ext1_order = ext1_order
        self.ext2_cotors_order = self._product("ext2", 1)
        self.chi, self.chi_statement = chi, Fraction(x.rank) * y.slope_sum()
        self.nstar, self.support = nstar, tuple(sorted(support))
        self.leading = leading
        self.z_f = self._product("z_f", Fraction(1))
        self.ext1_torsion = None if None in torsions else prod(torsions)
        self.swap_tors = self._product("swap_tors", 1)

    def _product(self, key: str, start):
        return prod((d[key] for d in self.per_prime.values()), start=start)

    def global_identity(self) -> dict:
        rhs = Fraction(self.ext1_order * self.discriminant,
                       self.hom_tors_order * self.ext2_cotors_order)
        return {
            "q": self.q,
            "rho": self.rho,
            "lhs": self.leading,
            "rhs": rhs,
            "equal": self.leading == rhs,
            "duality_ok": self.swap_tors == self.ext2_cotors_order,
            "chi": self.chi,
            "chi_statement": self.chi_statement,
            "ext1_order": self.ext1_order,
            "discriminant": self.discriminant,
            "hom_tors_order": self.hom_tors_order,
            "ext2_cotors_order": self.ext2_cotors_order,
            "support": self.support,
        }

    def weil_identity(self) -> dict:
        balance = self.leading * self.z_f * self.ext2_cotors_order
        return {
            "q": self.q,
            "rho": self.rho,
            "lhs": self.leading,
            "z_f": self.z_f,
            "ext2_order": self.ext2_cotors_order,
            "rhs": 1 / (self.z_f * self.ext2_cotors_order),
            "balance": balance,
            "equal": balance == 1,
            "chi": self.chi,
            "chi_statement": self.chi_statement,
            "support": self.support,
        }

    def weil_ext(self) -> WeilExtReport:
        if self.ext1_torsion is None:
            raise HypothesisError("Ext^1 torsion is not determined when torsion"
                                  " meets positive local rank at one prime")
        return WeilExtReport(
            q=self.q, rho=self.rho, ext0_rank=self.rho,
            ext0_torsion=self.hom_tors_order, ext1_rank=self.rho,
            ext1_torsion=self.ext1_torsion, ext2_order=self.ext2_cotors_order,
            z_f=self.z_f)
