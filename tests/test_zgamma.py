from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from frobext import zgamma
from frobext.linalg import identity
from frobext.zgamma import (
    FinGenAbGroup,
    GammaModule,
    GroupHom,
    PairAction,
    Presentation,
    finite_automorphism,
    group_from_orders,
    moduli_presentation,
    standard_presentation,
    z_compose_check,
    z_det_formula,
    z_invariants_map,
    z_of_map,
)


def test_group_canonical_form():
    assert group_from_orders(0, [2, 3]) == FinGenAbGroup(0, (6,))
    assert group_from_orders(1, [4, 6]) == FinGenAbGroup(1, (2, 12))
    assert group_from_orders(2, [1, 1]) == FinGenAbGroup(2)
    with pytest.raises(ValueError):
        FinGenAbGroup(0, (4, 6))  # not a chain


def test_primary_part():
    g = FinGenAbGroup(1, (2, 12))
    assert g.primary_part(2) == FinGenAbGroup(1, (2, 4))
    assert g.primary_part(3) == FinGenAbGroup(1, (3,))
    assert g.primary_part(5) == FinGenAbGroup(1)


def test_z_of_map_examples():
    assert z_of_map(FinGenAbGroup(0, (4,)), FinGenAbGroup(0, (2,)), [[1]]) == 2
    assert z_of_map(FinGenAbGroup(1), FinGenAbGroup(1), [[0]]) is None
    assert z_of_map(FinGenAbGroup(2), FinGenAbGroup(2), [[2, 0], [0, 3]]) == Fraction(1, 6)
    # out of the zero group, a map is one empty row per codomain generator;
    # into Z its cokernel is Z, a presentation with no relations
    zero = FinGenAbGroup(0)
    assert z_of_map(zero, FinGenAbGroup(1), [[]]) is None
    assert z_of_map(zero, FinGenAbGroup(0, (4,)), [[]]) == Fraction(1, 4)
    assert z_of_map(FinGenAbGroup(0, (4,)), zero, []) == 4
    with pytest.raises(ValueError, match="shape"):
        z_of_map(zero, FinGenAbGroup(1), [])


def test_z_det_formula_examples():
    assert z_det_formula(FinGenAbGroup(2), FinGenAbGroup(2),
                         [[2, 0], [0, 3]]) == Fraction(1, 6)
    assert z_det_formula(FinGenAbGroup(1, (2,)), FinGenAbGroup(1), [[1]]) == 2
    assert z_det_formula(FinGenAbGroup(1), FinGenAbGroup(1), [[0]]) is None


def test_z_compose_examples():
    z6 = FinGenAbGroup(0, (6,))
    assert z_compose_check(z6, z6, z6, [[1]], [[1]]) == (1, 1, 1)
    z = FinGenAbGroup(1)
    assert z_compose_check(z, z, z, [[2]], [[3]]) == (
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert z_compose_check(FinGenAbGroup(0, (4,)), FinGenAbGroup(0, (2,)),
                           FinGenAbGroup(0, (2,)), [[1]], [[1]]) == (2, 1, 2)
    # through the zero group, where the product has no inner dimension
    assert z_compose_check(FinGenAbGroup(0, (4,)), FinGenAbGroup(0),
                           FinGenAbGroup(0, (2,)), [], [[]]) == (
        4, Fraction(1, 2), 2)


small_groups = st.builds(
    lambda fr, orders: group_from_orders(fr, orders),
    st.integers(min_value=0, max_value=2),
    st.lists(st.sampled_from([2, 3, 4, 5, 8, 9]), max_size=2),
)


def _valid_hom_matrix(draw, dom, cod):
    """Random matrix defining a homomorphism dom -> cod with dense free block."""
    from math import gcd
    f, fd = cod.free_rank, dom.free_rank
    ents = st.integers(min_value=-5, max_value=5)
    rows = []
    for j in range(f + len(cod.torsion)):
        row = []
        for i in range(fd + len(dom.torsion)):
            x = draw(ents)
            if i >= fd:  # column from a torsion generator of the domain
                d = dom.torsion[i - fd]
                if j < f:
                    x = 0
                else:
                    e = cod.torsion[j - f]
                    x *= e // gcd(e, d)
            row.append(x)
        rows.append(row)
    return rows


@settings(max_examples=80)
@given(st.data(), st.integers(min_value=0, max_value=2),
       st.lists(st.sampled_from([2, 3, 4, 9]), max_size=2),
       st.lists(st.sampled_from([2, 3, 4, 9]), max_size=2))
def test_z_of_map_matches_det_formula(data, fr, tors_m, tors_n):
    dom = group_from_orders(fr, tors_m)
    cod = group_from_orders(fr, tors_n)
    mat = _valid_hom_matrix(data.draw, dom, cod)
    free_block = [row[:fr] for row in mat[:fr]]
    direct = z_of_map(dom, cod, mat)
    closed = z_det_formula(dom, cod, free_block)
    if closed is None:
        assert direct is None or not fr
    else:
        assert direct == closed


@settings(max_examples=60)
@given(st.data(), st.lists(st.sampled_from([2, 3, 4, 9]), max_size=2),
       st.lists(st.sampled_from([2, 3, 4, 9]), max_size=2),
       st.lists(st.sampled_from([2, 3, 4, 9]), max_size=2))
def test_z_multiplicative(data, t1, t2, t3):
    a, b, c = (group_from_orders(0, t) for t in (t1, t2, t3))
    f = _valid_hom_matrix(data.draw, a, b)
    g = _valid_hom_matrix(data.draw, b, c)
    zf, zg, zgf = z_compose_check(a, b, c, f, g)
    assert zf * zg == zgf  # all finite groups: always defined


def _h0_h1(m: GammaModule):
    return m.pair.invariants(), m.pair.coinvariants()


def test_invariants_coinvariants_examples():
    inv, coinv = _h0_h1(GammaModule(FinGenAbGroup(2), [[0, 1], [1, 0]]))
    assert inv == FinGenAbGroup(1) and coinv == FinGenAbGroup(1)
    inv, coinv = _h0_h1(GammaModule(FinGenAbGroup(1), [[5]]))
    assert inv == FinGenAbGroup(0) and coinv == FinGenAbGroup(0, (4,))
    inv, coinv = _h0_h1(GammaModule(FinGenAbGroup(0, (5,)), [[1]]))
    assert inv == coinv == FinGenAbGroup(0, (5,))


def test_gamma_cohomology_trivial_action():
    # the trivial action keeps everything in both degrees
    h0, h1 = _h0_h1(GammaModule(FinGenAbGroup(1), [[1]]))
    assert h0 == FinGenAbGroup(1) and h1 == FinGenAbGroup(1)
    h0, h1 = _h0_h1(GammaModule(FinGenAbGroup(0, (5,)), [[1]]))
    assert h0 == h1 == FinGenAbGroup(0, (5,))


def test_z_invariants_map_examples():
    assert z_invariants_map(GammaModule(FinGenAbGroup(1), [[5]])) == Fraction(1, 4)
    assert z_invariants_map(GammaModule(FinGenAbGroup(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert z_invariants_map(GammaModule(FinGenAbGroup(2), [[0, 1], [1, 0]])) == Fraction(1, 2)
    # 1 as a multiple root of the minimal polynomial: undefined
    assert z_invariants_map(GammaModule(FinGenAbGroup(2), [[1, 1], [0, 1]])) is None


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=9))
def test_z_invariants_map_identity_random(entries):
    n = 1 if len(entries) < 4 else (2 if len(entries) < 9 else 3)
    mat = [entries[i * n:(i + 1) * n] for i in range(n)]
    try:
        m = GammaModule(FinGenAbGroup(n), mat)
    except ValueError:
        return  # singular action
    z = z_invariants_map(m)  # the identity itself is asserted inside
    if z is not None:
        assert z > 0


def test_z_invariants_map_check_raises(monkeypatch):
    # the identity against the characteristic polynomial is a check that
    # raises, not an assert that python -O strips
    monkeypatch.setattr(zgamma, "strip_root", lambda cp, b: (0, Fraction(7)))
    with pytest.raises(RuntimeError, match="characteristic polynomial"):
        z_invariants_map(GammaModule(FinGenAbGroup(1), [[5]]))


@settings(max_examples=60)
@given(st.lists(st.sampled_from([2, 3, 4, 8, 9]), min_size=1, max_size=3),
       st.data())
def test_finite_module_h0_h1_same_order(tors, data):
    g = group_from_orders(0, tors)
    mat = _valid_hom_matrix(data.draw, g, g)
    pres = standard_presentation(g)
    pair = PairAction(pres, mat)
    assert pair.invariants().order == pair.coinvariants().order


def test_cohomology_presentation_independent():
    # Z/6 with gamma = -1, presented two different ways
    one = PairAction(Presentation(1, [[6]]), [[5]])
    two = PairAction(Presentation(2, [[2, 0], [0, 3]]), [[1, 0], [0, 2]])
    assert one.invariants() == two.invariants()
    assert one.coinvariants() == two.coinvariants()
    assert one.z_f0() == two.z_f0()


def test_pair_action_unit_denominator():
    # gamma = 3/5 on Z: at any prime away from 5 this behaves like the
    # honest map; kernel/cokernel of G - U = -2
    pair = PairAction(Presentation(1), [[3]], [[5]])
    assert pair.invariants() == FinGenAbGroup(0)
    assert pair.coinvariants() == FinGenAbGroup(0, (2,))
    assert pair.z_f0() == Fraction(1, 2)


def test_group_hom_validation():
    with pytest.raises(ValueError):
        # Z/4 -> Z/8 by 1 is not well defined
        GroupHom(Presentation(1, [[4]]), Presentation(1, [[8]]), [[1]])
    GroupHom(Presentation(1, [[4]]), Presentation(1, [[8]]), [[2]])  # x -> 2x is
    # the same on moduli presentations, checked by divisibility
    z, z4, z8 = (moduli_presentation([d]) for d in (0, 4, 8))
    not_hom = pytest.raises(ValueError, match="does not define a homomorphism")
    with not_hom:
        GroupHom(z4, z8, [[1]])
    GroupHom(z4, z8, [[2]])
    # free generators (modulus 0): Z -> Z/4 is any map, Z/4 -> Z only 0,
    # and on Z + Z/4 the torsion column may not feed the free row
    GroupHom(z, z4, [[3]])
    GroupHom(z4, z, [[0]])
    with not_hom:
        GroupHom(z4, z, [[1]])
    zt = moduli_presentation([0, 4])
    GroupHom(zt, zt, [[2, 0], [5, 3]])
    with not_hom:
        GroupHom(zt, zt, [[1, 1], [0, 1]])
    # rectangular: Z/2 + Z/4 -> Z/4
    two_four = moduli_presentation([2, 4])
    GroupHom(two_four, z4, [[2, 1]])
    with not_hom:
        GroupHom(two_four, z4, [[1, 1]])
    # a row of the wrong length, the first row or a later one
    zz = moduli_presentation([0, 0])
    for dom, cod, mat in ((two_four, z4, [[2, 1, 0]]), (zz, zz, [[1, 0], [1]])):
        with pytest.raises(ValueError, match="shape"):
            GroupHom(dom, cod, mat)


def test_presentation_takes_one_smith_form(monkeypatch):
    # a homomorphism check into a non-diagonal codomain solves against the
    # codomain's kept Smith form, whose diagonal its group reads
    from frobext import linalg

    calls = []
    real = linalg.smith_normal_form
    count = lambda a: calls.append(a) or real(a)
    monkeypatch.setattr(linalg, "smith_normal_form", count)
    monkeypatch.setattr(zgamma, "smith_normal_form", count)
    cod = Presentation(2, [[2, 4], [0, 6]])
    GroupHom(moduli_presentation([4]), cod, [[1], [0]])
    assert len(calls) == 1
    assert cod.group() == FinGenAbGroup(0, (2, 6))
    assert len(calls) == 1
    # so with f0, invariants to coinvariants: the coinvariants are a
    # cokernel presentation, checked against and then read
    f0 = PairAction(moduli_presentation([0, 4]), identity(2)).f0()
    taken = len(calls)
    assert f0.cod.group() == FinGenAbGroup(1, (4,))
    assert len(calls) == taken


def _is_hom(dom: Presentation, cod: Presentation, mat) -> bool:
    try:
        GroupHom(dom, cod, mat)
    except ValueError as exc:
        assert "does not define a homomorphism" in str(exc)
        return False
    return True


moduli_lists = st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 9, 12]),
                        min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(moduli_lists, moduli_lists, st.data())
def test_moduli_hom_check_vs_lattice_solve(dom_m, cod_m, data):
    # the divisibility check on two moduli presentations against the
    # lattice_solve check on untagged copies of the same relations; half
    # the draws are scaled to be homomorphisms, the rest are left free
    mat = [[data.draw(st.integers(-6, 6)) for _ in dom_m] for _ in cod_m]
    if data.draw(st.booleans()):
        mat = [[x * c // gcd(c, d) if c else x * (d == 0)
                for x, d in zip(row, dom_m)] for row, c in zip(mat, cod_m)]
    dom, cod = moduli_presentation(dom_m), moduli_presentation(cod_m)
    plain = [Presentation(p.gens, p.rels) for p in (dom, cod)]
    assert plain[0].moduli is None and dom.moduli == tuple(dom_m)
    assert _is_hom(dom, cod, mat) == _is_hom(*plain, mat)


def _torsion_invertible_by_kernel(group: FinGenAbGroup, action) -> bool:
    """The Smith-form route: the torsion block's kernel on the torsion
    presentation (its relations, untagged, so checked by lattice_solve) is
    trivial.  Test oracle."""
    f, s = group.free_rank, len(group.torsion)
    tors = Presentation(s, moduli_presentation(group.torsion).rels)
    tblock = [row[f:] for row in action[f:]]
    return GroupHom(tors, tors, tblock).kernel_group().order == 1


def test_torsion_invertibility_beside_a_free_part():
    # free generators have no relation column, so the torsion relations are
    # not the last columns' tail; read so, Z^2 + Z/3 had torsion "Z" and
    # Z + Z/2 + Z/2 had torsion "Z + Z/2"
    with pytest.raises(ValueError, match="invertible on the torsion part"):
        GammaModule(FinGenAbGroup(2, (3,)), [[1, 0, 0], [0, 1, 0], [0, 0, 3]])
    GammaModule(FinGenAbGroup(1, (2, 2)), [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 6, 10, 12, 15, 30]),
       st.lists(st.sampled_from([1, 2, 3, 5, 6, 10]), max_size=2),
       st.integers(0, 1), st.data())
def test_torsion_invertibility_vs_the_kernel(first, steps, free, data):
    # chains with mixed primes: GammaModule's per-prime determinant test
    # against the Smith-form kernel, on actions that are homomorphisms
    # (torsion columns scaled, none feeding the free row)
    chain = [first]
    for m in steps:
        chain.append(chain[-1] * m)
    g = FinGenAbGroup(free, tuple(chain))
    n = free + len(chain)
    mods = [0] * free + chain
    act = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(free, n):
            act[i][j] = act[i][j] * mods[i] // gcd(mods[i], mods[j]) if mods[i] else 0
    if free and act[0][0] == 0:
        act[0][0] = 1
    try:
        GammaModule(g, act)
        accepted = True
    except ValueError as exc:
        assert "invertible on the torsion part" in str(exc)
        accepted = False
    assert accepted == _torsion_invertible_by_kernel(g, act)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]),
       st.lists(st.integers(1, 3), min_size=1, max_size=4))
def test_finite_automorphism_vs_the_kernel(data, l, exps):
    # the determinant test against the Smith-form kernel of the moduli
    # presentation, on matrices that are homomorphisms or not: half the
    # draws are scaled to respect the moduli, the rest are left free
    moduli = [l ** e for e in exps]
    s = len(moduli)
    mat = [[data.draw(st.integers(-2 * l, 2 * l)) for _ in range(s)]
           for _ in range(s)]
    if data.draw(st.booleans()):
        mat = [[x * (moduli[i] // min(moduli[i], moduli[j]))
                for j, x in enumerate(row)] for i, row in enumerate(mat)]
    pres = moduli_presentation(moduli)
    try:
        want = GroupHom(pres, pres, mat).kernel_group().order == 1
    except ValueError:
        with pytest.raises(ValueError, match="does not define a homomorphism"):
            finite_automorphism(mat, moduli, l)
        return
    assert finite_automorphism(mat, moduli, l) == want


def _gate_fraction(ma, mb) -> bool:
    """The hypothesis gate over Q with Fraction gcds: the oracle for the
    integer gate."""
    from fraction_poly import poly_gcd
    from frobext.exact import poly_deg, poly_deriv
    g = poly_gcd(ma, mb)
    return poly_deg(g) < 1 or (poly_deg(poly_gcd(g, poly_deriv(ma))) < 1
                               and poly_deg(poly_gcd(g, poly_deriv(mb))) < 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=0, max_size=4),
       st.lists(st.integers(-3, 3), min_size=0, max_size=4),
       st.lists(st.sampled_from([[1, 0, 1], [-2, 0, 1], [1, 1, 1]]),
                max_size=2))
def test_hypothesis_gate_vs_fraction_gcd(roots_a, roots_b, quadratics):
    # products of linear factors (repeats included) and irreducible
    # quadratics, shared or not
    from frobext.exact import poly_mul
    ma, mb = [1], [1]
    for r in roots_a:
        ma = poly_mul(ma, [-r, 1])
    for r in roots_b:
        mb = poly_mul(mb, [-r, 1])
    for k, f in enumerate(quadratics):
        ma = poly_mul(ma, f)
        if k:
            mb = poly_mul(mb, f)
    try:
        zgamma.hypothesis_gate(ma, mb)
        passed = True
    except zgamma.HypothesisError:
        passed = False
    assert passed == _gate_fraction(ma, mb)
