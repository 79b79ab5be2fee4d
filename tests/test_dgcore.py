import random
from fractions import Fraction
from math import comb

import pytest

from dgcat.dgcore import Arrow, DGCategory, Hom, InfiniteDimensionalHom, Morphism, ObjId, Tables, Violation, contract, from_quiver, full_subcategory, opposite, tensor, swap_iso
from dgcat.exactlin import GF, QQ, ChainComplex, Matrix, axpy
from dgcat.fixtures import (
    a2_category,
    beilinson3_category,
    epsilon_category,
    kronecker_category,
    point_category,
)
from dgcat.functors import validate_functor

import gens
import quiver_reference
from gens import product_outside_basis_category, random_category, random_quiver_presentation, skew_beilinson_quiver
from tensor_reference import plain


def brute_path_count(vertices, arrows, src, dst, length):
    """Independent oracle: raw paths src -> dst of given length."""
    paths = [[src]] if length >= 0 else []
    for _ in range(length):
        nxt = []
        for p in paths:
            for (name, a, b) in arrows:
                if a == p[-1]:
                    nxt.append(p + [b])
        paths = nxt
    return sum(1 for p in paths if p[-1] == dst)


def sym_square_dim(n):
    """Oracle for the Beilinson Hom(1,3) dimension: dim Sym^2(k^n)."""
    return sum(1 for i in range(n) for j in range(n) if i <= j)


def test_point_category_valid():
    cat = point_category()
    assert cat.validate() == []
    pt = cat.obj("pt")
    assert cat.hom(pt, pt).dim(0) == 1


def test_unit_cycle_violation_detected():
    cat = point_category()
    pt = cat.obj("pt")
    # inject d(id) != 0 by giving End(pt) a degree-1 part hit by d
    from dgcat.dgcore import DGCategory, Hom
    from dgcat.exactlin import ChainComplex

    h = Hom(ChainComplex(QQ, {0: 1, 1: 1}, {0: Matrix.identity(QQ, 1)}), {0: ("1",), 1: ("t",)})
    bad = DGCategory(QQ, cat.objects, {(pt, pt): h}, cat.comp, cat.ids)
    report = bad.validate()
    assert any(v.axiom == "unit_cycle" for v in report)


def test_kronecker_valid_and_dims():
    cat = kronecker_category()
    assert cat.validate() == []
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    assert cat.hom(e1, e2).dim(0) == 2
    assert cat.hom(e2, e1).complex.dims == {}
    assert cat.hom(e1, e1).dim(0) == 1
    assert brute_path_count(["e1", "e2"], [("a", "e1", "e2"), ("b", "e1", "e2")], "e1", "e2", 1) == 2


def test_broken_composition_detected():
    cat = a2_category()
    u, v = cat.obj("u"), cat.obj("v")
    from dgcat.dgcore import DGCategory

    comp = dict(cat.every_table())
    comp[(u, u, v)] = {}  # drop id·a structure constants
    bad = DGCategory(cat.field, cat.objects, cat.homs, comp, cat.ids)
    report = bad.validate()
    assert any(v_.axiom in ("left_unit", "right_unit") for v_ in report)


def test_a2_from_quiver():
    cat = a2_category()
    assert cat.validate() == []
    u, v = cat.obj("u"), cat.obj("v")
    assert cat.hom(u, v).dim(0) == 1
    assert cat.hom(u, u).dim(0) == 1
    assert cat.hom(v, u).complex.dims == {}


def test_beilinson_b3():
    cat = beilinson3_category()
    assert cat.validate() == []
    v1, v3 = cat.obj("v1"), cat.obj("v3")
    assert cat.hom(v1, v3).dim(0) == sym_square_dim(3) == 6
    assert cat.hom(cat.obj("v1"), cat.obj("v2")).dim(0) == 3


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "Fp"])
def test_beilinson_p4(field):
    """O..O(4) on P^4: dim Hom(v_a, v_{a+d}) = C(4+d, d), all in degree 0."""
    cat = skew_beilinson_quiver(field, 5, 4, seed=5)
    for a in range(5):
        for b in range(5):
            expected = {0: comb(4 + b - a, b - a)} if b >= a else {}
            assert cat.hom(cat.obj(f"v{a}"), cat.obj(f"v{b}")).complex.dims == expected
    assert cat.validate() == []


def test_loop_quiver_without_relations_fails():
    for construct in (from_quiver, quiver_reference.from_quiver):
        with pytest.raises(InfiniteDimensionalHom):
            construct(QQ, ["*"], [Arrow("e", "*", "*")], max_path_length=8, max_paths=64)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "Fp"])
def test_beilinson_p5(field):
    """O..O(5) on P^5 builds (past the old free-path bound) and validates:
    dim Hom(v_a, v_{a+d}) = C(5+d, d), all in degree 0."""
    cat = skew_beilinson_quiver(field, 6, 5, seed=5)
    for a in range(6):
        for b in range(6):
            expected = {0: comb(5 + b - a, b - a)} if b >= a else {}
            assert cat.hom(cat.obj(f"v{a}"), cat.obj(f"v{b}")).complex.dims == expected
    assert cat.validate() == []


def test_skew_quivers_have_the_same_hom_dimensions_over_q_and_fp():
    """from_quiver over Q and over F_32003 finds Hom complexes of the same
    dimensions on the same seeded skew Beilinson quivers, up to P^5."""
    for m, k, seed in ((2, 4, 1), (3, 3, 2), (4, 3, 11), (3, 4, 12), (5, 4, 13), (6, 5, 13)):
        dims = []
        for field in (QQ, GF(32003)):
            cat = skew_beilinson_quiver(field, m, k, seed)
            dims.append({(a.label, b.label): h.complex.dims for (a, b), h in cat.homs.items()})
        assert dims[0] == dims[1], (m, k, seed)


def _quiver_parts(cat):
    """A quiver category as plain data, in its dicts' order, with every
    scalar paired with its type."""
    def scalars(coords):
        return [(i, v, type(v)) for i, v in coords.items()]

    homs = [((a.label, b.label), h.complex.dims, h.names) for (a, b), h in cat.homs.items()]
    comp = [(tuple(o.label for o in key), [(k, sorted(scalars(cons))) for k, cons in table.items()]) for key, table in cat.every_table().items()]
    ids = [(o.label, m.degree, scalars(m.coords)) for o, m in cat.ids.items()]
    return cat.objects, homs, comp, ids


def _assert_same_quiver_category(cat, ref):
    assert _quiver_parts(cat) == _quiver_parts(ref)
    one = cat.field.one()
    ones = [v for table in cat.every_table().values() for cons in table.values() for v in cons.values() if v == one]
    assert all(v is one for v in ones) and all(v is one for m in cat.ids.values() for v in m.coords.values())


def test_from_quiver_matches_the_path_enumeration_reference(monkeypatch):
    """The length-by-length construction gives the bases, names, structure
    constants and scalar types of the reference that reduces every free
    path, on skew Beilinson quivers and on seeded random presentations with
    loops, arrows of nonzero degree, relations of length 1-3 and cancelling
    terms, over Q, F_2, F_3 and F_32003; both raise on the same infinite
    presentations."""
    for field in (QQ, GF(32003)):
        for m, k, seed in ((2, 4, 1), (3, 3, 2), (4, 2, 3), (4, 3, 11), (3, 4, 12)):
            cat = skew_beilinson_quiver(field, m, k, seed)
            with monkeypatch.context() as mp:
                mp.setattr(gens, "from_quiver", quiver_reference.from_quiver)
                ref = skew_beilinson_quiver(field, m, k, seed)
            _assert_same_quiver_category(cat, ref)
    outcomes = {}
    for field in (QQ, GF(2), GF(3), GF(32003)):
        rng = random.Random(f"quiver-reference:{field!r}")
        for _ in range(100):
            presentation = random_quiver_presentation(field, rng)
            built = []
            for construct in (from_quiver, quiver_reference.from_quiver):
                try:
                    built.append(construct(field, *presentation, max_path_length=6, max_paths=10**6))
                except InfiniteDimensionalHom:
                    built.append(None)
            cat, ref = built
            assert (cat is None) == (ref is None), presentation
            if cat is not None:
                _assert_same_quiver_category(cat, ref)
            outcome = "infinite" if cat is None else "with relations" if presentation[2] else "free"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes["with relations"] >= 150 and outcomes["free"] >= 20 and outcomes["infinite"] >= 20, outcomes


def test_epsilon_category():
    cat = epsilon_category()
    assert cat.validate() == []
    o = cat.objects[0]
    assert cat.hom(o, o).dim(0) == 1
    assert cat.hom(o, o).dim(1) == 1
    eps = cat.basis_morphism(o, o, 1, 0)
    assert cat.mul(eps, eps).is_zero()


def test_opposite_involution_and_validity():
    cat = kronecker_category()
    op = opposite(cat)
    assert op.validate() == []
    opop = opposite(op)
    assert opop.homs.keys() == cat.homs.keys()
    for key in cat.every_table():
        assert opop.comp[key] == cat.comp[key]
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    assert op.hom(e2, e1).dim(0) == 2
    assert op.hom(e1, e2).complex.dims == {}


def test_opposite_epsilon_sign():
    cat = epsilon_category()
    op = opposite(cat)
    assert op.validate() == []
    o = cat.objects[0]
    eps = op.basis_morphism(o, o, 1, 0)
    # (-1)^{1*1} mul(eps, eps) = 0 since eps^2 = 0
    assert op.mul(eps, eps).is_zero()


def test_tensor_with_point_is_relabelled_kronecker():
    k2 = kronecker_category()
    pt = point_category()
    t = tensor(k2, pt)
    assert plain(t).validate() == []
    assert len(t.objects) == 2
    o1 = t.obj("(e1,pt)")
    o2 = t.obj("(e2,pt)")
    assert t.hom(o1, o2).dim(0) == 2
    assert t.hom(o2, o1).complex.dims == {}


def test_tensor_kronecker_squared_dims():
    k2 = kronecker_category()
    t = tensor(k2, k2)
    o11 = t.obj("(e1,e1)")
    o22 = t.obj("(e2,e2)")
    assert t.hom(o11, o22).dim(0) == 4


def test_tensor_epsilon_sign_rule():
    eps_cat = epsilon_category()
    t = tensor(eps_cat, eps_cat)
    assert plain(t).validate() == []
    o = t.objects[0]
    h = t.hom(o, o)
    assert h.dim(2) == 1
    assert h.complex.diff == {}
    # (e(x)1)(1(x)e) = -(1(x)e)(e(x)1): locate basis elements by name
    names1 = h.names[1]
    i_e1 = names1.index("e(x)e_*")
    i_1e = names1.index("e_*(x)e")
    f = t.basis_morphism(o, o, 1, i_e1)
    g = t.basis_morphism(o, o, 1, i_1e)
    lhs = t.mul(f, g)
    rhs = t.scale(QQ.neg(QQ.one()), t.mul(g, f))
    assert lhs == rhs and not lhs.is_zero()


def test_swap_iso_involution_and_identities():
    k2 = kronecker_category()
    eps = epsilon_category()
    phi = swap_iso(k2, eps)
    assert validate_functor(phi) == []
    psi = swap_iso(eps, k2)
    # phi then psi acts as the identity on all basis morphisms
    for (a, b), per_deg in phi.mor_maps.items():
        for n, m in per_deg.items():
            back = psi.mor_maps[(phi.obj_map[a], phi.obj_map[b])][n]
            prod = back.matmul(m)
            assert prod == Matrix.identity(k2.field, prod.rows)
    for o in phi.src.objects:
        assert phi.apply(phi.src.identity(o)) == phi.dst.identity(phi.obj_map[o])


def test_swap_iso_epsilon_sign():
    eps = epsilon_category()
    phi = swap_iso(eps, eps)
    t = phi.src
    o = t.objects[0]
    h = t.hom(o, o)
    i_ee = h.names[2].index("e(x)e")
    f = t.basis_morphism(o, o, 2, i_ee)
    img = phi.apply(f)
    # phi(e(x)e) = -e(x)e
    assert img.coords == {i_ee: QQ.neg(QQ.one())}


def kunneth_check(c, d, t):
    for a1 in c.objects:
        for a2 in c.objects:
            for b1 in d.objects:
                for b2 in d.objects:
                    o1 = t.obj(f"({a1.label},{b1.label})")
                    o2 = t.obj(f"({a2.label},{b2.label})")
                    ht = t.hom(o1, o2).complex
                    hc = c.hom(a1, a2).complex
                    hd = d.hom(b1, b2).complex
                    degrees = set(ht.degrees())
                    for p in hc.degrees():
                        for q in hd.degrees():
                            degrees.add(p + q)
                    for n in degrees:
                        lhs = ht.cohomology_dim(n)
                        rhs = sum(
                            hc.cohomology_dim(p) * hd.cohomology_dim(n - p)
                            for p in hc.degrees()
                        )
                        assert lhs == rhs, (a1, b1, a2, b2, n)


def test_randomized_axiom_suite_small():
    rng = random.Random(42)
    for _ in range(10):
        c = random_category(rng)
        assert c.validate() == []
        d = random_category(rng, field=c.field)
        t = tensor(c, d)
        assert plain(t).validate() == []
        op = opposite(c)
        assert op.validate() == []
        kunneth_check(c, d, t)
        # opposite preserves Ho-level dimension data transposed
        for a in c.objects:
            for b in c.objects:
                h1 = c.hom(a, b).complex
                h2 = op.hom(b, a).complex
                for n in set(h1.degrees()) | set(h2.degrees()):
                    assert h1.cohomology_dim(n) == h2.cohomology_dim(n)


def _reference_validate(cat):
    """Test-only copy of the axiom check as a walk over every object tuple
    and basis element with `Morphism` arithmetic (`mul`, `d`, `scale`,
    `add`); `DGCategory.validate` must give the same report, in order."""
    fl = cat.field
    report = []
    for (a, b), h in sorted(cat.homs.items()):
        for n in h.complex.validate():
            report.append(Violation("d_squared", (a.label, b.label, n), "d(n+1)·d(n) != 0"))
    for a in cat.objects:
        ida = cat.ids.get(a)
        if ida is None or ida.degree != 0:
            report.append(Violation("unit", (a.label,), "missing or wrong-degree identity"))
            continue
        if not cat.d(ida).is_zero():
            report.append(Violation("unit_cycle", (a.label,), "d(id) != 0"))
    for (a, b), h in sorted(cat.homs.items()):
        for n in h.complex.degrees():
            for i in range(h.dim(n)):
                f = cat.basis_morphism(a, b, n, i)
                if a in cat.ids and cat.mul(cat.ids[a], f) != f:
                    report.append(Violation("left_unit", (a.label, b.label, n, i), "id·f != f"))
                if b in cat.ids and cat.mul(f, cat.ids[b]) != f:
                    report.append(Violation("right_unit", (a.label, b.label, n, i), "f·id != f"))
    sign = fl.neg(fl.one())
    for a in cat.objects:
        for b in cat.objects:
            hab = cat.hom(a, b)
            if not hab.complex.dims:
                continue
            for c in cat.objects:
                hbc = cat.hom(b, c)
                if not hbc.complex.dims:
                    continue
                for p in hab.complex.degrees():
                    for q in hbc.complex.degrees():
                        for i in range(hab.dim(p)):
                            f = cat.basis_morphism(a, b, p, i)
                            df = cat.d(f)
                            for j in range(hbc.dim(q)):
                                g = cat.basis_morphism(b, c, q, j)
                                lhs = cat.d(cat.mul(f, g))
                                term = cat.mul(f, cat.d(g))
                                if p % 2:
                                    term = cat.scale(sign, term)
                                if lhs != cat.add(cat.mul(df, g), term):
                                    report.append(Violation("leibniz", (a.label, b.label, c.label, p, i, q, j), "d(fg) != (df)g ± f(dg)"))
    for a in cat.objects:
        for b in cat.objects:
            hab = cat.hom(a, b)
            for c in cat.objects:
                hbc = cat.hom(b, c)
                for e in cat.objects:
                    hce = cat.hom(c, e)
                    for p in hab.complex.degrees():
                        for q in hbc.complex.degrees():
                            for r in hce.complex.degrees():
                                for i in range(hab.dim(p)):
                                    f = cat.basis_morphism(a, b, p, i)
                                    for j in range(hbc.dim(q)):
                                        g = cat.basis_morphism(b, c, q, j)
                                        fg = cat.mul(f, g)
                                        for k in range(hce.dim(r)):
                                            h = cat.basis_morphism(c, e, r, k)
                                            if cat.mul(fg, h) != cat.mul(f, cat.mul(g, h)):
                                                where = (a.label, b.label, c.label, e.label, (p, i), (q, j), (r, k))
                                                report.append(Violation("associativity", where, "(fg)h != f(gh)"))
    return report


FAULTS = ("scaled_id", "structure_constant", "differential", "wrong_degree_id", "dropped_table", "outside_generators", "split_product", "zero_constant")


def _generators(cat):
    """generating_set() as a set of (a, b, degree, index)."""
    return {(a, b, n, i) for (a, b), per in cat.generating_set().items() for n, ks in per.items() for i in ks}


def _products(cat):
    """(table key, entry) of every product x·y of two basis elements that are
    not identities."""
    unit = cat.identity_basis()
    return [
        ((a, b, c), (p, i, q, j))
        for (a, b, c), table in sorted(cat.every_table().items())
        for (p, i, q, j) in sorted(table)
        if not (p == 0 and i == unit.get((a, b))) and not (q == 0 and j == unit.get((b, c)))
    ]


def plant_fault(cat, kind, rng):
    """A copy of cat with one planted fault, or None where the kind does not
    apply (no structure constants; no Hom with two adjacent degrees; no
    product of the kind's shape).

    * outside_generators scales a product g·h whose h is not in
      `generating_set()`, so only the walk over every h sees it directly;
    * split_product adds a second term to a single-term product, so the
      closure that finds the generating set misses what it used to reach;
    * zero_constant stores a single-term product's constant as a zero
      scalar, an entry the closure must not follow."""
    fl = cat.field
    homs, comp, ids = dict(cat.homs), {key: dict(t) for key, t in cat.every_table().items()}, dict(cat.ids)
    a = rng.choice(cat.objects)
    if kind in ("outside_generators", "split_product", "zero_constant"):
        gens = _generators(cat)
        if kind == "outside_generators":
            spots = [(key, e) for key, e in _products(cat) if (key[1], key[2], e[2], e[3]) not in gens]
        elif kind == "split_product":
            spots = [(key, e) for key, e in _products(cat) if len(cat.comp[key][e]) == 1 and cat.hom(key[0], key[2]).dim(e[0] + e[2]) > 1]
        else:
            spots = [(key, e) for key, e in _products(cat) if len(cat.comp[key][e]) == 1]
        if not spots:
            return None
        key, e = rng.choice(spots)
        cons = dict(comp[key][e])
        if kind == "outside_generators":
            cons = {k: fl.mul(fl.from_int(2), v) for k, v in cons.items()}
        elif kind == "zero_constant":
            cons = {k: fl.zero() for k in cons}
        else:
            (k,) = cons
            cons[(k + 1) % cat.hom(key[0], key[2]).dim(e[0] + e[2])] = fl.one()
        comp[key][e] = cons
    elif kind == "scaled_id":
        ids[a] = Morphism(a, a, 0, {k: fl.mul(fl.from_int(2), v) for k, v in ids[a].coords.items()})
    elif kind == "wrong_degree_id":
        ids[a] = Morphism(a, a, rng.choice([-1, 1]), dict(ids[a].coords))
    elif kind == "dropped_table":
        if not comp:
            return None
        del comp[rng.choice(sorted(comp))]
    elif kind == "structure_constant":
        if not comp:
            return None
        table = comp[rng.choice(sorted(comp))]
        entry = rng.choice(sorted(table))
        cons = dict(table[entry])
        k = rng.choice(sorted(cons) + [max(cons) + 1])
        cons[k] = fl.add(cons.get(k, fl.zero()), fl.one())
        table[entry] = cons
    else:
        spots = [(key, n) for key, h in sorted(homs.items()) for n in h.complex.degrees() if h.dim(n + 1)]
        if not spots:
            return None
        key, n = rng.choice(spots)
        cx = homs[key].complex
        m = cx.d(n)
        entries = dict(m.entries)
        spot = (rng.randrange(m.rows), rng.randrange(m.cols))
        entries[spot] = fl.add(entries.get(spot, fl.zero()), fl.one())
        diff = dict(cx.diff)
        diff[n] = Matrix(fl, m.rows, m.cols, entries)
        homs[key] = Hom(ChainComplex(fl, cx.dims, diff), homs[key].names)
    return DGCategory(fl, cat.objects, homs, comp, ids, name=f"{cat.name}|{kind}")


def test_validate_matches_reference():
    """validate on structure-constant tables gives the reference report,
    (axiom, where, detail) in order, on valid categories and on copies with
    each kind of planted fault."""
    rng = random.Random(2026)
    cats = [random_category(rng, field=QQ if s % 2 else GF(101)) for s in range(84)]
    cats += [plain(tensor(kronecker_category(), kronecker_category())), plain(tensor(beilinson3_category(), kronecker_category()))]
    cats += [beilinson3_category(GF(3)), skew_beilinson_quiver(QQ, 3, 3, seed=4), cyclic_group_category(QQ, 3), cyclic_group_category(GF(5), 4)]
    skew = skew_beilinson_quiver(GF(101), 3, 2, seed=5)
    cats += [rescaled_identity(skew, skew.obj("v1"), GF(101).from_int(2)), one_object(beilinson3_category())]
    planted, axioms = set(), set()
    for cat in cats:
        for kind in (None,) + FAULTS:
            bad = cat if kind is None else plant_fault(cat, kind, rng)
            if bad is None:
                continue
            report = [(v.axiom, v.where, v.detail) for v in bad.validate()]
            assert report == [(v.axiom, v.where, v.detail) for v in _reference_validate(bad)], (bad.name, kind)
            if kind is None:
                assert report == []
            planted.add(kind)
            axioms.update(v[0] for v in report)
    assert planted == {None, *FAULTS}
    assert axioms == {"d_squared", "unit", "unit_cycle", "left_unit", "right_unit", "leibniz", "associativity"}


def rescaled_identity(cat, a, c):
    """cat in another basis of End(a): the basis element e_k with id_a =
    u·e_k becomes e = (u/c)·e_k, so that id_a = c·e.  Table constants are
    multiplied by u/c for each factor e and divided by it for e in the
    product.  End(a) must have no differential."""
    assert not cat.hom(a, a).complex.diff
    fl = cat.field
    ((k, u),) = cat.ids[a].coords.items()
    lam = fl.div(u, c)

    def is_e(x, y, n, i):
        return x == y == a and n == 0 and i == k

    comp = {}
    for (x, y, z), table in cat.every_table().items():
        comp[(x, y, z)] = new = {}
        for (p, i, q, j), cons in table.items():
            s = fl.mul(lam if is_e(x, y, p, i) else fl.one(), lam if is_e(y, z, q, j) else fl.one())
            new[(p, i, q, j)] = {r: fl.div(fl.mul(s, v), lam) if is_e(x, z, p + q, r) else fl.mul(s, v) for r, v in cons.items()}
    ids = dict(cat.ids)
    ids[a] = Morphism(a, a, 0, {k: c})
    return DGCategory(fl, cat.objects, cat.homs, comp, ids, name=f"{cat.name}|{a.label}:id={c}e")


def one_object(cat):
    """cat as one object *, whose End is the sum of all the Homs of cat in
    the order of cat.homs, with the products of cat and 0 for pairs that do
    not compose.  Its identity is the sum of the identities of cat, which is
    a single basis element only when cat has one object."""
    o, fl = ObjId("*", 0), cat.field
    dims, names, off = {}, {}, {}
    for (a, b), h in cat.homs.items():
        for n in h.complex.degrees():
            off[(a, b, n)] = dims.get(n, 0)
            dims[n] = off[(a, b, n)] + h.dim(n)
            names.setdefault(n, []).extend(f"{a.label}|{b.label}:{h.name(n, i)}" for i in range(h.dim(n)))
    diff = {}
    for (a, b), h in cat.homs.items():
        for n, m in h.complex.diff.items():
            diff.setdefault(n, {}).update(((off[(a, b, n + 1)] + r, off[(a, b, n)] + col), v) for (r, col), v in m.entries.items())
    cx = ChainComplex(fl, dims, {n: Matrix(fl, dims.get(n + 1, 0), dims[n], ent) for n, ent in diff.items()})
    table = {}
    for (a, b, c), t in cat.every_table().items():
        for (p, i, q, j), cons in t.items():
            table[(p, off[(a, b, p)] + i, q, off[(b, c, q)] + j)] = {off[(a, c, p + q)] + r: v for r, v in cons.items()}
    ident = {}
    for a, m in cat.ids.items():
        ident.update((off[(a, a, 0)] + i, v) for i, v in m.coords.items())
    hom = Hom(cx, {n: tuple(ns) for n, ns in names.items()})
    return DGCategory(fl, (o,), {(o, o): hom}, {(o, o, o): table}, {o: Morphism(o, o, 0, ident)}, name=f"{cat.name}|one object")


def test_validate_skips_the_triples_the_unit_laws_decide(monkeypatch):
    """Timing-free guard: validate makes 240 `contract` calls on skew
    Beilinson (4,3), seed 13, over Q and over F_32003, and 30 on
    beilinson3_category: the generating-set pass checks no triple whose f
    or g is an identity (552 and 78 calls with those triples)."""
    import dgcat.dgcore

    calls = []

    def counted(*args):
        calls.append(1)
        return contract(*args)

    cats = [skew_beilinson_quiver(field, 4, 3, seed=13) for field in (QQ, GF(32003))] + [beilinson3_category()]
    monkeypatch.setattr(dgcat.dgcore, "contract", counted)
    for cat, expected in zip(cats, (240, 240, 30)):
        calls.clear()
        assert cat.validate() == []
        assert len(calls) == expected, (cat.field, len(calls))


def test_only_the_identity_is_skipped_as_a_factor():
    """End(*) with basis id, x, u in degrees 0, 1, -1, each the first basis
    element of its degree, x·u = id and u·x = 0: (xu)x = x but x(ux) = 0.
    The unit laws hold, and the pass over the generating set {x, u} skips a
    factor only when it is id, not every first basis element, so it finds
    the violations and validate reports what the reference does."""
    for field in (QQ, GF(7)):
        o, one = ObjId("*", 0), field.one()
        table = {(n, 0, 0, 0): {0: one} for n in (-1, 0, 1)} | {(0, 0, n, 0): {0: one} for n in (-1, 1)}
        table[(1, 0, -1, 0)] = {0: one}
        hom = Hom(ChainComplex(field, {-1: 1, 0: 1, 1: 1}), {-1: ("u",), 0: ("id",), 1: ("x",)})
        cat = DGCategory(field, (o,), {(o, o): hom}, {(o, o, o): table}, {o: Morphism(o, o, 0, {0: one})})
        assert cat.generating_set() == {(o, o): {-1: [0], 1: [0]}}
        report = [(v.axiom, v.where) for v in cat.validate()]
        assert report == [(v.axiom, v.where) for v in _reference_validate(cat)]
        assert ("associativity", ("*", "*", "*", "*", (1, 0), (-1, 0), (1, 0))) in report


def cyclic_group_category(field, n):
    """One object whose endomorphisms are the group algebra of Z/n: basis
    x^0 = id, x, ..., x^(n-1) in degree 0, x^a·x^b = x^((a+b) mod n).  For
    n >= 3 every non-identity basis element is a single-term product of two
    non-identity ones (x^a = x^(a-1)·x for a >= 2, x = x^(n-1)·x^2), so none
    is picked from the tables at first and the closure reaches nothing."""
    o = ObjId("*", 0)
    one = field.one()
    table = {(0, a, 0, b): {(a + b) % n: one} for a in range(n) for b in range(n)}
    hom = Hom(ChainComplex(field, {0: n}), {0: tuple(f"x^{a}" for a in range(n))})
    return DGCategory(field, (o,), {(o, o): hom}, {(o, o, o): table}, {o: Morphism(o, o, 0, {0: one})}, name=f"Z/{n}")


def _named(cat, gens):
    return {(a.label, b.label, cat.hom(a, b).name(n, i)) for a, b, n, i in gens}


def _basis(cat):
    return {(a, b, n, i) for (a, b), h in cat.homs.items() for n in h.complex.degrees() for i in range(h.dim(n))}


def _identity_name(cat, x):
    return cat.hom(x, x).name(0, next(iter(cat.ids[x].coords)))


def test_generating_set_of_a_quiver_is_its_arrows():
    """On categories from from_quiver the generating set is the arrows: the
    length-one paths, named by the arrow."""
    rng = random.Random(77)
    cats = [kronecker_category(), a2_category(), beilinson3_category(), epsilon_category(), beilinson3_category(GF(32003))]
    cats += [skew_beilinson_quiver(QQ, m, k, seed=s) for m, k, s in ((2, 4, 1), (3, 3, 2), (4, 2, 3))]
    cats += [random_category(rng) for _ in range(30)]
    for cat in (c for c in cats if c.name == "quiver"):
        arrows = {(a, b, n, i) for a, b, n, i in _basis(cat) if a != b or n or cat.ids[a].coords != {i: cat.field.one()}}
        arrows = {x for x in arrows if "*" not in cat.hom(x[0], x[1]).name(x[2], x[3])}
        assert _generators(cat) == arrows
        assert cat.validate() == []


def test_generating_set_of_a_tensor_is_factor_generators_with_identities():
    """On tensor(c, d) the generating set is s(x)id for s a generator of c
    and id(x)t for t a generator of d."""
    fixtures = [kronecker_category(), a2_category(), beilinson3_category(), epsilon_category(), epsilon_category(degree=2)]
    for c in fixtures:
        for d in fixtures[:3]:
            t = tensor(c, d)
            expected = {(f"({a1},{b.label})", f"({a2},{b.label})", f"{s}(x){_identity_name(d, b)}") for a1, a2, s in _named(c, _generators(c)) for b in d.objects}
            expected |= {(f"({a.label},{b1})", f"({a.label},{b2})", f"{_identity_name(c, a)}(x){s}") for b1, b2, s in _named(d, _generators(d)) for a in c.objects}
            assert _named(t, _generators(t)) == expected, t.name
    t = tensor(tensor(beilinson3_category(), beilinson3_category()), beilinson3_category())
    assert len(_generators(t)) == 162 and len(_basis(t)) == 3375


def test_generating_set_grows_by_what_the_closure_misses():
    """An invertible endomorphism x with x^3 = 1: x = x^2·x^2 and x^2 = x·x
    are single-term products of non-identity elements, so neither is picked
    at first and the closure reaches nothing; both must join the set, or a
    fault on them would go unseen.  A stored zero constant x·x = 0·y must
    not count as reaching y: with y·y = z and z·y = z, (yy)y = z but
    y(yy) = 0, a violation whose h is y, so y has to stay in the set."""
    for field in (QQ, GF(7)):
        o = ObjId("*", 0)
        one = field.one()
        table = {(0, 0, 0, b): {b: one} for b in range(4)} | {(0, b, 0, 0): {b: one} for b in range(4)}
        table |= {(0, 1, 0, 1): {2: field.zero()}, (0, 2, 0, 2): {3: one}, (0, 3, 0, 2): {3: one}}
        hom = Hom(ChainComplex(field, {0: 4}), {0: ("id", "x", "y", "z")})
        cat = DGCategory(field, (o,), {(o, o): hom}, {(o, o, o): table}, {o: Morphism(o, o, 0, {0: one})})
        assert (o, o, 0, 2) in _generators(cat)
        report = cat.validate()
        assert report and report == _reference_validate(cat)
        assert ("associativity", ("*", "*", "*", "*", (0, 2), (0, 2), (0, 2))) in {(v.axiom, v.where) for v in report}

        cat = cyclic_group_category(field, 3)
        assert cat.validate() == []
        o = cat.objects[0]
        assert _generators(cat) == {(o, o, 0, 1), (o, o, 0, 2)}
        comp = {key: dict(table) for key, table in cat.every_table().items()}
        comp[(o, o, o)][(0, 2, 0, 2)] = {1: field.from_int(2)}  # x^2·x^2 = 2x
        bad = DGCategory(field, cat.objects, cat.homs, comp, cat.ids)
        report = bad.validate()
        assert report and report == _reference_validate(bad)


def test_no_generating_set_when_a_product_leaves_the_basis():
    """Basis id, f, g, u, s, e with u·s = e, and f·g = P for an index P = 9
    outside the basis that acts as a unit and has P·e = e.  Then (fg)e = e
    but f(ge) = 0, while (fg)h = f(gh) holds for h in {f, g, u, s}: the
    induction through e = u·s needs fg in the span of the basis, so the
    tables yield no generating set and validate walks every h."""
    for field in (QQ, GF(7)):
        cat = product_outside_basis_category(field)
        assert cat.generating_set() is None
        report = cat.validate()
        assert report == _reference_validate(cat)
        assert [(v.axiom, v.where) for v in report] == [("associativity", ("*", "*", "*", "*", (0, 1), (0, 2), (0, 5)))]


def _reference_contract(fl, table, p, x, q, y):
    """contract as one multiplication per coordinate pair."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            cons = table.get((p, i, q, j))
            if cons:
                axpy(fl, out, cons, fl.mul(a, b))
    return out


def test_contract_matches_the_multiplying_reference():
    rng = random.Random(3141)
    for fl in (QQ, GF(32003)):
        one = fl.one()
        scalars = [one, one, fl.neg(one), fl.from_int(1), fl.from_int(2), fl.from_int(-3)]
        if fl is QQ:
            scalars += [Fraction(1), Fraction(2, 2), Fraction(1, 2), Fraction(-2, 3)]
            assert Fraction(1) is not one
        for _ in range(300):
            table = {}
            for i in range(3):
                for j in range(3):
                    if rng.random() < 0.6:
                        table[(0, i, 1, j)] = {k: rng.choice(scalars) for k in rng.sample(range(4), rng.randrange(1, 4))}
            x = {i: rng.choice(scalars) for i in rng.sample(range(3), rng.randrange(0, 4))}
            y = {j: rng.choice(scalars) for j in rng.sample(range(3), rng.randrange(0, 4))}
            got = contract(fl, table, 0, x, 1, y)
            assert got == _reference_contract(fl, table, 0, x, 1, y)
            assert not any(fl.is_zero(v) for v in got.values())


def _operator_products(fl, op, fixed):
    """{(i, j): product of basis elements i then j} read off an operator."""
    out = {}
    for s, entries in op.items():
        for t, k, v in entries:
            axpy(fl, out.setdefault((s, t) if fixed == 0 else (t, s), {}), {k: v})
    return {key: prod for key, prod in out.items() if prod}


def test_tables_operator_matches_contract():
    """Seeded, over Q, F_2 and F_32003: every entry of `Tables.operator`,
    with either factor fixed, is the product of two basis elements under
    `contract`, on every triple and degree pair of quiver, epsilon,
    bimodule (d != 0), tensor, opposite and full-subcategory tables; the
    last three build their tables on the operator's first read.  An
    operator is built once per table and side, and a degree pair without
    products reads as {}."""
    rng = random.Random(3132)
    seen = 0
    for fl in (QQ, GF(2), GF(32003)):
        one = fl.one()
        k2, eps = kronecker_category(fl), epsilon_category(fl, degree=rng.choice((1, 2)))
        cats = [eps, epsilon_category(fl, degree=0), beilinson3_category(fl), tensor(k2, eps), opposite(gens.bimodule_category(fl, rng))]
        cats += [random_category(rng, field=fl) for _ in range(6)]
        cats.append(full_subcategory(cats[-1], cats[-1].objects[::-1]))
        for cat in cats:
            comp, objs = cat.comp, cat.objects
            for key in [(a, b, c) for a in objs for b in objs for c in objs]:
                h1, h2 = cat.hom(key[0], key[1]), cat.hom(key[1], key[2])
                for p in h1.complex.degrees():
                    for q in h2.complex.degrees():
                        ops = [comp.operator(key, fixed, p, q) for fixed in (0, 1)]
                        table = comp[key]
                        want = {}
                        for i in range(h1.dim(p)):
                            for j in range(h2.dim(q)):
                                if prod := contract(fl, table, p, {i: one}, q, {j: one}):
                                    want[(i, j)] = prod
                        for fixed, op in enumerate(ops):
                            assert _operator_products(fl, op, fixed) == want
                            if op:
                                assert comp.operator(key, fixed, p, q) is op
                        seen += len(want)
                    assert comp.operator(key, 0, p, max(h2.complex.degrees(), default=0) + 1) == {}
    assert seen > 300
    assert Tables().operator(("a", "b", "c"), 1, 0, 0) == {}


def test_parsed_and_tensored_ones_are_the_shared_one():
    """A parsed "1", a tensor product of two shared ones and a quiver's
    structure constant equal to 1 (its relations with or without scalars)
    are the field's one() itself, so `contract` takes products by them
    without multiplying."""
    from dgcat import schema

    assert QQ.parse("1") is QQ.one() and QQ.parse("0") is QQ.zero()
    k = kronecker_category()
    parsed = schema.category_from_json(QQ, schema.category_to_json(tensor(beilinson3_category(), k)))
    quivers = (beilinson3_category(QQ), skew_beilinson_quiver(QQ, 3, 3, seed=4))
    for cat in (tensor(k, a2_category()), parsed, *quivers):
        ones = [v for table in cat.every_table().values() for cons in table.values() for v in cons.values() if v == 1]
        ones += [v for m in cat.ids.values() for v in m.coords.values()]
        assert ones and all(v is QQ.one() for v in ones)
