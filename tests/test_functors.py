import random

from dgcat.dgcore import DGCategory, Hom, Morphism, ObjId, full_subcategory, swap_iso
from dgcat.exactlin import QQ, ChainComplex, Cohomology, Matrix
from dgcat.fixtures import (
    a2_serre_data,
    epsilon_category,
    kronecker_category,
    kronecker_ev_morphism,
    point_category,
)
from dgcat import pretr
from dgcat.functors import (
    DGFunctor,
    EquivCertificate,
    base_to_tm,
    check_quasi_equiv,
    composition_trace_pairings,
    extend_to_complex,
    functor_as_serre_data,
    hull_subcategory,
    identity_functor,
    serre_data,
    validate_functor,
    verify_serre,
)
from dgcat.pretr import HomSpace, cone, embed, ho_hom, identity_morphism, is_ho_iso, shift

import serre_reference as ref
from gens import random_category, random_twisted_complex


def collapse_functor(k2, pt):
    """Kronecker -> point: both objects to pt, both arrows to 0."""
    e1, e2 = k2.obj("e1"), k2.obj("e2")
    p = pt.obj("pt")
    mor_maps = {
        (e1, e1): {0: Matrix.identity(QQ, 1)},
        (e2, e2): {0: Matrix.identity(QQ, 1)},
        (e1, e2): {0: Matrix.zero(QQ, 1, 2)},
    }
    return DGFunctor(k2, pt, {e1: p, e2: p}, mor_maps, name="collapse")


def test_validate_functor_identity_and_swap():
    k2 = kronecker_category()
    assert validate_functor(identity_functor(k2)) == []
    assert validate_functor(swap_iso(k2, epsilon_category())) == []


def test_validate_functor_catches_broken():
    k2 = kronecker_category()
    pt = point_category()
    fun = collapse_functor(k2, pt)
    assert validate_functor(fun) == []  # collapse is a genuine functor
    # drop the identity component -> not a functor
    bad = DGFunctor(k2, pt, fun.obj_map, {**fun.mor_maps, (k2.obj("e1"), k2.obj("e1")): {0: Matrix.zero(QQ, 1, 1)}})
    assert any(v.axiom == "identity" for v in validate_functor(bad))


def test_pretr_extend():
    k2 = kronecker_category()
    pt = point_category()
    fun = collapse_functor(k2, pt)
    idf = identity_functor(k2)
    f = kronecker_ev_morphism(k2)
    c = cone(f)
    assert extend_to_complex(idf, c) == c
    img = extend_to_complex(fun, c)
    assert pretr.maurer_cartan_defect(img) == {}
    assert img.q == {}  # arrows collapse to zero: cone(0)


def test_check_quasi_equiv_identity_passes():
    k2 = kronecker_category()
    witnesses = {o: (embed(k2, o), identity_morphism(embed(k2, o))) for o in k2.objects}
    assert check_quasi_equiv(EquivCertificate(identity_functor(k2), witnesses)).ok


def test_check_quasi_equiv_collapse_fails():
    k2 = kronecker_category()
    pt = point_category()
    fun = collapse_functor(k2, pt)
    p = pt.obj("pt")
    cert = EquivCertificate(fun, {p: (embed(pt, p), identity_morphism(embed(pt, p)))})
    verdict = check_quasi_equiv(cert)
    assert not verdict.ok
    assert any(kind == "hom_iso_dim" and detail[:2] == ("e1", "e2") for kind, detail in verdict.failures)


def iso_pair_category(field=QQ):
    """Two isomorphic objects: s: x->y, t: y->x with st = id_x, ts = id_y.

    Length-inhomogeneous relations are out of from_quiver's scope, so this
    category is built directly from its structure constants.
    """
    x, y = ObjId("x", 0), ObjId("y", 1)
    one = field.one()
    line = lambda name: Hom(ChainComplex(field, {0: 1}), {0: (name,)})
    homs = {(x, x): line("1x"), (y, y): line("1y"), (x, y): line("s"), (y, x): line("t")}
    unit = {(0, 0, 0, 0): {0: one}}
    comp = {
        (x, x, x): unit,
        (y, y, y): unit,
        (x, x, y): unit,
        (x, y, y): unit,
        (y, y, x): unit,
        (y, x, x): unit,
        (x, y, x): unit,  # mul(s, t) = id_x
        (y, x, y): unit,  # mul(t, s) = id_y
    }
    ids = {x: Morphism(x, x, 0, {0: one}), y: Morphism(y, y, 0, {0: one})}
    return DGCategory(field, (x, y), homs, comp, ids, name="isopair")


def test_check_quasi_equiv_builds_cohomology_only_where_it_is_nonzero(monkeypatch):
    """The identity functor of the Kronecker hull subcategory on
    cone(1_{e1}) and e2: the Homs c -> c and c -> e2 have chains in several
    degrees and no cohomology, so the one Cohomology the check builds is
    H^0 End(e2).  The degree-loop reference builds one per chain degree."""
    built = []
    init = Cohomology.__init__

    def counted(self, complex_, n):
        built.append(n)
        init(self, complex_, n)

    monkeypatch.setattr(Cohomology, "__init__", counted)
    counts = []
    for check in (check_quasi_equiv, ref.check_quasi_equiv):
        k2 = kronecker_category()
        e1, e2 = k2.obj("e1"), k2.obj("e2")
        sub = hull_subcategory(k2, [("c", cone(identity_morphism(embed(k2, e1)))), ("e2", embed(k2, e2))])
        witnesses = {o: (embed(sub, o), identity_morphism(embed(sub, o))) for o in sub.objects}
        built.clear()
        assert check(EquivCertificate(identity_functor(sub), witnesses)).ok
        counts.append(len(built))
    assert counts == [1, 6]


def test_check_quasi_equiv_subcategory_inclusion_passes():
    amb = iso_pair_category()
    x, y = amb.obj("x"), amb.obj("y")
    sub = full_subcategory(amb, [x])
    mor_maps = {(x, x): {n: Matrix.identity(QQ, amb.hom(x, x).dim(n)) for n in amb.hom(x, x).complex.degrees()}}
    inc = DGFunctor(sub, amb, {x: x}, mor_maps, name="inc")
    assert validate_functor(inc) == []
    s = amb.basis_morphism(x, y, 0, list(amb.hom(x, y).names[0]).index("s"))
    witness_y = (embed(amb, x), base_to_tm(amb, s))
    witness_x = (embed(amb, x), identity_morphism(embed(amb, x)))
    cert = EquivCertificate(inc, {x: witness_x, y: witness_y})
    assert check_quasi_equiv(cert).ok


def test_relation_in_iso_pair_category():
    amb = iso_pair_category()
    x, y = amb.obj("x"), amb.obj("y")
    assert amb.validate() == []
    s = amb.basis_morphism(x, y, 0, list(amb.hom(x, y).names[0]).index("s"))
    assert is_ho_iso(base_to_tm(amb, s))


def test_hull_subcategory_is_valid_dg_category():
    cat = kronecker_category()
    f = kronecker_ev_morphism(cat)
    objs = [("E1", embed(cat, cat.obj("e1"))), ("C", cone(f)), ("E1s", shift(embed(cat, cat.obj("e1")), 1))]
    sub = hull_subcategory(cat, objs)
    assert sub.validate() == []
    # hom dims agree with direct hom_complex computation
    hs = HomSpace(objs[0][1], objs[1][1])
    assert sub.hom(sub.obj("E1"), sub.obj("C")).complex.dims == hs.complex.dims


def test_serre_a2_nakayama_passes():
    data, pairings = a2_serre_data()
    assert validate_functor(data.functor) == []
    verdict = verify_serre(data, pairings)
    assert verdict.ok, verdict.failures


def test_serre_identity_on_kronecker_fails_dimension_asymmetry():
    k2 = kronecker_category()
    data = functor_as_serre_data(identity_functor(k2))
    verdict = verify_serre(data, {})
    assert not verdict.ok
    kinds = {f[0] for f in verdict.failures}
    assert "dimension_symmetry" in kinds
    assert any(f[1][:2] in (("e1", "e2"), ("e2", "e1")) for f in verdict.failures)


def test_serre_point_category_passes():
    pt = point_category()
    data = functor_as_serre_data(identity_functor(pt))
    o = pt.objects[0]
    pairings = {(o, o, 0): Matrix.identity(QQ, 1)}
    assert verify_serre(data, pairings).ok


def test_serre_epsilon_frobenius_passes_and_rescaling_invariance():
    cat = epsilon_category(degree=0)
    o = cat.objects[0]
    data = functor_as_serre_data(identity_functor(cat))
    # trace functional = coefficient of the socle element epsilon
    names = list(cat.hom(o, o).names[0])
    tr = {names.index("e"): QQ.one()}
    pairings = composition_trace_pairings(data, {o: tr})
    assert verify_serre(data, pairings).ok
    scaled = {k: m.scale(QQ.from_int(5)) for k, m in pairings.items()}
    assert verify_serre(data, scaled).ok
    # identity-coefficient trace is NOT a Serre pairing shape here: <eps,eps> = 0 row
    tr_bad = {names.index("e_*"): QQ.one()}
    bad = composition_trace_pairings(data, {o: tr_bad})
    assert not verify_serre(data, bad).ok


def test_quasi_equiv_extension_induces_h_isos():
    """A passing certificate's functor extends to the hulls with matching
    cohomology dimensions on twisted-complex Hom pairs (spot check)."""
    import random as _random
    from gens import random_twisted_complex as _rtc

    amb = iso_pair_category()
    x = amb.obj("x")
    sub = full_subcategory(amb, [x])
    mor_maps = {(x, x): {n: Matrix.identity(QQ, amb.hom(x, x).dim(n)) for n in amb.hom(x, x).complex.degrees()}}
    inc = DGFunctor(sub, amb, {x: x}, mor_maps, name="inc")
    s = amb.basis_morphism(x, amb.obj("y"), 0, list(amb.hom(x, amb.obj("y")).names[0]).index("s"))
    cert = EquivCertificate(inc, {x: (embed(amb, x), identity_morphism(embed(amb, x))),
                                  amb.obj("y"): (embed(amb, x), base_to_tm(amb, s))})
    assert check_quasi_equiv(cert).ok
    rng = _random.Random(4)
    for _ in range(5):
        a = _rtc(sub, rng, max_terms=3)
        b = _rtc(sub, rng, max_terms=3)
        fa, fb = extend_to_complex(inc, a), extend_to_complex(inc, b)
        for n in (-1, 0, 1):
            assert ho_hom(a, b, n) == ho_hom(fa, fb, n)


def test_hull_subcategory_valid_over_categories_with_differentials():
    rng = random.Random(2718)
    for _ in range(6):
        cat = random_category(rng)
        xs = [("A", random_twisted_complex(cat, rng, max_terms=2)),
              ("B", random_twisted_complex(cat, rng, max_terms=3))]
        sub = hull_subcategory(cat, xs)
        assert sub.validate() == []


def _same_verdict(old, new, where):
    """ok agrees, and so does every failure not of kind "functor"; one side
    has "functor" failures only if the other has."""
    assert old.ok == new.ok, where
    assert any(f[0] == "functor" for f in old.failures) == any(f[0] == "functor" for f in new.failures), where
    assert [f for f in old.failures if f[0] != "functor"] == [f for f in new.failures if f[0] != "functor"], where


def _scaled(pairings, key):
    """pairings with the first nonzero entry of pairings[key] doubled."""
    m = pairings[key]
    (r, c), x = min(m.entries.items())
    fl = m.field
    return {**pairings, key: Matrix(fl, m.rows, m.cols, {**m.entries, (r, c): fl.add(x, x)})}


def _compare_serre(cat, obj_images, mor_images, traces, where, pairings=None):
    """Both implementations on one (obj_images, mor_images) input: trace
    pairings agree, and so do the verdicts on them and on `pairings`.
    Returns the reference verdict's ok on the first of these and the trace
    pairings."""
    old = ref.SerreData(cat, obj_images, mor_images)
    new = serre_data(cat, obj_images, mor_images)
    runs = [pairings] if pairings is not None else []
    if traces is not None:
        old_p, new_p = ref.composition_trace_pairings(old, traces), composition_trace_pairings(new, traces)
        assert old_p == new_p, where
        runs.append(new_p)
    for p in runs:
        _same_verdict(ref.verify_serre(old, p), verify_serre(new, p), where)
    return ref.verify_serre(old, runs[0]).ok, runs[-1]


def test_serre_checks_match_the_reference():
    """The checks on two DG functors into one hull subcategory decide as the
    old twisted-morphism calculus (tests/serre_reference.py) on the shipped
    bundles, the epsilon Frobenius bundle, identity functors of random
    categories with random traces, and mutated inputs: a scaled pairing
    entry, each perturbed mor_images entry and a wrong trace."""
    rng = random.Random(20261019)
    old_a2, old_pairings = ref.a2_serre_data()
    new_a2, new_pairings = a2_serre_data()
    assert old_pairings == new_pairings
    assert new_a2.functor.mor_maps == old_a2.mor_images
    cat, images, mors = old_a2.cat, old_a2.obj_images, old_a2.mor_images
    u, v = cat.obj("u"), cat.obj("v")
    one = QQ.one()
    traces = {u: {0: one}, v: {0: one}}
    assert _compare_serre(cat, images, mors, traces, "a2")[0]
    for key in new_pairings:
        assert not _compare_serre(cat, images, mors, None, ("a2 scaled pairing", key), _scaled(new_pairings, key))[0]
    for key, per in mors.items():
        for n, m in per.items():
            for r in range(m.rows):
                for c in range(m.cols):
                    bad = {k: dict(p) for k, p in mors.items()}
                    bad[key][n] = Matrix(QQ, m.rows, m.cols, {**m.entries, (r, c): QQ.add(m.get(r, c), one)})
                    assert not _compare_serre(cat, images, bad, traces, ("a2 perturbed", key, n, r, c), new_pairings)[0]
    assert not _compare_serre(cat, images, mors, {u: {0: one}, v: {}}, "a2 wrong trace")[0]
    pt = point_category()
    o = pt.objects[0]
    for fun, pairings in ((identity_functor(pt), {(o, o, 0): Matrix.identity(QQ, 1)}), (identity_functor(kronecker_category()), {})):
        old = ref.functor_as_serre_data(fun)
        _compare_serre(fun.src, old.obj_images, old.mor_images, None, fun.src.name, pairings)
    eps = epsilon_category(degree=0)
    e = eps.objects[0]
    names = list(eps.hom(e, e).names[0])
    old = ref.functor_as_serre_data(identity_functor(eps))
    eps_pairings = {}
    for name in ("e", "e_*"):
        ok, eps_pairings[name] = _compare_serre(eps, old.obj_images, old.mor_images, {e: {names.index(name): one}}, ("epsilon", name))
        assert ok == (name == "e")
    for key in eps_pairings["e"]:
        _compare_serre(eps, old.obj_images, old.mor_images, None, ("epsilon scaled", key), _scaled(eps_pairings["e"], key))
    passed = 0
    for n in range(30):
        rc = random_category(rng)
        old = ref.functor_as_serre_data(identity_functor(rc))
        fl = rc.field
        traces = {a: {i: fl.from_int(rng.randrange(-3, 4)) for i in range(rc.hom(a, a).complex.cohomology_dim(0))} for a in rc.objects}
        traces = {a: {i: c for i, c in tr.items() if not fl.is_zero(c)} for a, tr in traces.items()}
        ok, pairings = _compare_serre(rc, old.obj_images, old.mor_images, traces, ("random", n))
        passed += ok
        for key in pairings if ok else ():
            _compare_serre(rc, old.obj_images, old.mor_images, None, ("random scaled", n, key), _scaled(pairings, key))
    assert passed >= 5, "too few random draws reach the naturality checks"
