import gc
import os
import random
import subprocess
import sys
import textwrap
import weakref
from collections import Counter

import pytest

from dgcat.dgcore import Arrow, Morphism, from_quiver, tensor
from dgcat.exactlin import QQ, GF, Matrix
from dgcat.dgcore import contract
from dgcat.fixtures import beilinson3_category, epsilon_category, kronecker_category, kronecker_ev_morphism
from dgcat.functors import hull_subcategory
from dgcat import pretr
from dgcat.pretr import (
    HomSpace,
    TwistedComplex,
    TwistedMorphism,
    compose,
    cone,
    cone_maps,
    differential,
    direct_sum,
    embed,
    hom_complex,
    ho_hom,
    identity_morphism,
    is_closed,
    is_contractible,
    is_ho_iso,
    karoubi_complement,
    karoubi_hom,
    karoubi_identity,
    KaroubiObject,
    maurer_cartan_defect,
    null_homotopy,
    reduce,
    shift,
    tm_add,
    tm_neg,
    tm_scale,
    zero_morphism,
)

from gens import random_category, random_closed_degree0, random_twisted_complex
import twisted_reference


def test_embed_basic():
    cat = kronecker_category()
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    x = embed(cat, e1)
    assert len(x.terms) == 1 and x.terms[0].shift == 0 and not x.q
    assert maurer_cartan_defect(x) == {}
    h = hom_complex(x, embed(cat, e2))
    assert h.dims == cat.hom(e1, e2).complex.dims
    assert h.diff == cat.hom(e1, e2).complex.diff


def test_shift_signs():
    cat = kronecker_category()
    f = kronecker_ev_morphism(cat)
    c = cone(f)
    assert shift(c, 0) == c
    assert shift(shift(c, 1), -1) == c
    s = shift(c, 1)
    for k, m in c.q.items():
        assert s.q[k] == cat.neg(m)
    assert maurer_cartan_defect(s) == {}


def test_cone_of_identity_contractible():
    cat = kronecker_category()
    for label in ("e1", "e2"):
        x = embed(cat, cat.obj(label))
        c = cone(identity_morphism(x))
        assert maurer_cartan_defect(c) == {}
        h = null_homotopy(c)
        assert h is not None
        assert differential(h) == identity_morphism(c)


def test_cone_of_zero_map_is_sum():
    cat = kronecker_category()
    x = embed(cat, cat.obj("e1"))
    y = embed(cat, cat.obj("e2"))
    c = cone(zero_morphism(x, y))
    assert c.terms == direct_sum(y, shift(x, 1)).terms
    assert c.q == {}


def test_hom_complex_of_cone_example():
    # X = cone(0: e1 -> e2): dim H^0 Hom(e1, X) = 2
    cat = kronecker_category()
    e1 = embed(cat, cat.obj("e1"))
    e2 = embed(cat, cat.obj("e2"))
    x = cone(zero_morphism(e1, e2))
    assert ho_hom(e1, x, 0) == 2


def test_cone_single_arrow_end_dims():
    cat = kronecker_category()
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    a = cat.basis_morphism(e1, e2, 0, list(cat.hom(e1, e2).names[0]).index("a"))
    f = TwistedMorphism(embed(cat, e1), embed(cat, e2), 0, {(0, 0): a})
    c = cone(f)
    end = hom_complex(c, c)
    # skyscraper analogue: H^0 End = k, H^1 End = k
    assert end.cohomology_dim(0) == 1
    assert end.cohomology_dim(1) == 1


def test_verify_cone_axioms():
    cat = kronecker_category()
    f = kronecker_ev_morphism(cat)
    c = cone(f)
    assert pretr.verify_cone_axioms(c, f)
    imap, pmap, jmap, smap = cone_maps(f)
    doubled = pretr.tm_scale(QQ.from_int(2), jmap)
    assert not pretr.verify_cone_axioms(c, f, maps=(imap, pmap, doubled, smap))
    idm = identity_morphism(embed(cat, cat.obj("e1")))
    assert pretr.verify_cone_axioms(cone(idm), idm)


def test_ev_map_not_ho_iso_and_orthogonality():
    cat = kronecker_category()
    f = kronecker_ev_morphism(cat)
    assert is_closed(f)
    assert not is_ho_iso(f)
    c = cone(f)
    e1 = embed(cat, cat.obj("e1"))
    # Hom(e1[n], cone(ev)) vanishes in all degrees
    h = hom_complex(e1, c)
    for n in h.degrees():
        assert h.cohomology_dim(n) == 0
    assert not is_contractible(c)


def test_cone_of_two_arrow_sum_not_contractible():
    cat = kronecker_category()
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    names = list(cat.hom(e1, e2).names[0])
    a = cat.basis_morphism(e1, e2, 0, names.index("a"))
    b = cat.basis_morphism(e1, e2, 0, names.index("b"))
    f = TwistedMorphism(embed(cat, e1), embed(cat, e2), 0, {(0, 0): cat.add(a, b)})
    c = cone(f)
    assert not is_contractible(c)
    end = hom_complex(c, c)
    assert any(end.cohomology_dim(n) for n in end.degrees())


def test_ho_hom_examples():
    cat = kronecker_category()
    e1 = embed(cat, cat.obj("e1"))
    e2 = embed(cat, cat.obj("e2"))
    assert ho_hom(e1, e2, 0) == 2
    h = hom_complex(e2, e1)
    assert all(h.cohomology_dim(n) == 0 for n in range(-3, 4))


def test_is_ho_iso_basics():
    cat = kronecker_category()
    x = embed(cat, cat.obj("e1"))
    assert is_ho_iso(identity_morphism(x))
    assert not is_ho_iso(zero_morphism(x, x))


def test_reduce_examples():
    cat = kronecker_category()
    x = embed(cat, cat.obj("e1"))
    c = cone(identity_morphism(x))
    y, f = reduce(c)
    assert len(y.terms) == 0
    assert is_ho_iso(f)

    e1 = embed(cat, cat.obj("e1"))
    y2, f2 = reduce(e1)
    assert y2 == e1 and f2 == identity_morphism(e1)

    # 3-term complex with one invertible entry collapses to one term
    e2 = embed(cat, cat.obj("e2"))
    z = cone(zero_morphism(e2, cone(identity_morphism(e1))))
    assert len(z.terms) == 3
    yz, fz = reduce(z)
    assert len(yz.terms) == 1
    assert is_ho_iso(fz)


def test_karoubi_examples():
    cat = kronecker_category()
    e1 = embed(cat, cat.obj("e1"))
    x = direct_sum(e1, e1)
    full = karoubi_identity(x)
    for n in (-1, 0, 1):
        assert karoubi_hom(full, full, n) == ho_hom(x, x, n)
    # projection onto the first summand
    e = TwistedMorphism(x, x, 0, {(0, 0): cat.identity(cat.obj("e1"))})
    k = KaroubiObject(x, e, zero_morphism(x, x, -1))
    assert k.verify()
    assert karoubi_hom(k, k, 0) == 1
    comp = karoubi_complement(k)
    assert comp.verify()
    assert karoubi_hom(comp, comp, 0) == 1
    # four corner pieces reconstruct End dimension-wise
    total = sum(karoubi_hom(a, b, 0) for a in (k, comp) for b in (k, comp))
    assert total == ho_hom(x, x, 0) == 4


def test_direct_sum_properties():
    cat = kronecker_category()
    e1 = embed(cat, cat.obj("e1"))
    empty = TwistedComplex(cat, [], {})
    assert direct_sum(e1, empty) == e1
    e2 = embed(cat, cat.obj("e2"))
    s = direct_sum(e1, e2)
    for n in (-1, 0, 1):
        assert ho_hom(s, e2, n) == ho_hom(e1, e2, n) + ho_hom(e2, e2, n)
        assert ho_hom(e1, s, n) == ho_hom(e1, e1, n) + ho_hom(e1, e2, n)
    assert maurer_cartan_defect(s) == {}


def test_a_hom_between_complexes_over_different_categories_is_refused():
    """HomSpace, as direct_sum, needs one base category: ends over the
    Kronecker quiver and Beilinson P^2, or over two Kronecker instances,
    raise instead of reading the Homs of the first end's category."""
    k2, b3, other = kronecker_category(), beilinson3_category(), kronecker_category()
    e1 = embed(k2, k2.obj("e1"))
    for y in (embed(b3, b3.obj("v3")), embed(other, other.obj("e2"))):
        for a, b in ((e1, y), (y, e1)):
            with pytest.raises(ValueError, match="different base categories"):
                HomSpace(a, b)
            with pytest.raises(ValueError, match="different base categories"):
                ho_hom(a, b, 0)


def _random_tm(hs, rng, degree):
    fl = hs.cat.field
    vec = {}
    for i in range(hs.complex.dim(degree)):
        c = rng.randrange(-2, 3)
        if c:
            vec[i] = fl.from_int(c)
    return hs.from_vector(degree, vec)


def _per_vector_differential(hs):
    """Reference for the Hom differential: differentiate each basis vector
    as a one-entry TwistedMorphism and read the column off to_vector."""
    fl, dims = hs.cat.field, hs.layout.dims
    diff = {}
    for n, dim in dims.items():
        ent = {}
        for col in range(dim):
            (i, j, u), t = hs.layout.locate(n, col)
            m = Morphism(hs.x.terms[j].obj, hs.y.terms[i].obj, u, {t: fl.one()})
            df = differential(TwistedMorphism(hs.x, hs.y, n, {(i, j): m}))
            for row, v in hs.to_vector(df).items():
                ent[(row, col)] = v
        mat = Matrix(fl, dims.get(n + 1, 0), dim, ent)
        if not mat.is_zero():
            diff[n] = mat
    return diff


def _odd_twist_pairs(field):
    """Quiver w0 -a-> w1 -b-> w2 with both arrows of degree 1, and pairs of
    twisted complexes in which a twist of odd degree meets an odd Hom vector
    with a nonzero product: w0 -> Cone(b) on the q_Y side, Cone(a) -> w2 on
    the q_X side."""
    cat = from_quiver(field, ["w0", "w1", "w2"], [Arrow("a", "w0", "w1", 1), Arrow("b", "w1", "w2", 1)])
    w = [embed(cat, o) for o in cat.objects]

    def arrow_cone(k):
        arrow = cat.basis_morphism(cat.objects[k], cat.objects[k + 1], 1, 0)
        return cone(TwistedMorphism(w[k], shift(w[k + 1], 1), 0, {(0, 0): arrow}))

    ca, cb = arrow_cone(0), arrow_cone(1)
    return [(w[0], cb), (ca, w[2]), (ca, cb), (shift(cb, 1), ca)]


def _check_block_assembly(hs, rng):
    assert hs.complex.diff == _per_vector_differential(hs)
    assert hs.complex.validate() == []
    for n in hs.complex.degrees():
        f = _random_tm(hs, rng, n)
        assert differential(f) == hs.from_vector(n + 1, hs.complex.d(n).apply(hs.to_vector(f)))


def test_blockwise_hom_differential_matches_per_vector_reference():
    rng = random.Random(4242)
    seen = {"base differential": 0, "odd target shift": 0, "twist of nonzero degree": 0}
    for trial in range(60):
        cat = random_category(rng, field=(QQ, GF(32003))[trial % 2])
        x = random_twisted_complex(cat, rng, max_terms=6)
        y = shift(random_twisted_complex(cat, rng, max_terms=6), rng.randrange(-1, 2))
        for a, b in ((x, y), (y, x), (y, y)):
            seen["base differential"] += any(cat.hom(s.obj, t.obj).complex.diff for s in a.terms for t in b.terms)
            seen["odd target shift"] += any(t.shift % 2 for t in b.terms)
            seen["twist of nonzero degree"] += any(m.degree for m in list(a.q.values()) + list(b.q.values()))
            _check_block_assembly(HomSpace(a, b), rng)
    assert all(seen.values()), seen
    for field in (QQ, GF(32003)):
        for a, b in _odd_twist_pairs(field):
            _check_block_assembly(HomSpace(a, b), rng)


def test_randomized_twisted_suite():
    rng = random.Random(99)
    for trial in range(25):
        cat = random_category(rng)
        x = random_twisted_complex(cat, rng)
        assert maurer_cartan_defect(x) == {}
        assert maurer_cartan_defect(shift(x, rng.randrange(-2, 3))) == {}
        y = random_twisted_complex(cat, rng, max_terms=3)
        assert maurer_cartan_defect(direct_sum(x, y)) == {}
        hs = HomSpace(x, y)
        assert hs.complex.validate() == []
        f = random_closed_degree0(hs, rng)
        c = cone(f)
        assert maurer_cartan_defect(c) == {}
        assert pretr.verify_cone_axioms(c, f)
        assert is_contractible(cone(identity_morphism(x)))


def test_compose_leibniz_random():
    rng = random.Random(7)
    for trial in range(15):
        cat = random_category(rng)
        x = random_twisted_complex(cat, rng, max_terms=3)
        y = random_twisted_complex(cat, rng, max_terms=3)
        z = random_twisted_complex(cat, rng, max_terms=3)
        hxy = HomSpace(x, y)
        hyz = HomSpace(y, z)
        degs_xy = hxy.complex.degrees()
        degs_yz = hyz.complex.degrees()
        if not degs_xy or not degs_yz:
            continue
        f = _random_tm(hxy, rng, rng.choice(degs_xy))
        g = _random_tm(hyz, rng, rng.choice(degs_yz))
        lhs = differential(compose(f, g))
        rhs = tm_add(compose(differential(f), g), compose(f, differential(g)) if f.degree % 2 == 0 else tm_neg(compose(f, differential(g))))
        assert lhs == rhs
        # identity laws
        assert compose(identity_morphism(x), f) == f
        assert compose(f, identity_morphism(y)) == f


def test_compose_single_entry_matches_base():
    cat = kronecker_category()
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    names = list(cat.hom(e1, e2).names[0])
    a = cat.basis_morphism(e1, e2, 0, names.index("a"))
    ta = TwistedMorphism(embed(cat, e1), embed(cat, e2), 0, {(0, 0): a})
    i2 = identity_morphism(embed(cat, e2))
    assert compose(ta, i2) == ta
    assert compose(ta, i2).entries[(0, 0)] == a


def test_ho_hom_shift_compatibility():
    rng = random.Random(17)
    for _ in range(8):
        cat = random_category(rng)
        x = random_twisted_complex(cat, rng, max_terms=3)
        y = random_twisted_complex(cat, rng, max_terms=3)
        for n in (-1, 0, 1):
            assert ho_hom(x, y, n) == ho_hom(x, shift(y, 1), n - 1)


def test_reduce_invariance_of_ho_hom():
    rng = random.Random(31)
    for _ in range(8):
        cat = random_category(rng)
        x = random_twisted_complex(cat, rng)
        t = embed(cat, rng.choice(list(cat.objects)))
        y, f = reduce(x)
        for n in (-2, -1, 0, 1, 2):
            assert ho_hom(t, x, n) == ho_hom(t, y, n)
            assert ho_hom(x, t, n) == ho_hom(y, t, n)


def test_yoneda_consistency_of_ho_iso():
    rng = random.Random(13)
    found = 0
    for _ in range(10):
        cat = random_category(rng)
        x = random_twisted_complex(cat, rng, max_terms=3)
        c = cone(identity_morphism(x))
        f = zero_morphism(c, TwistedComplex(cat, [], {}))
        assert is_ho_iso(f)  # contractible to zero
        for t in cat.objects:
            te = embed(cat, t)
            for n in (-1, 0, 1):
                assert ho_hom(te, c, n) == ho_hom(te, f.dst, n)
        found += 1
    assert found == 10


def test_triangle_euler_exactness():
    rng = random.Random(23)
    for _ in range(10):
        cat = random_category(rng)
        x = random_twisted_complex(cat, rng, max_terms=3)
        y = random_twisted_complex(cat, rng, max_terms=3)
        f = random_closed_degree0(HomSpace(x, y), rng)
        c = cone(f)
        t = embed(cat, rng.choice(list(cat.objects)))
        hx = hom_complex(t, x)
        hy = hom_complex(t, y)
        hc = hom_complex(t, c)
        degrees = set(hx.degrees()) | set(hy.degrees()) | set(hc.degrees())
        total = 0
        for n in degrees:
            total += (-1) ** n * (hx.cohomology_dim(n) - hy.cohomology_dim(n) + hc.cohomology_dim(n))
        assert total == 0


def test_homotopy_idempotent_with_nontrivial_witness():
    """A strictly idempotent projection perturbed by a boundary is still a
    homotopy idempotent; the witness is solved for exactly and the Karoubi
    dimensions agree with the unperturbed class."""
    cat = kronecker_category()
    e1 = cat.obj("e1")
    x = direct_sum(cone(identity_morphism(embed(cat, e1))), embed(cat, e1))
    hs = HomSpace(x, x)
    # strict projection onto the embedded summand
    e = TwistedMorphism(x, x, 0, {(2, 2): cat.identity(e1)})
    assert compose(e, e) == e
    # perturb by an exact degree-0 morphism
    fl = cat.field
    k_vec = {i: fl.from_int(1 + (i % 2)) for i in range(hs.complex.dim(-1))}
    k = hs.from_vector(-1, k_vec)
    ep = tm_add(e, differential(k))
    defect = tm_add(compose(ep, ep), tm_neg(ep))
    assert not defect.is_zero()  # genuinely non-strict
    # solve d(h) = ep^2 - ep exactly
    sol = hs.complex.d(-1).solve(hs.to_vector(defect))
    assert sol is not None
    h = hs.from_vector(-1, sol)
    kob = KaroubiObject(x, ep, h)
    assert kob.verify()
    strict = KaroubiObject(x, e, zero_morphism(x, x, -1))
    for n in (-1, 0, 1):
        assert karoubi_hom(kob, kob, n) == karoubi_hom(strict, strict, n)
    comp = karoubi_complement(kob)
    assert comp.verify()
    for n in (-1, 0, 1):
        total = sum(karoubi_hom(a, b, n) for a in (kob, comp) for b in (kob, comp))
        assert total == ho_hom(x, x, n)


def _content_copy(x):
    """A distinct twisted complex equal to x in content, with its twist and
    every coordinate dict inserted in reverse order."""
    q = {k: Morphism(m.src, m.dst, m.degree, dict(reversed(m.coords.items()))) for k, m in reversed(x.q.items())}
    return TwistedComplex(x.cat, list(x.terms), q, check=False)


def test_shared_homspace_is_keyed_by_category_and_witnesses_are_rebound():
    """The memo key names the category: c1 and c2 are equal in content
    over two equal Kronecker categories, and an entry of c1's memo planted
    on c2 is not read.  A witness is always built on the caller's ends."""
    k1, k2 = kronecker_category(), kronecker_category()
    c1 = cone(identity_morphism(embed(k1, k1.obj("e1"))))
    c2 = cone(identity_morphism(embed(k2, k2.obj("e1"))))
    assert pretr._canon(c1) == pretr._canon(c2)
    first = HomSpace(c1, c1)
    c2._homs.update(c1._homs)
    assert HomSpace(c2, c2).complex is not first.complex
    assert HomSpace(c1, c1).complex is first.complex
    copy = _content_copy(c1)
    assert HomSpace(copy, copy).complex.diff == first.complex.diff
    h1, h2 = null_homotopy(c1), null_homotopy(copy)
    assert null_homotopy(embed(k1, k1.obj("e2"))) is None
    assert h1 is not None and h2 is not None
    assert h1.src is c1 and h2.src is copy and h2.entries == h1.entries
    assert differential(h2) == identity_morphism(copy)


def test_memoized_homspace_equals_fresh_build():
    """A second HomSpace on the same ends takes the complex from the memo on
    them, as does one whose other end is a content copy with its twist and
    coordinates reordered; everything read from it equals a fresh build on
    content copies."""
    rng = random.Random(1515)
    reordered = 0
    for trial in range(30):
        cat = random_category(rng, field=(QQ, GF(32003))[trial % 2])
        x = random_twisted_complex(cat, rng, max_terms=5)
        y = shift(random_twisted_complex(cat, rng, max_terms=5), rng.randrange(-1, 2))
        for a, b in ((x, y), (y, x), (x, x)):
            first = HomSpace(a, b)
            hs = HomSpace(a, b)
            fresh = HomSpace(_content_copy(a), _content_copy(b))
            assert hs.complex is first.complex and fresh.complex is not first.complex
            assert hs.x is a and hs.y is b
            reordered += any(len(m.coords) > 1 for m in b.q.values())
            half = HomSpace(a, _content_copy(b))
            assert half.complex is first.complex and half.y is not b
            assert hs.layout is first.layout and fresh.layout is not first.layout
            assert (hs.layout.at, hs.layout.dims, hs.complex.diff) == (fresh.layout.at, fresh.layout.dims, fresh.complex.diff)
            for n in range(min(fresh.complex.degrees(), default=0) - 1, max(fresh.complex.degrees(), default=0) + 2):
                assert ho_hom(a, b, n) == ho_hom(_content_copy(a), _content_copy(b), n) == fresh.complex.cohomology_dim(n)
                assert [f.entries for f in hs.cohomology_classes(n)] == [f.entries for f in fresh.cohomology_classes(n)]
                assert all(f.src is a and f.dst is b for f in hs.cohomology_classes(n))
    assert reordered


def test_colliding_content_keys_compare_content_and_share_no_memo_entry():
    """Two complexes that differ in content, whose keys are given the same
    cached hash, neither compare equal nor read each other's memo entries,
    in either slot of the key."""
    cat = kronecker_category()
    e1 = embed(cat, cat.obj("e1"))
    c1, c2 = cone(identity_morphism(e1)), cone(kronecker_ev_morphism(cat))
    k1, k2 = pretr._canon(c1), pretr._canon(c2)
    assert k1.content != k2.content
    k1.hash = k2.hash = 7
    assert hash(k1) == hash(k2) and k1 != k2 and not k1 == k2 and k1 == k1
    first, mixed = HomSpace(c1, c1), HomSpace(c1, e1)
    c2._homs.update(c1._homs)
    own, other = HomSpace(c2, c2), HomSpace(c2, e1)
    assert own.complex is not first.complex and other.complex is not mixed.complex
    assert len(c2._homs) == len(c1._homs) + 2 and len(c1._homs) == 2
    fresh = HomSpace(_content_copy(c2), _content_copy(c2))
    assert (own.layout.at, own.complex.dims, own.complex.diff) == (fresh.layout.at, fresh.complex.dims, fresh.complex.diff)
    assert own.layout.at != first.layout.at
    assert HomSpace(c1, c1).complex is first.complex and HomSpace(c2, c2).complex is own.complex


def test_content_equal_complexes_built_separately_share_one_hom_complex():
    """Two cones of the same morphism, each built on its own, have distinct
    but equal keys with equal hashes, and a Hom complex with either as an
    end reads the one that End(a) stored on a."""
    cat = kronecker_category()
    a, b = (cone(kronecker_ev_morphism(cat)) for _ in range(2))
    assert a is not b and pretr._canon(a) is not pretr._canon(b)
    assert pretr._canon(a) == pretr._canon(b) and hash(pretr._canon(a)) == hash(pretr._canon(b))
    first = HomSpace(a, a)
    for x, y in ((a, b), (b, a)):
        hs = HomSpace(x, y)
        assert hs.complex is first.complex and hs.layout is first.layout
        assert hs.x is x and hs.y is y


def test_the_content_key_is_computed_once_per_complex(monkeypatch):
    """However many Hom complexes, memo lookups and hull subcategories read
    a complex's key, it is made once, and every read returns that object."""
    made = []

    class Counted(pretr._Content):
        __slots__ = ()

        def __init__(self, content):
            made.append(content)
            super().__init__(content)

    monkeypatch.setattr(pretr, "_Content", Counted)
    cat = kronecker_category()
    e1, e2 = embed(cat, cat.obj("e1")), embed(cat, cat.obj("e2"))
    c = cone(kronecker_ev_morphism(cat))
    ends = (e1, e2, c, shift(c, 1))
    keys = [pretr._canon(x) for x in ends]
    for _ in range(2):
        for x in ends:
            for y in ends:
                for n in (-1, 0, 1):
                    ho_hom(x, y, n)
        hull_subcategory(cat, [(f"o{t}", x) for t, x in enumerate(ends)])
    assert len(made) == len(ends)
    assert all(pretr._canon(x) is key for x, key in zip(ends, keys))


def _hull_cone(cat, rng, depth):
    """Iterated cone into the last object, in the shape of the benchmark's
    cone jobs: C_1 = cone(x1 + x2 + x3 -> top), C_s = cone(z_s -> C_{s-1})."""
    fl = cat.field
    top = cat.objects[-1]

    def into_top(obj):
        n = cat.hom(obj, top).dim(0)
        return Morphism(obj, top, 0, {t: fl.from_int(rng.randrange(1, 50)) for t in range(n)})

    xs = [rng.choice(cat.objects) for _ in range(3)]
    src = embed(cat, xs[0])
    for o in xs[1:]:
        src = direct_sum(src, embed(cat, o))
    c = cone(TwistedMorphism(src, embed(cat, top), 0, {(0, j): into_top(o) for j, o in enumerate(xs)}))
    for _ in range(depth - 1):
        oz = rng.choice(cat.objects)
        c = cone(TwistedMorphism(embed(cat, oz), c, 0, {(0, 0): into_top(oz)}))
    return c


def test_hull_cone_tables_build_each_hom_complex_once(monkeypatch):
    """Timing-free guard: the ho_hom tables of a cone, over every object and
    shift in both directions, build each Hom complex once per distinct pair
    of ends and eliminate each distinct differential at most once."""
    fl = GF(32003)
    k2 = kronecker_category(fl)
    rng = random.Random(77)
    builds, echelons = Counter(), Counter()
    real_build, real_echelon = pretr.HomSpace._build, Matrix._echelon

    def build(self):
        builds[(pretr._canon(self.x), pretr._canon(self.y))] += 1
        return real_build(self)

    def echelon(self, b=None):
        echelons[(self.rows, self.cols, tuple(sorted(self.entries.items())), None if b is None else tuple(sorted(b.items())))] += 1
        return real_echelon(self, b)

    for cat in (tensor(k2, k2), tensor(k2, beilinson3_category(fl))):
        c = _hull_cone(cat, rng, depth=3)
        monkeypatch.setattr(pretr.HomSpace, "_build", build)
        monkeypatch.setattr(Matrix, "_echelon", echelon)
        shifts = sorted({t.shift for t in c.terms})
        into = [[ho_hom(embed(cat, e), c, -s) for s in shifts] for e in cat.objects]
        out = [[ho_hom(c, embed(cat, e), s) for s in shifts] for e in cat.objects]
        monkeypatch.undo()
        assert len(shifts) == 2 and any(map(any, into + out))
        assert len(builds) == 2 * len(cat.objects) and set(builds.values()) == {1}
        assert echelons and set(echelons.values()) == {1}
        builds.clear()
        echelons.clear()


def test_the_memo_holds_no_reference_cycle():
    cat = kronecker_category()
    e1, e2 = embed(cat, cat.obj("e1")), embed(cat, cat.obj("e2"))
    c = cone(kronecker_ev_morphism(cat))
    for n in (-1, 0, 1):
        ho_hom(e1, c, n), ho_hom(c, e2, n), ho_hom(c, c, n)
    assert c._homs and e1._homs and e2._homs
    probe = weakref.ref(c)
    gc.disable()
    try:
        del c
        assert probe() is None
    finally:
        gc.enable()
    assert e1._homs and e2._homs


def test_contracting_homotopy_bounds_every_cycle_into_the_cone():
    """With d(h) = 1_C, every cycle f: E -> C of degree n has
    d(f·h) = (-1)^n f, so C is right-orthogonal to every object."""
    rng = random.Random(6061)
    checked = 0
    for trial in range(10):
        cat = random_category(rng, field=(QQ, GF(32003))[trial % 2])
        x = random_twisted_complex(cat, rng, max_terms=3)
        scale = cat.field.from_int(rng.choice([1, 2, -3]))
        c = cone(tm_scale(scale, identity_morphism(x)))
        h = null_homotopy(c)
        assert h is not None
        for e in cat.objects:
            src = shift(embed(cat, e), rng.randrange(-1, 2))
            hs = HomSpace(src, c)
            for n in hs.complex.degrees():
                if not hs.complex.dim(n):
                    continue
                for z in hs.complex.d(n).nullspace():
                    f = hs.from_vector(n, z)
                    f = tm_scale(cat.field.from_int(rng.choice([1, 2, -1])), f)
                    assert differential(compose(f, h)) == (tm_neg(f) if n % 2 else f)
                    checked += 1
    assert checked


def _doubled_solve(real_solve):
    """Matrix.solve returning twice the true solution: d(2h) = 2 ≠ 1."""

    def solve(self, b):
        sol = real_solve(self, b)
        if sol is None:
            return None
        return {k: self.field.add(v, v) for k, v in sol.items()}

    return solve


def test_a_wrong_null_homotopy_raises_and_is_not_stored(monkeypatch):
    cat = kronecker_category()
    c = cone(identity_morphism(embed(cat, cat.obj("e1"))))
    assert ho_hom(c, c, 0) == 0 and c._homs  # both calls below start from a warm memo
    monkeypatch.setattr(Matrix, "solve", _doubled_solve(Matrix.solve))
    for _ in range(2):
        with pytest.raises(AssertionError):
            is_contractible(c)
    monkeypatch.undo()
    assert is_contractible(c)


def test_is_contractible_verifies_on_every_call_after_the_memo_is_warm(monkeypatch):
    cat = kronecker_category()
    c = cone(identity_morphism(embed(cat, cat.obj("e1"))))
    assert ho_hom(c, c, -1) == 0 and c._homs
    copy = _content_copy(c)
    verified, built = [], []
    real, real_build = pretr.differential, pretr.HomSpace._build
    monkeypatch.setattr(pretr, "differential", lambda f: verified.append(f.src) or real(f))
    monkeypatch.setattr(pretr.HomSpace, "_build", lambda self: built.append(self.x) or real_build(self))
    assert is_contractible(c) and is_contractible(copy) and is_contractible(c)
    assert verified == [c, copy, c]  # every call verifies
    assert built == [copy]  # c's Hom complex came from its memo


def test_reduce_verification_survives_python_O():
    """reduce, tm_add and DGCategory.add check by raising, so `python -O`
    (which strips assert statements) keeps the checks."""
    code = textwrap.dedent(
        """
        import sys
        from dgcat import pretr
        from dgcat.fixtures import kronecker_category
        assert False, "assert statements must be stripped in this run"
        cat = kronecker_category()
        e1 = pretr.embed(cat, cat.obj("e1"))
        c = pretr.cone(pretr.identity_morphism(e1))
        pretr.is_ho_iso = lambda f: False
        try:
            pretr.reduce(c)
        except AssertionError as e:
            print("reduce raised:", e)
        for add, f, g in (
            (pretr.tm_add, pretr.identity_morphism(e1), pretr.identity_morphism(c)),
            (cat.add, cat.identity(cat.obj("e1")), cat.identity(cat.obj("e2"))),
        ):
            try:
                add(f, g)
            except ValueError as e:
                print("add raised:", e)
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "reduce raised: reduction map failed homotopy-isomorphism verification",
        "add raised: tm_add: morphisms differ in source, target or degree",
        "add raised: add: morphisms differ in source, target or degree",
    ]


def _scalar_cone(cat, obj, rows):
    """Cone of the n x n scalar matrix `rows` on n copies of obj, the shape
    of the benchmark's reduce jobs."""
    one = embed(cat, obj)
    x = one
    for _ in rows[1:]:
        x = direct_sum(x, one)
    ident, fl = cat.identity(obj), cat.field
    ent = {(i, j): cat.scale(fl.from_int(v), ident) for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return cone(TwistedMorphism(x, x, 0, ent))


def _corner_complex(field, db, dc, below):
    """A[0], B, C, A[1] over the quiver B -b-> A -c-> C (arrow degrees db,
    dc) with q_AA = 1, q_AB = b and q_CA = c.  Eliminating q_AA corrects
    the twist from B to C by -c·b, which lands below the diagonal when B
    comes before C (below=True) and above it otherwise."""
    cat = from_quiver(field, ["A", "B", "C"], [Arrow("b", "B", "A", db), Arrow("c", "A", "C", dc)])
    a, b, c = cat.objects
    ib, ic = (1, 2) if below else (2, 1)
    terms = [None] * 4
    terms[0], terms[3], terms[ib], terms[ic] = (a, 0), (a, 1), (b, 1 - db), (c, dc)
    q = {(0, 3): cat.identity(a), (0, ib): cat.basis_morphism(b, a, db, 0), (ic, 3): cat.basis_morphism(a, c, dc, 0)}
    return TwistedComplex(cat, terms, q)


def _reference_reduce(x):
    cur, total = x, identity_morphism(x)
    while (step := twisted_reference._reduce_step(cur)) is not None:
        cur, proj = step
        total = twisted_reference.compose(total, proj)
    return cur, total


def _same_reduction(x, seen):
    cur = x
    while True:
        step = pretr._reduce_step(cur)
        assert step == twisted_reference._reduce_step(cur)
        if step is None:
            break
        cur = step[0]
        seen["reduce step"] += 1
    assert reduce(x) == _reference_reduce(x)


def test_twisted_arithmetic_matches_the_reference():
    """Seeded, over Q and F_32003: differential, maurer_cartan_defect,
    compose, tm_add, each reduce step and the whole reduce give what the
    arithmetic that summed new Morphisms and negated copies gave, on gens
    complexes (odd degrees and shifts among them), on cones of scalar
    matrices, and on reduce steps whose correction lands below and above
    the diagonal.  tm_add(f, f) leaves f's coordinates as they were."""
    ref = twisted_reference
    rng = random.Random(2525)
    seen = Counter()
    for trial in range(40):
        field = (QQ, GF(32003))[trial % 2]
        cat = random_category(rng, field=field)
        x = shift(random_twisted_complex(cat, rng, max_terms=4), rng.randrange(-1, 2))
        y = random_twisted_complex(cat, rng, max_terms=4)
        z = random_twisted_complex(cat, rng, max_terms=3)
        for c in (x, y, z):
            assert maurer_cartan_defect(c) == ref.maurer_cartan_defect(c)
            seen["odd shift"] += any(t.shift % 2 for t in c.terms)
            seen["odd twist"] += any(m.degree % 2 for m in c.q.values())
            _same_reduction(c, seen)
        hxy, hyz = HomSpace(x, y), HomSpace(y, z)
        for n in hxy.complex.degrees():
            f, g = _random_tm(hxy, rng, n), _random_tm(hxy, rng, n)
            before = {k: dict(m.coords) for k, m in f.entries.items()}
            assert tm_add(f, f) == ref.tm_add(f, f)
            assert {k: m.coords for k, m in f.entries.items()} == before
            assert tm_add(f, g) == ref.tm_add(f, g)
            assert differential(f) == ref.differential(f)
            for m in hyz.complex.degrees():
                h = _random_tm(hyz, rng, m)
                assert compose(f, h) == ref.compose(f, h)
                seen["odd composite sign"] += bool(n * m % 2 and f.entries and h.entries)
    for trial in range(16):
        field = (QQ, GF(32003))[trial % 2]
        cat = kronecker_category(field)
        size = rng.randrange(2, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(size)] for _ in range(size)]
        x = _scalar_cone(cat, cat.objects[trial % 2], rows)
        _same_reduction(x, seen)
        _same_reduction(shift(x, 1), seen)
        for db in (0, 1):
            for dc in (0, 1):
                below = _corner_complex(field, db, dc, True)
                assert pretr._reduce_step(below) is None is ref._reduce_step(below)
                above = _corner_complex(field, db, dc, False)
                seen["odd twist"] += db or dc
                _same_reduction(above, seen)
                seen["corner above"] += len(reduce(above)[0].q)
    assert seen["reduce step"] > 50 and all(seen[k] for k in ("odd shift", "odd twist", "odd composite sign", "corner above")), seen


def _twist_branches(x, y, seen):
    """Count, for Hom(x, y), the internal parts and the twist parts with a
    nonzero product, by the parity of the sign each takes in `_build`."""
    cat = x.cat
    fl = cat.field
    for i, ty in enumerate(y.terms):
        for j, tx in enumerate(x.terms):
            h = cat.hom(tx.obj, ty.obj)
            for u in h.complex.degrees():
                n = u - ty.shift + tx.shift
                if h.complex.diff.get(u) is not None:
                    seen[f"internal {'odd' if ty.shift % 2 else 'even'}"] += 1
                unit = [{t: fl.one()} for t in range(h.dim(u))]
                for (i2, i1), q in y.q.items():
                    table = cat.comp[(tx.obj, ty.obj, y.terms[i2].obj)]
                    if i1 == i and any(contract(fl, table, u, e, q.degree, q.coords) for e in unit):
                        seen[f"left {'odd' if u * q.degree % 2 else 'even'}"] += 1
                for (j1, j2), q in x.q.items():
                    table = cat.comp[(x.terms[j2].obj, tx.obj, ty.obj)]
                    if j1 == j and any(contract(fl, table, q.degree, q.coords, u, e) for e in unit):
                        seen[f"right {'odd' if (q.degree * u + n + 1) % 2 else 'even'}"] += 1


def _seeded_build_pairs():
    """Seeded pairs of twisted complexes over Q and F_32003: gens
    complexes over the epsilon fixture in degrees 0, 1 and 2, over gens
    categories and over a quiver whose odd arrows compose, with twists on
    both ends and odd shifts."""
    rng = random.Random(3133)
    for trial in range(48):
        field = (QQ, GF(32003))[trial % 2]
        if trial % 4 < 2:
            cat = epsilon_category(field, degree=trial // 4 % 3)
        elif trial % 4 == 2:
            cat = random_category(rng, field=field)
        else:  # two arrows of odd degree with a nonzero composite
            cat = from_quiver(field, ["p", "q", "r"], [Arrow("a", "p", "q", 1), Arrow("b", "q", "r", rng.choice((-1, 1)))])
        x = shift(random_twisted_complex(cat, rng, max_terms=4), rng.randrange(-1, 2))
        y = random_twisted_complex(cat, rng, max_terms=4)
        yield from ((x, y), (y, x), (x, x), (y, shift(y, 1)))
        if trial % 4 == 3:  # the left part of a from embed(p) into (r <-b- q)
            p, q, r = cat.objects
            arrow = cat.basis_morphism(q, r, cat.hom(q, r).complex.degrees()[0], 0)
            z = TwistedComplex(cat, [(r, 0), (q, 1 - arrow.degree)], {(0, 1): arrow})
            yield from ((shift(embed(cat, p), rng.randrange(-1, 2)), z), (x, z))


def test_homspace_build_matches_the_reference_build():
    """Seeded, over Q and F_32003: `HomSpace` gives the layout and every
    differential that the build with one `contract` per basis vector and
    twist entry gave (`twisted_reference.ReferenceHomSpace`), exactly, on
    gens complexes (base categories with d != 0 and Homs in nonzero
    degrees among them), on the epsilon fixture in degrees 0, 1 and 2 and
    on a quiver whose odd arrows compose, with twists on both ends and odd
    shifts.  Every sign branch of the
    internal, left and right parts runs with a nonzero product."""
    seen = Counter()
    for a, b in _seeded_build_pairs():
        hs, ref = HomSpace(a, b), twisted_reference.ReferenceHomSpace(a, b)
        assert hs.layout.at == ref.layout.at
        assert hs.complex.dims == ref.complex.dims
        assert hs.complex.diff == ref.complex.diff
        seen["twists on both ends"] += bool(a.q and b.q)
        seen["odd shift"] += any(t.shift % 2 for t in (*a.terms, *b.terms))
        _twist_branches(a, b, seen)
    branches = [f"{part} {parity}" for part in ("internal", "left", "right") for parity in ("odd", "even")]
    assert all(seen[k] for k in (*branches, "twists on both ends", "odd shift")), seen


def test_adopted_differentials_equal_the_checked_construction(monkeypatch):
    """Each differential that `HomSpace._build` hands to `Matrix._adopt`
    unchecked, on the seeded pairs of the reference-build test (and in the
    Hom complexes that making them reads), equals the matrix that the
    checking constructor builds from a copy of its entries: every entry is
    in bounds and nonzero.  Every differential of those pairs' complexes
    was adopted."""
    adopted, real = [], Matrix._adopt
    monkeypatch.setattr(Matrix, "_adopt", classmethod(lambda cls, *args: adopted.append(real(*args)) or adopted[-1]))
    complexes = [HomSpace(a, b).complex for a, b in _seeded_build_pairs()]
    monkeypatch.undo()
    assert len(adopted) > 100
    for m in adopted:
        assert m == Matrix(m.field, m.rows, m.cols, dict(m.entries))
    assert {id(m) for m in adopted} >= {id(m) for c in complexes for m in c.diff.values()}


def test_twisted_complexes_are_equal_when_their_content_is():
    """`TwistedComplex.__eq__` compares the `_canon` keys of two complexes
    over one category: the cone of ev and the direct sum of its terms have
    one list of terms but not one twist, two cones of ev built separately
    are equal, and the cone of ev over another copy of the category is not
    equal to them."""
    cat = kronecker_category()
    c, again = cone(kronecker_ev_morphism(cat)), cone(kronecker_ev_morphism(cat))
    flat = TwistedComplex(cat, c.terms, {}, check=False)
    assert c.terms == flat.terms and c.q and c != flat and not c == flat
    assert c == again and again == c and c is not again
    other = cone(kronecker_ev_morphism(kronecker_category()))
    assert pretr._canon(other) == pretr._canon(c) and other != c
    assert all(isinstance(t, pretr.Term) and t == (t.obj, t.shift) for t in c.terms)
