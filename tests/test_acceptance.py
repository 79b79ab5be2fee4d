"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated budget."""

import random
import time
from fractions import Fraction

from dgcat.dgcore import opposite, tensor
from dgcat.exactlin import QQ, GF
from dgcat.fixtures import (
    a2_category,
    a2_serre_data,
    beilinson3_category,
    beilinson_sod_claim,
    kronecker_category,
    kronecker_sod_claim,
    motivic_ledger,
    point_category,
    tensor_object_order,
)
from dgcat.functors import (
    check_quasi_equiv,
    functor_as_serre_data,
    identity_functor,
    verify_serre,
)
from dgcat.pretr import (
    HomSpace,
    cone,
    direct_sum,
    ho_hom,
    identity_morphism,
    is_contractible,
    is_ho_iso,
    maurer_cartan_defect,
    reduce,
    shift,
    verify_cone_axioms,
)
from dgcat.ptring import ClassExpr, Provenance, SODProvenance, point_equivalence_certificate
from dgcat.sodgen import check_exceptional_collection, check_semiorthogonality, check_sod, exceptional_sod_claim

from gens import random_category, random_closed_degree0, random_twisted_complex
from tensor_reference import plain
from test_dgcore import kunneth_check


def report(n, label, started, budget):
    elapsed = time.monotonic() - started
    print(f"PASS criterion {n}: {label} ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_1_axiom_suite():
    started = time.monotonic()
    rng = random.Random(2024)
    fields = [QQ, GF(101)]
    for i in range(200):
        c = random_category(rng, field=fields[i % 2])
        assert c.validate() == []
        d = random_category(rng, field=c.field)
        t = tensor(c, d)
        assert plain(t).validate() == []
        assert opposite(c).validate() == []
        kunneth_check(c, d, t)
    report(1, "200 randomized DG categories: axioms, tensor, opposite, Kunneth", started, 60)


def test_criterion_2_twisted_suite():
    started = time.monotonic()
    rng = random.Random(77)
    for i in range(200):
        cat = random_category(rng)
        x = random_twisted_complex(cat, rng, max_terms=5)
        assert maurer_cartan_defect(x) == {}
        assert maurer_cartan_defect(shift(x, rng.randrange(-2, 3))) == {}
        y = random_twisted_complex(cat, rng, max_terms=3)
        assert maurer_cartan_defect(direct_sum(x, y)) == {}
        hs = HomSpace(x, y)
        assert hs.complex.validate() == []
        f = random_closed_degree0(hs, rng)
        c = cone(f)
        assert maurer_cartan_defect(c) == {}
        assert verify_cone_axioms(c, f)
        assert is_contractible(cone(identity_morphism(y)))
        z, g = reduce(c)
        assert is_ho_iso(g) or (len(c.terms) == len(z.terms) and g == identity_morphism(c))
    report(2, "200 randomized twisted complexes: MC, d^2, cone axioms, contractibility, reduce", started, 120)


def _sod_ledger(label, cat, order, unit_count):
    from dgcat.ptring import Ledger

    led = Ledger(degree_bound=4)
    led = led.register_generator("pt", point_category(cat.field), unit_alias=True)
    led = led.register_generator(label, cat)
    claim = exceptional_sod_claim(cat, order)
    prov = Provenance(
        "verified-sod",
        payload=SODProvenance(label, claim, tuple(ClassExpr.unit() for _ in order), tuple("point" for _ in order)),
    )
    return led.add_relation(ClassExpr.gen(label).sub(ClassExpr.unit(unit_count)), prov)


def test_criterion_3_beilinson_identities():
    started = time.monotonic()
    pt = point_category()
    k2 = kronecker_category()
    claim = kronecker_sod_claim(k2)
    assert check_sod(k2, claim).ok
    for lbl in ("e1", "e2"):
        assert check_quasi_equiv(point_equivalence_certificate(k2, k2.obj(lbl), pt)).ok
    led = _sod_ledger("P1", k2, [k2.obj("e1"), k2.obj("e2")], 2)
    assert led.eq(ClassExpr.gen("P1"), ClassExpr.unit(2)) == "equal"

    b3 = beilinson3_category()
    assert check_sod(b3, beilinson_sod_claim(b3)).ok
    for lbl in ("v1", "v2", "v3"):
        assert check_quasi_equiv(point_equivalence_certificate(b3, b3.obj(lbl), pt)).ok
    led2 = _sod_ledger("P2", b3, [b3.obj("v1"), b3.obj("v2"), b3.obj("v3")], 3)
    assert led2.eq(ClassExpr.gen("P2"), ClassExpr.unit(3)) == "equal"
    report(3, "[P1] = 2[pt] and [P2] = 3[pt] through the verified SOD pipeline", started, 30)


def test_criterion_4_product_theorem():
    started = time.monotonic()
    k2 = kronecker_category()
    t = tensor(k2, k2)
    order = tensor_object_order(t)
    assert check_exceptional_collection(t, order)
    assert check_sod(t, exceptional_sod_claim(t, order)).ok
    led = motivic_ledger()
    assert led.eq(ClassExpr.parse("[P1]*[P1]"), ClassExpr.unit(4)) == "equal"
    report(4, "K2(x)K2 exceptional collection, 4-block SOD, [P1]*[P1] = 4[pt]", started, 60)


def test_criterion_5_distributivity_instance():
    started = time.monotonic()
    k2 = kronecker_category()
    a2 = a2_category()
    t = tensor(k2, a2)
    b1 = (t.obj("(e1,u)"), t.obj("(e1,v)"))
    b2 = (t.obj("(e2,u)"), t.obj("(e2,v)"))
    assert check_semiorthogonality(t, [b1, b2])
    claim = exceptional_sod_claim(t, tensor_object_order(t))
    assert check_sod(t, claim).ok
    report(5, "Kronecker SOD tensored with A_2: semiorthogonality and cut obligations", started, 60)


def test_criterion_6_motivic_measure():
    started = time.monotonic()
    led = motivic_ledger(degree_bound=4)
    rep = led.derive_measure_check()
    assert rep["pass"], rep
    assert set(rep["checks"].values()) == {"equal"}
    report(6, "mu(L) = 1 on the shipped motivic ledger (degree bound 4)", started, 10)


def test_criterion_8_serre():
    started = time.monotonic()
    data, pairings = a2_serre_data()
    assert verify_serre(data, pairings).ok
    k2 = kronecker_category()
    verdict = verify_serre(functor_as_serre_data(identity_functor(k2)), {})
    assert not verdict.ok
    assert verdict.failures[0][0] == "dimension_symmetry"
    report(8, "A_2 Nakayama bundle passes; Kronecker identity fails by dimension asymmetry", started, 10)


def classical_complex_from_twisted(x):
    """Independent realization of a twisted complex over the point category
    as a complex of vector spaces (dense rows, plain Fractions)."""
    degs = {}
    for t, term in enumerate(x.terms):
        degs.setdefault(-term.shift, []).append(t)
    dims = {n: len(ts) for n, ts in degs.items()}
    diff = {}
    for n, cols in degs.items():
        rows = degs.get(n + 1, [])
        m = [[Fraction(0)] * len(cols) for _ in rows]
        for r, i in enumerate(rows):
            for c, j in enumerate(cols):
                q = x.q.get((i, j)) or x.q.get((j, i))
                if q is not None and (i, j) in x.q:
                    m[r][c] = Fraction(q.coords.get(0, 0))
                elif q is not None:
                    pass
        diff[n] = m
    return dims, diff


def dense_rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def classical_hom_cohomology(vx, vy, n):
    """Brute-force H^n of the classical Hom complex of two complexes of
    vector spaces given as (dims, dense differentials)."""
    dims_x, dx = vx
    dims_y, dy = vy

    def hom_basis(k):
        out = []
        for m in sorted(dims_x):
            for i in range(dims_x[m]):
                for j in range(dims_y.get(m + k, 0)):
                    out.append((m, i, j))
        return out

    def d_matrix(k):
        src = hom_basis(k)
        dst = hom_basis(k + 1)
        index = {b: t for t, b in enumerate(dst)}
        rows = [[Fraction(0)] * len(src) for _ in dst]
        sign = Fraction(-1) if k % 2 else Fraction(1)
        for col, (m, i, j) in enumerate(src):
            # d_Y o phi
            for j2 in range(dims_y.get(m + k + 1, 0)):
                val = dy.get(m + k, [[Fraction(0)]])[j2][j] if dims_y.get(m + k + 1, 0) and dims_y.get(m + k, 0) else Fraction(0)
                if val:
                    rows[index[(m, i, j2)]][col] += val
            # -(-1)^k phi o d_X
            for i2 in range(dims_x.get(m - 1, 0)):
                val = dx.get(m - 1, [[Fraction(0)]])[i][i2] if dims_x.get(m, 0) and dims_x.get(m - 1, 0) else Fraction(0)
                if val:
                    rows[index[(m - 1, i2, j)]][col] -= sign * val
        return rows, len(src), len(dst)

    dk, srck, _ = d_matrix(k=n)
    dprev, srcprev, _ = d_matrix(k=n - 1)
    rank_n = dense_rank(dk) if dk else 0
    rank_prev = dense_rank(dprev) if dprev else 0
    return (srck - rank_n) - rank_prev


def test_criterion_9_point_category_oracle():
    started = time.monotonic()
    pt = point_category()
    rng = random.Random(123)
    for _ in range(100):
        x = random_twisted_complex(pt, rng, max_terms=4)
        y = random_twisted_complex(pt, rng, max_terms=4)
        vx = classical_complex_from_twisted(x)
        vy = classical_complex_from_twisted(y)
        for n in range(-3, 4):
            assert ho_hom(x, y, n) == classical_hom_cohomology(vx, vy, n), (x, y, n)
    report(9, "point-category ho_hom equals the brute-force classical oracle on 100 instances", started, 30)
