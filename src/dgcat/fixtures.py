"""Shipped fixture categories and documents used by the acceptance suite:
the point category, the square-zero epsilon algebra, A_2, the Kronecker
quiver (P^1 model), the Beilinson quiver B_3 (P^2 model), their tensor
products, the canonical SOD claims, the A_2 Serre bundle, and the motivic
ledger."""

from __future__ import annotations

from .dgcore import Arrow, from_quiver, tensor
from .exactlin import QQ, Matrix
from .pretr import embed, cone
from . import pretr, sodgen


def point_category(field=QQ):
    return from_quiver(field, ["pt"], [])


def epsilon_category(field=QQ, degree=1):
    """One object, End = k[e]/e^2 with deg(e) = degree, d = 0."""
    return from_quiver(field, ["*"], [Arrow("e", "*", "*", degree)], [[(1, ["e", "e"])]])


def a2_category(field=QQ):
    """Two objects u -> v with one arrow."""
    return from_quiver(field, ["u", "v"], [Arrow("a", "u", "v")])


def kronecker_category(field=QQ):
    """The Kronecker quiver: e1 => e2 with two parallel arrows (P^1 model)."""
    return from_quiver(field, ["e1", "e2"], [Arrow("a", "e1", "e2"), Arrow("b", "e1", "e2")])


def beilinson3_category(field=QQ):
    """The Beilinson quiver for P^2: three vertices, arrows x_i then y_j with
    the commutativity relations y_i x_j = y_j x_i."""
    arrows = [Arrow(f"x{i}", "v1", "v2") for i in range(3)] + [Arrow(f"y{i}", "v2", "v3") for i in range(3)]
    relations = []
    for i in range(3):
        for j in range(i + 1, 3):
            relations.append([(1, [f"x{j}", f"y{i}"]), (-1, [f"x{i}", f"y{j}"])])
    return from_quiver(field, ["v1", "v2", "v3"], arrows, relations)


def kronecker_ev_morphism(cat):
    """The evaluation map e1 + e1 -> e2 built from the two arrows."""
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    src = pretr.direct_sum(embed(cat, e1), embed(cat, e1))
    dst = embed(cat, e2)
    a = cat.basis_morphism(e1, e2, 0, cat.hom(e1, e2).names[0].index("a"))
    b = cat.basis_morphism(e1, e2, 0, cat.hom(e1, e2).names[0].index("b"))
    return pretr.TwistedMorphism(src, dst, 0, {(0, 0): a, (0, 1): b})


def tensor_object_order(t):
    """Objects of a tensor category in lexicographic (exceptional) order."""
    return list(t.objects)


def kronecker_sod_claim(cat):
    return sodgen.exceptional_sod_claim(cat, [cat.obj("e1"), cat.obj("e2")])


def broken_kronecker_sod_claim(cat):
    """The Kronecker claim with one cut witness, for e2, built on the zero
    morphism u: e2 -> e2.  check_sod replays it: cone(0) = e2 + e2[1] is
    neither right-orthogonal to e2 nor generated over the early block."""
    claim = kronecker_sod_claim(cat)
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    late_cert = sodgen.leaf_certificate(cat, [e2], e2)
    u0 = pretr.zero_morphism(late_cert.target, embed(cat, e2))
    claim.admissibility[("e2", 1)] = sodgen.CutWitness(u0, late_cert, sodgen.zero_certificate(cat, [e1], cone(u0)))
    return claim


def beilinson_sod_claim(cat):
    return sodgen.exceptional_sod_claim(cat, [cat.obj("v1"), cat.obj("v2"), cat.obj("v3")])


def motivic_ledger(field=QQ, degree_bound=4):
    """The shipped geometric ledger: Beilinson relations for P^1 and P^2,
    verified product facts for P^1, and the classical projective-bundle and
    blowup formulas as [PAPER]-tagged external entries."""
    from .ptring import ClassExpr, Ledger, Provenance, SODProvenance, TensorProvenance

    pt = point_category(field)
    k2 = kronecker_category(field)
    b3 = beilinson3_category(field)
    k2k2 = tensor(k2, k2)
    k2b3 = tensor(k2, b3)

    led = Ledger(degree_bound=degree_bound, flavor="Gamma")
    led = led.register_generator("pt", pt, unit_alias=True)
    led = led.register_generator("P1", k2)
    led = led.register_generator("P2", b3)
    led = led.register_generator("P1xP1", k2k2)
    led = led.register_generator("P1xP2", k2b3)
    led = led.register_generator("BlP2pt")

    def sod_relation(label, cat, order):
        claim = sodgen.exceptional_sod_claim(cat, order)
        n = len(order)
        expr = ClassExpr.gen(label).sub(ClassExpr.unit(n))
        prov = Provenance(
            "verified-sod",
            payload=SODProvenance(label, claim, tuple(ClassExpr.unit() for _ in order), tuple("point" for _ in order)),
        )
        return expr, prov

    led = led.add_relation(*sod_relation("P1", k2, [k2.obj("e1"), k2.obj("e2")]))
    led = led.add_relation(*sod_relation("P2", b3, [b3.obj("v1"), b3.obj("v2"), b3.obj("v3")]))
    led = led.add_relation(*sod_relation("P1xP1", k2k2, tensor_object_order(k2k2)))
    led = led.add_relation(*sod_relation("P1xP2", k2b3, tensor_object_order(k2b3)))
    led = led.add_relation(
        ClassExpr.gen("P1xP1").sub(ClassExpr.gen("P1").scale(2)),
        Provenance("external-paper-fact", citation="projective bundle formula: a P^1-bundle class is twice the base class (here P(O+O) over P^1)"),
    )
    led = led.add_relation(
        ClassExpr.gen("BlP2pt").add(ClassExpr.unit()).sub(ClassExpr.gen("P2")).sub(ClassExpr.gen("P1")),
        Provenance("external-paper-fact", citation="Orlov blowup formula for a point on P^2: [Bl] + [pt] = [P^2] + [P^1]"),
    )

    led = led.add_product_fact(
        "P1", "P1", ClassExpr.gen("P1xP1"), Provenance("verified-tensor", payload=TensorProvenance("generator"))
    )
    led = led.add_product_fact(
        "P1", "P2", ClassExpr.gen("P1xP2"), Provenance("verified-tensor", payload=TensorProvenance("generator"))
    )

    point_sod = Provenance("verified-tensor", payload=TensorProvenance("point-sod"))
    led = led.add_product_fact("P1", "P1xP1", ClassExpr.unit(2 * 4), point_sod)
    led = led.add_product_fact("P1", "P1xP2", ClassExpr.unit(2 * 6), point_sod)
    led = led.add_product_fact(
        "P1",
        "BlP2pt",
        ClassExpr.gen("P1xP2").add(ClassExpr.gen("P1xP1")).sub(ClassExpr.gen("P1")),
        Provenance(
            "external-paper-fact",
            citation="product compatibility plus distributivity applied to the blowup decomposition of P^2 tensored with P^1",
        ),
    )
    return led


def a2_serre_data(field=QQ):
    """The Nakayama/Serre bundle for A_2: S(u) = embed(v), S(v) = cone(a),
    S(a) = the cone inclusion; trace pairings come with it.  Each Hom of
    A_2 is one-dimensional in degree 0, so each map of S is one column."""
    from .functors import base_to_tm, composition_trace_pairings, serre_data

    cat = a2_category(field)
    u, v = cat.obj("u"), cat.obj("v")
    a = cat.basis_morphism(u, v, 0, 0)
    z = cone(base_to_tm(cat, a))
    ev = embed(cat, v)
    s_basis = {(u, u): pretr.identity_morphism(ev), (u, v): pretr.TwistedMorphism(ev, z, 0, {(0, 0): cat.identity(v)}), (v, v): pretr.identity_morphism(z)}
    mor_images = {}
    for key, f in s_basis.items():
        hs = pretr.HomSpace(f.src, f.dst)
        mor_images[key] = {0: Matrix.from_columns(field, hs.complex.dim(0), [hs.to_vector(f)])}
    data = serre_data(cat, {u: ev, v: z}, mor_images)
    traces = {u: {0: field.one()}, v: {0: field.one()}}
    pairings = composition_trace_pairings(data, traces)
    return data, pairings
