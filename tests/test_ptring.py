import random
from collections import Counter

import pytest

from dgcat.cli import write_fixture_documents
from dgcat.dgcore import tensor
from dgcat import exactlin, ptring, schema
from dgcat.fixtures import (
    a2_category,
    broken_kronecker_sod_claim,
    kronecker_category,
    kronecker_sod_claim,
    motivic_ledger,
    point_category,
    tensor_object_order,
)
from dgcat.functors import check_quasi_equiv
from dgcat.ptring import (
    ClassExpr,
    Ledger,
    Provenance,
    ProvenanceError,
    SODProvenance,
    TensorProvenance,
    point_equivalence_certificate,
)
from dgcat.sodgen import exceptional_sod_claim

from ring_reference import reference
from sod_reference import witnessed_exceptional_claim


def test_class_expr_algebra_and_parse():
    e = ClassExpr.parse("2*[pt] + [P1]*[P1] - 3*[X]")
    assert e.terms == {(): 2, ("P1", "P1"): 1, ("X",): -3}
    assert ClassExpr.parse(e.format()) == e
    assert e.sub(e).is_zero()
    assert ClassExpr.gen("a").mul(ClassExpr.gen("b")).terms == {("a", "b"): 1}


def small_ledger():
    led = Ledger(degree_bound=4)
    pt = point_category()
    k2 = kronecker_category()
    led = led.register_generator("pt", pt, unit_alias=True)
    led = led.register_generator("P1", k2)
    claim = kronecker_sod_claim(k2)
    prov = Provenance(
        "verified-sod",
        payload=SODProvenance("P1", claim, (ClassExpr.unit(), ClassExpr.unit()), ("point", "point")),
    )
    return led.add_relation(ClassExpr.gen("P1").sub(ClassExpr.unit(2)), prov)


def test_verified_sod_relation_ingestion():
    led = small_ledger()
    assert led.eq(ClassExpr.gen("P1"), ClassExpr.unit(2)) == "equal"
    assert led.eq(ClassExpr.gen("P1"), ClassExpr.unit(3)) == "unequal_within_bound"


def test_claims_with_witnesses_are_still_ingested_and_stored():
    """Relations and point-sod facts whose claims carry every cut witness,
    as ledgers stored them before witnesses became optional, verify, and a
    ledger document holding them parses and writes back to the same bytes."""
    from dgcat import schema

    k2 = kronecker_category()
    t = tensor(k2, k2)
    led = Ledger().register_generator("pt", point_category(), unit_alias=True).register_generator("P1", k2)
    claim = witnessed_exceptional_claim(k2, k2.objects)
    assert len(claim.admissibility) == 2
    led = led.add_relation(
        ClassExpr.gen("P1").sub(ClassExpr.unit(2)),
        Provenance("verified-sod", payload=SODProvenance("P1", claim, (ClassExpr.unit(),) * 2, ("point",) * 2)),
    )
    fact = TensorProvenance("point-sod", claim=witnessed_exceptional_claim(t, t.objects), category=t)
    led = led.add_product_fact("P1", "P1", ClassExpr.unit(4), Provenance("verified-tensor", payload=fact))
    assert led.eq(ClassExpr.parse("[P1]*[P1]"), ClassExpr.unit(4)) == "equal"
    text = schema.dumps(schema.document("ledger", k2.field, schema.ledger_to_json(led, k2.field)))
    kind, field, led2 = schema.parse_document(text)
    assert [len(r.provenance.payload.claim.admissibility) for r in led2.relations] == [2]
    assert len(led2.facts[("P1", "P1")].provenance.payload.claim.admissibility) == 12
    assert schema.dumps(schema.document(kind, field, schema.ledger_to_json(led2, field))) == text


def test_broken_sod_rejected_at_ingestion():
    led = Ledger()
    k2 = kronecker_category()
    led = led.register_generator("pt", point_category(), unit_alias=True)
    led = led.register_generator("P1", k2)
    claim = broken_kronecker_sod_claim(k2)
    prov = Provenance(
        "verified-sod",
        payload=SODProvenance("P1", claim, (ClassExpr.unit(), ClassExpr.unit()), ("point", "point")),
    )
    with pytest.raises(ProvenanceError):
        led.add_relation(ClassExpr.gen("P1").sub(ClassExpr.unit(2)), prov)


def test_a_one_block_claim_that_misses_a_generator_is_refused():
    """[P1] = [pt] from the one block {e1} of the Kronecker category: e2
    lies in no block, so its witness is required and missing."""
    from dgcat.sodgen import SODClaim

    k2 = kronecker_category()
    led = Ledger().register_generator("pt", point_category(), unit_alias=True).register_generator("P1", k2)
    prov = Provenance("verified-sod", payload=SODProvenance("P1", SODClaim(tuple(k2.objects), ((k2.obj("e1"),),), {}), (ClassExpr.unit(),), ("point",)))
    with pytest.raises(ProvenanceError, match="cut_witness_present"):
        led.add_relation(ClassExpr.gen("P1").sub(ClassExpr.unit()), prov)


def test_paper_fact_requires_citation_and_is_tagged():
    led = Ledger().register_generator("E").register_generator("Z")
    with pytest.raises(ProvenanceError):
        led.add_relation(ClassExpr.gen("E").sub(ClassExpr.gen("Z").scale(3)), Provenance("external-paper-fact"))
    led = led.add_relation(
        ClassExpr.gen("E").sub(ClassExpr.gen("Z").scale(3)),
        Provenance("external-paper-fact", citation="projective bundle formula"),
    )
    rep = led.eq_report(ClassExpr.gen("E"), ClassExpr.gen("Z").scale(3))
    assert rep["verdict"] == "equal"
    assert rep["relations"][0]["tag"] == "[PAPER]"


def test_eq_missing_fact_unknown():
    led = small_ledger()
    p1sq = ClassExpr.gen("P1").mul(ClassExpr.gen("P1"))
    assert led.eq(p1sq, ClassExpr.unit(4)) == "unknown"
    assert led.eq(p1sq, p1sq) == "equal"  # exact-zero difference stays equal


def test_eq_with_product_fact():
    led = small_ledger()
    k2 = kronecker_category()
    t = tensor(k2, k2)
    led = led.register_generator("P1xP1", t)
    claim = exceptional_sod_claim(t, tensor_object_order(t))
    led = led.add_relation(
        ClassExpr.gen("P1xP1").sub(ClassExpr.unit(4)),
        Provenance("verified-sod", payload=SODProvenance("P1xP1", claim, tuple(ClassExpr.unit() for _ in range(4)), tuple("point" for _ in range(4)))),
    )
    led = led.add_product_fact("P1", "P1", ClassExpr.gen("P1xP1"), Provenance("verified-tensor", payload=TensorProvenance("generator")))
    assert led.eq(ClassExpr.gen("P1").mul(ClassExpr.gen("P1")), ClassExpr.unit(4)) == "equal"


def test_unit_law_facts_automatic():
    led = small_ledger()
    # [pt] * x = x needs no fact table entry
    assert led.eq(ClassExpr.parse("[pt]*[P1]"), ClassExpr.gen("P1")) == "equal"


def test_conflicting_fact_rejected():
    led = small_ledger()
    led2 = led.register_generator("A").register_generator("B")
    led2 = led2.add_product_fact("A", "B", ClassExpr.unit(1), Provenance("external-paper-fact", citation="x"))
    with pytest.raises(ProvenanceError):
        led2.add_product_fact("A", "B", ClassExpr.unit(2), Provenance("external-paper-fact", citation="y"))
    # re-adding a provably equal fact is accepted (idempotent)
    led3 = led2.add_product_fact("B", "A", ClassExpr.unit(1), Provenance("external-paper-fact", citation="x"))
    assert led3.version > led2.version


def test_group_invariants_examples():
    led = Ledger(degree_bound=1).register_generator("g")
    assert led.group_invariants() == (2, [])  # unit monomial + g
    led2 = small_ledger()
    led2.degree_bound = 1
    assert led2.group_invariants() == (1, [])
    led3 = Ledger(degree_bound=1).register_generator("g")
    led3 = led3.add_relation(ClassExpr.gen("g").scale(2), Provenance("external-paper-fact", citation="forced"))
    rank, torsion = led3.group_invariants()
    assert rank == 1 and torsion == [2]


def test_motivic_ledger_measure():
    led = motivic_ledger()
    rep = led.derive_measure_check()
    assert rep["pass"], rep
    assert set(rep["checks"].values()) == {"equal"}
    # dataset missing a product fact -> unknown, reported
    led2 = motivic_ledger()
    led2.facts = {k: v for k, v in led2.facts.items() if k != ("BlP2pt", "P1")}
    led2._sat_cache.clear()
    rep2 = led2.derive_measure_check()
    assert not rep2["pass"]
    assert rep2["checks"]["BlP2pt"] == "unknown"


def test_saturated_rows_follow_the_degree_bound():
    led = motivic_ledger()
    _, rows4 = led.saturated_rows()
    led.degree_bound = 1
    _, rows1 = led.saturated_rows()
    assert rows1 == motivic_ledger(degree_bound=1).saturated_rows()[1]
    led.degree_bound = 4
    assert led.saturated_rows()[1] == rows4


def test_eq_congruence_on_motivic_ledger():
    led = motivic_ledger()
    a = ClassExpr.gen("P1")
    b = ClassExpr.unit(2)
    c = ClassExpr.gen("P2")
    d = ClassExpr.unit(3)
    assert led.eq(a, b) == led.eq(c, d) == "equal"
    assert led.eq(a.add(c), b.add(d)) == "equal"
    assert led.eq(a.mul(c), b.mul(d)) in ("equal", "unknown")
    assert led.eq(a.mul(c), b.mul(d)) == "equal"  # fact (P1,P2) registered


def test_eq_commutative():
    led = motivic_ledger()
    ab = ClassExpr.parse("[P1]*[P2]")
    ba = ClassExpr.parse("[P2]*[P1]")
    assert led.eq(ab, ba) == "equal"


def test_block_point_equivalences():
    k2 = kronecker_category()
    pt = point_category()
    for label in ("e1", "e2"):
        cert = point_equivalence_certificate(k2, k2.obj(label), pt)
        assert check_quasi_equiv(cert).ok


def test_product_admissibility_semantic_check():
    """The Kronecker SOD tensored with the point category passes as an SOD
    claim on K2 (x) pt -- the product-admissibility obligations, run not
    assumed."""
    from dgcat.sodgen import check_sod

    k2 = kronecker_category()
    pt = point_category()
    t = tensor(k2, pt)
    claim = exceptional_sod_claim(t, tensor_object_order(t))
    assert check_sod(t, claim).ok


def test_beta_report_and_gamma_flavor():
    led = motivic_ledger()
    assert led.flavor == "Gamma"
    rep = led.beta_report()
    assert rep["from"] == "Gamma" and rep["to"] == "PT"
    with pytest.raises(ValueError):
        led.register_generator("weird", geometric=False)


def test_group_invariants_empty_ledger_rank_zero():
    assert Ledger().group_invariants() == (0, [])


def test_degenerate_category_is_legal_zero_class():
    from dgcat.dgcore import from_quiver
    from dgcat.exactlin import QQ

    empty_cat = from_quiver(QQ, [], [])
    assert empty_cat.validate() == []
    assert len(empty_cat.objects) == 0
    # the zero class is the empty expression
    assert ClassExpr().is_zero()


def test_motivic_pipeline_over_fp():
    """The whole verified pipeline also runs over F_101."""
    from dgcat.exactlin import GF
    from dgcat.fixtures import kronecker_category as kc, kronecker_sod_claim as ksc, motivic_ledger as ml
    from dgcat.sodgen import check_sod as cs

    f = GF(101)
    cat = kc(f)
    assert cs(cat, ksc(cat)).ok
    led = ml(f)
    rep = led.derive_measure_check()
    assert rep["pass"]


def test_point_sod_fact_reuses_or_compares_the_tensor_category(monkeypatch):
    k2, pt = kronecker_category(), point_category()
    led = Ledger().register_generator("A", k2).register_generator("B", pt)
    built = []
    real = ptring.tensor
    monkeypatch.setattr(ptring, "tensor", lambda c, d: built.append((c, d)) or real(c, d))

    def fact(t):
        claim = exceptional_sod_claim(t, tensor_object_order(t))
        prov = Provenance("verified-tensor", payload=TensorProvenance("point-sod", claim=claim, category=t))
        return led.add_product_fact("A", "B", ClassExpr.unit(len(t.objects)), prov)

    # built by tensor() from the registered payloads: used as it is
    assert fact(tensor(k2, pt)).eq(ClassExpr.parse("[A]*[B]"), ClassExpr.unit(2)) == "equal"
    assert built == []
    # equal in content but over other instances: built again and compared
    assert fact(tensor(kronecker_category(), point_category())).eq(ClassExpr.parse("[A]*[B]"), ClassExpr.unit(2)) == "equal"
    assert built == [(k2, pt)]
    # over another category: the comparison rejects it
    with pytest.raises(ProvenanceError, match="claim category does not match the tensor category"):
        fact(tensor(k2, a2_category()))


def test_point_sod_fact_counts_points_not_blocks():
    """A point-sod fact must decompose the whole tensor category into
    single objects: a one-block claim over the 4 objects of tensor(K2, K2)
    (once accepted as [P1]*[P1] = [pt]), a claim whose ambient generators
    omit an object or list one twice, and a claim with a two-object block
    are all rejected; the exceptional claim is still accepted."""
    from dgcat.sodgen import SODClaim

    k2 = kronecker_category()
    t = tensor(k2, k2)
    led = Ledger().register_generator("pt", point_category(), unit_alias=True).register_generator("P1", k2)
    o = list(t.objects)

    def fact(claim):
        prov = Provenance("verified-tensor", payload=TensorProvenance("point-sod", claim=claim, category=t))
        return led.add_product_fact("P1", "P1", ClassExpr.unit(len(claim.blocks)), prov)

    assert fact(exceptional_sod_claim(t, o)).eq(ClassExpr.parse("[P1]*[P1]"), ClassExpr.unit(4)) == "equal"
    with pytest.raises(ProvenanceError, match="every block of a point-sod claim must be a single object"):
        fact(SODClaim(tuple(o), (tuple(o),), {}))
    with pytest.raises(ProvenanceError, match="every block of a point-sod claim must be a single object"):
        fact(SODClaim(tuple(o), ((o[0],), (o[1], o[2]), (o[3],)), {}))
    with pytest.raises(ProvenanceError, match="must list every object of the tensor category once"):
        fact(exceptional_sod_claim(t, o[:3]))
    with pytest.raises(ProvenanceError, match="must list every object of the tensor category once"):
        fact(SODClaim(tuple(o) + (o[0],), tuple((x,) for x in o), {}))


def test_generator_fact_reuses_or_compares_the_tensor_category(monkeypatch):
    k2, pt = kronecker_category(), point_category()
    built = []
    real = ptring.tensor
    monkeypatch.setattr(ptring, "tensor", lambda c, d: built.append((c, d)) or real(c, d))

    def fact(t):
        led = Ledger().register_generator("A", k2).register_generator("B", pt).register_generator("AB", t)
        prov = Provenance("verified-tensor", payload=TensorProvenance("generator"))
        return led.add_product_fact("A", "B", ClassExpr.gen("AB"), prov)

    # built by tensor() from the registered payloads: used as it is
    assert fact(real(k2, pt)).eq(ClassExpr.parse("[A]*[B]"), ClassExpr.gen("AB")) == "equal"
    assert built == []
    # equal in content but over other instances: built again and compared
    assert fact(real(kronecker_category(), point_category())).eq(ClassExpr.parse("[A]*[B]"), ClassExpr.gen("AB")) == "equal"
    assert built == [(k2, pt)]
    # over another category: the comparison rejects it
    with pytest.raises(ProvenanceError, match="tensor category does not match the value generator's category"):
        fact(real(k2, a2_category()))


def test_resolve_aliases_returns_alias_free_input_unchanged():
    led = small_ledger()
    plain = ClassExpr.parse("2*[P1]*[P1] - [P1]")
    assert led._resolve_aliases(plain) is plain
    pt = ClassExpr.gen("pt")
    aliased = pt.mul(ClassExpr.gen("P1")).scale(3).add(pt)
    assert led._resolve_aliases(aliased) == ClassExpr.gen("P1").scale(3).add(ClassExpr.unit())
    for expr in (ClassExpr.parse("[P1]*[Q]"), pt.mul(ClassExpr.gen("Q"))):
        with pytest.raises(KeyError, match="unregistered generator 'Q'"):
            led._resolve_aliases(expr)


def random_ring_ledger(rng, bound):
    """A seeded ledger of paper-tagged relations and facts: 2-5 generators
    (P1 among them), 0-2 unit aliases used in relations and fact values,
    relations of degree 0-3, and facts on most pairs whose values mix the
    unit and several generators."""
    led = Ledger(degree_bound=bound)
    labels = ["P1"] + [f"g{i}" for i in range(rng.randrange(1, 5))]
    aliases = [f"u{i}" for i in range(rng.randrange(0, 3))]
    for lbl in labels:
        led = led.register_generator(lbl)
    for lbl in aliases:
        led = led.register_generator(lbl, unit_alias=True)
    every = labels + aliases

    def expr(max_deg):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            m = tuple(rng.choice(every) for _ in range(rng.randrange(0, max_deg + 1)))
            terms[m] = terms.get(m, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
        return ClassExpr(terms)

    for _ in range(rng.randrange(1, 5)):
        led = led.add_relation(expr(rng.choice((0, 1, 1, 2, 3))), Provenance("external-paper-fact", "seeded relation"))
    for i, a in enumerate(labels):
        for b in labels[i:]:
            if rng.random() < 0.7:
                led = led.add_product_fact(a, b, expr(1), Provenance("external-paper-fact", "seeded fact"))
    return led, expr


def test_ring_normal_forms_match_the_reference():
    """Rows (in order), normal forms, eq, group invariants and the measure
    check agree with the ClassExpr-based reference, on the shipped ledger
    and on seeded ledgers, at every bound 0-5.  The reference decides eq
    by Smith-form membership and reads the invariants off the Smith form of
    all rows, so the Hermite basis is checked against both, torsion cases
    included."""
    for bound in range(6):
        led = motivic_ledger(degree_bound=bound)
        assert led.saturated_rows() == reference(led).saturated_rows()
    rng = random.Random(1313)
    rows_seen = torsion_seen = 0
    for trial in range(60):
        led, expr = random_ring_ledger(rng, trial % 6)
        ref = reference(led)
        assert led.saturated_rows() == ref.saturated_rows()
        rows_seen += len(led.saturated_rows()[1])
        assert led.group_invariants() == ref.group_invariants()
        torsion_seen += bool(ref.group_invariants()[1])
        assert led.derive_measure_check() == ref.derive_measure_check()
        for _ in range(6):
            lhs, rhs = expr(led.degree_bound + 1), expr(2)
            assert led.normalize(lhs) == ref.normalize(lhs)
            assert led.eq(lhs, rhs) == ref.eq(lhs, rhs)
    assert rows_seen > 300 and torsion_seen >= 5


def test_ring_commands_build_one_lattice_basis_and_no_cohomology(tmp_path, monkeypatch):
    """Timing-free guard: ingesting the shipped ledger builds no cohomology
    basis and takes no Smith form; the measure check builds the lattice
    basis once for all its eq calls; clearing the cache drops the basis."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(exactlin.Cohomology, "__init__", counted("cohomology", exactlin.Cohomology.__init__))
    monkeypatch.setattr(exactlin, "smith_normal_form", counted("snf", exactlin.smith_normal_form))
    monkeypatch.setattr(ptring, "smith_normal_form", counted("snf", ptring.smith_normal_form))
    monkeypatch.setattr(ptring, "lattice_basis", counted("basis", ptring.lattice_basis))
    paths = write_fixture_documents(str(tmp_path))
    counts.clear()
    with open(paths["motivic.ledger.json"], encoding="utf-8") as fh:
        _, _, led = schema.parse_document(fh.read())
    assert counts == {}
    rep = led.derive_measure_check()
    assert rep["pass"] and len(rep["checks"]) > 1
    assert counts == {"basis": 1}
    assert led.group_invariants() == (1, [])
    assert counts == {"basis": 1, "snf": 1}
    led._sat_cache.clear()
    assert led.eq(ClassExpr.gen("P1"), ClassExpr.unit(2)) == "equal"
    assert counts == {"basis": 2, "snf": 1}


def test_parsing_the_shipped_ledger_builds_and_compares_no_tensor_category(tmp_path, monkeypatch):
    """The shipped ledger names P1xP1 and P1xP2 as tensor references, so both
    generator-mode facts hold by construction: a parse calls neither
    ptring.tensor nor categories_structurally_equal.  The same ledger with
    the products written as full bodies rebuilds and compares both."""
    from ledger_docs import with_explicit_bodies

    counts = Counter()
    for name in ("tensor", "categories_structurally_equal"):
        real = getattr(ptring, name)
        monkeypatch.setattr(ptring, name, lambda *a, _real=real, _name=name: counts.update([_name]) or _real(*a))
    paths = write_fixture_documents(str(tmp_path))
    with open(paths["motivic.ledger.json"], encoding="utf-8") as fh:
        text = fh.read()
    counts.clear()
    _, _, led = schema.parse_document(text)
    assert counts == {}
    assert led.eq(ClassExpr.parse("[P1]*[P2]"), ClassExpr.unit(6)) == "equal"
    explicit = with_explicit_bodies(text)
    counts.clear()
    schema.parse_document(explicit)
    assert counts == {"tensor": 2, "categories_structurally_equal": 2}


def test_ledger_documents_name_products_of_registered_payloads_as_references():
    """ledger_to_json writes {"tensor": [a, b]} exactly when tensor() built
    the payload from two registered payloads, naming a payload registered
    twice by its first label in sorted order; a nested reference that sorts
    before its factors resolves, and the parse re-writes byte for byte with
    each reference built over the parsed factors."""
    k2, pt = kronecker_category(), point_category()
    kp = tensor(k2, pt)
    led = Ledger()
    for label, payload in (("L", k2), ("K", k2), ("pt", pt), ("KxP", kp), ("AAA", tensor(kp, k2)), ("M", tensor(kronecker_category(), pt))):
        led = led.register_generator(label, payload)
    body = schema.ledger_to_json(led, k2.field)
    cats = {g["label"]: g["category"] for g in body["generators"]}
    assert cats["KxP"] == {"tensor": ["K", "pt"]} and cats["AAA"] == {"tensor": ["KxP", "K"]}
    assert cats["M"] == schema.category_to_json(led.generators["M"].payload)
    assert cats["K"] == cats["L"] == schema.category_to_json(k2)
    text = schema.dumps(schema.document("ledger", k2.field, body))
    kind, field, led2 = schema.parse_document(text)
    assert schema.dumps(schema.document(kind, field, schema.ledger_to_json(led2, field))) == text
    g = {label: info.payload for label, info in led2.generators.items()}
    assert g["AAA"].factors[0] is g["KxP"] and g["AAA"].factors[1] is g["K"] and g["KxP"].factors == (g["K"], g["pt"])
    assert g["K"] is not g["L"] and ptring.categories_structurally_equal(g["AAA"], tensor(kp, k2))
