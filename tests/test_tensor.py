"""`dgcore.tensor` against the materialising reference in tensor_reference.py:
the same Homs, identities, tables, Ext tables, SOD verdicts and documents,
with the table of each triple derived from the factors on its first read."""

import random

import pytest

from dgcat import ptring, schema
from dgcat.cli import write_fixture_documents
from dgcat.dgcore import DGCategory, TensorCategory, full_subcategory, tensor
from dgcat.exactlin import GF, QQ
from dgcat.fixtures import beilinson3_category, kronecker_category
from dgcat.sodgen import check_sod, exceptional_sod_claim, ext_table

import tensor_reference
from gens import product_outside_basis_category, random_category
from sod_reference import witnessed_exceptional_claim
from tensor_reference import plain
from test_dgcore import FAULTS, plant_fault

FIELDS = (QQ, GF(32003))


def _power(make, factors):
    """((f1 (x) f2) (x) f3) ... with `make` as the tensor construction."""
    t = factors[0]
    for f in factors[1:]:
        t = make(t, f)
    return t


def _models(field, rng):
    """(name, factor list) pairs: (P^1)^k for k = 2..4, P1xP2, P2xP2,
    (P^2)^3 and seeded random products."""
    k2, b3 = kronecker_category(field), beilinson3_category(field)
    models = [(f"(P1)^{k}", [k2] * k) for k in (2, 3, 4)]
    models += [("P1xP2", [k2, b3]), ("P2xP2", [b3, b3]), ("(P2)^3", [b3, b3, b3])]
    models += [(f"random {s}", [random_category(rng, field), random_category(rng, field)]) for s in range(6)]
    return models


def _is_built_lazily(t):
    """A tensor category none of whose tables has been read yet."""
    return type(t) is TensorCategory and not t.comp


def _same_homs_and_ids(t, r):
    assert t.objects == r.objects and t.pair_map == r.pair_map and t.pair_rev == r.pair_rev
    assert t.homs.keys() == r.homs.keys()
    for key, h in r.homs.items():
        assert t.homs[key].complex == h.complex and t.homs[key].names == h.names, key
    assert {o: (m.src, m.dst, m.degree, m.coords) for o, m in t.ids.items()} == {o: (m.src, m.dst, m.degree, m.coords) for o, m in r.ids.items()}


def _same_tables(t, r):
    """The same table on every triple a caller can look up, with the shared
    one() at the same places, then the same nonempty tables."""
    one = t.field.one()
    for x in t.objects:
        for y in t.objects:
            for z in t.objects:
                got, want = t.comp[(x, y, z)], r.comp[(x, y, z)]
                assert got == want, (x, y, z)
                assert {e: {k for k, v in cons.items() if v is one} for e, cons in got.items()} == {
                    e: {k for k, v in cons.items() if v is one} for e, cons in want.items()
                }
    assert t.every_table() == r.comp


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_tensor_matches_the_materialising_reference(field):
    rng = random.Random(12)
    for name, factors in _models(field, rng):
        t, r = _power(tensor, factors), _power(tensor_reference.tensor, factors)
        assert _is_built_lazily(t), name
        _same_homs_and_ids(t, r)
        assert ext_table(t, t.objects) == ext_table(r, r.objects), name
        order = list(t.objects)
        rng.shuffle(order)
        for claim in (exceptional_sod_claim(t, t.objects), exceptional_sod_claim(t, order)):
            assert check_sod(t, claim) == check_sod(r, claim), name
        # nothing so far has read a composition table
        assert _is_built_lazily(t), name
        if len(t.objects) <= 8:  # cut witnesses replay cones, which read the tables
            witnessed = check_sod(t, witnessed_exceptional_claim(t, t.objects))
            assert witnessed == check_sod(r, witnessed_exceptional_claim(r, r.objects)), name
        _same_tables(t, r)
        assert len(t.comp) == len(t.objects) ** 3  # every triple read once is kept
        doc = schema.dumps(schema.document("category", field, schema.category_to_json(t)))
        assert doc == schema.dumps(schema.document("category", field, schema.category_to_json(r))), name


def test_tables_outside_a_factor_basis_are_dropped_as_the_reference_drops_them():
    for field in FIELDS:
        c, d = product_outside_basis_category(field), kronecker_category(field)
        for t, r in ((tensor(c, d), tensor_reference.tensor(c, d)), (tensor(d, c), tensor_reference.tensor(d, c))):
            _same_homs_and_ids(t, r)
            _same_tables(t, r)


def test_the_koszul_sign_rule_holds_under_the_full_walk():
    """validate on a plain copy of the tables runs every axiom check: the
    derived tables of products of valid categories are DG categories."""
    rng = random.Random(5)
    for field in FIELDS:
        for name, factors in _models(field, rng):
            if len(factors) == 2 and all(len(f.objects) <= 3 for f in factors):
                t = _power(tensor, factors)
                assert plain(t).validate() == [], name


def test_validate_trusts_valid_factors_and_walks_invalid_ones_entry_for_entry():
    """With both factors valid, validate returns [] and leaves `comp`
    unbuilt.  With a faulted factor it gives the reference report of the
    materialised product, in order."""
    rng = random.Random(31)
    d = kronecker_category()
    faulted = 0
    for s in range(12):
        c = random_category(rng, field=QQ)
        t = tensor(c, d)
        assert t.validate() == [] and _is_built_lazily(t)
        for kind in FAULTS:
            bad = plant_fault(c, kind, rng)
            if bad is None or not bad.validate():
                continue
            for pair in ((bad, d), (d, bad)):
                got = [(v.axiom, v.where, v.detail) for v in tensor(*pair).validate()]
                want = [(v.axiom, v.where, v.detail) for v in plain(tensor_reference.tensor(*pair)).validate()]
                assert got == want, (s, kind)
                faulted += bool(got)
    assert faulted >= 12


def test_validate_of_a_nested_product_fills_no_table():
    """Timing-free guard: tensor(P^2, tensor(P^2, P^2)) validates from its
    factors, without building the composition tables of either product."""
    b3 = beilinson3_category()
    inner = tensor(b3, b3)
    t = tensor(b3, inner)
    assert t.validate() == []
    assert _is_built_lazily(t) and _is_built_lazily(inner)


def test_ledger_ingestion_calls_tensor_twice_and_builds_nothing_for_a_fact(tmp_path, monkeypatch):
    """Count guard: a parse of the shipped ledger calls tensor exactly twice,
    once per generator written as a tensor reference, and check_sod once per
    verified-sod relation, each on a registered category.  Its point-sod
    facts are decided from the factors' relations and build nothing."""
    paths = write_fixture_documents(str(tmp_path))
    with open(paths["motivic.ledger.json"], encoding="utf-8") as fh:
        text = fh.read()
    calls = []
    for module, name in ((schema, "tensor"), (ptring, "tensor"), (ptring, "check_sod")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name: calls.append((_name, a)) or _real(*a))
    _, _, led = schema.parse_document(text)
    g = {label: id(info.payload) for label, info in led.generators.items()}
    assert [(name, tuple(map(id, a[:2]))) for name, a in calls] == [
        ("tensor", (g["P1"], g["P1"])),
        ("tensor", (g["P1"], g["P2"])),
        *(("check_sod", (g[label], id(r.provenance.payload.claim))) for label, r in zip(("P1", "P2", "P1xP1", "P1xP2"), led.relations)),
    ]
    facts = {f.pair: (f.provenance.payload, f.value.format()) for f in led.facts.values() if f.provenance.kind == "verified-tensor"}
    assert facts == {
        ("P1", "P1"): (ptring.TensorProvenance("generator"), "[P1xP1]"),
        ("P1", "P2"): (ptring.TensorProvenance("generator"), "[P1xP2]"),
        ("P1", "P1xP1"): (ptring.TensorProvenance("point-sod"), "8*[pt]"),
        ("P1", "P1xP2"): (ptring.TensorProvenance("point-sod"), "12*[pt]"),
    }


def test_a_tensor_category_builds_a_table_on_its_first_read_and_keeps_it():
    """`comp` starts empty.  A read builds the table of its triple alone and
    keeps it, the empty table of a triple with no products too, and a later
    read returns the same object; `every_table` then builds the rest."""
    t = tensor(kronecker_category(), kronecker_category())
    r = tensor_reference.tensor(kronecker_category(), kronecker_category())
    assert isinstance(t, DGCategory) and [len(f.objects) for f in t.factors] == [2, 2]
    assert not t.comp
    key, back = (t.objects[0], t.objects[1], t.objects[3]), (t.objects[3], t.objects[1], t.objects[0])
    table = t.comp[key]
    assert table == r.comp[key] and list(t.comp) == [key] and t.comp[key] is table
    assert t.comp[back] == {} and list(t.comp) == [key, back]
    assert t.every_table() == r.comp and len(t.comp) == 4**3
    assert t.validate() == []


def test_one_product_on_a_fresh_product_of_sixteen_objects_builds_one_table():
    """Count guard: one `mul` on a fresh (P^1)^4 builds the table of its own
    triple and, in each nested factor, the one table that triple reads."""
    k2 = kronecker_category()
    levels = [tensor(k2, k2)]
    for _ in range(2):
        levels.append(tensor(levels[-1], k2))
    t = levels[-1]
    assert len(t.objects) == 16
    f = t.basis_morphism(t.objects[0], t.objects[1], 0, 0)
    g = t.basis_morphism(t.objects[1], t.objects[15], 0, 0)
    assert not t.mul(f, g).is_zero()
    assert [len(c.comp) for c in levels] == [1, 1, 1]
    r = tensor_reference.tensor(tensor_reference.tensor(tensor_reference.tensor(k2, k2), k2), k2)
    assert t.mul(f, g) == r.mul(f, g)


def test_a_full_subcategory_on_one_object_of_a_product_builds_one_table():
    """Count guard: every table of the full subcategory on one object of
    P^2 (x) P^2 is read (as its document and a structural comparison read
    them), and the product builds the one table of that object's triple."""
    b3 = beilinson3_category()
    t = tensor(b3, b3)
    o = t.objects[4]
    sub = full_subcategory(t, [o])
    doc = schema.category_to_json(sub)
    assert list(t.comp) == [(o, o, o)] and list(sub.comp) == [(o, o, o)]
    assert list(doc["comp"]) == [f"{o.label}|{o.label}|{o.label}"]
    assert ptring.categories_structurally_equal(sub, full_subcategory(tensor_reference.tensor(b3, b3), [o]))
