import json
import os

import pytest

from dgcat.cli import main, write_fixture_documents
from dgcat import schema


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    write_fixture_documents(str(d))
    return d


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timing(text):
    rep = json.loads(text)
    rep.pop("timing_ms", None)
    return rep


def test_round_trip_byte_identical(fixture_dir):
    for name in sorted(os.listdir(fixture_dir)):
        path = fixture_dir / name
        text = path.read_text()
        kind, field, payload = schema.parse_document(text)
        if kind == "category":
            body = schema.category_to_json(payload)
        elif kind == "twisted-complex":
            cat, cs, ms, ks = payload
            body = schema.tc_bundle_to_json(cat, cs, ms, ks)
        elif kind == "sod-claim":
            cat, claim = payload
            body = schema.sod_claim_to_json(cat, claim)
        elif kind == "equiv-certificate":
            body = schema.equiv_cert_to_json(payload)
        elif kind == "ledger":
            body = schema.ledger_to_json(payload, field)
        elif kind == "functor":
            body = schema.functor_to_json(payload)
        elif kind == "gen-certificate":
            cat, cert = payload
            body = schema.gencert_to_json(cat, cert)
        else:
            continue
        assert schema.dumps(schema.document(kind, field, body)) == text, name


def test_validate_category_exit0(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "validate", str(fixture_dir / "kronecker.category.json"))
    assert code == 0
    rep = strip_timing(out)
    assert all(v["ok"] for v in rep["verdicts"])


def test_validate_broken_document_exit1(fixture_dir, tmp_path, capsys):
    text = (fixture_dir / "kronecker.category.json").read_text()
    doc = json.loads(text)
    # break d^2 = 0 by injecting a bogus differential on Hom(e1,e2)
    doc["body"]["homs"]["e1|e2"]["complex"]["dims"]["1"] = 2
    doc["body"]["homs"]["e1|e2"]["complex"]["dims"]["2"] = 1
    doc["body"]["homs"]["e1|e2"]["complex"]["diff"] = {
        "0": {"rows": 2, "cols": 2, "entries": [[0, 0, "1"], [1, 1, "1"]]},
        "1": {"rows": 1, "cols": 2, "entries": [[0, 0, "1"]]},
    }
    doc["body"]["homs"]["e1|e2"]["names"]["1"] = ["t0", "t1"]
    doc["body"]["homs"]["e1|e2"]["names"]["2"] = ["s0"]
    bad = tmp_path / "bad.category.json"
    bad.write_text(schema.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    rep = strip_timing(out)
    assert any("d_squared" in v["name"] for v in rep["verdicts"])


def test_validate_malformed_exit2(tmp_path, capsys):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    code, out, err = run_cli(capsys, "validate", str(p))
    assert code == 2


def test_ext_kronecker(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "ext", str(fixture_dir / "kronecker.category.json"))
    assert code == 0
    rep = strip_timing(out)
    rows = rep["tables"]["ext"]
    assert rows[1][1] == '{"0": 1}' and rows[1][2] == '{"0": 2}'
    assert rows[2][1] == "{}"


def test_ext_unknown_object(fixture_dir, capsys):
    code, out, err = run_cli(capsys, "ext", str(fixture_dir / "kronecker.category.json"), "--objects", "bogus")
    assert code == 2


def test_check_sod_pass_fail(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "check-sod", str(fixture_dir / "kronecker.sod-claim.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "check-sod", str(fixture_dir / "kronecker_broken.sod-claim.json"))
    assert code == 1
    code, out, _ = run_cli(capsys, "check-sod", str(fixture_dir / "kronecker_squared.sod-claim.json"))
    assert code == 0


def test_ring_eq_and_measure(fixture_dir, capsys):
    ledger = str(fixture_dir / "motivic.ledger.json")
    code, out, _ = run_cli(capsys, "ring", ledger, "eq", "[P1]*[P1]", "4*[pt]")
    assert code == 0
    rep = strip_timing(out)
    assert rep["verdicts"][0]["detail"] == "equal"
    assert any("[PAPER]" in p for p in rep["provenance"])
    code, out, _ = run_cli(capsys, "ring", ledger, "eq", "[P1]", "3*[pt]")
    assert code == 1
    rep = strip_timing(out)
    assert rep["verdicts"][0]["detail"] == "unequal_within_bound"
    code, out, _ = run_cli(capsys, "ring", ledger, "measure")
    assert code == 0
    code, out, _ = run_cli(capsys, "ring", ledger, "invariants")
    assert code == 0


def test_ring_degree_bound_flag(fixture_dir, capsys):
    from dgcat.fixtures import motivic_ledger

    ledger = str(fixture_dir / "motivic.ledger.json")
    code, out, _ = run_cli(capsys, "ring", ledger, "invariants", "--degree-bound", "2")
    assert code == 0
    rank, torsion = motivic_ledger(degree_bound=2).group_invariants()
    assert strip_timing(out)["verdicts"][0]["detail"] == f"free rank {rank}, torsion {torsion}"
    # [P1]*[P1] has degree 2: under bound 1 it cannot be rewritten
    code, out, _ = run_cli(capsys, "ring", ledger, "eq", "[P1]*[P1]", "4*[pt]", "--degree-bound", "1")
    assert code == 1
    assert strip_timing(out)["verdicts"][0]["detail"] == "unknown"


def test_ring_relate_writes_new_version(fixture_dir, tmp_path, capsys):
    ledger = str(fixture_dir / "motivic.ledger.json")
    out_path = str(tmp_path / "new.ledger.json")
    code, out, _ = run_cli(
        capsys,
        "ring", ledger, "relate",
        "--expr", "[BlP2pt] - 4*[pt]",
        "--provenance", "external-paper-fact",
        "--citation", "derived blowup class",
        "--out", out_path,
    )
    assert code == 0
    kind, field, led2 = schema.parse_document(open(out_path).read())
    from dgcat.ptring import ClassExpr

    assert led2.eq(ClassExpr.gen("BlP2pt"), ClassExpr.unit(4)) == "equal"


@pytest.mark.parametrize("path", ("verified-sod", "external-paper-fact"))
def test_ring_relate_refuses_a_relation_that_reads_zero(path, fixture_dir, tmp_path, capsys):
    """A relation that reads 0 once the unit alias pt is resolved says
    nothing: the verified decomposition of pt into its one point block, or
    an external [P1] - [P1], exits 1 with a failed "relation ingestion"
    verdict and writes no ledger."""
    from dgcat.fixtures import point_category
    from dgcat.sodgen import exceptional_sod_claim

    if path == "verified-sod":
        pt = point_category()
        claim = tmp_path / "point.sod-claim.json"
        claim.write_text(schema.dumps(schema.document("sod-claim", "Q", schema.sod_claim_to_json(pt, exceptional_sod_claim(pt, list(pt.objects))))))
        how = ["--claim", str(claim), "--label", "pt"]
    else:
        how = ["--expr", "[P1] - [P1]", "--provenance", "external-paper-fact", "--citation", "x"]
    out_path = tmp_path / "never.ledger.json"
    code, out, _ = run_cli(capsys, "ring", str(fixture_dir / "motivic.ledger.json"), "relate", *how, "--out", str(out_path))
    (verdict,) = strip_timing(out)["verdicts"]
    assert code == 1 and verdict["name"] == "relation ingestion" and not verdict["ok"]
    assert "says nothing" in verdict["detail"] and not out_path.exists()


def test_ring_degree_bound_is_not_written(fixture_dir, tmp_path, capsys):
    ledger = str(fixture_dir / "motivic.ledger.json")
    stored = json.load(open(ledger))["body"]["degree_bound"]
    assert stored != 2
    out_path = str(tmp_path / "new.ledger.json")
    code, _, _ = run_cli(
        capsys,
        "ring", ledger, "relate",
        "--expr", "[BlP2pt] - 4*[pt]",
        "--citation", "derived blowup class",
        "--degree-bound", "2",
        "--out", out_path,
    )
    assert code == 0
    assert json.load(open(out_path))["body"]["degree_bound"] == stored


def test_cone_golden_and_reduce(fixture_dir, tmp_path, capsys):
    bundle = str(fixture_dir / "kronecker_ev.twisted-complex.json")
    code, out, _ = run_cli(capsys, "cone", bundle, "--morphism", "ev")
    assert code == 0
    rep = strip_timing(out)
    golden = os.path.join(os.path.dirname(__file__), "golden", "cone_ev.json")
    produced = json.dumps(rep["document"], sort_keys=True, separators=(",", ":")) + "\n"
    with open(golden) as fh:
        assert produced == fh.read()
    # reduce(cone_id) -> empty complex
    code, out, _ = run_cli(capsys, "reduce", bundle, "--complex", "cone_id_e1")
    assert code == 0
    rep = strip_timing(out)
    assert rep["document"]["body"]["complexes"]["reduced"]["terms"] == []


def test_determinism_modulo_timing(fixture_dir, capsys):
    ledger = str(fixture_dir / "motivic.ledger.json")
    _, out1, _ = run_cli(capsys, "ring", ledger, "measure")
    _, out2, _ = run_cli(capsys, "ring", ledger, "measure")
    assert strip_timing(out1) == strip_timing(out2)


def test_karoubi_command(fixture_dir, tmp_path, capsys):
    # build a document with an idempotent on e1 + e1
    from dgcat.fixtures import kronecker_category
    from dgcat import pretr

    k2 = kronecker_category()
    e1 = k2.obj("e1")
    x = pretr.direct_sum(pretr.embed(k2, e1), pretr.embed(k2, e1))
    e = pretr.TwistedMorphism(x, x, 0, {(0, 0): k2.identity(e1)})
    k = pretr.KaroubiObject(x, e, pretr.zero_morphism(x, x, -1))
    body = schema.tc_bundle_to_json(k2, idempotents={"proj": k})
    p = tmp_path / "karoubi.twisted-complex.json"
    p.write_text(schema.dumps(schema.document("twisted-complex", "Q", body)))
    code, out, _ = run_cli(capsys, "karoubi", str(p), "--a", "proj", "--degrees", "0..0")
    assert code == 0
    rep = strip_timing(out)
    assert rep["tables"]["karoubi_hom"][1] == [0, 1]


def test_check_qe_command(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "check-qe", str(fixture_dir / "kronecker_block_e1_point.equiv-certificate.json"))
    assert code == 0


def test_serre_command(capsys):
    code, out, _ = run_cli(capsys, "serre", "--fixture", "a2")
    assert code == 0
    code, out, _ = run_cli(capsys, "serre", "--fixture", "kronecker-identity")
    assert code == 1
    code, out, _ = run_cli(capsys, "serre", "--fixture", "point")
    assert code == 0


def test_serre_builds_one_hull_subcategory(capsys, monkeypatch):
    """serre --fixture a2 builds its hull subcategory once: the trace
    pairings and the verification share it.  Count guard: it builds the
    tables of the 12 triples it reads, of 64."""
    from dgcat import functors
    from dgcat.dgcore import Tables

    calls, reads = [], set()
    build = functors.hull_subcategory

    class Reads(Tables):  # records each triple read by subscript
        __slots__ = ()

        def __getitem__(self, key):
            reads.add(key)
            return super().__getitem__(key)

    def hull(*a):
        h = build(*a)
        h.comp = Reads(build=h.comp.build)
        calls.append(h)
        return h

    monkeypatch.setattr(functors, "hull_subcategory", hull)
    code, _, _ = run_cli(capsys, "serre", "--fixture", "a2")
    assert code == 0 and len(calls) == 1
    assert set(calls[0].comp) == reads and len(reads) == 12 and len(calls[0].objects) ** 3 == 64


def test_serre_makes_only_the_basis_morphisms_its_tables_read(capsys, monkeypatch):
    """The hull subcategory of serre --fixture a2 makes the basis twisted
    morphisms of a Hom when a table build first reads it: 11, the elements
    of the Homs its 12 tables compose, of the 19 of all its Homs."""
    from dgcat import pretr

    calls = []
    from_vector = pretr.HomSpace.from_vector

    def counted(self, *a):
        calls.append(a)
        return from_vector(self, *a)

    monkeypatch.setattr(pretr.HomSpace, "from_vector", counted)
    code, _, _ = run_cli(capsys, "serre", "--fixture", "a2")
    assert code == 0 and len(calls) == 11


def test_tensor_command(fixture_dir, tmp_path, capsys):
    out_path = str(tmp_path / "t.category.json")
    code, out, _ = run_cli(
        capsys, "tensor", str(fixture_dir / "kronecker.category.json"), str(fixture_dir / "point.category.json"), "--out", out_path
    )
    assert code == 0
    kind, field, cat = schema.parse_document(open(out_path).read())
    assert len(cat.objects) == 2


def _degree_one_identity_document(coords):
    """One object with two degree-1 loops a, b whose length-2 paths are
    killed, its identity rewritten to degree 1 with the given coordinates:
    not a DG category, and with {"1": "1"} an identity that names an index
    outside End in degree 0."""
    from dgcat.dgcore import from_quiver
    from dgcat.exactlin import QQ

    cat = from_quiver(QQ, ["v"], [("a", "v", "v", 1), ("b", "v", "v", 1)], [[(1, [x, y])] for x in "ab" for y in "ab"])
    doc = json.loads(schema.dumps(schema.document("category", QQ, schema.category_to_json(cat))))
    doc["body"]["ids"]["v"] = {"coords": coords, "degree": 1}
    return schema.dumps(doc)


@pytest.mark.parametrize("coords", ({"0": "1"}, {"1": "1"}), ids=("unit_coordinate", "outside_end0"))
def test_tensor_checks_the_axioms_of_its_categories_first(coords, tmp_path, capsys):
    """tensor of a category whose identity has degree 1 wrote the product of
    a non-DG category with exit 0 (identity coordinates {"0": "1"}) or ended
    in an IndexError traceback ({"1": "1"}).  Like ext, cone, reduce and
    karoubi, it now exits 1 with the failing category_axioms verdict alone
    and writes nothing, with the bad category first or second."""
    bad = tmp_path / "bad.category.json"
    bad.write_text(_degree_one_identity_document(coords))
    point = tmp_path / "point.category.json"
    from dgcat.fixtures import point_category

    point.write_text(schema.dumps(schema.document("category", "Q", schema.category_to_json(point_category()))))
    out_path = tmp_path / "t.category.json"
    for pair in ((bad, bad), (bad, point), (point, bad)):
        code, out, _ = run_cli(capsys, "tensor", *map(str, pair), "--out", str(out_path))
        rep = strip_timing(out)
        assert code == 1 and rep["command"] == ["tensor", *map(str, pair)], pair
        (verdict,) = rep["verdicts"]
        assert verdict["name"] == "category_axioms@()" and not verdict["ok"], pair
        assert not out_path.exists()
    assert run_cli(capsys, "tensor", str(point), str(point), "--out", str(out_path))[0] == 0 and out_path.exists()


@pytest.mark.parametrize("sub", ("relate", "fact"))
def test_refused_ring_reports_name_the_ledger(sub, fixture_dir, tmp_path, capsys):
    """A refused relate or fact reported "command": ["ring", sub] without
    the ledger path that every other ring report carries; it now says
    ["ring", sub, path], exits 1 and writes no ledger."""
    ledger = str(fixture_dir / "motivic.ledger.json")
    how = ["--expr", "[P1] - [P1]"] if sub == "relate" else ["--a", "P1", "--b", "P1", "--value", "3*[pt]"]
    out_path = tmp_path / "never.ledger.json"
    code, out, _ = run_cli(capsys, "ring", ledger, sub, *how, "--citation", "x", "--out", str(out_path))
    rep = strip_timing(out)
    assert code == 1 and rep["command"] == ["ring", sub, ledger]
    (verdict,) = rep["verdicts"]
    assert verdict["name"] == ("relation ingestion" if sub == "relate" else "fact ingestion") and not verdict["ok"]
    assert not out_path.exists()


def test_markdown_output(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "--output", "md", "check-sod", str(fixture_dir / "kronecker.sod-claim.json"))
    assert code == 0
    assert "PASS" in out


def test_validate_functor_and_gencert_documents(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "validate", str(fixture_dir / "kronecker_identity.functor.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "validate", str(fixture_dir / "kronecker_ev_cone.gen-certificate.json"))
    assert code == 0
    rep = strip_timing(out)
    assert rep["verdicts"][0]["detail"] == "layers=2"


def test_ring_fact_subcommand(fixture_dir, tmp_path, capsys):
    ledger = str(fixture_dir / "motivic.ledger.json")
    out_path = str(tmp_path / "facts.ledger.json")
    code, out, _ = run_cli(
        capsys,
        "ring", ledger, "fact",
        "--a", "P2", "--b", "P2",
        "--value", "9*[pt]",
        "--provenance", "external-paper-fact",
        "--citation", "Segre product model",
        "--out", out_path,
    )
    assert code == 0
    kind, field, led2 = schema.parse_document(open(out_path).read())
    from dgcat.ptring import ClassExpr

    assert led2.eq(ClassExpr.parse("[P2]*[P2]"), ClassExpr.unit(9)) == "equal"
    # conflicting fact is rejected with exit 1
    code, out, _ = run_cli(
        capsys,
        "ring", out_path, "fact",
        "--a", "P2", "--b", "P2",
        "--value", "8*[pt]",
        "--provenance", "external-paper-fact",
        "--citation", "wrong",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 1


def test_ring_relate_and_fact_without_their_expression_are_input_errors(fixture_dir, tmp_path, capsys):
    """ring relate with neither --expr nor --claim, and ring fact without
    --value, --a or --b, exit 2 with a JSON error and write nothing, in
    place or to --out; a blank value counts as missing.  A missing
    expression is not read as the zero class, so [P2]*[P2] stays unknown,
    and a missing factor is not a generator '' whose fact fails to ingest."""
    text = (fixture_dir / "motivic.ledger.json").read_text()
    ledger = tmp_path / "motivic.ledger.json"
    ledger.write_text(text)
    for argv, message in (
        (["relate", "--citation", "x"], "relate needs --expr or --claim"),
        (["relate", "--expr", " ", "--citation", "x"], "relate needs --expr or --claim"),
        (["fact", "--a", "P2", "--b", "P2", "--citation", "x"], "fact needs --value"),
        (["fact", "--a", "P2", "--b", "P2", "--value", " ", "--citation", "x"], "fact needs --value"),
        (["fact", "--value", "4*[pt]", "--citation", "x"], "fact needs --a and --b"),
        (["fact", "--b", "P1", "--value", "4*[pt]", "--citation", "x"], "fact needs --a"),
        (["fact", "--a", "P1", "--b", " ", "--value", "4*[pt]", "--citation", "x"], "fact needs --b"),
    ):
        for out in ([], ["--out", str(tmp_path / "out.ledger.json")]):
            code, stdout, err = run_cli(capsys, "ring", str(ledger), *argv, *out)
            assert code == 2 and not stdout, (argv, out)
            assert message in json.loads(err)["error"], (argv, out)
    assert ledger.read_text() == text and [p.name for p in tmp_path.iterdir()] == ["motivic.ledger.json"]
    code, out, _ = run_cli(capsys, "ring", str(ledger), "eq", "[P2]*[P2]", "0")
    assert code == 1 and strip_timing(out)["verdicts"][0]["detail"] == "unknown"


def test_validate_ledger_document(fixture_dir, capsys):
    code, out, _ = run_cli(capsys, "validate", str(fixture_dir / "motivic.ledger.json"))
    assert code == 0


def test_check_sod_jobs_deterministic_cli(fixture_dir, capsys):
    """Two runs of one check-sod report the same, up to timing_ms."""
    path = str(fixture_dir / "kronecker_squared.sod-claim.json")
    _, out1, _ = run_cli(capsys, "check-sod", path)
    _, out2, _ = run_cli(capsys, "check-sod", path)
    assert strip_timing(out1) == strip_timing(out2)


def test_summand_step_serialization_roundtrip(tmp_path):
    from dgcat.fixtures import kronecker_category
    from dgcat import pretr, sodgen

    k2 = kronecker_category()
    e1 = k2.obj("e1")
    x = pretr.direct_sum(pretr.embed(k2, e1), pretr.embed(k2, e1))
    e = pretr.TwistedMorphism(x, x, 0, {(0, 0): k2.identity(e1)})
    fin = pretr.TwistedMorphism(x, pretr.embed(k2, e1), 0, {(0, 0): k2.identity(e1)})
    cert = sodgen.GenerationCertificate(
        (e1,),
        (sodgen.Leaf(e1, 0), sodgen.Leaf(e1, 0), sodgen.Sum((0, 1)), sodgen.Summand(2, e, pretr.zero_morphism(x, x, -1))),
        pretr.embed(k2, e1),
        fin,
    )
    assert sodgen.verify_generation(k2, cert).ok
    doc = schema.dumps(schema.document("gen-certificate", "Q", schema.gencert_to_json(k2, cert)))
    kind, field, payload = schema.parse_document(doc)
    cat2, cert2 = payload
    res = sodgen.verify_generation(cat2, cert2)
    assert res.ok and res.layer_count == 2
    assert schema.dumps(schema.document("gen-certificate", field, schema.gencert_to_json(cat2, cert2))) == doc


def test_validate_refuses_a_summand_certificate_without_final_iso(tmp_path, capsys):
    """A gen-certificate whose last step is a Summand and whose final_iso
    is null fails its verdict (exit 1) with the one "final_iso is missing"
    failure at step -1, in place of a traceback."""
    import dataclasses

    from dgcat.fixtures import kronecker_category
    from test_sodgen import idempotent_certificate

    k2 = kronecker_category()
    cert = dataclasses.replace(idempotent_certificate(k2), final_iso=None)
    path = tmp_path / "no_final_iso.gen-certificate.json"
    path.write_text(schema.dumps(schema.document("gen-certificate", "Q", schema.gencert_to_json(k2, cert))))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1 and not err
    verdict = strip_timing(out)["verdicts"][0]
    assert verdict == {"name": "generation certificate", "ok": False, "detail": str([(-1, "final_iso is missing")])}


def test_random_category_schema_roundtrip():
    import random as _r
    import sys as _s, os as _o

    _s.path.insert(0, _o.path.dirname(__file__))
    from gens import random_category
    from dgcat.ptring import categories_structurally_equal

    rng = _r.Random(55)
    for _ in range(10):
        cat = random_category(rng)
        doc = schema.dumps(schema.document("category", cat.field, schema.category_to_json(cat)))
        kind, field, cat2 = schema.parse_document(doc)
        assert categories_structurally_equal(cat, cat2)
        assert schema.dumps(schema.document("category", field, schema.category_to_json(cat2))) == doc


def test_ring_relate_verified_sod_from_documents(fixture_dir, tmp_path, capsys):
    """Drive the fully verified pipeline from the CLI: register a fresh
    ledger relation from a shipped SOD claim document."""
    # start from a minimal ledger: pt + P1 registered, no relations
    from dgcat.fixtures import kronecker_category, point_category
    from dgcat.ptring import Ledger

    led = Ledger(degree_bound=2)
    led = led.register_generator("pt", point_category(), unit_alias=True)
    led = led.register_generator("P1", kronecker_category())
    base = tmp_path / "base.ledger.json"
    base.write_text(schema.dumps(schema.document("ledger", "Q", schema.ledger_to_json(led, None))))
    out_path = str(tmp_path / "with_relation.ledger.json")
    code, out, _ = run_cli(
        capsys,
        "ring", str(base), "relate",
        "--claim", str(fixture_dir / "kronecker.sod-claim.json"),
        "--label", "P1",
        "--out", out_path,
    )
    assert code == 0
    kind, field, led2 = schema.parse_document(open(out_path).read())
    from dgcat.ptring import ClassExpr

    assert led2.eq(ClassExpr.gen("P1"), ClassExpr.unit(2)) == "equal"
    # a broken claim is rejected with exit 1
    code, out, _ = run_cli(
        capsys,
        "ring", str(base), "relate",
        "--claim", str(fixture_dir / "kronecker_broken.sod-claim.json"),
        "--label", "P1",
        "--out", str(tmp_path / "never.json"),
    )
    assert code == 1


def _qe_certificate_variants(fixture_dir, tmp_path):
    """The fixture certificate plus copies whose witness for e1 is not closed
    (the cone of id_e1 projected onto e1), closed but not invertible (zero),
    missing, or closed of degree 0 with the wrong endpoints (the identity of
    e1[1]); and the functor pt -> Kronecker onto e1, whose witness for e2
    lies over e2, outside the image."""
    from dgcat import pretr
    from dgcat.exactlin import Matrix
    from dgcat.fixtures import kronecker_category
    from dgcat.functors import DGFunctor, EquivCertificate

    path = fixture_dir / "kronecker_block_e1_point.equiv-certificate.json"
    kind, field, cert = schema.parse_document(path.read_text())
    ((obj, (tc, _)),) = cert.witnesses.items()
    not_closed = pretr.cone_maps(pretr.identity_morphism(tc))[3]
    shifted = pretr.shift(tc, 1)
    k2, pt = kronecker_category(field), cert.functor.src
    (p,) = pt.objects
    e1 = k2.obj("e1")
    onto_e1 = DGFunctor(pt, k2, {p: e1}, {(p, p): {0: Matrix.from_columns(field, k2.hom(e1, e1).dim(0), [k2.identity(e1).coords])}})
    copies = {
        "not_closed": EquivCertificate(cert.functor, {obj: (not_closed.src, not_closed)}),
        "not_invertible": EquivCertificate(cert.functor, {obj: (tc, pretr.zero_morphism(tc, tc))}),
        "missing": EquivCertificate(cert.functor, {}),
        "endpoints_wrong": EquivCertificate(cert.functor, {obj: (shifted, pretr.identity_morphism(shifted))}),
        "not_over_image": EquivCertificate(onto_e1, {e: (pretr.embed(k2, e), pretr.identity_morphism(pretr.embed(k2, e))) for e in k2.objects}),
    }
    out = {"fixture": path}
    for name, copy in copies.items():
        out[name] = tmp_path / f"{name}.equiv-certificate.json"
        out[name].write_text(schema.dumps(schema.document(kind, field, schema.equiv_cert_to_json(copy))))
    return out


def test_check_qe_verdicts_on_bad_witnesses(fixture_dir, tmp_path, capsys):
    expected = {
        "fixture": (0, True, ""),
        "not_closed": (1, False, "[('essential_surjectivity', ('e1', 'witness morphism not closed degree 0'))]"),
        "not_invertible": (1, False, "[('essential_surjectivity', ('e1', 'witness is not a homotopy isomorphism'))]"),
        "missing": (1, False, "[('essential_surjectivity', ('e1', 'missing witness'))]"),
        "endpoints_wrong": (1, False, "[('essential_surjectivity', ('e1', 'witness endpoints wrong'))]"),
        "not_over_image": (1, False, "[('essential_surjectivity', ('e2', 'witness not over the image'))]"),
    }
    variants = _qe_certificate_variants(fixture_dir, tmp_path)
    assert set(variants) == set(expected)
    for name, path in variants.items():
        code, out, _ = run_cli(capsys, "check-qe", str(path))
        (verdict,) = strip_timing(out)["verdicts"]
        assert (code, verdict["ok"], verdict["detail"]) == expected[name], name


def test_comp_row_outside_the_basis_is_rejected(fixture_dir, tmp_path, capsys):
    """A comp row whose i, j or product index lies outside the basis of the
    Hom and degree it names makes a malformed document: parsing raises
    DocumentError and `validate` exits 2 with a message."""
    from dgcat.exactlin import GF, QQ
    from gens import product_outside_basis_category

    kronecker = json.loads((fixture_dir / "kronecker.category.json").read_text())
    docs = {f"product_{f.p if f != QQ else 0}": schema.document("category", f, schema.category_to_json(product_outside_basis_category(f))) for f in (QQ, GF(7))}
    for slot, bad in ((1, 2), (3, 1)):  # Hom(e1, e2) has 2 arrows, End(e2) only its identity
        doc = json.loads(json.dumps(kronecker))
        doc["body"]["comp"]["e1|e2|e2"][0][slot] = bad
        docs[f"kronecker_slot{slot}"] = doc
    for name, doc in docs.items():
        text = schema.dumps(doc)
        with pytest.raises(schema.DocumentError, match="outside the basis"):
            schema.parse_document(text)
        path = tmp_path / f"{name}.category.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out) == (2, ""), name
        assert "outside the basis of its Hom and degree" in json.loads(err)["error"]


def _without_timing(text):
    if text.startswith("{"):
        return strip_timing(text)
    return [line for line in text.splitlines() if not line.startswith("_timing:")]


def test_one_process_runs_commands_like_fresh_processes(fixture_dir, capsys):
    """main reuses one parser: a mix of subcommands, options and an input
    error run in one process report what each reports in a fresh
    interpreter."""
    import subprocess
    import sys

    cat = str(fixture_dir / "kronecker.category.json")
    ledger = str(fixture_dir / "motivic.ledger.json")
    runs = [
        ["--output", "md", "ext", cat, "--objects", "e1"],
        ["ring", ledger, "eq", "[P1]*[P1]", "4*[pt]"],
        ["ext", cat],
        ["check-sod", str(fixture_dir / "kronecker.sod-claim.json")],
        ["ext", cat, "--objects", "bogus"],
        ["serre", "--fixture", "point"],
    ]
    in_process = [run_cli(capsys, *argv) for argv in runs]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv, (code, out, err) in zip(runs, in_process):
        fresh = subprocess.run([sys.executable, "-m", "dgcat.cli", *argv], env=env, capture_output=True, text=True, timeout=120)
        assert (code, _without_timing(out), err) == (fresh.returncode, _without_timing(fresh.stdout), fresh.stderr), argv


def test_short_names_and_identity_coordinates_outside_end_are_input_errors(fixture_dir, tmp_path, capsys):
    """A Hom degree with fewer basis names than its dimension, or an
    identity with a coordinate outside End(x), makes a malformed document:
    exit code 2 with a message, for `validate` and for `tensor`."""
    kronecker = json.loads((fixture_dir / "kronecker.category.json").read_text())
    short, ids = json.loads(json.dumps(kronecker)), json.loads(json.dumps(kronecker))
    short["body"]["homs"]["e1|e2"]["names"]["0"] = ["a"]
    ids["body"]["ids"]["e1"]["coords"] = {"7": "1"}
    point = str(fixture_dir / "point.category.json")
    for name, doc, message in (("short", short, "basis name"), ("ids", ids, "outside the basis")):
        path = tmp_path / f"{name}.category.json"
        path.write_text(schema.dumps(doc))
        for argv in (["validate", str(path)], ["tensor", str(path), point, "--out", str(tmp_path / "t.json")]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (name, argv)
            assert message in json.loads(err)["error"], (name, argv)


def test_claim_documents_check_the_category_axioms_first(fixture_dir, tmp_path, capsys):
    """check-sod and validate on a sod-claim document put a category_axioms
    entry before the check_sod entries: the Kronecker claim whose category
    has its identities scaled by 2 fails (exit code 1)."""
    doc = json.loads((fixture_dir / "kronecker.sod-claim.json").read_text())
    code, out, _ = run_cli(capsys, "check-sod", str(fixture_dir / "kronecker.sod-claim.json"))
    audit = strip_timing(out)["tables"]["audit"]
    assert code == 0 and [row[0] for row in audit[1:3]] == ["category_axioms", "semiorthogonality"]
    for ident in doc["body"]["category"]["ids"].values():
        ident["coords"] = {k: str(2 * int(v)) for k, v in ident["coords"].items()}
    scaled = tmp_path / "scaled.sod-claim.json"
    scaled.write_text(schema.dumps(doc))
    code, out, _ = run_cli(capsys, "check-sod", str(scaled))
    assert code == 1
    assert [row[:3] for row in strip_timing(out)["tables"]["audit"][1:3]] == [["category_axioms", "()", "FAIL"], ["semiorthogonality", "()", "ok"]]
    code, out, _ = run_cli(capsys, "validate", str(scaled))
    assert code == 1
    assert strip_timing(out)["verdicts"][0]["name"] == "category_axioms@()"


def test_ring_relate_replays_the_witnesses_of_a_claim_document(tmp_path, capsys):
    """`ring relate --claim` with a claim document that carries its cut
    witnesses, over the document's own copy of the registered category:
    accepted when they hold, refused for the failing obligation when not."""
    from sod_reference import witnessed_exceptional_claim
    from dgcat.fixtures import broken_kronecker_sod_claim, kronecker_category, point_category
    from dgcat.ptring import Ledger

    led = Ledger(degree_bound=2).register_generator("pt", point_category(), unit_alias=True).register_generator("P1", kronecker_category())
    base = tmp_path / "base.ledger.json"
    base.write_text(schema.dumps(schema.document("ledger", "Q", schema.ledger_to_json(led, None))))
    k2 = kronecker_category()
    for name, claim, code_want in (("good", witnessed_exceptional_claim(k2, k2.objects), 0), ("broken", broken_kronecker_sod_claim(k2), 1)):
        path = tmp_path / f"{name}.sod-claim.json"
        path.write_text(schema.dumps(schema.document("sod-claim", "Q", schema.sod_claim_to_json(k2, claim))))
        code, out, _ = run_cli(capsys, "ring", str(base), "relate", "--claim", str(path), "--label", "P1", "--out", str(tmp_path / f"{name}.ledger.json"))
        assert code == code_want, name
        if code:
            assert "cone_right_orthogonal_to_late" in strip_timing(out)["verdicts"][0]["detail"]


def test_ring_rejects_a_ledger_with_a_one_block_point_sod_fact(fixture_dir, tmp_path, capsys):
    """The shipped ledger with its P1*P1xP1 point-sod fact valued [pt], the
    value a claim of one block of all 8 objects once gave: the factors'
    relations count 2 and 4 points, so verification fails, exit 1."""
    from dgcat.ptring import ClassExpr

    doc = json.loads((fixture_dir / "motivic.ledger.json").read_text())
    (fact,) = [f for f in doc["body"]["facts"] if f["pair"] == ["P1", "P1xP1"]]
    fact["value"] = ClassExpr.unit(1).format()
    bad = tmp_path / "one_block.ledger.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "ring", str(bad), "invariants")
    assert code == 1 and "value must be 8[pt]" in err


def test_check_sod_rejects_a_block_object_outside_the_ambient_generators(tmp_path, capsys):
    """A sod-claim document with ambient (e1,), blocks (e1), (e2) and e1's
    cut witness: exit 1 on the blocks_in_ambient_generators obligation."""
    from sod_reference import witnessed_claim
    from dgcat.fixtures import kronecker_category
    from dgcat.sodgen import SODClaim

    k2 = kronecker_category()
    e1, e2 = k2.objects
    full = witnessed_claim(k2, [(e1,), (e2,)])
    claim = SODClaim((e1,), full.blocks, {("e1", 1): full.admissibility[("e1", 1)]})
    path = tmp_path / "outside.sod-claim.json"
    path.write_text(schema.dumps(schema.document("sod-claim", "Q", schema.sod_claim_to_json(k2, claim))))
    code, out, _ = run_cli(capsys, "check-sod", str(path))
    assert code == 1
    failed = [row for row in strip_timing(out)["tables"]["audit"][1:] if row[2] == "FAIL"]
    assert [row[0] for row in failed] == ["blocks_in_ambient_generators"]


def test_ring_measure_of_an_unregistered_line_is_an_input_error(fixture_dir, capsys):
    code, out, err = run_cli(capsys, "ring", str(fixture_dir / "motivic.ledger.json"), "measure", "--line", "P9")
    assert code == 2 and not out
    assert "no generator 'P9'" in json.loads(err)["error"]


def test_a_negative_degree_bound_is_an_input_error(fixture_dir, tmp_path, capsys):
    """A degree bound below 0, from --degree-bound or from the document,
    exits 2 with a message."""
    ledger = fixture_dir / "motivic.ledger.json"
    code, out, err = run_cli(capsys, "ring", str(ledger), "invariants", "--degree-bound", "-1")
    assert code == 2 and not out
    assert "--degree-bound must be a non-negative integer" in json.loads(err)["error"]
    doc = json.loads(ledger.read_text())
    doc["body"]["degree_bound"] = -1
    bad = tmp_path / "negative.ledger.json"
    bad.write_text(json.dumps(doc))
    for argv in (["validate", str(bad)], ["ring", str(bad), "invariants"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert "degree_bound must be a non-negative integer" in json.loads(err)["error"]


def test_a_ledger_category_that_breaks_the_unit_law_is_rejected(fixture_dir, tmp_path, capsys):
    """The shipped ledger with id_v1·x = 2x in P2 and without the P1·P2
    fact, whose structural comparison would catch an explicit P1xP2 body:
    ingestion validates P2 and fails, exit 1, under ring eq and validate,
    with the products written as references and as full bodies."""
    from ledger_docs import broken_unit, with_explicit_bodies

    text = (fixture_dir / "motivic.ledger.json").read_text()
    for form, doc in (("reference", text), ("explicit", with_explicit_bodies(text))):
        bad = tmp_path / f"{form}.ledger.json"
        bad.write_text(broken_unit(doc))
        for argv in (["ring", str(bad), "eq", "[P2]", "3*[pt]"], ["validate", str(bad)]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and not out, (form, argv)
            assert "generator P2's category violates the category axioms" in json.loads(err)["error"], (form, argv)
            assert "left_unit" in err


def test_a_wrong_tensor_reference_fails_the_generator_fact(fixture_dir, tmp_path, capsys):
    """P1xP2 written as tensor(P1, P1) or tensor(P2, P1): the fact
    [P1]·[P2] = [P1xP2] compares tensor(P1, P2) with it and fails, exit 1.
    The entries that name P1xP2's objects are dropped first, since their
    labels are not in either category; with them the ledger is refused too."""
    doc = json.loads((fixture_dir / "motivic.ledger.json").read_text())
    body = doc["body"]
    for refs in (["P1", "P1"], ["P2", "P1"]):
        wrong = json.loads(json.dumps(doc))
        next(g for g in wrong["body"]["generators"] if g["label"] == "P1xP2")["category"] = {"tensor": refs}
        whole = tmp_path / "whole.ledger.json"
        whole.write_text(json.dumps(wrong))
        assert run_cli(capsys, "validate", str(whole))[0] != 0
        wrong["body"]["relations"] = [r for r in body["relations"] if (r["provenance"]["payload"] or {}).get("label") != "P1xP2"]
        wrong["body"]["facts"] = [f for f in body["facts"] if f["pair"] != ["P1", "P1xP2"]]
        path = tmp_path / "wrong.ledger.json"
        path.write_text(json.dumps(wrong))
        for argv in (["validate", str(path)], ["ring", str(path), "eq", "[P1]*[P2]", "[P1xP2]"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and not out, (refs, argv)
            assert "tensor category does not match the value generator's category" in json.loads(err)["error"], refs


def _with_fake_p2_relation(ledger_path, block_values, block_idents):
    """The ledger document with a copy of its P1 relation claiming
    [P1] - [P2] - [pt] through the given block values and idents."""
    doc = json.loads(ledger_path.read_text())
    fake = json.loads(json.dumps(doc["body"]["relations"][0]))
    assert fake["provenance"]["payload"]["label"] == "P1"
    fake["expr"] = "[P1] - [P2] - [pt]"
    fake["provenance"]["payload"].update(block_values=block_values, block_idents=block_idents)
    doc["body"]["relations"].append(fake)
    return json.dumps(doc)


def test_a_generator_block_ident_is_an_input_error(fixture_dir, tmp_path, capsys):
    """The shipped ledger reads free rank 1 and no torsion.  With the fake-P2
    relation, whose [P2] block is identified as ["generator", "P2"], it
    exits 2 under validate and ring invariants, without a traceback; with
    one "point" ident for its two blocks it fails verification, exit 1."""
    ledger = fixture_dir / "motivic.ledger.json"
    code, out, _ = run_cli(capsys, "ring", str(ledger), "invariants")
    assert code == 0 and strip_timing(out)["verdicts"][0]["detail"] == "free rank 1, torsion []"
    for name, values, idents, expected, message in (
        ("generator", ["[P2]", "[pt]"], [["generator", "P2"], "point"], 2, "a block ident must be a string"),
        ("short", ["[pt]", "[P2]"], ["point"], 1, "one value and one ident per block"),
    ):
        path = tmp_path / f"{name}.ledger.json"
        path.write_text(_with_fake_p2_relation(ledger, values, idents))
        for argv in (["validate", str(path)], ["ring", str(path), "invariants"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == expected and not out, (name, argv)
            assert message in json.loads(err)["error"], (name, argv)


def test_malformed_karoubi_degrees_are_input_errors(tmp_path, capsys):
    """--degrees takes <lo>..<hi>: abc, 1..2..3 and 2 exit 2 with a JSON
    error, and 0..0 still runs, as does --degrees=-1..1, the form for a
    range that starts with '-'."""
    from dgcat.fixtures import kronecker_category
    from dgcat import pretr

    k2 = kronecker_category()
    x = pretr.embed(k2, k2.obj("e1"))
    body = schema.tc_bundle_to_json(k2, idempotents={"one": pretr.karoubi_identity(x)})
    p = tmp_path / "one.twisted-complex.json"
    p.write_text(schema.dumps(schema.document("twisted-complex", "Q", body)))
    assert run_cli(capsys, "karoubi", str(p), "--a", "one", "--degrees", "0..0")[0] == 0
    code, out, _ = run_cli(capsys, "karoubi", str(p), "--a", "one", "--degrees=-1..1")
    assert code == 0 and json.loads(out)["tables"]["karoubi_hom"] == [["degree", "dim"], [-1, 0], [0, 1], [1, 0]]
    for degrees in ("abc", "1..2..3", "2"):
        code, out, err = run_cli(capsys, "karoubi", str(p), "--a", "one", "--degrees", degrees)
        assert code == 2 and not out, degrees
        assert "--degrees must be <lo>..<hi>" in json.loads(err)["error"], degrees


def test_an_unwritable_output_is_an_input_error_and_leaves_no_temp_file(fixture_dir, tmp_path, capsys):
    """tensor and ring relate with --out in a missing directory, or naming an
    existing directory, exit 2 with a JSON error and leave no *.tmp.<pid>."""
    cat = str(fixture_dir / "point.category.json")
    ledger = str(fixture_dir / "motivic.ledger.json")
    taken = tmp_path / "taken"
    taken.mkdir()
    for out_path in (tmp_path / "missing" / "out.json", taken):
        for argv in (
            ["tensor", cat, cat, "--out", str(out_path)],
            ["ring", ledger, "relate", "--expr", "[P1] - 2*[pt]", "--citation", "x", "--out", str(out_path)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and not out, argv
            assert f"cannot write {out_path}" in json.loads(err)["error"], argv
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["taken"]
    assert not [p for p in fixture_dir.iterdir() if ".tmp." in p.name]


def test_a_malformed_field_spec_is_an_input_error(tmp_path, capsys):
    """--field that is not Q or Fp:<prime> exits 2 under serre and fixtures
    with a JSON error naming the spec, and fixtures writes nothing."""
    out_dir = tmp_path / "d"
    for spec in ("Fp:4", "Fp:x", "garbage"):
        for argv in (["--field", spec, "serre"], ["--field", spec, "fixtures", "--out", str(out_dir)]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and not out, argv
            assert f"bad --field {spec!r}" in json.loads(err)["error"], argv
    assert not out_dir.exists()


def test_ring_eq_takes_exactly_two_expressions(fixture_dir, capsys):
    ledger = str(fixture_dir / "motivic.ledger.json")
    for exprs in ([], ["[P1]"], ["[P1]", "2*[pt]", "[P2]"]):
        code, out, err = run_cli(capsys, "ring", ledger, "eq", *exprs)
        assert code == 2 and not out, exprs
        assert f"eq takes exactly two class expressions, found {len(exprs)}" in json.loads(err)["error"], exprs


def _d_squared_point_document():
    """One object whose End has dims 1, 1, 1 in degrees 0, 1, 2 with
    d(0) = d(1) = [1], so d² ≠ 0; e is a two-sided unit of t and s."""
    comp = [[0, 0, q, 0, {"0": "1"}] for q in (0, 1, 2)] + [[p, 0, 0, 0, {"0": "1"}] for p in (1, 2)]
    one = {"rows": 1, "cols": 1, "entries": [[0, 0, "1"]]}
    body = {
        "comp": {"pt|pt|pt": comp},
        "homs": {"pt|pt": {"complex": {"diff": {"0": one, "1": one}, "dims": {"0": 1, "1": 1, "2": 1}}, "names": {"0": ["e"], "1": ["t"], "2": ["s"]}}},
        "ids": {"pt": {"coords": {"0": "1"}, "degree": 0}},
        "name": "d_squared",
        "objects": ["pt"],
    }
    return schema.dumps(schema.document("category", "Q", body))


def test_commands_that_compute_on_a_category_check_its_axioms_first(fixture_dir, tmp_path, capsys):
    """ext on a category with d² ≠ 0 printed {"1": -1} with exit 0.  ext,
    cone, reduce and karoubi now exit 1 with the failing category_axioms
    verdict alone, and no table or document, when the document's category
    is not a DG category: here d² ≠ 0, and the Kronecker category with its
    identities scaled by 2.  validate fails both categories too."""
    bad = tmp_path / "d_squared.category.json"
    bad.write_text(_d_squared_point_document())
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1 and {v["name"].split("@")[0] for v in strip_timing(out)["verdicts"] if not v["ok"]} == {"d_squared", "unit_cycle", "leibniz", "category axioms"}
    from dgcat import pretr
    from dgcat.fixtures import kronecker_category, kronecker_ev_morphism

    k2 = kronecker_category()
    ev = kronecker_ev_morphism(k2)
    e1 = pretr.embed(k2, k2.obj("e1"))
    doc = json.loads(schema.dumps(schema.document("twisted-complex", "Q", schema.tc_bundle_to_json(
        k2, {"cone_id_e1": pretr.cone(pretr.identity_morphism(e1))}, {"ev": ev}, {"one": pretr.karoubi_identity(e1)}))))
    for ident in doc["body"]["category"]["ids"].values():
        ident["coords"] = {k: str(2 * int(v)) for k, v in ident["coords"].items()}
    scaled = tmp_path / "scaled.twisted-complex.json"
    scaled.write_text(schema.dumps(doc))
    assert run_cli(capsys, "validate", str(scaled))[0] == 1
    for argv in (
        ["ext", str(bad)],
        ["cone", str(scaled), "--morphism", "ev"],
        ["reduce", str(scaled), "--complex", "cone_id_e1"],
        ["karoubi", str(scaled), "--a", "one", "--degrees", "0..0"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        rep = strip_timing(out)
        assert code == 1 and set(rep) == {"command", "verdicts"}, argv
        (verdict,) = rep["verdicts"]
        assert verdict["name"] == "category_axioms@()" and not verdict["ok"], argv


def test_ledger_labels_a_class_expression_cannot_read_back_are_input_errors(fixture_dir, tmp_path, capsys):
    """ClassExpr.parse reads [pt] as the unit and splits on whitespace, "[",
    "]", "*", "+" and "-".  With "pt" an ordinary generator of the shipped
    ledger, ring invariants counted free rank 2 and `ring relate --claim
    ... --label pt` wrote "-[pt] + [pt]", which read back exited 1.  That
    ledger, and the shipped one with BlP2pt renamed Bl-P2, exit 2."""
    text = (fixture_dir / "motivic.ledger.json").read_text()
    doc = json.loads(text)
    (pt,) = [g for g in doc["body"]["generators"] if g["label"] == "pt"]
    pt["unit_alias"] = False
    non_alias = tmp_path / "pt.ledger.json"
    non_alias.write_text(schema.dumps(doc))
    hyphen = tmp_path / "hyphen.ledger.json"
    hyphen.write_text(text.replace('"BlP2pt"', '"Bl-P2"'))
    for path in (non_alias, hyphen):
        for argv in (["validate", str(path)], ["ring", str(path), "invariants"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and not out, argv
            assert "generator label" in json.loads(err)["error"], argv
