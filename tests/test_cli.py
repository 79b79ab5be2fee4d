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


def test_tensor_command(fixture_dir, tmp_path, capsys):
    out_path = str(tmp_path / "t.category.json")
    code, out, _ = run_cli(
        capsys, "tensor", str(fixture_dir / "kronecker.category.json"), str(fixture_dir / "point.category.json"), "--out", out_path
    )
    assert code == 0
    kind, field, cat = schema.parse_document(open(out_path).read())
    assert len(cat.objects) == 2


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
    (the cone of id_e1 projected onto e1) or closed but not invertible (zero)."""
    from dgcat import pretr
    from dgcat.functors import EquivCertificate

    path = fixture_dir / "kronecker_block_e1_point.equiv-certificate.json"
    kind, field, cert = schema.parse_document(path.read_text())
    ((obj, (tc, _)),) = cert.witnesses.items()
    not_closed = pretr.cone_maps(pretr.identity_morphism(tc))[3]
    zero = pretr.zero_morphism(tc, tc)
    out = {"fixture": path}
    for name, witness in (("not_closed", (not_closed.src, not_closed)), ("not_invertible", (tc, zero))):
        copy = EquivCertificate(cert.functor, {obj: witness})
        out[name] = tmp_path / f"{name}.equiv-certificate.json"
        out[name].write_text(schema.dumps(schema.document(kind, field, schema.equiv_cert_to_json(copy))))
    return out


def test_check_qe_verdicts_on_bad_witnesses(fixture_dir, tmp_path, capsys):
    expected = {
        "fixture": (0, True, ""),
        "not_closed": (1, False, "[('essential_surjectivity', ('e1', 'witness morphism not closed degree 0'))]"),
        "not_invertible": (1, False, "[('essential_surjectivity', ('e1', 'witness is not a homotopy isomorphism'))]"),
    }
    for name, path in _qe_certificate_variants(fixture_dir, tmp_path).items():
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
    """The shipped ledger with its P1*P1xP1 point-sod claim folded into one
    block of all 8 objects, valued [pt]: verification fails, exit 1."""
    from dgcat.ptring import ClassExpr

    doc = json.loads((fixture_dir / "motivic.ledger.json").read_text())
    (fact,) = [f for f in doc["body"]["facts"] if f["pair"] == ["P1", "P1xP1"]]
    claim = fact["provenance"]["payload"]["claim"]
    claim["blocks"] = [claim["ambient_generators"]]
    fact["value"] = ClassExpr.unit(1).format()
    bad = tmp_path / "one_block.ledger.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "ring", str(bad), "invariants")
    assert code == 1 and "every block of a point-sod claim must be a single object" in err


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
