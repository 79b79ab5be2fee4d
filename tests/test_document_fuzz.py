"""Seeded fuzz of the document decoders: a malformed document is an input
error (exit code 2) or a failed check (exit code 1), never a traceback."""

import contextlib
import io
import json
import random

from dgcat import schema
from dgcat.cli import main, write_fixture_documents

MUTATIONS = 300
REPLACEMENTS = (None, "#", [], {}, 7)


def _nodes(x, path=()):
    """Every node of a JSON tree below the root, as (path, value)."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield path + (k,), v
        yield from _nodes(v, path + (k,))


def _mutate(doc, nodes, rng):
    """A copy of doc with one of its nodes replaced by a value of another
    JSON type."""
    path, value = rng.choice(nodes)
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = rng.choice([r for r in REPLACEMENTS if type(r) is not type(value)])
    return doc


def test_mutated_documents_never_raise(tmp_path):
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    originals = {p.name: json.loads(p.read_text()) for p in sorted(docs.iterdir())}
    nodes = {name: list(_nodes(doc)) for name, doc in originals.items()}
    names = sorted(originals)
    rng = random.Random(20261018)
    codes = {}
    for n in range(MUTATIONS):
        name = names[n % len(names)]
        path = tmp_path / f"m{n}.{name}"
        path.write_text(json.dumps(_mutate(originals[name], nodes[name], rng)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
        assert code in (0, 1, 2), (name, code)
        if code == 2:
            assert "error" in json.loads(err.getvalue()), name
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(2, 0) > MUTATIONS // 2, codes


def test_a_claim_on_a_generator_without_a_category_is_an_input_error(tmp_path):
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    ledger = json.loads((docs / "motivic.ledger.json").read_text())
    bare = next(g["label"] for g in ledger["body"]["generators"] if g["category"] is None)
    payload = next(r["provenance"]["payload"] for r in ledger["body"]["relations"] if r["provenance"]["payload"])
    payload["label"] = bare
    path = tmp_path / "bare.ledger.json"
    path.write_text(json.dumps(ledger))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["validate", str(path)]) == 2
    assert "has no category" in json.loads(err.getvalue())["error"]


def test_scalars_of_another_field_and_entries_out_of_range_are_input_errors(tmp_path):
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    foreign = json.loads((docs / "kronecker.category.json").read_text())
    foreign["field"] = "Fp:7"
    for ident in foreign["body"]["ids"].values():
        ident["coords"] = {k: "1 mod 5" for k in ident["coords"]}
    outside = json.loads((docs / "kronecker_identity.functor.json").read_text())
    per = next(per for per in outside["body"]["mor_maps"].values() if per)
    matrix = next(iter(per.values()))
    matrix["entries"].append([matrix["rows"], 0, "1"])
    for n, doc in enumerate((foreign, outside)):
        path = tmp_path / f"bad{n}.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["validate", str(path)]) == 2


def test_malformed_block_idents_are_input_errors(tmp_path):
    """A block ident is the string "point" and nothing else: the shipped
    ledger with one point ident replaced by [], ["generator"],
    ["generator", 7] or ["generator", "P2"] exits 2 under validate and ring,
    without a traceback."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    ledger = json.loads((docs / "motivic.ledger.json").read_text())
    for n, ident in enumerate(([], ["generator"], ["generator", 7], ["generator", "P2"])):
        bad = json.loads(json.dumps(ledger))
        bad["body"]["relations"][1]["provenance"]["payload"]["block_idents"][0] = ident
        path = tmp_path / f"ident{n}.ledger.json"
        path.write_text(json.dumps(bad))
        for argv in (["validate", str(path)], ["ring", str(path), "invariants"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main(argv) == 2, (ident, argv)
            assert "block ident" in json.loads(err.getvalue())["error"], (ident, argv)


def test_an_unknown_ledger_flavor_is_an_input_error(tmp_path):
    """A ledger flavor other than "PT" or "Gamma" exits 2 under validate and
    ring; the shipped ledger re-flavored "PT" still reads."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    ledger = json.loads((docs / "motivic.ledger.json").read_text())
    for flavor, expected in (("XYZ", 2), ("PT", 0)):
        ledger["body"]["flavor"] = flavor
        path = tmp_path / f"{flavor}.ledger.json"
        path.write_text(json.dumps(ledger))
        for argv in (["validate", str(path)], ["ring", str(path), "invariants"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main(argv) == expected, (flavor, argv)
            if expected:
                assert "flavor must be" in json.loads(err.getvalue())["error"], argv


HOSTILE_REFERENCES = (
    ({"P1xP2": ["P1", "P3"]}, "unknown generator 'P3'"),
    ({"P1xP2": ["P1xP2", "P2"]}, "form a cycle among generators ['P1xP2']"),
    ({"P1xP1": ["P1", "P1xP2"], "P1xP2": ["P1xP1", "P2"]}, "form a cycle among generators ['P1xP1', 'P1xP2']"),
    ({"P1xP2": ["P1"]}, "must be two generator labels"),
    ({"P1xP2": ["P1", "P2", "P1"]}, "must be two generator labels"),
    ({"P1xP2": ["P1", 7]}, "must be two generator labels"),
    ({"P1xP2": "P1"}, "tensor reference must be an array"),
    ({"P1xP2": ["P1", "BlP2pt"]}, "tensor factor BlP2pt has no category"),
)


def test_hostile_tensor_references_are_input_errors(tmp_path):
    """A generator category {"tensor": refs} naming an unknown label, itself,
    a cycle, not exactly two string labels, or a generator without a
    category exits 2 with a JSON error under validate and ring."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    ledger = json.loads((docs / "motivic.ledger.json").read_text())
    for n, (refs, message) in enumerate(HOSTILE_REFERENCES):
        bad = json.loads(json.dumps(ledger))
        for g in bad["body"]["generators"]:
            if g["label"] in refs:
                g["category"] = {"tensor": refs[g["label"]]}
        path = tmp_path / f"refs{n}.ledger.json"
        path.write_text(json.dumps(bad))
        for argv in (["validate", str(path)], ["ring", str(path), "invariants"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(argv) == 2, (refs, argv)
            assert not out.getvalue() and message in json.loads(err.getvalue())["error"], (refs, argv, err.getvalue())


def test_a_claim_object_outside_its_category_is_named_with_the_claim(tmp_path):
    """With P1xP2 written as tensor(P1, P1), the labels of P1xP2's objects
    are in no category: the shipped ledger exits 2 under validate and ring,
    naming the missing label and the generator whose relation's claim lists
    it."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    ledger = json.loads((docs / "motivic.ledger.json").read_text())
    next(g for g in ledger["body"]["generators"] if g["label"] == "P1xP2")["category"] = {"tensor": ["P1", "P1"]}
    path = tmp_path / "relation.ledger.json"
    path.write_text(json.dumps(ledger))
    for argv in (["validate", str(path)], ["ring", str(path), "invariants"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 2, argv
        assert not out.getvalue() and "claim of generator P1xP2: unknown object label '(e1,v1)'" in json.loads(err.getvalue())["error"], (argv, err.getvalue())


KEY_LABEL_CASES = (
    # (document, path to a dict in its body, key, replacement key, message)
    ("kronecker.category.json", ("homs",), "e1|e2", "e9|e2", "unknown object label 'e9' in Hom key 'e9|e2'"),
    ("kronecker.category.json", ("comp",), "e1|e2|e2", "e1|e9|e2", "unknown object label 'e9' in comp key 'e1|e9|e2'"),
    ("kronecker.category.json", ("ids",), "e2", "e9", "unknown object label 'e9' in ids"),
    ("kronecker.category.json", ("homs",), "e1|e2", "e1|e2|e3", "Hom key 'e1|e2|e3' must be 2 object labels"),
    ("kronecker.category.json", ("comp",), "e1|e2|e2", "e1|e2", "comp key 'e1|e2' must be 3 object labels"),
    ("kronecker_identity.functor.json", ("obj_map",), "e2", "e9", "unknown object label 'e9' in obj_map"),
    ("kronecker_identity.functor.json", ("mor_maps",), "e1|e2", "e1|e9", "unknown object label 'e9' in mor_maps key 'e1|e9'"),
    ("kronecker_identity.functor.json", ("mor_maps",), "e1|e2", "e1", "mor_maps key 'e1' must be 2 object labels"),
    ("kronecker_identity.functor.json", ("src_category", "homs"), "e1|e2", "e9|e2", "unknown object label 'e9' in Hom key 'e9|e2'"),
    ("kronecker_block_e1_point.equiv-certificate.json", ("witnesses",), "e1", "e9", "unknown object label 'e9' in witnesses"),
)


def test_object_labels_in_keys_are_named_with_their_key(tmp_path):
    """An unknown label in a homs, comp or ids key of a category, in an
    obj_map or mor_maps key of a functor or in a witnesses key of an
    equiv-certificate, and a key with the wrong number of labels, exit 2
    under validate with a JSON error naming the key, not a bare KeyError or
    unpacking error."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    for n, (name, path, key, new_key, message) in enumerate(KEY_LABEL_CASES):
        doc = json.loads((docs / name).read_text())
        node = doc["body"]
        for k in path:
            node = node[k]
        node[new_key] = node.pop(key)
        bad = tmp_path / f"key{n}.{name}"
        bad.write_text(json.dumps(doc))
        code, out, err = _run(["validate", str(bad)])
        assert code == 2 and not out and message in json.loads(err)["error"], (name, new_key, err)


def test_a_repeated_object_label_is_an_input_error(tmp_path):
    """A category whose objects list repeats a label exits 2 naming the
    label; it is not read as a category that breaks the unit law."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    doc = json.loads((docs / "kronecker.category.json").read_text())
    doc["body"]["objects"] = ["e1", "e1"]
    bad = tmp_path / "twice.category.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(["validate", str(bad)])
    assert code == 2 and not out and "objects: label 'e1' is listed twice" in json.loads(err)["error"], err


ZERO_DENOMINATOR_CASES = (
    # (document, path to the scalar's parent in its body, key, node named in the message)
    ("kronecker.category.json", ("ids", "e1", "coords"), "0", "morphism e1 -> e1"),
    ("kronecker.category.json", ("comp", "e1|e1|e2", 1, 4), "1", "comp row e1|e1|e2"),
    ("kronecker_identity.functor.json", ("mor_maps", "e1|e2", "0", "entries", 1), 2, "mor_maps e1|e2"),
)


def test_a_zero_denominator_is_an_input_error(tmp_path):
    """The Q scalar "1/0" as a coordinate, a comp row constant or a matrix
    entry exits 2 under validate with a JSON error naming the node, not a
    ZeroDivisionError traceback."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    for n, (name, path, key, where) in enumerate(ZERO_DENOMINATOR_CASES):
        doc = json.loads((docs / name).read_text())
        node = doc["body"]
        for k in path:
            node = node[k]
        node[key] = "1/0"
        bad = tmp_path / f"zero{n}.{name}"
        bad.write_text(json.dumps(doc))
        code, out, err = _run(["validate", str(bad)])
        error = json.loads(err)["error"]
        assert code == 2 and not out and where in error and "'1/0' has a zero denominator" in error, (name, err)


def test_a_q_scalar_outside_the_written_grammar_is_an_input_error(tmp_path):
    """A Q scalar is read only in the forms `format` writes, an integer or
    n/d with an optional sign: "1e5000" (which `Fraction` reads as a
    5001-digit integer that cannot be written back) and "0.5" as a comp
    row constant exit 2 naming the row under validate and tensor, with no
    traceback and no output file."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    doc = json.loads((docs / "kronecker.category.json").read_text())
    for scalar in ("1e5000", "0.5"):
        doc["body"]["comp"]["e1|e1|e2"][1][4]["1"] = scalar
        bad = tmp_path / f"scalar.{scalar}.category.json"
        bad.write_text(json.dumps(doc))
        out_path = tmp_path / f"t.{scalar}.category.json"
        for argv in (["validate", str(bad)], ["tensor", str(bad), str(docs / "point.category.json"), "--out", str(out_path)]):
            code, out, err = _run(argv)
            error = json.loads(err)["error"]
            assert code == 2 and not out and "comp row e1|e1|e2" in error and repr(scalar) in error, (argv, err)
        assert not out_path.exists()


def test_an_unknown_generator_in_a_relation_payload_is_named(tmp_path):
    """A verified-sod payload whose label names no generator ("P9") exits 2
    under validate and ring with a JSON error naming the label and the
    relation, not a bare KeyError."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    ledger = json.loads((docs / "motivic.ledger.json").read_text())
    relation = ledger["body"]["relations"][1]
    relation["provenance"]["payload"]["label"] = "P9"
    path = tmp_path / "p9.ledger.json"
    path.write_text(json.dumps(ledger))
    message = f"relation {relation['expr']!r}: verified-sod payload names unknown generator 'P9'"
    for argv in (["validate", str(path)], ["ring", str(path), "invariants"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 2, argv
        assert not out.getvalue() and message in json.loads(err.getvalue())["error"], (argv, err.getvalue())


LEDGER_MUTATIONS = 80


def test_mutated_ledgers_never_raise_under_validate_or_ring(tmp_path):
    """Seeded mutations of the shipped ledger give the same exit code, 0, 1
    or 2, under validate and ring invariants, never a traceback; a ledger
    that is accepted has categories that validate."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    ledger = json.loads((docs / "motivic.ledger.json").read_text())
    nodes = list(_nodes(ledger))
    rng = random.Random(20261019)
    codes = {}
    for n in range(LEDGER_MUTATIONS):
        doc = _mutate(ledger, nodes, rng)
        path = tmp_path / f"m{n}.ledger.json"
        path.write_text(json.dumps(doc))
        seen = []
        for argv in (["validate", str(path)], ["ring", str(path), "invariants"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (n, argv, code)
            if code:
                assert "error" in json.loads(err.getvalue()), (n, argv)
            seen.append(code)
        assert seen[0] == seen[1], (n, seen)
        if seen[0] == 0:
            _, _, led = schema.parse_document(path.read_text())
            assert all(not g.payload.validate() for g in led.generators.values() if g.payload is not None), n
        codes[seen[0]] = codes.get(seen[0], 0) + 1
    assert codes.get(2, 0) > LEDGER_MUTATIONS // 2, codes


# Each shipped certificate: the commands that replay it, and the keys of its
# categories with the `where` of their category_axioms entries.
CERTIFICATES = {
    "kronecker_ev_cone.gen-certificate.json": (("validate",), {"category": "()"}),
    "kronecker_block_e1_point.equiv-certificate.json": (("validate", "check-qe"), {"src_category": "source", "dst_category": "target"}),
}
CERTIFICATE_MUTATIONS = 60


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _failed(report):
    """The failed verdicts and audit rows of a report, as name@where."""
    rows = report.get("tables", {}).get("audit", [])[1:]
    return [v["name"] for v in report["verdicts"] if not v["ok"]] + [f"{r[0]}@{r[1]}" for r in rows if r[2] == "FAIL"]


def test_mutated_certificates_never_raise_and_pass_only_over_dg_categories(tmp_path):
    """The shipped gen- and equiv-certificates pass each command that
    replays them.  Seeded mutations give the same exit code, 0, 1 or 2,
    under each of those commands, never a traceback; a certificate that is
    accepted has categories that validate.
    Scaling any one composition constant of a certificate's category by 2
    fails that category's category_axioms entry, exit 1."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    rng = random.Random(20261020)
    codes = {}
    for name, (commands, wheres) in CERTIFICATES.items():
        doc = json.loads((docs / name).read_text())
        nodes = list(_nodes(doc))
        assert [_run([command, str(docs / name)])[0] for command in commands] == [0] * len(commands), name
        for n in range(CERTIFICATE_MUTATIONS):
            path = tmp_path / f"m{n}.{name}"
            path.write_text(json.dumps(_mutate(doc, nodes, rng)))
            seen = []
            for command in commands:
                code, _, err = _run([command, str(path)])
                assert code in (0, 1, 2), (name, n, command, code)
                if code == 2:
                    assert "error" in json.loads(err), (name, n, command)
                seen.append(code)
            assert len(set(seen)) == 1, (name, n, seen)
            if seen[0] == 0:
                kind, _, payload = schema.parse_document(path.read_text())
                cats = [payload[0]] if kind == "gen-certificate" else [payload.functor.src, payload.functor.dst]
                assert all(not c.validate() for c in cats), (name, n)
            codes[seen[0]] = codes.get(seen[0], 0) + 1
        for key, where in wheres.items():
            for table, rows in doc["body"][key]["comp"].items():
                for r, row in enumerate(rows):
                    for k, v in row[4].items():
                        bad = json.loads(json.dumps(doc))
                        bad["body"][key]["comp"][table][r][4][k] = str(2 * int(v))
                        path = tmp_path / f"scaled.{name}"
                        path.write_text(json.dumps(bad))
                        for command in commands:
                            code, out, _ = _run([command, str(path)])
                            assert code == 1 and f"category_axioms@{where}" in _failed(json.loads(out)), (name, key, table, r, command)
    assert codes.get(2, 0) > CERTIFICATE_MUTATIONS, codes


def test_a_hom_differential_of_the_wrong_shape_is_an_input_error(tmp_path):
    """A nonzero Hom differential whose shape does not fit the Hom's dims
    exits 2 with an error that names the Hom, under validate and ext."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    doc = json.loads((docs / "kronecker.category.json").read_text())
    key = next(iter(doc["body"]["homs"]))
    doc["body"]["homs"][key]["complex"]["diff"] = {"0": {"rows": 3, "cols": 1, "entries": [[0, 0, "1"]]}}
    path = tmp_path / "shape.category.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "ext"):
        code, out, err = _run([command, str(path)])
        assert (code, out) == (2, ""), command
        assert f"Hom {key}: diff(0) has shape 3x1" in json.loads(err)["error"], command


def _idempotent_on_the_wrong_carrier():
    """The Kronecker category and the pair (e1², ev) as a KaroubiObject:
    ev goes from the carrier e1² to e2, so it is no endomorphism."""
    from dgcat import pretr
    from dgcat.fixtures import kronecker_category, kronecker_ev_morphism

    k2 = kronecker_category()
    ev = kronecker_ev_morphism(k2)
    return k2, pretr.KaroubiObject(ev.src, ev, pretr.zero_morphism(ev.src, ev.src, -1))


def test_an_idempotent_with_the_wrong_endpoints_fails_its_verdict(tmp_path):
    """A twisted-complex document whose idempotent e does not map its
    carrier to itself fails the `idempotent <name>` verdict of validate and
    the karoubi command, exit 1, with no traceback."""
    k2, k = _idempotent_on_the_wrong_carrier()
    assert not k.verify()
    path = tmp_path / "wrong.twisted-complex.json"
    path.write_text(schema.dumps(schema.document("twisted-complex", "Q", schema.tc_bundle_to_json(k2, {"e1_squared": k.carrier}, idempotents={"ev": k}))))
    code, out, _ = _run(["validate", str(path)])
    assert code == 1 and _failed(json.loads(out)) == ["idempotent ev"]
    code, out, _ = _run(["karoubi", str(path), "--a", "ev", "--degrees", "0..0"])
    assert code == 1 and json.loads(out)["verdicts"] == [{"name": "karoubi", "ok": False, "detail": "source idempotent witness fails verification"}]


def test_a_summand_step_with_the_wrong_endpoints_fails_the_certificate(tmp_path):
    """A generation certificate whose Summand step holds an e that does not
    map the step's carrier to itself fails verify_generation at that step,
    and validate of its document exits 1 with no traceback."""
    from dgcat import pretr, sodgen

    k2, k = _idempotent_on_the_wrong_carrier()
    e1 = k2.obj("e1")
    steps = (sodgen.Leaf(e1, 0), sodgen.Leaf(e1, 0), sodgen.Sum((0, 1)), sodgen.Summand(2, k.e, k.h))
    fin = pretr.TwistedMorphism(k.carrier, pretr.embed(k2, e1), 0, {(0, 0): k2.identity(e1)})
    cert = sodgen.GenerationCertificate((e1,), steps, pretr.embed(k2, e1), fin)
    res = sodgen.verify_generation(k2, cert)
    assert not res.ok and res.failures == [(3, "idempotent witness fails verification")]
    path = tmp_path / "wrong.gen-certificate.json"
    path.write_text(schema.dumps(schema.document("gen-certificate", "Q", schema.gencert_to_json(k2, cert))))
    code, out, _ = _run(["validate", str(path)])
    assert code == 1 and _failed(json.loads(out)) == ["generation certificate"]


def test_a_functor_on_a_category_without_an_identity_fails_its_check(tmp_path):
    """An equivalence certificate whose source category lists no identity
    for an object fails the functor's identity check and that category's
    axioms under validate and check-qe, exit 1, with no traceback."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    name = "kronecker_block_e1_point.equiv-certificate.json"
    doc = json.loads((docs / name).read_text())
    doc["body"]["src_category"]["ids"] = {}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    for command in ("validate", "check-qe"):
        code, out, _ = _run([command, str(path)])
        assert code == 1, command
        assert set(_failed(json.loads(out))) == {"quasi-equivalence", "category_axioms@source"}, command
        assert "no identity on a or F(a)" in json.loads(out)["verdicts"][0]["detail"], command


# The commands that replay each kind of certificate document, and the keys
# of its categories with the `where` of their category_axioms entries.
REPLAYS = {
    "gen-certificate": (("validate",), {"category": "()"}),
    "sod-claim": (("validate", "check-sod"), {"category": "()"}),
    "equiv-certificate": (("validate", "check-qe"), {"src_category": "source", "dst_category": "target"}),
}


def _summand_certificate():
    """A gen-certificate document for e1 of the Kronecker category as the
    image of the idempotent of e1 ⊕ e1 that keeps the first summand."""
    from dgcat import pretr, sodgen
    from dgcat.fixtures import kronecker_category

    k2 = kronecker_category()
    e1 = k2.obj("e1")
    x = pretr.direct_sum(pretr.embed(k2, e1), pretr.embed(k2, e1))
    first = pretr.TwistedMorphism(x, x, 0, {(0, 0): k2.identity(e1)})
    steps = (sodgen.Leaf(e1, 0), sodgen.Leaf(e1, 0), sodgen.Sum((0, 1)), sodgen.Summand(2, first, pretr.zero_morphism(x, x, -1)))
    fin = pretr.TwistedMorphism(x, pretr.embed(k2, e1), 0, {(0, 0): k2.identity(e1)})
    cert = sodgen.GenerationCertificate((e1,), steps, pretr.embed(k2, e1), fin)
    return schema.document("gen-certificate", "Q", schema.gencert_to_json(k2, cert))


def test_a_category_without_an_identity_fails_every_replay(tmp_path):
    """With one object's identity dropped from a category of a shipped
    certificate or claim document, of a Summand certificate, or of the
    Kronecker claim with every cut witness (whose cone at a cut is checked
    right-orthogonal), replay that needed 1_x ended validate and check-sod
    in a KeyError.  Every command that replays such a document exits 1 with
    the category's category_axioms entry failed, and check-sod keeps its
    audit rows after that entry."""
    from dgcat.fixtures import kronecker_category
    from sod_reference import witnessed_exceptional_claim

    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    originals = {p.name: json.loads(p.read_text()) for p in sorted(docs.iterdir()) if p.name.split(".")[-2] in REPLAYS}
    originals["summand.gen-certificate.json"] = _summand_certificate()
    k2 = kronecker_category()
    claim = witnessed_exceptional_claim(k2, k2.objects)
    originals["witnessed.sod-claim.json"] = schema.document("sod-claim", "Q", schema.sod_claim_to_json(k2, claim))
    assert len(originals) == 8
    for name, doc in originals.items():
        commands, wheres = REPLAYS[doc["kind"]]
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert [_run([command, str(path)])[0] for command in commands] == [1 if "broken" in name else 0] * len(commands), name
        for key, where in wheres.items():
            for label in doc["body"][key]["ids"]:
                bad = json.loads(json.dumps(doc))
                del bad["body"][key]["ids"][label]
                path.write_text(json.dumps(bad))
                for command in commands:
                    code, out, _ = _run([command, str(path)])
                    report = json.loads(out)
                    assert code == 1 and f"category_axioms@{where}" in _failed(report), (name, key, label, command)
                    if command == "check-sod":
                        assert [row[0] for row in report["tables"]["audit"][1:3]] == ["category_axioms", "semiorthogonality"], (name, label)
