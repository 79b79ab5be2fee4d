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
    """A list block ident is ["generator", <label>] and nothing else: the
    shipped ledger with one point ident replaced by [], ["generator"] or
    ["generator", 7] exits 2 under validate and ring, without a traceback."""
    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    ledger = json.loads((docs / "motivic.ledger.json").read_text())
    for n, ident in enumerate(([], ["generator"], ["generator", 7])):
        bad = json.loads(json.dumps(ledger))
        bad["body"]["relations"][1]["provenance"]["payload"]["block_idents"][0] = ident
        path = tmp_path / f"ident{n}.ledger.json"
        path.write_text(json.dumps(bad))
        for argv in (["validate", str(path)], ["ring", str(path), "invariants"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main(argv) == 2, (ident, argv)
            assert "block ident" in json.loads(err.getvalue())["error"], (ident, argv)


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
