"""Seeded fuzz of the document decoders: a malformed document is an input
error (exit code 2) or a failed check (exit code 1), never a traceback."""

import contextlib
import io
import json
import random

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
