"""Byte-identity guard for CLI reports.

tests/golden/cli_report_digests.json holds SHA-256 digests of the reports
that `dgcat` prints on the `dgcat fixtures` documents over Q, together with
each exit code and the bytes of the ledger that `ring relate --claim`
writes.  Before hashing, the `timing_ms` field (JSON) or `_timing:` line
(markdown) is dropped and the fixture directory is replaced by `<docs>`, so
a digest changes only when what a report says changes.
"""

import contextlib
import hashlib
import io
import json
import os

from dgcat import schema
from dgcat.cli import main, write_fixture_documents

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_report_digests.json")
EXT_CATEGORIES = ("point", "epsilon", "a2", "kronecker", "beilinson3", "kronecker_x_a2")
SOD_CLAIMS = ("kronecker", "kronecker_broken", "beilinson3", "kronecker_squared")
SERRE_FIXTURES = ("a2", "point", "kronecker-identity")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_runs(docs, out_dir):
    """(name, argv) of every guarded report."""
    tc = os.path.join(docs, "kronecker_ev.twisted-complex.json")
    ledger = os.path.join(docs, "motivic.ledger.json")
    runs = [(f"validate/{name}", ["validate", os.path.join(docs, name)]) for name in sorted(os.listdir(docs))]
    runs += [(f"ext/{c}", ["ext", os.path.join(docs, f"{c}.category.json")]) for c in EXT_CATEGORIES]
    for claim in SOD_CLAIMS:
        for fmt in ("json", "md"):
            runs.append((f"check-sod/{claim}/{fmt}", ["--output", fmt, "check-sod", os.path.join(docs, f"{claim}.sod-claim.json")]))
    runs.append(("cone/ev", ["cone", tc, "--morphism", "ev"]))
    runs += [(f"reduce/{c}", ["reduce", tc, "--complex", c]) for c in ("cone_id_e1", "cone_ev")]
    runs.append(("check-qe", ["check-qe", os.path.join(docs, "kronecker_block_e1_point.equiv-certificate.json")]))
    runs += [(f"serre/{f}", ["serre", "--fixture", f]) for f in SERRE_FIXTURES]
    runs.append(("ring/eq/equal", ["ring", ledger, "eq", "[P1]*[P1]", "4*[pt]"]))
    runs.append(("ring/eq/unequal", ["ring", ledger, "eq", "[P1]", "3*[pt]"]))
    runs.append(("ring/measure", ["ring", ledger, "measure"]))
    runs.append(("ring/invariants", ["ring", ledger, "invariants"]))
    claim = os.path.join(docs, "kronecker.sod-claim.json")
    runs.append(("ring/relate-claim", ["ring", ledger, "relate", "--claim", claim, "--label", "P1", "--out", os.path.join(out_dir, "related.ledger.json")]))
    return runs


def _normalise(text, docs):
    text = text.replace(docs, "<docs>")
    if text.startswith("{"):
        rep = json.loads(text)
        rep.pop("timing_ms", None)
        return json.dumps(rep, sort_keys=True, separators=(",", ": "), ensure_ascii=True) + "\n"
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("_timing:"))


def _report_digests(docs, out_dir, keep=lambda name: True):
    """Digest of each guarded report on the documents in docs whose name
    keep accepts, and of the ledger that ring relate --claim writes."""
    os.makedirs(out_dir)
    out = {}
    for name, argv in _cli_runs(docs, out_dir):
        if not keep(name):
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out[name] = _sha256(f"exit {code}\n" + _normalise(buf.getvalue(), docs))
    with open(os.path.join(out_dir, "related.ledger.json"), encoding="utf-8") as fh:
        out["ring/relate-claim/ledger"] = _sha256(fh.read())
    return out


def cli_report_digests(tmp_dir):
    """Digest of every guarded report (and written ledger), keyed by name."""
    docs = os.path.join(tmp_dir, "docs")
    write_fixture_documents(docs)
    return _report_digests(docs, os.path.join(tmp_dir, "out"))


def test_cli_reports_match_golden_digests(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert cli_report_digests(str(tmp_path)) == golden


# Older forms of the shipped ledger: as written while its point-sod facts
# carried a claim and every product fact a product kind (size and SHA-256),
# then with its products also stored as full category bodies, and the
# SHA-256 of the ledger that ring relate --claim writes from the latter.
CLAIMS_LEDGER = (6200, "268e80ff82aadfaaf4eaa16e8611f40e174237db16829acf469c2c62c3a6fd3e")
EXPLICIT_LEDGER = (16304, "fae94e9736a661a6e9dc5b28b235ffdf9f5429098051a7b42de18c39fb7bbbf1")
EXPLICIT_RELATED_LEDGER = "7af01a108ffc7e7718c7cb41a2bdd312920f8b3d0f3f6fbb075f7b1a103ff6d8"


def test_a_ledger_with_explicit_product_bodies_reads_as_before(tmp_path):
    """The shipped ledger with each fact's claim and product kind put back
    is the older shipped document byte for byte, and with its tensor
    references also written out as full bodies, the older explicit-body
    document.  Both parse and re-write without those keys, and every
    guarded ring command reports on each what it reports on the shipped
    ledger; ring relate --claim writes the shipped form's bytes from the
    first and the explicit-body form's from the second."""
    from ledger_docs import with_explicit_bodies, with_fact_claims

    docs = tmp_path / "docs"
    write_fixture_documents(str(docs))
    shipped = (docs / "motivic.ledger.json").read_text()
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = {name: d for name, d in json.load(fh).items() if name.startswith("ring/")}
    for form, text, size_digest, rewritten, related in (
        ("claims", with_fact_claims(shipped), CLAIMS_LEDGER, shipped, golden["ring/relate-claim/ledger"]),
        ("explicit", with_explicit_bodies(with_fact_claims(shipped)), EXPLICIT_LEDGER, with_explicit_bodies(shipped), EXPLICIT_RELATED_LEDGER),
    ):
        assert (len(text), _sha256(text)) == size_digest, form
        kind, field, led = schema.parse_document(text)
        assert schema.dumps(schema.document(kind, field, schema.ledger_to_json(led, field))) == rewritten, form
        (docs / "motivic.ledger.json").write_text(text)
        digests = _report_digests(str(docs), str(tmp_path / form), keep=lambda name: name.startswith("ring/"))
        assert digests == {**golden, "ring/relate-claim/ledger": related}, form
