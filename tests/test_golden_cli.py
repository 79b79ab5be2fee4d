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


def cli_report_digests(tmp_dir):
    """Digest of every guarded report (and written ledger), keyed by name."""
    docs = os.path.join(tmp_dir, "docs")
    out_dir = os.path.join(tmp_dir, "out")
    os.makedirs(out_dir)
    write_fixture_documents(docs)
    out = {}
    for name, argv in _cli_runs(docs, out_dir):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out[name] = _sha256(f"exit {code}\n" + _normalise(buf.getvalue(), docs))
    with open(os.path.join(out_dir, "related.ledger.json"), encoding="utf-8") as fh:
        out["ring/relate-claim/ledger"] = _sha256(fh.read())
    return out


def test_cli_reports_match_golden_digests(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert cli_report_digests(str(tmp_path)) == golden
