"""Byte-identity guard for quiver presentations.

tests/golden/quiver_digests.json holds SHA-256 digests of the `dgcat
fixtures` documents over Q and F_32003 and of seeded skew Beilinson quivers
written through the schema writer.  The chosen path bases and the structure
constants are part of every document, so any change to how `from_quiver`
picks a basis or reduces a composite shows up here.
"""

import hashlib
import json
import os

from dgcat import schema
from dgcat.cli import write_fixture_documents
from dgcat.exactlin import field_from_spec

from gens import skew_beilinson_quiver

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "quiver_digests.json")
FIELDS = ("Q", "Fp:32003")
# (m, k, seed): O..O(k) on P^{m-1}; the seeds give q_ij that are never +-1.
# P^5 is the size where integer-row elimination over Q grows its entries most.
SKEW_QUIVERS = ((4, 3, 11), (3, 4, 12), (6, 5, 13))


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quiver_digests(tmp_dir):
    """Digest of every guarded document, keyed by a readable name."""
    out = {}
    for spec in FIELDS:
        out_dir = os.path.join(tmp_dir, spec.replace(":", "_"))
        for name, path in sorted(write_fixture_documents(out_dir, spec).items()):
            with open(path, encoding="utf-8") as fh:
                out[f"fixtures/{spec}/{name}"] = _sha256(fh.read())
        field = field_from_spec(spec)
        for m, k, seed in SKEW_QUIVERS:
            cat = skew_beilinson_quiver(field, m, k, seed)
            doc = schema.document("category", field, schema.category_to_json(cat))
            out[f"skew_beilinson/{spec}/m={m},k={k},seed={seed}"] = _sha256(schema.dumps(doc))
    return out


def test_quiver_documents_match_golden_digests(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert quiver_digests(str(tmp_path)) == golden
