"""Ledger documents derived from the shipped one: the same ledger with its
tensor references written out as full category bodies (the form every
ledger had before references existed), and a ledger whose P2 category
breaks the unit law."""

import json

from dgcat import schema


def with_explicit_bodies(text):
    """The ledger document text with each {"tensor": [a, b]} category
    replaced by the full body of the category it names."""
    _, _, led = schema.parse_document(text)
    doc = json.loads(text)
    for g in doc["body"]["generators"]:
        if isinstance(g["category"], dict) and "tensor" in g["category"]:
            g["category"] = schema.category_to_json(led.generators[g["label"]].payload)
    return schema.dumps(doc)


def broken_unit(text):
    """The ledger document text with id_v1·x = 2x in P2's category (the
    first row of comp["v1|v1|v2"] scaled by 2) and without the P1·P2
    generator-mode fact, whose comparison of tensor(P1, P2) with an
    explicit P1xP2 body would otherwise catch the change."""
    doc = json.loads(text)
    p2 = next(g for g in doc["body"]["generators"] if g["label"] == "P2")
    row = p2["category"]["comp"]["v1|v1|v2"][0]
    assert row[:4] == [0, 0, 0, 0] and row[4] == {"0": "1"}
    row[4] = {"0": "2"}
    doc["body"]["facts"] = [f for f in doc["body"]["facts"] if f["pair"] != ["P1", "P2"]]
    return schema.dumps(doc)
