"""Document schema: canonical JSON serialization for categories, functors,
twisted complexes, certificates, claims, and ledgers.

Exact scalars are encoded as strings ("3/7", "5 mod 101").  Serialization is
canonical (sorted keys, sorted sparse entries, fixed separators), so
parse -> serialize round-trips byte-identically.  Ledgers are parsed by
replaying registrations, relations, and facts, which re-runs all provenance
verification on ingestion; a generator whose category tensor() built from
two registered ones is written as {"tensor": [a, b]} and rebuilt on parse.
"""

from __future__ import annotations

import json

from .dgcore import DGCategory, Hom, Morphism, ObjId, tensor
from .exactlin import ChainComplex, FieldMismatch, Matrix, ShapeMismatch, field_from_spec
from .functors import DGFunctor, EquivCertificate
from .pretr import KaroubiObject, Term, TwistedComplex, TwistedMorphism
from .ptring import ClassExpr, Ledger, Provenance, ProvenanceError, SODProvenance, TensorProvenance
from .sodgen import ConeStep, CutWitness, GenerationCertificate, Leaf, SODClaim, Sum, Summand

SCHEMA_VERSION = 1

KINDS = ("category", "functor", "twisted-complex", "gen-certificate", "sod-claim", "equiv-certificate", "ledger")


class DocumentError(Exception):
    pass


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer", bool: "a boolean", float: "a number", type(None): "null"}


def _node(x, kind, what):
    """x itself if it is a JSON value of the Python type kind (a boolean is
    not an integer), else a DocumentError naming the node."""
    if type(x) is not kind:
        raise DocumentError(f"{what} must be {_JSON_TYPES[kind]}, found {_JSON_TYPES.get(type(x), type(x).__name__)}")
    return x


def _index(x, n, what):
    """x itself if it is an integer in [0, n), else a DocumentError."""
    if type(x) is not int or not 0 <= x < n:
        raise DocumentError(f"{what} must be an integer in [0, {n}), found {x!r}")
    return x


def _obj(cat, label):
    return cat.obj(_node(label, str, "an object label"))


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "kind" not in doc or "body" not in doc or "field" not in doc:
        raise DocumentError("document must have kind, field, body")
    _node(doc["field"], str, "field")
    _node(doc["body"], dict, "body")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {doc.get('schema_version')!r}")
    if doc["kind"] not in KINDS:
        raise DocumentError(f"unknown document kind {doc['kind']!r}")
    return doc


def document(kind, field, body):
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "field": field.name if hasattr(field, "name") else field, "body": body}


# -- scalars / matrices / complexes -------------------------------------------


def matrix_to_json(m):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[i, j, m.field.format(v)] for (i, j), v in sorted(m.entries.items())],
    }


def matrix_from_json(field, data):
    _node(data, dict, "a matrix")
    rows, cols = _node(data["rows"], int, "matrix rows"), _node(data["cols"], int, "matrix cols")
    try:
        ent = {(i, j): field.parse(s) for i, j, s in _node(data["entries"], list, "matrix entries")}
        return Matrix(field, rows, cols, ent)
    except (TypeError, AttributeError, FieldMismatch, ShapeMismatch) as e:  # an entry that is not [row, col, scalar] in range
        raise DocumentError(f"malformed matrix entry: {e}") from e


def complex_to_json(c):
    return {
        "dims": {str(n): d for n, d in sorted(c.dims.items())},
        "diff": {str(n): matrix_to_json(m) for n, m in sorted(c.diff.items())},
    }


def complex_from_json(field, data):
    _node(data, dict, "a complex")
    dims = {int(n): _node(d, int, "a dimension") for n, d in _node(data["dims"], dict, "dims").items()}
    diff = {int(n): matrix_from_json(field, m) for n, m in _node(data["diff"], dict, "diff").items()}
    return ChainComplex(field, dims, diff)


# -- categories ----------------------------------------------------------------


def _coords_to_json(field, coords):
    return {str(i): field.format(v) for i, v in sorted(coords.items())}


def _coords_from_json(field, data):
    try:
        return {int(i): field.parse(s) for i, s in data.items()}
    except (TypeError, AttributeError, FieldMismatch) as e:  # not an object of scalar strings of the field
        raise DocumentError(f"malformed coordinates: {e}") from e


def _morphism_from_json(field, homs, src, dst, data):
    """A morphism src -> dst whose coordinates index the basis of homs[(src, dst)] in its degree."""
    _node(data, dict, "a morphism")
    degree = _node(data["degree"], int, "a degree")
    coords = _coords_from_json(field, data["coords"])
    dim = homs[(src, dst)].complex.dims.get(degree, 0) if (src, dst) in homs else 0
    if any(not 0 <= k < dim for k in coords):
        raise DocumentError(f"morphism {src.label} -> {dst.label}: a coordinate lies outside the basis of its Hom in degree {degree}")
    return Morphism(src, dst, degree, coords)


def category_to_json(cat):
    body = {
        "name": cat.name,
        "objects": [o.label for o in cat.objects],
        "homs": {},
        "comp": {},
        "ids": {},
    }
    for (a, b), h in sorted(cat.homs.items(), key=lambda kv: (kv[0][0].index, kv[0][1].index)):
        body["homs"][f"{a.label}|{b.label}"] = {
            "complex": complex_to_json(h.complex),
            "names": {str(n): list(names) for n, names in sorted(h.names.items())},
        }
    for (a, b, c), table in sorted(cat.comp.items(), key=lambda kv: (kv[0][0].index, kv[0][1].index, kv[0][2].index)):
        rows = []
        for (p, i, q, j), cons in sorted(table.items()):
            rows.append([p, i, q, j, _coords_to_json(cat.field, cons)])
        body["comp"][f"{a.label}|{b.label}|{c.label}"] = rows
    for o, m in sorted(cat.ids.items(), key=lambda kv: kv[0].index):
        body["ids"][o.label] = {"degree": m.degree, "coords": _coords_to_json(cat.field, m.coords)}
    return body


def category_from_json(field, body):
    _node(body, dict, "a category")
    objects = tuple(ObjId(_node(lbl, str, "an object label"), i) for i, lbl in enumerate(_node(body["objects"], list, "objects")))
    by_label = {o.label: o for o in objects}
    homs = {}
    for key, data in _node(body["homs"], dict, "homs").items():
        a, b = key.split("|")
        _node(data, dict, "a Hom")
        names = {int(n): tuple(_node(x, str, "a basis name") for x in _node(v, list, "basis names")) for n, v in _node(data["names"], dict, "names").items()}
        cx = complex_from_json(field, data["complex"])
        if any(len(names.get(n, ())) != cx.dims.get(n, 0) for n in {*names, *cx.dims}):
            raise DocumentError(f"Hom {key}: each degree needs one basis name per dimension")
        homs[(by_label[a], by_label[b])] = Hom(cx, names)
    comp = {}
    for key, rows in _node(body["comp"], dict, "comp").items():
        a, b, c = (by_label[x] for x in key.split("|"))
        dims_ab, dims_bc, dims_ac = (homs[h].complex.dims if h in homs else {} for h in ((a, b), (b, c), (a, c)))
        table = {}
        for row in _node(rows, list, "a comp table"):
            p, i, q, j, cons = _node(row, list, "a comp row")
            if not type(p) is type(i) is type(q) is type(j) is int:
                raise DocumentError(f"comp row {key} {row!r}: degrees and indices must be integers")
            coords = _coords_from_json(field, cons)
            dim_ac = dims_ac.get(p + q, 0)
            if not (0 <= i < dims_ab.get(p, 0) and 0 <= j < dims_bc.get(q, 0)) or any(not 0 <= k < dim_ac for k in coords):
                raise DocumentError(f"comp row {key} {row!r}: an index lies outside the basis of its Hom and degree")
            table[(p, i, q, j)] = coords
        comp[(a, b, c)] = table
    ids = {}
    for lbl, data in _node(body["ids"], dict, "ids").items():
        o = by_label[lbl]
        ids[o] = _morphism_from_json(field, homs, o, o, data)
    return DGCategory(field, objects, homs, comp, ids, name=_node(body.get("name", ""), str, "a category name"))


# -- twisted complexes ----------------------------------------------------------


def tc_to_json(x):
    return {
        "terms": [[t.obj.label, t.shift] for t in x.terms],
        "q": [
            [i, j, {"degree": m.degree, "coords": _coords_to_json(x.cat.field, m.coords)}]
            for (i, j), m in sorted(x.q.items())
        ],
    }


def tc_from_json(cat, data):
    _node(data, dict, "a twisted complex")
    terms = []
    for term in _node(data["terms"], list, "terms"):
        lbl, s = _node(term, list, "a term")
        terms.append(Term(_obj(cat, lbl), _node(s, int, "a shift")))
    q = {}
    for entry in _node(data["q"], list, "q"):
        i, j, m = _node(entry, list, "a q entry")
        i, j = _index(i, len(terms), "a term index"), _index(j, len(terms), "a term index")
        q[(i, j)] = _morphism_from_json(cat.field, cat.homs, terms[j].obj, terms[i].obj, m)
    return TwistedComplex(cat, terms, q)


def tm_to_json(f):
    return {
        "src": tc_to_json(f.src),
        "dst": tc_to_json(f.dst),
        "degree": f.degree,
        "entries": [
            [i, j, {"degree": m.degree, "coords": _coords_to_json(f.src.cat.field, m.coords)}]
            for (i, j), m in sorted(f.entries.items())
        ],
    }


def tm_from_json(cat, data):
    _node(data, dict, "a twisted morphism")
    src = tc_from_json(cat, data["src"])
    dst = tc_from_json(cat, data["dst"])
    entries = {}
    for entry in _node(data["entries"], list, "entries"):
        i, j, m = _node(entry, list, "an entry")
        i, j = _index(i, len(dst.terms), "a term index"), _index(j, len(src.terms), "a term index")
        entries[(i, j)] = _morphism_from_json(cat.field, cat.homs, src.terms[j].obj, dst.terms[i].obj, m)
    return TwistedMorphism(src, dst, _node(data["degree"], int, "a degree"), entries)


def tc_bundle_to_json(cat, complexes=None, morphisms=None, idempotents=None):
    """The twisted-complex document body: a category with named complexes,
    morphisms, and idempotent witnesses."""
    body = {"category": category_to_json(cat), "complexes": {}, "morphisms": {}, "idempotents": {}}
    for name, x in (complexes or {}).items():
        body["complexes"][name] = tc_to_json(x)
    for name, f in (morphisms or {}).items():
        body["morphisms"][name] = tm_to_json(f)
    for name, k in (idempotents or {}).items():
        body["idempotents"][name] = {
            "carrier": tc_to_json(k.carrier),
            "e": tm_to_json(k.e),
            "h": tm_to_json(k.h),
        }
    return body


def tc_bundle_from_json(field, body):
    cat = category_from_json(field, body["category"])
    complexes = {name: tc_from_json(cat, d) for name, d in _node(body.get("complexes", {}), dict, "complexes").items()}
    morphisms = {name: tm_from_json(cat, d) for name, d in _node(body.get("morphisms", {}), dict, "morphisms").items()}
    idempotents = {}
    for name, d in _node(body.get("idempotents", {}), dict, "idempotents").items():
        _node(d, dict, "an idempotent")
        idempotents[name] = KaroubiObject(
            tc_from_json(cat, d["carrier"]), tm_from_json(cat, d["e"]), tm_from_json(cat, d["h"])
        )
    return cat, complexes, morphisms, idempotents


# -- functors and equivalence certificates ---------------------------------------


def functor_to_json(fun):
    return {
        "name": fun.name,
        "src_category": category_to_json(fun.src),
        "dst_category": category_to_json(fun.dst),
        "obj_map": {a.label: b.label for a, b in sorted(fun.obj_map.items(), key=lambda kv: kv[0].index)},
        "mor_maps": {
            f"{a.label}|{b.label}": {str(n): matrix_to_json(m) for n, m in sorted(per.items())}
            for (a, b), per in sorted(fun.mor_maps.items(), key=lambda kv: (kv[0][0].index, kv[0][1].index))
        },
    }


def functor_from_json(field, body):
    src = category_from_json(field, _node(body, dict, "a functor")["src_category"])
    dst = category_from_json(field, body["dst_category"])
    obj_map = {src.obj(a): _obj(dst, b) for a, b in _node(body["obj_map"], dict, "obj_map").items()}
    mor_maps = {}
    for key, per in _node(body["mor_maps"], dict, "mor_maps").items():
        a, b = key.split("|")
        mor_maps[(src.obj(a), src.obj(b))] = {int(n): matrix_from_json(field, m) for n, m in _node(per, dict, "a morphism map").items()}
    return DGFunctor(src, dst, obj_map, mor_maps, name=_node(body.get("name", ""), str, "a functor name"))


def equiv_cert_to_json(cert):
    body = functor_to_json(cert.functor)
    body["witnesses"] = {
        o.label: {"complex": tc_to_json(tc), "morphism": tm_to_json(f)}
        for o, (tc, f) in sorted(cert.witnesses.items(), key=lambda kv: kv[0].index)
    }
    return body


def equiv_cert_from_json(field, body):
    fun = functor_from_json(field, body)
    witnesses = {}
    for lbl, data in _node(body["witnesses"], dict, "witnesses").items():
        o = fun.dst.obj(lbl)
        _node(data, dict, "a witness")
        witnesses[o] = (tc_from_json(fun.dst, data["complex"]), tm_from_json(fun.dst, data["morphism"]))
    return EquivCertificate(fun, witnesses)


# -- generation certificates and SOD claims ---------------------------------------


def _step_to_json(cat, step):
    if isinstance(step, Leaf):
        return {"kind": "leaf", "gen": step.gen.label, "shift": step.shift}
    if isinstance(step, Sum):
        return {"kind": "sum", "refs": list(step.refs)}
    if isinstance(step, ConeStep):
        return {"kind": "cone", "c_ref": step.c_ref, "d_ref": step.d_ref, "morphism": tm_to_json(step.morphism)}
    if isinstance(step, Summand):
        return {"kind": "summand", "ref": step.ref, "e": tm_to_json(step.e), "h": tm_to_json(step.h)}
    raise DocumentError(f"unknown step {step!r}")


def _step_from_json(cat, data):
    kind = _node(data, dict, "a step")["kind"]
    if kind == "leaf":
        return Leaf(_obj(cat, data["gen"]), _node(data["shift"], int, "a shift"))
    if kind == "sum":
        return Sum(tuple(_node(r, int, "a step reference") for r in _node(data["refs"], list, "refs")))
    if kind == "cone":
        return ConeStep(_node(data["c_ref"], int, "a step reference"), _node(data["d_ref"], int, "a step reference"), tm_from_json(cat, data["morphism"]))
    if kind == "summand":
        return Summand(_node(data["ref"], int, "a step reference"), tm_from_json(cat, data["e"]), tm_from_json(cat, data["h"]))
    raise DocumentError(f"unknown step kind {kind!r}")


def gencert_to_json(cat, cert, with_category=True):
    body = {
        "generators": [g.label for g in cert.generators],
        "steps": [_step_to_json(cat, s) for s in cert.steps],
        "target": tc_to_json(cert.target),
        "final_iso": tm_to_json(cert.final_iso) if cert.final_iso is not None else None,
    }
    if with_category:
        body["category"] = category_to_json(cat)
    return body


def gencert_from_json(cat, body):
    _node(body, dict, "a generation certificate")
    return GenerationCertificate(
        tuple(_obj(cat, lbl) for lbl in _node(body["generators"], list, "generators")),
        tuple(_step_from_json(cat, s) for s in _node(body["steps"], list, "steps")),
        tc_from_json(cat, body["target"]),
        tm_from_json(cat, body["final_iso"]) if body["final_iso"] is not None else None,
    )


def sod_claim_to_json(cat, claim, with_category=True):
    body = {
        "ambient_generators": [g.label for g in claim.ambient_generators],
        "blocks": [[g.label for g in b] for b in claim.blocks],
        "admissibility": [
            {
                "generator": lbl,
                "cut": cut,
                "u": tm_to_json(w.u),
                "late_cert": gencert_to_json(cat, w.late_cert, with_category=False),
                "early_cert": gencert_to_json(cat, w.early_cert, with_category=False),
            }
            for (lbl, cut), w in sorted(claim.admissibility.items())
        ],
    }
    if with_category:
        body["category"] = category_to_json(cat)
    return body


def sod_claim_from_json(cat, body):
    _node(body, dict, "an SOD claim")
    admissibility = {}
    for item in _node(body["admissibility"], list, "admissibility"):
        _node(item, dict, "a cut witness")
        admissibility[(_node(item["generator"], str, "a generator label"), _node(item["cut"], int, "a cut"))] = CutWitness(
            tm_from_json(cat, item["u"]),
            gencert_from_json(cat, item["late_cert"]),
            gencert_from_json(cat, item["early_cert"]),
        )
    return SODClaim(
        tuple(_obj(cat, lbl) for lbl in _node(body["ambient_generators"], list, "ambient_generators")),
        tuple(tuple(_obj(cat, lbl) for lbl in _node(b, list, "a block")) for b in _node(body["blocks"], list, "blocks")),
        admissibility,
    )


# -- ledgers ---------------------------------------------------------------------


def _provenance_to_json(ledger, prov):
    out = {"kind": prov.kind, "citation": prov.citation}
    p = prov.payload
    if isinstance(p, SODProvenance):
        info = ledger.generators[p.label]
        out["payload"] = {
            "type": "sod",
            "label": p.label,
            "claim": sod_claim_to_json(info.payload, p.claim, with_category=False),
            "block_values": [v.format() for v in p.block_values],
            "block_idents": [list(i) if isinstance(i, tuple) else i for i in p.block_idents],
        }
    elif isinstance(p, TensorProvenance):
        out["payload"] = {"type": "tensor", "mode": p.mode, "product_kind": p.product_kind}
        if p.claim is not None:
            out["payload"]["claim"] = sod_claim_to_json(p.category, p.claim, with_category=False)
    elif p is None:
        out["payload"] = None
    else:
        raise DocumentError(f"unserializable provenance payload {p!r}")
    return out


def _payload_category(generators, label):
    cat = generators[label].payload
    if cat is None:
        raise DocumentError(f"generator {label} has no category to carry a claim")
    return cat


def _block_ident(i):
    """A block identification: a string, or ["generator", <label>]."""
    if type(i) is list:
        if len(i) != 2 or i[0] != "generator" or type(i[1]) is not str:
            raise DocumentError(f'a list block ident must be ["generator", <label>], found {i!r}')
        return tuple(i)
    return _node(i, str, "a block ident")


def _provenance_from_json(generators, pair_or_label, data):
    _node(data, dict, "a provenance")
    kind, citation = _node(data["kind"], str, "a provenance kind"), _node(data.get("citation", ""), str, "a citation")
    payload = data.get("payload")
    if payload is None:
        return Provenance(kind, citation)
    if _node(payload, dict, "a provenance payload")["type"] == "sod":
        label = _node(payload["label"], str, "a generator label")
        claim = sod_claim_from_json(_payload_category(generators, label), payload["claim"])
        p = SODProvenance(
            label,
            claim,
            tuple(_class_expr(v) for v in _node(payload["block_values"], list, "block_values")),
            tuple(_block_ident(i) for i in _node(payload["block_idents"], list, "block_idents")),
        )
        return Provenance(kind, citation, p)
    if payload["type"] == "tensor":
        claim = t = None
        if "claim" in payload:
            a, b = pair_or_label
            t = tensor(_payload_category(generators, a), _payload_category(generators, b))
            claim = sod_claim_from_json(t, payload["claim"])
        mode, product_kind = _node(payload["mode"], str, "a tensor mode"), _node(payload.get("product_kind", "bullet"), str, "a product kind")
        return Provenance(kind, citation, TensorProvenance(mode, claim, product_kind, t))
    raise DocumentError(f"unknown provenance payload type {payload['type']!r}")


def _generator_categories(ledger):
    """{label: category entry} of a ledger's generators: {"tensor": [a, b]}
    when tensor() built the payload from the payloads of the generators a
    and b themselves (the first label in sorted order names a payload
    registered twice), else the full body, or None."""
    owner = {}
    for lbl in sorted(ledger.generators):
        if ledger.generators[lbl].payload is not None:
            owner.setdefault(id(ledger.generators[lbl].payload), lbl)
    out = {}
    for lbl, info in ledger.generators.items():
        refs = [owner.get(id(f)) for f in getattr(info.payload, "factors", ())]
        if len(refs) == 2 and None not in refs:
            out[lbl] = {"tensor": refs}
        else:
            out[lbl] = category_to_json(info.payload) if info.payload is not None else None
    return out


def ledger_to_json(ledger, field):
    categories = _generator_categories(ledger)
    body = {
        "flavor": ledger.flavor,
        "degree_bound": ledger.degree_bound,
        "generators": [
            {
                "label": info.label,
                "unit_alias": info.unit_alias,
                "geometric": info.geometric,
                "category": categories[info.label],
            }
            for info in (ledger.generators[lbl] for lbl in sorted(ledger.generators))
        ],
        "relations": [
            {"expr": r.expr.format(), "provenance": _provenance_to_json(ledger, r.provenance)} for r in ledger.relations
        ],
        "facts": [
            {"pair": list(f.pair), "value": f.value.format(), "provenance": _provenance_to_json(ledger, f.provenance)}
            for f in (ledger.facts[k] for k in sorted(ledger.facts))
        ],
    }
    return body


def _generator_categories_from_json(field, generators):
    """{label: category or None} of a ledger's generator list.  Explicit
    bodies are decoded and must satisfy the category axioms (a
    ProvenanceError names the generator); then each {"tensor": [a, b]}
    reference is built as tensor(category of a, category of b), factors
    first; a reference to an unknown label or to a generator without a
    category, or a cycle of references, is a DocumentError.  A tensor of
    two valid categories is valid (TensorCategory.validate), so references
    need no walk."""
    cats, refs = {}, {}
    for g in generators:
        label = _node(_node(g, dict, "a generator")["label"], str, "a generator label")
        if label in cats or label in refs:
            raise DocumentError(f"generator {label} is listed twice")
        entry = g["category"]
        if type(entry) is dict and "tensor" in entry:
            pair = refs[label] = _node(entry["tensor"], list, f"generator {label}'s tensor reference")
            if len(pair) != 2 or not all(type(x) is str for x in pair):
                raise DocumentError(f"generator {label}: a tensor reference must be two generator labels, found {pair!r}")
        else:
            cats[label] = category_from_json(field, entry) if entry is not None else None
    for label, pair in refs.items():
        for x in pair:
            if x not in cats and x not in refs:
                raise DocumentError(f"generator {label}: tensor reference to unknown generator {x!r}")
            if x in cats and cats[x] is None:
                raise DocumentError(f"generator {label}: tensor factor {x} has no category")
    for label, cat in cats.items():
        if cat is not None and (bad := cat.validate()):
            raise ProvenanceError(f"generator {label}'s category violates the category axioms: {len(bad)} violations, first {bad[0].axiom}@{bad[0].where}")
    while refs:
        ready = [label for label, (a, b) in refs.items() if a in cats and b in cats]
        if not ready:
            raise DocumentError(f"tensor references form a cycle among generators {sorted(refs)}")
        for label in ready:
            a, b = refs.pop(label)
            cats[label] = tensor(cats[a], cats[b])
    return cats


def _class_expr(s):
    return ClassExpr.parse(_node(s, str, "a class expression"))


def ledger_from_json(field, body):
    bound = _node(body["degree_bound"], int, "degree_bound")
    if bound < 0:
        raise DocumentError(f"degree_bound must be a non-negative integer, found {bound}")
    led = Ledger(degree_bound=bound, flavor=_node(body["flavor"], str, "flavor"))
    generators = _node(body["generators"], list, "generators")
    categories = _generator_categories_from_json(field, generators)
    for g in generators:
        flags = _node(g["unit_alias"], bool, "unit_alias"), _node(g["geometric"], bool, "geometric")
        led = led.register_generator(g["label"], categories[g["label"]], unit_alias=flags[0], geometric=flags[1])
    for r in _node(body["relations"], list, "relations"):
        prov = _provenance_from_json(led.generators, None, _node(r, dict, "a relation")["provenance"])
        led = led.add_relation(_class_expr(r["expr"]), prov)
    for f in _node(body["facts"], list, "facts"):
        pair = tuple(_node(_node(f, dict, "a fact")["pair"], list, "a pair"))
        if len(pair) != 2 or not type(pair[0]) is type(pair[1]) is str:
            raise DocumentError(f"a fact's pair must be two generator labels, found {list(pair)!r}")
        prov = _provenance_from_json(led.generators, pair, f["provenance"])
        led = led.add_product_fact(pair[0], pair[1], _class_expr(f["value"]), prov)
    return led


# -- top-level -------------------------------------------------------------------


def parse_document(text):
    doc = loads(text)
    field = field_from_spec(doc["field"])
    kind = doc["kind"]
    body = doc["body"]
    if kind == "category":
        return kind, field, category_from_json(field, body)
    if kind == "functor":
        return kind, field, functor_from_json(field, body)
    if kind == "twisted-complex":
        return kind, field, tc_bundle_from_json(field, body)
    if kind == "gen-certificate":
        cat = category_from_json(field, body["category"])
        return kind, field, (cat, gencert_from_json(cat, body))
    if kind == "sod-claim":
        cat = category_from_json(field, body["category"])
        return kind, field, (cat, sod_claim_from_json(cat, body))
    if kind == "equiv-certificate":
        return kind, field, equiv_cert_from_json(field, body)
    if kind == "ledger":
        return kind, field, ledger_from_json(field, body)
    raise DocumentError(f"unhandled kind {kind}")
