"""Command-line interface.

Exit codes: 0 = pass, 1 = verified failure, 2 = input error.  Reports are
canonical JSON (default) or markdown; the timing_ms field is excluded from
determinism guarantees.  Mutating ring commands write the new ledger version
atomically (write-temp-then-rename).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import fixtures, pretr, schema, sodgen
from .dgcore import tensor
from .exactlin import field_from_spec
from .functors import check_quasi_equiv, functor_as_serre_data, identity_functor, validate_functor, verify_serre
from .pretr import karoubi_hom, reduce as reduce_tc
from .ptring import ClassExpr, ProvenanceError, Provenance, SODProvenance
from .schema import DocumentError


PASS, FAIL, INPUT_ERROR = 0, 1, 2


class CliError(Exception):
    def __init__(self, message, code=INPUT_ERROR):
        super().__init__(message)
        self.code = code


def _read_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    try:
        return schema.parse_document(text)
    except ProvenanceError as e:
        # well-formed document whose claims fail re-verification
        raise CliError(f"{path}: provenance verification failed: {e}", code=FAIL)
    except (DocumentError, KeyError, ValueError) as e:
        raise CliError(f"cannot parse {path}: {e}")


def _expect(kind, got, path):
    if got != kind:
        raise CliError(f"{path}: expected a {kind} document, found {got}")


def _write_atomic(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def emit(report, args, started):
    report["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
    if args.output == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ": "), ensure_ascii=True))
    else:
        print(f"# {' '.join(report['command'])}")
        for v in report.get("verdicts", []):
            print(f"- {v['name']}: {'PASS' if v['ok'] else 'FAIL'}" + (f" ({v['detail']})" if v.get("detail") else ""))
        for name, table in report.get("tables", {}).items():
            print(f"\n## {name}\n")
            for row in table:
                print("| " + " | ".join(str(c) for c in row) + " |")
        if "provenance" in report:
            print("\n## provenance\n")
            for p in report["provenance"]:
                print(f"- {p}")
        print(f"\n_timing: {report['timing_ms']} ms_")


def verdicts_ok(report):
    return all(v["ok"] for v in report["verdicts"])


# -- commands -------------------------------------------------------------------


def cmd_validate(args, started):
    kind, field, payload = _read_document(args.path)
    verdicts = []
    if kind == "category":
        report = payload.validate()
        for v in report[:20]:
            verdicts.append({"name": f"{v.axiom}@{v.where}", "ok": False, "detail": v.detail})
        verdicts.append({"name": "category axioms", "ok": not report, "detail": f"{len(report)} violations"})
    elif kind == "functor":
        report = validate_functor(payload)
        verdicts.append({"name": "functor axioms", "ok": not report, "detail": f"{len(report)} violations"})
    elif kind == "twisted-complex":
        cat, complexes, morphisms, idempotents = payload
        bad = cat.validate()
        verdicts.append({"name": "category axioms", "ok": not bad, "detail": f"{len(bad)} violations"})
        for name, x in sorted(complexes.items()):
            defect = pretr.maurer_cartan_defect(x)
            verdicts.append({"name": f"maurer-cartan {name}", "ok": not defect, "detail": str(sorted(defect)) if defect else ""})
        for name, k in sorted(idempotents.items()):
            verdicts.append({"name": f"idempotent {name}", "ok": k.verify()})
    elif kind == "gen-certificate":
        cat, cert = payload
        res = sodgen.verify_generation(cat, cert)
        verdicts.append({"name": "generation certificate", "ok": res.ok, "detail": f"layers={res.layer_count}" if res.ok else str(res.failures)})
    elif kind == "sod-claim":
        verdict = _check_claim_document(*payload)
        for a in verdict.audit:
            if not a.ok:
                verdicts.append({"name": f"{a.obligation}@{a.where}", "ok": False, "detail": a.detail})
        verdicts.append({"name": "sod claim", "ok": verdict.ok})
    elif kind == "equiv-certificate":
        verdict = check_quasi_equiv(payload)
        verdicts.append({"name": "quasi-equivalence", "ok": verdict.ok, "detail": str(verdict.failures[:3]) if verdict.failures else ""})
    elif kind == "ledger":
        verdicts.append({"name": "ledger replay", "ok": True, "detail": "all provenance re-verified on parse"})
    report = {"command": ["validate", args.path], "verdicts": verdicts}
    emit(report, args, started)
    return PASS if verdicts_ok(report) else FAIL


def cmd_ext(args, started):
    kind, field, cat = _read_document(args.path)
    _expect("category", kind, args.path)
    labels = args.objects.split(",") if args.objects else [o.label for o in cat.objects]
    try:
        objs = [cat.obj(lbl) for lbl in labels]
    except KeyError as e:
        raise CliError(f"unknown object label {e}")
    table = sodgen.ext_table(cat, objs)
    rows = [[""] + labels]
    for lbl, row in zip(labels, table):
        rows.append([lbl] + [json.dumps(cell, sort_keys=True) for cell in row])
    report = {"command": ["ext", args.path], "verdicts": [{"name": "ext table", "ok": True}], "tables": {"ext": rows}}
    emit(report, args, started)
    return PASS


def _check_claim_document(cat, claim):
    """check_sod after a category_axioms entry: the category comes from a
    document, and check_sod's lemma holds only in a DG category."""
    bad = cat.validate()
    verdict = sodgen.check_sod(cat, claim)
    axioms = sodgen.AuditEntry("category_axioms", (), not bad, f"{len(bad)} violations" if bad else "")
    return sodgen.SODVerdict(verdict.ok and not bad, [axioms] + verdict.audit)


def cmd_check_sod(args, started):
    kind, field, payload = _read_document(args.path)
    _expect("sod-claim", kind, args.path)
    verdict = _check_claim_document(*payload)
    audit_rows = [["obligation", "where", "ok", "detail"]]
    for a in verdict.audit:
        audit_rows.append([a.obligation, str(a.where), "ok" if a.ok else "FAIL", a.detail])
    report = {
        "command": ["check-sod", args.path],
        "verdicts": [{"name": "sod claim", "ok": verdict.ok}],
        "tables": {"audit": audit_rows},
    }
    emit(report, args, started)
    return PASS if verdict.ok else FAIL


def _provenance_from_args(args):
    if args.provenance != "external-paper-fact":
        raise CliError("only external-paper-fact provenance can be supplied from the command line; verified provenance requires document payloads")
    if not args.citation:
        raise CliError("external facts require --citation")
    return Provenance("external-paper-fact", citation=args.citation)


def cmd_ring(args, started):
    kind, field, ledger = _read_document(args.path)
    _expect("ledger", kind, args.path)
    stored_bound = ledger.degree_bound
    if args.degree_bound is not None:
        if args.degree_bound < 0:
            raise CliError(f"--degree-bound must be a non-negative integer, found {args.degree_bound}")
        ledger.degree_bound = args.degree_bound
    sub = args.subcommand
    verdicts = []
    provenance = []
    mutated = None
    if sub == "eq":
        try:
            lhs = ClassExpr.parse(args.args[0])
            rhs = ClassExpr.parse(args.args[1])
        except (IndexError, ValueError) as e:
            raise CliError(f"eq needs two class expressions: {e}")
        try:
            rep = ledger.eq_report(lhs, rhs)
        except KeyError as e:
            raise CliError(f"eq: {e}")
        verdicts.append({"name": f"eq({args.args[0]}, {args.args[1]})", "ok": rep["verdict"] == "equal", "detail": rep["verdict"]})
        provenance = [f"{r['tag']} {r['expr']} ({r['citation'] or r['provenance']})" for r in rep["relations"]]
        provenance += [f"{f['tag']} {f['pair'][0]}*{f['pair'][1]} = {f['value']} ({f['citation'] or f['provenance']})" for f in rep["facts"]]
    elif sub == "measure":
        if args.line not in ledger.generators:
            raise CliError(f"measure: no generator {args.line!r} in {args.path}")
        rep = ledger.derive_measure_check(args.line)
        for name, verdict in sorted(rep["checks"].items()):
            verdicts.append({"name": f"mu(L)*[{name}] = [{name}]", "ok": verdict == "equal", "detail": verdict})
        verdicts.append({"name": "measure mu(L) = 1", "ok": rep["pass"]})
    elif sub == "invariants":
        rank, torsion = ledger.group_invariants()
        verdicts.append({"name": "invariants", "ok": True, "detail": f"free rank {rank}, torsion {torsion}"})
    elif sub == "relate":
        if args.claim:
            # machine-verified SOD relation: [label] = sum of point blocks
            ckind, cfield, cpayload = _read_document(args.claim)
            _expect("sod-claim", ckind, args.claim)
            ccat, claim = cpayload
            if not args.label:
                raise CliError("relate --claim requires --label naming the decomposed generator")
            n = len(claim.blocks)
            expr = ClassExpr.gen(args.label).sub(ClassExpr.unit(n))
            prov = Provenance(
                "verified-sod",
                payload=SODProvenance(args.label, claim, tuple(ClassExpr.unit() for _ in range(n)), tuple("point" for _ in range(n)), ccat),
            )
        else:
            try:
                expr = ClassExpr.parse(args.expr)
            except ValueError as e:
                raise CliError(str(e))
            prov = _provenance_from_args(args)
        try:
            ledger = ledger.add_relation(expr, prov)
        except (ProvenanceError, KeyError) as e:
            report = {"command": ["ring", sub], "verdicts": [{"name": "relation ingestion", "ok": False, "detail": str(e)}]}
            emit(report, args, started)
            return FAIL
        verdicts.append({"name": "relation ingested", "ok": True, "detail": expr.format()})
        mutated = ledger
    elif sub == "fact":
        try:
            value = ClassExpr.parse(args.value)
        except ValueError as e:
            raise CliError(str(e))
        try:
            ledger = ledger.add_product_fact(args.a, args.b, value, _provenance_from_args(args))
        except (ProvenanceError, KeyError) as e:
            report = {"command": ["ring", sub], "verdicts": [{"name": "fact ingestion", "ok": False, "detail": str(e)}]}
            emit(report, args, started)
            return FAIL
        verdicts.append({"name": "fact ingested", "ok": True})
        mutated = ledger
    else:
        raise CliError(f"unknown ring subcommand {sub!r}")
    if mutated is not None:
        # --degree-bound bounds this run's queries; the new version keeps the stored bound
        mutated.degree_bound = stored_bound
        out_path = args.out or args.path
        doc = schema.document("ledger", field, schema.ledger_to_json(mutated, field))
        _write_atomic(out_path, schema.dumps(doc))
    report = {"command": ["ring", sub, args.path], "verdicts": verdicts}
    if provenance:
        report["provenance"] = provenance
    emit(report, args, started)
    return PASS if verdicts_ok(report) else FAIL


def cmd_tensor(args, started):
    k1, f1, c1 = _read_document(args.path)
    k2, f2, c2 = _read_document(args.path2)
    _expect("category", k1, args.path)
    _expect("category", k2, args.path2)
    if f1 != f2:
        raise CliError("field mismatch between the two categories")
    t = tensor(c1, c2)
    doc = schema.document("category", f1, schema.category_to_json(t))
    _write_atomic(args.out, schema.dumps(doc))
    report = {"command": ["tensor", args.path, args.path2], "verdicts": [{"name": "tensor written", "ok": True, "detail": args.out}]}
    emit(report, args, started)
    return PASS


def cmd_cone(args, started):
    kind, field, payload = _read_document(args.path)
    _expect("twisted-complex", kind, args.path)
    cat, complexes, morphisms, idempotents = payload
    f = morphisms.get(args.morphism)
    if f is None:
        raise CliError(f"no morphism named {args.morphism!r} in {args.path}")
    try:
        c = pretr.cone(f)
    except ValueError as e:
        report = {"command": ["cone", args.path, args.morphism], "verdicts": [{"name": "cone", "ok": False, "detail": str(e)}]}
        emit(report, args, started)
        return FAIL
    body = schema.tc_bundle_to_json(cat, {"cone": c})
    doc = schema.document("twisted-complex", field, body)
    if args.out:
        _write_atomic(args.out, schema.dumps(doc))
    report = {
        "command": ["cone", args.path, args.morphism],
        "verdicts": [{"name": "cone computed", "ok": True}],
        "document": doc,
    }
    emit(report, args, started)
    return PASS


def cmd_reduce(args, started):
    kind, field, payload = _read_document(args.path)
    _expect("twisted-complex", kind, args.path)
    cat, complexes, morphisms, idempotents = payload
    x = complexes.get(args.complex)
    if x is None:
        raise CliError(f"no complex named {args.complex!r} in {args.path}")
    y, f = reduce_tc(x)
    body = schema.tc_bundle_to_json(cat, {"reduced": y}, {"projection": f})
    doc = schema.document("twisted-complex", field, body)
    if args.out:
        _write_atomic(args.out, schema.dumps(doc))
    report = {
        "command": ["reduce", args.path, args.complex],
        "verdicts": [{"name": "reduce", "ok": True, "detail": f"{len(x.terms)} -> {len(y.terms)} terms"}],
        "document": doc,
    }
    emit(report, args, started)
    return PASS


def cmd_karoubi(args, started):
    kind, field, payload = _read_document(args.path)
    _expect("twisted-complex", kind, args.path)
    cat, complexes, morphisms, idempotents = payload
    ka = idempotents.get(args.a)
    kb = idempotents.get(args.b or args.a)
    if ka is None or kb is None:
        raise CliError("karoubi needs idempotent names present in the document")
    lo, hi = (int(s) for s in args.degrees.split(".."))
    rows = [["degree", "dim"]]
    for n in range(lo, hi + 1):
        try:
            rows.append([n, karoubi_hom(ka, kb, n)])
        except ValueError as e:
            report = {"command": ["karoubi", args.path], "verdicts": [{"name": "karoubi", "ok": False, "detail": str(e)}]}
            emit(report, args, started)
            return FAIL
    report = {"command": ["karoubi", args.path], "verdicts": [{"name": "karoubi dims", "ok": True}], "tables": {"karoubi_hom": rows}}
    emit(report, args, started)
    return PASS


def cmd_check_qe(args, started):
    kind, field, cert = _read_document(args.path)
    _expect("equiv-certificate", kind, args.path)
    verdict = check_quasi_equiv(cert)
    report = {
        "command": ["check-qe", args.path],
        "verdicts": [{"name": "quasi-equivalence", "ok": verdict.ok, "detail": str(verdict.failures[:5]) if verdict.failures else ""}],
    }
    emit(report, args, started)
    return PASS if verdict.ok else FAIL


def cmd_serre(args, started):
    field = field_from_spec(args.field)
    if args.fixture == "a2":
        data, pairings = fixtures.a2_serre_data(field)
    elif args.fixture == "point":
        cat = fixtures.point_category(field)
        data = functor_as_serre_data(identity_functor(cat))
        o = cat.objects[0]
        from .exactlin import Matrix

        pairings = {(o, o, 0): Matrix.identity(field, 1)}
    elif args.fixture == "kronecker-identity":
        data = functor_as_serre_data(identity_functor(fixtures.kronecker_category(field)))
        pairings = {}
    else:
        raise CliError(f"unknown serre fixture {args.fixture!r}")
    verdict = verify_serre(data, pairings)
    report = {
        "command": ["serre", args.fixture],
        "verdicts": [{"name": f"serre {args.fixture}", "ok": verdict.ok, "detail": str(verdict.failures[:3]) if verdict.failures else ""}],
    }
    emit(report, args, started)
    return PASS if verdict.ok else FAIL


def write_fixture_documents(out_dir, field_spec="Q"):
    """Materialize the shipped fixture set as documents; returns the paths."""
    field = field_from_spec(field_spec)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    def put(name, doc):
        path = os.path.join(out_dir, name)
        _write_atomic(path, schema.dumps(doc))
        paths[name] = path

    cats = {
        "point": fixtures.point_category(field),
        "epsilon": fixtures.epsilon_category(field),
        "a2": fixtures.a2_category(field),
        "kronecker": fixtures.kronecker_category(field),
        "beilinson3": fixtures.beilinson3_category(field),
    }
    k2 = cats["kronecker"]
    cats["kronecker_x_kronecker"] = tensor(k2, k2)
    cats["kronecker_x_a2"] = tensor(k2, cats["a2"])
    for name, cat in cats.items():
        put(f"{name}.category.json", schema.document("category", field, schema.category_to_json(cat)))

    ev = fixtures.kronecker_ev_morphism(k2)
    bundle = schema.tc_bundle_to_json(k2, {"e1_squared": ev.src, "cone_ev": pretr.cone(ev), "cone_id_e1": pretr.cone(pretr.identity_morphism(pretr.embed(k2, k2.obj("e1"))))}, {"ev": ev})
    put("kronecker_ev.twisted-complex.json", schema.document("twisted-complex", field, bundle))

    put("kronecker_identity.functor.json", schema.document("functor", field, schema.functor_to_json(identity_functor(k2))))

    e1, e2 = k2.obj("e1"), k2.obj("e2")
    target = pretr.cone(ev)
    cert = sodgen.GenerationCertificate(
        (e1, e2),
        (
            sodgen.Leaf(e2, 0),
            sodgen.Leaf(e1, 1),
            sodgen.Leaf(e1, 1),
            sodgen.Sum((1, 2)),
            sodgen.ConeStep(0, 3, ev),
        ),
        target,
        pretr.identity_morphism(target),
    )
    put("kronecker_ev_cone.gen-certificate.json", schema.document("gen-certificate", field, schema.gencert_to_json(k2, cert)))

    claim = fixtures.kronecker_sod_claim(k2)
    put("kronecker.sod-claim.json", schema.document("sod-claim", field, schema.sod_claim_to_json(k2, claim)))
    broken = fixtures.broken_kronecker_sod_claim(k2)
    put("kronecker_broken.sod-claim.json", schema.document("sod-claim", field, schema.sod_claim_to_json(k2, broken)))
    b3 = cats["beilinson3"]
    put("beilinson3.sod-claim.json", schema.document("sod-claim", field, schema.sod_claim_to_json(b3, fixtures.beilinson_sod_claim(b3))))
    t = cats["kronecker_x_kronecker"]
    put("kronecker_squared.sod-claim.json", schema.document("sod-claim", field, schema.sod_claim_to_json(t, sodgen.exceptional_sod_claim(t, list(t.objects)))))

    led = fixtures.motivic_ledger(field)
    put("motivic.ledger.json", schema.document("ledger", field, schema.ledger_to_json(led, field)))

    from .ptring import point_equivalence_certificate

    cert = point_equivalence_certificate(k2, k2.obj("e1"), cats["point"])
    put("kronecker_block_e1_point.equiv-certificate.json", schema.document("equiv-certificate", field, schema.equiv_cert_to_json(cert)))
    return paths


def cmd_fixtures(args, started):
    paths = write_fixture_documents(args.out, args.field)
    report = {
        "command": ["fixtures", args.out],
        "verdicts": [{"name": "fixtures written", "ok": True, "detail": f"{len(paths)} documents"}],
    }
    emit(report, args, started)
    return PASS


def build_parser():
    p = argparse.ArgumentParser(prog="dgcat", description="Exact computer algebra for finite DG categories")
    p.add_argument("--output", choices=("json", "md"), default="json")
    p.add_argument("--field", default="Q", help='"Q" or "Fp:<prime>" (fixture-producing commands)')
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="validate any document")
    s.add_argument("path")
    s.set_defaults(fn=cmd_validate)

    s = sub.add_parser("ext", help="graded Ext table of a category")
    s.add_argument("path")
    s.add_argument("--objects", default="")
    s.set_defaults(fn=cmd_ext)

    s = sub.add_parser("check-sod", help="verify an SOD claim with full audit trail")
    s.add_argument("path")
    s.set_defaults(fn=cmd_check_sod)

    s = sub.add_parser("ring", help="ledger operations")
    s.add_argument("path")
    s.add_argument("subcommand", choices=("relate", "fact", "eq", "measure", "invariants"))
    s.add_argument("args", nargs="*")
    s.add_argument("--degree-bound", type=int, default=None, help="degree bound for this run's queries; a written ledger keeps its stored bound")
    s.add_argument("--line", default="P1")
    s.add_argument("--expr", default="")
    s.add_argument("--a", default="")
    s.add_argument("--b", default="")
    s.add_argument("--value", default="")
    s.add_argument("--provenance", default="external-paper-fact")
    s.add_argument("--citation", default="")
    s.add_argument("--claim", default="", help="sod-claim document for a verified relation")
    s.add_argument("--label", default="", help="generator decomposed by --claim")
    s.add_argument("--out", default="")
    s.set_defaults(fn=cmd_ring)

    s = sub.add_parser("tensor", help="tensor product of two categories")
    s.add_argument("path")
    s.add_argument("path2")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_tensor)

    s = sub.add_parser("cone", help="cone of a named morphism in a twisted-complex document")
    s.add_argument("path")
    s.add_argument("--morphism", required=True)
    s.add_argument("--out", default="")
    s.set_defaults(fn=cmd_cone)

    s = sub.add_parser("reduce", help="Gaussian elimination of a named twisted complex")
    s.add_argument("path")
    s.add_argument("--complex", required=True)
    s.add_argument("--out", default="")
    s.set_defaults(fn=cmd_reduce)

    s = sub.add_parser("karoubi", help="karoubi_hom dimensions between stored idempotents")
    s.add_argument("path")
    s.add_argument("--a", required=True)
    s.add_argument("--b", default="")
    s.add_argument("--degrees", default="-2..2")
    s.set_defaults(fn=cmd_karoubi)

    s = sub.add_parser("check-qe", help="verify a quasi-equivalence certificate")
    s.add_argument("path")
    s.set_defaults(fn=cmd_check_qe)

    s = sub.add_parser("serre", help="verify a shipped Serre bundle")
    s.add_argument("--fixture", default="a2", choices=("a2", "point", "kronecker-identity"))
    s.set_defaults(fn=cmd_serre)

    s = sub.add_parser("fixtures", help="write the shipped fixture documents")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_fixtures)
    return p


@functools.cache
def _parser():
    """The argument parser, built on the first call; parse_args keeps no
    state between calls, so every in-process command reuses it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        return args.fn(args, started)
    except CliError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return e.code
    except DocumentError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
