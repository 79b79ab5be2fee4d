"""Command-line interface.

Exit codes: 0 = pass, 1 = verified failure, 2 = input error.  Each command
returns its report; main prints it through emit, which gives exit code 0 iff
every verdict holds, and an input error is a JSON error on stderr.  Reports
are canonical JSON (default) or markdown; the timing_ms field is excluded
from determinism guarantees.  Mutating ring commands write the new ledger
version atomically (write-temp-then-rename).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from . import fixtures, pretr, schema, sodgen
from .dgcore import tensor
from .exactlin import Matrix, field_from_spec
from .functors import check_quasi_equiv, functor_as_serre_data, identity_functor, validate_functor, verify_serre
from .pretr import karoubi_hom, reduce as reduce_tc
from .ptring import ClassExpr, ProvenanceError, Provenance, SODProvenance, point_equivalence_certificate
from .schema import DocumentError


PASS, FAIL, INPUT_ERROR = 0, 1, 2


class CliError(Exception):
    def __init__(self, message, code=INPUT_ERROR):
        super().__init__(message)
        self.code = code


def _parse(path):
    """(kind, field, payload) of the document at path."""
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


def _read(path, kind):
    """(field, payload) of the document at path, which must be a kind document."""
    got, field, payload = _parse(path)
    if got != kind:
        raise CliError(f"{path}: expected a {kind} document, found {got}")
    return field, payload


def _write_atomic(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CliError(f"cannot write {path}: {e}")


def emit(report, args, started):
    """Print a command's report with its timing_ms; the exit code is PASS
    iff every verdict holds."""
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
    return PASS if all(v["ok"] for v in report["verdicts"]) else FAIL


# -- commands -------------------------------------------------------------------


def cmd_validate(args):
    kind, _, payload = _parse(args.path)
    verdicts = []
    if kind == "category":
        bad = payload.validate()
        for v in bad[:20]:
            verdicts.append({"name": f"{v.axiom}@{v.where}", "ok": False, "detail": v.detail})
        verdicts.append({"name": "category axioms", "ok": not bad, "detail": f"{len(bad)} violations"})
    elif kind == "functor":
        bad = validate_functor(payload)
        verdicts.append({"name": "functor axioms", "ok": not bad, "detail": f"{len(bad)} violations"})
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
        verdicts.append(_audit_verdict(_axioms_entry(cat)))
    elif kind == "sod-claim":
        verdict = _check_claim_document(*payload)
        verdicts += [_audit_verdict(a) for a in verdict.audit if not a.ok]
        verdicts.append({"name": "sod claim", "ok": verdict.ok})
    elif kind == "equiv-certificate":
        verdict = check_quasi_equiv(payload)
        verdicts.append({"name": "quasi-equivalence", "ok": verdict.ok, "detail": str(verdict.failures[:3]) if verdict.failures else ""})
        verdicts += [_audit_verdict(a) for a in _functor_axioms(payload.functor)]
    elif kind == "ledger":
        verdicts.append({"name": "ledger replay", "ok": True, "detail": "all provenance re-verified on parse"})
    return {"command": ["validate", args.path], "verdicts": verdicts}


def cmd_ext(args):
    _, cat = _read(args.path, "category")
    labels = args.objects.split(",") if args.objects else [o.label for o in cat.objects]
    try:
        objs = [cat.obj(lbl) for lbl in labels]
    except KeyError as e:
        raise CliError(f"unknown object label {e}")
    if bad := _axioms_failure(cat, ["ext", args.path]):
        return bad
    table = sodgen.ext_table(cat, objs)
    rows = [[""] + labels]
    for lbl, row in zip(labels, table):
        rows.append([lbl] + [json.dumps(cell, sort_keys=True) for cell in row])
    return {"command": ["ext", args.path], "verdicts": [{"name": "ext table", "ok": True}], "tables": {"ext": rows}}


def _axioms_entry(cat, where=()):
    """The category_axioms entry of a category read from a document: a
    claim or certificate replayed on it proves nothing outside DG categories."""
    bad = cat.validate()
    return sodgen.AuditEntry("category_axioms", where, not bad, f"{len(bad)} violations" if bad else "")


def _axioms_failure(cat, command):
    """The category_axioms check of a command that computes on a document's
    category: on a violation, the report of the failing verdict alone, since
    nothing computed on a category that is not a DG category means anything;
    None otherwise."""
    axioms = _axioms_entry(cat)
    return None if axioms.ok else {"command": command, "verdicts": [_audit_verdict(axioms)]}


def _functor_axioms(fun):
    """One category_axioms entry per category of an equivalence certificate."""
    return [_axioms_entry(fun.src, "source"), _axioms_entry(fun.dst, "target")]


def _audit_verdict(a):
    return {"name": f"{a.obligation}@{a.where}", "ok": a.ok, "detail": a.detail}


def _check_claim_document(cat, claim):
    """check_sod after a category_axioms entry: the category comes from a
    document, and check_sod's lemma holds only in a DG category."""
    axioms = _axioms_entry(cat)
    verdict = sodgen.check_sod(cat, claim)
    return sodgen.SODVerdict(verdict.ok and axioms.ok, [axioms] + verdict.audit)


def _audit_table(entries):
    return [["obligation", "where", "ok", "detail"]] + [[a.obligation, str(a.where), "ok" if a.ok else "FAIL", a.detail] for a in entries]


def cmd_check_sod(args):
    _, payload = _read(args.path, "sod-claim")
    verdict = _check_claim_document(*payload)
    return {
        "command": ["check-sod", args.path],
        "verdicts": [{"name": "sod claim", "ok": verdict.ok}],
        "tables": {"audit": _audit_table(verdict.audit)},
    }


def _provenance_from_args(args):
    if args.provenance != "external-paper-fact":
        raise CliError("only external-paper-fact provenance can be supplied from the command line; verified provenance requires document payloads")
    if not args.citation:
        raise CliError("external facts require --citation")
    return Provenance("external-paper-fact", citation=args.citation)


def cmd_ring(args):
    field, ledger = _read(args.path, "ledger")
    stored_bound = ledger.degree_bound
    if args.degree_bound is not None:
        if args.degree_bound < 0:
            raise CliError(f"--degree-bound must be a non-negative integer, found {args.degree_bound}")
        ledger.degree_bound = args.degree_bound
    sub = args.subcommand
    command = ["ring", sub, args.path]
    verdicts = []
    provenance = []
    mutated = None
    if sub == "eq":
        if len(args.args) != 2:
            raise CliError(f"eq takes exactly two class expressions, found {len(args.args)}")
        try:
            lhs, rhs = (ClassExpr.parse(s) for s in args.args)
        except ValueError as e:
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
            _, (ccat, claim) = _read(args.claim, "sod-claim")
            if not args.label:
                raise CliError("relate --claim requires --label naming the decomposed generator")
            n = len(claim.blocks)
            expr = ClassExpr.gen(args.label).sub(ClassExpr.unit(n))
            prov = Provenance(
                "verified-sod",
                payload=SODProvenance(args.label, claim, tuple(ClassExpr.unit() for _ in range(n)), tuple("point" for _ in range(n)), ccat),
            )
        else:
            if not args.expr.strip():
                raise CliError("relate needs --expr or --claim")
            try:
                expr = ClassExpr.parse(args.expr)
            except ValueError as e:
                raise CliError(str(e))
            prov = _provenance_from_args(args)
        try:
            mutated = ledger.add_relation(expr, prov)
        except (ProvenanceError, KeyError) as e:
            return {"command": command, "verdicts": [{"name": "relation ingestion", "ok": False, "detail": str(e)}]}
        verdicts.append({"name": "relation ingested", "ok": True, "detail": expr.format()})
    else:  # fact: argparse choices admit no other subcommand
        missing = [f"--{k}" for k in ("a", "b", "value") if not getattr(args, k).strip()]
        if missing:
            raise CliError(f"fact needs {' and '.join(missing)}")
        try:
            value = ClassExpr.parse(args.value)
        except ValueError as e:
            raise CliError(str(e))
        try:
            mutated = ledger.add_product_fact(args.a, args.b, value, _provenance_from_args(args))
        except (ProvenanceError, KeyError) as e:
            return {"command": command, "verdicts": [{"name": "fact ingestion", "ok": False, "detail": str(e)}]}
        verdicts.append({"name": "fact ingested", "ok": True})
    if mutated is not None:
        # --degree-bound bounds this run's queries; the new version keeps the stored bound
        mutated.degree_bound = stored_bound
        out_path = args.out or args.path
        doc = schema.document("ledger", field, schema.ledger_to_json(mutated, field))
        _write_atomic(out_path, schema.dumps(doc))
    report = {"command": command, "verdicts": verdicts}
    if provenance:
        report["provenance"] = provenance
    return report


def cmd_tensor(args):
    f1, c1 = _read(args.path, "category")
    f2, c2 = _read(args.path2, "category")
    if f1 != f2:
        raise CliError("field mismatch between the two categories")
    for cat in (c1, c2):
        if bad := _axioms_failure(cat, ["tensor", args.path, args.path2]):
            return bad
    t = tensor(c1, c2)
    doc = schema.document("category", f1, schema.category_to_json(t))
    _write_atomic(args.out, schema.dumps(doc))
    return {"command": ["tensor", args.path, args.path2], "verdicts": [{"name": "tensor written", "ok": True, "detail": args.out}]}


def cmd_cone(args):
    field, (cat, complexes, morphisms, idempotents) = _read(args.path, "twisted-complex")
    f = morphisms.get(args.morphism)
    if f is None:
        raise CliError(f"no morphism named {args.morphism!r} in {args.path}")
    if bad := _axioms_failure(cat, ["cone", args.path, args.morphism]):
        return bad
    try:
        c = pretr.cone(f)
    except ValueError as e:
        return {"command": ["cone", args.path, args.morphism], "verdicts": [{"name": "cone", "ok": False, "detail": str(e)}]}
    body = schema.tc_bundle_to_json(cat, {"cone": c})
    doc = schema.document("twisted-complex", field, body)
    if args.out:
        _write_atomic(args.out, schema.dumps(doc))
    return {
        "command": ["cone", args.path, args.morphism],
        "verdicts": [{"name": "cone computed", "ok": True}],
        "document": doc,
    }


def cmd_reduce(args):
    field, (cat, complexes, morphisms, idempotents) = _read(args.path, "twisted-complex")
    x = complexes.get(args.complex)
    if x is None:
        raise CliError(f"no complex named {args.complex!r} in {args.path}")
    if bad := _axioms_failure(cat, ["reduce", args.path, args.complex]):
        return bad
    y, f = reduce_tc(x)
    body = schema.tc_bundle_to_json(cat, {"reduced": y}, {"projection": f})
    doc = schema.document("twisted-complex", field, body)
    if args.out:
        _write_atomic(args.out, schema.dumps(doc))
    return {
        "command": ["reduce", args.path, args.complex],
        "verdicts": [{"name": "reduce", "ok": True, "detail": f"{len(x.terms)} -> {len(y.terms)} terms"}],
        "document": doc,
    }


def cmd_karoubi(args):
    _, (cat, complexes, morphisms, idempotents) = _read(args.path, "twisted-complex")
    ka = idempotents.get(args.a)
    kb = idempotents.get(args.b or args.a)
    if ka is None or kb is None:
        raise CliError("karoubi needs idempotent names present in the document")
    try:
        lo, hi = (int(s) for s in args.degrees.split(".."))
    except ValueError:
        raise CliError(f"--degrees must be <lo>..<hi> with integer ends, found {args.degrees!r}")
    if bad := _axioms_failure(cat, ["karoubi", args.path]):
        return bad
    rows = [["degree", "dim"]]
    for n in range(lo, hi + 1):
        try:
            rows.append([n, karoubi_hom(ka, kb, n)])
        except ValueError as e:
            return {"command": ["karoubi", args.path], "verdicts": [{"name": "karoubi", "ok": False, "detail": str(e)}]}
    return {"command": ["karoubi", args.path], "verdicts": [{"name": "karoubi dims", "ok": True}], "tables": {"karoubi_hom": rows}}


def cmd_check_qe(args):
    _, cert = _read(args.path, "equiv-certificate")
    verdict = check_quasi_equiv(cert)
    axioms = _functor_axioms(cert.functor)
    ok = verdict.ok and all(a.ok for a in axioms)
    return {
        "command": ["check-qe", args.path],
        "verdicts": [{"name": "quasi-equivalence", "ok": ok, "detail": str(verdict.failures[:5]) if verdict.failures else ""}],
        "tables": {"audit": _audit_table(axioms)},
    }


def _field(spec):
    try:
        return field_from_spec(spec)
    except ValueError as e:
        raise CliError(f"bad --field {spec!r}: {e}")


def cmd_serre(args):
    field = _field(args.field)
    if args.fixture == "a2":
        data, pairings = fixtures.a2_serre_data(field)
    elif args.fixture == "point":
        cat = fixtures.point_category(field)
        data = functor_as_serre_data(identity_functor(cat))
        o = cat.objects[0]
        pairings = {(o, o, 0): Matrix.identity(field, 1)}
    elif args.fixture == "kronecker-identity":
        data = functor_as_serre_data(identity_functor(fixtures.kronecker_category(field)))
        pairings = {}
    else:
        raise CliError(f"unknown serre fixture {args.fixture!r}")
    verdict = verify_serre(data, pairings)
    return {
        "command": ["serre", args.fixture],
        "verdicts": [{"name": f"serre {args.fixture}", "ok": verdict.ok, "detail": str(verdict.failures[:3]) if verdict.failures else ""}],
    }


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
    cert = point_equivalence_certificate(k2, k2.obj("e1"), cats["point"])
    put("kronecker_block_e1_point.equiv-certificate.json", schema.document("equiv-certificate", field, schema.equiv_cert_to_json(cert)))
    return paths


def cmd_fixtures(args):
    _field(args.field)
    paths = write_fixture_documents(args.out, args.field)
    return {
        "command": ["fixtures", args.out],
        "verdicts": [{"name": "fixtures written", "ok": True, "detail": f"{len(paths)} documents"}],
    }


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
    s.add_argument("--degrees", default="-2..2", help="LO..HI; a range that starts with '-' needs the --degrees=LO..HI form")
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
        report = args.fn(args)
    except (CliError, DocumentError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return getattr(e, "code", INPUT_ERROR)
    return emit(report, args, started)


if __name__ == "__main__":
    sys.exit(main())
