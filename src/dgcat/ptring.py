"""The Grothendieck ring of pretriangulated categories as a finitely
presented commutative ring at a degree bound.

Generators are registered category classes; additive relations come from
verified SODs (re-checked on ingestion) or explicitly tagged external paper
facts; the product of two generator classes is opaque until a product fact
identifies it.  Equality is decided in the degree-bounded quotient: formal
monomials are rewritten through the product table, relations are saturated
by all completely-rewritable monomial multiples, and membership in the
resulting integer lattice is decided against its Hermite basis, built once
per ledger version and degree bound.  A relation
multiple that cannot be fully rewritten is never admitted, so missing facts
surface as "unknown", not as wrong answers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .dgcore import full_subcategory, tensor
from .exactlin import Matrix, in_lattice, lattice_basis, smith_normal_form
from .functors import DGFunctor, EquivCertificate
from .pretr import embed, identity_morphism
from .sodgen import check_sod, check_exceptional_collection


class ProvenanceError(Exception):
    pass


UNIT = ()

# ClassExpr.parse splits on these and reads [pt] as the unit, so a generator
# label holds none of them, and "pt" is a unit alias (register_generator).
_UNWRITABLE_LABEL = re.compile(r"[\s\[\]*+-]")


class ClassExpr:
    """Integer linear combination of monomials in generator labels; the
    empty monomial is the unit class [pt]."""

    def __init__(self, terms=None):
        self.terms = {}
        for mono, c in (terms or {}).items():
            mono = tuple(sorted(mono))
            if c:
                self.terms[mono] = self.terms.get(mono, 0) + c
        self.terms = {m: c for m, c in self.terms.items() if c}

    @classmethod
    def unit(cls, coeff=1):
        return cls({UNIT: coeff})

    @classmethod
    def gen(cls, label, coeff=1):
        return cls({(label,): coeff})

    def add(self, other):
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, 0) + c
        return ClassExpr(t)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, k):
        return ClassExpr({m: c * k for m, c in self.terms.items()})

    def mul(self, other):
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                t[m] = t.get(m, 0) + c1 * c2
        return ClassExpr(t)

    def degree(self):
        return max((len(m) for m in self.terms), default=0)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, ClassExpr) and self.terms == other.terms

    def __repr__(self):
        return f"ClassExpr({self.format()})"

    def format(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[m]
            body = "*".join(f"[{x}]" for x in m) if m else "[pt]"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return out

    @classmethod
    def parse(cls, s):
        """Parse "2*[pt] + [P1]*[P1] - 3*[X]"."""
        s = s.replace("-", "+-").replace(" ", "")
        terms = {}
        for chunk in s.split("+"):
            if not chunk:
                continue
            sign = 1
            if chunk.startswith("-"):
                sign = -1
                chunk = chunk[1:]
            coeff = 1
            labels = []
            for factor in chunk.split("*"):
                if not factor:
                    raise ValueError(f"bad term in {s!r}")
                if factor.startswith("["):
                    if not factor.endswith("]"):
                        raise ValueError(f"bad factor {factor!r}")
                    lbl = factor[1:-1]
                    if lbl != "pt":
                        labels.append(lbl)
                else:
                    coeff *= int(factor)
            m = tuple(sorted(labels))
            terms[m] = terms.get(m, 0) + sign * coeff
        return cls(terms)


@dataclass
class Provenance:
    kind: str  # relations: verified-sod | external-paper-fact; facts: verified-tensor | external-paper-fact
    citation: str = ""
    payload: object = None

    def tag(self):
        return "[PAPER]" if self.kind == "external-paper-fact" else "verified"


@dataclass
class SODProvenance:
    """Machine-verified SOD relation: the claim decomposes the named
    generator's category into blocks, each identified with a class value."""

    label: str
    claim: object
    block_values: tuple  # one ClassExpr per block
    block_idents: tuple  # "point" per block
    category: object = None  # the claim's own copy of the registered category, if any


@dataclass
class TensorProvenance:
    """Machine-verified product fact for (a, b): mode "generator" or
    "point-sod" (see Ledger._verify_tensor_provenance)."""

    mode: str


@dataclass
class GeneratorInfo:
    label: str
    payload: object = None  # DGCategory or None
    unit_alias: bool = False
    geometric: bool = True


@dataclass
class Relation:
    expr: ClassExpr
    provenance: Provenance


@dataclass
class Fact:
    pair: tuple
    value: ClassExpr
    provenance: Provenance


def _point_block_ok(cat, block):
    """A singleton block with End = k, machine-identified with [pt]."""
    if len(block) != 1:
        return False
    return check_exceptional_collection(cat, list(block))


class Ledger:
    """Immutable-by-convention ledger; mutators return a new version."""

    def __init__(self, degree_bound=4, flavor="PT"):
        self.degree_bound = degree_bound
        self.flavor = flavor
        self.generators = {}
        self.relations = []
        self.facts = {}
        self.version = 0
        self._sat_cache = {}  # degree_bound -> (coords, rows); ("basis", degree_bound) -> lattice basis

    def _copy(self):
        l = Ledger(self.degree_bound, self.flavor)
        l.generators = dict(self.generators)
        l.relations = list(self.relations)
        l.facts = dict(self.facts)
        l.version = self.version + 1
        return l

    # -- registration ----------------------------------------------------

    def register_generator(self, label, payload=None, unit_alias=False, geometric=True):
        if label in self.generators:
            raise ValueError(f"generator {label!r} already registered")
        if _UNWRITABLE_LABEL.search(label) or label == "pt" and not unit_alias:
            raise ValueError(f"generator label {label!r} does not read back from a class expression: no whitespace, '[', ']', '*', '+' or '-', and pt only as the unit alias")
        if self.flavor == "Gamma" and not geometric:
            raise ValueError("Gamma-flavored ledger admits only geometric generators")
        l = self._copy()
        l.generators[label] = GeneratorInfo(label, payload, unit_alias, geometric)
        return l

    def expr_gen(self, label):
        info = self.generators.get(label)
        if info is None:
            raise KeyError(f"unregistered generator {label!r}")
        if info.unit_alias:
            return ClassExpr.unit()
        return ClassExpr.gen(label)

    def _check_registered(self, expr):
        for m in expr.terms:
            for lbl in m:
                if lbl not in self.generators:
                    raise KeyError(f"unregistered generator {lbl!r}")

    def _resolve_aliases(self, expr):
        """expr with every unit-alias generator replaced by the unit; expr
        itself when no label in it is an alias.  Unregistered labels raise."""
        gens = self.generators
        if all(lbl in gens and not gens[lbl].unit_alias for m in expr.terms for lbl in m):
            return expr
        out = ClassExpr()
        for m, c in expr.terms.items():
            e = ClassExpr.unit(c)
            for lbl in m:
                e = e.mul(self.expr_gen(lbl))
            out = out.add(e)
        return out

    # -- relations and facts ----------------------------------------------

    def add_relation(self, expr, provenance):
        """A new ledger with the relation expr = 0 (unit aliases resolved).
        A relation that reads 0 once they are resolved says nothing, and is
        refused whatever its provenance."""
        self._check_registered(expr)
        resolved = self._resolve_aliases(expr)
        if resolved.is_zero():
            raise ProvenanceError(f"relation {expr.format()} reads 0 once unit aliases are resolved: it says nothing")
        if provenance.kind == "verified-sod":
            self._verify_sod_provenance(resolved, provenance)
        elif provenance.kind == "external-paper-fact":
            if not provenance.citation:
                raise ProvenanceError("external facts require a citation")
        else:
            raise ProvenanceError(f"unsupported relation provenance {provenance.kind!r}")
        l = self._copy()
        l.relations.append(Relation(resolved, provenance))
        return l

    def _verify_sod_provenance(self, expr, provenance):
        """expr, its unit aliases resolved, is [label] less one unit per
        point block of the verified claim."""
        p = provenance.payload
        if not isinstance(p, SODProvenance):
            raise ProvenanceError("verified-sod provenance requires an SODProvenance payload")
        info = self.generators.get(p.label)
        if info is None or info.payload is None:
            raise ProvenanceError(f"generator {p.label!r} has no registered category")
        cat = info.payload if p.category is None else p.category
        if cat is not info.payload and not categories_structurally_equal(cat, info.payload):
            raise ProvenanceError("claim category does not match the registered category")
        if tuple(p.claim.ambient_generators) != tuple(cat.objects):
            raise ProvenanceError("SOD claim must cover all objects of the registered category")
        verdict = check_sod(cat, p.claim)
        if not verdict.ok:
            bad = [a for a in verdict.audit if not a.ok]
            raise ProvenanceError(f"SOD claim failed verification: {bad[:3]}")
        if not len(p.block_values) == len(p.block_idents) == len(p.claim.blocks):
            raise ProvenanceError("one value and one ident per block required")
        for block, value, ident in zip(p.claim.blocks, p.block_values, p.block_idents):
            if ident != "point":
                raise ProvenanceError(f"unknown block identification {ident!r}")
            if not _point_block_ok(cat, block):
                raise ProvenanceError(f"block {block} is not machine-identifiable with the point")
            if value != ClassExpr.unit():
                raise ProvenanceError("point blocks must carry the unit value")
        claimed = self.expr_gen(p.label)
        for value in p.block_values:
            claimed = claimed.sub(value)
        if expr != claimed:
            raise ProvenanceError("relation does not match the verified decomposition")

    def add_product_fact(self, a, b, value, provenance):
        for lbl in (a, b):
            if lbl not in self.generators:
                raise KeyError(f"unregistered generator {lbl!r}")
        self._check_registered(value)
        if value.degree() > 1:
            raise ProvenanceError("product-fact values must have degree <= 1")
        pair = tuple(sorted((a, b)))
        if provenance.kind == "verified-tensor":
            self._verify_tensor_provenance(pair, value, provenance)
        elif provenance.kind == "external-paper-fact":
            if not provenance.citation:
                raise ProvenanceError("external facts require a citation")
        else:
            raise ProvenanceError(f"unsupported fact provenance {provenance.kind!r}")
        value = self._resolve_aliases(value)
        if pair in self.facts:
            verdict = self.eq(self.facts[pair].value, value)
            if verdict != "equal":
                raise ProvenanceError(f"conflicting product fact for {pair}: existing value not provably equal ({verdict})")
            return self._copy()
        l = self._copy()
        l.facts[pair] = Fact(pair, value, provenance)
        return l

    def _point_count(self, label):
        """n with [label] = n[pt] verified: 1 for the unit alias, else the
        point blocks of its first verified-sod relation; an external [PAPER]
        relation counts nothing."""
        if self.generators[label].unit_alias:
            return 1
        for rel in self.relations:
            p = rel.provenance.payload
            if rel.provenance.kind == "verified-sod" and p.label == label:
                return len(p.claim.blocks)
        raise ProvenanceError(f"factor {label!r} has no verified-sod relation to count its points")

    def _verify_tensor_provenance(self, pair, value, provenance):
        """Mode "generator": [a]·[b] = [c], c's category being tensor(a, b).
        Mode "point-sod": [a]·[b] = n_a·n_b[pt] with n_x = _point_count(x);
        nothing is built, for two reasons.  In the presented ring
        [a][b] - n_a·n_b = ([a] - n_a)[b] + n_a([b] - n_b) lies in the ideal
        the two relations generate.  And by Künneth, as Hom((x, y), (x', y'))
        = Hom(x, x') ⊗ Hom(y, y') and H* of a tensor product over a field is
        the tensor product of the H*, the lexicographic order on two full
        exceptional collections (what verified point-sod relations certify)
        is one of tensor(a, b), with n_a·n_b objects."""
        p = provenance.payload
        if not isinstance(p, TensorProvenance):
            raise ProvenanceError("verified-tensor provenance requires a TensorProvenance payload")
        if p.mode == "point-sod":
            n = self._point_count(pair[0]) * self._point_count(pair[1])
            if value != ClassExpr.unit(n):
                raise ProvenanceError(f"value must be {n}[pt], the product of the factors' point counts")
            return
        if p.mode != "generator":
            raise ProvenanceError(f"unknown tensor provenance mode {p.mode!r}")
        cats = []
        for lbl in pair:
            info = self.generators[lbl]
            if info.payload is None:
                raise ProvenanceError(f"generator {lbl!r} has no registered category")
            cats.append(info.payload)
        if len(value.terms) != 1 or set(value.terms.values()) != {1}:
            raise ProvenanceError("generator-mode facts need a single unit-coefficient generator value")
        (mono,) = value.terms
        if len(mono) != 1:
            raise ProvenanceError("generator-mode facts need a degree-1 value")
        target = self.generators.get(mono[0])
        if target is None or target.payload is None:
            raise ProvenanceError(f"value generator {mono[0]!r} has no registered category")
        # built by tensor() from these very payloads: equal by construction
        factors = getattr(target.payload, "factors", ())
        built = len(factors) == 2 and factors[0] is cats[0] and factors[1] is cats[1]
        if not built and not categories_structurally_equal(tensor(cats[0], cats[1]), target.payload):
            raise ProvenanceError("tensor category does not match the value generator's category")

    # -- normalization and the decision procedure --------------------------

    def _rewrite(self, m, memo):
        """{monomial of degree <= 1: int} equal to the sorted monomial m
        through the product table, or None when no order of rewrites
        completes within the degree bound.

        Rewriting a pair by its fact value (degree <= 1, aliases resolved)
        strictly lowers the degree, so the recursion ends.  memo (monomial
        -> result) may be shared by calls on one ledger version."""
        if len(m) > self.degree_bound:
            return None
        if len(m) <= 1:
            return {m: 1}
        if m in memo:
            return memo[m]
        out = None
        for i, j in combinations(range(len(m)), 2):
            fact = self.facts.get((m[i], m[j]))
            if fact is None:
                continue
            rest = m[:i] + m[i + 1:j] + m[j + 1:]
            total = {}
            for mono, c in fact.value.terms.items():
                sub = self._rewrite(tuple(sorted(mono + rest)), memo)
                if sub is None:
                    break
                for k, v in sub.items():
                    total[k] = total.get(k, 0) + c * v
            else:
                out = total
                break
        memo[m] = out
        return out

    def normalize(self, expr):
        """(normal form, complete): rewrite every monomial through the
        product table; complete=False when a monomial of degree >= 2
        survives or the degree bound is exceeded."""
        self._check_registered(expr)
        memo = {}
        out, complete = {}, True
        for m, c in self._resolve_aliases(expr).terms.items():
            nf = self._rewrite(m, memo)
            if nf is None:
                complete, nf = False, {m: 1}
            for k, v in nf.items():
                out[k] = out.get(k, 0) + c * v
        return ClassExpr(out), complete

    def _coordinates(self):
        if not self.generators and not self.relations:
            return []
        gens = sorted(lbl for lbl, info in self.generators.items() if not info.unit_alias)
        return [UNIT] + [(g,) for g in gens]

    def _vector(self, expr, coords):
        idx = {m: i for i, m in enumerate(coords)}
        vec = [0] * len(coords)
        for m, c in expr.terms.items():
            vec[idx[m]] += c
        return vec

    def saturated_rows(self):
        """Lattice rows: every relation times every monomial of total degree
        <= degree bound whose product rewrites completely."""
        bound = self.degree_bound
        if bound in self._sat_cache:
            return self._sat_cache[bound]
        coords = self._coordinates()
        idx = {m: i for i, m in enumerate(coords)}
        gens = [m[0] for m in coords[1:]]
        monomials = [m for d in range(max(bound, 1)) for m in combinations_with_replacement(gens, d)]
        rows = []
        memo = {}
        for rel in self.relations:
            deg = rel.expr.degree()
            for m in monomials:
                if deg + len(m) > bound:
                    continue
                vec = [0] * len(coords)
                for mono, c in rel.expr.terms.items():
                    nf = self._rewrite(tuple(sorted(mono + m)), memo)
                    if nf is None:
                        break
                    for k, v in nf.items():
                        vec[idx[k]] += c * v
                else:
                    if any(vec):
                        rows.append(vec)
        self._sat_cache[bound] = (coords, rows)
        return coords, rows

    def _lattice(self):
        """(coords, Hermite basis of the saturated rows), the basis built once
        per degree bound and kept next to the rows."""
        coords, rows = self.saturated_rows()
        key = ("basis", self.degree_bound)
        basis = self._sat_cache.get(key)
        if basis is None:
            basis = self._sat_cache[key] = lattice_basis(rows)
        return coords, basis

    def eq(self, lhs, rhs):
        """equal | unequal_within_bound | unknown, with exact semantics in
        the degree-bounded presented quotient."""
        diff = lhs.sub(rhs)
        self._check_registered(diff)
        nf, complete = self.normalize(diff)
        if nf.is_zero():
            return "equal"
        if not complete or nf.degree() > 1:
            return "unknown"
        coords, basis = self._lattice()
        if in_lattice(basis, self._vector(nf, coords)):
            return "equal"
        return "unequal_within_bound"

    def eq_report(self, lhs, rhs):
        verdict = self.eq(lhs, rhs)
        used = [
            {"expr": r.expr.format(), "provenance": r.provenance.kind, "tag": r.provenance.tag(), "citation": r.provenance.citation}
            for r in self.relations
        ]
        facts = [
            {"pair": list(f.pair), "value": f.value.format(), "provenance": f.provenance.kind, "tag": f.provenance.tag(), "citation": f.provenance.citation}
            for f in self.facts.values()
        ]
        return {"verdict": verdict, "relations": used, "facts": facts}

    def group_invariants(self):
        """(free rank, torsion) of the degree-bounded additive quotient, from
        the invariant factors of the lattice basis: it spans the lattice the
        saturated rows span, so the invariant factors are theirs."""
        coords, basis = self._lattice()
        factors = smith_normal_form([row for _, row in basis])
        return len(coords) - len(factors), [d for d in factors if d != 1]

    def derive_measure_check(self, line_label="P1"):
        """Check mu(L) = 1: with L = [P1] - [pt], eq(L*x, x) for every
        registered generator (and the unit)."""
        if line_label not in self.generators:
            raise KeyError(f"dataset incomplete: no generator {line_label!r}")
        L = ClassExpr.gen(line_label).sub(ClassExpr.unit())
        report = {}
        ok = True
        targets = [("pt", ClassExpr.unit())]
        for lbl in sorted(self.generators):
            if not self.generators[lbl].unit_alias:
                targets.append((lbl, ClassExpr.gen(lbl)))
        for name, x in targets:
            verdict = self.eq(L.mul(x), x)
            report[name] = verdict
            ok = ok and verdict == "equal"
        return {"pass": ok, "line": f"L = [{line_label}] - [pt]", "checks": report}


def categories_structurally_equal(c1, c2):
    if c1.field != c2.field:
        return False
    if [o.label for o in c1.objects] != [o.label for o in c2.objects]:
        return False
    h1 = {(a.label, b.label): h for (a, b), h in c1.homs.items()}
    h2 = {(a.label, b.label): h for (a, b), h in c2.homs.items()}
    if h1.keys() != h2.keys():
        return False
    for k in h1:
        if h1[k].complex != h2[k].complex:
            return False
    t1 = {(a.label, b.label, c.label): t for (a, b, c), t in c1.every_table().items()}
    t2 = {(a.label, b.label, c.label): t for (a, b, c), t in c2.every_table().items()}
    if t1 != t2:
        return False
    return {o.label: m.coords for o, m in c1.ids.items()} == {o.label: m.coords for o, m in c2.ids.items()}


def point_equivalence_certificate(cat, obj, point_cat):
    """Quasi-equivalence certificate point -> full subcategory on one
    exceptional object (used to identify blocks with [pt])."""
    sub = full_subcategory(cat, [obj])
    p = point_cat.objects[0]
    # degree 0 of End(p) = k: its unit goes to the identity of obj
    mor_maps = {(p, p): {0: Matrix.from_columns(cat.field, sub.hom(obj, obj).dim(0), [cat.identity(obj).coords])}}
    fun = DGFunctor(point_cat, sub, {p: obj}, mor_maps, name=f"pt->{obj.label}")
    witnesses = {obj: (embed(sub, obj), identity_morphism(embed(sub, obj)))}
    return EquivCertificate(fun, witnesses)
