"""Seeded job generators and independent oracles for the three workloads.

Every workload has a ``setup`` (run before the first timed job, timed as
set-up) and a ``make_pass`` that turns a seeded random generator into one
fixed-size list of jobs.  A job's ``run`` is the timed call into dgcat; its
``check`` compares the result with an answer worked out here, without dgcat.
A pass lists its jobs in a fixed slot order with the same shapes for every
seed; the seed only draws the values (relation scalars, morphism
coefficients, orders, class expressions), and the runner shuffles the slots.

quiver  Beilinson-type quivers through ``from_quiver``, ``validate`` and
        ``ext_table``, over Q and F_32003.
hull    twisted-complex and SOD questions over F_32003 on tensor models
        built during set-up.
cli     ``dgcat.cli.main`` in-process on the shipped fixture documents,
        over Q, with a fixed corpus of hostile documents in every pass.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

import dgcat
from dgcat import cli as dgcli
from dgcat import fixtures, pretr
from dgcat.dgcore import Arrow
from dgcat.exactlin import GF, QQ
from dgcat.sodgen import exceptional_sod_claim

P = 32003
FP = GF(P)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    hostile: bool = False


def _binom_dim(shape, src, dst):
    """dim Hom(O(src), O(dst)) in a product of Beilinson chains.

    shape lists m_i per factor (a factor with m_i arrows per step models
    P^{m_i - 1}); src and dst are the object's coordinates per factor."""
    out = 1
    for m, a, b in zip(shape, src, dst):
        d = b - a
        if d < 0:
            return 0
        out *= comb(m - 1 + d, d)
    return out


def _product_coords(steps):
    """Object coordinates of a product of chains, in lexicographic order."""
    coords = [()]
    for k in steps:
        coords = [c + (a,) for c in coords for a in range(k + 1)]
    return coords


def _rank_mod_p(rows, p=P):
    """Rank of an integer matrix over F_p (reference elimination)."""
    rows = [[v % p for v in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- quiver ----------------------------------------------------------------------

QSCALARS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3))

# (m, k, field, jobs per pass).  The counts put job_s.p90 in the middle of
# the P^3-over-Q jobs and job_s.p50 in the middle of the P^3-over-F_p jobs,
# so neither percentile sits on a gap between job sizes.  (5,3) over Q and
# (6,3) over F_p sit past the P^3 -> P^4 cliff; (3,5) over Q and P^4 over F_p
# take 20+ s each and stay out.
QUIVER_MIX = (
    (5, 3, "Q", 1), (6, 3, "Fp", 1),
    (4, 3, "Q", 4),
    (3, 4, "Fp", 4), (2, 5, "Q", 2),
    (4, 3, "Fp", 16),
    (3, 3, "Q", 4), (5, 2, "Q", 4), (4, 2, "Q", 4),
)
QUIVER_TINY = ((2, 2, "Q", 1), (3, 2, "Fp", 1), (3, 3, "Q", 1))


def _to_field(field, c):
    c = Fraction(c)
    if field is QQ:
        return c
    return c.numerator * pow(c.denominator, P - 2, P) % P


def beilinson_quiver(field, m, k, q):
    """Full subcategory O, ..., O(k) of P^{m-1}: k+1 vertices, m arrows per
    step, skew-commutativity y_i x_j = q_ij y_j x_i for i < j."""
    verts = [f"v{a}" for a in range(k + 1)]
    arrows = [Arrow(f"x{s}_{i}", verts[s], verts[s + 1]) for s in range(k) for i in range(m)]
    rels = []
    for s in range(k - 1):
        for i in range(m):
            for j in range(i + 1, m):
                c = _to_field(field, q[(i, j)])
                rels.append([(field.one(), [f"x{s}_{j}", f"x{s + 1}_{i}"]), (field.neg(c), [f"x{s}_{i}", f"x{s + 1}_{j}"])])
    return dgcat.from_quiver(field, verts, arrows, rels)


def _quiver_job(field, m, k, q):
    def run():
        cat = beilinson_quiver(field, m, k, q)
        violations = cat.validate()
        table = dgcat.ext_table(cat, list(cat.objects))
        return cat, violations, table

    def check(result):
        cat, violations, table = result
        if violations or len(cat.objects) != k + 1:
            return False
        for a, oa in enumerate(cat.objects):
            for b, ob in enumerate(cat.objects):
                want = _binom_dim((m,), (a,), (b,))
                dims = cat.hom(oa, ob).complex.dims
                if dims != ({0: want} if want else {}) or table[a][b] != dims:
                    return False
        return True

    return Job(f"quiver {field!r} ({m},{k})", run, check)


def quiver_setup(workdir, tiny):
    return {"mix": QUIVER_TINY if tiny else QUIVER_MIX}


def quiver_pass(ctx, rng):
    jobs = []
    for m, k, fname, count in ctx["mix"]:
        field = QQ if fname == "Q" else FP
        for _ in range(count):
            q = {(i, j): rng.choice(QSCALARS) for i in range(m) for j in range(i + 1, m)}
            jobs.append(_quiver_job(field, m, k, q))
    return jobs


# -- hull ------------------------------------------------------------------------


@dataclass
class Model:
    name: str
    cat: object
    shape: tuple  # m_i per factor
    coords: list  # per object, in cat.objects order


def _tensor_models(tiny):
    k2 = fixtures.kronecker_category(FP)
    b3 = fixtures.beilinson3_category(FP)
    p3 = beilinson_quiver(FP, 4, 3, {(i, j): 1 for i in range(4) for j in range(i + 1, 4)})
    t = dgcat.tensor
    if tiny:
        specs = [("P1xP1", t(k2, k2), (2, 2), (1, 1))]
    else:
        p1p1 = t(k2, k2)
        p1_3 = t(p1p1, k2)
        p2p2 = t(b3, b3)
        specs = [
            ("(P1)^3", p1_3, (2, 2, 2), (1, 1, 1)),
            ("(P1)^4", t(p1_3, k2), (2, 2, 2, 2), (1, 1, 1, 1)),
            ("P1xP2", t(k2, b3), (2, 3), (1, 2)),
            ("P2xP2", p2p2, (3, 3), (2, 2)),
            ("P2xP2xP1", t(p2p2, k2), (3, 3, 2), (2, 2, 1)),
            ("P3", p3, (4,), (3,)),
        ]
    return [Model(name, cat, shape, _product_coords(steps)) for name, cat, shape, steps in specs]


def hull_setup(workdir, tiny):
    return {"models": _tensor_models(tiny), "tiny": tiny}


def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _order_is_exceptional(coords):
    """No later object maps to an earlier one (Hom is nonzero iff a <= b)."""
    return not any(_leq(coords[j], coords[i]) for i in range(len(coords)) for j in range(i + 1, len(coords)))


def _sod_job(model, perm):
    cat = model.cat
    order = [cat.objects[i] for i in perm]
    expected = _order_is_exceptional([model.coords[i] for i in perm])

    def run():
        return dgcat.check_sod(cat, exceptional_sod_claim(cat, order))

    def check(verdict):
        semi = verdict.audit[0]
        return semi.obligation == "semiorthogonality" and semi.ok == expected and verdict.ok == expected

    return Job(f"check_sod {model.name} {'exceptional' if expected else 'non-exceptional'}", run, check)


def _random_morphism(cat, src, dst, rng):
    """Seeded degree-0 base morphism src -> dst with every coordinate nonzero."""
    n = cat.hom(src, dst).dim(0)
    return dgcat.Morphism(src, dst, 0, {t: rng.randrange(1, P) for t in range(n)})


def _cone_job(model, rng, depth, slot):
    """Iterated cones C_1 = cone(x1 + x2 + x3 -> top), C_s = cone(z_s -> C_{s-1}).

    Every object maps to the top object.  Each morphism lands only in term 0
    of its target, which no twist entry leaves from, so it is closed (the
    base categories have d = 0).  The objects follow from the slot, so a
    slot costs the same for every seed; the seed draws the coefficients.
    """
    cat = model.cat
    idx = {o: i for i, o in enumerate(cat.objects)}
    n = len(cat.objects)
    xs = [(slot * 5 + i) % n for i in range(3)]
    zs = [(slot * 3 + 7 * i) % n for i in range(depth - 1)]
    seed = rng.randrange(1 << 30)

    def build():
        r = random.Random(seed)
        top = cat.objects[-1]
        src = pretr.embed(cat, cat.objects[xs[0]])
        for x in xs[1:]:
            src = pretr.direct_sum(src, pretr.embed(cat, cat.objects[x]))
        f = pretr.TwistedMorphism(src, pretr.embed(cat, top), 0, {
            (0, j): _random_morphism(cat, cat.objects[x], top, r) for j, x in enumerate(xs)
        })
        c = pretr.cone(f)
        for z in zs:
            oz = cat.objects[z]
            g = pretr.TwistedMorphism(pretr.embed(cat, oz), c, 0, {(0, 0): _random_morphism(cat, oz, top, r)})
            c = pretr.cone(g)
        return c

    def run():
        c = build()
        shifts = sorted({t.shift for t in c.terms})
        into = [[pretr.ho_hom(pretr.embed(cat, e), c, -s) for s in shifts] for e in cat.objects]
        out = [[pretr.ho_hom(c, pretr.embed(cat, e), s) for s in shifts] for e in cat.objects]
        return c, shifts, into, out

    def check(result):
        c, shifts, into, out = result
        if c.terms[0].obj is not cat.objects[-1] or len(c.terms) != 3 + depth:
            return False
        for e, coord in enumerate(model.coords):
            chi_in = sum((-1) ** t.shift * _binom_dim(model.shape, coord, model.coords[idx[t.obj]]) for t in c.terms)
            chi_out = sum((-1) ** t.shift * _binom_dim(model.shape, model.coords[idx[t.obj]], coord) for t in c.terms)
            # Hom(E, C)^n lives in n = -shift, Hom(C, E)^n in n = +shift.
            if sum((-1) ** s * h for s, h in zip(shifts, into[e])) != chi_in:
                return False
            if sum((-1) ** s * h for s, h in zip(shifts, out[e])) != chi_out:
                return False
            if min(into[e] + out[e]) < 0:
                return False
        return True

    return Job(f"cone depth {depth} {model.name}", run, check)


def _scalar_matrix(rng, n, singular):
    rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
    if singular:
        a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % n])] if n > 1 else [0]
    return rows


def _scalar_morphism(cat, obj, rows):
    n = len(rows)
    one = pretr.embed(cat, obj)
    x = one
    for _ in range(n - 1):
        x = pretr.direct_sum(x, one)
    ident = cat.identity(obj)
    (t,) = ident.coords
    ent = {(i, j): dgcat.Morphism(obj, obj, 0, {t: v % P}) for i, row in enumerate(rows) for j, v in enumerate(row) if v % P}
    return pretr.TwistedMorphism(x, x, 0, ent)


def _iso_job(model, rng, n):
    cat = model.cat
    obj = cat.objects[rng.randrange(len(cat.objects))]
    rows = _scalar_matrix(rng, n, rng.random() < 0.5)
    expected = _rank_mod_p(rows) == n

    def run():
        return dgcat.is_ho_iso(_scalar_morphism(cat, obj, rows))

    return Job(f"is_ho_iso {n}x{n}", run, lambda got: got is expected)


def _reduce_job(model, rng, n):
    cat = model.cat
    obj = cat.objects[rng.randrange(len(cat.objects))]
    rows = _scalar_matrix(rng, n, rng.random() < 0.5)
    left = 2 * (n - _rank_mod_p(rows))

    def run():
        x = pretr.cone(_scalar_morphism(cat, obj, rows))
        return x, dgcat.reduce(x)

    def check(result):
        x, (y, proj) = result
        return len(y.terms) == left and not y.q and proj.src is x and proj.dst is y

    return Job(f"reduce {n}x{n}", run, check)


# (job, model, parameter, jobs per pass).  The two large check_sod models
# are the slowest jobs; job_s.p90 falls in the middle of the (P2xP2xP1)
# cones and job_s.p50 in the middle of the P2xP2 cones.
HULL_MIX = (
    ("sod", "P2xP2xP1", None, 1), ("sod", "(P1)^4", None, 1),
    ("sod", "P2xP2", None, 1), ("sod", "(P1)^3", None, 1), ("sod", "P1xP2", None, 1), ("sod", "P3", None, 1),
    ("cone", "P2xP2xP1", 3, 8),
    ("cone", "P2xP2", 2, 40),
    ("cone", "(P1)^4", 2, 1), ("cone", "P1xP2", 2, 1), ("cone", "(P1)^3", 2, 1), ("cone", "P3", 2, 1),
    ("iso", None, 2, 2), ("iso", None, 3, 2), ("iso", None, 4, 2), ("iso", None, 5, 2),
    ("reduce", None, 2, 2), ("reduce", None, 3, 2), ("reduce", None, 4, 2), ("reduce", None, 5, 2),
)
HULL_TINY = (
    ("sod", "P1xP1", None, 1), ("cone", "P1xP1", 2, 1), ("iso", None, 2, 1), ("reduce", None, 2, 1),
)


def hull_pass(ctx, rng):
    """Each "sod" entry is one job in lexicographic (exceptional) order and
    one in a seeded permutation."""
    models = {m.name: m for m in ctx["models"]}
    jobs = []
    for kind, name, param, count in HULL_TINY if ctx["tiny"] else HULL_MIX:
        for _ in range(count):
            if kind == "sod":
                m = models[name]
                perm = list(range(len(m.cat.objects)))
                jobs.append(_sod_job(m, perm))
                rng.shuffle(perm)
                jobs.append(_sod_job(m, perm))
            elif kind == "cone":
                jobs.append(_cone_job(models[name], rng, param, len(jobs)))
            else:
                m = models[rng.choice(sorted(models))]
                jobs.append((_iso_job if kind == "iso" else _reduce_job)(m, rng, param))
    return jobs


# -- cli -------------------------------------------------------------------------

# Point counts give a ring homomorphism from the ledger's quotient to Z; the
# quotient has free rank 1 and no torsion, so two fully rewritable classes
# are equal exactly when their point counts agree.
POINTS = {"P1": 2, "P2": 3, "P1xP1": 4, "P1xP2": 6, "BlP2pt": 4}
LABELS = tuple(POINTS)
DEGREE_BOUND = 4
HOSTILE_SEED = 20261017  # fixed: the hostile corpus is the same for every --seed
HOSTILE_DOCS = 5

# Product models of the shipped category documents: m_i per factor and the
# chain length per factor (O(0)..O(k)).
CATEGORY_DOCS = {
    "point.category.json": ((1,), (0,)),
    "a2.category.json": ((1,), (1,)),
    "kronecker.category.json": ((2,), (1,)),
    "beilinson3.category.json": ((3,), (2,)),
    "kronecker_x_kronecker.category.json": ((2, 2), (1, 1)),
    "kronecker_x_a2.category.json": ((2, 1), (1, 1)),
}
# Valid documents and the exit code `validate` must give.
VALIDATE_DOCS = {
    **{name: 0 for name in CATEGORY_DOCS},
    "epsilon.category.json": 0,
    "kronecker_ev.twisted-complex.json": 0,
    "kronecker_identity.functor.json": 0,
    "kronecker_ev_cone.gen-certificate.json": 0,
    "kronecker_block_e1_point.equiv-certificate.json": 0,
    "kronecker.sod-claim.json": 0,
    "beilinson3.sod-claim.json": 0,
    "kronecker_squared.sod-claim.json": 0,
    "kronecker_broken.sod-claim.json": 1,
}
# sod-claim documents: (generator whose category the claim is over, blocks, valid)
CLAIMS = {
    "kronecker.sod-claim.json": ("P1", 2, True),
    "beilinson3.sod-claim.json": ("P2", 3, True),
    "kronecker_squared.sod-claim.json": ("P1xP1", 4, True),
    "kronecker_broken.sod-claim.json": ("P1", 2, False),
}
SERRE = {"a2": 0, "point": 0, "kronecker-identity": 1}


def parse_expr(s):
    """"2*[pt] + [P1]*[P1] - 3*[X]" -> {sorted label tuple: coefficient}."""
    terms = {}
    for chunk in s.replace(" ", "").replace("-", "+-").split("+"):
        if not chunk:
            continue
        sign = -1 if chunk.startswith("-") else 1
        coeff, labels = sign, []
        for factor in chunk.lstrip("-").split("*"):
            if factor.startswith("["):
                if factor[1:-1] != "pt":
                    labels.append(factor[1:-1])
            else:
                coeff *= int(factor)
        mono = tuple(sorted(labels))
        terms[mono] = terms.get(mono, 0) + coeff
    return {m: c for m, c in terms.items() if c}


def format_expr(terms):
    """Inverse of parse_expr; the first term is kept positive (argparse reads
    a leading '-' as an option)."""
    items = sorted(terms.items(), key=lambda kv: (kv[1] < 0, kv[0]))
    out = []
    for mono, c in items:
        body = "*".join(f"[{x}]" for x in mono) or "[pt]"
        part = body if abs(c) == 1 else f"{abs(c)}*{body}"
        out.append(part if not out and c > 0 else (f"- {part}" if c < 0 else f"+ {part}"))
    return " ".join(out)


def _add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _sub(a, b):
    return _add(a, {m: -c for m, c in b.items()})


def _mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def points(terms):
    total = 0
    for mono, c in terms.items():
        v = c
        for lbl in mono:
            v *= POINTS[lbl]
        total += v
    return total


class RingOracle:
    """Decides ledger equalities from point counts and the product table."""

    def __init__(self, facts):
        self.facts = facts  # sorted pair -> value terms

    def rewritable(self, mono):
        if len(mono) <= 1:
            return True
        if len(mono) > DEGREE_BOUND:
            return False
        for i in range(len(mono)):
            for j in range(i + 1, len(mono)):
                val = self.facts.get(tuple(sorted((mono[i], mono[j]))))
                if val is None:
                    continue
                rest = {tuple(x for t, x in enumerate(mono) if t not in (i, j)): 1}
                if all(self.rewritable(m) for m in _mul(val, rest)):
                    return True
        return False

    def eq(self, lhs, rhs):
        diff = _sub(lhs, rhs)
        if not diff:
            return "equal"
        if not all(self.rewritable(m) for m in diff):
            return "unknown"
        return "equal" if points(diff) == 0 else "unequal_within_bound"


@dataclass
class CliResult:
    code: object
    out: str
    err: str
    exc: str  # name of an exception that escaped cli.main, or ""

    def report(self):
        return json.loads(self.out.strip().splitlines()[-1])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    exc = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dgcli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a traceback is the outcome under test
            code, exc = None, type(e).__name__
    return CliResult(code, out.getvalue(), err.getvalue(), exc)


def _cli_job(kind, argv, check, hostile=False):
    return Job(kind, lambda: run_cli(argv), lambda r: not r.exc and check(r), hostile)


def _nodes(x, path=()):
    if isinstance(x, dict):
        items = x.items()
    elif isinstance(x, list):
        items = enumerate(x)
    else:
        return
    for k, v in items:
        yield path + (k,), v
        yield from _nodes(v, path + (k,))


def mutate_document(doc, rng):
    """Replace one node of the JSON tree by a value of another JSON type.

    Every node of a canonical document has one JSON type, so the result is
    malformed wherever the node sits; dgcat must answer with exit code 2."""
    path, value = rng.choice(list(_nodes(doc)))
    choices = [r for r in (None, "#", [], {}) if type(r) is not type(value)]
    doc = json.loads(json.dumps(doc))
    cur = doc
    for p in path[:-1]:
        cur = cur[p]
    cur[path[-1]] = rng.choice(choices)
    return doc


def scaled_identity_claim(doc):
    """The Kronecker SOD claim with the category's identities scaled by 2:
    not a DG category, so the claim must fail (exit code 1)."""
    doc = json.loads(json.dumps(doc))
    for ident in doc["body"]["category"]["ids"].values():
        ident["coords"] = {k: str(2 * int(v)) for k, v in ident["coords"].items()}
    return doc


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def cli_setup(workdir, tiny):
    docs = os.path.join(workdir, "docs")
    r = run_cli(["fixtures", "--out", docs])
    if r.code != 0 or r.exc:
        raise RuntimeError(f"dgcat fixtures failed: {r.err or r.exc}")
    names = sorted(os.listdir(docs))
    ledger_path = os.path.join(docs, "motivic.ledger.json")
    with open(ledger_path, encoding="utf-8") as fh:
        ledger = json.load(fh)
    facts = {tuple(f["pair"]): parse_expr(f["value"]) for f in ledger["body"]["facts"]}
    hostile = os.path.join(workdir, "hostile")
    os.makedirs(hostile)
    hrng = random.Random(HOSTILE_SEED)
    mutated = []
    for i in range(HOSTILE_DOCS):
        name = hrng.choice(names)
        with open(os.path.join(docs, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        path = os.path.join(hostile, f"mutated{i}.{name}")
        _write_json(path, mutate_document(doc, hrng))
        mutated.append(path)
    with open(os.path.join(docs, "kronecker.sod-claim.json"), encoding="utf-8") as fh:
        scaled = os.path.join(hostile, "kronecker_scaled_ids.sod-claim.json")
        _write_json(scaled, scaled_identity_claim(json.load(fh)))
    return {
        "docs": docs,
        "ledger_path": ledger_path,
        "ledger": ledger,
        "oracle": RingOracle(facts),
        "mutated": mutated,
        "scaled": scaled,
        "out": os.path.join(workdir, "out"),
        "tiny": tiny,
        "serial": itertools.count(1),
    }


def _verdicts(r):
    return r.report()["verdicts"]


def _random_terms(rng, rewritable_only, oracle, max_degree=3):
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(sorted(rng.choice(LABELS) for _ in range(rng.randint(0, max_degree))))
            terms[mono] = terms.get(mono, 0) + rng.choice((1, 2, 3, -1, -2))
        terms = {m: c for m, c in terms.items() if c}
        if terms and any(c > 0 for c in terms.values()):
            if not rewritable_only or all(oracle.rewritable(m) for m in terms):
                return terms


def _eq_job(ctx, rng):
    oracle = ctx["oracle"]
    target = rng.choice(("equal", "unequal_within_bound", "unknown"))
    lhs = _random_terms(rng, target != "unknown", oracle)
    if target == "unknown":
        mono = rng.choice((("P2", "P2"), ("P1xP1", "P2"), ("P1", "P1", "P1", "P1", "P1")))
        lhs = _add(lhs, {mono: 1})
    rhs = _random_terms(rng, True, oracle, max_degree=1)
    gap = points(lhs) - points(rhs) + (0 if target == "equal" else rng.choice((-2, -1, 1, 2)))
    rhs = _add(rhs, {(): gap})
    if not any(c > 0 for c in rhs.values()):
        # keep a positive leading term: add the same class to both sides
        lhs, rhs = _add(lhs, {("P1",): 1}), _add(rhs, {("P1",): 1})
    expected = oracle.eq(lhs, rhs)
    argv = ["ring", ctx["ledger_path"], "eq", format_expr(lhs), format_expr(rhs)]

    def check(r):
        (v,) = _verdicts(r)
        return r.code == (0 if expected == "equal" else 1) and v["detail"] == expected

    return _cli_job("ring eq", argv, check)


def _measure_job(ctx, rng):
    oracle = ctx["oracle"]
    line = rng.choice(LABELS)
    checks = {"pt": oracle.eq(_sub({(line,): 1}, {(): 1}), {(): 1})}
    for lbl in LABELS:
        checks[lbl] = oracle.eq(_mul(_sub({(line,): 1}, {(): 1}), {(lbl,): 1}), {(lbl,): 1})
    ok = all(v == "equal" for v in checks.values())

    def check(r):
        got = {v["name"]: v.get("detail") for v in _verdicts(r)}
        want = {f"mu(L)*[{k}] = [{k}]": v for k, v in checks.items()}
        return r.code == (0 if ok else 1) and all(got.get(k) == v for k, v in want.items())

    return _cli_job("ring measure", ["ring", ctx["ledger_path"], "measure", "--line", line], check)


def _invariants_job(ctx):
    def check(r):
        (v,) = _verdicts(r)
        return r.code == 0 and v["detail"] == "free rank 1, torsion []"

    return _cli_job("ring invariants", ["ring", ctx["ledger_path"], "invariants"], check)


def _out_path(ctx):
    return os.path.join(ctx["out"], f"ledger{next(ctx['serial'])}.json")


def _written_body(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["body"]
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _write_job(kind, argv, out, ok, body_ok):
    """A ring command that writes a new ledger version to `out`: exit 0 and a
    body accepted by body_ok when ok, else exit 1 and no file."""

    def check(r):
        if not ok:
            return r.code == 1 and not os.path.exists(out)
        return r.code == 0 and body_ok(_written_body(out))

    return _cli_job(kind, argv, check)


def _relate_expr_job(ctx, rng):
    oracle = ctx["oracle"]
    terms = _random_terms(rng, False, oracle, max_degree=2)
    registered = rng.random() < 0.8
    if not registered:
        terms[("P3",)] = 1
    citation = f"seeded external relation {rng.randrange(10**6)}"
    out = _out_path(ctx)
    argv = ["ring", ctx["ledger_path"], "relate", "--expr", format_expr(terms),
            "--provenance", "external-paper-fact", "--citation", citation, "--out", out]
    base = ctx["ledger"]["body"]

    def body_ok(body):
        new = body["relations"][-1]
        return (
            body["relations"][:-1] == base["relations"]
            and body["facts"] == base["facts"]
            and body["generators"] == base["generators"]
            and parse_expr(new["expr"]) == terms
            and new["provenance"] == {"kind": "external-paper-fact", "citation": citation, "payload": None}
        )

    return _write_job("ring relate --expr", argv, out, registered, body_ok)


def _relate_claim_job(ctx, rng):
    name = rng.choice(sorted(CLAIMS))
    owner, blocks, valid = CLAIMS[name]
    label = owner if rng.random() < 0.5 else rng.choice(LABELS)
    ok = valid and label == owner
    out = _out_path(ctx)
    argv = ["ring", ctx["ledger_path"], "relate", "--claim", os.path.join(ctx["docs"], name), "--label", label, "--out", out]
    base = ctx["ledger"]["body"]

    def body_ok(body):
        new = body["relations"][-1]
        return (
            body["relations"][:-1] == base["relations"]
            and parse_expr(new["expr"]) == {(label,): 1, (): -blocks}
            and new["provenance"]["kind"] == "verified-sod"
        )

    return _write_job("ring relate --claim", argv, out, ok, body_ok)


def _fact_job(ctx, rng):
    oracle = ctx["oracle"]
    existing = sorted(oracle.facts)
    if rng.random() < 0.5:
        pair = rng.choice(existing)
        old = oracle.facts[pair]
        value = {(): points(old) + rng.choice((0, 0, 1))}
        if rng.random() < 0.5:
            value = _add(value, {(): -2, ("P1",): 1})
        ok = oracle.eq(old, value) == "equal"
    else:
        pair = tuple(sorted(rng.sample(("P2", "P1xP1", "P1xP2", "BlP2pt"), 2)))
        value = {(): rng.randint(1, 30)}
        ok = True
    citation = f"seeded product fact {rng.randrange(10**6)}"
    out = _out_path(ctx)
    argv = ["ring", ctx["ledger_path"], "fact", "--a", pair[0], "--b", pair[1], "--value", format_expr(value),
            "--citation", citation, "--out", out]
    base = ctx["ledger"]["body"]

    def body_ok(body):
        if pair in oracle.facts:
            return body == base
        added = [f for f in body["facts"] if f not in base["facts"]]
        return (
            len(added) == 1
            and len(body["facts"]) == len(base["facts"]) + 1
            and tuple(added[0]["pair"]) == pair
            and parse_expr(added[0]["value"]) == value
            and added[0]["provenance"]["citation"] == citation
        )

    return _write_job("ring fact", argv, out, ok, body_ok)


def _validate_job(ctx, name):
    want = VALIDATE_DOCS[name]
    return _cli_job("validate", ["validate", os.path.join(ctx["docs"], name)], lambda r: r.code == want)


def _ext_job(ctx, name):
    shape, steps = CATEGORY_DOCS[name]
    coords = _product_coords(steps)

    def check(r):
        want = [[{"0": d} if d else {} for d in (_binom_dim(shape, a, b) for b in coords)] for a in coords]
        got = [[json.loads(cell) for cell in row[1:]] for row in r.report()["tables"]["ext"][1:]]
        return r.code == 0 and got == want

    return _cli_job("ext", ["ext", os.path.join(ctx["docs"], name)], check)


def _check_sod_job(ctx, name):
    valid = CLAIMS[name][2]
    return _cli_job("check-sod", ["check-sod", os.path.join(ctx["docs"], name)], lambda r: r.code == (0 if valid else 1))


def cli_pass(ctx, rng):
    os.makedirs(ctx["out"], exist_ok=True)
    docs = ctx["docs"]
    qe = os.path.join(docs, "kronecker_block_e1_point.equiv-certificate.json")
    hostile = [
        _cli_job("hostile validate mutated", ["validate", p], lambda r: r.code == 2, hostile=True)
        for p in ctx["mutated"]
    ]
    hostile.append(_cli_job("hostile check-sod scaled ids", ["check-sod", ctx["scaled"]], lambda r: r.code == 1, hostile=True))
    hostile.append(_cli_job("hostile validate scaled ids", ["validate", ctx["scaled"]], lambda r: r.code == 1, hostile=True))
    if ctx["tiny"]:
        return [_eq_job(ctx, rng), _relate_expr_job(ctx, rng), _validate_job(ctx, "kronecker.category.json"),
                _ext_job(ctx, "beilinson3.category.json")] + hostile
    serre = rng.choice(sorted(SERRE))
    jobs = [_eq_job(ctx, rng) for _ in range(11)]
    jobs += [_measure_job(ctx, rng) for _ in range(2)]
    jobs += [_invariants_job(ctx)]
    jobs += [_relate_expr_job(ctx, rng) for _ in range(3)]
    jobs += [_relate_claim_job(ctx, rng)]
    jobs += [_fact_job(ctx, rng) for _ in range(2)]
    jobs += [_cli_job("validate ledger", ["validate", ctx["ledger_path"]], lambda r: r.code == 0)]
    jobs += [_validate_job(ctx, n) for n in rng.sample(sorted(VALIDATE_DOCS), 2)]
    jobs += [_ext_job(ctx, rng.choice(sorted(CATEGORY_DOCS)))]
    jobs += [_check_sod_job(ctx, rng.choice(sorted(CLAIMS)))]
    jobs += [_cli_job("check-qe", ["check-qe", qe], lambda r: r.code == 0)]
    jobs += [_cli_job("serre", ["serre", "--fixture", serre], lambda r: r.code == SERRE[serre])]
    return jobs + hostile


WORKLOADS = {
    "quiver": (quiver_setup, quiver_pass),
    "hull": (hull_setup, hull_pass),
    "cli": (cli_setup, cli_pass),
}
