"""Finite DG categories: representation, validation, quivers, opposite, tensor.

Composition convention: mul(f: A->B, g: B->C) is the composite A->C ("f then
g"), and composition is a chain map from Hom(A,B) (x) Hom(B,C), so the graded
Leibniz rule reads

    d(mul(f, g)) = mul(df, g) + (-1)^{deg f} mul(f, dg).

Hom complexes carry explicit ordered bases; all structure constants are
stored sparsely and every operation is deterministic in the basis order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .exactlin import ChainComplex, Matrix, axpy, check_same_field


class ObjId(NamedTuple):
    """An object of a category; a tuple, so hashing, equality and ordering
    by (label, index) run in C on every Hom and composition lookup."""

    label: str
    index: int


@dataclass
class Hom:
    """A Hom chain complex together with basis names per degree."""

    complex: ChainComplex
    names: dict

    def dim(self, n):
        return self.complex.dim(n)

    def name(self, n, i):
        return self.names.get(n, [f"b{i}"] * (i + 1))[i]


@dataclass
class Morphism:
    src: ObjId
    dst: ObjId
    degree: int
    coords: dict  # basis index -> nonzero scalar

    def is_zero(self):
        return not self.coords

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.src == other.src
            and self.dst == other.dst
            and self.degree == other.degree
            and self.coords == other.coords
        )


@dataclass
class Violation:
    axiom: str
    where: tuple
    detail: str


class InfiniteDimensionalHom(Exception):
    pass


class Tables(dict):
    """The composition tables of a DGCategory, {(A, B, C): table}.

    A triple not yet read is built by `build(triple)` on its first read and
    kept, an empty table included.  Without a `build` (a category given
    every table at once) a missing triple reads as {}, and nothing is
    stored.  So read one table by subscript: `get`, iteration and `in` see
    only the tables built so far.  `DGCategory.every_table` reads them all.

    A table is not changed once read, so `operator` keeps what it derives
    from one in this Tables, and it is freed with its category.
    """

    __slots__ = ("build", "_operators")

    def __init__(self, tables=(), build=None):
        super().__init__(tables)
        self.build = build
        self._operators = {}  # (key, fixed) -> {(p, q): operator}

    def __missing__(self, key):
        if self.build is None:
            return {}
        table = self[key] = self.build(key)
        return table

    def operator(self, key, fixed, p, q):
        """Multiplication by each basis element e_s under the table of key,
        for first factors of degree p and second factors of degree q:
        {s: [(t, k, v), ...]}, where the product has coordinate v at basis
        element k.  fixed is the factor e_s is: 0 for e_s·e_t (s of degree
        p, t of degree q), 1 for e_t·e_s (t of degree p, s of degree q).

        Every degree pair of one table and side is built on the first
        request and kept; a pair without products reads as {}."""
        ops = self._operators.get((key, fixed))
        if ops is None:
            ops = self._operators[(key, fixed)] = {}
            for (a, i, b, j), cons in self[key].items():
                s, t = (j, i) if fixed else (i, j)
                ops.setdefault((a, b), {}).setdefault(s, []).extend((t, k, v) for k, v in cons.items())
        return ops.get((p, q), {})


class DGCategory:
    """Finite DG category with chosen bases and sparse structure constants.

    comp[(A,B,C)][(p, i, q, j)] is a dict {k: scalar} expressing
    mul(basis_i^p(A,B), basis_j^q(B,C)) = sum_k scalar * basis_k^{p+q}(A,C).
    comp is a `Tables`; a plain dict of tables is copied into one.
    """

    def __init__(self, field, objects, homs, comp, ids, name=""):
        self.field = field
        self.objects = tuple(objects)
        self.homs = homs
        self.comp = comp if isinstance(comp, Tables) else Tables(comp)
        self.ids = ids
        self.name = name
        self._by_label = {o.label: o for o in self.objects}
        self._empty_hom = None

    def obj(self, label):
        return self._by_label[label]

    def hom(self, a, b):
        """Hom(a, b); a pair without one gets the category's one empty Hom,
        made on first use (callers only read what hom returns)."""
        h = self.homs.get((a, b))
        if h is None:
            h = self._empty_hom
            if h is None:
                h = self._empty_hom = Hom(ChainComplex(self.field, {}), {})
        return h

    def basis_morphism(self, a, b, degree, idx):
        return Morphism(a, b, degree, {idx: self.field.one()})

    def identity(self, a):
        return self.ids[a]

    def add(self, f, g):
        if (f.src, f.dst, f.degree) != (g.src, g.dst, g.degree):
            raise ValueError("add: morphisms differ in source, target or degree")
        return Morphism(f.src, f.dst, f.degree, axpy(self.field, dict(f.coords), g.coords))

    def scale(self, c, f):
        fl = self.field
        if fl.is_zero(c):
            return Morphism(f.src, f.dst, f.degree, {})
        return Morphism(f.src, f.dst, f.degree, {k: fl.mul(c, v) for k, v in f.coords.items()})

    def neg(self, f):
        return self.scale(self.field.neg(self.field.one()), f)

    def mul(self, f, g):
        """Composite of f: A->B then g: B->C."""
        if f.dst != g.src:
            raise ValueError(f"mul: {f.dst} != {g.src}")
        table = self.comp[(f.src, f.dst, g.dst)]
        return Morphism(f.src, g.dst, f.degree + g.degree, contract(self.field, table, f.degree, f.coords, g.degree, g.coords))

    def d(self, f):
        """Hom-complex differential applied to a morphism."""
        m = self.hom(f.src, f.dst).complex.diff.get(f.degree)
        return Morphism(f.src, f.dst, f.degree + 1, m.apply(f.coords) if m is not None else {})

    # -- validation -------------------------------------------------------

    def validate(self):
        """Report of every violated axiom (empty report = valid category).

        Checks, in order: d² per Hom; unit and unit_cycle per object;
        left/right unit per basis element; Leibniz over (a, b, c, p, q, i,
        j); associativity over (a, b, c, e, p, q, r, i, j, k).  Products are
        `contract`s of coordinate dicts against the structure-constant
        tables.  Object chains run over nonzero Homs in `objects` order,
        which lists violations as a walk over all object tuples would.  Three
        skips leave out only work whose answer is "no violation":
        * a Leibniz block (a, b, c, p, q) where d(p) on Hom(a,b), d(q) on
          Hom(b,c) and d(p+q) on Hom(a,c) are all zero, since then d(fg),
          (df)g and f(dg) are zero for all basis f, g;
        * an associativity triple (i, j, k) whose table has no entry for fg
          nor for gh, since then (fg)h = 0 = f(gh);
        * in the generating-set pass below, a triple whose f or g is the
          basis element e_x of End(x) in degree 0 with id_x = c·e_x
          (`identity_basis`).  That pass runs only on an empty report, so
          the unit laws hold on every basis element, and by bilinearity on
          every product, which lies in the span of the basis there:
          e_x·y = c⁻¹y and y·e_x = c⁻¹y.  Then (e_x g)h = c⁻¹(gh) =
          e_x(gh), and (f e_x)h = c⁻¹(fh) = f(e_x h).

        When every other axiom holds and the tables stay inside the basis,
        associativity is first checked for h in `generating_set()` only; if
        that finds no violation, none exists (see there).  If it finds one,
        the walk over every f, g and h runs, so a category that is not a DG
        category gets the full report, in order.
        """
        fl, homs, comp, ids = self.field, self.homs, self.comp, self.ids
        one, sign = fl.one(), fl.neg(fl.one())
        report = []
        for (a, b), h in sorted(homs.items()):
            for n in h.complex.validate():
                report.append(Violation("d_squared", (a.label, b.label, n), "d(n+1)·d(n) != 0"))
        for a in self.objects:
            ida = ids.get(a)
            if ida is None or ida.degree != 0:
                report.append(Violation("unit", (a.label,), "missing or wrong-degree identity"))
                continue
            h = homs.get((ida.src, ida.dst))
            if h is not None and 0 in h.complex.diff and h.complex.diff[0].apply(ida.coords):
                report.append(Violation("unit_cycle", (a.label,), "d(id) != 0"))
        for (a, b), h in sorted(homs.items()):
            ida, idb = ids.get(a), ids.get(b)
            if h.complex.dims and ((ida is not None and ida.dst != a) or (idb is not None and idb.src != b)):
                raise ValueError(f"an identity does not compose with Hom({a.label},{b.label})")
            left, right = comp[(a, a, b)], comp[(a, b, b)]
            for n in h.complex.degrees():
                for i in range(h.dim(n)):
                    f = {i: one}
                    if ida is not None and (ida.src != a or ida.degree or contract(fl, left, 0, ida.coords, n, f) != f):
                        report.append(Violation("left_unit", (a.label, b.label, n, i), "id·f != f"))
                    if idb is not None and (idb.dst != b or idb.degree or contract(fl, right, n, f, 0, idb.coords) != f):
                        report.append(Violation("right_unit", (a.label, b.label, n, i), "f·id != f"))
        targets = {a: [b for b in self.objects if (a, b) in homs and homs[(a, b)].complex.dims] for a in self.objects}
        chains = [(a, b, c) for a in self.objects for b in targets[a] for c in targets[b]]
        for a, b, c in chains:
            hab, hbc, t = homs[(a, b)].complex, homs[(b, c)].complex, comp[(a, b, c)]
            dac = homs[(a, c)].complex.diff if (a, c) in homs else {}
            for p in hab.degrees():
                for q in hbc.degrees():
                    m_ab, m_bc, m_ac = hab.diff.get(p), hbc.diff.get(q), dac.get(p + q)
                    if m_ab is None and m_bc is None and m_ac is None:
                        continue
                    dg = [m_bc.apply({j: one}) if m_bc else {} for j in range(hbc.dim(q))]
                    for i in range(hab.dim(p)):
                        f = {i: one}
                        df = m_ab.apply(f) if m_ab else {}
                        for j in range(hbc.dim(q)):
                            fg = contract(fl, t, p, f, q, {j: one})
                            rhs = contract(fl, t, p + 1, df, q, {j: one})
                            axpy(fl, rhs, contract(fl, t, p, f, q + 1, dg[j]), sign if p % 2 else None)
                            if (m_ac.apply(fg) if m_ac else {}) != rhs:
                                report.append(Violation("leibniz", (a.label, b.label, c.label, p, i, q, j), "d(fg) != (df)g ± f(dg)"))
        if not report and (gens := self.generating_set()) is not None and not self._associativity(targets, chains, gens, self.identity_basis()):
            return report
        every = {key: {r: range(h.dim(r)) for r in h.complex.degrees()} for key, h in homs.items()}
        return report + self._associativity(targets, chains, every, {})

    def _associativity(self, targets, chains, hs, unit):
        """Violations of (fg)h = f(gh) for all basis f, g and, in Hom(c, e)
        at degree r, the basis indices hs[(c, e)][r] (increasing) of h.
        f and g run over every basis element but the unit[(x, x)] of End(x)
        in degree 0 (`identity_basis`); pass {} for all of them."""
        fl, homs, comp = self.field, self.homs, self.comp
        one = fl.one()
        report = []
        for a, b, c in chains:
            hab, hbc, t_abc = homs[(a, b)].complex, homs[(b, c)].complex, comp[(a, b, c)]
            ia, ib = unit.get((a, b)), unit.get((b, c))
            fs = {p: [i for i in range(hab.dim(p)) if p or i != ia] for p in hab.degrees()}
            gs = {q: [j for j in range(hbc.dim(q)) if q or j != ib] for q in hbc.degrees()}
            if not any(fs.values()) or not any(gs.values()):
                continue  # no f or no g to check, e.g. End(a) spanned by the unit
            for e in targets[c]:
                h_range = hs.get((c, e))
                if not h_range:
                    continue
                t_bce, t_ace, t_abe = comp[(b, c, e)], comp[(a, c, e)], comp[(a, b, e)]
                for p, is_ in fs.items():
                    for q, js in gs.items():
                        for r, ks in h_range.items():
                            # gh: (j, the table's nonempty entries for g·h, in increasing k)
                            gh = [(j, {k: cons for k in ks if (cons := t_bce.get((q, j, r, k)))}) for j in js]
                            for i in is_:
                                f = {i: one}
                                for j, ghj in gh:
                                    fg = t_abc.get((p, i, q, j))
                                    for k in ks if fg else ghj:
                                        if contract(fl, t_ace, p + q, fg or {}, r, {k: one}) != contract(fl, t_abe, p, f, q + r, ghj.get(k, {})):
                                            where = (a.label, b.label, c.label, e.label, (p, i), (q, j), (r, k))
                                            report.append(Violation("associativity", where, "(fg)h != f(gh)"))
        return report

    def generating_set(self):
        """Basis elements S, as {(a, b): {degree: [index, ...]}}, such that
        (fg)h = f(gh) for all basis f, g and every h in S gives it for every
        h, provided the unit laws hold.  Found from the tables alone:
        * S0 is every basis element e_k that is not a table product x·y =
          c·e_k, c != 0, of two non-identity basis elements;
        * a closure G starts from S0 and adds e_k whenever a table entry g·s,
          g in G and s in S0, is a single term c·e_k with c != 0;
        * S is S0 together with every basis element G does not reach, less
          the basis elements that are identities (`identity_basis`).
        None when a table entry names an index outside the basis of its
        Hom in its degree.

        Soundness does not depend on how S0 is picked.  Write A(h) for
        "(fg)h = f(gh) for all f, g"; it is linear in h and holds for an
        identity by the unit laws.  If A(u) and A(s) hold, so does A(u·s):
        (fg)(us) = ((fg)u)s = (f(gu))s = f((gu)s) = f(g(us)), by A(s),
        A(u), A(s) and A(s) in turn.  A(c·e_k) gives A(e_k) only when c !=
        0, which is why a stored zero constant is never followed.  So A holds
        on G by induction along the closure, and on the rest of the basis
        because it is in S.  The steps read A(s) with f·g and g·u in place
        of basis elements, which holds by linearity only when every product
        lies in the span of the basis: hence None otherwise.  (This is
        the reduction to generators behind Bergman's diamond lemma, 1978.)
        """
        fl, homs, tables = self.field, self.homs, self.every_table()
        unit = self.identity_basis()

        def single(cons):  # k when a product is c·e_k with c != 0, else None
            if len(cons) == 1:
                ((k, c),) = cons.items()
                if not fl.is_zero(c):
                    return k
            return None

        # basis[(a, b)][n]: the basis indices of Hom(a, b) in degree n
        basis = {key: {n: frozenset(range(d)) for n, d in h.complex.dims.items()} for key, h in homs.items()}
        none = frozenset()
        made = {}
        for (a, b, c), table in tables.items():
            ia, ib = unit.get((a, b)), unit.get((b, c))
            out, within = made.setdefault((a, c), set()), basis.get((a, c), {})
            for (p, i, q, j), cons in table.items():
                if not cons.keys() <= within.get(p + q, none):
                    return None
                if (p or i != ia) and (q or j != ib) and (k := single(cons)) is not None:
                    out.add((p + q, k))
        seeds, by_src = [], {}
        for (a, b), h in homs.items():
            mk, iu = made.get((a, b), ()), unit.get((a, b))
            for n in h.complex.degrees():
                for i in range(h.dim(n)):
                    if (n, i) not in mk and not (n == 0 and i == iu):
                        seeds.append((a, b, n, i))
                        by_src.setdefault(a, []).append((b, n, i))
        s0, seen, queue = set(seeds), set(seeds), seeds
        for a, b, p, i in queue:  # grows while it runs: a breadth-first closure
            for c, q, j in by_src.get(b, ()):
                k = single(tables.get((a, b, c), {}).get((p, i, q, j), {}))
                if k is not None and (x := (a, c, p + q, k)) not in seen:
                    seen.add(x)
                    queue.append(x)
        gens = {}
        for (a, b), h in homs.items():
            iu = unit.get((a, b))
            for n in h.complex.degrees():
                ks = [i for i in range(h.dim(n)) if ((a, b, n, i) in s0 or (a, b, n, i) not in seen) and not (n == 0 and i == iu)]
                if ks:
                    gens.setdefault((a, b), {})[n] = ks
        return gens

    def every_table(self):
        """{(A, B, C): table} for the readers that need every table: the
        stored tables of a category given them all at once, else the
        nonempty tables of all triples, each built if it was not."""
        comp, objs = self.comp, self.objects
        if comp.build is None:
            return comp
        return {key: t for a in objs for b in objs for c in objs if (t := comp[key := (a, b, c)])}

    def identity_basis(self):
        """{(a, a): k} for each object a whose identity is a multiple of one
        degree-0 basis element e_k of End(a)."""
        return {(a, a): next(iter(m.coords)) for a, m in self.ids.items() if m.degree == 0 and len(m.coords) == 1}


def contract(fl, table, p, x, q, y):
    """Product of coordinate vectors x (degree p) and y (degree q) under a
    structure-constant table {(p, i, q, j): {k: scalar}}, as a sparse dict.

    A basis vector's coordinate is the field's shared one(): a product with
    it is taken without a multiplication, and a product equal to it scales
    nothing."""
    one, mul = fl.one(), fl.mul
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            cons = table.get((p, i, q, j))
            if cons:
                ab = b if a is one else a if b is one else mul(a, b)
                axpy(fl, out, cons, None if ab is one else ab)
    return out


# -- quiver presentations -----------------------------------------------------


@dataclass
class Arrow:
    name: str
    src: str
    dst: str
    degree: int = 0


def from_quiver(field, vertices, arrows, relations=(), max_path_length=32, max_paths=4096):
    """DG category presented by a graded quiver with k-linear relations.

    vertices: list of labels.  arrows: list of Arrow or (name, src, dst[,deg])
    tuples.  relations: each a list of (coeff, [arrow names]) terms; all terms
    of one relation must be parallel paths of equal length and equal degree.
    The differential is zero.  Raises InfiniteDimensionalHom when path spaces
    fail to die out within the configured bounds: more than max_path_length
    arrows in a nonzero path, or more than max_paths candidate paths (the
    trivial paths included) over all lengths.

    Basis rule: paths of one length, as tuples of arrow names in sorted
    order, form a monomial order compatible with concatenation.  The basis
    paths are those that are not the largest term of any element of the
    ideal.  The bytes of every document built from a quiver, the shipped
    fixtures included, depend on this rule.

    Construction, length by length: basis paths are closed under prefixes,
    so the candidates of length L are the basis paths of length L-1 followed
    by one arrow.  The ideal's part of length L is I_{L-1}·V (V the arrows)
    plus the q·R for the relations R of length r and the basis paths q of
    length L-r.  Rewriting each such q·R over the candidates (the normal
    form of q along all but the last arrow of each term, then that arrow)
    kills I_{L-1}·V, so one reduced echelon form of those rows, columns in
    decreasing path order, has the ideal's leading terms as pivots and
    their normal forms as rows.  The other candidates are the basis paths
    of length L.  Structure constants come from right multiplication by
    one arrow at a time, except the rows of a trivial path e_u, which are
    written directly: e_u·q = q and p·e_v = p, with the shared one().
    """
    arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
    arrow_by_name = {a.name: a for a in arrows}
    if len(arrow_by_name) != len(arrows):
        raise ValueError("duplicate arrow names")
    for a in arrows:
        if a.src not in vertices or a.dst not in vertices:
            raise ValueError(f"arrow {a.name} endpoints not in vertex list")

    rels_into = {}  # target vertex -> [(source vertex, length, terms)]
    for rel in relations:
        terms = []
        sig = None
        for coeff, path in rel:
            path = tuple(path)
            if not path:
                raise ValueError("relations must involve paths of length >= 1")
            arrs = [arrow_by_name[n] for n in path]
            for x, y in zip(arrs, arrs[1:]):
                if x.dst != y.src:
                    raise ValueError(f"relation path {path} is not composable")
            key = (arrs[0].src, arrs[-1].dst, len(path), sum(a.degree for a in arrs))
            if sig is None:
                sig = key
            elif sig != key:
                raise ValueError("relation terms must be parallel, length- and degree-homogeneous")
            c = coeff if not isinstance(coeff, int) else field.from_int(coeff)
            terms.append((c, path))
        if sig is not None:
            rels_into.setdefault(sig[1], []).append((sig[0], sig[2], terms))

    one, neg = field.one(), field.neg
    out_arrows = {}
    for a in arrows:
        out_arrows.setdefault(a.src, []).append((a.name, a.dst))

    # rmul[(b, a)]: normal form of the candidate b·a, a sparse dict
    # {basis path: scalar} whose scalars equal to 1 are the shared one()
    rmul = {}
    products = {}  # (p, q) -> normal form of p·q, kept for the products p·q·a

    def times(vec, a):  # the normal form vec·a; the result may be an rmul entry, never to be mutated
        if len(vec) == 1:
            ((b, c),) = vec.items()
            if c is one:
                return rmul[(b, a)]
        out = {}
        for b, c in vec.items():
            axpy(field, out, rmul[(b, a)], None if c is one else c)
        for b, c in out.items():
            if c is not one and c == one:
                out[b] = one
        return out

    def product(p, q):
        """Normal form of the path p·q, for a basis path p and any path q
        with rmul entries for the candidates along the way: from the longest
        prefix q' of q with p·q' known, one arrow at a time.  A loop, not a
        recursion, so no reference cycle keeps these tables alive."""
        t = len(q)
        while t and (p, q[:t]) not in products:
            t -= 1
        nf = products[(p, q[:t])] if t else {p: one}
        for s in range(t, len(q)):
            nf = products[(p, q[: s + 1])] = times(nf, q[s])
        return nf

    # basis[L][(u, v)]: the basis paths of length L from u to v, sorted
    basis = [{(v, v): [()] for v in vertices}]
    chosen = {(v, v): [()] for v in vertices}
    total_paths = len(vertices)
    L = 0
    while True:
        candidates = {}
        for (u, v), paths in basis[L].items():
            for b in paths:
                for a, w in out_arrows.get(v, ()):
                    candidates.setdefault((u, w), []).append(b + (a,))
        total_paths += sum(map(len, candidates.values()))
        if total_paths > max_paths:
            raise InfiniteDimensionalHom(f"candidate path count exceeded {max_paths}")
        L += 1
        if L > max_path_length:
            raise InfiniteDimensionalHom(f"path length exceeded {max_path_length}")
        level = {}
        for (u, w), cands in sorted(candidates.items()):
            cands.sort(reverse=True)
            col = {c: j for j, c in enumerate(cands)}
            rows = []
            for rs, r, terms in rels_into.get(w, ()):
                if r > L:
                    continue
                for q in basis[L - r].get((u, rs), ()):
                    row = {}
                    for c, mid in terms:
                        last = mid[-1:]
                        vec = {col[b + last]: cb for b, cb in product(q, mid[:-1]).items()}
                        axpy(field, row, vec, None if c is one else c)
                    if row:
                        rows.append(row)
            lead = set()
            if rows:
                ideal = Matrix(field, len(rows), len(cands), {(i, j): v for i, row in enumerate(rows) for j, v in row.items()})
                for j, row in ideal._reduced():
                    lead.add(j)
                    nf = {}
                    for k, v in row.items():
                        if k != j:
                            v = neg(v)
                            nf[cands[k]] = one if v == one else v
                    rmul[(cands[j][:-1], cands[j][-1])] = nf
            picked = [c for j, c in enumerate(cands) if j not in lead][::-1]
            for c in picked:
                rmul[(c[:-1], c[-1])] = {c: one}
            if picked:
                level[(u, w)] = picked
                chosen.setdefault((u, w), []).extend(picked)
        if not level:
            break
        basis.append(level)

    def path_degree(p):
        return sum(arrow_by_name[n].degree for n in p)

    def path_name(p):
        return "*".join(p) if p else None

    objs = tuple(ObjId(v, i) for i, v in enumerate(vertices))
    by_label = {o.label: o for o in objs}
    homs = {}
    basis_index = {}  # (u, v) -> {path: (degree, idx)}
    for (u, v), paths in sorted(chosen.items()):
        by_deg = {}
        for p in paths:
            by_deg.setdefault(path_degree(p), []).append(p)
        dims = {n: len(ps) for n, ps in by_deg.items()}
        names = {n: tuple(path_name(p) or f"e_{u}" for p in ps) for n, ps in by_deg.items()}
        homs[(by_label[u], by_label[v])] = Hom(ChainComplex(field, dims), names)
        basis_index[(u, v)] = {p: (n, i) for n, ps in by_deg.items() for i, p in enumerate(ps)}

    comp = Tables()
    for (u, v), idx_uv in basis_index.items():
        for (v2, w), idx_vw in basis_index.items():
            if v2 != v:
                continue
            idx_uw = basis_index.get((u, w))
            table = {}
            for p, (np_, ip) in idx_uv.items():
                for q, (nq, iq) in idx_vw.items():
                    entry = {}
                    for b, c in (product(p, q) if p and q else {p + q: one}).items():
                        nr, ir = idx_uw[b]
                        if nr != np_ + nq:
                            raise RuntimeError("degree bookkeeping error in quiver composition")
                        entry[ir] = c
                    if entry:
                        table[(np_, ip, nq, iq)] = entry
            if table:
                comp[(by_label[u], by_label[v], by_label[w])] = table

    ids = {}
    for o in objs:
        n_i = basis_index[(o.label, o.label)][()]
        ids[o] = Morphism(o, o, n_i[0], {n_i[1]: one})
    return DGCategory(field, objs, homs, comp, ids, name="quiver")


def full_subcategory(cat, objs):
    """Full DG subcategory on the given objects (same bases); it reads
    cat's table of a triple when its own is first read."""
    objs = tuple(objs)
    keep = set(objs)
    homs = {k: v for k, v in cat.homs.items() if k[0] in keep and k[1] in keep}
    ids = {o: cat.ids[o] for o in objs}
    return DGCategory(cat.field, objs, homs, Tables(build=lambda key: cat.comp[key]), ids, name=f"{cat.name}|sub")


def opposite(cat):
    """Opposite DG category: Hom_op(A,B) = Hom(B,A), with the Koszul sign
    mul_op(f, g) = (-1)^{deg f deg g} mul(g, f).  Each table is cat's
    table of the reversed triple, transposed, on its first read."""
    fl = cat.field
    one, minus = fl.one(), fl.neg(fl.one())
    homs = {(a, b): cat.hom(b, a) for (b, a) in cat.homs}

    def build(key):
        # mul_op over A->B->C uses cat.mul over C->B->A:
        # mul(g: C->B at (q, j), f: B->A at (p, i)) -> Hom(C, A)
        a, b, c = key
        table = {}
        for (q, j, p, i), cons in cat.comp[(c, b, a)].items():
            sign = minus if p * q % 2 else one
            table[(p, i, q, j)] = {k: fl.mul(sign, v) for k, v in cons.items()}
        return table

    return DGCategory(fl, cat.objects, homs, Tables(build=build), dict(cat.ids), name=f"{cat.name}^op")


class Blocks:
    """The basis order of a graded direct sum, kept per block: built from
    (key, degree, size) triples in basis order, each block following the
    earlier blocks of its degree.  `at[key]` is the block's (degree, offset,
    size), so its vector t is column offset + t, and `dims` is {degree:
    dimension}.  Block (p, q) of Hom^p (x) Hom^q has x_i (x) y_j at
    t = i dim(Hom^q) + j."""

    __slots__ = ("at", "dims", "_starts")

    def __init__(self, blocks):
        self.at, self.dims, self._starts = {}, {}, {}
        for key, n, size in blocks:
            off = self.dims.get(n, 0)
            self.at[key] = n, off, size
            self.dims[n] = off + size
            self._starts.setdefault(n, []).append((off, key))

    def column(self, key, t):
        """The column of vector t of block key."""
        _, off, size = self.at[key]
        if not 0 <= t < size:
            raise IndexError(f"index {t} outside block {key} of size {size}")
        return off + t

    def locate(self, n, col):
        """(key, t) of column col of degree n: its block is the last one of
        the degree to start at or before col, before (col + 1,) in order."""
        if not 0 <= col < self.dims.get(n, 0):
            raise IndexError(f"column {col} outside degree {n} of dimension {self.dims.get(n, 0)}")
        off, key = self._starts[n][bisect_left(self._starts[n], (col + 1,)) - 1]
        return key, col - off


def tensor(c, d):
    """Tensor product DG category with the sign
    (f1 (x) g1)(f2 (x) g2) = (-1)^{deg g1 deg f2} f1 f2 (x) g1 g2.

    Builds the objects (a, b), the Hom complexes Hom_c(a1, a2) (x)
    Hom_d(b1, b2) with d(x (x) y) = dx (x) y + (-1)^p x (x) dy, and the
    identities id_a (x) id_b.  The table of a triple is derived from the
    factors' tables when it is first read (`_tensor_tables`)."""
    check_same_field(c.field, d.field)
    fl = c.field
    one, mul = fl.one(), fl.mul
    pair = {}
    for a in c.objects:
        for b in d.objects:
            pair[ObjId(f"({a.label},{b.label})", len(pair))] = (a, b)

    homs, layouts = {}, {}
    for o1, (a1, b1) in pair.items():
        for o2, (a2, b2) in pair.items():
            hc, hd = c.hom(a1, a2), d.hom(b1, b2)
            if hc.complex.dims and hd.complex.dims:
                layout = layouts[(o1, o2)] = Blocks(((p, q), p + q, m * k) for p, m in sorted(hc.complex.dims.items()) for q, k in sorted(hd.complex.dims.items()))
                homs[(o1, o2)] = _tensor_hom(fl, hc, hd, layout)

    ids = {}
    for o, (a, b) in pair.items():
        ida, idb = c.ids[a], d.ids[b]
        column, dim_b = layouts[(o, o)].column, d.hom(b, b).dim(0)
        if not all(0 <= j < dim_b for j in idb.coords):
            raise IndexError(f"the identity of {b.label} names an index outside its End in degree 0")
        coords = {column((0, 0), i * dim_b + j): vb if va is one else va if vb is one else mul(va, vb) for i, va in ida.coords.items() for j, vb in idb.coords.items()}
        ids[o] = Morphism(o, o, 0, coords)
    return TensorCategory(c, d, pair, homs, layouts, ids)


def _tensor_hom(fl, hc, hd, layout):
    """Hom_c (x) Hom_d in the basis order of layout, names "x(x)y".  Each
    factor differential is read once per degree; a column's image is worked
    out only when a factor has a differential."""
    minus = fl.neg(fl.one())
    dc = {p: m.columns() for p, m in hc.complex.diff.items()}
    dd = {q: m.columns() for q, m in hd.complex.diff.items()}
    name_c = {p: [hc.name(p, i) for i in range(hc.dim(p))] for p in hc.complex.dims}
    name_d = {q: [hd.name(q, j) for j in range(hd.dim(q))] for q in hd.complex.dims}
    at, dim_d = layout.at, hd.complex.dims
    ent, names = {}, {}
    for (p, q), (n, off, _) in at.items():
        names[n] = names.get(n, ()) + tuple([f"{x}(x){y}" for x in name_c[p] for y in name_d[q]])
        if not (dc or dd):
            continue
        # a factor differential out of degree p (q) makes block (p + 1, q) ((p, q + 1)) nonempty
        cols_c, cols_d, w, out = dc.get(p, {}), dd.get(q, {}), dim_d[q], ent.setdefault(n, {})
        off_x = at[(p + 1, q)][1] if cols_c else 0
        off_y, w_y = (at[(p, q + 1)][1], dim_d[q + 1]) if cols_d else (0, 0)
        for i in range(len(name_c[p])):
            for j in range(w):
                dx = {off_x + r * w + j: v for r, v in cols_c.get(i, {}).items()}
                dy = {off_y + i * w_y + r: v for r, v in cols_d.get(j, {}).items()}
                for row, v in axpy(fl, dx, dy, minus if p % 2 else None).items():
                    out[(row, off + i * w + j)] = v
    diff = {n: Matrix(fl, layout.dims.get(n + 1, 0), layout.dims[n], e) for n, e in ent.items() if e}
    return Hom(ChainComplex(fl, layout.dims, diff), names)


class TensorCategory(DGCategory):
    """c(x)d as `tensor` builds it: it keeps its factors, `pair_map` (object
    -> (a, b)), `pair_rev` and `layouts` ((o1, o2) -> the `Blocks` of
    Hom(o1, o2)), from which `comp` builds each table on its first read."""

    def __init__(self, c, d, pair_map, homs, layouts, ids):
        super().__init__(c.field, pair_map, homs, Tables(build=_tensor_tables(c, d, pair_map, layouts)), ids, name=f"{c.name}(x){d.name}")
        self.factors = (c, d)
        self.pair_map = pair_map
        self.pair_rev = {v: o for o, v in pair_map.items()}
        self.layouts = layouts

    def validate(self):
        """[] when both factors validate: the tensor product of two DG
        categories is a DG category, with the Koszul sign of `tensor` (the
        tests check the rule by the full walk on copies of the tables).
        Otherwise the full walk of DGCategory.validate, entry for entry."""
        c, d = self.factors
        if not c.validate() and not d.validate():
            return []
        return super().validate()


def _tensor_tables(c, d, pair, layouts):
    """The builder of one table of c(x)d from the factors' tables: the
    product of basis elements x1 (x) y1 and x2 (x) y2 is
    (-1)^{deg y1 deg x2} (x1 x2) (x) (y1 y2).  Table entries that name an
    index outside a factor's basis are dropped."""
    fl = c.field
    one, minus, mul = fl.one(), fl.neg(fl.one()), fl.mul

    def build(key):
        o1, o2, o3 = key
        at12, at23, at13 = (layouts[k].at if k in layouts else None for k in ((o1, o2), (o2, o3), (o1, o3)))
        if at12 is None or at23 is None or at13 is None:
            return {}
        (a1, b1), (a2, b2), (a3, b3) = pair[o1], pair[o2], pair[o3]
        c12, c23, c13 = (c.hom(a, b).complex.dims for a, b in ((a1, a2), (a2, a3), (a1, a3)))
        d12, d23, d13 = (d.hom(a, b).complex.dims for a, b in ((b1, b2), (b2, b3), (b1, b3)))
        # the entries whose indices, and whose products' terms, lie inside the factor bases
        ents_d = []
        for (q1, j1, q2, j2), cons in d.comp[(b1, b2, b3)].items():
            cons = [(jd, vd) for jd, vd in cons.items() if 0 <= jd < d13.get(q1 + q2, 0)]
            if cons and 0 <= j1 < d12.get(q1, 0) and 0 <= j2 < d23.get(q2, 0):
                ents_d.append((q1, j1, q2, j2, cons))
        table = {}
        for (p1, i1, p2, i2), cons in c.comp[(a1, a2, a3)].items():
            cons_c = [(ic, vc) for ic, vc in cons.items() if 0 <= ic < c13.get(p1 + p2, 0)]
            if not (cons_c and 0 <= i1 < c12.get(p1, 0) and 0 <= i2 < c23.get(p2, 0)):
                continue
            for q1, j1, q2, j2, cons_d in ents_d:
                (n1, off1, _), (n2, off2, _) = at12[(p1, q1)], at23[(p2, q2)]
                off13, w = at13[(p1 + p2, q1 + q2)][1], d13[q1 + q2]
                entry = {}
                for ic, vc in cons_c:
                    for jd, vd in cons_d:
                        # products by the shared one keep it, so `contract` skips them later
                        entry[off13 + ic * w + jd] = vd if vc is one else vc if vd is one else mul(vc, vd)
                key = (n1, off1 + i1 * d12[q1] + j1, n2, off2 + i2 * d23[q2] + j2)
                axpy(fl, table.setdefault(key, {}), entry, minus if (q1 * p2) % 2 else None)
        return table

    return build


def swap_iso(c, d):
    """The DG isomorphism c(x)d -> d(x)c, f(x)g -> (-1)^{deg f deg g} g(x)f."""
    from .functors import DGFunctor

    fl = c.field
    t1 = tensor(c, d)
    t2 = tensor(d, c)
    obj_map = {o: t2.pair_rev[(b, a)] for o, (a, b) in t1.pair_map.items()}
    mor_maps = {}
    for o1, o2 in t1.homs:
        lay1, lay2 = t1.layouts[(o1, o2)], t2.layouts[(obj_map[o1], obj_map[o2])]
        (a1, b1), (a2, b2) = t1.pair_map[o1], t1.pair_map[o2]
        dim_c, dim_d = c.hom(a1, a2).complex.dims, d.hom(b1, b2).complex.dims
        ent = {n: {} for n in lay1.dims}
        for (p, q), (n, off1, _) in lay1.at.items():
            off2 = lay2.at[(q, p)][1]
            sgn = fl.one() if (p * q) % 2 == 0 else fl.neg(fl.one())
            ent[n].update(((off2 + j * dim_c[p] + i, off1 + i * dim_d[q] + j), sgn) for i in range(dim_c[p]) for j in range(dim_d[q]))
        mor_maps[(o1, o2)] = {n: Matrix(fl, lay2.dims.get(n, 0), cols, ent[n]) for n, cols in lay1.dims.items()}
    return DGFunctor(t1, t2, obj_map, mor_maps, name="swap")
