"""One-sided twisted complexes: the pretriangulated hull of a DG category.

Sign conventions (the only place signs are produced):

* An entry x: obj_j -> obj_i of a matrix between twisted complexes is a base
  morphism of *underlying* degree u(x) = total_degree + shift_i - shift_j.
* Entry-level products convert the base category's composition (which is a
  chain map from the tensor product, Koszul sign on the first argument) to
  the classical one:  (-1)^{u(x) u(y)} mul(x, y)  for x applied first.
  _add_product is the one function that applies this sign; every other
  sign below enters the sums as a scalar.  With this, matrix products
  carry no further shift signs.
* The entrywise differential of an entry with target term shift s is
  (-1)^s d(x), and a twisted morphism f of total degree l differentiates as
  df = (d f_{ij}) + q' f - (-1)^l f q.
* Maurer-Cartan: dq + q^2 = 0 with the two rules above.
* The public compose() of twisted morphisms adds one total-degree Koszul
  sign, (-1)^{|f||g|}, so that the hull is again a DG category satisfying
  the dgcore Leibniz rule; for degree-0 morphisms nothing changes.

Under these rules the cone of a closed degree-0 morphism f: X -> Y is
literally (Y-terms ++ X-terms shifted by 1, blocks (q_Y, f, -q_X)), the
shift is (terms+n, (-1)^n q), and all structural cone relations hold on
the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .dgcore import Blocks, Morphism, ObjId
from .exactlin import ChainComplex, Matrix, axpy


class Refusal(Exception):
    """A failed obligation of a replayed certificate; the message names it.
    Not a ValueError, which `cli._parse` reads as a malformed document."""


class Term(NamedTuple):
    """A term obj[shift] of a twisted complex; a tuple, like `ObjId`."""

    obj: ObjId
    shift: int


class TwistedComplex:
    """(⊕ C_i[r_i], q) with q strictly upper triangular, dq + q² = 0.

    A twisted complex is not changed after construction: terms and q are
    written only here.  So its content key (_canon) is computed once, and
    _homs keeps the Hom complexes built with it as an end (see HomSpace).
    """

    def __init__(self, cat, terms, q=None, check=True):
        self.cat = cat
        self._key = None
        self._homs = {}  # (cat, content of x, content of y) -> (layout, complex)
        self.terms = tuple(t if isinstance(t, Term) else Term(*t) for t in terms)
        self.q = {}
        for (i, j), m in (q or {}).items():
            if m.is_zero():
                continue
            if i >= j:
                raise ValueError(f"q[{i},{j}] below or on the diagonal")
            exp = 1 + self.terms[i].shift - self.terms[j].shift
            if m.degree != exp:
                raise ValueError(f"q[{i},{j}] has underlying degree {m.degree}, expected {exp}")
            if (m.src, m.dst) != (self.terms[j].obj, self.terms[i].obj):
                raise ValueError(f"q[{i},{j}] endpoints wrong")
            self.q[(i, j)] = m
        if check and self.q:  # with q = 0, dq + q² = 0 holds trivially
            bad = maurer_cartan_defect(self)
            if bad:
                raise ValueError(f"Maurer-Cartan fails at {sorted(bad)[0]}")

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        """Same category and same content (the `_canon` key)."""
        return isinstance(other, TwistedComplex) and self.cat is other.cat and _canon(self) == _canon(other)

    def __repr__(self):
        inner = " + ".join(f"{t.obj.label}[{t.shift}]" for t in self.terms) or "0"
        return f"Tw({inner})"


class TwistedMorphism:
    """Matrix morphism between twisted complexes, homogeneous total degree."""

    def __init__(self, src, dst, degree, entries=None):
        self.src = src
        self.dst = dst
        self.degree = degree
        self.entries = {}
        for (i, j), m in (entries or {}).items():
            if m.is_zero():
                continue
            exp = degree + dst.terms[i].shift - src.terms[j].shift
            if m.degree != exp:
                raise ValueError(f"entry ({i},{j}) has underlying degree {m.degree}, expected {exp}")
            if (m.src, m.dst) != (src.terms[j].obj, dst.terms[i].obj):
                raise ValueError(f"entry ({i},{j}) endpoints wrong")
            self.entries[(i, j)] = m

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, TwistedMorphism)
            and self.src == other.src
            and self.dst == other.dst
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"TwMor(deg {self.degree}, {len(self.entries)} entries)"


def _add_into(fl, out, key, m, c=None):
    """out[key] += c·m (c = None means 1) on a Morphism that out owns: the
    first summand at key is copied, so m is never changed.  An entry whose
    sum cancels is dropped."""
    cur = out.get(key)
    if cur is None:
        if m.coords:
            out[key] = Morphism(m.src, m.dst, m.degree, axpy(fl, {}, m.coords, c))
    elif not axpy(fl, cur.coords, m.coords, c):
        del out[key]


def _add_product(cat, out, left, right, c=None):
    """out += c·(right after left) on entry dicts: for each path
    k --x--> j --y--> i, adds (-1)^{u(x)u(y)} c·mul(x, y) at (i, k).  This
    is the one place that applies the Koszul conversion sign.  Returns out."""
    fl = cat.field
    minus = fl.neg(fl.one() if c is None else c)
    by_mid = {}
    for (j, k), x in left.items():
        by_mid.setdefault(j, []).append((k, x))
    for (i, j), y in right.items():
        for k, x in by_mid.get(j, ()):
            _add_into(fl, out, (i, k), cat.mul(x, y), minus if x.degree * y.degree % 2 else c)
    return out


def _d_entries(cat, entries, terms):
    """Entrywise differential: (-1)^s d(x) at (i, j), s the shift of target term i."""
    fl = cat.field
    minus = fl.from_int(-1)
    out = {}
    for (i, j), m in entries.items():
        _add_into(fl, out, (i, j), cat.d(m), minus if terms[i].shift % 2 else None)
    return out


def differential(f):
    """Hom differential of twisted morphisms: df = (d f_{ij}) + q' f - (-1)^l f q."""
    cat = f.src.cat
    out = _add_product(cat, _d_entries(cat, f.entries, f.dst.terms), f.entries, f.dst.q)
    _add_product(cat, out, f.src.q, f.entries, None if f.degree % 2 else cat.field.from_int(-1))
    return TwistedMorphism(f.src, f.dst, f.degree + 1, out)


def maurer_cartan_defect(x):
    """Entries where dq + q² fails to vanish (empty dict = valid)."""
    return _add_product(x.cat, _d_entries(x.cat, x.q, x.terms), x.q, x.q)


def is_closed(f):
    return differential(f).is_zero()


def embed(cat, a):
    return TwistedComplex(cat, [Term(a, 0)], {}, check=False)


def shift(x, n):
    if n == 0:
        return x
    cat = x.cat
    q = x.q if n % 2 == 0 else {k: cat.neg(m) for k, m in x.q.items()}
    return TwistedComplex(cat, [Term(t.obj, t.shift + n) for t in x.terms], q, check=False)


def direct_sum(x, y):
    if x.cat is not y.cat:
        raise ValueError("direct_sum: different base categories")
    off = len(x.terms)
    q = dict(x.q)
    for (i, j), m in y.q.items():
        q[(i + off, j + off)] = m
    return TwistedComplex(x.cat, x.terms + y.terms, q, check=False)


def identity_morphism(x):
    """1_x.  A category read from a document may list no identity for an
    object (its unit axiom then fails): a term on one is a Refusal, so
    replay fails the obligation that needs 1_x instead of raising KeyError."""
    cat = x.cat
    if missing := [t.obj.label for t in x.terms if t.obj not in cat.ids]:
        raise Refusal(f"no identity on {missing[0]}")
    return TwistedMorphism(x, x, 0, {(t, t): cat.identity(term.obj) for t, term in enumerate(x.terms)})


def zero_morphism(x, y, degree=0):
    return TwistedMorphism(x, y, degree, {})


def tm_add(f, g):
    if (f.src, f.dst, f.degree) != (g.src, g.dst, g.degree):
        raise ValueError("tm_add: morphisms differ in source, target or degree")
    fl = f.src.cat.field
    out = {}
    for key, m in (*f.entries.items(), *g.entries.items()):
        _add_into(fl, out, key, m)
    return TwistedMorphism(f.src, f.dst, f.degree, out)


def tm_scale(c, f):
    cat = f.src.cat
    return TwistedMorphism(f.src, f.dst, f.degree, {k: cat.scale(c, m) for k, m in f.entries.items()})


def tm_neg(f):
    return tm_scale(f.src.cat.field.neg(f.src.cat.field.one()), f)


def compose(f, g):
    """Composite of f: X->Y then g: Y->Z, in the same Leibniz convention
    as the base category."""
    if f.dst != g.src:
        raise ValueError("compose: middle objects differ")
    cat = f.src.cat
    out = _add_product(cat, {}, f.entries, g.entries, cat.field.from_int(-1) if f.degree * g.degree % 2 else None)
    return TwistedMorphism(f.src, g.dst, f.degree + g.degree, out)


class _Content:
    """The content key of a twisted complex (see _canon): its hash is
    computed once, from the content, and kept.  Two keys are equal when they
    are the same object, or else when their hashes and their content are
    equal, so two complexes that differ in content never share a memo
    entry, even when their hashes collide."""

    __slots__ = ("content", "hash")

    def __init__(self, content):
        self.content = content
        self.hash = hash(content)

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self is other or isinstance(other, _Content) and self.hash == other.hash and self.content == other.content


def _canon(x):
    """Content key of a twisted complex: its terms (a tuple of `Term`s)
    and its twist with sorted coords, as tuples, in a `_Content` that keeps
    their hash.  Computed once per complex, which is not changed after
    construction; `TwistedComplex.__eq__` compares these keys."""
    key = x._key
    if key is None:
        key = x._key = _Content((
            x.terms,
            tuple(sorted((i, j, m.degree, tuple(sorted(m.coords.items()))) for (i, j), m in x.q.items())),
        ))
    return key


class HomSpace:
    """The Hom chain complex between two twisted complexes over one
    category, with the entry-indexed basis and conversions morphism <->
    coordinate vector.

    A HomSpace whose ends already have one in content (same category, terms
    and twists) takes its layout and complex instead of building them; x
    and y are always the caller's own.  The one lookup is the memo on the
    ends: x._homs, then y._homs, both keyed by (category, content of x,
    content of y), the contents being `_canon` keys: each hashes once per
    complex, and keys whose hashes collide still compare their content.
    A build stores (layout, complex) in both.  The memo holds
    neither the HomSpace nor its ends, so it is freed with them.  The
    complex is shared with the ranks and cohomology bases it caches; nothing
    verified is stored (see null_homotopy).

    Block layout (a `Blocks`): the basis of degree n lists, for each target
    term i, each source term j and each degree u of Hom(x_j, y_i) with
    n = u - r_i + s_j (r, s the shifts of y and x), the basis vectors t of
    Hom^u(x_j, y_i) in order; layout.at[(i, j, u)] = (n, offset, size), and
    vector t is column offset + t.

    The differential is assembled block by block from
    df = (-1)^{r_i} d f_ij + q_Y f - (-1)^n f q_X.  From block (i, j) in
    degree u:

    * internal part, into block (i, j): the base differential of
      Hom(x_j, y_i) in degree u, negated when r_i is odd;
    * left part, for each q = q_Y[(i2, i)], into block (i2, j): the
      operator t ↦ ±(t·q) under cat.comp[(x_j, y_i, y_i2)], sign
      (-1)^{u|q|};
    * right part, for each q = q_X[(j, j2)], into block (i, j2): the
      operator t ↦ ±(q·t) under cat.comp[(x_j2, x_j, y_i)], sign
      (-1)^{|q| u} (-1)^{n+1}.

    A twist block is Σ_s (±q_s)·R_s over the coordinates q_s of q, R_s the
    matrix of multiplication by basis element e_s that `Tables.operator`
    keeps with the tables, and the sign is folded into each q_s.  q is
    strictly upper triangular, so the three parts land in pairwise
    different blocks, and each twist term is added straight into the
    entry dict of its degree.  Every operator term is checked before it is
    written: one outside its block raises `IndexError`, even when its
    product is zero or its sum with the other terms would cancel.  A zero
    product (a constant stored as zero in a table) is skipped, and an entry
    whose sum cancels is deleted, so each differential takes only nonzero,
    in-range entries through `Matrix._adopt`, with no second check.
    """

    def __init__(self, x, y):
        if x.cat is not y.cat:
            raise ValueError("HomSpace: different base categories")
        self.x = x
        self.y = y
        self.cat = x.cat
        cx = _canon(x)
        key = (x.cat, cx, cx if y is x else _canon(y))
        hit = x._homs.get(key) or y._homs.get(key)
        if hit is None:
            self._build()
            x._homs[key] = y._homs[key] = self.layout, self.complex
        else:
            self.layout, self.complex = hit

    def _build(self):
        x, y, cat = self.x, self.y, self.cat
        blocks = []  # (i, ty, j, tx, complex of Hom(x_j, y_i), its sorted (degree, dim)) for each nonzero Hom
        for i, ty in enumerate(y.terms):
            for j, tx in enumerate(x.terms):
                h = cat.hom(tx.obj, ty.obj).complex
                if h.dims:
                    blocks.append((i, ty, j, tx, h, sorted(h.dims.items())))
        self.layout = Blocks(((i, j, u), u - ty.shift + tx.shift, size) for i, ty, j, tx, _, degrees in blocks for u, size in degrees)
        at, dims = self.layout.at, self.layout.dims
        fl, comp = cat.field, cat.comp
        neg, mul, add = fl.neg, fl.mul, fl.add
        q_into = {}  # i -> [(i2, q_Y[(i2, i)])]
        for (i2, i), m in y.q.items():
            q_into.setdefault(i, []).append((i2, m))
        q_from = {}  # j -> [(j2, q_X[(j, j2)])]
        for (j, j2), m in x.q.items():
            q_from.setdefault(j, []).append((j2, m))
        ent = {n: {} for n in dims}
        for i, ty, j, tx, h, degrees in blocks:
            for u, size in degrees:
                n, off, _ = at[(i, j, u)]
                out = ent[n]
                base = h.diff.get(u)
                if base is not None:
                    row = at[(i, j, u + 1)][1]
                    for (r, t), v in base.entries.items():
                        out[(row + r, off + t)] = neg(v) if ty.shift % 2 else v
                # the left parts into blocks (i2, j), then the right parts into blocks (i, j2)
                parts = [((i2, j, u + q.degree), comp.operator((tx.obj, ty.obj, y.terms[i2].obj), 1, u, q.degree), q, u * q.degree % 2) for i2, q in q_into.get(i, ())]
                parts += [((i, j2, u + q.degree), comp.operator((x.terms[j2].obj, tx.obj, ty.obj), 0, q.degree, u), q, (q.degree * u + n + 1) % 2) for j2, q in q_from.get(j, ())]
                for target, op, q, odd in parts:
                    # entry (row + k, off + t) is the sum over s of (±q_s)·R_s[k, t]
                    _, row, rows = at.get(target, (None, 0, 0))
                    for s, c in q.coords.items():
                        if odd:
                            c = neg(c)
                        for t, k, v in op.get(s, ()):
                            if not 0 <= k < rows:
                                raise IndexError(f"product index {k} outside block {target}")
                            if not 0 <= t < size:
                                raise IndexError(f"factor index {t} outside block {(i, j, u)}")
                            v = mul(c, v)
                            if v:
                                key = (row + k, off + t)
                                w = out.get(key)
                                if w is None:
                                    out[key] = v
                                elif w := add(w, v):
                                    out[key] = w
                                else:
                                    del out[key]
        # each entry is nonzero and in range: internal ones come from a base
        # differential of checked shape, twist ones passed the checks above,
        # a zero product is never written and a sum that cancels is deleted
        diff = {n: Matrix._adopt(fl, dims.get(n + 1, 0), dims[n], e) for n, e in ent.items() if e}
        self.complex = ChainComplex(fl, dims, diff)

    def to_vector(self, f):
        column, vec = self.layout.column, {}
        for (i, j), m in f.entries.items():
            for t, v in m.coords.items():
                vec[column((i, j, m.degree), t)] = v
        return vec

    def from_vector(self, degree, vec):
        fl, locate = self.cat.field, self.layout.locate
        ent = {}
        for col, v in vec.items():
            if fl.is_zero(v):
                continue
            (i, j, u), t = locate(degree, col)
            m = ent.get((i, j))
            if m is None:
                m = ent[(i, j)] = Morphism(self.x.terms[j].obj, self.y.terms[i].obj, u, {})
            m.coords[t] = v
        return TwistedMorphism(self.x, self.y, degree, ent)

    def cohomology(self, n):
        return self.complex.cohomology(n)

    def cohomology_classes(self, n):
        """Representative cycles of a basis of H^n as TwistedMorphisms."""
        return [self.from_vector(n, rep) for rep in self.cohomology(n).reps]

    def project(self, f):
        """Class coordinates of a cycle f in the H^{f.degree} basis."""
        return self.cohomology(f.degree).project(self.to_vector(f))


def hom_complex(x, y):
    return HomSpace(x, y).complex


def ho_hom(x, y, n):
    """dim Hom_{Ho}(x, y[n]) = dim H^n of the Hom complex."""
    return HomSpace(x, y).complex.cohomology_dim(n)


def cone(f):
    """Cone of a closed degree-0 morphism: (Y ⊕ X[1], (q_Y, f, -q_X))."""
    if f.degree != 0:
        raise ValueError("cone: morphism must have degree 0")
    if not is_closed(f):
        raise ValueError("cone: morphism must be closed")
    return _cone(f)


def _cone(f):
    """cone(f) for a caller that has just checked f closed of degree 0."""
    x, y = f.src, f.dst
    cat = x.cat
    m = len(y.terms)
    terms = list(y.terms) + [Term(t.obj, t.shift + 1) for t in x.terms]
    q = dict(y.q)
    for (i, j), mor in f.entries.items():
        q[(i, m + j)] = mor
    for (i, j), mor in x.q.items():
        q[(m + i, m + j)] = cat.neg(mor)
    return TwistedComplex(cat, terms, q, check=False)


def cone_maps(f):
    """The four structural maps (i, p, j, s) of the cone."""
    x, y = f.src, f.dst
    c = cone(f)
    cat = x.cat
    m = len(y.terms)
    x1 = shift(x, 1)
    imap = TwistedMorphism(x1, c, 0, {(m + t, t): cat.identity(term.obj) for t, term in enumerate(x.terms)})
    pmap = TwistedMorphism(c, x1, 0, {(t, m + t): cat.identity(term.obj) for t, term in enumerate(x.terms)})
    jmap = TwistedMorphism(y, c, 0, {(t, t): cat.identity(term.obj) for t, term in enumerate(y.terms)})
    smap = TwistedMorphism(c, y, 0, {(t, t): cat.identity(term.obj) for t, term in enumerate(y.terms)})
    return imap, pmap, jmap, smap


def _f_up(f):
    """f viewed as the degree-1 morphism X[1] -> Y with the same entries."""
    return TwistedMorphism(shift(f.src, 1), f.dst, 1, f.entries)


def verify_cone_axioms(c, f, maps=None):
    """Exact check of the nine relations of the cone definition."""
    x, y = f.src, f.dst
    imap, pmap, jmap, smap = maps if maps is not None else cone_maps(f)
    x1 = shift(x, 1)
    fu = _f_up(f)
    checks = [
        compose(imap, pmap) == identity_morphism(x1),
        compose(jmap, smap) == identity_morphism(y),
        compose(imap, smap).is_zero(),
        compose(jmap, pmap).is_zero(),
        tm_add(compose(pmap, imap), compose(smap, jmap)) == identity_morphism(c),
        differential(jmap).is_zero(),
        differential(pmap).is_zero(),
        differential(imap) == compose(fu, jmap),
        differential(smap) == tm_neg(compose(pmap, fu)),
    ]
    return all(checks)


def null_homotopy(x):
    """The h in End^{-1}(x) with d(h) = 1_x, or None when there is none.

    Such an h also makes x right-orthogonal to every object: each cycle
    f: E -> x of degree n satisfies d(f·h) = (-1)^n f, so H^n Hom(E, x) = 0.

    Every call solves d(-1)·h = 1 and, when there is a solution, builds h on
    the caller's own x and checks differential(h) == 1_x, raising on
    failure.  Nothing is stored: the memo shares the Hom complex, not the
    verdict.
    """
    hs = HomSpace(x, x)
    sol = hs.complex.d(-1).solve(hs.to_vector(identity_morphism(x)))
    if sol is None:
        return None
    h = hs.from_vector(-1, sol)
    if differential(h) != identity_morphism(x):
        raise AssertionError("contractibility witness failed re-verification")
    return h


def is_contractible(x):
    """True iff x has a verified null-homotopy (see null_homotopy)."""
    return null_homotopy(x) is not None


def is_ho_iso(f):
    """f closed degree 0 is a homotopy isomorphism iff Cone(f) is contractible."""
    return is_contractible(cone(f))


def reduce(x):
    """Gaussian elimination of invertible twist components.

    Returns (y, f) with y free of q-entries whose degree-0 component is
    invertible in the base category (when eliminable while keeping the
    complex one-sided), and f: x -> y a verified homotopy isomorphism.
    """
    cur, total = x, identity_morphism(x)
    while (step := _reduce_step(cur)) is not None:
        cur, proj = step
        total = compose(total, proj)
    if cur is not x and not is_ho_iso(total):
        raise AssertionError("reduction map failed homotopy-isomorphism verification")
    return cur, total


def _invert(cat, phi):
    """Two-sided inverse of a degree-0 base morphism, or None."""
    if phi.degree != 0 or phi.is_zero():
        return None
    h = cat.hom(phi.dst, phi.src)
    n = h.dim(0)
    if n == 0:
        return None
    products = [cat.mul(phi, cat.basis_morphism(phi.dst, phi.src, 0, j)).coords for j in range(n)]
    m = Matrix.from_columns(cat.field, cat.hom(phi.src, phi.src).dim(0), products)
    sol = m.solve(cat.identity(phi.src).coords)
    if sol is None:
        return None
    psi = Morphism(phi.dst, phi.src, 0, sol)
    if cat.mul(psi, phi) != cat.identity(phi.dst):
        return None
    return psi


def _reduce_step(x):
    """Eliminate one invertible degree-0 entry phi = q_ij, ψ its inverse:
    the kept terms get the twist q_kl - q_kj·ψ·q_il and the projection
    x -> y the entries 1 at (k, k) and -q_kj·ψ at (k, i).  None when no
    entry can be eliminated with the twist staying strictly upper triangular."""
    cat = x.cat
    fl, minus = cat.field, cat.field.from_int(-1)
    for (i, j) in sorted(x.q, key=lambda k: (k[1] - k[0], k[0])):
        phi = x.q[(i, j)]
        if phi.degree != 0:
            continue
        psi = _invert(cat, phi)
        if psi is None:
            continue
        keep = [t for t in range(len(x.terms)) if t not in (i, j)]
        new = {t: a for a, t in enumerate(keep)}
        q, into_j, from_i = {}, {}, {}
        for (k, l), m in x.q.items():
            if k in new and l in new:
                _add_into(fl, q, (new[k], new[l]), m)
            elif l == j and k != i:
                into_j[(new[k], j)] = m
            elif k == i and l != j:
                from_i[(i, new[l])] = m
        _add_product(cat, q, _add_product(cat, {}, from_i, {(j, i): psi}), into_j, minus)
        if any(a >= b for a, b in q):
            continue
        y = TwistedComplex(cat, [x.terms[t] for t in keep], q, check=False)
        if maurer_cartan_defect(y):
            continue
        entries = {(a, t): cat.identity(x.terms[t].obj) for t, a in new.items()}
        entries.update(_add_product(cat, {}, {(j, i): psi}, into_j, minus))
        proj = TwistedMorphism(x, y, 0, entries)
        if not is_closed(proj):
            continue
        return y, proj
    return None


@dataclass
class KaroubiObject:
    """Twisted complex with a verified homotopy idempotent.

    e is a degree-0 cycle on the carrier and h a degree -1 morphism
    witnessing e∘e - e = d(h) exactly.
    """

    carrier: TwistedComplex
    e: TwistedMorphism
    h: TwistedMorphism

    def verify(self):
        """e and h are endomorphisms of the carrier of degrees 0 and -1, e is
        closed, and e∘e - e = d(h)."""
        x = self.carrier
        if (self.e.src, self.e.dst, self.e.degree, self.h.src, self.h.dst, self.h.degree) != (x, x, 0, x, x, -1):
            return False
        if not is_closed(self.e):
            return False
        defect = tm_add(compose(self.e, self.e), tm_neg(self.e))
        return differential(self.h) == defect


def karoubi_identity(x):
    """(x, [1]) with the trivial homotopy witness."""
    return KaroubiObject(x, identity_morphism(x), zero_morphism(x, x, -1))


def karoubi_complement(k):
    """(X, 1-e): (1-e)² - (1-e) = e² - e, so the same witness h works."""
    one = identity_morphism(k.carrier)
    return KaroubiObject(k.carrier, tm_add(one, tm_neg(k.e)), k.h)


def karoubi_hom(a, b, n):
    """dim of e_b · H^n Hom(carrier_a, carrier_b) · e_a."""
    if not a.verify():
        raise ValueError("source idempotent witness fails verification")
    if not b.verify():
        raise ValueError("target idempotent witness fails verification")
    hs = HomSpace(a.carrier, b.carrier)
    images = [hs.project(compose(compose(a.e, z), b.e)) for z in hs.cohomology_classes(n)]
    return Matrix.from_columns(a.carrier.cat.field, hs.cohomology(n).dim, images).rank()
