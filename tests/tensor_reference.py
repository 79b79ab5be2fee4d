"""Reference tensor construction for tests: the materialising `tensor` that
`dgcat.dgcore.tensor` replaced, kept verbatim but for its two reads of a
factor's table, and the per-element `TensorIndex` basis order it used,
which `dgcore.Blocks` replaced.

It writes every structure constant of c(x)d into `comp` at construction
and returns a plain `DGCategory`, so `validate` on it runs the full walk.
It reads each factor table by subscript, so a factor whose tables are
built on first read (a product, an opposite) gives them all.  Tests
compare the category `dgcat.dgcore.tensor` builds (Hom complexes and
identities at once, the table of a triple derived from the factors on its
first read) against it on Homs, names, identities, tables, Ext tables, SOD
verdicts and documents.
"""

from dgcat.dgcore import DGCategory, Hom, Morphism, ObjId
from dgcat.exactlin import ChainComplex, Matrix, axpy, check_same_field


class TensorIndex:
    """Deterministic basis order for Hom_c (x) Hom_d at each total degree.

    Entries are keyed (p, q, i, j): degrees in the two factors and basis
    indices within those degrees.
    """

    def __init__(self, hc, hd):
        self.by_degree = {}
        self.pos = {}
        degs_c = hc.complex.degrees()
        degs_d = hd.complex.degrees()
        for p in degs_c:
            for q in degs_d:
                n = p + q
                lst = self.by_degree.setdefault(n, [])
                for i in range(hc.dim(p)):
                    for j in range(hd.dim(q)):
                        self.pos[(p, q, i, j)] = (n, len(lst))
                        lst.append((p, q, i, j))

    def dims(self):
        return {n: len(lst) for n, lst in self.by_degree.items()}


def plain(cat):
    """A plain `DGCategory` on cat's objects, Homs, tables and identities:
    `validate` on it runs the full walk, whatever built cat."""
    return DGCategory(cat.field, cat.objects, cat.homs, cat.comp, cat.ids, name=cat.name)


def tensor(c, d):
    """Tensor product DG category with the sign
    (f1 (x) g1)(f2 (x) g2) = (-1)^{deg g1 deg f2} f1 f2 (x) g1 g2, every
    structure constant written out: a plain `DGCategory` with `factors`,
    `pair_map` and `pair_rev` set."""
    check_same_field(c.field, d.field)
    fl = c.field
    one, minus, mul = fl.one(), fl.neg(fl.one()), fl.mul
    objs = []
    pair = {}
    k = 0
    for a in c.objects:
        for b in d.objects:
            o = ObjId(f"({a.label},{b.label})", k)
            objs.append(o)
            pair[o] = (a, b)
            k += 1
    rev = {v: o for o, v in pair.items()}

    homs = {}
    indices = {}
    for o1 in objs:
        a1, b1 = pair[o1]
        for o2 in objs:
            a2, b2 = pair[o2]
            hc = c.hom(a1, a2)
            hd = d.hom(b1, b2)
            if not hc.complex.dims or not hd.complex.dims:
                continue
            idx = TensorIndex(hc, hd)
            indices[(o1, o2)] = idx
            dims = idx.dims()
            diff = {}
            for n, lst in idx.by_degree.items():
                ent = {}
                for col, (p, q, i, j) in enumerate(lst):
                    # d(x (x) y) = dx (x) y + (-1)^p x (x) dy
                    dx = {idx.pos[(p + 1, q, i2, j)][1]: v for (i2, ii), v in hc.complex.d(p).entries.items() if ii == i}
                    dy = {idx.pos[(p, q + 1, i, j2)][1]: v for (j2, jj), v in hd.complex.d(q).entries.items() if jj == j}
                    for row, v in axpy(fl, dx, dy, minus if p % 2 else None).items():
                        ent[(row, col)] = v
                mdims = len(idx.by_degree.get(n + 1, []))
                m = Matrix(fl, mdims, len(lst), ent)
                if not m.is_zero():
                    diff[n] = m
            names = {}
            for n, lst in idx.by_degree.items():
                names[n] = tuple(f"{hc.name(p, i)}(x){hd.name(q, j)}" for (p, q, i, j) in lst)
            homs[(o1, o2)] = Hom(ChainComplex(fl, dims, diff), names)

    comp = {}
    for o1 in objs:
        for o2 in objs:
            if (o1, o2) not in indices:
                continue
            a1, b1 = pair[o1]
            a2, b2 = pair[o2]
            idx12 = indices[(o1, o2)]
            for o3 in objs:
                if (o2, o3) not in indices or (o1, o3) not in indices:
                    continue
                a3, b3 = pair[o3]
                idx23 = indices[(o2, o3)]
                idx13 = indices[(o1, o3)]
                tc = c.comp[(a1, a2, a3)]
                td = d.comp[(b1, b2, b3)]
                table = {}
                for (p1, i1, p2, i2), cons_c in tc.items():
                    for (q1, j1, q2, j2), cons_d in td.items():
                        key1 = idx12.pos.get((p1, q1, i1, j1))
                        key2 = idx23.pos.get((p2, q2, i2, j2))
                        if key1 is None or key2 is None:
                            continue
                        entry = {}
                        for ic, vc in cons_c.items():
                            for jd, vd in cons_d.items():
                                tgt = idx13.pos.get((p1 + p2, q1 + q2, ic, jd))
                                if tgt is not None:
                                    # products by the shared one keep it, so `contract` skips them later
                                    entry[tgt[1]] = vd if vc is one else vc if vd is one else mul(vc, vd)
                        if entry:
                            axpy(fl, table.setdefault((key1[0], key1[1], key2[0], key2[1]), {}), entry, minus if (q1 * p2) % 2 else None)
                if table:
                    comp[(o1, o2, o3)] = table

    ids = {}
    for o in objs:
        a, b = pair[o]
        ida, idb = c.ids[a], d.ids[b]
        idx = indices[(o, o)]
        coords = {}
        for i, va in ida.coords.items():
            for j, vb in idb.coords.items():
                n, t = idx.pos[(0, 0, i, j)]
                coords[t] = vb if va is one else va if vb is one else mul(va, vb)
        ids[o] = Morphism(o, o, 0, coords)
    t = DGCategory(fl, tuple(objs), homs, comp, ids, name=f"{c.name}(x){d.name}")
    t.pair_map = pair
    t.pair_rev = rev
    t.factors = (c, d)
    return t
