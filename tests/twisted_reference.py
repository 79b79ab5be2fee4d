"""Reference twisted-morphism arithmetic for tests: the `_o_compose`,
`_entry_add`, `_matrix_product`, `differential`, `maurer_cartan_defect`,
`is_closed`, `tm_add`, `compose` and `_reduce_step` that `dgcat.pretr` had
before its sums went through `axpy` on coordinates, kept verbatim.

Here every summand is a new Morphism made by `DGCategory.add`, and every
sign is a negated copy (`cat.neg`, `tm_neg`) taken before the sum.

`homspace_layout` is the per-element basis order that `HomSpace._build`
kept before `dgcore.Blocks` replaced it, its layout loop kept verbatim.

`ReferenceHomSpace._build` is `HomSpace._build` as it was before the twist
blocks came from `Tables.operator`, kept verbatim: every twist product is
one `contract` per basis vector and twist entry.
"""

from dgcat.dgcore import Blocks, contract
from dgcat.exactlin import ChainComplex, Matrix
from dgcat.pretr import TwistedComplex, TwistedMorphism, _invert, tm_neg


def homspace_layout(x, y):
    """(basis, pos) of Hom(x, y): basis[n] lists the (i, j, u, t) of degree
    n in column order, and pos[(i, j, u, t)] = (n, column)."""
    cat = x.cat
    blocks = [(i, ty, j, tx, cat.hom(tx.obj, ty.obj)) for i, ty in enumerate(y.terms) for j, tx in enumerate(x.terms)]
    basis = {}
    pos = {}
    for i, ty, j, tx, h in blocks:
        for u in h.complex.degrees():
            n = u - ty.shift + tx.shift
            lst = basis.setdefault(n, [])
            for t in range(h.dim(u)):
                pos[(i, j, u, t)] = (n, len(lst))
                lst.append((i, j, u, t))
    return basis, pos


def _o_compose(cat, x, y):
    """Classical composite "x then y" with the Koszul conversion sign."""
    m = cat.mul(x, y)
    if (x.degree * y.degree) % 2:
        return cat.neg(m)
    return m


def _entry_add(cat, acc, key, m):
    if m.is_zero():
        return
    cur = acc.get(key)
    if cur is None:
        acc[key] = m
    else:
        s = cat.add(cur, m)
        if s.is_zero():
            del acc[key]
        else:
            acc[key] = s


def _matrix_product(cat, left_entries, right_entries):
    """Entries of "right after left": paths k --left--> j --right--> i."""
    out = {}
    by_mid = {}
    for (j, k), m in left_entries.items():
        by_mid.setdefault(j, []).append((k, m))
    for (i, j), g in right_entries.items():
        for k, f in by_mid.get(j, ()):
            _entry_add(cat, out, (i, k), _o_compose(cat, f, g))
    return out


def differential(f):
    """Hom differential of twisted morphisms: df = (d f_{ij}) + q' f - (-1)^l f q."""
    cat = f.src.cat
    out = {}
    for (i, j), m in f.entries.items():
        dm = cat.d(m)
        if f.dst.terms[i].shift % 2:
            dm = cat.neg(dm)
        _entry_add(cat, out, (i, j), dm)
    for key, m in _matrix_product(cat, f.entries, f.dst.q).items():
        _entry_add(cat, out, key, m)
    sign = -1 if f.degree % 2 else 1
    for key, m in _matrix_product(cat, f.src.q, f.entries).items():
        _entry_add(cat, out, key, m if sign < 0 else cat.neg(m))
    return TwistedMorphism(f.src, f.dst, f.degree + 1, out)


def maurer_cartan_defect(x):
    """Entries where dq + q² fails to vanish (empty dict = valid)."""
    cat = x.cat
    out = {}
    for (i, j), m in x.q.items():
        dm = cat.d(m)
        if x.terms[i].shift % 2:
            dm = cat.neg(dm)
        _entry_add(cat, out, (i, j), dm)
    for key, m in _matrix_product(cat, x.q, x.q).items():
        _entry_add(cat, out, key, m)
    return out


def is_closed(f):
    return differential(f).is_zero()


def tm_add(f, g):
    if (f.src, f.dst, f.degree) != (g.src, g.dst, g.degree):
        raise ValueError("tm_add: morphisms differ in source, target or degree")
    cat = f.src.cat
    out = dict(f.entries)
    for key, m in g.entries.items():
        _entry_add(cat, out, key, m)
    return TwistedMorphism(f.src, f.dst, f.degree, out)


def compose(f, g):
    """Composite of f: X->Y then g: Y->Z, in the same Leibniz convention
    as the base category."""
    if f.dst != g.src:
        raise ValueError("compose: middle objects differ")
    cat = f.src.cat
    out = _matrix_product(cat, f.entries, g.entries)
    result = TwistedMorphism(f.src, g.dst, f.degree + g.degree, out)
    if (f.degree * g.degree) % 2:
        result = tm_neg(result)
    return result


def _reduce_step(x):
    cat = x.cat
    for (i, j) in sorted(x.q, key=lambda k: (k[1] - k[0], k[0])):
        phi = x.q[(i, j)]
        if phi.degree != 0:
            continue
        psi = _invert(cat, phi)
        if psi is None:
            continue
        keep = [t for t in range(len(x.terms)) if t not in (i, j)]
        new_index = {t: a for a, t in enumerate(keep)}
        q = {}
        ok = True
        for k in keep:
            for l in keep:
                entry = x.q.get((k, l))
                qkj = x.q.get((k, j))
                qil = x.q.get((i, l))
                if qkj is not None and qil is not None:
                    corr = _o_compose(cat, _o_compose(cat, qil, psi), qkj)
                    entry = cat.neg(corr) if entry is None else cat.add(entry, cat.neg(corr))
                if entry is not None and not entry.is_zero():
                    a, b = new_index[k], new_index[l]
                    if a >= b:
                        ok = False
                        break
                    q[(a, b)] = entry
            if not ok:
                break
        if not ok:
            continue
        y = TwistedComplex(cat, [x.terms[t] for t in keep], q, check=False)
        if maurer_cartan_defect(y):
            continue
        entries = {}
        for k in keep:
            entries[(new_index[k], k)] = cat.identity(x.terms[k].obj)
            qkj = x.q.get((k, j))
            if qkj is not None:
                entries[(new_index[k], i)] = cat.neg(_o_compose(cat, psi, qkj))
        proj = TwistedMorphism(x, y, 0, entries)
        if not is_closed(proj):
            continue
        return y, proj
    return None


class ReferenceHomSpace:
    """The layout and complex of Hom(x, y), built by the old `_build` on
    every construction (no memo)."""

    def __init__(self, x, y):
        self.x = x
        self.y = y
        self.cat = x.cat
        self._build()

    def _build(self):
        x, y, cat = self.x, self.y, self.cat
        blocks = [(i, ty, j, tx, cat.hom(tx.obj, ty.obj)) for i, ty in enumerate(y.terms) for j, tx in enumerate(x.terms)]
        self.layout = Blocks(((i, j, u), u - ty.shift + tx.shift, h.dim(u)) for i, ty, j, tx, h in blocks for u in h.complex.degrees())
        at, dims = self.layout.at, self.layout.dims
        fl = cat.field
        one = fl.one()
        q_into = {}  # i -> [(i2, q_Y[(i2, i)])]
        for (i2, i), m in y.q.items():
            q_into.setdefault(i, []).append((i2, m))
        q_from = {}  # j -> [(j2, q_X[(j, j2)])]
        for (j, j2), m in x.q.items():
            q_from.setdefault(j, []).append((j2, m))
        ent = {n: {} for n in dims}
        for i, ty, j, tx, h in blocks:
            for u in h.complex.degrees():
                n, off, size = at[(i, j, u)]
                out = ent[n]
                base = h.complex.diff.get(u)
                if base is not None:
                    row = at[(i, j, u + 1)][1]
                    for (r, t), v in base.entries.items():
                        out[(row + r, off + t)] = fl.neg(v) if ty.shift % 2 else v
                # the left parts into blocks (i2, j), then the right parts into blocks (i, j2)
                parts = [(True, (i2, j, u + q.degree), cat.comp[(tx.obj, ty.obj, y.terms[i2].obj)], q, u * q.degree % 2) for i2, q in q_into.get(i, ())]
                parts += [(False, (i, j2, u + q.degree), cat.comp[(x.terms[j2].obj, tx.obj, ty.obj)], q, (q.degree * u + n + 1) % 2) for j2, q in q_from.get(j, ())]
                for left, target, table, q, odd in parts:
                    _, row, rows = at.get(target, (None, 0, 0))
                    for t in range(size):
                        product = contract(fl, table, u, {t: one}, q.degree, q.coords) if left else contract(fl, table, q.degree, q.coords, u, {t: one})
                        for k, v in product.items():
                            if not 0 <= k < rows:
                                raise IndexError(f"product index {k} outside block {target}")
                            out[(row + k, off + t)] = fl.neg(v) if odd else v
        diff = {n: Matrix(fl, dims.get(n + 1, 0), dims[n], e) for n, e in ent.items() if e}
        self.complex = ChainComplex(fl, dims, diff)
