"""DG functors, Yoneda modules, quasi-equivalence certificates, Serre data,
and op-duality of twisted complexes."""

from __future__ import annotations

from dataclasses import dataclass

from .dgcore import DGCategory, Hom, Morphism, ObjId, Violation, contract, opposite
from .exactlin import ChainComplex, Matrix, axpy
from .pretr import (
    HomSpace,
    Term,
    TwistedComplex,
    TwistedMorphism,
    _cone,
    compose,
    differential,
    embed,
    identity_morphism,
    is_closed,
    is_contractible,
)


@dataclass
class DGFunctor:
    """src -> dst: object map plus degree-0 chain maps on every Hom pair.

    mor_maps[(A,B)][n] is the matrix of Hom^n(A,B) -> Hom^n(FA,FB) in the
    chosen bases; missing entries mean the zero map (legal only when the
    source Hom vanishes there).
    """

    src: DGCategory
    dst: DGCategory
    obj_map: dict
    mor_maps: dict
    name: str = ""

    def apply(self, f):
        m = self.mor_maps.get((f.src, f.dst), {}).get(f.degree)
        fa, fb = self.obj_map[f.src], self.obj_map[f.dst]
        if m is None:
            return Morphism(fa, fb, f.degree, {})
        return Morphism(fa, fb, f.degree, m.apply(f.coords))


def identity_functor(cat):
    mor_maps = {}
    for (a, b), h in cat.homs.items():
        mor_maps[(a, b)] = {n: Matrix.identity(cat.field, h.dim(n)) for n in h.complex.degrees()}
    return DGFunctor(cat, cat, {o: o for o in cat.objects}, mor_maps, name="id")


def validate_functor(fun):
    """Violations of chain-map / composition / identity preservation."""
    report = []
    src, dst = fun.src, fun.dst
    for o in src.objects:
        if o not in fun.obj_map:
            report.append(Violation("object_map", (o.label,), "unmapped object"))
    if report:
        return report
    for (a, b), h in sorted(src.homs.items()):
        fa, fb = fun.obj_map[a], fun.obj_map[b]
        target = dst.hom(fa, fb)
        for n in h.complex.degrees():
            mn = fun.mor_maps.get((a, b), {}).get(n)
            if mn is None:
                if h.dim(n):
                    report.append(Violation("mor_map", (a.label, b.label, n), "missing component on nonzero degree"))
                continue
            if mn.rows != target.dim(n) or mn.cols != h.dim(n):
                report.append(Violation("mor_map_shape", (a.label, b.label, n), f"{mn.rows}x{mn.cols}"))
                continue
            for i in range(h.dim(n)):
                f = src.basis_morphism(a, b, n, i)
                if fun.apply(src.d(f)) != dst.d(fun.apply(f)):
                    report.append(Violation("chain_map", (a.label, b.label, n, i), "F(df) != d(Ff)"))
    for a in src.objects:
        if fun.apply(src.identity(a)) != dst.identity(fun.obj_map[a]):
            report.append(Violation("identity", (a.label,), "F(id) != id"))
    for a in src.objects:
        for b in src.objects:
            hab = src.hom(a, b)
            for c in src.objects:
                hbc = src.hom(b, c)
                for p in hab.complex.degrees():
                    for q in hbc.complex.degrees():
                        for i in range(hab.dim(p)):
                            f = src.basis_morphism(a, b, p, i)
                            ff = fun.apply(f)
                            for j in range(hbc.dim(q)):
                                g = src.basis_morphism(b, c, q, j)
                                if fun.apply(src.mul(f, g)) != dst.mul(ff, fun.apply(g)):
                                    report.append(
                                        Violation("composition", (a.label, b.label, c.label, (p, i), (q, j)), "F(fg) != F(f)F(g)")
                                    )
    return report


# -- pretriangulated extension -------------------------------------------------


def extend_to_complex(fun, x):
    """Apply a DG functor entrywise to terms and twist."""
    terms = [Term(fun.obj_map[t.obj], t.shift) for t in x.terms]
    q = {k: fun.apply(m) for k, m in x.q.items()}
    return TwistedComplex(fun.dst, terms, {k: m for k, m in q.items() if not m.is_zero()}, check=False)


def extend_to_morphism(fun, f):
    return TwistedMorphism(
        extend_to_complex(fun, f.src),
        extend_to_complex(fun, f.dst),
        f.degree,
        {k: fun.apply(m) for k, m in f.entries.items() if not fun.apply(m).is_zero()},
    )


def base_to_tm(cat, f):
    """A base morphism as a twisted morphism embed(src) -> embed(dst)."""
    return TwistedMorphism(embed(cat, f.src), embed(cat, f.dst), f.degree, {(0, 0): f} if not f.is_zero() else {})


# -- DG modules ---------------------------------------------------------------


@dataclass
class DGModule:
    """Contravariant DG module: values per object plus the left action
    Hom(A,B) (x) values(B) -> values(A), a chain map satisfying the same
    Leibniz convention as composition."""

    base: DGCategory
    values: dict  # ObjId -> ChainComplex
    action: dict  # (A, B) -> {(deg_f, idx_f, deg_v, idx_v): {idx_out: scalar}}
    name: str = ""

    def value(self, a):
        return self.values.get(a, ChainComplex(self.base.field, {}))

    def act(self, f, deg_v, vec):
        """Coordinates of f . v for v in values(f.dst)^deg_v (sparse dict)."""
        table = self.action.get((f.src, f.dst), {})
        return contract(self.base.field, table, f.degree, f.coords, deg_v, vec)


def yoneda(cat, a):
    """The representable module h^a with h^a(B) = Hom(B, a)."""
    values = {b: cat.hom(b, a).complex for b in cat.objects}
    action = {}
    for (x, y) in cat.homs:
        table = cat.comp.get((x, y, a))
        if table:
            action[(x, y)] = table
    return DGModule(cat, values, action, name=f"h^{a.label}")


def validate_module(mod):
    cat = mod.base
    fl = cat.field
    report = []
    for (a, b), _ in sorted(mod.action.items()):
        h = cat.hom(a, b)
        vb = mod.value(b)
        va = mod.value(a)
        for s in h.complex.degrees():
            for i in range(h.dim(s)):
                f = cat.basis_morphism(a, b, s, i)
                df = cat.d(f)
                for p in vb.degrees():
                    for j in range(vb.dim(p)):
                        v = {j: fl.one()}
                        # d(f.v) = df.v + (-1)^s f.(dv)
                        lhs = va.d(s + p).apply(mod.act(f, p, v))
                        rhs = mod.act(df, p, v)
                        dv = vb.d(p).apply(v)
                        term = mod.act(f, p + 1, dv)
                        sgn = fl.one() if s % 2 == 0 else fl.neg(fl.one())
                        axpy(fl, rhs, term, sgn)
                        if lhs != rhs:
                            report.append(Violation("module_leibniz", (a.label, b.label, s, i, p, j), ""))
    for a in cat.objects:
        va = mod.value(a)
        for p in va.degrees():
            for j in range(va.dim(p)):
                if mod.act(cat.identity(a), p, {j: fl.one()}) != {j: fl.one()}:
                    report.append(Violation("module_unit", (a.label, p, j), "id.v != v"))
    for a in cat.objects:
        for b in cat.objects:
            hab = cat.hom(a, b)
            for c in cat.objects:
                hbc = cat.hom(b, c)
                vc = mod.value(c)
                for s1 in hab.complex.degrees():
                    for i in range(hab.dim(s1)):
                        f = cat.basis_morphism(a, b, s1, i)
                        for s2 in hbc.complex.degrees():
                            for j in range(hbc.dim(s2)):
                                g = cat.basis_morphism(b, c, s2, j)
                                fg = cat.mul(f, g)
                                for p in vc.degrees():
                                    for t in range(vc.dim(p)):
                                        v = {t: mod.base.field.one()}
                                        if mod.act(fg, p, v) != mod.act(f, s2 + p, mod.act(g, p, v)):
                                            report.append(
                                                Violation("module_assoc", (a.label, b.label, c.label, (s1, i), (s2, j), (p, t)), "")
                                            )
    return report


def restrict_module(fun, mod):
    """Restriction of a module over fun.dst along fun to fun.src."""
    cat = fun.src
    values = {a: mod.value(fun.obj_map[a]) for a in cat.objects}
    action = {}
    fl = cat.field
    for (a, b) in cat.homs:
        h = cat.hom(a, b)
        table = {}
        va = mod.value(fun.obj_map[b])
        for s in h.complex.degrees():
            for i in range(h.dim(s)):
                img = fun.apply(cat.basis_morphism(a, b, s, i))
                if img.is_zero():
                    continue
                for p in va.degrees():
                    for j in range(va.dim(p)):
                        out = mod.act(img, p, {j: fl.one()})
                        if out:
                            table[(s, i, p, j)] = out
        if table:
            action[(a, b)] = table
    return DGModule(cat, values, action, name=f"Res({mod.name})")


class ModuleHomSpace:
    """Complex of graded natural transformations between two DG modules.

    A degree-k transformation assigns each object B a degree-k map
    t(B): m(B) -> n(B) with graded naturality
    t(A)(f.v) = (-1)^{k s} f.t(B)(v) for f of degree s, and differential
    (dt)(B) = d_n t(B) - (-1)^k t(B) d_m.
    """

    def __init__(self, m, n):
        if m.base is not n.base:
            raise ValueError("module_hom: different base categories")
        self.m, self.n = m, n
        cat = m.base
        fl = cat.field
        m_degs = [p for a in cat.objects for p in m.value(a).degrees()]
        n_degs = [p for a in cat.objects for p in n.value(a).degrees()]
        if not m_degs or not n_degs:
            self.complex = ChainComplex(fl, {})
            self.basis = {}
            self.layout = {}
            return
        kmin = min(n_degs) - max(m_degs)
        kmax = max(n_degs) - min(m_degs)
        self.layout = {}
        self.basis = {}
        raw = {}
        for k in range(kmin, kmax + 2):
            layout = []
            for b in cat.objects:
                vb, nb = m.value(b), n.value(b)
                for p in vb.degrees():
                    if nb.dim(p + k):
                        layout.append((b, p, nb.dim(p + k), vb.dim(p)))
            self.layout[k] = layout
            nvars = sum(r * c for _, _, r, c in layout)
            if nvars == 0:
                raw[k] = []
                continue
            offs = {}
            off = 0
            for (b, p, r, c) in layout:
                offs[(b, p)] = off
                off += r * c
            rows = []
            for a in cat.objects:
                for b in cat.objects:
                    h = cat.hom(a, b)
                    vb = m.value(b)
                    na = n.value(a)
                    for s in h.complex.degrees():
                        sgn = fl.one() if (k * s) % 2 == 0 else fl.neg(fl.one())
                        for i in range(h.dim(s)):
                            f = cat.basis_morphism(a, b, s, i)
                            for p in vb.degrees():
                                out_dim = na.dim(p + s + k)
                                ta_ok = (a, p + s) in offs
                                tb_ok = (b, p) in offs
                                if out_dim == 0 or (not ta_ok and not tb_ok):
                                    continue
                                for j in range(vb.dim(p)):
                                    fv = m.act(f, p, {j: fl.one()})
                                    row = {}
                                    if ta_ok and m.value(a).dim(p + s):
                                        base = offs[(a, p + s)]
                                        cdim = m.value(a).dim(p + s)
                                        for jj, cv in fv.items():
                                            for r in range(na.dim(p + s + k)):
                                                row[(r, base + r * cdim + jj)] = cv
                                    if tb_ok and n.value(b).dim(p + k):
                                        base = offs[(b, p)]
                                        cdim = vb.dim(p)
                                        rdim = n.value(b).dim(p + k)
                                        for r2 in range(rdim):
                                            col = base + r2 * cdim + j
                                            img = n.act(f, p + k, {r2: fl.one()})
                                            axpy(fl, row, {(r, col): cv for r, cv in img.items()}, fl.neg(sgn))
                                    for r in range(out_dim):
                                        rows.append({c: v for (rr, c), v in row.items() if rr == r})
            cons = Matrix(fl, len(rows), nvars, {(i, c): v for i, row in enumerate(rows) for c, v in row.items() if not fl.is_zero(v)})
            raw[k] = cons.nullspace()
        dims = {}
        for k, vecs in raw.items():
            if vecs:
                dims[k] = len(vecs)
                self.basis[k] = vecs
        diff = {}
        for k in sorted(dims):
            if k + 1 not in dims:
                continue
            target = Matrix.from_columns(fl, self._offsets(k + 1)[1], self.basis[k + 1])
            sols = []
            for vec in self.basis[k]:
                sol = target.solve(self._apply_d(k, vec))
                if sol is None:
                    raise RuntimeError("module_hom differential left the solution space")
                sols.append(sol)
            m2 = Matrix.from_columns(fl, dims[k + 1], sols)
            if not m2.is_zero():
                diff[k] = m2
        self.complex = ChainComplex(fl, dims, diff)

    def _offsets(self, k):
        offs = {}
        off = 0
        for (b, p, r, c) in self.layout[k]:
            offs[(b, p)] = (off, r, c)
            off += r * c
        return offs, off

    def blocks(self, k, vec):
        """Solution vector -> {(B, p): Matrix} component maps."""
        offs, _ = self._offsets(k)
        fl = self.m.base.field
        out = {}
        for (b, p), (off, r, c) in offs.items():
            ent = {}
            for idx, v in vec.items():
                if off <= idx < off + r * c:
                    loc = idx - off
                    ent[(loc // c, loc % c)] = v
            out[(b, p)] = Matrix(fl, r, c, ent)
        return out

    def _apply_d(self, k, vec):
        """(dt) as a flat vector in the degree k+1 layout."""
        fl = self.m.base.field
        blocks = self.blocks(k, vec)
        offs1, nvars1 = self._offsets(k + 1)
        ent = {}
        sgn = fl.one() if k % 2 == 0 else fl.neg(fl.one())
        for (b, p), (off, r, c) in offs1.items():
            nb = self.n.value(b)
            mb = self.m.value(b)
            acc = Matrix.zero(fl, r, c)
            blk = blocks.get((b, p))
            if blk is not None:
                acc = acc.add(nb.d(p + k).matmul(blk))
            blk2 = blocks.get((b, p + 1))
            if blk2 is not None:
                acc = acc.add(blk2.matmul(mb.d(p)).scale(fl.neg(sgn)))
            for (i, j), v in acc.entries.items():
                ent[off + i * c + j] = v
        return ent


def module_hom(m, n):
    return ModuleHomSpace(m, n).complex


def evaluation_maps(cat, a, mod):
    """The Yoneda evaluation isomorphism module_hom(h^a, mod) ~ mod(a).

    Returns (space, phi, psi) where phi[k] maps transformation coordinates
    to mod(a)^k coordinates (t -> t(a)(id)) and psi[k] the inverse
    (v -> (g -> (-1)^{k deg g} g.v)).
    """
    fl = cat.field
    ha = yoneda(cat, a)
    space = ModuleHomSpace(ha, mod)
    ida = cat.identity(a)
    va = mod.value(a)
    phi = {}
    psi = {}
    for k in space.complex.degrees():
        images = []
        for vec in space.basis[k]:
            blk = space.blocks(k, vec).get((a, 0))
            images.append(blk.apply(ida.coords) if blk is not None else {})
        phi[k] = Matrix.from_columns(fl, va.dim(k), images)
    for k in space.complex.degrees():
        if not space.basis.get(k):
            psi[k] = Matrix(fl, 0, va.dim(k), {})
            continue
        offs, nvars = space._offsets(k)
        target = Matrix.from_columns(fl, nvars, space.basis[k])
        sols = []
        for j in range(va.dim(k)):
            ent = {}
            for (b, p), (off, r, c) in offs.items():
                h = cat.hom(b, a)
                sgn = fl.one() if (k * p) % 2 == 0 else fl.neg(fl.one())
                for g_idx in range(h.dim(p)):
                    g = cat.basis_morphism(b, a, p, g_idx)
                    img = mod.act(g, k, {j: fl.one()})
                    for i, v in img.items():
                        ent[off + i * c + g_idx] = fl.mul(sgn, v)
            sol = target.solve(ent)
            if sol is None:
                raise RuntimeError("evaluation inverse does not land in the transformation space")
            sols.append(sol)
        psi[k] = Matrix.from_columns(fl, len(space.basis[k]), sols)
    return space, phi, psi


# -- quasi-equivalence certificates -------------------------------------------


@dataclass
class EquivCertificate:
    functor: DGFunctor
    witnesses: dict  # dst ObjId -> (TwistedComplex over image, closed deg-0 TwistedMorphism to embed(obj))


@dataclass
class QEVerdict:
    ok: bool
    failures: list


def check_quasi_equiv(cert):
    """Exhaustive H-level full-faithfulness plus witnessed essential surjectivity."""
    failures = []
    fun = cert.functor
    bad = validate_functor(fun)
    if bad:
        return QEVerdict(False, [("functor", v) for v in bad])
    src, dst = fun.src, fun.dst
    for a in src.objects:
        for b in src.objects:
            h = src.hom(a, b)
            h2 = dst.hom(fun.obj_map[a], fun.obj_map[b])
            degrees = sorted(set(h.complex.degrees()) | set(h2.complex.degrees()))
            for n in degrees:
                ca = h.complex.cohomology(n)
                cb = h2.complex.cohomology(n)
                if ca.dim != cb.dim:
                    failures.append(("hom_iso_dim", (a.label, b.label, n, ca.dim, cb.dim)))
                    continue
                if ca.dim == 0:
                    continue
                mn = fun.mor_maps.get((a, b), {}).get(n, Matrix.zero(src.field, h2.dim(n), h.dim(n)))
                images = [cb.project(mn.apply(rep)) for rep in ca.reps]
                if Matrix.from_columns(src.field, cb.dim, images).rank() != ca.dim:
                    failures.append(("hom_iso_rank", (a.label, b.label, n)))
    image = set(fun.obj_map.values())
    for dobj in dst.objects:
        w = cert.witnesses.get(dobj)
        if w is None:
            failures.append(("essential_surjectivity", (dobj.label, "missing witness")))
            continue
        tc, f = w
        if any(t.obj not in image for t in tc.terms):
            failures.append(("essential_surjectivity", (dobj.label, "witness not over the image")))
            continue
        if f.degree != 0 or not is_closed(f):
            failures.append(("essential_surjectivity", (dobj.label, "witness morphism not closed degree 0")))
            continue
        if f.dst != embed(dst, dobj) or f.src != tc:
            failures.append(("essential_surjectivity", (dobj.label, "witness endpoints wrong")))
            continue
        # f was checked closed of degree 0 above: is_ho_iso would check it again
        if not is_contractible(_cone(f)):
            failures.append(("essential_surjectivity", (dobj.label, "witness is not a homotopy isomorphism")))
    return QEVerdict(not failures, failures)


def identity_equiv_certificate(cat):
    fun = identity_functor(cat)
    witnesses = {o: (embed(cat, o), identity_morphism(embed(cat, o))) for o in cat.objects}
    return EquivCertificate(fun, witnesses)


# -- full subcategories of the hull -------------------------------------------


def hull_subcategory(cat, named_objects):
    """The full DG subcategory of the pretriangulated hull on the given
    twisted complexes, as a plain DGCategory (with entry-indexed bases)."""
    labels = [lbl for lbl, _ in named_objects]
    complexes = [tc for _, tc in named_objects]
    objs = tuple(ObjId(lbl, i) for i, lbl in enumerate(labels))
    spaces = {}
    for i, x in enumerate(complexes):
        for j, y in enumerate(complexes):
            spaces[(objs[i], objs[j])] = HomSpace(x, y)
    homs = {}
    for key, hs in spaces.items():
        names = {n: tuple(f"m{t}" for t in range(len(lst))) for n, lst in hs.basis.items()}
        if hs.complex.dims:
            homs[key] = Hom(hs.complex, names)
    comp = {}
    for (o1, o2), hs12 in spaces.items():
        for o3 in objs:
            hs23 = spaces[(o2, o3)]
            hs13 = spaces[(o1, o3)]
            table = {}
            for p in hs12.complex.degrees():
                for i in range(hs12.complex.dim(p)):
                    f = hs12.from_vector(p, {i: cat.field.one()})
                    for q in hs23.complex.degrees():
                        for j in range(hs23.complex.dim(q)):
                            g = hs23.from_vector(q, {j: cat.field.one()})
                            vec = hs13.to_vector(compose(f, g))
                            if vec:
                                table[(p, i, q, j)] = vec
            if table:
                comp[(o1, o2, o3)] = table
    ids = {}
    for i, o in enumerate(objs):
        hs = spaces[(o, o)]
        ids[o] = Morphism(o, o, 0, hs.to_vector(identity_morphism(complexes[i])))
    sub = DGCategory(cat.field, objs, homs, comp, ids, name="hull-sub")
    sub.hull_objects = dict(zip(objs, complexes))
    return sub


# -- Serre data ----------------------------------------------------------------


@dataclass
class SerreData:
    """A functor from the base category into its own pretriangulated hull.

    obj_images[A] is a twisted complex; mor_images[(A,B)][n] maps the base
    Hom^n(A,B) coordinates to degree-n coordinates of
    HomSpace(obj_images[A], obj_images[B]).
    """

    cat: DGCategory
    obj_images: dict
    mor_images: dict
    name: str = "S"

    def space(self, a, b):
        return HomSpace(self.obj_images[a], self.obj_images[b])

    def apply(self, f):
        hs = self.space(f.src, f.dst)
        m = self.mor_images.get((f.src, f.dst), {}).get(f.degree)
        if m is None:
            return hs.from_vector(f.degree, {})
        return hs.from_vector(f.degree, m.apply(f.coords))


def functor_as_serre_data(fun):
    """Wrap an endo DGFunctor as hull-valued Serre data (embed images)."""
    cat = fun.src
    obj_images = {a: embed(cat, fun.obj_map[a]) for a in cat.objects}
    data = SerreData(cat, obj_images, {}, name=fun.name or "S")
    mor_images = {}
    for (a, b), per_deg in fun.mor_maps.items():
        hs = data.space(a, b)
        out = {}
        for n, m in per_deg.items():
            m_cols = m.columns()
            images = []
            for col in range(m.cols):
                img = m_cols.get(col, {})
                mor = Morphism(fun.obj_map[a], fun.obj_map[b], n, img)
                tm = TwistedMorphism(obj_images[a], obj_images[b], n, {(0, 0): mor} if img else {})
                images.append(hs.to_vector(tm))
            out[n] = Matrix.from_columns(cat.field, hs.complex.dim(n), images)
        mor_images[(a, b)] = out
    data.mor_images = mor_images
    return data


def validate_serre_data(data):
    """Chain-map, composition and identity checks for hull-valued functors."""
    cat = data.cat
    report = []
    for a in cat.objects:
        if data.apply(cat.identity(a)) != identity_morphism(data.obj_images[a]):
            report.append(Violation("identity", (a.label,), "S(id) != id"))
    for (a, b), h in sorted(cat.homs.items()):
        for n in h.complex.degrees():
            for i in range(h.dim(n)):
                f = cat.basis_morphism(a, b, n, i)
                if data.apply(cat.d(f)) != differential(data.apply(f)):
                    report.append(Violation("chain_map", (a.label, b.label, n, i), "S(df) != d(Sf)"))
    for a in cat.objects:
        for b in cat.objects:
            hab = cat.hom(a, b)
            for c in cat.objects:
                hbc = cat.hom(b, c)
                for p in hab.complex.degrees():
                    for q in hbc.complex.degrees():
                        for i in range(hab.dim(p)):
                            f = cat.basis_morphism(a, b, p, i)
                            for j in range(hbc.dim(q)):
                                g = cat.basis_morphism(b, c, q, j)
                                if data.apply(cat.mul(f, g)) != compose(data.apply(f), data.apply(g)):
                                    report.append(Violation("composition", (a.label, b.label, c.label, (p, i), (q, j)), ""))
    return report


@dataclass
class SerreVerdict:
    ok: bool
    failures: list


def verify_serre(data, pairings):
    """Verify Serre duality data: perfect pairings
    H^n Hom(A,B) x H^{-n} Hom(embed B, S A) -> k, natural in both arguments.

    pairings[(a, b, n)] is a matrix P with P[r, c] = <x_c, y_r> over the
    deterministic cohomology bases.  The dimension symmetry
    dim H^n Hom(A,B) = dim H^{-n} Hom(B, SA) is checked first.
    """
    cat = data.cat
    fl = cat.field
    failures = []
    bad = validate_serre_data(data)
    if bad:
        return SerreVerdict(False, [("functor", v) for v in bad])
    pair_spaces = {}
    for a in cat.objects:
        for b in cat.objects:
            pair_spaces[(a, b)] = HomSpace(embed(cat, b), data.obj_images[a])
    degrees = {}
    for a in cat.objects:
        for b in cat.objects:
            h = cat.hom(a, b).complex
            hs = pair_spaces[(a, b)].complex
            degs = sorted(set(h.degrees()) | {-n for n in hs.degrees()})
            degrees[(a, b)] = degs
            for n in degs:
                d1 = h.cohomology_dim(n)
                d2 = hs.cohomology_dim(-n)
                if d1 != d2:
                    failures.append(("dimension_symmetry", (a.label, b.label, n, d1, d2)))
    if failures:
        return SerreVerdict(False, failures)
    for (a, b) in sorted(pair_spaces, key=lambda k: (k[0].index, k[1].index)):
        h = cat.hom(a, b).complex
        for n in degrees[(a, b)]:
            d = h.cohomology_dim(n)
            if d == 0:
                continue
            p = pairings.get((a, b, n))
            if p is None or p.rows != d or p.cols != d:
                failures.append(("pairing_missing", (a.label, b.label, n)))
                continue
            if p.rank() != d:
                failures.append(("pairing_not_perfect", (a.label, b.label, n)))
    if failures:
        return SerreVerdict(False, failures)

    def pair_value(a, b, n, x_coords, y_coords):
        p = pairings[(a, b, n)]
        s = fl.zero()
        for c, vx in x_coords.items():
            for r, vy in y_coords.items():
                s = fl.add(s, fl.mul(fl.mul(vx, vy), p.get(r, c)))
        return s

    def hom_classes(a, b, n):
        h = cat.hom(a, b).complex
        co = h.cohomology(n)
        return [Morphism(a, b, n, dict(rep)) for rep in co.reps]

    # naturality in the second argument: <mul(x,g), y> = <x, mul(g,y)>
    for a in cat.objects:
        for b in cat.objects:
            for b2 in cat.objects:
                hg = cat.hom(b, b2).complex
                for s in hg.degrees():
                    for g in hom_classes(b, b2, s):
                        g_tm = base_to_tm(cat, g)
                        for n in degrees[(a, b)]:
                            if cat.hom(a, b).complex.cohomology_dim(n) == 0:
                                continue
                            hs2 = pair_spaces[(a, b2)]
                            for y in hs2.cohomology_classes(-n - s):
                                gy = compose(g_tm, y)
                                hs1 = pair_spaces[(a, b)]
                                gy_coords = hs1.project(gy)
                                for x in hom_classes(a, b, n):
                                    xg = cat.mul(x, g)
                                    xg_cls = cat.hom(a, b2).complex.cohomology(n + s).project(xg.coords)
                                    y_cls = hs2.project(y)
                                    lhs = pair_value(a, b2, n + s, xg_cls, y_cls)
                                    x_cls = cat.hom(a, b).complex.cohomology(n).project(x.coords)
                                    rhs = pair_value(a, b, n, x_cls, gy_coords)
                                    if lhs != rhs:
                                        failures.append(("naturality_target", (a.label, b.label, b2.label, s, n)))
    # naturality in the first argument: <mul(f,x), y> = <x, mul(y, Sf)>
    for a2 in cat.objects:
        for a in cat.objects:
            hf = cat.hom(a2, a).complex
            for p in hf.degrees():
                for f in hom_classes(a2, a, p):
                    sf = data.apply(f)
                    for b in cat.objects:
                        for n in degrees[(a, b)]:
                            if cat.hom(a, b).complex.cohomology_dim(n) == 0:
                                continue
                            hs2 = pair_spaces[(a2, b)]
                            for y in hs2.cohomology_classes(-n - p):
                                ysf = compose(y, sf)
                                hs1 = pair_spaces[(a, b)]
                                ysf_coords = hs1.project(ysf)
                                y_cls = hs2.project(y)
                                for x in hom_classes(a, b, n):
                                    fx = cat.mul(f, x)
                                    fx_cls = cat.hom(a2, b).complex.cohomology(n + p).project(fx.coords)
                                    lhs = pair_value(a2, b, n + p, fx_cls, y_cls)
                                    x_cls = cat.hom(a, b).complex.cohomology(n).project(x.coords)
                                    rhs = pair_value(a, b, n, x_cls, ysf_coords)
                                    if lhs != rhs:
                                        failures.append(("naturality_source", (a2.label, a.label, b.label, p, n)))
    return SerreVerdict(not failures, failures)


def composition_trace_pairings(data, traces):
    """Pairings P[(a,b,n)][r,c] = tr_a(class of compose(x_c, y_r)).

    traces[a] is a coordinate functional (dict index -> scalar) on the H^0
    basis of HomSpace(embed a, S a).
    """
    cat = data.cat
    fl = cat.field
    pairings = {}
    for a in cat.objects:
        end_space = HomSpace(embed(cat, a), data.obj_images[a])
        tr = traces[a]
        for b in cat.objects:
            h = cat.hom(a, b).complex
            hs = HomSpace(embed(cat, b), data.obj_images[a])
            degs = sorted(set(h.degrees()) | {-n for n in hs.complex.degrees()})
            for n in degs:
                d = h.cohomology_dim(n)
                if d == 0 or hs.complex.cohomology_dim(-n) != d:
                    continue
                xs = [Morphism(a, b, n, dict(rep)) for rep in h.cohomology(n).reps]
                ys = hs.cohomology_classes(-n)
                ent = {}
                for c, x in enumerate(xs):
                    x_tm = base_to_tm(cat, x)
                    for r, y in enumerate(ys):
                        comp_cls = end_space.project(compose(x_tm, y))
                        val = fl.zero()
                        for idx, v in comp_cls.items():
                            val = fl.add(val, fl.mul(v, tr.get(idx, fl.zero())))
                        if not fl.is_zero(val):
                            ent[(r, c)] = val
                pairings[(a, b, n)] = Matrix(fl, d, d, ent)
    return pairings


# -- op-duality of twisted complexes -------------------------------------------


def dualize(x, opcat=None):
    """Transpose duality: terms reversed with negated shifts over the
    opposite category; q transposed with the Koszul/shift sign
    sigma = (-1)^{1 + r_dst (1 + r_src)} per entry."""
    cat = x.cat
    if opcat is None:
        opcat = opposite(cat)
    n = len(x.terms)
    terms = [Term(x.terms[n - 1 - t].obj, -x.terms[n - 1 - t].shift) for t in range(n)]
    fl = cat.field
    q = {}
    for (c, a), m in x.q.items():
        # m: obj_a -> obj_c in cat = obj_c -> obj_a in opcat, same coordinates
        r_src = x.terms[a].shift
        r_dst = x.terms[c].shift
        exp = 1 + r_dst * (1 + r_src)
        mor = Morphism(m.dst, m.src, m.degree, dict(m.coords))
        if exp % 2:
            mor = opcat.neg(mor)
        q[(n - 1 - a, n - 1 - c)] = mor
    return TwistedComplex(opcat, terms, q, check=False)


def double_dual_iso(x, ddual):
    """The canonical DG isomorphism x -> dualize(dualize(x)) with diagonal
    entries (-1)^{shift} id."""
    cat = x.cat
    entries = {}
    for t, term in enumerate(x.terms):
        m = cat.identity(term.obj)
        if term.shift % 2:
            m = cat.neg(m)
        entries[(t, t)] = m
    return TwistedMorphism(x, ddual, 0, entries)
