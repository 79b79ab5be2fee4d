"""DG functors, quasi-equivalence certificates, full subcategories of the
pretriangulated hull and Serre data."""

from __future__ import annotations

from dataclasses import dataclass

from .dgcore import DGCategory, Hom, Morphism, ObjId, Violation
from .exactlin import Matrix
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


def base_to_tm(cat, f):
    """A base morphism as a twisted morphism embed(src) -> embed(dst)."""
    return TwistedMorphism(embed(cat, f.src), embed(cat, f.dst), f.degree, {(0, 0): f} if not f.is_zero() else {})


# -- quasi-equivalence certificates -------------------------------------------


@dataclass
class EquivCertificate:
    functor: DGFunctor
    witnesses: dict  # dst ObjId -> (TwistedComplex over image, closed deg-0 TwistedMorphism to embed(obj))


@dataclass
class Verdict:
    """What check_quasi_equiv and verify_serre return."""

    ok: bool
    failures: list


def check_quasi_equiv(cert):
    """Exhaustive H-level full-faithfulness plus witnessed essential surjectivity."""
    failures = []
    fun = cert.functor
    bad = validate_functor(fun)
    if bad:
        return Verdict(False, [("functor", v) for v in bad])
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
    return Verdict(not failures, failures)


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
    return DGCategory(cat.field, objs, homs, comp, ids, name="hull-sub")


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
        return Verdict(False, [("functor", v) for v in bad])
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
        return Verdict(False, failures)
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
        return Verdict(False, failures)

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
    return Verdict(not failures, failures)


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

