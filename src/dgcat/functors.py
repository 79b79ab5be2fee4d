"""DG functors, quasi-equivalence certificates, full subcategories of the
pretriangulated hull and Serre data."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .dgcore import DGCategory, Hom, Morphism, ObjId, Tables, Violation
from .exactlin import Matrix
from .pretr import (
    HomSpace,
    Refusal,
    Term,
    TwistedComplex,
    TwistedMorphism,
    _canon,
    _cone,
    compose,
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
        elif o not in src.ids or fun.obj_map[o] not in dst.ids:
            report.append(Violation("identity", (o.label,), "no identity on a or F(a)"))
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
            da, db = h.complex.cohomology_dims(), h2.complex.cohomology_dims()
            for n in sorted(da.keys() | db.keys()):
                if da.get(n, 0) != db.get(n, 0):
                    failures.append(("hom_iso_dim", (a.label, b.label, n, da.get(n, 0), db.get(n, 0))))
                    continue
                ca, cb = h.complex.cohomology(n), h2.complex.cohomology(n)
                mn = fun.mor_maps.get((a, b), {}).get(n, Matrix.zero(src.field, h2.dim(n), h.dim(n)))
                images = [cb.project(mn.apply(rep)) for rep in ca.reps]
                if Matrix.from_columns(src.field, cb.dim, images).rank() != ca.dim:
                    failures.append(("hom_iso_rank", (a.label, b.label, n)))
    image = set(fun.obj_map.values())
    for dobj in dst.objects:
        try:
            _replay_witness(dst, image, dobj, cert.witnesses.get(dobj))
        except Refusal as e:
            failures.append(("essential_surjectivity", (dobj.label, str(e))))
    return Verdict(not failures, failures)


def _replay_witness(dst, image, dobj, w):
    """Refusal at the first failed obligation of w: dobj ≅ a twisted complex over the image."""
    if w is None:
        raise Refusal("missing witness")
    tc, f = w
    if any(t.obj not in image for t in tc.terms):
        raise Refusal("witness not over the image")
    if f.degree != 0 or not is_closed(f):
        raise Refusal("witness morphism not closed degree 0")
    if f.dst != embed(dst, dobj) or f.src != tc:
        raise Refusal("witness endpoints wrong")
    # f was checked closed of degree 0 above: is_ho_iso would check it again
    if not is_contractible(_cone(f)):
        raise Refusal("witness is not a homotopy isomorphism")


# -- full subcategories of the hull -------------------------------------------


def hull_subcategory(cat, named_objects):
    """The full DG subcategory of the pretriangulated hull on the given
    twisted complexes, as a plain DGCategory (with entry-indexed bases).
    The table of a triple is worked out from the composites of its basis
    twisted morphisms when it is first read."""
    objs = tuple(ObjId(lbl, i) for i, (lbl, _) in enumerate(named_objects))
    ends = {}  # content -> its first complex, whose memo then serves every equal one
    xs = [ends.setdefault(_canon(x), x) for _, x in named_objects]
    spaces = {(objs[i], objs[j]): HomSpace(x, y) for i, x in enumerate(xs) for j, y in enumerate(xs)}
    one = cat.field.one()
    homs = {}
    for key, hs in spaces.items():
        if hs.complex.dims:
            homs[key] = Hom(hs.complex, {n: tuple(f"m{t}" for t in range(dim)) for n, dim in hs.complex.dims.items()})

    @functools.cache
    def basis(key):
        """[(degree, index, basis twisted morphism)] of the Hom at key,
        made when the first table build reads it."""
        hs = spaces[key]
        return [(p, i, hs.from_vector(p, {i: one})) for p in hs.complex.degrees() for i in range(hs.complex.dim(p))]

    def build(key):
        o1, o2, o3 = key
        hs13, table = spaces[(o1, o3)], {}
        for p, i, f in basis((o1, o2)):
            for q, j, g in basis((o2, o3)):
                vec = hs13.to_vector(compose(f, g))
                if vec:
                    table[(p, i, q, j)] = vec
        return table

    ids = {o: Morphism(o, o, 0, spaces[(o, o)].to_vector(identity_morphism(x))) for o, x in zip(objs, xs)}
    return DGCategory(cat.field, objs, homs, Tables(build=build), ids, name="hull-sub")


# -- Serre data ----------------------------------------------------------------


@dataclass
class SerreData:
    """A Serre bundle over a category as two DG functors from it into one
    full subcategory H of its pretriangulated hull: embedding sends a to
    embed(a), functor sends a to S(a).  Both have src the base category and
    dst H.

    classes keeps the class coordinates that `verify_serre` and
    `composition_trace_pairings` project, keyed by (cohomology basis,
    cycle), so each distinct pair is projected once (see `_class`)."""

    embedding: DGFunctor
    functor: DGFunctor
    classes: dict = field(default_factory=dict, repr=False, compare=False)


def serre_data(cat, obj_images, mor_images, name="S"):
    """The bundle a -> obj_images[a], a twisted complex over cat, where
    mor_images[(a, b)][n] maps base Hom^n(a, b) coordinates to degree-n
    coordinates in the HomSpace basis from obj_images[a] to obj_images[b].

    H is hull_subcategory on embed(a), then S(a), for every object a.  Its
    Hom bases are the HomSpace bases, so S's maps are mor_images and E's
    are identity matrices (two embedded objects have the base basis)."""
    n = len(cat.objects)
    hull = hull_subcategory(cat, [(a.label, embed(cat, a)) for a in cat.objects] + [(f"S{a.label}", obj_images[a]) for a in cat.objects])
    embedding = DGFunctor(cat, hull, dict(zip(cat.objects, hull.objects)), identity_functor(cat).mor_maps, name="embed")
    return SerreData(embedding, DGFunctor(cat, hull, dict(zip(cat.objects, hull.objects[n:])), mor_images, name))


def functor_as_serre_data(fun):
    """An endo DGFunctor F as Serre data with S(a) = embed(F a): the HomSpace
    basis between embedded objects is the base basis, so S's maps are F's."""
    cat = fun.src
    return serre_data(cat, {a: embed(cat, fun.obj_map[a]) for a in cat.objects}, fun.mor_maps, fun.name or "S")


def _classes(cat, x, y, n):
    """Representative cycles of the cohomology basis of H^n Hom(x, y)."""
    return [Morphism(x, y, n, dict(rep)) for rep in cat.hom(x, y).complex.cohomology(n).reps]


def _class(data, cat, f):
    """Class coordinates of a cycle f of cat (data's base category or its
    H) in the cohomology basis, projected on the first request and kept in
    data.classes.  A Hom complex is not changed after construction, so one
    basis and one cycle have one class."""
    h = cat.hom(f.src, f.dst).complex.cohomology(f.degree)
    key = h, frozenset(f.coords.items())
    coords = data.classes.get(key)
    if coords is None:
        coords = data.classes[key] = h.project(f.coords)
    return coords


def _pairing_dims(data, a, b):
    """({n: dim H^n Hom(a, b)}, {n: dim H^{-n} Hom(E b, S a)}) in H, over nonzero dims."""
    hs = data.functor.dst.hom(data.embedding.obj_map[b], data.functor.obj_map[a]).complex
    return data.functor.src.hom(a, b).complex.cohomology_dims(), {-n: k for n, k in hs.cohomology_dims().items()}


def verify_serre(data, pairings):
    """Verify Serre duality data: perfect pairings
    H^n Hom(A,B) x H^{-n} Hom(E B, S A) -> k, natural in both arguments,
    with every Hom, composite and functor image taken in data's H.

    pairings[(a, b, n)] is a matrix P with P[r, c] = <x_c, y_r> over the
    deterministic cohomology bases.  The dimension symmetry
    dim H^n Hom(A,B) = dim H^{-n} Hom(E B, S A) is checked first.

    Naturality is one matrix identity per basis class g of H^s Hom(B, B2)
    and degree n, P(a, b2, n+s)·M = Nᵀ·P(a, b, n), M's columns the classes
    of x_c·g and N's those of E(g)·y_r (in the first argument, of f·x_c and
    y_r·S(f)): a basis representative's class is a unit vector
    (`Cohomology.dual`), so entry (r, c) reads <x_c·g, y_r> = <x_c, E(g)·y_r>.
    Each nonzero entry of the difference is one failure.
    """
    emb, fun = data.embedding, data.functor
    cat, hull = fun.src, fun.dst
    fl = cat.field
    failures = []
    bad = validate_functor(fun)
    if bad:
        return Verdict(False, [("functor", v) for v in bad])
    dims = {}
    for a in cat.objects:
        for b in cat.objects:
            da, ds = _pairing_dims(data, a, b)
            dims[(a, b)] = da
            for n in sorted(da.keys() | ds.keys()):
                d1, d2 = da.get(n, 0), ds.get(n, 0)
                if d1 != d2:
                    failures.append(("dimension_symmetry", (a.label, b.label, n, d1, d2)))
    if failures:
        return Verdict(False, failures)
    for (a, b) in sorted(dims, key=lambda k: (k[0].index, k[1].index)):
        for n, d in dims[(a, b)].items():
            p = pairings.get((a, b, n))
            if p is None or p.rows != d or p.cols != d:
                failures.append(("pairing_missing", (a.label, b.label, n)))
                continue
            if p.rank() != d:
                failures.append(("pairing_not_perfect", (a.label, b.label, n)))
    if failures:
        return Verdict(False, failures)

    def natural(failure, key2, key, moved_x, moved_y):
        p2, p = pairings[key2], pairings[key]
        m = Matrix.from_columns(fl, p2.cols, [_class(data, cat, z) for z in moved_x])
        nt = Matrix.from_columns(fl, p.rows, [_class(data, hull, z) for z in moved_y]).transpose()
        failures.extend([failure] * len(p2.matmul(m).sub(nt.matmul(p)).entries))

    # naturality in the second argument: <mul(x,g), y> = <x, mul(E g, y)>
    for a in cat.objects:
        for b in cat.objects:
            for b2 in cat.objects:
                for s in cat.hom(b, b2).complex.cohomology_dims():
                    for g in _classes(cat, b, b2, s):
                        eg = emb.apply(g)
                        for n in dims[(a, b)]:
                            if n + s in dims[(a, b2)]:
                                xg = [cat.mul(x, g) for x in _classes(cat, a, b, n)]
                                gy = [hull.mul(eg, y) for y in _classes(hull, emb.obj_map[b2], fun.obj_map[a], -n - s)]
                                natural(("naturality_target", (a.label, b.label, b2.label, s, n)), (a, b2, n + s), (a, b, n), xg, gy)
    # naturality in the first argument: <mul(f,x), y> = <x, mul(y, S f)>
    for a2 in cat.objects:
        for a in cat.objects:
            for p in cat.hom(a2, a).complex.cohomology_dims():
                for f in _classes(cat, a2, a, p):
                    sf = fun.apply(f)
                    for b in cat.objects:
                        for n in dims[(a, b)]:
                            if n + p in dims[(a2, b)]:
                                fx = [cat.mul(f, x) for x in _classes(cat, a, b, n)]
                                ysf = [hull.mul(y, sf) for y in _classes(hull, emb.obj_map[b], fun.obj_map[a2], -n - p)]
                                natural(("naturality_source", (a2.label, a.label, b.label, p, n)), (a2, b, n + p), (a, b, n), fx, ysf)
    return Verdict(not failures, failures)


def composition_trace_pairings(data, traces):
    """Pairings P[(a,b,n)][r,c] = tr_a(class of mul(E x_c, y_r)) in H.

    traces[a] is a coordinate functional (dict index -> scalar) on the H^0
    basis of Hom(E a, S a).
    """
    emb, fun = data.embedding, data.functor
    cat, hull = fun.src, fun.dst
    fl = cat.field
    pairings = {}
    for a in cat.objects:
        tr = traces[a]
        for b in cat.objects:
            da, ds = _pairing_dims(data, a, b)
            for n, d in da.items():
                if ds.get(n) != d:
                    continue
                ys = _classes(hull, emb.obj_map[b], fun.obj_map[a], -n)
                ent = {}
                for c, x in enumerate(_classes(cat, a, b, n)):
                    ex = emb.apply(x)
                    for r, y in enumerate(ys):
                        val = fl.zero()
                        for idx, v in _class(data, hull, hull.mul(ex, y)).items():
                            val = fl.add(val, fl.mul(v, tr.get(idx, fl.zero())))
                        if not fl.is_zero(val):
                            ent[(r, c)] = val
                pairings[(a, b, n)] = Matrix(fl, d, d, ent)
    return pairings
