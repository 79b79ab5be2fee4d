"""Reference Serre checks for tests: the `SerreData`, `validate_serre_data`,
`verify_serre` and `composition_trace_pairings` that `dgcat.functors` had
before Serre data became two DG functors into one hull subcategory, kept
verbatim, with the `functor_as_serre_data` and `fixtures.serre_from_images`
that built it and the A_2 bundle of `fixtures.a2_serre_data`.

Here a Serre bundle is its own calculus on twisted morphisms: `apply` maps a
base morphism to a `HomSpace` vector read back as a twisted morphism, the
functor checks compare twisted-morphism composites and differentials, and
every pairing space is a `HomSpace(embed(b), S(a))` built on demand.

`check_quasi_equiv`, `hull_verify_serre` and `hull_composition_trace_pairings`
below are `dgcat.functors`' `check_quasi_equiv`, `verify_serre` and
`composition_trace_pairings` on today's `SerreData` (two DG functors into
one hull subcategory) as they were before every graded-dimension decision
read `ChainComplex.cohomology_dims`: each scans the chain degrees of its Hom
complexes, calling `cohomology_dim` or building a `Cohomology` in each.
Their `_class` projects every cycle it is given, as `dgcat.functors` did
before its classes were kept on the `SerreData`.
"""

from dataclasses import dataclass

from dgcat.dgcore import DGCategory, Morphism, Violation
from dgcat.exactlin import QQ, Matrix
from dgcat.fixtures import a2_category
from dgcat.functors import Verdict, _classes, _replay_witness, base_to_tm, validate_functor
from dgcat.pretr import HomSpace, Refusal, TwistedMorphism, compose, cone, differential, embed, identity_morphism


def _class(cat, f):
    """Class coordinates of a cycle f in the cohomology basis."""
    return cat.hom(f.src, f.dst).complex.cohomology(f.degree).project(f.coords)


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


def serre_from_images(cat, obj_images, basis_images):
    """SerreData from images of every Hom basis element.

    basis_images[(a, b, n, i)] is the TwistedMorphism image of the i-th
    degree-n basis morphism of Hom(a, b)."""
    data = SerreData(cat, obj_images, {})
    fl = cat.field
    mor_images = {}
    for (a, b), h in cat.homs.items():
        hs = data.space(a, b)
        per_deg = {}
        for n in h.complex.degrees():
            cols = {}
            for i in range(h.dim(n)):
                tm = basis_images.get((a, b, n, i))
                if tm is None:
                    continue
                for r, v in hs.to_vector(tm).items():
                    cols[(r, i)] = v
            per_deg[n] = Matrix(fl, hs.complex.dim(n), h.dim(n), cols)
        if per_deg:
            mor_images[(a, b)] = per_deg
    data.mor_images = mor_images
    return data


def a2_serre_data(field=QQ):
    """The Nakayama/Serre bundle for A_2: S(u) = embed(v), S(v) = cone(a),
    S(a) = the cone inclusion; trace pairings come with it."""
    cat = a2_category(field)
    u, v = cat.obj("u"), cat.obj("v")
    a = cat.basis_morphism(u, v, 0, 0)
    z = cone(base_to_tm(cat, a))
    ev = embed(cat, v)
    s_a = TwistedMorphism(ev, z, 0, {(0, 0): cat.identity(v)})
    images = {
        (u, u, 0, 0): identity_morphism(ev),
        (v, v, 0, 0): identity_morphism(z),
        (u, v, 0, 0): s_a,
    }
    data = serre_from_images(cat, {u: ev, v: z}, images)
    traces = {u: {0: field.one()}, v: {0: field.one()}}
    pairings = composition_trace_pairings(data, traces)
    return data, pairings


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
        try:
            _replay_witness(dst, image, dobj, cert.witnesses.get(dobj))
        except Refusal as e:
            failures.append(("essential_surjectivity", (dobj.label, str(e))))
    return Verdict(not failures, failures)


def hull_verify_serre(data, pairings):
    """Verify Serre duality data: perfect pairings
    H^n Hom(A,B) x H^{-n} Hom(E B, S A) -> k, natural in both arguments,
    with every Hom, composite and functor image taken in data's H.

    pairings[(a, b, n)] is a matrix P with P[r, c] = <x_c, y_r> over the
    deterministic cohomology bases.  The dimension symmetry
    dim H^n Hom(A,B) = dim H^{-n} Hom(E B, S A) is checked first.
    """
    emb, fun = data.embedding, data.functor
    cat, hull = fun.src, fun.dst
    fl = cat.field
    failures = []
    bad = validate_functor(fun)
    if bad:
        return Verdict(False, [("functor", v) for v in bad])
    degrees = {}
    for a in cat.objects:
        for b in cat.objects:
            h = cat.hom(a, b).complex
            hs = hull.hom(emb.obj_map[b], fun.obj_map[a]).complex
            degs = sorted(set(h.degrees()) | {-n for n in hs.degrees()})
            degrees[(a, b)] = degs
            for n in degs:
                d1 = h.cohomology_dim(n)
                d2 = hs.cohomology_dim(-n)
                if d1 != d2:
                    failures.append(("dimension_symmetry", (a.label, b.label, n, d1, d2)))
    if failures:
        return Verdict(False, failures)
    for (a, b) in sorted(degrees, key=lambda k: (k[0].index, k[1].index)):
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

    # naturality in the second argument: <mul(x,g), y> = <x, mul(E g, y)>
    for a in cat.objects:
        for b in cat.objects:
            for b2 in cat.objects:
                for s in cat.hom(b, b2).complex.degrees():
                    for g in _classes(cat, b, b2, s):
                        eg = emb.apply(g)
                        for n in degrees[(a, b)]:
                            if cat.hom(a, b).complex.cohomology_dim(n) == 0:
                                continue
                            for y in _classes(hull, emb.obj_map[b2], fun.obj_map[a], -n - s):
                                gy_cls = _class(hull, hull.mul(eg, y))
                                y_cls = _class(hull, y)
                                for x in _classes(cat, a, b, n):
                                    lhs = pair_value(a, b2, n + s, _class(cat, cat.mul(x, g)), y_cls)
                                    if lhs != pair_value(a, b, n, _class(cat, x), gy_cls):
                                        failures.append(("naturality_target", (a.label, b.label, b2.label, s, n)))
    # naturality in the first argument: <mul(f,x), y> = <x, mul(y, S f)>
    for a2 in cat.objects:
        for a in cat.objects:
            for p in cat.hom(a2, a).complex.degrees():
                for f in _classes(cat, a2, a, p):
                    sf = fun.apply(f)
                    for b in cat.objects:
                        for n in degrees[(a, b)]:
                            if cat.hom(a, b).complex.cohomology_dim(n) == 0:
                                continue
                            for y in _classes(hull, emb.obj_map[b], fun.obj_map[a2], -n - p):
                                ysf_cls = _class(hull, hull.mul(y, sf))
                                y_cls = _class(hull, y)
                                for x in _classes(cat, a, b, n):
                                    lhs = pair_value(a2, b, n + p, _class(cat, cat.mul(f, x)), y_cls)
                                    if lhs != pair_value(a, b, n, _class(cat, x), ysf_cls):
                                        failures.append(("naturality_source", (a2.label, a.label, b.label, p, n)))
    return Verdict(not failures, failures)


def hull_composition_trace_pairings(data, traces):
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
            h = cat.hom(a, b).complex
            hs = hull.hom(emb.obj_map[b], fun.obj_map[a]).complex
            degs = sorted(set(h.degrees()) | {-n for n in hs.degrees()})
            for n in degs:
                d = h.cohomology_dim(n)
                if d == 0 or hs.cohomology_dim(-n) != d:
                    continue
                ys = _classes(hull, emb.obj_map[b], fun.obj_map[a], -n)
                ent = {}
                for c, x in enumerate(_classes(cat, a, b, n)):
                    ex = emb.apply(x)
                    for r, y in enumerate(ys):
                        val = fl.zero()
                        for idx, v in _class(hull, hull.mul(ex, y)).items():
                            val = fl.add(val, fl.mul(v, tr.get(idx, fl.zero())))
                        if not fl.is_zero(val):
                            ent[(r, c)] = val
                pairings[(a, b, n)] = Matrix(fl, d, d, ent)
    return pairings
