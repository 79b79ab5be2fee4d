"""Seeded random generators for categories and twisted complexes.

Valid DG categories are produced from constructions that guarantee the
axioms: graded acyclic quivers, square-zero loop algebras, two-object
categories whose Hom is a random complex with exact d^2 = 0 (built from
shift atoms under a random change of basis), plus tensor products and
opposites of those.
"""

import random
from fractions import Fraction

from dgcat.dgcore import Arrow, DGCategory, Hom, Morphism, ObjId, from_quiver, opposite
from dgcat.exactlin import QQ, GF, ChainComplex, Matrix, axpy
from dgcat import pretr


def random_invertible(field, n, rng):
    """Random invertible matrix: unitriangular * permutation with signs."""
    ent = {}
    perm = list(range(n))
    rng.shuffle(perm)
    one = field.one()
    for i, p in enumerate(perm):
        ent[(i, p)] = one if rng.random() < 0.5 else field.neg(one)
    m = Matrix(field, n, n, ent)
    u = {(i, i): one for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                u[(i, j)] = field.from_int(rng.randrange(-2, 3))
    return Matrix(field, n, n, {k: v for k, v in u.items() if not field.is_zero(v)}).matmul(m)


def random_complex(field, rng, max_atoms=3, degree_span=(-2, 2)):
    """Random chain complex with exact d^2 = 0 and a scrambled basis."""
    atoms = []
    for _ in range(rng.randrange(1, max_atoms + 1)):
        d0 = rng.randrange(degree_span[0], degree_span[1] + 1)
        if rng.random() < 0.5:
            atoms.append(("point", d0))
        else:
            atoms.append(("interval", d0))
    return complex_from_atoms(field, rng, atoms)


def complex_from_atoms(field, rng, atoms):
    """The sum of the given atoms, ("point", n) (k in degree n) and
    ("interval", n) (k -> k from degree n to n+1), under a random invertible
    change of basis in each degree."""
    dims = {}
    ent = {}
    for kind, d0 in atoms:
        if kind == "point":
            dims[d0] = dims.get(d0, 0) + 1
        else:
            i = dims.get(d0, 0)
            j = dims.get(d0 + 1, 0)
            dims[d0] = i + 1
            dims[d0 + 1] = j + 1
            ent.setdefault(d0, {})[(j, i)] = field.one()
    diff = {n: Matrix(field, dims.get(n + 1, 0), dims[n], e) for n, e in ent.items()}
    # conjugate by random invertible degreewise changes of basis
    changes = {n: random_invertible(field, d, rng) for n, d in dims.items()}
    inverses = {n: Matrix.from_columns(field, g.cols, [g.solve({j: field.one()}) for j in range(g.rows)]) for n, g in changes.items()}
    new_diff = {}
    for n, m in diff.items():
        new = changes[n + 1].matmul(m).matmul(inverses[n]) if n + 1 in changes else m
        if not new.is_zero():
            new_diff[n] = new
    return ChainComplex(field, dims, new_diff)


def bimodule_category(field, rng):
    """Two objects u, v with End = k and Hom(u,v) a random complex."""
    u, v = ObjId("u", 0), ObjId("v", 1)
    c = random_complex(field, rng)
    homs = {
        (u, u): Hom(ChainComplex(field, {0: 1}), {0: ("1",)}),
        (v, v): Hom(ChainComplex(field, {0: 1}), {0: ("1",)}),
        (u, v): Hom(c, {n: tuple(f"m{n}_{i}" for i in range(c.dim(n))) for n in c.degrees()}),
    }
    one = field.one()
    comp = {
        (u, u, u): {(0, 0, 0, 0): {0: one}},
        (v, v, v): {(0, 0, 0, 0): {0: one}},
    }
    t_uv = {}
    for n in c.degrees():
        for i in range(c.dim(n)):
            t_uv[(0, 0, n, i)] = {i: one}
    comp[(u, u, v)] = t_uv
    t_uv2 = {}
    for n in c.degrees():
        for i in range(c.dim(n)):
            t_uv2[(n, i, 0, 0)] = {i: one}
    comp[(u, v, v)] = t_uv2
    ids = {u: Morphism(u, u, 0, {0: one}), v: Morphism(v, v, 0, {0: one})}
    return DGCategory(field, (u, v), homs, comp, ids, name="bimodule")


def random_quiver_category(field, rng):
    n = rng.randrange(2, 4)
    vertices = [f"w{i}" for i in range(n)]
    arrows = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(rng.randrange(0, 3)):
                arrows.append(Arrow(f"a{k}", vertices[i], vertices[j], rng.randrange(-1, 2)))
                k += 1
    return from_quiver(field, vertices, arrows)


def random_quiver_presentation(field, rng):
    """(vertices, arrows, relations) for from_quiver: 1-3 vertices, up to
    five arrows of degree -1..1 between any two vertices, at most two of
    them loops, and up to four relations of length 1-3.  A relation is a
    combination of parallel paths of one length and degree with
    coefficients in {1, -1, 2, 3} (zero in some fields); some repeat their
    first term negated, so that term cancels.  Most loops also get the
    relation loop·loop = 0; many presentations stay infinite-dimensional."""
    vertices = [f"w{i}" for i in range(rng.randrange(1, 4))]
    arrows = []
    for k in range(rng.randrange(1, 6)):
        src, dst = rng.choice(vertices), rng.choice(vertices)
        if src != dst or sum(a.src == a.dst for a in arrows) < 2:
            arrows.append(Arrow(f"a{k}", src, dst, rng.randrange(-1, 2)))
    out = {}
    for a in arrows:
        out.setdefault(a.src, []).append(a)
    # paths[r]: (arrow names, source, target, degree) of every path of length r
    paths = {1: [((a.name,), a.src, a.dst, a.degree) for a in arrows]}
    for r in (2, 3):
        paths[r] = [(p + (a.name,), s, a.dst, d + a.degree) for p, s, t, d in paths[r - 1] for a in out.get(t, ())]
    relations = []
    for _ in range(rng.randrange(0, 5)):
        r = rng.randrange(1, 4)
        if not paths[r]:
            continue
        lead = rng.choice(paths[r])
        parallel = [p for p in paths[r] if p[1:] == lead[1:]]
        picked = rng.sample(parallel, min(len(parallel), rng.randrange(1, 4)))
        terms = [(field.from_int(rng.choice((1, -1, 2, 3))), list(p[0])) for p in picked]
        if rng.random() < 0.25:
            c, path = terms[0]
            terms.append((field.neg(c), path))
        relations.append(terms)
    relations += [[(field.one(), [a.name, a.name])] for a in arrows if a.src == a.dst and rng.random() < 0.7]
    return vertices, arrows, relations


SKEW_SCALARS = (2, -2, 3, Fraction(1, 2), Fraction(-1, 3))


def skew_beilinson_quiver(field, m, k, seed):
    """Full subcategory O, ..., O(k) of P^{m-1}: k+1 vertices v0..vk, m
    arrows per step, and skew commutativity y_i x_j = q_ij y_j x_i for i < j
    with each q_ij drawn by the seed from SKEW_SCALARS (none is +-1).
    dim Hom(v_a, v_{a+d}) = C(m-1+d, d), all in degree 0."""
    rng = random.Random(seed)
    verts = [f"v{a}" for a in range(k + 1)]
    arrows = [Arrow(f"x{s}_{i}", verts[s], verts[s + 1]) for s in range(k) for i in range(m)]
    rels = []
    for i in range(m):
        for j in range(i + 1, m):
            q = Fraction(rng.choice(SKEW_SCALARS))
            c = field.div(field.from_int(q.numerator), field.from_int(q.denominator))
            for s in range(k - 1):
                rels.append([(field.one(), [f"x{s}_{j}", f"x{s + 1}_{i}"]), (field.neg(c), [f"x{s}_{i}", f"x{s + 1}_{j}"])])
    return from_quiver(field, verts, arrows, rels)


def product_outside_basis_category(field):
    """One object with End basis id, f, g, u, s, e in degree 0, whose table
    has u·s = e and f·g = P for an index P = 9 outside the basis, with P
    acting as a unit and P·e = e: not a category, and not even a table
    over its own basis."""
    o = ObjId("*", 0)
    one = field.one()
    table = {(0, 0, 0, b): {b: one} for b in (*range(6), 9)} | {(0, b, 0, 0): {b: one} for b in (*range(6), 9)}
    table |= {(0, 1, 0, 2): {9: one}, (0, 3, 0, 4): {5: one}, (0, 9, 0, 5): {5: one}}
    hom = Hom(ChainComplex(field, {0: 6}), {0: ("id", "f", "g", "u", "s", "e")})
    return DGCategory(field, (o,), {(o, o): hom}, {(o, o, o): table}, {o: Morphism(o, o, 0, {0: one})})


def random_category(rng, field=None):
    field = field or rng.choice([QQ, GF(101)])
    kind = rng.randrange(4)
    if kind == 0:
        cat = random_quiver_category(field, rng)
    elif kind == 1:
        cat = bimodule_category(field, rng)
    elif kind == 2:
        deg = rng.choice([0, 1, 2])
        rel = [[(1, ["e", "e"])]]
        cat = from_quiver(field, ["*"], [Arrow("e", "*", "*", deg)], rel)
    else:
        cat = opposite(bimodule_category(field, rng))
    return cat


def random_closed_degree0(hs, rng, max_tries=8):
    """Random closed degree-0 morphism from a HomSpace (possibly zero)."""
    cat = hs.cat
    fl = cat.field
    d0 = hs.complex.d(0)
    cycles = d0.nullspace() if hs.complex.dim(0) else []
    if not cycles:
        return pretr.zero_morphism(hs.x, hs.y)
    vec = {}
    for c in cycles:
        axpy(fl, vec, c, fl.from_int(rng.randrange(-2, 3)))
    return hs.from_vector(0, vec)


def random_twisted_complex(cat, rng, max_terms=5):
    """Random twisted complex built from shifts, sums, and cones of random
    closed degree-0 morphisms (Maurer-Cartan holds by construction)."""
    objs = list(cat.objects)
    x = pretr.shift(pretr.embed(cat, rng.choice(objs)), rng.randrange(-2, 3))
    while len(x.terms) < max_terms:
        move = rng.randrange(4)
        if move == 0:
            x = pretr.shift(x, rng.randrange(-1, 2))
        elif move == 1:
            y = pretr.shift(pretr.embed(cat, rng.choice(objs)), rng.randrange(-2, 3))
            x = pretr.direct_sum(x, y) if rng.random() < 0.5 else pretr.direct_sum(y, x)
        elif move == 2:
            y = pretr.shift(pretr.embed(cat, rng.choice(objs)), rng.randrange(-2, 3))
            f = random_closed_degree0(pretr.HomSpace(y, x), rng)
            x = pretr.cone(f)
        else:
            break
    return x
