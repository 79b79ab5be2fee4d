"""`dgcore.Blocks`, the one basis layout of graded direct sums, against the
per-element orders it replaced: `TensorIndex` (tensor_reference.py) for the
Homs of a product and `HomSpace`'s layout loop (twisted_reference.py) for
the Homs of twisted complexes."""

import random

import pytest

from dgcat.dgcore import Arrow, DGCategory, Morphism, from_quiver, tensor
from dgcat.exactlin import GF, QQ
from dgcat.fixtures import beilinson3_category
from dgcat.pretr import HomSpace, TwistedMorphism, cone, embed, shift

from gens import product_outside_basis_category, random_category, random_twisted_complex
from tensor_reference import TensorIndex
from twisted_reference import homspace_layout

FIELDS = (QQ, GF(32003))


def _products(field, rng):
    """Seeded products c(x)d and nested products (c(x)d)(x)e."""
    for _ in range(4):
        c, d, e = (random_category(rng, field) for _ in range(3))
        cd = tensor(c, d)
        yield cd
        yield tensor(cd, e)


def _hom_spaces(field, rng):
    """HomSpaces between seeded twisted complexes (shifts, sums and cones)
    over seeded categories and products of two of them."""
    for trial in range(12):
        cat = random_category(rng, field)
        if trial % 3 == 2:
            cat = tensor(cat, random_category(rng, field))
        x = random_twisted_complex(cat, rng, max_terms=4)
        y = shift(random_twisted_complex(cat, rng, max_terms=4), rng.randrange(-1, 2))
        yield from (HomSpace(x, y), HomSpace(y, x), HomSpace(x, x))


def _raises_outside(layout):
    """Both directions raise on an index outside its block or degree."""
    for key, (_, _, size) in layout.at.items():
        for t in (-1, size):
            with pytest.raises(IndexError):
                layout.column(key, t)
    for n, dim in layout.dims.items():
        for col in (-1, dim):
            with pytest.raises(IndexError):
                layout.locate(n, col)
    with pytest.raises(IndexError):
        layout.locate(max(layout.dims, default=0) + 1, 0)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_tensor_layouts_give_every_element_the_reference_column(field):
    rng = random.Random(2801)
    for t in _products(field, rng):
        c, d = t.factors
        for (o1, o2), layout in t.layouts.items():
            (a1, b1), (a2, b2) = t.pair_map[o1], t.pair_map[o2]
            hc, hd = c.hom(a1, a2), d.hom(b1, b2)
            ref = TensorIndex(hc, hd)
            assert layout.dims == ref.dims() == t.hom(o1, o2).complex.dims
            for (p, q, i, j), (n, col) in ref.pos.items():
                tt = i * hd.dim(q) + j
                assert layout.at[(p, q)][0] == n and layout.column((p, q), tt) == col
                assert layout.locate(n, col) == ((p, q), tt)
            _raises_outside(layout)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_homspace_layouts_give_every_element_the_reference_column(field):
    rng = random.Random(2802)
    for hs in _hom_spaces(field, rng):
        basis, pos = homspace_layout(hs.x, hs.y)
        layout = hs.layout
        assert layout.dims == {n: len(lst) for n, lst in basis.items()}
        for (i, j, u, t), (n, col) in pos.items():
            assert layout.at[(i, j, u)][0] == n and layout.column((i, j, u), t) == col
            assert layout.locate(n, col) == ((i, j, u), t)
        _raises_outside(layout)
        for n, dim in layout.dims.items():
            vec = {col: field.from_int(rng.randrange(1, 4)) for col in range(dim) if rng.random() < 0.6}
            f = hs.from_vector(n, vec)
            assert hs.to_vector(f) == vec
            assert hs.from_vector(n, hs.to_vector(f)) == f
        if layout.dims:
            n = min(layout.dims)
            (i, j, u), _ = layout.locate(n, 0)
            outside = Morphism(hs.x.terms[j].obj, hs.y.terms[i].obj, u, {layout.at[(i, j, u)][2]: field.one()})
            with pytest.raises(IndexError):
                hs.to_vector(TwistedMorphism(hs.x, hs.y, n, {(i, j): outside}))


def test_a_layout_holds_one_entry_per_nonempty_block():
    """No layout, nor a HomSpace, keeps anything per basis element."""
    b3 = beilinson3_category(GF(32003))
    t = tensor(b3, b3)
    elements = blocks = 0
    for (o1, o2), layout in t.layouts.items():
        (a1, b1), (a2, b2) = t.pair_map[o1], t.pair_map[o2]
        nonempty = {(p, q) for p in b3.hom(a1, a2).complex.dims for q in b3.hom(b1, b2).complex.dims}
        assert layout.at.keys() == nonempty
        assert sum(map(len, layout._starts.values())) == len(nonempty)
        elements, blocks = elements + sum(layout.dims.values()), blocks + len(nonempty)
    assert elements > 2 * blocks
    objs = t.objects
    x = embed(t, objs[0])
    f = HomSpace(x, embed(t, objs[-1])).from_vector(0, {0: t.field.one()})
    hs = HomSpace(cone(f), cone(f))
    assert vars(hs).keys() == {"x", "y", "cat", "layout", "complex"}
    assert len(hs.layout.at) == sum(1 for i in hs.y.terms for j in hs.x.terms for _ in t.hom(j.obj, i.obj).complex.dims)
    assert sum(hs.layout.dims.values()) > 2 * len(hs.layout.at)


def test_a_product_outside_the_basis_raises_in_the_hom_differential():
    """A twist whose product with a Hom vector names an index outside the
    target block is an error, not a column of some other block; so is a
    table product whose other factor (P = 9, with P·e = e) lies outside
    the source block."""
    for field in FIELDS:
        cat = product_outside_basis_category(field)
        o = cat.objects[0]
        for index, message in ((2, "product index 9 outside block"), (5, "factor index 9 outside block")):
            g = TwistedMorphism(embed(cat, o), embed(cat, o), 0, {(0, 0): Morphism(o, o, 0, {index: field.one()})})
            with pytest.raises(IndexError, match=message):
                HomSpace(embed(cat, o), cone(g))


def test_an_identity_outside_its_degree_0_basis_raises_in_tensor():
    """An identity of the wrong degree whose coordinate lies outside End^0
    (a category `validate` refuses, but `tensor` is handed as parsed) has no
    column in the product's degree-0 block: either factor raises."""
    for field in FIELDS:
        rel = [[(1, [a, b])] for a in "xy" for b in "xy"]
        good = from_quiver(field, ["w"], [Arrow("x", "w", "w", 1), Arrow("y", "w", "w", 1)], rel)
        w = good.objects[0]
        bad = DGCategory(field, good.objects, good.homs, good.comp, {w: Morphism(w, w, 1, {1: field.one()})})
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(IndexError):
                tensor(*pair)
