"""Every graded-dimension decision of sodgen and functors reads
`ChainComplex.cohomology_dims`.  Each is held to its degree-loop form in
sod_reference.py and serre_reference.py, output for output: ext tables,
booleans, `Verdict` failure lists, SOD audits and pairing matrices."""

import random
from collections import Counter

import pytest

from dgcat import sodgen
from dgcat.dgcore import tensor
from dgcat.exactlin import GF, QQ, Matrix
from dgcat.fixtures import (
    a2_category,
    a2_serre_data,
    beilinson3_category,
    epsilon_category,
    kronecker_category,
    kronecker_ev_morphism,
    point_category,
    tensor_object_order,
)
from dgcat.functors import (
    DGFunctor,
    EquivCertificate,
    base_to_tm,
    check_quasi_equiv,
    composition_trace_pairings,
    functor_as_serre_data,
    hull_subcategory,
    identity_functor,
    serre_data,
    verify_serre,
)
from dgcat.pretr import HomSpace, cone, direct_sum, embed, identity_morphism, shift
from dgcat.ptring import point_equivalence_certificate
from dgcat.sodgen import check_exceptional_collection, check_semiorthogonality, check_sod, ext_table, right_orthogonal_check

import serre_reference as sref
import sod_reference as ref
from gens import random_category, random_closed_degree0, random_twisted_complex
from test_functors import _scaled

FIELDS = (QQ, GF(32003))


def _cone_hull(k2):
    """The Kronecker hull subcategory on cone(1_{e1}) and e2: the Homs
    c -> c and c -> e2 have chains in several degrees and no cohomology."""
    e1, e2 = k2.obj("e1"), k2.obj("e2")
    return hull_subcategory(k2, [("c", cone(identity_morphism(embed(k2, e1)))), ("e2", embed(k2, e2))])


def _categories(field, rng):
    k2, b3, a2 = kronecker_category(field), beilinson3_category(field), a2_category(field)
    cats = [point_category(field), a2, k2, b3, epsilon_category(field, 0), epsilon_category(field, 1)]
    cats += [tensor(k2, k2), tensor(k2, b3), tensor(k2, a2), _cone_hull(k2)]
    cats.append(hull_subcategory(k2, [("ev", cone(kronecker_ev_morphism(k2))), ("e1", embed(k2, k2.obj("e1"))), ("e1[1]", shift(embed(k2, k2.obj("e1")), 1))]))
    return cats + [random_category(rng, field) for _ in range(8)]


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _ordered(table):
    return [[list(cell.items()) for cell in row] for row in table]


def _sod_checks(cats, rng, seen):
    """ext_table, check_semiorthogonality and check_exceptional_collection
    on each category in its own order, reversed (a non-semiorthogonal
    order wherever some Hom runs forward) and shuffled, and
    right_orthogonal_check on seeded twisted complexes and cones."""
    for cat in cats:
        order = tensor_object_order(cat) if "(x)" in cat.name else list(cat.objects)
        shuffled = rng.sample(order, len(order))
        assert _ordered(ext_table(cat, order)) == _ordered(ref.ext_table(cat, order)), cat.name
        for objs in (order, order[::-1], shuffled):
            got = check_semiorthogonality(cat, [(o,) for o in objs])
            assert got == ref.check_semiorthogonality(cat, [(o,) for o in objs]), cat.name
            seen["semiorthogonal", got] += 1
            got = _outcome(check_exceptional_collection, cat, objs)
            assert got == _outcome(ref.check_exceptional_collection, cat, objs), cat.name
            seen["exceptional", got] += 1
        for o in cat.objects:
            assert _outcome(check_exceptional_collection, cat, [o]) == _outcome(ref.check_exceptional_collection, cat, [o])
        x = random_twisted_complex(cat, rng, max_terms=3)
        y = shift(embed(cat, rng.choice(cat.objects)), rng.randrange(-1, 2))
        for z in (x, cone(identity_morphism(x)), cone(random_closed_degree0(HomSpace(y, x), rng))):
            for gens in [[], list(cat.objects)] + [[o] for o in cat.objects]:
                got = right_orthogonal_check(cat, gens, z)
                assert got == ref.right_orthogonal_check(cat, gens, z), cat.name
                seen["right orthogonal", got] += 1


def _equiv(fun, witnessed):
    """An EquivCertificate on fun with identity witnesses on the objects
    of witnessed."""
    dst = fun.dst
    return EquivCertificate(fun, {o: (embed(dst, o), identity_morphism(embed(dst, o))) for o in witnessed})


def _hostile_functors(field):
    """Kronecker collapsed onto the point (Hom(e1, e2) drops from 2 to 1)
    and the functor on A_2 that kills the arrow (dimensions kept, rank
    lost)."""
    one = Matrix.identity(field, 1)
    k2, pt, a2 = kronecker_category(field), point_category(field), a2_category(field)
    e1, e2 = k2.objects
    p = pt.objects[0]
    collapse = DGFunctor(k2, pt, {e1: p, e2: p}, {(e1, e1): {0: one}, (e2, e2): {0: one}, (e1, e2): {0: Matrix.zero(field, 1, 2)}})
    u, v = a2.objects
    kill = DGFunctor(a2, a2, {u: u, v: v}, {(u, u): {0: one}, (v, v): {0: one}, (u, v): {0: Matrix.zero(field, 1, 1)}})
    return [_equiv(collapse, pt.objects), _equiv(kill, a2.objects)]


def _qe_checks(cats, seen):
    field = cats[0].field
    k2, pt = kronecker_category(field), point_category(field)
    certs = _hostile_functors(field) + [point_equivalence_certificate(k2, o, pt) for o in k2.objects]
    for cat in cats:
        certs.append(_equiv(identity_functor(cat), cat.objects))
        emb = functor_as_serre_data(identity_functor(cat)).embedding
        certs.append(_equiv(emb, emb.obj_map.values()))
    for cert in certs:
        got = check_quasi_equiv(cert)
        assert got == sref.check_quasi_equiv(cert), cert.functor.src.name
        seen.update(("quasi-equiv", kind) for kind, _ in got.failures)
        seen["quasi-equiv", got.ok] += 1


def _serre_cases(cats, rng):
    """(data, traces or None, extra pairings) over the A_2 Nakayama bundle
    (with each pairing scaled and each functor entry perturbed), identity
    functors (a wrong S object off the Frobenius ones), the point with
    S(pt) = pt[1] or pt ⊕ pt (wrong S objects, the second with both
    dimensions nonzero), and the Frobenius epsilon bundle
    with the socle and the identity trace."""
    field = cats[0].field
    one = field.one()
    a2, pairings = a2_serre_data(field)
    cat = a2.functor.src
    u, v = cat.objects
    traces = {u: {0: one}, v: {0: one}}
    yield a2, traces, [_scaled(pairings, key) for key in pairings]
    images = {u: embed(cat, v), v: cone(base_to_tm(cat, cat.basis_morphism(u, v, 0, 0)))}
    mors = a2.functor.mor_maps
    for key, per in mors.items():
        for n, m in per.items():
            r, c = rng.randrange(m.rows), rng.randrange(m.cols)
            bad = {k: dict(p) for k, p in mors.items()}
            bad[key][n] = Matrix(field, m.rows, m.cols, {**m.entries, (r, c): field.add(m.get(r, c), one)})
            yield serre_data(cat, images, bad), traces, [pairings]
    pt = point_category(field)
    o = pt.objects[0]
    yield serre_data(pt, {o: shift(embed(pt, o), 1)}, {(o, o): {0: Matrix.identity(field, 1)}}), None, [{}]
    twice = direct_sum(embed(pt, o), embed(pt, o))
    unit = Matrix.from_columns(field, 4, [HomSpace(twice, twice).to_vector(identity_morphism(twice))])
    yield serre_data(pt, {o: twice}, {(o, o): {0: unit}}), {o: {0: one}}, [{(o, o, 0): Matrix.identity(field, 1)}]
    eps = epsilon_category(field, 0)
    e = eps.objects[0]
    names = list(eps.hom(e, e).names[0])
    for name in ("e", "e_*"):
        yield functor_as_serre_data(identity_functor(eps)), {e: {names.index(name): one}}, []
    for c in cats:
        fl = c.field
        draws = {a: {i: fl.from_int(rng.randrange(-3, 4)) for i in range(c.hom(a, a).complex.cohomology_dims().get(0, 0))} for a in c.objects}
        yield functor_as_serre_data(identity_functor(c)), {a: {i: x for i, x in tr.items() if not fl.is_zero(x)} for a, tr in draws.items()}, [{}]


def _serre_checks(cats, rng, seen):
    for data, traces, extra in _serre_cases(cats, rng):
        runs = list(extra)
        if traces is not None:
            got = composition_trace_pairings(data, traces)
            want = sref.hull_composition_trace_pairings(data, traces)
            assert list(got.items()) == list(want.items()), data.functor.name
            runs.append(got)
        for pairings in runs:
            got = verify_serre(data, pairings)
            assert got == sref.hull_verify_serre(data, pairings), data.functor.name
            seen.update(("serre", kind) for kind, _ in got.failures)
            seen["serre", got.ok] += 1


def _witnessed_claims(field):
    """The witnessed Beilinson P^2 claims in order, in two blocks and in
    the reversed (not semiorthogonal) order, and the witnessed Kronecker
    claims both ways round."""
    b3, k2 = beilinson3_category(field), kronecker_category(field)
    v1, v2, v3 = b3.objects
    e1, e2 = k2.objects
    for blocks in ([(v1,), (v2,), (v3,)], [(v1, v2), (v3,)], [(v3,), (v2,), (v1,)]):
        yield b3, ref.witnessed_claim(b3, blocks)
    for blocks in ([(e1,), (e2,)], [(e2,), (e1,)]):
        yield k2, ref.witnessed_claim(k2, blocks)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_graded_decisions_equal_the_degree_loop_reference(field, monkeypatch):
    """ext_table, check_semiorthogonality, right_orthogonal_check,
    check_exceptional_collection, check_quasi_equiv, verify_serre and
    composition_trace_pairings give the reference's outputs exactly (dict
    order included) on the fixtures (the shipped point-equivalence
    certificates among them), tensor models, hull subcategories and seeded
    categories, hostile inputs among them; check_sod on the
    witnessed Beilinson P^2 claims gives the audit it gives with the
    reference checks."""
    rng = random.Random(3030)
    cats = _categories(field, rng)
    seen = Counter()
    _sod_checks(cats, rng, seen)
    _qe_checks(cats, seen)
    _serre_checks(cats, rng, seen)
    claims = list(_witnessed_claims(field))
    verdicts = [check_sod(cat, claim) for cat, claim in claims]
    monkeypatch.setattr(sodgen, "check_semiorthogonality", ref.check_semiorthogonality)
    monkeypatch.setattr(sodgen, "right_orthogonal_check", ref.right_orthogonal_check)
    assert [check_sod(cat, claim) for cat, claim in claims] == verdicts
    assert [v.ok for v in verdicts] == [True, True, False, True, False]
    for check in ("semiorthogonal", "exceptional", "right orthogonal", "quasi-equiv", "serre"):
        assert seen[check, True] and seen[check, False], check
    kinds = {"hom_iso_dim", "hom_iso_rank", "essential_surjectivity"} | {"dimension_symmetry", "pairing_not_perfect", "naturality_target", "naturality_source"}
    assert kinds <= {kind for _, kind in seen}, kinds - {kind for _, kind in seen}


PERTURBATIONS = 150


def _trace_bundles(field):
    """(data, trace pairings) of the A_2 Nakayama bundle and of the
    identity bundle of the epsilon algebra End(*) = k[e]/e² with deg e = 0
    and trace tr(e) = 1, a Frobenius form."""
    yield a2_serre_data(field)
    eps = epsilon_category(field, 0)
    e = eps.objects[0]
    data = functor_as_serre_data(identity_functor(eps))
    yield data, composition_trace_pairings(data, {e: {list(eps.hom(e, e).names[0]).index("e"): field.one()}})


def _perturbed(pairings, rng):
    """pairings with one seeded entry of one matrix set to a seeded value."""
    key = rng.choice(sorted(pairings))
    m = pairings[key]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    return {**pairings, key: Matrix(m.field, m.rows, m.cols, {**m.entries, (r, c): m.field.from_int(rng.randrange(-3, 4))})}


@pytest.mark.parametrize("field", (QQ, GF(3), GF(32003)), ids=lambda f: f.name)
def test_serre_failure_lists_equal_the_reference_on_perturbed_pairings(field):
    """verify_serre gives the reference's failure list, order and repeats
    included, on the trace pairings of the A_2 and epsilon bundles with one
    seeded entry changed, 150 times each.  The epsilon End is
    2-dimensional, so one naturality identity can fail at several entries:
    both naturality kinds occur, and some failure list repeats an entry."""
    rng = random.Random(3033)
    seen = Counter()
    for data, pairings in _trace_bundles(field):
        assert verify_serre(data, pairings).ok, data.functor.name
        for _ in range(PERTURBATIONS):
            changed = _perturbed(pairings, rng)
            got = verify_serre(data, changed)
            assert got == sref.hull_verify_serre(data, changed), data.functor.name
            seen.update({kind for kind, _ in got.failures})
            seen["repeated entry"] += len(set(got.failures)) < len(got.failures)
    assert seen["naturality_target"] and seen["naturality_source"] and seen["repeated entry"], seen
