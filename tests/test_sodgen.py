import dataclasses
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from dgcat.dgcore import tensor
from dgcat.exactlin import GF, QQ, axpy
from dgcat.fixtures import (
    a2_category,
    beilinson3_category,
    beilinson_sod_claim,
    broken_kronecker_sod_claim,
    epsilon_category,
    kronecker_category,
    kronecker_ev_morphism,
    kronecker_sod_claim,
    point_category,
    tensor_object_order,
)
from dgcat import pretr, sodgen
from dgcat.pretr import (
    HomSpace,
    cone,
    cone_maps,
    direct_sum,
    embed,
    hom_complex,
    identity_morphism,
    is_contractible,
    shift,
    tm_scale,
    zero_morphism,
)
from dgcat.sodgen import (
    ConeStep,
    CutWitness,
    GenerationCertificate,
    Leaf,
    SODClaim,
    Sum,
    Summand,
    check_exceptional_collection,
    check_semiorthogonality,
    check_sod,
    exceptional_sod_claim,
    ext_table,
    leaf_certificate,
    right_orthogonal_check,
    verify_generation,
    zero_certificate,
)

from gens import complex_from_atoms, random_category, random_closed_degree0, random_twisted_complex
from sod_reference import verify_generation as reference_verify_generation, witnessed_claim, witnessed_exceptional_claim


def test_single_leaf_certificate():
    cat = kronecker_category()
    e1 = cat.obj("e1")
    cert = leaf_certificate(cat, [e1], e1)
    res = verify_generation(cat, cert)
    assert res.ok and res.layer_count == 1


def ev_cone_certificate(cat):
    """cone(ev: e1^2 -> e2) from leaves and one cone step."""
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    ev = kronecker_ev_morphism(cat)
    target = cone(ev)
    steps = (
        Leaf(e2, 0),          # 0: C = e2
        Leaf(e1, 1),          # 1
        Leaf(e1, 1),          # 2
        Sum((1, 2)),          # 3: D = e1[1] + e1[1]
        ConeStep(0, 3, ev),   # 4: cone(D[-1] -> C)
    )
    return GenerationCertificate((e1, e2), steps, target, identity_morphism(target)), target


def test_ev_cone_certificate_two_layers():
    cat = kronecker_category()
    cert, target = ev_cone_certificate(cat)
    res = verify_generation(cat, cert)
    assert res.ok, res.failures
    assert res.layer_count == 2


def test_broken_idempotent_witness_fails_with_step_index():
    cat = kronecker_category()
    e1 = cat.obj("e1")
    x = direct_sum(embed(cat, e1), embed(cat, e1))
    # e = projection, but the witness homotopy is wrong (e is already
    # idempotent on the nose, so any nonzero h breaks the equation)
    e = pretr.TwistedMorphism(x, x, 0, {(0, 0): cat.identity(e1)})
    h_bad = pretr.TwistedMorphism(x, x, -1, {})
    good = GenerationCertificate(
        (e1,), (Leaf(e1, 0), Leaf(e1, 0), Sum((0, 1)), Summand(2, e, h_bad)), embed(cat, e1), None
    )
    # good witness, final check: (X, e) is the first summand ~ e1
    fin = pretr.TwistedMorphism(x, embed(cat, e1), 0, {(0, 0): cat.identity(e1)})
    cert = GenerationCertificate((e1,), good.steps, embed(cat, e1), fin)
    res = verify_generation(cat, cert)
    assert res.ok, res.failures
    assert res.layer_count == 2  # one summand usage on top of the sum

    bad_e = pretr.tm_scale(QQ.from_int(2), e)
    steps_bad = (Leaf(e1, 0), Leaf(e1, 0), Sum((0, 1)), Summand(2, bad_e, h_bad))
    res_bad = verify_generation(cat, GenerationCertificate((e1,), steps_bad, embed(cat, e1), fin))
    assert not res_bad.ok
    assert res_bad.failures[0][0] == 3


def idempotent_certificate(cat):
    """The first summand of e1 ⊕ e1, identified with e1, as in
    test_broken_idempotent_witness_fails_with_step_index."""
    e1 = cat.obj("e1")
    x = direct_sum(embed(cat, e1), embed(cat, e1))
    e = pretr.TwistedMorphism(x, x, 0, {(0, 0): cat.identity(e1)})
    steps = (Leaf(e1, 0), Leaf(e1, 0), Sum((0, 1)), Summand(2, e, pretr.TwistedMorphism(x, x, -1, {})))
    return GenerationCertificate((e1,), steps, embed(cat, e1), pretr.TwistedMorphism(x, embed(cat, e1), 0, {(0, 0): cat.identity(e1)}))


def _with_steps(cert, *steps):
    return dataclasses.replace(cert, steps=cert.steps + steps)


def _replace_step(cert, i, new):
    return dataclasses.replace(cert, steps=cert.steps[:i] + (new,) + cert.steps[i + 1 :])


def _leaf_objects(cat, cert):
    return [(i, shift(embed(cat, s.gen), s.shift)) for i, s in enumerate(cert.steps) if isinstance(s, Leaf)]


def _mut_dangling(rng, cat, cert):
    """One reference out of range: forward, to itself, or negative."""
    at = [i for i, s in enumerate(cert.steps) if isinstance(s, (ConeStep, Summand)) or isinstance(s, Sum) and s.refs]
    if not at:
        return _with_steps(cert, Sum((len(cert.steps) + rng.randrange(0, 3),)))
    i = rng.choice(at)
    step, bad = cert.steps[i], rng.choice([i, i + rng.randrange(1, 4), -rng.randrange(1, 3)])
    if isinstance(step, Sum):
        refs = list(step.refs)
        refs[rng.randrange(len(refs))] = bad
        new = Sum(tuple(refs))
    elif isinstance(step, ConeStep):
        new = dataclasses.replace(step, **{rng.choice(["c_ref", "d_ref"]): bad})
    else:
        new = dataclasses.replace(step, ref=bad)
    return _replace_step(cert, i, new)


def _mut_summand_ref(rng, cat, cert):
    """A later step refers to a Summand output: a Sum, either end of a
    ConeStep, or a nested Summand."""
    s = next((i for i, st in enumerate(cert.steps) if isinstance(st, Summand)), None)
    leaves = _leaf_objects(cat, cert)
    if not leaves:
        return None
    r, x = rng.choice(leaves)
    if s is None:
        cert, s = _with_steps(cert, Summand(r, identity_morphism(x), zero_morphism(x, x, -1))), len(cert.steps)
    f = identity_morphism(x)
    return _with_steps(cert, rng.choice([Sum((s,)), Sum((r, s)), ConeStep(s, r, f), ConeStep(r, s, f), Summand(s, f, zero_morphism(x, x, -1))]))


def _cone_index(cert):
    return next((i for i, st in enumerate(cert.steps) if isinstance(st, ConeStep)), None)


def _mut_cone_degree(rng, cat, cert):
    i = _cone_index(cert)
    if i is None:
        return None
    f = cert.steps[i].morphism
    return _replace_step(cert, i, dataclasses.replace(cert.steps[i], morphism=zero_morphism(f.src, f.dst, rng.choice([-1, 1]))))


def _mut_cone_endpoints(rng, cat, cert):
    i = _cone_index(cert)
    if i is None:
        return None
    step = cert.steps[i]
    f = step.morphism
    return _replace_step(cert, i, rng.choice([ConeStep(step.d_ref, step.c_ref, f), dataclasses.replace(step, morphism=identity_morphism(f.src)), dataclasses.replace(step, morphism=zero_morphism(f.dst, f.src))]))


def _mut_cone_not_closed(rng, cat, cert):
    """Append cone(id_g) for a generator g, then a cone on the structural
    map g[1] -> cone(id_g), which is degree 0 with the right endpoints but
    not closed."""
    if not cert.generators:
        return None
    g = rng.choice(cert.generators)
    idg = identity_morphism(embed(cat, g))
    n = len(cert.steps)
    return _with_steps(cert, Leaf(g, 0), Leaf(g, 1), ConeStep(n, n + 1, idg), Leaf(g, 2), ConeStep(n + 2, n + 3, cone_maps(idg)[0]))


def _mut_scaled_idempotent(rng, cat, cert):
    i = next((i for i, st in enumerate(cert.steps) if isinstance(st, Summand)), None)
    if i is None:
        return None
    step = cert.steps[i]
    return _replace_step(cert, i, dataclasses.replace(step, e=tm_scale(cat.field.from_int(rng.choice([0, 2, 3])), step.e)))


def _mut_final_iso(rng, cat, cert):
    """A missing final_iso (not on a summand target, where the reference
    replay reads final_iso.src of None; see
    test_a_missing_final_iso_is_refused_on_both_target_kinds), or one with
    wrong endpoints, wrong degree, or one that is no homotopy isomorphism
    (zero)."""
    fin = cert.final_iso
    choices = [zero_morphism(fin.src, fin.dst), zero_morphism(fin.src, fin.dst, 1), identity_morphism(fin.dst), identity_morphism(fin.src), zero_morphism(fin.dst, fin.src)]
    if not isinstance(cert.steps[-1], Summand):
        choices.append(None)
    return dataclasses.replace(cert, final_iso=rng.choice(choices))


def _mut_karoubi_target(rng, cat, cert):
    """A summand target with no inverse class: the claimed summand e1 with
    a zero final_iso, or e2, with no degree-0 maps back to the carrier."""
    if not isinstance(cert.steps[-1], Summand):
        return None
    x = cert.steps[-1].e.src
    target = rng.choice([embed(cat, cat.obj("e1")), embed(cat, cat.obj("e2"))])
    return dataclasses.replace(cert, target=target, final_iso=zero_morphism(x, target))


def _mut_unknown_kind(rng, cat, cert):
    i = rng.randrange(len(cert.steps) + 1)
    return dataclasses.replace(cert, steps=cert.steps[:i] + (rng.choice([object(), (0, 1), "leaf"]),) + cert.steps[i:])


MUTATIONS = (
    _mut_dangling,
    _mut_summand_ref,
    _mut_cone_degree,
    _mut_cone_endpoints,
    _mut_cone_not_closed,
    _mut_scaled_idempotent,
    _mut_final_iso,
    _mut_karoubi_target,
    _mut_unknown_kind,
)


def test_verify_generation_equals_the_reference_replay_on_mutated_certificates():
    """verify_generation gives the (ok, layer_count, failures) of the
    reference replay, which threads a failures list, on the Kronecker
    ev-cone and idempotent certificates and the cut-witness certificates of
    Beilinson P^2, over Q and F_32003, each unmutated and under seeded
    mutations; every failure message of the replay is met."""
    rng = random.Random(2909)
    seen = Counter()
    for field in (QQ, GF(32003)):
        k2, b3 = kronecker_category(field), beilinson3_category(field)
        v1, v2, v3 = b3.objects
        base = [(k2, ev_cone_certificate(k2)[0]), (k2, idempotent_certificate(k2))]
        for blocks in ([(v1,), (v2,), (v3,)], [(v1, v2), (v3,)]):
            for w in witnessed_claim(b3, blocks).admissibility.values():
                base += [(b3, w.late_cert), (b3, w.early_cert)]
        for cat, cert in base:
            certs = [cert]
            for mutate in MUTATIONS:
                for _ in range(3):
                    if (m := mutate(rng, cat, cert)) is not None:
                        certs.append(m)
            for c in certs:
                got, want = verify_generation(cat, c), reference_verify_generation(cat, c)
                assert (got.ok, got.layer_count, got.failures) == (want.ok, want.layer_count, want.failures), c
                why = got.failures[0][1] if got.failures else "ok"
                seen["dangling" if why.startswith("dangling step reference") else why] += 1
    messages = {
        "ok",
        "dangling",
        "summand outputs cannot be combined further at desk scale",
        "nested summand steps are not supported",
        "cone morphism must have degree 0",
        "cone morphism endpoints do not match the referenced steps",
        "cone morphism is not closed",
        "idempotent witness fails verification",
        "final_iso is missing",
        "final_iso endpoints do not match (last step object, target)",
        "final_iso is not a closed degree-0 morphism",
        "final_iso is not a homotopy isomorphism",
        "final_iso endpoints do not match (carrier, target)",
        "no candidate inverse classes",
        "no inverse class: target is not the claimed summand",
    }
    unknown = {m for m in seen if m.startswith("unknown step kind")}
    assert unknown and messages <= set(seen), messages - set(seen)


def test_a_cone_step_with_two_bad_references_reports_the_first():
    """The one intended difference from the reference replay: a ConeStep
    whose references both fail is refused at the first, where the
    reference listed one failure per bad reference."""
    cat = kronecker_category()
    e1 = cat.obj("e1")
    x = embed(cat, e1)
    f = identity_morphism(x)
    k = (Leaf(e1, 0), Summand(0, f, zero_morphism(x, x, -1)))
    for steps, first, second in (
        ((Leaf(e1, 0), ConeStep(5, 7, f)), "dangling step reference 5", "dangling step reference 7"),
        (k + (ConeStep(1, 9, f),), "summand outputs cannot be combined further at desk scale", "dangling step reference 9"),
        (k + (ConeStep(-1, 1, f),), "dangling step reference -1", "summand outputs cannot be combined further at desk scale"),
    ):
        cert = GenerationCertificate((e1,), steps, x, f)
        where = len(steps) - 1
        assert reference_verify_generation(cat, cert).failures == [(where, first), (where, second)]
        got = verify_generation(cat, cert)
        assert (got.ok, got.layer_count, got.failures) == (False, 0, [(where, first)])


def test_a_missing_final_iso_is_refused_on_both_target_kinds():
    """final_iso None is refused before the target kind is read, so a
    summand target fails as a plain one does.  The reference replay ends in
    AttributeError on the summand target, so the failure is pinned here."""
    cat = kronecker_category()
    for cert in (ev_cone_certificate(cat)[0], idempotent_certificate(cat)):
        res = verify_generation(cat, dataclasses.replace(cert, final_iso=None))
        assert (res.ok, res.layer_count, res.failures) == (False, 0, [(-1, "final_iso is missing")])
    with pytest.raises(AttributeError):
        reference_verify_generation(cat, dataclasses.replace(idempotent_certificate(cat), final_iso=None))


def test_dangling_reference_reported():
    cat = kronecker_category()
    e1 = cat.obj("e1")
    cert = GenerationCertificate((e1,), (Sum((3,)),), embed(cat, e1), None)
    res = verify_generation(cat, cert)
    assert not res.ok and "dangling" in res.failures[0][1]


def test_right_orthogonal_check_examples():
    cat = kronecker_category()
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    assert not right_orthogonal_check(cat, [e1], embed(cat, e2))
    assert right_orthogonal_check(cat, [e2], embed(cat, e1))
    ev = kronecker_ev_morphism(cat)
    assert right_orthogonal_check(cat, [e1], cone(ev))


def test_semiorthogonality_examples():
    cat = kronecker_category()
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    assert check_semiorthogonality(cat, [(e1,), (e2,)])
    assert not check_semiorthogonality(cat, [(e2,), (e1,)])
    t = tensor(cat, cat)
    blocks = [(o,) for o in tensor_object_order(t)]
    assert check_semiorthogonality(t, blocks)


def test_exceptional_collection_examples():
    cat = kronecker_category()
    assert check_exceptional_collection(cat, [cat.obj("e1"), cat.obj("e2")])
    b3 = beilinson3_category()
    assert check_exceptional_collection(b3, [b3.obj("v1"), b3.obj("v2"), b3.obj("v3")])
    eps = epsilon_category()
    assert not check_exceptional_collection(eps, [eps.objects[0]])


def reference_exceptional_collection(cat, objs):
    """`check_exceptional_collection` as it was when it projected the
    identity onto a basis of H^0 End(e)."""
    for e in objs:
        h = cat.hom(e, e).complex
        for n in h.degrees():
            expected = 1 if n == 0 else 0
            if h.cohomology_dim(n) != expected:
                return False
        if h.cohomology(0).project(cat.identity(e).coords) == {}:
            return False
    return check_semiorthogonality(cat, [(e,) for e in objs])


def _outcome(check, cat, objs):
    try:
        return check(cat, objs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _one_object(h, ident):
    """What `check_exceptional_collection` reads of a category with one
    object: End is the complex h and the identity has coordinates ident."""
    return SimpleNamespace(hom=lambda a, b: SimpleNamespace(complex=h), identity=lambda a: SimpleNamespace(coords=ident))


def test_identity_check_matches_the_cohomology_basis_reference():
    """Deciding the identity's class from d(-1) and d(0) gives the
    reference's answer, or raises where it raises: on seeded End complexes
    with d(-1) != 0, identities that are nonzero classes, boundaries, zero
    or not cycles, and on the epsilon fixture, random categories and tensor
    models."""
    rng = random.Random(1414)
    seen = Counter()
    for trial in range(600):
        field = (QQ, GF(2), GF(3), GF(32003))[trial % 4]
        atoms = [("point", 0)] + [("interval", rng.choice((-2, -1, -1, 0, 0, 1))) for _ in range(rng.randrange(0, 4))]
        if rng.random() < 0.15:
            atoms.append(("point", rng.choice((-1, 0, 1))))
        h = complex_from_atoms(field, rng, atoms)
        d_in, d_out = h.d(-1), h.d(0)
        boundary = d_in.apply({j: field.from_int(rng.randrange(-2, 3)) for j in range(h.dim(-1))})
        kind = rng.choice(("class", "boundary", "zero", "not a cycle"))
        ident = boundary if kind == "boundary" else {}
        if kind == "class" and h.cohomology_dim(0):
            ident = axpy(field, dict(boundary), h.cohomology(0).reps[0], field.from_int(rng.choice((1, 2, -1))))
        elif kind == "not a cycle":
            ident = {j: field.from_int(rng.randrange(-2, 3)) for j in range(h.dim(0))}
        cat = _one_object(h, ident)
        got = _outcome(check_exceptional_collection, cat, ["e"])
        assert got == _outcome(reference_exceptional_collection, cat, ["e"]), (atoms, ident)
        if isinstance(got, str) or not d_out.apply(ident):
            seen[kind if not isinstance(got, str) else "raised", got is True, not d_in.is_zero()] += 1
    assert seen["class", True, True] > 40 and seen["boundary", False, True] > 40 and seen["zero", False, True] > 40
    assert seen["raised", False, True] > 10 and seen["raised", False, False] > 10
    cats = [epsilon_category(f, deg) for f in (QQ, GF(3)) for deg in (-1, 0, 1, 2)]
    cats += [random_category(rng, f) for f in (QQ, GF(101)) for _ in range(20)]
    k2, b3 = kronecker_category(), beilinson3_category()
    cats += [tensor(k2, k2), tensor(k2, b3), tensor(b3, k2), tensor(tensor(k2, k2), k2), tensor(epsilon_category(), k2)]
    for cat in cats:
        for o in cat.objects:
            assert _outcome(check_exceptional_collection, cat, [o]) == _outcome(reference_exceptional_collection, cat, [o])
        assert check_exceptional_collection(cat, list(cat.objects)) == reference_exceptional_collection(cat, list(cat.objects))
    for t in cats[-5:-1]:
        assert check_exceptional_collection(t, tensor_object_order(t))


def test_kronecker_sod_claim_passes():
    cat = kronecker_category()
    claim = kronecker_sod_claim(cat)
    verdict = check_sod(cat, claim)
    assert verdict.ok, [a for a in verdict.audit if not a.ok]


def test_broken_kronecker_sod_claim_fails():
    cat = kronecker_category()
    claim = broken_kronecker_sod_claim(cat)
    verdict = check_sod(cat, claim)
    assert not verdict.ok
    bad = [a.obligation for a in verdict.audit if not a.ok]
    assert "cone_right_orthogonal_to_late" in bad


def test_beilinson_sod_claim_passes():
    cat = beilinson3_category()
    verdict = check_sod(cat, beilinson_sod_claim(cat))
    assert verdict.ok


def test_check_sod_subsumes_semiorthogonality():
    cat = kronecker_category()
    claim = SODClaim(
        (cat.obj("e1"), cat.obj("e2")),
        ((cat.obj("e2"),), (cat.obj("e1"),)),  # wrong order
        {},
    )
    verdict = check_sod(cat, claim)
    assert not verdict.ok
    assert not verdict.audit[0].ok  # semiorthogonality entry first


def test_triangle_euler_identity_for_passing_claim():
    cat = kronecker_category()
    claim = witnessed_exceptional_claim(cat, [cat.obj("e1"), cat.obj("e2")])
    assert check_sod(cat, claim).ok
    for (lbl, c), w in claim.admissibility.items():
        e = embed(cat, cat.obj(lbl))
        cn = cone(w.u)
        x = w.late_cert.target
        for probe in cat.objects:
            t = embed(cat, probe)
            hx = hom_complex(t, x)
            he = hom_complex(t, e)
            hc = hom_complex(t, cn)
            total = 0
            for n in set(hx.degrees()) | set(he.degrees()) | set(hc.degrees()):
                total += (-1) ** n * (hx.cohomology_dim(n) - he.cohomology_dim(n) + hc.cohomology_dim(n))
            assert total == 0


def test_layer_count_additive_under_concatenation():
    cat = kronecker_category()
    e1, e2 = cat.obj("e1"), cat.obj("e2")
    cert1, t1 = ev_cone_certificate(cat)
    # build a cone over the previous target and a fresh leaf: layers add
    x = shift(t1, -1)
    f = zero_morphism(x, embed(cat, e2))
    steps = cert1.steps + (Leaf(e2, 0), ConeStep(len(cert1.steps) + 0, 4, f))
    target = cone(f)
    cert2 = GenerationCertificate((e1, e2), steps, target, identity_morphism(target))
    res = verify_generation(cat, cert2)
    assert res.ok, res.failures
    assert res.layer_count == 1 + 2  # leaf layer + ev-cone layers


def test_ext_table_examples():
    cat = kronecker_category()
    table = ext_table(cat, [cat.obj("e1"), cat.obj("e2")])
    assert table == [[{0: 1}, {0: 2}], [{}, {0: 1}]]
    pt = point_category()
    assert ext_table(pt, list(pt.objects)) == [[{0: 1}]]
    b3 = beilinson3_category()
    t = ext_table(b3, [b3.obj("v1"), b3.obj("v2"), b3.obj("v3")])
    assert t[0][1] == {0: 3} and t[0][2] == {0: 6} and t[1][2] == {0: 3}
    assert t[1][0] == {} and t[2][0] == {} and t[2][1] == {}


def test_kronecker_tensor_a2_distributivity_blocks():
    """Products preserve admissibility: the Kronecker SOD tensored with A_2."""
    k2 = kronecker_category()
    a2 = a2_category()
    t = tensor(k2, a2)
    b1 = (t.obj("(e1,u)"), t.obj("(e1,v)"))
    b2 = (t.obj("(e2,u)"), t.obj("(e2,v)"))
    assert check_semiorthogonality(t, [b1, b2])
    # full cut obligations via the canonical trivial triangles
    claim = witnessed_exceptional_claim(t, tensor_object_order(t))
    verdict = check_sod(t, claim)
    assert verdict.ok
    # and the two-block version with the induced blocks
    two_block = witnessed_claim(t, (b1, b2))
    assert two_block.ambient_generators == tuple(t.objects)
    verdict2 = check_sod(t, two_block)
    assert verdict2.ok, [a for a in verdict2.audit if not a.ok]


def _witnessed_sod_cases():
    """Claims that carry cut witnesses, so check_sod replays them: K2 and
    Beilinson P^2 in order, the broken Kronecker claim, and shuffled orders
    over K2, Beilinson P^2, K2⊗A2, epsilon and seeded random categories."""
    rng = random.Random(2718)
    k2, b3 = kronecker_category(), beilinson3_category()
    cases = [(k2, witnessed_exceptional_claim(k2, k2.objects)), (k2, broken_kronecker_sod_claim(k2)), (b3, witnessed_exceptional_claim(b3, b3.objects))]
    for cat in [k2, b3, tensor(k2, a2_category()), epsilon_category()] + [random_category(rng) for _ in range(4)]:
        order = list(cat.objects)
        rng.shuffle(order)
        cases.append((cat, witnessed_exceptional_claim(cat, order)))
    return cases


def test_check_sod_audit_identical_without_shared_scope():
    """Replaying a claim again, with the Hom-complex memo on its witness
    objects warm, gives the same audit."""
    cases = _witnessed_sod_cases()
    first = [check_sod(cat, claim) for cat, claim in cases]
    assert {v.ok for v in first} == {True, False}
    for (cat, claim), verdict in zip(cases, first):
        assert check_sod(cat, claim) == verdict


def test_every_contractible_verdict_in_check_sod_is_replayed(monkeypatch):
    """Each time check_sod is told "contractible", d(h) = 1 was checked on
    that call's own object."""
    calls = []  # per is_contractible call: [object, verdict, d(h) = 1 checks on it]
    real, real_differential = sodgen.is_contractible, pretr.differential

    def counted(x):
        entry = [x, None, 0]
        calls.append(entry)
        entry[1] = real(x)
        return entry[1]

    def differential(f):
        if calls and calls[-1][1] is None and f.degree == -1 and f.src is calls[-1][0] is f.dst:
            calls[-1][2] += 1
        return real_differential(f)

    monkeypatch.setattr(sodgen, "is_contractible", counted)
    monkeypatch.setattr(pretr, "differential", differential)
    cases = _witnessed_sod_cases()
    oks, counts = [], []
    for cat, claim in cases:
        calls.clear()
        oks.append(check_sod(cat, claim).ok)
        contractible = [checks for _, ok, checks in calls if ok]
        assert contractible == [1] * len(contractible)
        assert all(checks == 0 for _, ok, checks in calls if not ok)
        counts.append((len(contractible), len(calls) - len(contractible)))
    assert oks == [True, False, True, True, False, False, True, True, True, True, True]
    assert counts[2] == (15, 3)  # Beilinson P^2 in order
    assert all(n for n, _ in counts[:6]) and all(m for _, m in counts[:6])


def exhaustive_right_orthogonal_check(cat, gens, x):
    """right_orthogonal_check without the contraction argument: one Hom
    complex per generator, decided degree by degree."""
    for e in gens:
        h = hom_complex(embed(cat, e), x)
        for n in h.degrees():
            if h.cohomology_dim(n):
                return False
    return True


def _scaled_claim(cat, order, c):
    """The witnessed exceptional claim with u = c·id for every late
    generator: its cone is contractible without being cone(id)."""
    claim = witnessed_exceptional_claim(cat, order)
    for key, w in claim.admissibility.items():
        if w.u.src == w.u.dst:
            u = tm_scale(c, w.u)
            early = zero_certificate(cat, w.early_cert.generators, cone(u))
            claim.admissibility[key] = CutWitness(u, w.late_cert, early)
    return claim


def test_check_sod_audit_equals_the_exhaustive_orthogonality_reference(monkeypatch):
    rng = random.Random(4242)
    k2, b3 = kronecker_category(), beilinson3_category()
    k2k2, k2a2 = tensor(k2, k2), tensor(k2, a2_category())
    b1 = (k2a2.obj("(e1,u)"), k2a2.obj("(e1,v)"))
    b2 = (k2a2.obj("(e2,u)"), k2a2.obj("(e2,v)"))
    cases = [
        (k2, witnessed_exceptional_claim(k2, k2.objects)),
        (k2, broken_kronecker_sod_claim(k2)),
        (b3, witnessed_exceptional_claim(b3, b3.objects)),
        (k2k2, witnessed_exceptional_claim(k2k2, tensor_object_order(k2k2))),
        (k2a2, witnessed_claim(k2a2, (b1, b2))),
        (k2, _scaled_claim(k2, list(k2.objects), QQ.from_int(3))),
        (b3, _scaled_claim(b3, list(b3.objects), QQ.from_int(-2))),
    ]
    models = [k2k2, k2a2, tensor(k2, b3), epsilon_category()]
    models += [random_category(rng, field=(QQ, GF(32003))[t % 2]) for t in range(6)]
    for cat in models:
        order = list(cat.objects)
        cases.append((cat, witnessed_exceptional_claim(cat, order)))
        rng.shuffle(order)
        cases.append((cat, witnessed_exceptional_claim(cat, order)))
    fast = [check_sod(cat, claim) for cat, claim in cases]
    monkeypatch.setattr(sodgen, "right_orthogonal_check", exhaustive_right_orthogonal_check)
    for (cat, claim), verdict in zip(cases, fast):
        assert check_sod(cat, claim) == verdict
    assert {v.ok for v in fast} == {True, False}
    ortho = Counter(a.ok for v in fast for a in v.audit if a.obligation == "cone_right_orthogonal_to_late")
    assert ortho[True] and ortho[False]


def test_right_orthogonal_check_equals_the_exhaustive_loop():
    rng = random.Random(9090)
    seen = Counter()
    k2 = kronecker_category()
    samples = [(k2, cone(kronecker_ev_morphism(k2)))]
    for trial in range(14):
        cat = random_category(rng, field=(QQ, GF(32003))[trial % 2])
        x = random_twisted_complex(cat, rng, max_terms=3)
        c = cat.field.from_int(rng.choice([2, 3, -1, 5]))
        y = shift(embed(cat, rng.choice(cat.objects)), rng.randrange(-1, 2))
        samples += [
            (cat, cone(identity_morphism(x))),
            (cat, cone(tm_scale(c, identity_morphism(x)))),
            (cat, cone(zero_morphism(y, x))),
            (cat, cone(random_closed_degree0(HomSpace(y, x), rng))),
        ]
    for cat, x in samples:
        contractible = is_contractible(x)
        for gens in [[], list(cat.objects)] + [[o] for o in cat.objects]:
            got = right_orthogonal_check(cat, gens, x)
            assert got == exhaustive_right_orthogonal_check(cat, gens, x)
            if gens:
                seen[(contractible, got)] += 1
    assert seen[(True, True)] and seen[(False, True)] and seen[(False, False)]


def test_check_sod_counts_on_a_twelve_object_claim(monkeypatch):
    """Timing-free guard on tensor(Kronecker, tensor(Kronecker, Beilinson)):
    each witness checks at most three morphisms closed (u and the two final
    isos), a contracting homotopy is verified at most once per distinct
    complex, and the contraction argument builds fewer Hom complexes than
    the exhaustive orthogonality loop."""
    k2 = kronecker_category()
    t = tensor(k2, tensor(k2, beilinson3_category()))
    claim = witnessed_exceptional_claim(t, tensor_object_order(t))
    assert len(t.objects) == 12 and len(claim.admissibility) == 132
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(pretr.HomSpace, "_build", counted("build", pretr.HomSpace._build))
    is_closed = counted("is_closed", pretr.is_closed)
    monkeypatch.setattr(pretr, "is_closed", is_closed)
    monkeypatch.setattr(sodgen, "is_closed", is_closed)
    monkeypatch.setattr(pretr, "differential", counted("differential", pretr.differential))
    verdict = check_sod(t, claim)
    assert verdict.ok
    fast = dict(counts)
    counts.clear()
    monkeypatch.setattr(sodgen, "right_orthogonal_check", exhaustive_right_orthogonal_check)
    assert check_sod(t, claim) == verdict
    assert fast["build"] < counts["build"]
    assert fast["is_closed"] <= 3 * len(claim.admissibility)
    assert fast["differential"] <= fast["is_closed"] + fast["build"]


def _two_block_claims(cat, rng):
    """Blocks (the first k objects, the rest) of a seeded order, for a
    seeded k: claims on two blocks, with and without the reference
    witnesses."""
    order = list(cat.objects)
    rng.shuffle(order)
    k = rng.randrange(1, len(order))
    blocks = (tuple(order[:k]), tuple(order[k:]))
    return SODClaim(tuple(order), blocks, {}), witnessed_claim(cat, blocks)


def test_partition_claims_without_witnesses_match_the_reference_witnesses():
    """A claim whose blocks partition the generators gets the verdict and
    the semiorthogonality entry of the same claim with every trivial cut
    witness replayed, over Q and F_32003: exceptional orders, seeded
    permuted orders and two-block claims on tensor models and random
    categories."""
    rng = random.Random(1011)
    seen = Counter()
    for field in (QQ, GF(32003)):
        k2, a2, b3 = kronecker_category(field), a2_category(field), beilinson3_category(field)
        models = [k2, b3, tensor(k2, k2), tensor(k2, a2), tensor(k2, b3), tensor(a2, a2)]
        models += [random_category(rng, field=field) for _ in range(6)]
        for cat in models:
            order = list(cat.objects)
            shuffled = rng.sample(order, len(order))
            pairs = [(exceptional_sod_claim(cat, o), witnessed_exceptional_claim(cat, o)) for o in (order, shuffled)]
            if len(order) > 1:
                pairs.append(_two_block_claims(cat, rng))
            for bare, witnessed in pairs:
                assert bare.admissibility == {}
                assert len(witnessed.admissibility) == (len(bare.blocks) - 1) * len(cat.objects)
                got, want = check_sod(cat, bare), check_sod(cat, witnessed)
                assert got.ok == want.ok
                assert got.audit[0] == want.audit[0] and got.audit[0].obligation == "semiorthogonality"
                assert [a.obligation for a in got.audit[1:]] == ["generators_in_blocks"] * (len(bare.blocks) - 1)
                seen[(len(bare.blocks) == 2, got.ok)] += 1
    assert all(seen[(two, ok)] for two in (True, False) for ok in (True, False)), seen


def test_claims_without_witnesses_fail_where_the_lemma_does_not_apply():
    b3 = beilinson3_category()
    v1, v2, v3 = b3.objects
    # a partition that is not semiorthogonal fails with no witness to replay
    verdict = check_sod(b3, exceptional_sod_claim(b3, [v1, v3, v2]))
    assert not verdict.ok and not verdict.audit[0].ok
    assert [a.obligation for a in verdict.audit[1:]] == ["generators_in_blocks"] * 2
    # v3 lies in no block: not a partition, so its witnesses are required
    verdict = check_sod(b3, SODClaim((v1, v2, v3), ((v1,), (v2,)), {}))
    assert verdict.audit[0].ok and not verdict.ok
    assert {(a.obligation, a.where) for a in verdict.audit if not a.ok} == {("cut_witness_present", (lbl, 1)) for lbl in ("v1", "v2", "v3")}
    # one block that misses v3 is checked at the cut after the block, where v3 has no witness
    verdict = check_sod(b3, SODClaim((v1, v2, v3), ((v1, v2),), {}))
    assert verdict.audit[0].ok and not verdict.ok
    assert {(a.obligation, a.where) for a in verdict.audit if not a.ok} == {("cut_witness_present", (lbl, 1)) for lbl in ("v1", "v2", "v3")}
    # a block object that is not ambient is no partition either
    verdict = check_sod(b3, SODClaim((v1, v2), ((v1,), (v2,), (v3,)), {}))
    assert not verdict.ok and "cut_witness_present" in {a.obligation for a in verdict.audit if not a.ok}


def test_a_block_object_outside_the_ambient_generators_fails():
    """Ambient (e1,) with blocks (e1), (e2) of the Kronecker category and
    e1's trivial cut witness: nothing places e2's block in the envelope of
    e1, so the claim fails on that obligation alone."""
    k2 = kronecker_category()
    e1, e2 = k2.objects
    full = witnessed_claim(k2, [(e1,), (e2,)])
    claim = SODClaim((e1,), full.blocks, {("e1", 1): full.admissibility[("e1", 1)]})
    verdict = check_sod(k2, claim)
    assert not verdict.ok
    assert [(a.obligation, a.detail.split(":")[0]) for a in verdict.audit if not a.ok] == [("blocks_in_ambient_generators", "e2")]
    # the entry is only there on failure
    assert "blocks_in_ambient_generators" not in {a.obligation for a in check_sod(k2, full).audit}


def test_a_witnessed_claim_document_round_trips_and_replays():
    """A claim that carries its witnesses, as every claim document did
    before witnesses became optional, parses and replays, and writes back
    to the same bytes; the Kronecker-squared one is byte for byte the
    document that dgcat shipped then."""
    import hashlib

    from dgcat import schema

    k2 = kronecker_category()
    for cat in (tensor(k2, k2), k2, beilinson3_category()):
        claim = witnessed_exceptional_claim(cat, list(cat.objects))
        text = schema.dumps(schema.document("sod-claim", cat.field, schema.sod_claim_to_json(cat, claim)))
        kind, field, (cat2, claim2) = schema.parse_document(text)
        assert kind == "sod-claim" and len(claim2.admissibility) == len(claim.admissibility) > 0
        verdict = check_sod(cat2, claim2)
        assert verdict.ok and verdict == check_sod(cat, claim)
        assert "generators_in_blocks" not in {a.obligation for a in verdict.audit}
        assert schema.dumps(schema.document(kind, field, schema.sod_claim_to_json(cat2, claim2))) == text
        if len(cat.objects) == 4:
            assert hashlib.sha256(text.encode()).hexdigest() == "176ba8a1fd824d6c861e2d2399f553c36d61768f34da896537a701cc36ec02d8"
