"""Reference SOD claims that carry every cut witness, and the reference
replay of generation certificates, and the graded-cohomology checks as they
were written with one degree loop each.

check_sod decides a claim whose blocks partition the ambient generators
from semiorthogonality alone, so dgcat's claim builders leave the cut
witnesses out.  This module keeps the builder that wrote them: for each cut
and each ambient generator E, the trivial triangle E -> E -> 0 when E is
late and 0 -> E -> E when E is early.  Tests replay these witnesses and
compare the verdicts with the witness-free claims.

verify_generation and _karoubi_final_check below are the replay as it was
written before each obligation raised pretr.Refusal: every step kind
appends to a failures list and breaks, and a ConeStep lists each of its
bad references.  Tests compare sodgen.verify_generation with it.

right_orthogonal_check, check_semiorthogonality,
check_exceptional_collection and ext_table below are sodgen's as they were
before every graded-dimension decision read ChainComplex.cohomology_dims:
each scans the degrees of its Hom complexes and calls cohomology_dim on
each.  Tests compare sodgen's with them.
"""

from dgcat.exactlin import Matrix
from dgcat.pretr import (
    HomSpace,
    KaroubiObject,
    TwistedComplex,
    _cone,
    compose,
    cone,
    direct_sum,
    embed,
    hom_complex,
    identity_morphism,
    is_closed,
    is_contractible,
    shift,
    zero_morphism,
)
from dgcat.sodgen import ConeStep, CutWitness, GenerationCertificate, GenResult, Leaf, SODClaim, Sum, Summand, leaf_certificate, zero_certificate


def witnessed_claim(cat, blocks):
    """The SOD claim on blocks (ambient generators: their objects in order)
    with a trivial cut witness for every generator at every cut."""
    blocks = tuple(tuple(b) for b in blocks)
    ambient = tuple(g for b in blocks for g in b)
    admissibility = {}
    for c in range(1, len(blocks)):
        early = [g for b in blocks[:c] for g in b]
        late = [g for b in blocks[c:] for g in b]
        for gen in ambient:
            if gen in late:
                u = identity_morphism(embed(cat, gen))
                late_cert = leaf_certificate(cat, late, gen)
                early_cert = zero_certificate(cat, early, cone(u))
            else:
                empty = TwistedComplex(cat, [], {}, check=False)
                u = zero_morphism(empty, embed(cat, gen))
                late_cert = GenerationCertificate(tuple(late), (Sum(()),), empty, identity_morphism(empty))
                early_cert = GenerationCertificate(tuple(early), leaf_certificate(cat, early, gen).steps, cone(u), identity_morphism(cone(u)))
            admissibility[(gen.label, c)] = CutWitness(u, late_cert, early_cert)
    return SODClaim(ambient, blocks, admissibility)


def witnessed_exceptional_claim(cat, order):
    """exceptional_sod_claim with every trivial cut witness."""
    return witnessed_claim(cat, [(e,) for e in order])


def verify_generation(cat, cert):
    """Replay a build script; returns (ok, layer count, failures).

    The layer count witnesses target ∈ <generators>_s: cone-nesting depth
    plus the number of summand steps used.
    """
    failures = []
    objects = []
    layers = []
    genset = set(cert.generators)
    for idx, step in enumerate(cert.steps):
        if isinstance(step, Leaf):
            if step.gen not in genset:
                failures.append((idx, f"leaf generator {step.gen.label} not among declared generators"))
                break
            if step.gen not in cat.objects:
                failures.append((idx, f"unknown object {step.gen.label}"))
                break
            objects.append(shift(embed(cat, step.gen), step.shift))
            layers.append(1)
        elif isinstance(step, Sum):
            parts = []
            bad = False
            for r in step.refs:
                if not (0 <= r < idx):
                    failures.append((idx, f"dangling step reference {r}"))
                    bad = True
                    break
                if isinstance(objects[r], KaroubiObject):
                    failures.append((idx, "summand outputs cannot be combined further at desk scale"))
                    bad = True
                    break
                parts.append(objects[r])
            if bad:
                break
            acc = TwistedComplex(cat, [], {}, check=False)
            for p in parts:
                acc = direct_sum(acc, p)
            objects.append(acc)
            layers.append(max((layers[r] for r in step.refs), default=1))
        elif isinstance(step, ConeStep):
            ok = True
            for r in (step.c_ref, step.d_ref):
                if not (0 <= r < idx):
                    failures.append((idx, f"dangling step reference {r}"))
                    ok = False
                elif isinstance(objects[r], KaroubiObject):
                    failures.append((idx, "summand outputs cannot be combined further at desk scale"))
                    ok = False
            if not ok:
                break
            f = step.morphism
            if f.degree != 0:
                failures.append((idx, "cone morphism must have degree 0"))
                break
            if f.src != shift(objects[step.d_ref], -1) or f.dst != objects[step.c_ref]:
                failures.append((idx, "cone morphism endpoints do not match the referenced steps"))
                break
            if not is_closed(f):
                failures.append((idx, "cone morphism is not closed"))
                break
            objects.append(_cone(f))
            layers.append(layers[step.c_ref] + layers[step.d_ref])
        elif isinstance(step, Summand):
            if not (0 <= step.ref < idx):
                failures.append((idx, f"dangling step reference {step.ref}"))
                break
            carrier = objects[step.ref]
            if isinstance(carrier, KaroubiObject):
                failures.append((idx, "nested summand steps are not supported"))
                break
            k = KaroubiObject(carrier, step.e, step.h)
            if not k.verify():
                failures.append((idx, "idempotent witness fails verification"))
                break
            objects.append(k)
            layers.append(layers[step.ref] + 1)
        else:
            failures.append((idx, f"unknown step kind {type(step).__name__}"))
            break
    if failures:
        return GenResult(False, 0, failures)
    if not objects:
        return GenResult(False, 0, [(-1, "empty certificate")])
    last = objects[-1]
    fin = cert.final_iso
    if isinstance(last, KaroubiObject):
        ok, why = _karoubi_final_check(cat, last, fin, cert.target)
        if not ok:
            return GenResult(False, 0, [(len(cert.steps) - 1, why)])
    else:
        if fin is None:
            return GenResult(False, 0, [(-1, "final_iso is missing")])
        if fin.src != last or fin.dst != cert.target:
            return GenResult(False, 0, [(-1, "final_iso endpoints do not match (last step object, target)")])
        if fin.degree != 0 or not is_closed(fin):
            return GenResult(False, 0, [(-1, "final_iso is not a closed degree-0 morphism")])
        if not is_contractible(_cone(fin)):
            return GenResult(False, 0, [(-1, "final_iso is not a homotopy isomorphism")])
    return GenResult(True, layers[-1], [])


def _karoubi_final_check(cat, k, u, target):
    """(X, e) ≅ target: find v with [compose(u, v)] = [e], [compose(v, u)] = [1]."""
    if u.src != k.carrier or u.dst != target:
        return False, "final_iso endpoints do not match (carrier, target)"
    if u.degree != 0 or not is_closed(u):
        return False, "final_iso is not a closed degree-0 morphism"
    hs_tx = HomSpace(target, k.carrier)
    hs_xx = HomSpace(k.carrier, k.carrier)
    hs_tt = HomSpace(target, target)
    vs = hs_tx.cohomology_classes(0)
    if not vs:
        return False, "no candidate inverse classes"
    n_xx = hs_xx.cohomology(0).dim

    def stacked(xx, tt):
        """Class coordinates of xx in H^0 End(X) over those of tt in H^0 End(target)."""
        col = hs_xx.project(xx)
        col.update((n_xx + r, val) for r, val in hs_tt.project(tt).items())
        return col

    m = Matrix.from_columns(cat.field, n_xx + hs_tt.cohomology(0).dim, [stacked(compose(u, v), compose(v, u)) for v in vs])
    sol = m.solve(stacked(k.e, identity_morphism(target)))
    if sol is None:
        return False, "no inverse class: target is not the claimed summand"
    return True, ""


def right_orthogonal_check(cat, gens, x):
    """True iff H^n Hom(embed(e), x) = 0 for all e in gens and all n.

    A contractible x is right-orthogonal to every object (Bondal-Kapranov):
    once d(h) = 1_x is verified, every cycle f: E -> x of degree n equals
    (-1)^n d(f·h), so every H^n Hom(E, x) is 0.  Otherwise each Hom complex
    is decided exhaustively.
    """
    if gens and is_contractible(x):
        return True
    for e in gens:
        h = hom_complex(embed(cat, e), x)
        for n in h.degrees():
            if h.cohomology_dim(n):
                return False
    return True


def check_semiorthogonality(cat, blocks):
    """H^n Hom(b_j, b_i) = 0 for all generators with j > i, exhaustively."""
    for j in range(len(blocks)):
        for i in range(j):
            for late in blocks[j]:
                for early in blocks[i]:
                    h = cat.hom(late, early).complex
                    for n in h.degrees():
                        if h.cohomology_dim(n):
                            return False
    return True


def check_exceptional_collection(cat, objs):
    """Each End is k concentrated in degree 0 (spanned by the identity) and
    the singleton blocks are semiorthogonal.

    Once dim H^0 End(e) = 1, the identity spans H^0 exactly when its class is
    nonzero, that is when it is a cycle outside the image of d(-1); no
    cohomology basis is built, and without a d(-1) nothing is eliminated.
    An identity that is not a cycle raises ValueError.
    """
    for e in objs:
        h = cat.hom(e, e).complex
        for n in h.degrees():
            expected = 1 if n == 0 else 0
            if h.cohomology_dim(n) != expected:
                return False
        ident = cat.identity(e).coords
        d_in, d_out = h.diff.get(-1), h.diff.get(0)
        if d_in is not None:
            boundary = d_in.solve(ident) is not None
        else:
            boundary = not any(ident.values())
        if not h.dim(0) or boundary:
            return False
        if d_out is not None and d_out.apply(ident):
            raise ValueError("vector is not a cycle modulo boundaries of this complex")
    return check_semiorthogonality(cat, [(e,) for e in objs])


def ext_table(cat, objs):
    """Matrix of graded dimension vectors dim H^n Hom(e_i, e_j)."""
    table = []
    for a in objs:
        row = []
        for b in objs:
            h = cat.hom(a, b).complex
            row.append({n: k for n in h.degrees() if (k := h.cohomology_dim(n))})
        table.append(row)
    return table
