"""Generation certificates and semiorthogonal-decomposition verification.

Certificates are replayable build scripts: every claim is re-verified from
scratch (closedness, degrees, Maurer-Cartan, homotopy-isomorphism of the
final identification), never trusted.

Cut orientation for SOD claims: for a cut at position c the right-admissible
side is the envelope of the LATE blocks (> c).  Each ambient generator E
sits in a triangle X_late -> E -> cone(u) with X_late in the late envelope
and cone(u) in the early envelope, right-orthogonal to the late generators.
When the blocks partition the generators, semiorthogonality implies these
triangles and a claim may omit them (see check_sod); a cut witness that a
claim carries is replayed.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from .dgcore import ObjId
from .pretr import (
    KaroubiObject,
    Refusal,
    TwistedComplex,
    TwistedMorphism,
    _cone,
    compose,
    direct_sum,
    embed,
    hom_complex,
    identity_morphism,
    is_closed,
    is_contractible,
    is_ho_iso,  # not called here; dgbench's tracer self-test checks that its rebinding reaches this copy
    shift,
    zero_morphism,
    HomSpace,
)
from .exactlin import Matrix


@dataclass(frozen=True)
class Leaf:
    gen: ObjId
    shift: int = 0


@dataclass(frozen=True)
class Sum:
    refs: tuple


@dataclass
class ConeStep:
    """Triangle C -> S -> D realized as S = cone(f: D[-1] -> C)."""

    c_ref: int
    d_ref: int
    morphism: TwistedMorphism


@dataclass
class Summand:
    ref: int
    e: TwistedMorphism
    h: TwistedMorphism


@dataclass
class GenerationCertificate:
    generators: tuple
    steps: tuple
    target: TwistedComplex
    final_iso: TwistedMorphism


@dataclass
class GenResult:
    ok: bool
    layer_count: int
    failures: list


def verify_generation(cat, cert):
    """Replay a build script; returns (ok, layer count, failures).

    The layer count witnesses target ∈ <generators>_s: cone-nesting depth
    plus the number of summand steps used.  Replay stops at the first failed
    obligation, listed with its step index (-1 for the final checks).
    """
    objects, layers = [], []
    genset = set(cert.generators)

    def ref(idx, r, summand="summand outputs cannot be combined further at desk scale"):
        if not 0 <= r < idx:
            raise Refusal(f"dangling step reference {r}")
        if isinstance(objects[r], KaroubiObject):
            raise Refusal(summand)
        return objects[r]

    try:
        for where, step in enumerate(cert.steps):
            if isinstance(step, Leaf):
                if step.gen not in genset:
                    raise Refusal(f"leaf generator {step.gen.label} not among declared generators")
                if step.gen not in cat.objects:
                    raise Refusal(f"unknown object {step.gen.label}")
                obj, layer = shift(embed(cat, step.gen), step.shift), 1
            elif isinstance(step, Sum):
                obj = TwistedComplex(cat, [], {}, check=False)
                for p in [ref(where, r) for r in step.refs]:
                    obj = direct_sum(obj, p)
                layer = max((layers[r] for r in step.refs), default=1)
            elif isinstance(step, ConeStep):
                c, d, f = ref(where, step.c_ref), ref(where, step.d_ref), step.morphism
                if f.degree != 0:
                    raise Refusal("cone morphism must have degree 0")
                if f.src != shift(d, -1) or f.dst != c:
                    raise Refusal("cone morphism endpoints do not match the referenced steps")
                if not is_closed(f):
                    raise Refusal("cone morphism is not closed")
                obj, layer = _cone(f), layers[step.c_ref] + layers[step.d_ref]
            elif isinstance(step, Summand):
                obj = KaroubiObject(ref(where, step.ref, "nested summand steps are not supported"), step.e, step.h)
                if not obj.verify():
                    raise Refusal("idempotent witness fails verification")
                layer = layers[step.ref] + 1
            else:
                raise Refusal(f"unknown step kind {type(step).__name__}")
            objects.append(obj)
            layers.append(layer)
        where, fin = -1, cert.final_iso
        if not objects:
            raise Refusal("empty certificate")
        if fin is None:
            raise Refusal("final_iso is missing")
        if isinstance(objects[-1], KaroubiObject):
            where = len(cert.steps) - 1  # a summand target fails at its step
            _karoubi_final_check(cat, objects[-1], fin, cert.target)
        else:
            if fin.src != objects[-1] or fin.dst != cert.target:
                raise Refusal("final_iso endpoints do not match (last step object, target)")
            if fin.degree != 0 or not is_closed(fin):
                raise Refusal("final_iso is not a closed degree-0 morphism")
            if not is_contractible(_cone(fin)):
                raise Refusal("final_iso is not a homotopy isomorphism")
    except Refusal as e:
        return GenResult(False, 0, [(where, str(e))])
    return GenResult(True, layers[-1], [])


def _karoubi_final_check(cat, k, u, target):
    """(X, e) ≅ target: some v has [compose(u, v)] = [e] and [compose(v, u)] = [1], or Refusal."""
    if u.src != k.carrier or u.dst != target:
        raise Refusal("final_iso endpoints do not match (carrier, target)")
    if u.degree != 0 or not is_closed(u):
        raise Refusal("final_iso is not a closed degree-0 morphism")
    vs = HomSpace(target, k.carrier).cohomology_classes(0)
    if not vs:
        raise Refusal("no candidate inverse classes")
    hs_xx, hs_tt = HomSpace(k.carrier, k.carrier), HomSpace(target, target)
    n_xx = hs_xx.cohomology(0).dim

    def stacked(xx, tt):
        """Class coordinates of xx in H^0 End(X) over those of tt in H^0 End(target)."""
        col = hs_xx.project(xx)
        col.update((n_xx + r, val) for r, val in hs_tt.project(tt).items())
        return col

    m = Matrix.from_columns(cat.field, n_xx + hs_tt.cohomology(0).dim, [stacked(compose(u, v), compose(v, u)) for v in vs])
    if m.solve(stacked(k.e, identity_morphism(target))) is None:
        raise Refusal("no inverse class: target is not the claimed summand")


def right_orthogonal_check(cat, gens, x):
    """True iff H^n Hom(embed(e), x) = 0 for all e in gens and all n.

    A contractible x is right-orthogonal to every object (Bondal-Kapranov):
    once d(h) = 1_x is verified, every cycle f: E -> x of degree n equals
    (-1)^n d(f·h), so every H^n Hom(E, x) is 0.  Otherwise each Hom complex
    is decided exhaustively.
    """
    with contextlib.suppress(Refusal):  # a term of x has no identity, so there is no 1_x
        if gens and is_contractible(x):
            return True
    return not any(hom_complex(embed(cat, e), x).cohomology_dims() for e in gens)


def check_semiorthogonality(cat, blocks):
    """H^n Hom(b_j, b_i) = 0 for all generators with j > i, exhaustively."""
    for j in range(len(blocks)):
        for i in range(j):
            for late in blocks[j]:
                for early in blocks[i]:
                    if cat.hom(late, early).complex.cohomology_dims():
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
        if h.cohomology_dims() != {0: 1}:
            return False
        ident = cat.identity(e).coords
        d_in, d_out = h.diff.get(-1), h.diff.get(0)
        if d_in is not None:
            boundary = d_in.solve(ident) is not None
        else:
            boundary = not any(ident.values())
        if boundary:
            return False
        if d_out is not None and d_out.apply(ident):
            raise ValueError("vector is not a cycle modulo boundaries of this complex")
    return check_semiorthogonality(cat, [(e,) for e in objs])


@dataclass
class CutWitness:
    u: TwistedMorphism
    late_cert: GenerationCertificate
    early_cert: GenerationCertificate


@dataclass
class SODClaim:
    ambient_generators: tuple
    blocks: tuple  # tuple of tuples of ObjId
    admissibility: dict  # (generator label, cut index 1..n-1) -> CutWitness


@dataclass
class AuditEntry:
    obligation: str
    where: tuple
    ok: bool
    detail: str = ""


@dataclass
class SODVerdict:
    ok: bool
    audit: list


def _check_cut_witness(cat, claim, c, gen, early, late):
    where = (gen.label, c)
    audit = []
    w = claim.admissibility.get((gen.label, c))
    if w is None:
        return [AuditEntry("cut_witness_present", where, False, "missing witness")]
    ok_gens = set(w.late_cert.generators) <= set(late)
    audit.append(AuditEntry("late_cert_generators", where, ok_gens))
    res_late = verify_generation(cat, w.late_cert)
    audit.append(AuditEntry("late_cert_replay", where, res_late.ok, str(res_late.failures)))
    u = w.u
    ok_u = u.degree == 0 and is_closed(u) and u.dst == embed(cat, gen)
    ok_src = not isinstance(w.late_cert.target, KaroubiObject) and u.src == w.late_cert.target
    audit.append(AuditEntry("u_closed_degree0_endpoints", where, ok_u and ok_src))
    if not (res_late.ok and ok_u and ok_src):
        return audit
    cn = _cone(u)
    ok_gens2 = set(w.early_cert.generators) <= set(early)
    audit.append(AuditEntry("early_cert_generators", where, ok_gens2))
    ok_target = w.early_cert.target == cn
    audit.append(AuditEntry("early_cert_target_is_cone", where, ok_target))
    if ok_target:
        res_early = verify_generation(cat, w.early_cert)
        audit.append(AuditEntry("early_cert_replay", where, res_early.ok, str(res_early.failures)))
    ortho = right_orthogonal_check(cat, late, cn)
    audit.append(AuditEntry("cone_right_orthogonal_to_late", where, ortho))
    return audit


def check_sod(cat, claim):
    """Verify an SOD claim cut by cut; the audit trail lists every obligation.

    The claim: the envelope T of the ambient generators (shifts, cones and
    the summands certificates allow) is <A_1, ..., A_n>, A_i the envelope of
    block i.  At a cut, L and E are the envelopes of the late and early blocks.

    Lemma.  In a DG category with semiorthogonal blocks (H^* Hom(b, b') = 0
    for b in a later block than b'), if each ambient generator X sits in a
    triangle L_X -> X -> E_X with L_X in L and E_X in E, so does every X in
    T, and E_X is right-orthogonal to L.  Proof: the Y with H^* Hom(b, Y) = 0
    for all late b form a triangulated subcategory closed under summands and
    hold the early blocks, so E; likewise H^* Hom(L, E) = 0.  Hence each f: X -> X' of
    objects with triangles extends to a unique morphism of triangles, and
    the 3x3 lemma gives cone(L_X -> L_X') -> cone(f) -> cone(E_X -> E_X'),
    so every twisted complex over the generators has a triangle.  For an
    idempotent on such an X, the induced idempotents on L_X and E_X have
    images (one summand step each) forming a summand of a distinguished
    triangle, hence distinguished, that decomposes the summand of X.
    (Bondal 1989, Lemma 3.1; Bondal-Kapranov 1989.)

    If the blocks partition the ambient generators (each in exactly one
    block, every block generator an ambient object), the triangles are
    E -> E -> 0 for a late E and 0 -> E -> E for an early E, true once the
    blocks are semiorthogonal (the first audit entry).  Such a claim may
    omit them: one generators_in_blocks entry per cut stands for those
    omitted.  A witness that is present is replayed; a claim that is not a
    partition needs every witness (cut_witness_present), a one-block claim
    at the cut after its block, where a witness certifies E over the block.
    Whoever reads the category from a document checks its axioms (the CLI
    does).

    The lemma settles orthogonal_envelope_completeness inside T: an X in T
    right-orthogonal to L has L_X -> X = 0, so X is a summand of E_X, in E.
    T is all that certificates build when the ambient generators are all
    objects; otherwise the audit ends with the note.

    Nothing shows that a block object outside the ambient generators lies
    in T, so a claim naming one fails (blocks_in_ambient_generators, an
    entry present only then).

    Every contractibility verdict of a replayed witness checks its null
    homotopy; each morphism is checked closed once, before its cone is
    built (see right_orthogonal_check).
    """
    audit = [AuditEntry("semiorthogonality", (), check_semiorthogonality(cat, claim.blocks))]
    in_blocks = [g for b in claim.blocks for g in b]
    outside = [g.label for g in dict.fromkeys(in_blocks) if g not in claim.ambient_generators]
    if outside:
        audit.append(AuditEntry("blocks_in_ambient_generators", (), False, f"{', '.join(outside)}: not an ambient generator, so nothing places its block in the envelope"))
    partition = sorted(in_blocks) == sorted(set(claim.ambient_generators)) and set(in_blocks) <= set(cat.objects)
    for c in range(1, len(claim.blocks) if partition else max(len(claim.blocks), 2)):
        early = [g for b in claim.blocks[:c] for g in b]
        late = [g for b in claim.blocks[c:] for g in b]
        implied = []
        for gen in claim.ambient_generators:
            if partition and (gen.label, c) not in claim.admissibility:
                implied.append(gen.label)
            else:
                audit.extend(_check_cut_witness(cat, claim, c, gen, early, late))
        if implied:
            audit.append(AuditEntry("generators_in_blocks", (c,), True, f"{', '.join(implied)}: each lies in one block, so semiorthogonality gives its triangle"))
    if set(claim.ambient_generators) != set(cat.objects):
        note = "note: beyond the envelope of the ambient generators, equality of the right orthogonal with the early envelope is not verified"
        audit.append(AuditEntry("orthogonal_envelope_completeness", (), True, note))
    return SODVerdict(all(a.ok for a in audit), audit)


def ext_table(cat, objs):
    """Matrix of graded dimension vectors dim H^n Hom(e_i, e_j)."""
    return [[cat.hom(a, b).complex.cohomology_dims() for b in objs] for a in objs]


# -- canonical claim builders ---------------------------------------------------


def leaf_certificate(cat, gens, gen, shift_by=0):
    obj = shift(embed(cat, gen), shift_by)
    return GenerationCertificate(tuple(gens), (Leaf(gen, shift_by),), obj, identity_morphism(obj))


def zero_certificate(cat, gens, target):
    """Certify a contractible target from the empty sum."""
    empty = TwistedComplex(cat, [], {}, check=False)
    return GenerationCertificate(tuple(gens), (Sum(()),), target, zero_morphism(empty, target))


def exceptional_sod_claim(cat, order):
    """The canonical SOD claim for an exceptional collection: one block per
    object, in order.  The blocks partition the generators, so the claim
    carries no cut witnesses (see check_sod)."""
    return SODClaim(tuple(order), tuple((e,) for e in order), {})
