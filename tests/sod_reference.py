"""Reference SOD claims that carry every cut witness.

check_sod decides a claim whose blocks partition the ambient generators
from semiorthogonality alone, so dgcat's claim builders leave the cut
witnesses out.  This module keeps the builder that wrote them: for each cut
and each ambient generator E, the trivial triangle E -> E -> 0 when E is
late and 0 -> E -> E when E is early.  Tests replay these witnesses and
compare the verdicts with the witness-free claims.
"""

from dgcat.pretr import TwistedComplex, cone, embed, identity_morphism, zero_morphism
from dgcat.sodgen import CutWitness, GenerationCertificate, SODClaim, Sum, leaf_certificate, zero_certificate


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
