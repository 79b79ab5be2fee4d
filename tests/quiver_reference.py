"""Reference quiver construction for tests: the path-enumeration `from_quiver`
that `dgcat.dgcore.from_quiver` replaced, kept verbatim.

It lists every free path of each length and reduces all of them at once
against the relation consequences, with `basis_extension` over
[ideal | I_n] (the helper exactlin had then, kept here with it).  Slow (P^4 over Q takes about a second, P^5 exceeds its path
bound) but direct, so tests compare the length-by-length construction
against it on bases, names, structure constants and scalar types.
"""

from dgcat.dgcore import Arrow, DGCategory, Hom, InfiniteDimensionalHom, Morphism, ObjId
from dgcat.exactlin import ChainComplex, Matrix, axpy


def basis_extension(base, candidates):
    """Extend span(base) by candidate columns, with normal forms of the rest.

    One elimination of [base | candidates].  `picked` lists the candidate
    columns that are pivot columns, in increasing order: exactly the ones a
    greedy pass "append the candidate when the rank grows" would take.  For
    every other candidate k, `normal[k]` is a sparse dict {t: c} with
    candidates[k] - sum_t c * candidates[picked[t]] in the column span of
    base; it is read off the kernel vector with a 1 at column k.
    """
    f = base.field
    off = base.cols
    ent = dict(base.entries)
    ent.update(((i, off + j), v) for (i, j), v in candidates.entries.items())
    free = {}
    for coords in Matrix(f, base.rows, off + candidates.cols, ent).nullspace():
        free[max(coords)] = coords
    picked = [k for k in range(candidates.cols) if off + k not in free]
    position = {k: t for t, k in enumerate(picked)}
    normal = {}
    for j, coords in free.items():
        if j >= off:
            normal[j - off] = {position[i - off]: f.neg(v) for i, v in coords.items() if off <= i < j}
    return picked, normal


def from_quiver(field, vertices, arrows, relations=(), max_path_length=32, max_paths=4096):
    """DG category presented by a graded quiver with k-linear relations.

    vertices: list of labels.  arrows: list of Arrow or (name, src, dst[,deg])
    tuples.  relations: each a list of (coeff, [arrow names]) terms; all terms
    of one relation must be parallel paths of equal length and equal degree.
    The differential is zero.  Raises InfiniteDimensionalHom when path spaces
    fail to die out within the configured bounds.

    Basis rule: for each source u, target v and length L, list the paths in
    sorted order and let `ideal` hold the relation consequences as columns
    over them.  The basis paths are those whose unit vectors are pivot
    columns of [ideal | I_n], and every path is reduced to them by the same
    elimination (`basis_extension` above).  The bytes of every document
    built from a quiver, the shipped fixtures included, depend on this rule.
    """
    arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
    arrow_by_name = {a.name: a for a in arrows}
    if len(arrow_by_name) != len(arrows):
        raise ValueError("duplicate arrow names")
    for a in arrows:
        if a.src not in vertices or a.dst not in vertices:
            raise ValueError(f"arrow {a.name} endpoints not in vertex list")

    rels = []
    for rel in relations:
        terms = []
        sig = None
        for coeff, path in rel:
            path = tuple(path)
            if not path:
                raise ValueError("relations must involve paths of length >= 1")
            arrs = [arrow_by_name[n] for n in path]
            for x, y in zip(arrs, arrs[1:]):
                if x.dst != y.src:
                    raise ValueError(f"relation path {path} is not composable")
            key = (arrs[0].src, arrs[-1].dst, len(path), sum(a.degree for a in arrs))
            if sig is None:
                sig = key
            elif sig != key:
                raise ValueError("relation terms must be parallel, length- and degree-homogeneous")
            c = coeff if not isinstance(coeff, int) else field.from_int(coeff)
            terms.append((c, path))
        rels.append((sig, terms))

    # paths_by_len[L][(u,v)] = ordered list of arrow-name tuples
    paths_by_len = [{}]
    for v in vertices:
        paths_by_len[0].setdefault((v, v), []).append(())
    out_arrows = {}
    for a in arrows:
        out_arrows.setdefault(a.src, []).append(a)

    # chosen[(u,v)] = list of (L, path); per-component ideal data kept per length
    chosen = {}
    components = {}  # (u, v, L) -> (ordered paths, picked indices, normal forms)
    total_paths = len(vertices)

    def component_paths(L):
        comp = {}
        for (u, v), plist in paths_by_len[L].items():
            comp[(u, v)] = sorted(plist)
        return comp

    def ideal_vectors(u, v, L, paths):
        index = {p: t for t, p in enumerate(paths)}
        vecs = []
        for (rs, rd, rl, _deg), terms in rels:
            if rl > L:
                continue
            for lq in range(L - rl + 1):
                lp = L - rl - lq
                for q in paths_by_len[lq].get((u, rs), ()):
                    for pp in paths_by_len[lp].get((rd, v), ()):
                        vec = {}
                        for c, mid in terms:
                            axpy(field, vec, {index[q + mid + pp]: c})
                        if vec:
                            vecs.append(vec)
        return vecs

    L = 0
    while True:
        comp = component_paths(L)
        quotient_total = 0
        for (u, v), paths in sorted(comp.items()):
            vecs = ideal_vectors(u, v, L, paths)
            n = len(paths)
            ideal = Matrix(field, n, len(vecs), {(i, j): c for j, vec in enumerate(vecs) for i, c in vec.items()})
            picked, normal = basis_extension(ideal, Matrix.identity(field, n))
            quotient_total += len(picked)
            if picked or L == 0:
                chosen.setdefault((u, v), []).extend((L, paths[t]) for t in picked)
            components[(u, v, L)] = (paths, picked, normal)
        if L > 0 and quotient_total == 0:
            break
        nxt = {}
        cnt = 0
        for (u, v), plist in paths_by_len[L].items():
            for p in plist:
                for a in out_arrows.get(v, ()):
                    nxt.setdefault((u, a.dst), []).append(p + (a.name,))
                    cnt += 1
        total_paths += cnt
        if total_paths > max_paths:
            raise InfiniteDimensionalHom(f"path count exceeded {max_paths}")
        paths_by_len.append(nxt)
        L += 1
        if L > max_path_length:
            raise InfiniteDimensionalHom(f"path length exceeded {max_path_length}")
    max_len = L

    def path_degree(p):
        return sum(arrow_by_name[n].degree for n in p)

    def path_name(p):
        return "*".join(p) if p else None

    objs = tuple(ObjId(v, i) for i, v in enumerate(vertices))
    by_label = {o.label: o for o in objs}
    homs = {}
    basis_index = {}  # (u, v) -> {path: (degree, idx)}
    for (u, v), items in sorted(chosen.items()):
        paths = [p for _, p in sorted(items)]
        by_deg = {}
        for p in paths:
            by_deg.setdefault(path_degree(p), []).append(p)
        dims = {n: len(ps) for n, ps in by_deg.items()}
        names = {n: tuple(path_name(p) or f"e_{u}" for p in ps) for n, ps in by_deg.items()}
        homs[(by_label[u], by_label[v])] = Hom(ChainComplex(field, dims), names)
        basis_index[(u, v)] = {p: (n, i) for n, ps in by_deg.items() for i, p in enumerate(ps)}

    # reduced[(u, v)][path] = coordinates of the path's class in the chosen basis
    reduced = {}
    for (u, v, _), (paths, picked, normal) in components.items():
        index = basis_index.get((u, v), {})
        basis = [index[paths[t]] for t in picked]
        red = reduced.setdefault((u, v), {})
        for t, n_i in zip(picked, basis):
            red[paths[t]] = {n_i: field.one()}
        for k, coords in normal.items():
            red[paths[k]] = {basis[t]: c for t, c in coords.items()}

    comp = {}
    for (u, v), idx_uv in basis_index.items():
        for (v2, w), idx_vw in basis_index.items():
            if v2 != v:
                continue
            table = {}
            for p, (np_, ip) in idx_uv.items():
                for q, (nq, iq) in idx_vw.items():
                    if len(p) + len(q) > max_len:
                        continue
                    red = reduced.get((u, w), {}).get(p + q)
                    if red is None:
                        raise RuntimeError("path reduction failed")
                    entry = {}
                    for (nr, ir), c in red.items():
                        if nr != np_ + nq:
                            raise RuntimeError("degree bookkeeping error in quiver composition")
                        entry[ir] = c
                    if entry:
                        table[(np_, ip, nq, iq)] = entry
            if table:
                comp[(by_label[u], by_label[v], by_label[w])] = table

    ids = {}
    for o in objs:
        n_i = basis_index[(o.label, o.label)][()]
        ids[o] = Morphism(o, o, n_i[0], {n_i[1]: field.one()})
    return DGCategory(field, objs, homs, comp, ids, name="quiver")
