"""Reference ring normal forms for tests: the `normalize` and
`saturated_rows` that `dgcat.ptring.Ledger` had before its one memoized
`_rewrite`, and the `eq` and `group_invariants` it had before its Hermite
lattice basis, kept verbatim, with the Smith-form `in_rowspan` they used and
the `dgcat.exactlin.smith_normal_form` that tracked unimodular transforms
U and V before it returned only the invariant factors.

Normal forms are built as `ClassExpr` sums through a closure with a shared
memo and a cycle guard; saturation multiplies each relation by every
monomial of a frontier deduplicated by list scans and normalizes each
product.  `eq` decides membership with a Smith normal form of all the
saturated rows, and `group_invariants` reads the same form.
`reference(ledger)` views a ledger through these methods, so its inherited
`derive_measure_check` decides with them too.
"""

from dgcat.exactlin import ShapeMismatch
from dgcat.ptring import UNIT, ClassExpr, Ledger


class SNFResult:
    def __init__(self, diag, U, V, rows, cols):
        self.diag = diag
        self.U = U
        self.V = V
        self.rows = rows
        self.cols = cols


def smith_normal_form(m):
    """Smith normal form of an integer matrix (list of lists).

    Returns SNFResult with d_1 | d_2 | ... and unimodular U, V such that
    U @ m @ V is the diagonal matrix of the d_i.
    """
    a = [list(map(int, row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, k, q):  # row_i -= q * row_k
        ai, ak = a[i], a[k]
        for j in range(cols):
            ai[j] -= q * ak[j]
        ui, uk = U[i], U[k]
        for j in range(rows):
            ui[j] -= q * uk[j]

    def col_op(j, k, q):  # col_j -= q * col_k
        for i in range(rows):
            a[i][j] -= q * a[i][k]
        for i in range(cols):
            V[i][j] -= q * V[i][k]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        for i in range(rows):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(cols):
            V[i][j], V[i][k] = V[i][k], V[i][j]

    t = 0
    while t < rows and t < cols:
        pi, pj, best = -1, -1, 0
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best == 0 or v < best or (v == best and (i, j) < (pi, pj))):
                    pi, pj, best = i, j, v
        if best == 0:
            break
        row_swap(t, pi)
        col_swap(t, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                # force divisibility of the remaining block by the pivot
                for i in range(t + 1, rows):
                    bad = next((j for j in range(t + 1, cols) if a[i][j] % a[t][t]), None)
                    if bad is not None:
                        row_op(t, i, -1)
                        dirty = True
                        break
        if a[t][t] < 0:
            row_op(t, t, 2)  # negate the row: row_t -= 2*row_t
        t += 1
    diag = [a[i][i] for i in range(min(rows, cols))]
    while diag and diag[-1] == 0:
        diag.pop()
    return SNFResult(diag, U, V, rows, cols)


def snf_in_rowspan(rows, vec):
    """Exact membership of an integer vector in the Z-span of integer rows."""
    if not rows:
        return all(v == 0 for v in vec)
    snf = smith_normal_form(rows)
    cols = snf.cols
    if len(vec) != cols:
        raise ShapeMismatch("vector length mismatch")
    # v in rowspan(R) iff w = v @ V has w_i divisible by d_i and 0 beyond
    w = [sum(vec[i] * snf.V[i][j] for i in range(cols)) for j in range(cols)]
    for j in range(cols):
        d = snf.diag[j] if j < len(snf.diag) else 0
        if d == 0:
            if w[j] != 0:
                return False
        elif w[j] % d != 0:
            return False
    return True


class ReferenceLedger(Ledger):
    def _fact_value(self, a, b):
        if self.generators[a].unit_alias:
            return self.expr_gen(b)
        if self.generators[b].unit_alias:
            return self.expr_gen(a)
        f = self.facts.get(tuple(sorted((a, b))))
        return f.value if f else None

    def normalize(self, expr, memo=None):
        self._check_registered(expr)
        expr = self._resolve_aliases(expr)
        if memo is None:
            memo = {}

        def norm_mono(m):
            if m in memo:
                return memo[m]
            if len(m) > self.degree_bound:
                memo[m] = (ClassExpr({m: 1}), False)
                return memo[m]
            if len(m) <= 1:
                memo[m] = (ClassExpr({m: 1}), True)
                return memo[m]
            memo[m] = (ClassExpr({m: 1}), False)  # cycle guard
            for i in range(len(m)):
                for j in range(i + 1, len(m)):
                    val = self._fact_value(m[i], m[j])
                    if val is None:
                        continue
                    rest = tuple(x for t, x in enumerate(m) if t not in (i, j))
                    total = ClassExpr()
                    ok = True
                    for mono2, c2 in val.mul(ClassExpr({rest: 1})).terms.items():
                        sub, sub_ok = norm_mono(mono2)
                        ok = ok and sub_ok
                        total = total.add(sub.scale(c2))
                    if ok:
                        memo[m] = (total, True)
                        return memo[m]
            return memo[m]

        out = ClassExpr()
        complete = True
        for m, c in expr.terms.items():
            nf, ok = norm_mono(m)
            complete = complete and ok
            out = out.add(nf.scale(c))
        return out, complete

    def saturated_rows(self):
        if self.degree_bound in self._sat_cache:
            return self._sat_cache[self.degree_bound]
        coords = self._coordinates()
        gens = [m[0] for m in coords[1:]]
        monomials = [UNIT]
        frontier = [UNIT]
        for _ in range(self.degree_bound - 1):
            nxt = []
            for m in frontier:
                for g in gens:
                    mono = tuple(sorted(m + (g,)))
                    if mono not in nxt and mono not in monomials:
                        nxt.append(mono)
            monomials.extend(nxt)
            frontier = nxt
        rows = []
        memo = {}
        for rel in self.relations:
            for m in monomials:
                prod = rel.expr.mul(ClassExpr({m: 1}))
                if prod.degree() > self.degree_bound:
                    continue
                nf, complete = self.normalize(prod, memo)
                if not complete:
                    continue
                vec = self._vector(nf, coords)
                if any(vec):
                    rows.append(vec)
        self._sat_cache[self.degree_bound] = (coords, rows)
        return coords, rows

    def eq(self, lhs, rhs):
        diff = lhs.sub(rhs)
        self._check_registered(diff)
        nf, complete = self.normalize(diff)
        if nf.is_zero():
            return "equal"
        if not complete or nf.degree() > 1:
            return "unknown"
        coords, rows = self.saturated_rows()
        if snf_in_rowspan(rows, self._vector(nf, coords)):
            return "equal"
        return "unequal_within_bound"

    def group_invariants(self):
        coords, rows = self.saturated_rows()
        if not rows:
            return len(coords), []
        snf = smith_normal_form(rows)
        rank = len(coords) - len(snf.diag)
        torsion = [d for d in snf.diag if d not in (0, 1)]
        return rank, torsion


def reference(led):
    """The same ledger version, deciding through the reference methods."""
    ref = ReferenceLedger(led.degree_bound, led.flavor)
    ref.generators, ref.relations, ref.facts, ref.version = led.generators, led.relations, led.facts, led.version
    return ref
