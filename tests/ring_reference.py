"""Reference ring normal forms for tests: the `normalize` and
`saturated_rows` that `dgcat.ptring.Ledger` had before its one memoized
`_rewrite`, kept verbatim.

Normal forms are built as `ClassExpr` sums through a closure with a shared
memo and a cycle guard; saturation multiplies each relation by every
monomial of a frontier deduplicated by list scans and normalizes each
product.  `reference(ledger)` views a ledger through these methods, so its
inherited `eq`, `group_invariants` and `derive_measure_check` decide with
them too.
"""

from dgcat.ptring import UNIT, ClassExpr, Ledger


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


def reference(led):
    """The same ledger version, deciding through the reference methods."""
    ref = ReferenceLedger(led.degree_bound, led.flavor)
    ref.generators, ref.relations, ref.facts, ref.version = led.generators, led.relations, led.facts, led.version
    return ref
