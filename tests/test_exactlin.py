import random
from fractions import Fraction
from math import gcd

import pytest

from dgcat.exactlin import (
    GF,
    QQ,
    ChainComplex,
    Cohomology,
    FieldMismatch,
    Matrix,
    ShapeMismatch,
    axpy,
    field_from_spec,
    in_lattice,
    in_rowspan,
    lattice_basis,
    smith_normal_form,
)

from gens import random_complex, skew_beilinson_quiver
from quiver_reference import basis_extension
from ring_reference import smith_normal_form as reference_snf, snf_in_rowspan


def hstack(*blocks):
    """[b1 | b2 | ...] for matrices with the same number of rows."""
    ent, off = {}, 0
    for b in blocks:
        ent.update(((i, off + j), v) for (i, j), v in b.entries.items())
        off += b.cols
    return Matrix(blocks[0].field, blocks[0].rows, off, ent)


def column_list(m):
    """The columns of m as sparse dicts, empty ones included."""
    cols = m.columns()
    return [cols.get(j, {}) for j in range(m.cols)]


def dense_rank_oracle(rows):
    """Independent dense Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_rank_examples():
    assert Matrix.identity(QQ, 2).rank() == 2
    assert Matrix.zero(QQ, 3, 4).rank() == 0
    assert Matrix.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1


def test_rank_matches_oracle_random():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        rows = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(c)] for _ in range(r)]
        m = Matrix.from_rows(QQ, rows)
        assert m.rank() == dense_rank_oracle(rows)
        assert len(m.nullspace()) == c - m.rank()


def test_rank_fp():
    p = GF(101)
    m = Matrix.from_rows(p, [[1, 2], [2, 4]])
    assert m.rank() == 1
    assert Matrix.identity(p, 3).rank() == 3


def test_rank_over_fp_never_exceeds_rank_over_q():
    """An integer matrix has rank over F_32003 at most its rank over Q (a
    minor that vanishes over Z vanishes mod p).  Seeded low-rank products
    plus p-multiples make the F_p rank drop below the Q rank in many cases."""
    p = 32003
    rng = random.Random(32003)
    drops = 0
    for _ in range(80):
        r, c = rng.randrange(1, 13), rng.randrange(1, 13)
        k = rng.randrange(0, min(r, c) + 1)
        b = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(r)]
        d = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(k)]
        a = [[sum(b[i][t] * d[t][j] for t in range(k)) + p * rng.choice((0, 0, 1, -2)) for j in range(c)] for i in range(r)]
        rank_q, rank_p = Matrix.from_rows(QQ, a).rank(), Matrix.from_rows(GF(p), a).rank()
        assert rank_p <= rank_q == dense_rank_oracle(a)
        drops += rank_p < rank_q
    assert drops > 10


def test_field_mixing_rejected():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(GF(5), 2)
    with pytest.raises(FieldMismatch):
        a.add(b)


def test_solve_examples():
    b = {0: Fraction(3), 1: Fraction(1)}
    assert Matrix.identity(QQ, 2).solve(b) == b
    assert Matrix.zero(QQ, 2, 2).solve(b) is None
    a = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    assert a.solve(b) == {0: 2, 1: 1}
    # zero scalars of b are dropped; a row out of range is a shape error
    assert a.solve({0: Fraction(0), 1: Fraction(1)}) == {0: -1, 1: 1}
    assert Matrix.identity(GF(5), 2).solve({0: 0, 1: 3}) == {1: 3}
    with pytest.raises(ShapeMismatch):
        a.solve({2: Fraction(1)})
    with pytest.raises(ShapeMismatch):
        a.solve({-1: Fraction(0)})


def test_solve_consistency_random():
    rng = random.Random(11)
    for _ in range(60):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        a = Matrix.from_rows(QQ, [[rng.randrange(-2, 3) for _ in range(c)] for _ in range(r)])
        b = {i: Fraction(v) for i in range(r) if (v := rng.randrange(-2, 3))}
        x = a.solve(b)
        if x is None:
            assert Matrix.from_columns(QQ, r, column_list(a) + [b]).rank() > a.rank()
        else:
            assert a.apply(x) == b


def test_nullspace_exact():
    a = Matrix.from_rows(QQ, [[1, 0, -1], [0, 1, 2]])
    (v,) = a.nullspace()
    assert v == {2: 1, 0: 1, 1: -2}
    assert a.apply(v) == {}
    rng = random.Random(3)
    for _ in range(40):
        r, c = rng.randrange(1, 5), rng.randrange(1, 6)
        a = Matrix.from_rows(QQ, [[rng.randrange(-2, 3) for _ in range(c)] for _ in range(r)])
        basis = a.nullspace()
        assert len(basis) == a.cols - a.rank()
        for v in basis:
            assert a.apply(v) == {}


def greedy_picked(base, cands):
    """Reference: the greedy "append the candidate when the rank grows" loop
    over sparse column dicts, which one elimination replaced in from_quiver
    (`quiver_reference.basis_extension`) and Cohomology."""
    f = base.field
    picked = []
    cur = column_list(base)
    rank = base.rank()
    for k, col in enumerate(cands):
        r = Matrix.from_columns(f, base.rows, cur + [col]).rank()
        if r > rank:
            picked.append(k)
            cur, rank = cur + [col], r
    return picked


def check_basis_extension(base, cands):
    f = base.field
    picked, normal = basis_extension(base, cands)
    cols = column_list(cands)
    assert picked == greedy_picked(base, cols)
    assert sorted(normal) == [k for k in range(cands.cols) if k not in picked]
    base_rank = base.rank()
    for k, coords in normal.items():
        residual = dict(cols[k])
        for t, c in coords.items():
            assert not f.is_zero(c)
            axpy(f, residual, cols[picked[t]], f.neg(c))
        assert Matrix.from_columns(f, base.rows, column_list(base) + [residual]).rank() == base_rank


def check_cohomology_reps(c, n):
    """Cohomology(c, n).reps are the cycles of the nullspace basis of d(n)
    that the greedy loop keeps modulo the image of d(n-1)."""
    cycles = c.d(n).nullspace()
    reps = c.cohomology(n).reps
    assert reps == [cycles[k] for k in greedy_picked(c.d(n - 1), cycles)]
    assert len(reps) == c.cohomology_dim(n)


def random_sparse(field, rng, rows, cols, density):
    vals = (1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3))
    ent = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = Fraction(rng.choice(vals))
                ent[(i, j)] = field.div(field.from_int(v.numerator), field.from_int(v.denominator))
    return Matrix(field, rows, cols, ent)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "Fp"])
def test_basis_extension_matches_greedy_loop(field):
    rng = random.Random(2026)
    for _ in range(80):
        n = rng.randrange(0, 7)
        base = random_sparse(field, rng, n, rng.randrange(0, 6), rng.choice((0.15, 0.3, 0.6)))
        cands = random_sparse(field, rng, n, rng.randrange(0, 8), rng.choice((0.15, 0.3, 0.6)))
        if n and base.cols and rng.random() < 0.5:
            # mix in candidates that already lie in span(base)
            combo = random_sparse(field, rng, base.cols, 2, 0.5)
            cands = hstack(cands, base.matmul(combo))
        check_basis_extension(base, cands)
        # the same picks through Cohomology: d(n-1) = base, d(n) = 0, so the
        # cycles are the unit vectors; then a complex with nonzero d(n)
        check_cohomology_reps(ChainComplex(field, {0: base.cols, 1: n}, {0: base}), 1)
        c = random_complex(field, rng, max_atoms=6)
        for deg in c.degrees():
            check_cohomology_reps(c, deg)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "Fp"])
def test_basis_extension_edge_cases(field):
    one, two = field.one(), field.from_int(2)

    def e(n, *idx):  # unit columns e_i of length n
        return Matrix(field, n, len(idx), {(i, j): one for j, i in enumerate(idx)})

    empty = Matrix.zero(field, 3, 0)
    # empty base: the candidates' own pivot columns
    assert basis_extension(empty, Matrix.identity(field, 3)) == ([0, 1, 2], {})
    # zero candidates
    assert basis_extension(e(3, 0, 1), empty) == ([], {})
    # a zero column is never picked and reduces to nothing
    assert basis_extension(empty, hstack(e(3, 0), Matrix.zero(field, 3, 1), e(3, 1))) == ([0, 2], {1: {}})
    # a duplicate candidate reduces to its first copy; twice a column to 2x it
    dup = Matrix(field, 3, 3, {(0, 0): one, (1, 0): one, (0, 1): one, (1, 1): one, (0, 2): two, (1, 2): two})
    assert basis_extension(empty, dup) == ([0], {1: {0: one}, 2: {0: two}})
    # candidates already in span(base) are not picked and reduce to zero
    assert basis_extension(e(3, 0, 1), hstack(e(3, 1), e(3, 2), e(3, 0))) == ([1], {0: {}, 2: {}})
    # no rows at all
    assert basis_extension(Matrix.zero(field, 0, 2), Matrix.zero(field, 0, 2)) == ([], {0: {}, 1: {}})
    for base, cands in ((empty, dup), (e(3, 0), dup), (e(3, 0, 1, 2), dup)):
        check_basis_extension(base, cands)
    # Cohomology picks: no differential, an exact complex, an image that
    # covers a later unit vector, a kernel with a dependent column
    check_cohomology_reps(ChainComplex(field, {0: 3}), 0)
    check_cohomology_reps(ChainComplex(field, {0: 0, 1: 3}), 1)
    exact = ChainComplex(field, {0: 2, 1: 2}, {0: Matrix.identity(field, 2)})
    for n in (0, 1):
        check_cohomology_reps(exact, n)
        assert exact.cohomology(n).reps == []
    check_cohomology_reps(ChainComplex(field, {0: 1, 1: 3}, {0: e(3, 2)}), 1)
    assert ChainComplex(field, {0: 1, 1: 3}, {0: e(3, 0)}).cohomology(1).reps == [{1: one}, {2: one}]
    check_cohomology_reps(ChainComplex(field, {0: 3, 1: 1}, {0: Matrix(field, 1, 3, {(0, 0): one, (0, 1): two})}), 0)


def random_scalar(field, rng):
    v = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 5)))
    return field.div(field.from_int(v.numerator), field.from_int(v.denominator))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "Fp"])
def test_axpy_matches_dense_reference(field):
    rng = random.Random(3003)
    n = 8
    for _ in range(200):
        acc = {k: random_scalar(field, rng) for k in range(n) if rng.random() < 0.5}
        vec = {k: random_scalar(field, rng) for k in range(n) if rng.random() < 0.5}
        c = rng.choice((None, field.zero(), random_scalar(field, rng)))
        scale = field.one() if c is None else c
        if not field.is_zero(scale):
            for k in sorted(set(acc) & set(vec)):
                if rng.random() < 0.5:  # make acc[k] + c * vec[k] cancel
                    vec[k] = field.neg(field.div(acc[k], scale))
        dense = [acc.get(k, field.zero()) for k in range(n)]
        for k, v in vec.items():
            dense[k] = field.add(dense[k], field.mul(scale, v))
        expected = {k: v for k, v in enumerate(dense) if not field.is_zero(v)}
        before = dict(acc)
        out = axpy(field, acc, vec, c)
        assert out is acc
        assert acc == expected
        if c is not None and field.is_zero(c):
            assert acc == before


def two_step_complex():
    # k --0--> k^2 --[1,0]--> k in degrees -1, 0, 1
    return ChainComplex(
        QQ,
        {-1: 1, 0: 2, 1: 1},
        {0: Matrix.from_rows(QQ, [[1, 0]])},
    )


def test_cohomology_examples():
    c = ChainComplex(QQ, {0: 1, 1: 1}, {0: Matrix.identity(QQ, 1)})
    assert c.cohomology_dim(0) == 0
    assert c.cohomology_dim(1) == 0

    z = ChainComplex(QQ, {0: 3})
    assert z.cohomology_dim(0) == 3

    c = two_step_complex()
    assert [c.cohomology_dim(n) for n in (-1, 0, 1)] == [1, 1, 0]


def test_cohomology_basis():
    z = ChainComplex(QQ, {0: 2})
    h = z.cohomology(0)
    assert h.dim == 2
    assert h.reps == [{0: 1}, {1: 1}]

    c = ChainComplex(QQ, {0: 1, 1: 1}, {0: Matrix.identity(QQ, 1)})
    assert c.cohomology(0).dim == 0
    assert c.cohomology(1).dim == 0

    h = two_step_complex().cohomology(0)
    assert h.dim == 1
    (rep,) = h.reps
    assert two_step_complex().d(0).apply(rep) == {}


def test_cohomology_project_lift_roundtrip():
    c = two_step_complex()
    h = c.cohomology(0)
    cycle = h.lift({0: Fraction(5)})
    assert h.project(cycle) == {0: Fraction(5)}

    # boundary invariance: k --id--> k --0--> 0 in degrees -1, 0
    cb = ChainComplex(QQ, {-1: 1, 0: 2}, {-1: Matrix.from_rows(QQ, [[1], [0]])})
    h0 = cb.cohomology(0)
    assert h0.dim == 1
    cycle = h0.lift({0: Fraction(3)})
    boundary = cb.d(-1).apply({0: Fraction(7)})
    shifted = dict(cycle)
    for k, v in boundary.items():
        shifted[k] = shifted.get(k, Fraction(0)) + v
    assert h0.project(shifted) == h0.project(cycle) == {0: Fraction(3)}
    with pytest.raises(ValueError):
        two_step_complex().cohomology(0).project({0: Fraction(1)})  # not a cycle
    with pytest.raises(ShapeMismatch):
        h0.project({2: Fraction(1)})  # outside C^0
    with pytest.raises(ValueError):
        cb.cohomology(-1).project({0: Fraction(1)})  # not a cycle, and H^-1 = 0


def solve_project(h, cycle):
    """Cohomology.project as one solve of [reps | d(n-1)]·x = z per call:
    the reps' part of x, or ValueError when there is no solution."""
    img = h.complex.d(h.n - 1)
    x = hstack(Matrix.from_columns(img.field, img.rows, h.reps), img).solve(cycle)
    if x is None:
        raise ValueError("not a cycle")
    return {t: v for t, v in x.items() if t < len(h.reps)}


def outcome(project, h, z):
    try:
        return project(h, z)
    except ValueError:
        return "raises"


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "Fp"])
def test_project_by_functionals_matches_the_solve(field):
    """On seeded complexes, `dual` holds functionals y_t with
    y_t·d(n-1) = 0 and y_t·rep_s = 1 if s = t else 0, and `project` gives
    what a solve of [reps | d(n-1)]·x = z per call gives: on a class plus
    a boundary, on a boundary, and on a random vector, which raises on
    both sides when it is not a cycle."""
    rng = random.Random(2424)
    raised = classes = 0
    for _ in range(60):
        c = random_complex(field, rng, max_atoms=6)
        for n in c.degrees():
            h, dim = c.cohomology(n), c.dim(n)
            img = c.d(n - 1)
            if h.reps:
                y = h.dual()
                assert y.matmul(img).is_zero()
                assert y.matmul(Matrix.from_columns(field, dim, h.reps)) == Matrix.identity(field, h.dim)
            for _ in range(4):
                coords = {t: random_scalar(field, rng) for t in range(h.dim) if rng.random() < 0.7}
                z = axpy(field, h.lift(coords), img.apply({j: random_scalar(field, rng) for j in range(img.cols) if rng.random() < 0.5}))
                assert h.project(z) == coords
                assert outcome(Cohomology.project, h, z) == outcome(solve_project, h, z)
                classes += bool(coords)
            z = {i: random_scalar(field, rng) for i in range(dim) if rng.random() < 0.6}
            got = outcome(Cohomology.project, h, z)
            assert got == outcome(solve_project, h, z)
            raised += got == "raises"
    assert classes > 100 and raised > 10, (classes, raised)


def test_serre_on_a2_eliminates_once_per_cohomology_basis(monkeypatch):
    """Timing-free guard: `dgcat serre --fixture a2` projects 6 cycles onto
    6 cohomology bases with 16 eliminations in all: 22 when the dual of a
    basis took a second elimination, 51 when each projection was a solve.
    Each distinct (basis, cycle) pair is projected once; before the Serre
    checks kept their classes, the same 6 pairs took 35 projections."""
    import contextlib
    import io

    from dgcat import exactlin
    from dgcat.cli import main

    counts, pairs = {}, set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def project(self, cycle):
        pairs.add((id(self), frozenset(cycle.items())))
        return original(self, cycle)

    original = exactlin.Cohomology.project
    monkeypatch.setattr(exactlin.Matrix, "_echelon", counted("_echelon", exactlin.Matrix._echelon))
    monkeypatch.setattr(exactlin.Cohomology, "project", counted("project", project))
    monkeypatch.setattr(exactlin.Cohomology, "__init__", counted("cohomology", exactlin.Cohomology.__init__))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["serre", "--fixture", "a2"]) == 0
    assert counts == {"cohomology": 6, "project": 6, "_echelon": 16}
    assert len(pairs) == 6


def _random_entry(field, rng):
    if field is QQ:
        return Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 2, 3)))
    return field.from_int(rng.randrange(-3, 4))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(32003)], ids=lambda f: f.name)
def test_rank_matches_the_untransposed_echelon(field, monkeypatch):
    """Seeded: `Matrix.rank` eliminates the columns of a matrix with more
    rows than columns; its rank is the pivot count of `_echelon` on the
    matrix as given, on tall, wide, square, zero and rank-deficient
    matrices (products through fewer columns than either side).  A tall
    matrix's rank calls no `_echelon`, a wide or square one calls it once."""
    rng = random.Random(3131)
    shapes = {"tall": 0, "wide": 0, "square": 0, "zero": 0, "deficient": 0}
    calls = []
    echelon = Matrix._echelon
    monkeypatch.setattr(Matrix, "_echelon", lambda self, b=None: calls.append(self) or echelon(self, b))
    for trial in range(150):
        kind = list(shapes)[trial % len(shapes)]
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        if kind == "tall":
            rows, cols = max(rows, cols) + rng.randrange(1, 4), min(rows, cols)
        elif kind == "wide":
            rows, cols = min(rows, cols), max(rows, cols) + rng.randrange(1, 4)
        elif kind == "square":
            cols = rows
        if kind == "zero":
            m = Matrix(field, rng.randrange(0, 6), rng.randrange(0, 6))
        elif kind == "deficient":
            inner = rng.randrange(0, min(rows, cols))
            left = Matrix(field, rows, inner, {(i, k): _random_entry(field, rng) for i in range(rows) for k in range(inner)})
            right = Matrix(field, inner, cols, {(k, j): _random_entry(field, rng) for k in range(inner) for j in range(cols)})
            m = left.matmul(right)
        else:
            density = rng.choice((0.3, 0.6, 1.0))
            m = Matrix(field, rows, cols, {(i, j): _random_entry(field, rng) for i in range(rows) for j in range(cols) if rng.random() < density})
        calls.clear()
        r = m.rank()
        assert len(calls) == (0 if m.rows > m.cols else 1)
        assert r == len(echelon(m)) == len(echelon(Matrix(field, m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()})))
        if kind == "deficient":
            assert r <= inner
        shapes[kind] += r > 0 or kind == "zero"
    assert all(shapes.values()), shapes


def test_euler_characteristic_invariance():
    rng = random.Random(23)
    for _ in range(30):
        dims = {0: rng.randrange(1, 4), 1: rng.randrange(1, 4)}
        m = Matrix.from_rows(QQ, [[rng.randrange(-1, 2) for _ in range(dims[0])] for _ in range(dims[1])])
        c = ChainComplex(QQ, dims, {0: m})
        assert c.validate() == []
        chi_dims = c.euler_characteristic()
        chi_h = sum((-1) ** n * c.cohomology_dim(n) for n in (0, 1))
        assert chi_dims == chi_h


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]  # rank 1, then zero diagonal
    assert smith_normal_form([]) == [] and smith_normal_form([[0, 0]]) == []


def int_det(m):
    """Exact determinant of a square integer matrix (Bareiss)."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_mul_int(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def test_snf_transforms_unimodular():
    """The reference Smith form's U and V are unimodular and U m V is the
    diagonal of its invariant factors."""
    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)]
        res = reference_snf(m)
        assert abs(int_det(res.U)) == 1
        assert abs(int_det(res.V)) == 1
        d = mat_mul_int(mat_mul_int(res.U, m), res.V)
        for i in range(r):
            for j in range(c):
                expected = res.diag[i] if i == j and i < len(res.diag) else 0
                assert d[i][j] == expected
        for i in range(len(res.diag) - 1):
            assert res.diag[i + 1] % res.diag[i] == 0


# a raw input on which the reference Smith form did not return in 3 s
REFERENCE_HANGS = [[5736, -578, 233, -510], [-87, -1498, -764, 2214], [-1, -138, -51, -20], [-1086, -1650, -2115, -1582], [1070, -598, 3096, -916]]


def test_invariant_factors_match_the_reference_smith_form():
    """Seeded matrices with small entries agree with the reference Smith
    form's diagonal.  Entries up to 1000 make the reference's entries grow
    until it does not return on many raw inputs, so those are compared with
    the reference run on their Hermite basis, which spans the same lattice."""
    rng = random.Random(2026)
    for _ in range(300):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        assert smith_normal_form(m) == reference_snf(m).diag, m
    nontrivial = 0
    for n in range(600):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-1000, 1000) * (rng.choice((1, 2, 6)) if n % 2 else 1) for _ in range(c)] for _ in range(r)]
        got = smith_normal_form(m)
        assert got == reference_snf([row for _, row in lattice_basis(m)]).diag, m
        assert all(b % a == 0 for a, b in zip(got, got[1:]))
        nontrivial += any(d != 1 for d in got)
    assert nontrivial > 100
    assert smith_normal_form(REFERENCE_HANGS) == reference_snf([row for _, row in lattice_basis(REFERENCE_HANGS)]).diag == [1, 1, 2, 4]


def test_in_rowspan():
    rows = [[2, 0], [0, 3]]
    assert in_rowspan(rows, [2, 3])
    assert in_rowspan(rows, [4, 0])
    assert not in_rowspan(rows, [1, 0])
    assert in_rowspan([], [0, 0])
    assert in_rowspan([], [])
    assert not in_rowspan([], [1, 0])
    assert not in_rowspan([[2, 0]], [1, 0])  # in the Q-span, not the Z-span
    assert not in_rowspan([[1, 1]], [1, 0])  # outside the Q-span
    assert in_rowspan([[4, 6], [6, 9]], [2, 3])  # 2 = gcd(4, 6) from gcd row operations
    for rows, vec in (([[1, 2]], [1]), ([[1, 2]], [1, 2, 0]), ([[1, 2], [3]], [1, 2])):
        with pytest.raises(ShapeMismatch):
            in_rowspan(rows, vec)


def test_lattice_basis_is_the_hermite_normal_form():
    assert lattice_basis([]) == []
    assert lattice_basis([[0, 0], [0, 0]]) == []
    assert lattice_basis([[4, 6], [6, 9]]) == [(0, [2, 3])]
    assert lattice_basis([[-3, 5, 1], [0, 0, 4], [0, 2, 7]]) == [(0, [3, 1, 0]), (1, [0, 2, 3]), (2, [0, 0, 4])]
    rng = random.Random(1414)
    for _ in range(200):
        c = rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(rng.randrange(0, 6))]
        basis = lattice_basis(rows)
        cols = [col for col, _ in basis]
        assert cols == sorted(set(cols))
        for k, (col, row) in enumerate(basis):
            assert row[col] > 0 and not any(row[:col])
            assert all(0 <= r[col] < row[col] for _, r in basis[:k])
        # the same lattice: each side's rows lie in the other's span
        assert all(in_lattice(basis, r) for r in rows)
        assert all(snf_in_rowspan(rows, r) for _, r in basis)
        # a change of generators that keeps the lattice keeps the basis
        shuffled = [list(r) for r in rows]
        rng.shuffle(shuffled)
        if len(shuffled) > 1:
            shuffled[0] = [x + 3 * y for x, y in zip(shuffled[0], shuffled[1])]
        assert lattice_basis(shuffled + [[0] * c]) == basis


def _random_lattice_case(rng):
    """Seeded integer rows and a vector with their kind: zero and duplicate
    rows, negative and large entries, rank-deficient shapes, more columns
    than rows and no rows; the vector in the lattice, in the Q-span but
    outside the Z-span (rows scaled by m), or random."""
    c = rng.randrange(1, 6)
    big = rng.random() < 0.2
    # the reference Smith form's transforms grow fast with large entries
    k = rng.randrange(0, 3 if big else 4)
    base = [[rng.randrange(-10**6, 10**6) if big else rng.randrange(-4, 5) for _ in range(c)] for _ in range(k)]
    rows = [list(r) for r in base]
    for _ in range(rng.randrange(0, 3)):  # rank-deficient: combinations of earlier rows
        if rows and not big:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([rng.randrange(-3, 4) * x + rng.randrange(-3, 4) * y for x, y in zip(a, b)])
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    if rng.random() < 0.2:
        rows.append([0] * c)
    rng.shuffle(rows)
    kind = rng.choice(("lattice", "q-not-z", "random"))
    if kind == "lattice":
        vec = [0] * c
        for r in rows:
            q = rng.randrange(-5, 6)
            vec = [x + q * y for x, y in zip(vec, r)]
    elif kind == "q-not-z":
        m = rng.choice((2, 3, 5))
        vec = [0] * c
        for r in rows:
            q = rng.randrange(-5, 6)
            vec = [x + q * y for x, y in zip(vec, r)]
        if rows:
            vec = [x + y for x, y in zip(vec, rng.choice(rows))]
        rows = [[m * x for x in r] for r in rows]
    else:
        vec = [rng.randrange(-6, 7) for _ in range(c)]
    return rows, vec, kind


def test_in_rowspan_matches_the_smith_form_reference():
    """Hermite-basis membership agrees with the Smith-form test on seeded
    lattices and vectors of every kind."""
    rng = random.Random(2014)
    seen = {}
    for _ in range(1500):
        rows, vec, kind = _random_lattice_case(rng)
        got = in_rowspan(rows, vec)
        assert got == snf_in_rowspan(rows, vec), (rows, vec)
        assert got == in_lattice(lattice_basis(rows), vec)
        if kind == "lattice":
            assert got
        seen[kind, got] = seen.get((kind, got), 0) + 1
    # each kind shows up on the side that makes it a real check
    assert seen["lattice", True] > 300 and seen["q-not-z", False] > 200 and seen["random", False] > 200
    assert seen.get(("q-not-z", True), 0) > 20 and seen.get(("random", True), 0) > 20
    assert not in_rowspan([[2, 0]], [1, 0]) and not snf_in_rowspan([[2, 0]], [1, 0])


def test_field_spec_roundtrip():
    assert field_from_spec("Q") is QQ
    f = field_from_spec("Fp:101")
    assert f.p == 101
    assert f.parse(f.format(55)) == 55
    assert QQ.parse("3/7") == Fraction(3, 7)
    assert QQ.format(Fraction(3, 7)) == "3/7"


def test_spec_named_conveniences():
    from dgcat.exactlin import rank, solve, cohomology_dim, cohomology_basis
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert rank(m) == 1
    assert solve(Matrix.identity(QQ, 2), {0: Fraction(1), 1: Fraction(2)}) == {0: 1, 1: 2}
    c = two_step_complex()
    assert cohomology_dim(c, 0) == 1
    assert cohomology_basis(c, 0).dim == 1


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["Q", "Fp"])
def test_chain_complex_rank_cache_matches_elimination(field):
    """Cached ranks and H^n dimensions match a fresh elimination, and
    cohomology_dims lists {n: dim H^n} over the nonzero degrees in
    increasing n, the empty complex ({}) included."""
    rng = random.Random(77)
    complexes = [ChainComplex(field, {}), ChainComplex(field, {0: 0, 1: 0})]
    complexes += [random_complex(field, rng, max_atoms=5) for _ in range(40)]
    for c in complexes:
        degs = c.degrees() or [0]
        for n in range(degs[0] - 1, degs[-1] + 2):
            dn, dprev = c.d(n), c.d(n - 1)
            assert c.rank(n) == dn.rank()
            assert c.cohomology_dim(n) == dn.cols - dn.rank() - dprev.rank()
            assert c.cohomology_dim(n) == c.cohomology(n).dim
        dims = c.cohomology_dims()
        assert dims == {n: c.cohomology(n).dim for n in degs if c.cohomology(n).dim}
        assert list(dims) == sorted(dims)
    assert complexes[0].cohomology_dims() == complexes[1].cohomology_dims() == {}
    assert any(len(c.cohomology_dims()) > 1 for c in complexes)


# -- reference kernels: the elimination before reduced row-echelon read-off ------
#
# Test-only copies of the earlier `_echelon` (Bareiss over Q, field-method
# `axpy` updates over F_p, pivot "lowest column, then lowest row"), with
# per-free-column back-substitution in `nullspace` and `solve`.  The
# reduced-form kernel must return the same entries, in the same order.


def ref_echelon(m, b=None):
    f = m.field
    ncols = m.cols + (b is not None)
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    for i, v in (b or {}).items():
        rows[i][m.cols] = v
    if f == QQ:
        int_rows = []
        for r in rows:
            lcm = 1
            for v in r.values():
                lcm = lcm * v.denominator // gcd(lcm, v.denominator)
            int_rows.append({j: int(v * lcm) for j, v in r.items()})
        pivots = ref_echelon_int(int_rows, ncols)
        return pivots, [{j: Fraction(v) for j, v in r.items()} for r in int_rows]
    return ref_echelon_mod(rows, ncols, f), rows


def ref_echelon_int(rows, ncols):
    pivots, r, prev, nrows = [], 0, 1, len(rows)
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i].get(c)), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            a = rows[i].get(c, 0)
            new = {}
            if a:
                for j in set(rows[i]) | set(rows[r]):
                    v = rows[i].get(j, 0) * piv - rows[r].get(j, 0) * a
                    if v:
                        new[j] = v // prev
                new.pop(c, None)
            else:
                for j, v in rows[i].items():
                    new[j] = v * piv // prev
            rows[i] = new
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def ref_echelon_mod(rows, ncols, f):
    pivots, r, nrows = [], 0, len(rows)
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i].get(c)), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            a = rows[i].get(c)
            if a:
                axpy(f, rows[i], rows[r], f.neg(f.div(a, piv)))
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


def ref_solve(m, b):
    f = m.field
    pivots, rows = ref_echelon(m, b)
    if any(c >= m.cols for _, c in pivots):
        return None
    x = {}
    for r, c in reversed(pivots):
        row = rows[r]
        s = row.get(m.cols, f.zero())
        for j, v in row.items():
            if c < j < m.cols and j in x:
                s = f.sub(s, f.mul(v, x[j]))
        x[c] = f.div(s, row[c])
    return {j: v for j, v in x.items() if not f.is_zero(v)}


def ref_nullspace(m):
    f = m.field
    pivots, rows = ref_echelon(m)
    pivot_cols = [c for _, c in pivots]
    basis = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        vec = {free: f.one()}
        for r, c in reversed([p for p in pivots if p[1] < free]):
            s = f.zero()
            for j, v in rows[r].items():
                if j > c and j in vec:
                    s = f.add(s, f.mul(v, vec[j]))
            if not f.is_zero(s):
                vec[c] = f.neg(f.div(s, rows[r][c]))
        basis.append({j: v for j, v in vec.items() if not f.is_zero(v)})
    return basis


def items_of(vec):
    """A sparse vector's entries in insertion order (None passes through)."""
    return None if vec is None else list(vec.items())


def kernel_cases(field, rng):
    """Seeded matrices: sparse and dense, empty shapes, zero, identity,
    rank-deficient products, over Q also wide-entry inputs of 20-40 rows,
    over Q and F_32003 the relation matrices of skew quivers, and
    right-hand sides in and out of the span."""
    vals = (1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5))

    def scalar():
        while True:
            v = Fraction(rng.choice(vals))
            num, den = field.from_int(v.numerator), field.from_int(v.denominator)
            if not field.is_zero(num) and not field.is_zero(den):  # 2, 3, 5 vanish in small F_p
                return field.div(num, den)

    def rand(r, c, density):
        return Matrix(field, r, c, {(i, j): scalar() for i in range(r) for j in range(c) if rng.random() < density})

    cases = [Matrix.zero(field, 0, 4), Matrix.zero(field, 4, 0), Matrix.zero(field, 0, 0),
             Matrix.zero(field, 3, 5), Matrix.identity(field, 4)]
    for _ in range(200):
        r, c = rng.randrange(0, 13), rng.randrange(0, 13)
        cases.append(rand(r, c, rng.choice((0.1, 0.25, 0.5, 1.0))))
    for _ in range(60):  # rank-deficient: a product through k < min(r, c)
        r, c = rng.randrange(2, 13), rng.randrange(2, 13)
        k = rng.randrange(0, min(r, c))
        cases.append(rand(r, k, 0.6).matmul(rand(k, c, 0.6)))
    if field == QQ:
        cases += wide_rational_cases(rng)
    if field in (QQ, GF(32003)):  # the skew scalars 2, 3, 1/2, -1/3 vanish or blow up in F_2, F_3
        cases += skew_relation_matrices(field)
    out = []
    def vec(n, density):
        return {i: v for (i, _), v in rand(n, 1, density).entries.items()}

    for m in cases:
        in_span = m.apply(vec(m.cols, 0.6))
        off_span = vec(m.rows, 0.5)
        out.append((m, [in_span, off_span]))
    return out


def wide_rational_cases(rng):
    """Q matrices of 20-40 rows, sparse and dense, full rank and rank
    deficient, with numerators of 20-24 bits over mixed denominators: the
    inputs where integer-row elimination grows its entries most."""
    def scalar():
        while True:
            num, den = rng.choice((-1, 1)) * rng.randrange(1 << 20, 1 << 24), rng.choice((1, 2, 3, 12, 101, 65537))
            if gcd(num, den) == 1:
                return Fraction(num, den)

    def rand(r, c, density):
        return Matrix(QQ, r, c, {(i, j): scalar() for i in range(r) for j in range(c) if rng.random() < density})

    cases = []
    for density in (0.1, 0.25, 1.0):
        for _ in range(3):
            cases.append(rand(rng.randrange(20, 41), rng.randrange(20, 41), density))
    for _ in range(3):
        r, c = rng.randrange(20, 41), rng.randrange(20, 41)
        cases.append(rand(r, 12, 0.5).matmul(rand(12, c, 0.5)))
    return cases


def skew_relation_matrices(field):
    """The relation matrices `from_quiver` reduces while it builds seeded
    skew Beilinson quivers, up to P^4 with 150 x 175."""
    seen, real = [], Matrix._reduced

    def spy(self, b=None):
        seen.append(Matrix(self.field, self.rows, self.cols, self.entries))
        return real(self, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "_reduced", spy)
        for m, k, seed in ((4, 3, 11), (3, 4, 12), (5, 4, 13)):
            skew_beilinson_quiver(field, m, k, seed)
    return seen


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(32003)], ids=["Q", "F2", "F3", "F32003"])
def test_reduced_kernel_matches_reference(field):
    rng = random.Random(8008)
    inconsistent = 0
    for m, rhs in kernel_cases(field, rng):
        assert m.rank() == len(ref_echelon(m)[0])
        assert [items_of(v) for v in m.nullspace()] == [items_of(v) for v in ref_nullspace(m)]
        for b in rhs:
            x = m.solve(b)
            assert items_of(x) == items_of(ref_solve(m, b))
            inconsistent += x is None
    assert inconsistent > 20  # the off-span right-hand sides do hit inconsistent systems
