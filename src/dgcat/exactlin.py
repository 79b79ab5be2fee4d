"""Exact linear algebra over Q and F_p, chain complexes, and integer Smith normal form.

All arithmetic is exact: rationals are `fractions.Fraction`, prime-field
elements are ints in [0, p).  A field object is fixed per session and mixing
fields raises `FieldMismatch`.  Elimination uses the deterministic pivot rule
"lowest column, then lowest row"; over Q rows are scaled to integers and
reduced fraction-free (one-step Bareiss) to control coefficient growth.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd


class FieldMismatch(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class Field:
    """Abstract exact field."""

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        # elements are Python numbers (Fraction, or int mod p): only zero is falsy
        return not a

    def parse(self, s):
        raise NotImplementedError

    def format(self, a):
        raise NotImplementedError


_ZERO, _ONE = Fraction(0), Fraction(1)


class RationalField(Field):
    """Q; zero() and one() return shared instances, as Fractions are immutable."""

    name = "Q"

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def parse(self, s):
        return Fraction(s)

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """F_p for a prime p < 2^31; elements are ints reduced mod p."""

    def __init__(self, p):
        if p < 2 or p >= 2**31:
            raise ValueError("prime out of range")
        for d in range(2, min(p, 1 << 16)):
            if d * d > p:
                break
            if p % d == 0:
                raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def parse(self, s):
        s = s.strip()
        if "mod" in s:
            val, mod = s.split("mod")
            if int(mod) != self.p:
                raise FieldMismatch(f"scalar {s!r} is not in F_{self.p}")
            return int(val) % self.p
        return int(s) % self.p

    def format(self, a):
        return f"{a % self.p} mod {self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache = {}


def GF(p):
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_spec(s):
    """Parse a field tag: "Q" or "Fp:<prime>"."""
    if s == "Q":
        return QQ
    if s.startswith("Fp:"):
        return GF(int(s[3:]))
    raise ValueError(f"unknown field spec {s!r}")


def check_same_field(a, b):
    if a != b:
        raise FieldMismatch(f"field mismatch: {a!r} vs {b!r}")


def axpy(f, acc, vec, c=None):
    """acc += c * vec on sparse dicts {key: scalar} over the field f, in place.

    c = None means 1.  A key whose sum cancels is deleted, so acc keeps
    holding nonzero scalars only.  Returns acc.
    """
    add, mul, is_zero = f.add, f.mul, f.is_zero
    for k, v in vec.items():
        if c is not None:
            v = mul(c, v)
        if k in acc:
            v = add(acc[k], v)
        if is_zero(v):
            acc.pop(k, None)
        else:
            acc[k] = v
    return acc


class Matrix:
    """Sparse exact matrix: entries is a dict (row, col) -> nonzero scalar."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ShapeMismatch(f"entry ({i},{j}) out of bounds {rows}x{cols}")
                if not field.is_zero(v):
                    self.entries[(i, j)] = v

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field, n):
        one = field.one()
        return cls(field, n, n, {(i, i): one for i in range(n)})

    @classmethod
    def from_rows(cls, field, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                fv = v if not isinstance(v, int) else field.from_int(v)
                if not field.is_zero(fv):
                    ent[(i, j)] = fv
        return cls(field, rows, cols, ent)

    @classmethod
    def column(cls, field, values):
        return cls.from_rows(field, [[v] for v in values])

    def get(self, i, j):
        return self.entries.get((i, j), self.field.zero())

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    def add(self, other):
        self._check_binop(other, same_shape=True)
        return Matrix(self.field, self.rows, self.cols, axpy(self.field, dict(self.entries), other.entries))

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        f = self.field
        return Matrix(f, self.rows, self.cols, {k: f.neg(v) for k, v in self.entries.items()})

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return Matrix.zero(f, self.rows, self.cols)
        return Matrix(f, self.rows, self.cols, {k: f.mul(c, v) for k, v in self.entries.items()})

    def matmul(self, other):
        """self @ other."""
        self._check_binop(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        cols = self._columns()
        out = {}
        for (k, j), w in other.entries.items():
            if k in cols:
                axpy(f, out.setdefault(j, {}), cols[k], w)
        return Matrix(f, self.rows, other.cols, {(i, j): v for j, col in out.items() for i, v in col.items()})

    def apply(self, vec):
        """Apply to a coordinate vector given as a sparse dict idx -> scalar."""
        f = self.field
        cols = self._columns()
        out = {}
        for j, c in vec.items():
            if j in cols:
                axpy(f, out, cols[j], c)
        return out

    def _columns(self):
        """Sparse columns: {col: {row: scalar}}, empty columns left out."""
        cols = {}
        for (i, j), v in self.entries.items():
            cols.setdefault(j, {})[i] = v
        return cols

    def column_vector(self, j):
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def _check_binop(self, other, same_shape=False):
        check_same_field(self.field, other.field)
        if same_shape and (self.rows != other.rows or self.cols != other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    # -- elimination ------------------------------------------------------

    def _row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def _echelon(self, extra=None):
        """Row-echelon form of [self | extra].

        Returns (pivots, rows) where pivots is a list of (row_index, col)
        in elimination order and rows the reduced row dicts.  Deterministic:
        pivot is the lowest remaining column, then the lowest row.
        """
        f = self.field
        ncols = self.cols + (extra.cols if extra is not None else 0)
        rows = self._row_dicts()
        if extra is not None:
            for (i, j), v in extra.entries.items():
                rows[i][self.cols + j] = v
        if isinstance(f, RationalField):
            int_rows = []
            for r in rows:
                if r:
                    denom_lcm = 1
                    for v in r.values():
                        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
                    int_rows.append({j: int(v * denom_lcm) for j, v in r.items()})
                else:
                    int_rows.append({})
            pivots = _echelon_int(int_rows, ncols)
            return pivots, [{j: Fraction(v) for j, v in r.items()} for r in int_rows]
        pivots = _echelon_mod(rows, ncols, f)
        return pivots, rows

    def rank(self):
        pivots, _ = self._echelon()
        return len(pivots)

    def nullity(self):
        return self.cols - self.rank()

    def solve(self, b):
        """Some x with self @ x = b, or None if inconsistent.

        b is a column Matrix.  When solutions exist, free variables are set
        to zero, giving the unique solution supported on pivot columns of the
        fixed column order.
        """
        self._check_binop(b)
        if b.rows != self.rows or b.cols != 1:
            raise ShapeMismatch("solve: b must be a column of matching height")
        f = self.field
        pivots, rows = self._echelon(extra=b)
        for r, c in pivots:
            if c >= self.cols:
                return None
        x = {}
        for r, c in reversed(pivots):
            row = rows[r]
            rhs = row.get(self.cols, f.zero())
            s = rhs
            for j, v in row.items():
                if c < j < self.cols and j in x:
                    s = f.sub(s, f.mul(v, x[j]))
            x[c] = f.div(s, row[c])
        return Matrix(f, self.cols, 1, {(j, 0): v for j, v in x.items() if not f.is_zero(v)})

    def nullspace(self):
        """Deterministic basis of ker(self) as a list of column Matrix.

        One vector per non-pivot column j, in increasing j: it has a 1 at j
        and is otherwise supported on pivot columns before j.
        """
        f = self.field
        pivots, rows = self._echelon()
        pivot_cols = [c for _, c in pivots]
        pivot_set = set(pivot_cols)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            vec = {free: f.one()}
            # rows pivoting right of `free` hold no column of vec: skip them
            for r, c in reversed(pivots[: bisect_left(pivot_cols, free)]):
                row = rows[r]
                s = f.zero()
                for j, v in row.items():
                    if j > c and j in vec:
                        s = f.add(s, f.mul(v, vec[j]))
                if not f.is_zero(s):
                    vec[c] = f.neg(f.div(s, row[c]))
            basis.append(Matrix(f, self.cols, 1, {(j, 0): v for j, v in vec.items() if not f.is_zero(v)}))
        return basis

    @classmethod
    def hstack(cls, field, rows, blocks):
        """Concatenate column blocks (all with `rows` rows)."""
        ent = {}
        off = 0
        for b in blocks:
            check_same_field(field, b.field)
            if b.rows != rows:
                raise ShapeMismatch("hstack: row mismatch")
            for (i, j), v in b.entries.items():
                ent[(i, j + off)] = v
            off += b.cols
        return cls(field, rows, off, ent)


def basis_extension(base, candidates):
    """Extend span(base) by candidate columns, with normal forms of the rest.

    One elimination of [base | candidates].  `picked` lists the candidate
    columns that are pivot columns, in increasing order: exactly the ones a
    greedy pass "append the candidate when the rank grows" would take.  For
    every other candidate k, `normal[k]` is a sparse dict {t: c} with
    candidates[k] - sum_t c * candidates[picked[t]] in the column span of
    base; it is read off the kernel vector with a 1 at column k.
    """
    check_same_field(base.field, candidates.field)
    f = base.field
    off = base.cols
    kernel = Matrix.hstack(f, base.rows, [base, candidates]).nullspace()
    free = {}
    for vec in kernel:
        coords = {j: v for (j, _), v in vec.entries.items()}
        free[max(coords)] = coords
    picked = [k for k in range(candidates.cols) if off + k not in free]
    position = {k: t for t, k in enumerate(picked)}
    normal = {}
    for j, coords in free.items():
        if j >= off:
            normal[j - off] = {position[i - off]: f.neg(v) for i, v in coords.items() if off <= i < j}
    return picked, normal


def _echelon_int(rows, ncols):
    """In-place fraction-free (Bareiss) echelon on integer row dicts.

    Every remaining row is updated at every step (required for the exact
    division by the previous pivot), including rows with a zero in the
    pivot column.
    """
    pivots = []
    r = 0
    prev = 1
    nrows = len(rows)
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i].get(c):
                sel = i
                break
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


def _echelon_mod(rows, ncols, f):
    """In-place echelon over a prime field."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i].get(c):
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            a = rows[i].get(c)
            if not a:
                continue
            axpy(f, rows[i], rows[r], f.neg(f.div(a, piv)))
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


class ChainComplex:
    """Finite-support graded vector space with a degree +1 differential.

    dims maps degree -> dimension; diff[n] is the matrix of d: V^n -> V^{n+1}
    with shape dims(n+1) x dims(n).  A complex is not mutated after
    construction, so the rank of each d(n) is computed once and kept.
    """

    def __init__(self, field, dims, diff=None):
        self.field = field
        self.dims = {n: d for n, d in dims.items() if d}
        self.diff = {}
        for n, m in (diff or {}).items():
            check_same_field(field, m.field)
            if m.is_zero():
                continue
            if m.rows != self.dim(n + 1) or m.cols != self.dim(n):
                raise ShapeMismatch(f"diff({n}) has shape {m.rows}x{m.cols}, expected {self.dim(n + 1)}x{self.dim(n)}")
            self.diff[n] = m
        self._ranks = {}

    def dim(self, n):
        return self.dims.get(n, 0)

    def d(self, n):
        return self.diff.get(n, Matrix.zero(self.field, self.dim(n + 1), self.dim(n)))

    def degrees(self):
        return sorted(self.dims)

    def validate(self):
        """List of degrees where d(n+1) . d(n) != 0."""
        bad = []
        for n in self.diff:
            if n + 1 in self.diff and not self.diff[n + 1].matmul(self.diff[n]).is_zero():
                bad.append(n)
        return sorted(bad)

    def euler_characteristic(self):
        return sum((-1) ** n * d for n, d in self.dims.items())

    def rank(self, n):
        """Rank of d(n); 0 without elimination where there is no differential."""
        r = self._ranks.get(n)
        if r is None:
            m = self.diff.get(n)
            r = self._ranks[n] = m.rank() if m is not None else 0
        return r

    def cohomology_dim(self, n):
        return self.dim(n) - self.rank(n) - self.rank(n - 1)

    def cohomology(self, n):
        return Cohomology(self, n)

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplex)
            and self.field == other.field
            and self.dims == other.dims
            and self.diff == other.diff
        )


class Cohomology:
    """Basis of H^n with lift/project between classes and cycles.

    Representatives are the cycles of the deterministic nullspace basis of
    d(n) that are pivot columns of [image of d(n-1) | cycles], i.e. each
    cycle independent modulo the image and the cycles before it
    (`basis_extension`).  Class coordinates, and every report that prints
    them, depend on this rule.
    """

    def __init__(self, complex_, n):
        self.complex = complex_
        self.n = n
        f = complex_.field
        dim = complex_.dim(n)
        img = complex_.d(n - 1)
        cycles = complex_.d(n).nullspace()
        picked, _ = basis_extension(img, Matrix.hstack(f, dim, cycles))
        self.reps = [cycles[k] for k in picked]
        self._solver = Matrix.hstack(f, dim, self.reps + [img])

    @property
    def dim(self):
        return len(self.reps)

    def lift(self, coords):
        """Class coordinates -> representative cycle (sparse dict)."""
        f = self.complex.field
        out = {}
        for t, c in coords.items():
            axpy(f, out, {i: v for (i, _), v in self.reps[t].entries.items()}, c)
        return out

    def project(self, cycle):
        """Cycle (sparse dict) -> coordinates of its class in this basis.

        Raises ValueError when the vector is not a cycle.
        """
        f = self.complex.field
        if not self.reps:
            return {}
        b = Matrix(f, self.complex.dim(self.n), 1, {(i, 0): v for i, v in cycle.items() if not f.is_zero(v)})
        x = self._solver.solve(b)
        if x is None:
            raise ValueError("vector is not a cycle modulo boundaries of this complex")
        return {t: v for (t, _), v in x.entries.items() if t < len(self.reps)}


# -- integer Smith normal form ----------------------------------------------


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


def in_rowspan(rows, vec):
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


# -- module-level conveniences ---------------------------------------------------


def rank(m):
    return m.rank()


def solve(a, b):
    return a.solve(b)


def cohomology_dim(c, n):
    return c.cohomology_dim(n)


def cohomology_basis(c, n):
    return c.cohomology(n)
