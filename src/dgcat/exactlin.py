"""Exact linear algebra over Q and F_p, chain complexes, and integer lattices.

All arithmetic is exact: rationals are `fractions.Fraction`, prime-field
elements are ints in [0, p).  A field object is fixed per session and mixing
fields raises `FieldMismatch`.  One elimination driver serves both fields:
rows wait in buckets by leading column, the lowest bucket gives the next
pivot column and its shortest row the pivot row, and the reduction clears
each pivot column above its pivot, last pivot first.  Only the step that
clears a column of rows with the pivot row knows the field.  Over F_p it
subtracts a multiple of the pivot row scaled to 1.  Over Q the rows are
scaled to integers, and the step keeps the primitive part of an integer
combination, so entries stay small without fractions until the final
division by the pivot.  `solve` and `nullspace` read their answers off the
reduced row-echelon form, which depends only on the row space, so no answer
depends on which row the elimination takes as pivot.  An integer row
lattice has one Hermite normal form basis: membership reduces a vector
against it, and its invariant factors come from gcd steps on that basis
modulo twice the product of its pivots.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, prod


class FieldMismatch(Exception):
    pass


class ShapeMismatch(Exception):
    pass


class Field:
    """Exact field: a subclass defines zero, one, from_int, add, sub, mul,
    neg, inv, parse and format."""

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        # elements are Python numbers (Fraction, or int mod p): only zero is falsy
        return not a


_ZERO, _ONE = Fraction(0), Fraction(1)
_Q_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # the forms `RationalField.format` writes, or with a leading +


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
        """An integer or a fraction n/d in decimal digits, with an optional
        sign; any other form (exponents, decimals, spaces, underscores, a
        JSON number) raises ValueError naming the scalar."""
        # the shared instances, so `dgcore.contract` skips products by a parsed "1"
        if s == "1":
            return _ONE
        if s == "0":
            return _ZERO
        if not isinstance(s, str) or not _Q_SCALAR.fullmatch(s):
            raise ValueError(f"scalar {s!r} is not an integer or a fraction n/d")
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"scalar {s!r} has a zero denominator") from None

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
    """Sparse exact matrix: entries is a dict (row, col) -> nonzero scalar.

    The constructor checks every entry it is given (in bounds, zeros
    dropped) and copies them.  `_adopt` checks nothing and takes ownership
    of the dict: only `pretr.HomSpace._build`, which checks each entry once
    as it writes it, calls it (a lint in tests/test_src_lint.py keeps it so).
    """

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
    def _adopt(cls, field, rows, cols, entries):
        """The matrix whose entries dict is entries itself, which the caller
        has checked (every key in bounds, every value nonzero) and no longer
        writes."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m.entries = field, rows, cols, entries
        return m

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
        cols = self.columns()
        out = {}
        for (k, j), w in other.entries.items():
            if k in cols:
                axpy(f, out.setdefault(j, {}), cols[k], w)
        return Matrix(f, self.rows, other.cols, {(i, j): v for j, col in out.items() for i, v in col.items()})

    def apply(self, vec):
        """Apply to a coordinate vector given as a sparse dict idx -> scalar."""
        f = self.field
        cols = self.columns()
        out = {}
        for j, c in vec.items():
            if j in cols:
                axpy(f, out, cols[j], c)
        return out

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def columns(self):
        """Sparse columns: {col: {row: scalar}}, empty columns left out."""
        cols = {}
        for (i, j), v in self.entries.items():
            cols.setdefault(j, {})[i] = v
        return cols

    def _check_binop(self, other, same_shape=False):
        check_same_field(self.field, other.field)
        if same_shape and (self.rows != other.rows or self.cols != other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    # -- elimination ------------------------------------------------------

    def _echelon(self, b=None):
        """Row-echelon form of [self | b] as a list of (col, row) pivots.

        b is an optional extra column, a sparse dict {row: scalar}.  Pivot
        columns increase, and each row dict holds its pivot and columns to
        the right of it only.  Over Q the rows hold integers (each row of
        [self | b] scaled by the lcm of its denominators); over F_p they hold
        ints mod p.  The pivot entries are not yet divided out.
        """
        f = self.field
        rows = [{} for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        if b is not None:
            for i, v in b.items():
                if not 0 <= i < self.rows:
                    raise ShapeMismatch(f"right-hand side row {i} out of bounds for {self.rows} rows")
                if not f.is_zero(v):
                    rows[i][self.cols] = v
        return _eliminate(_integral(f, rows), _clear_step(f))

    def _reduced(self, b=None):
        """Reduced row-echelon form of [self | b]: (col, row) pivots whose
        rows hold field elements, 1 at their pivot and 0 at every other pivot
        column.  It depends only on the row space, not on the pivot rows the
        elimination happened to choose."""
        f = self.field
        clear = _clear_step(f)
        pivots = self._echelon(b)
        cols, rows = [c for c, _ in pivots], [row for _, row in pivots]
        for k, above in reversed(list(enumerate(_above(pivots)))):
            if above:
                for i, row in zip(above, clear([rows[i] for i in above], rows[k], cols[k])):
                    rows[i] = row
        if isinstance(f, RationalField):
            return [(c, {j: Fraction(v, row[c]) for j, v in row.items()}) for c, row in zip(cols, rows)]
        for c, row in zip(cols, rows):
            if row[c] != 1:
                _to_unit_pivot(row, c, f.p)
        return list(zip(cols, rows))

    def rank(self):
        """The number of pivots of an echelon form of the shorter side: of
        the rows, or of the columns when there are more rows than columns
        (a matrix and its transpose have one rank)."""
        if self.rows <= self.cols:
            return len(self._echelon())
        cols = [{} for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return len(_eliminate(_integral(self.field, cols), _clear_step(self.field)))

    def solve(self, b):
        """Some x with self @ x = b, or None if inconsistent.

        b and x are sparse dicts {index: scalar}; a row of b out of range
        raises ShapeMismatch and zero scalars of b are dropped.  When
        solutions exist, free variables are set to zero, giving the unique
        solution supported on pivot columns of the fixed column order: x[c]
        is the entry of the reduced [self | b] in column b of the row
        pivoting at c.  The reduced form, and so x, does not depend on which
        rows the elimination picks as pivots.
        """
        n = self.cols
        pivots = self._reduced(b)
        if pivots and pivots[-1][0] == n:
            return None
        x = {}
        for c, row in reversed(pivots):
            v = row.get(n)
            if v:
                x[c] = v
        return x

    def nullspace(self):
        """Deterministic basis of ker(self) as a list of sparse dicts.

        One vector per non-pivot column j, in increasing j: it has a 1 at j,
        0 at every other non-pivot column, and -R[i][j] at the pivot column
        of reduced row i.  Kernel vectors with that support are unique, so
        the basis does not depend on which rows the elimination picks as
        pivots.
        """
        f = self.field
        one, neg = f.one(), f.neg
        pivots = self._reduced()
        pivot_set = {c for c, _ in pivots}
        vecs = {j: {j: one} for j in range(self.cols) if j not in pivot_set}
        for c, row in reversed(pivots):
            for j, v in row.items():
                if j != c:
                    vecs[j][c] = neg(v)
        return list(vecs.values())

    @classmethod
    def from_columns(cls, field, rows, columns):
        """The rows x len(columns) matrix whose column j is the sparse dict columns[j]."""
        return cls(field, rows, len(columns), {(i, j): v for j, col in enumerate(columns) for i, v in col.items()})


def _integral(field, rows):
    """The row dicts as elimination takes them: over Q each row is scaled by
    the lcm of its denominators to integers, in place; over F_p unchanged."""
    if isinstance(field, RationalField):
        for i, r in enumerate(rows):
            if r:
                denom_lcm = 1
                for v in r.values():
                    denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
                rows[i] = {j: v.numerator * (denom_lcm // v.denominator) for j, v in r.items()}
    return rows


def _eliminate(rows, clear):
    """Echelon of row dicts, consuming the rows; returns the (col, row) pivots.

    Rows wait in buckets by their leading column; the lowest bucket gives
    the next pivot column, its shortest row the pivot row.  `clear` clears
    that column in every other row of the bucket, and each row moves to the
    bucket of its new lead.
    """
    lead = {}
    for row in rows:
        if row:
            lead.setdefault(min(row), []).append(row)
    heap = list(lead)
    heapify(heap)
    pivots = []
    while heap:
        c = heappop(heap)
        group = lead.pop(c)
        prow = min(group, key=len)
        if len(group) > 1:
            for row in clear([row for row in group if row is not prow], prow, c):
                if row:
                    j = min(row)
                    if j in lead:
                        lead[j].append(row)
                    else:
                        lead[j] = [row]
                        heappush(heap, j)
        pivots.append((c, prow))
    return pivots


def _above(pivots):
    """For each pivot k, the earlier pivot rows with an entry in its column.

    Clearing a column, last pivot first, adds a row whose other entries sit
    in non-pivot columns, so these lists stay exact through the reduction.
    """
    where = {c: k for k, (c, _) in enumerate(pivots)}
    above = [[] for _ in pivots]
    for i, (c, row) in enumerate(pivots):
        for j in row:
            k = where.get(j)
            if k is not None and k != i:
                above[k].append(i)
    return above


def _clear_step(field):
    """The one field-specific step of elimination: clear(rows, prow, c) is
    the rows with column c cleared by the pivot row prow, which pivots at c."""
    if isinstance(field, RationalField):
        return _clear_int
    p = field.p

    def clear(rows, prow, c):
        # row - row[c] * prow mod p, in place, with prow scaled to 1 at c
        if prow[c] != 1:
            _to_unit_pivot(prow, c, p)
        items = [(j, v) for j, v in prow.items() if j != c]
        for row in rows:
            m = p - row.pop(c)
            for j, v in items:
                x = row.get(j)
                if x is None:
                    row[j] = m * v % p
                else:
                    x = (x + m * v) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        return rows

    return clear


def _clear_int(rows, prow, c):
    """Each row's primitive part of prow[c] * row - row[c] * prow, on integer
    rows: integers stay integers, and dividing out the content keeps them
    small."""
    pc = prow[c]
    out = []
    for row in rows:
        a = row[c]
        g = gcd(a, pc)
        s, t = pc // g, a // g
        new = {j: v * s for j, v in row.items()} if s != 1 else row
        for j, v in prow.items():
            w = new.get(j, 0) - t * v
            if w:
                new[j] = w
            else:
                del new[j]
        g = gcd(*new.values())
        out.append({j: v // g for j, v in new.items()} if g > 1 else new)
    return out


def _to_unit_pivot(row, c, p):
    """Scale an F_p row in place so its entry at column c is 1."""
    inv = pow(row[c], p - 2, p)
    for j, v in row.items():
        row[j] = v * inv % p


class ChainComplex:
    """Finite-support graded vector space with a degree +1 differential.

    dims maps degree -> dimension; diff[n] is the matrix of d: V^n -> V^{n+1}
    with shape dims(n+1) x dims(n).  A complex is not mutated after
    construction, so the rank of each d(n) and the Cohomology of each degree
    are computed once and kept.
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
        self._cohomology = {}

    def dim(self, n):
        return self.dims.get(n, 0)

    def d(self, n):
        m = self.diff.get(n)
        return m if m is not None else Matrix.zero(self.field, self.dim(n + 1), self.dim(n))

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

    def cohomology_dims(self):
        """{n: dim H^n} in increasing n over the degrees where H^n != 0; {} when acyclic."""
        if not self.dims:
            return {}
        return {n: k for n, d in sorted(self.dims.items()) if (k := d - self.rank(n) - self.rank(n - 1))}

    def cohomology(self, n):
        h = self._cohomology.get(n)
        if h is None:
            h = self._cohomology[n] = Cohomology(self, n)
        return h

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
    d(n) that are pivot columns of one echelon form of [d(n-1) | cycles]:
    each cycle independent modulo the image and the cycles before it, the
    ones a greedy "keep it when the rank grows" pass keeps.  Class
    coordinates, and every report that prints them, depend on this rule.
    One elimination, of [d(n-1) | cycles | 1] to reduced form, finds them
    and the dual: the pivots of a column prefix do not depend on the
    columns after it.
    """

    def __init__(self, complex_, n):
        self.complex = complex_
        self.n = n
        f = complex_.field
        dim = complex_.dim(n)
        img = complex_.d(n - 1)
        cycles = complex_.d(n).nullspace()
        off, end = img.cols, img.cols + len(cycles)
        ent = dict(img.entries)
        ent.update(((i, off + k), v) for k, z in enumerate(cycles) for i, v in z.items())
        ent.update(((i, end + i), f.one()) for i in range(dim))
        pivots = [(c, row) for c, row in Matrix(f, dim, end + dim, ent)._reduced() if off <= c < end]
        self.reps = [cycles[c - off] for c, _ in pivots]
        self._dual = Matrix(f, len(pivots), dim, {(t, j - end): v for t, (_, row) in enumerate(pivots) for j, v in row.items() if j >= end})

    def dual(self):
        """The k = dim functionals y_t on C^n, as the rows of a k x dim(n)
        matrix, with y_t·d(n-1) = 0 and y_t·rep_s = 1 if s = t else 0: a
        certificate that dim H^n >= k, checked by sparse products.

        Row t is the identity part y of the reduced row r pivoting at rep t,
        so r = y·[d(n-1) | cycles].  r is zero left of its pivot, which is
        right of every column of d(n-1), and in the reduced form it is 1 at
        its own pivot and 0 at every other pivot, the other reps' columns
        among them."""
        return self._dual

    @property
    def dim(self):
        return len(self.reps)

    def lift(self, coords):
        """Class coordinates -> representative cycle (sparse dict)."""
        f = self.complex.field
        out = {}
        for t, c in coords.items():
            axpy(f, out, self.reps[t], c)
        return out

    def project(self, cycle):
        """Cycle (sparse dict) -> coordinates of its class in this basis:
        {t: y_t·z} for the functionals y_t of `dual`.  Class coordinates
        are unique, so they are those of any solution of
        [reps | d(n-1)]·x = z.

        Raises ValueError when the vector is not a cycle, and ShapeMismatch
        when an index lies outside C^n.
        """
        dim, d = self.complex.dim(self.n), self.complex.diff.get(self.n)
        if any(not 0 <= i < dim for i in cycle):
            raise ShapeMismatch(f"cycle index out of bounds for dimension {dim}")
        if d is not None and d.apply(cycle):
            raise ValueError("vector is not a cycle modulo boundaries of this complex")
        return self.dual().apply(cycle) if self.reps else {}


# -- integer lattices: Hermite basis and invariant factors --------------------


def smith_normal_form(m):
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix (list of
    lists): the nonzero diagonal of its Smith normal form.

    Steps are taken modulo D = 2 * (product of the pivots of the Hermite
    basis of the row lattice L), after Domich, Kannan and Trotter (1987).
    Z^n / (L + D Z^n) is the sum of the Z/d_i and of (Z/D)^(n-r), and each
    d_i divides the product of the pivots, which is less than D.  So gcd row
    and column steps on the basis, with every entry reduced mod D, reach a
    diagonal g_1..g_r, and the gcd(g_i, D), put into a divisibility chain,
    are the d_i.  No entry ever reaches D.
    """
    basis = lattice_basis(m)
    D = 2 * prod(row[c] for c, row in basis)
    a = [[x % D for x in row] for _, row in basis]
    r, n = len(a), len(a[0]) if a else 0
    for t in range(r):
        dirty = True
        while dirty:
            for i in range(t + 1, r):
                if a[i][t]:
                    s, u, v, w = _gcd_step(a[t][t], a[i][t])
                    a[t], a[i] = [(s * x + u * y) % D for x, y in zip(a[t], a[i])], [(v * x + w * y) % D for x, y in zip(a[t], a[i])]
            for j in range(t + 1, n):
                if a[t][j]:
                    s, u, v, w = _gcd_step(a[t][t], a[t][j])
                    for row in a:
                        row[t], row[j] = (s * row[t] + u * row[j]) % D, (v * row[t] + w * row[j]) % D
            # a column step refills column t only when it lowers the pivot
            dirty = any(a[i][t] for i in range(t + 1, r))
    d = [gcd(a[t][t], D) for t in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def _gcd_step(p, x):
    """(s, u, v, w) with [[s, u], [v, w]] of determinant +-1 sending (p, x)
    to (gcd(p, x), 0); it leaves p in place when p divides x."""
    if p and x % p == 0:
        return 1, 0, -(x // p), 1
    g, s, u = _xgcd(p, x)
    return s, u, x // g, -(p // g)


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def lattice_basis(rows):
    """Hermite normal form basis of the Z-span of integer rows, as a list of
    (col, row) pivots.

    Pivot columns increase, each row is zero left of its pivot, its pivot is
    positive and every entry above a pivot lies in [0, pivot).  Each row is
    folded in by gcd row operations, which are unimodular, so the basis
    spans the same lattice as the rows and depends only on it.
    Rows of unequal length raise ShapeMismatch.
    """
    ncols = len(rows[0]) if rows else 0
    basis = {}  # pivot column -> row
    for r in rows:
        if len(r) != ncols:
            raise ShapeMismatch("rows of unequal length")
        v = list(r)
        c = next((j for j, x in enumerate(v) if x), None)
        while c is not None:
            b = basis.get(c)
            if b is None:
                basis[c] = v if v[c] > 0 else [-x for x in v]
                break
            p, a = b[c], v[c]
            if a % p:
                # [[s, t], [a/g, -p/g]] has determinant -1
                g, s, t = _xgcd(p, a)
                basis[c], v = [s * x + t * y for x, y in zip(b, v)], [a // g * x - p // g * y for x, y in zip(b, v)]
            else:
                q = a // p
                v = [y - q * x for x, y in zip(b, v)]
            c = next((j for j in range(c + 1, ncols) if v[j]), None)
    pivots = sorted(basis.items())
    for k, (ck, rk) in enumerate(pivots):
        pk = rk[ck]
        for _, ri in pivots[:k]:
            q = ri[ck] // pk
            if q:
                for j in range(ck, ncols):
                    ri[j] -= q * rk[j]
    return pivots


def in_lattice(basis, vec):
    """Exact membership of an integer vector in the lattice spanned by the
    (col, row) pivots of `lattice_basis`: vec is reduced against the basis
    with integer quotients, pivot by pivot, and lies in the lattice iff
    nothing is left."""
    if basis and len(vec) != len(basis[0][1]):
        raise ShapeMismatch("vector length mismatch")
    vec = list(vec)
    for c, row in basis:
        v = vec[c]
        if v:
            q, r = divmod(v, row[c])
            if r:
                return False
            for j in range(c, len(row)):
                vec[j] -= q * row[j]
    return not any(vec)


def in_rowspan(rows, vec):
    """Exact membership of an integer vector in the Z-span of integer rows."""
    if rows and len(vec) != len(rows[0]):
        raise ShapeMismatch("vector length mismatch")
    return in_lattice(lattice_basis(rows), vec)


# -- module-level conveniences ---------------------------------------------------


def rank(m):
    return m.rank()


def solve(a, b):
    return a.solve(b)


def cohomology_dim(c, n):
    return c.cohomology_dim(n)


def cohomology_basis(c, n):
    return c.cohomology(n)
