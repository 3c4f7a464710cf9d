import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altrank.fields import FieldCtx
from altrank.matrices import (
    Matrix,
    Span,
    _eliminate,
    alternating_from_upper,
    pfaffian,
    pfaffian_expansion,
    place_blocks,
    span_dim,
    upper_pairs,
)
from altrank.rand import CounterStream, derive_seed, random_alternating, random_invertible, random_matrix
from reference import reference_matmul

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
Q = FieldCtx.rational()
F_BIG = FieldCtx.prime(2147483629)


def det_permutation_oracle(m):
    """Leibniz expansion; exponential, fine below 6x6."""
    n = m.nrows
    ctx = m.ctx
    total = ctx.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ctx.one() if sign == 1 else ctx.neg(ctx.one())
        for i in range(n):
            term = ctx.mul(term, m[i, perm[i]])
        total = ctx.add(total, term)
    return total


def test_constructor_normalizes():
    m = Matrix(F5, [[7, -1], [Fraction(1, 2), 0]])
    assert m[0, 0] == 2 and m[0, 1] == 4
    assert m[1, 0] == F5.inv(2)


def test_identity_and_zeros():
    assert Matrix.identity(F3, 3) @ Matrix.identity(F3, 3) == Matrix.identity(F3, 3)
    assert Matrix.zeros(F3, 2, 4).shape == (2, 4)


def test_empty_shapes_are_faithful():
    # the width is kept, not read from a first row that an empty matrix lacks
    assert Matrix.zeros(F5, 0, 3).shape == (0, 3)
    assert Matrix.zeros(F5, 3, 0).T.shape == (0, 3)
    assert Matrix.zeros(F5, 0, 3).T.shape == (3, 0)
    assert Matrix.zeros(F5, 2, 0) @ Matrix.zeros(F5, 2, 0).T == Matrix.zeros(F5, 2)
    assert Matrix.zeros(F5, 0, 2) @ Matrix.zeros(F5, 2, 4) == Matrix.zeros(F5, 0, 4)
    assert Matrix.zeros(F5, 0, 3) != Matrix.zeros(F5, 0, 2)
    assert Matrix.zeros(F5, 0, 3).hstack(Matrix.zeros(F5, 0, 2)).shape == (0, 5)
    assert Matrix.zeros(F5, 2, 3).block(0, 2, 1, 9).shape == (2, 2)
    assert Matrix(F5, [], 4).shape == (0, 4) and Matrix(F5, [[1, 2]], 2).shape == (1, 2)
    with pytest.raises(ValueError):
        Matrix(F5, [[1, 2]], 3)


def test_matmul_shapes():
    a = Matrix(Q, [[1, 2, 3]])
    b = Matrix(Q, [[1], [0], [2]])
    assert (a @ b)[0, 0] == Fraction(7)
    with pytest.raises(ValueError):
        b @ b  # noqa: B018


def test_rref_known():
    m = Matrix(Q, [[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    red, pivots = m.rref()
    assert pivots == (0, 1)
    assert red.row(0) == (Fraction(1), Fraction(0), Fraction(-1))
    assert red.row(1) == (Fraction(0), Fraction(1), Fraction(2))


def test_rank_and_kernel():
    m = Matrix(F7, [[1, 2, 3], [2, 4, 1]])
    assert m.rank() == 2
    ker = m.kernel_basis()
    assert len(ker) == 1
    for v in ker:
        out = [sum(int(m[i, j]) * int(v[j]) for j in range(3)) % 7 for i in range(2)]
        assert out == [0, 0]
    # the same rows collapse mod 5: the second row becomes twice the first
    assert Matrix(F5, [[1, 2, 3], [2, 4, 1]]).rank() == 1


def test_det_matches_permutation_oracle():
    stream = CounterStream(derive_seed(11, "det"))
    for n in (1, 2, 3, 4):
        for ctx in (F5, Q):
            m = random_matrix(ctx, n, n, stream, box=5)
            assert m.det() == det_permutation_oracle(m)


def oracle_cases(ctx, seed):
    """Seeded matrices, square and not, with sparse rows, duplicated rows and
    zero leading columns, so singular inputs and row swaps of both parities occur;
    then 0 x k and k x 0 shapes, sparse tall matrices up to 60 x 6 (as the slab
    residuals of ``reduction.reduce_full_row_rank``), and square A up to 10 x 10 with their
    augmentations [A | I], where the fraction-free Gauss-Jordan entries grow."""
    rng = random.Random(seed)
    box = 9

    def element():
        if ctx.kind == "prime":
            return rng.randrange(ctx.p)
        return Fraction(rng.randint(-box, box), rng.randint(1, box))

    for trial in range(80):
        n = rng.randint(1, 6)
        m = n if trial % 2 else rng.randint(1, 6)
        density = (0.3, 0.6, 1.0)[trial % 3]
        rows = [[element() if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
        if trial % 5 == 0:
            for row in rows:
                row[0] = 0
        if trial % 7 == 0 and n > 1:
            rows[-1] = list(rows[0])
        yield Matrix(ctx, rows)
    for k in range(4):
        yield Matrix(ctx, [], k)
        yield Matrix(ctx, [[]] * k, 0)
    for n, m, density in [(60, 6, 0.1), (60, 6, 0.4), (40, 5, 0.05), (24, 3, 0.2)]:
        yield Matrix(ctx, [[element() if rng.random() < density else 0 for _ in range(m)] for _ in range(n)])
    for n in (4, 7, 10):
        a = Matrix(ctx, [[element() for _ in range(n)] for _ in range(n)])
        yield a
        yield a.hstack(Matrix.identity(ctx, n))


def sympy_field(ctx):
    from sympy import GF, QQ

    return QQ if ctx.kind == "rational" else GF(ctx.p)


def sympy_element(ctx, x):
    k = sympy_field(ctx)
    return k(x.numerator, x.denominator) if ctx.kind == "rational" else k(x)


def sympy_matrix(ctx, rows, shape):
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix([[sympy_element(ctx, x) for x in row] for row in rows], shape, sympy_field(ctx))


@pytest.mark.parametrize("ctx", [FieldCtx.prime(2), F5, F7, FieldCtx.prime(2_147_483_629), Q])
def test_exact_layer_matches_sympy(ctx):
    pytest.importorskip("sympy")
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    def to_k(x):
        return sympy_element(ctx, x)

    def to_dm(a):
        return sympy_matrix(ctx, a.data, a.shape)

    parities = set()
    for a in oracle_cases(ctx, derive_seed(5, "sympy", ctx.to_str())):
        ref = to_dm(a)
        red, pivots = a.rref()
        ref_red, ref_pivots = ref.rref()
        assert to_dm(red) == ref_red and pivots == tuple(ref_pivots)
        span = Span(ctx, a.data, width=a.ncols)
        assert span.pivots == list(ref_pivots) and span.dim == len(ref_pivots)
        assert to_dm(Matrix(ctx, span.rows, a.ncols)) == ref_red.extract(range(span.dim), range(a.ncols))
        assert a.rank() == ref.rank()
        assert len(a.kernel_basis()) == ref.nullspace().shape[0]
        if not a.is_square:
            continue
        assert to_k(a.det()) == ref.det()
        if a.det() == 0:
            with pytest.raises(ValueError):
                a.inverse()
            with pytest.raises(DMNonInvertibleMatrixError):
                ref.inv()
        else:
            assert to_dm(a.inverse()) == ref.inv()
            parities.add(_eliminate(a)[1] % 2)
    assert parities == {0, 1}


def test_inverse_and_solve():
    m = Matrix(F7, [[1, 2], [3, 4]])
    assert m @ m.inverse() == Matrix.identity(F7, 2)
    x = (m.inverse() @ Matrix(F7, [[1], [0]])).col(0)
    lhs = tuple(sum(int(m[i, j]) * int(x[j]) for j in range(2)) % 7 for i in range(2))
    assert lhs == (1, 0)
    singular = Matrix(F7, [[1, 1], [1, 1]])
    for _ in range(2):  # a singular matrix keeps no inverse
        with pytest.raises(ValueError):
            singular.inverse()


def assert_canonical(m):
    """Entries as ``Matrix(...)`` stores them: an int in [0, p) over F_p, a
    Fraction over Q, in a tuple of equal-length tuples."""
    ctx = m.ctx
    assert type(m.data) is tuple and len(m.data) == m.nrows
    for row in m.data:
        assert type(row) is tuple and len(row) == m.ncols
        for x in row:
            if ctx.kind == "prime":
                assert type(x) is int and 0 <= x < ctx.p
            else:
                assert type(x) is Fraction
    assert Matrix(ctx, m.data) == m


@pytest.mark.parametrize("ctx", [F5, F7, FieldCtx.prime(2_147_483_629), Q])
def test_arithmetic_results_are_canonical(ctx):
    stream = CounterStream(derive_seed(13, "canonical", ctx.to_str()))
    for n in (1, 3, 4):
        a = random_matrix(ctx, n, n, stream, box=7)
        b = random_matrix(ctx, n, n, stream, box=7)
        c = random_matrix(ctx, n, n + 2, stream, box=7)
        inv = random_invertible(ctx, n, stream, box=7)
        for m in (
            a @ b, a @ c, a + b, a - b, -a, a.scale(3), a.T, c.T,
            c.block(0, n, 1, n + 1), a.hstack(c), a.rref()[0], c.rref()[0],
            inv.inverse(), inv @ inv.inverse(),
            place_blocks(ctx, n + 1, n + 2, [(1, 0, a), (0, 2, c.block(0, n, 0, n))]),
        ):
            assert_canonical(m)
        assert inv @ inv.inverse() == Matrix.identity(ctx, n)
    with pytest.raises(ValueError):
        Matrix.identity(F5, 2).hstack(Matrix.identity(F7, 2))


def test_place_blocks_refuses_a_foreign_or_overrunning_block():
    # a block is written as it is, so one over another field is refused, not re-read in this one,
    # and so is one that overruns the rows or the columns
    assert place_blocks(F7, 2, 3, [(1, 1, Matrix(F7, [[4, 6]]))]) == Matrix(F7, [[0, 0, 0], [0, 4, 6]])
    for ctx, r0, c0, block in [
        (F7, 0, 0, Matrix(F5, [[4]])),  # read in F_7 it would be 4
        (F5, 0, 0, Matrix(Q, [[Fraction(1, 2)]])),  # read in F_5 it would be 3
        (F5, 1, 0, Matrix.identity(F5, 2)),  # overruns the rows
        (F5, 0, 1, Matrix.identity(F5, 2)),  # overruns the columns
        (F5, -1, 0, Matrix.identity(F5, 1)),  # starts before the first row
    ]:
        with pytest.raises(ValueError, match="over another field or overruns 2 x 2"):
            place_blocks(ctx, 2, 2, [(r0, c0, block)])


def test_alternating_from_upper_layout():
    # coords fill (0,1), (0,2), (1,2) in row-major upper order
    m = alternating_from_upper(F5, 3, [1, 2, 3])
    assert m[0, 1] == 1 and m[0, 2] == 2 and m[1, 2] == 3
    assert m[1, 0] == 4 and m[2, 0] == 3 and m[2, 1] == 2
    assert m.is_alternating()
    assert upper_pairs(3) == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("ctx", [F7, Q], ids=["F7", "Q"])
def test_alternating_from_upper_matches_the_normalizing_constructor(ctx):
    # one normalization per coordinate gives the entries Matrix(...) would
    coords = [-3, 10, Fraction(4, 2), "5", 0, Fraction(-7, 3) if ctx is Q else 13]
    m = alternating_from_upper(ctx, 4, coords)
    rows = [[0] * 4 for _ in range(4)]
    for (i, j), c in zip(upper_pairs(4), coords):
        rows[i][j], rows[j][i] = ctx.normalize(c), ctx.neg(ctx.normalize(c))
    want = Matrix(ctx, rows)
    assert m == want and (m.nrows, m.ncols) == (4, 4)
    assert [[type(x) for x in row] for row in m.data] == [[type(x) for x in row] for row in want.data]
    assert alternating_from_upper(ctx, 0, []) == Matrix(ctx, [])


def test_alternating_char_2_needs_zero_diagonal():
    f2 = FieldCtx.prime(2)
    sym = Matrix(f2, [[1, 1], [1, 1]])
    assert not sym.is_alternating()
    alt = Matrix(f2, [[0, 1], [1, 0]])
    assert alt.is_alternating()


@pytest.mark.parametrize("p", [2, 7, 2_147_483_629, None])
def test_is_alternating_matches_the_negation_reference(p):
    # seeded alternating matrices, n = 0 to 6, and one-entry perturbations of
    # them: a nonzero diagonal entry, or a[i][j] that is not -a[j][i] (over Q
    # also the same numerator over another denominator)
    ctx = FieldCtx.prime(p) if p else Q
    rng = random.Random(p)

    def reference(m):
        d = m.data
        return all(d[i][i] == 0 and all(d[i][j] == ctx.neg(d[j][i]) for j in range(i)) for i in range(m.nrows))

    seen = []
    for n in range(7):
        for _ in range(12):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    x = Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if ctx is Q else rng.randrange(p)
                    rows[i][j], rows[j][i] = x, -x
            if n and rng.random() < 0.6:
                i, j = rng.randrange(n), rng.randrange(n)
                x = Fraction(rows[i][j])
                rows[i][j] = rng.choice([x + 1, 2 * x + 1] + [Fraction(x.numerator, x.denominator + 1)] * (ctx is Q))
            m = Matrix(ctx, rows)
            seen.append(m.is_alternating())
            assert seen[-1] == reference(m)
    assert True in seen and False in seen
    assert not Matrix(ctx, [[0, 1, 0], [-1, 0, 0]]).is_alternating()


# -- Pfaffian ---------------------------------------------------------------------------


def test_pfaffian_base_cases():
    assert pfaffian(Matrix(Q, [[0, 1], [-1, 0]])) == 1
    assert pfaffian(Matrix(Q, [[0, 5], [-5, 0]])) == 5
    empty = Matrix(Q, [])
    assert pfaffian(empty) == 1
    odd = alternating_from_upper(Q, 3, [1, 2, 3])
    assert pfaffian(odd) == 0


def test_pfaffian_4x4_closed_form():
    # Pf = a01*a23 - a02*a13 + a03*a12
    vals = [2, 3, 5, 7, 11, 13]
    m = alternating_from_upper(Q, 4, vals)
    a01, a02, a03, a12, a13, a23 = (Fraction(v) for v in vals)
    assert pfaffian(m) == a01 * a23 - a02 * a13 + a03 * a12


def test_pfaffian_dual_algorithms_agree():
    stream = CounterStream(derive_seed(5, "pf"))
    for ctx in (F3, F5, F7, Q):
        for n in (2, 4, 6):
            for _ in range(10):
                m = random_alternating(ctx, n, stream, box=9)
                assert pfaffian(m) == pfaffian_expansion(m)


def test_pfaffian_squares_to_determinant():
    stream = CounterStream(derive_seed(6, "pf2"))
    for ctx in (F5, Q):
        for n in (2, 4, 6):
            m = random_alternating(ctx, n, stream, box=9)
            pf = pfaffian(m)
            assert ctx.mul(pf, pf) == m.det()


def test_pfaffian_congruence_scaling():
    stream = CounterStream(derive_seed(7, "pfcong"))
    for ctx in (F5, Q):
        for n in (2, 4):
            m = random_alternating(ctx, n, stream, box=5)
            p = random_matrix(ctx, n, n, stream, box=5)
            lhs = pfaffian(p.T @ m @ p)
            assert lhs == ctx.mul(p.det(), pfaffian(m))


PF_FIELDS = [FieldCtx.prime(2), F7, FieldCtx.prime(2_147_483_629), Q]


def checked_pfaffian(m, want=None):
    """pfaffian(m), checked against the expansion oracle and ``want`` if given,
    against det as its square, and for the type of all three: an int over F_p
    and a Fraction over Q, since a float would pass every equality."""
    pf, expansion, det = pfaffian(m), pfaffian_expansion(m), m.det()
    kind = Fraction if m.ctx.kind == "rational" else int
    assert type(pf) is kind and type(expansion) is kind and type(det) is kind
    assert pf == expansion and (want is None or pf == want)
    assert m.ctx.mul(pf, pf) == det
    return pf


def nonzero(ctx, stream):
    while True:
        x = stream.element(ctx, 9)
        if x:
            return x


def fractional(ctx, n, coords):
    """An alternating matrix from upper coordinates, with non-integer entries over Q."""
    if ctx.kind == "rational":
        coords = [Fraction(c, k % 5 + 2) for k, c in enumerate(coords)]
    return alternating_from_upper(ctx, n, coords)


@pytest.mark.parametrize("ctx", PF_FIELDS, ids=FieldCtx.to_str)
@pytest.mark.parametrize("j", [1, 2, 3])
def test_pfaffian_pivots_on_the_first_nonzero_entry_of_row_0(ctx, j):
    # row 0 is zero before column j, so the first step pivots on a_0j, with
    # sign (-1)^(j-1), and the rest of the matrix is dense
    stream = CounterStream(derive_seed(9, "pfpivot", j))
    for n in (4, 6):
        for _ in range(5):
            coords = [0 if r == 0 and c < j else nonzero(ctx, stream) for r, c in upper_pairs(n)]
            m = fractional(ctx, n, coords)
            assert next(k for k, x in enumerate(m.row(0)) if x) == j
            checked_pfaffian(m)
    # the sign alone: a_0j a_kl on the one perfect matching of {0, j} and the rest
    rest = [k for k in range(1, 4) if k != j]
    coords = [3 if (r, c) in ((0, j), tuple(rest)) else 0 for r, c in upper_pairs(4)]
    sign = 1 if j % 2 else -1
    checked_pfaffian(alternating_from_upper(ctx, 4, coords), ctx.normalize(9 * sign))


@pytest.mark.parametrize("ctx", PF_FIELDS, ids=FieldCtx.to_str)
def test_pfaffian_zero_and_empty_cases_keep_the_field_type(ctx):
    stream = CounterStream(derive_seed(10, "pfzero"))
    # a zero row 0 under nonzero rows, at n = 4 and 6; an odd size
    for n in (4, 6):
        coords = [0 if r == 0 else nonzero(ctx, stream) for r, _ in upper_pairs(n)]
        checked_pfaffian(fractional(ctx, n, coords), ctx.zero())
    checked_pfaffian(fractional(ctx, 5, [stream.element(ctx, 9) for _ in upper_pairs(5)]), ctx.zero())
    # a dense row 0 whose first Schur complement is zero, its row 0 included:
    # Pf = a01 a23 - a02 a13 + a03 a12 = 0 - 1 + 1
    m = alternating_from_upper(ctx, 4, [1, 1, 1, 1, 1, 0])
    checked_pfaffian(m, ctx.zero())
    checked_pfaffian(Matrix(ctx, []), ctx.one())


def with_schur_complement(ctx, a, x, s):
    """The alternating A with A[0][1] = a, rows 0 and 1 beyond column 1 given by
    the two rows of x, and the Schur complement of its leading 2x2 block equal
    to s: the lower block is s - x^T B^-1 x with B^-1 = [[0, -1/a], [1/a, 0]]."""
    binv = Matrix(ctx, [[0, ctx.neg(ctx.inv(a))], [ctx.inv(a), 0]])
    c = s - x.T @ binv @ x
    n = s.nrows + 2
    rows = [[0, a, *x.row(0)], [ctx.neg(a), 0, *x.row(1)]]
    rows += [[ctx.neg(x[0, i]), ctx.neg(x[1, i]), *c.row(i)] for i in range(n - 2)]
    return Matrix(ctx, rows)


@pytest.mark.parametrize("ctx", PF_FIELDS, ids=FieldCtx.to_str)
def test_pfaffian_follows_the_schur_complement(ctx):
    # Pf(A) = a Pf(S) for A built around a chosen S; where S has a zero first
    # row the elimination stops there, one step in, and A itself is dense
    stream = CounterStream(derive_seed(11, "pfschur"))
    for n in (4, 6, 8):
        for vanish in (False, True):
            coords = [0 if vanish and r == 0 else stream.element(ctx, 9) for r, _ in upper_pairs(n - 2)]
            s = fractional(ctx, n - 2, coords)
            a = nonzero(ctx, stream)
            x = Matrix(ctx, [[nonzero(ctx, stream) for _ in range(n - 2)] for _ in range(2)])
            m = with_schur_complement(ctx, a, x, s)
            assert m.is_alternating()
            pf = checked_pfaffian(m, ctx.mul(a, pfaffian_expansion(s)))
            assert pf == 0 or not vanish


@pytest.mark.parametrize("ctx", PF_FIELDS, ids=FieldCtx.to_str)
@pytest.mark.parametrize("n", [10, 12])
def test_pfaffian_matches_the_expansion_at_sizes_10_and_12(ctx, n):
    stream = CounterStream(derive_seed(12, "pfbig", n))
    for spread in (3, 1):  # about one entry in three drawn, then all of them
        coords = [stream.element(ctx, 9) if stream.below(spread) == 0 else 0 for _ in upper_pairs(n)]
        checked_pfaffian(fractional(ctx, n, coords))


@pytest.mark.parametrize("ctx", PF_FIELDS, ids=FieldCtx.to_str)
def test_det_keeps_the_field_type_on_every_path(ctx):
    # empty, zero, a scalar, singular, one row swap, odd alternating
    cases = ([], [[0]], [[3]], [[1, 2], [2, 4]], [[0, 1], [1, 0]], fractional(ctx, 3, [1, 2, 3]).data)
    for rows in cases:
        m = Matrix(ctx, rows)
        assert type(m.det()) is (Fraction if ctx.kind == "rational" else int)
        assert type(m.rank()) is int
    assert Matrix(ctx, [[0, 1], [1, 0]]).det() == ctx.normalize(-1)


def test_pfaffian_lifts_f7_residues_with_the_sign_flip():
    # the one perfect matching {0,5} {1,4} {2,3} gives Pf = a05 a14 a23 = 1.
    # Below the diagonal the residues are 6, not -1 over Z: eliminating on
    # them as they are makes the exact divisions inexact, and Pf reads 0
    pairs = ((0, 2), (0, 3), (0, 5), (1, 4), (2, 3))
    m = alternating_from_upper(F7, 6, [1 if pair in pairs else 0 for pair in upper_pairs(6)])
    checked_pfaffian(m, 1)


@pytest.mark.parametrize("n", range(11))
def test_fractional_pfaffians_square_to_the_sympy_determinant(n):
    # unequal denominators 2 to 6, so the common denominator L is not 1 and
    # Pf carries L^(n/2) where det carries L^n
    pytest.importorskip("sympy")
    stream = CounterStream(derive_seed(13, "pffrac", n))
    for _ in range(3 if n < 10 else 1):
        m = fractional(Q, n, [stream.element(Q, 9) for _ in upper_pairs(n)])
        pf = checked_pfaffian(m)
        assert sympy_element(Q, pf) ** 2 == sympy_matrix(Q, m.data, m.shape).det()


def test_pfaffian_congruence_with_fractional_entries():
    stream = CounterStream(derive_seed(14, "pfcongfrac"))
    for n in (2, 4, 6, 8):
        for _ in range(3):
            a = fractional(Q, n, [stream.element(Q, 9) for _ in upper_pairs(n)])
            p = Matrix(Q, [[Fraction(stream.element(Q, 9), stream.below(6) + 1) for _ in range(n)] for _ in range(n)])
            assert checked_pfaffian(p.T @ a @ p) == p.det() * pfaffian(a)


def test_span_dim_of_fractional_rows_matches_sympy_rank():
    pytest.importorskip("sympy")
    rng = random.Random(15)
    assert span_dim(Q, []) == 0
    for trial in range(60):
        k, width = rng.randint(1, 7), rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.6 else 0 for _ in range(width)]
            for _ in range(k)
        ]
        if trial % 3 == 0 and k > 2:  # a row in the span of the first two
            rows[-1] = [x * Fraction(2, 3) - Fraction(y, 5) for x, y in zip(rows[0], rows[1])]
        assert span_dim(Q, rows) == sympy_matrix(Q, rows, (k, width)).rank()


def test_alternating_rank_is_even():
    stream = CounterStream(derive_seed(8, "even"))
    for _ in range(50):
        m = random_alternating(F5, 5, stream)
        assert m.rank() % 2 == 0


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6))
def test_pfaffian_agreement_hypothesis(coords):
    m = alternating_from_upper(F5, 4, coords)
    assert pfaffian(m) == pfaffian_expansion(m)
    assert F5.mul(pfaffian(m), pfaffian(m)) == m.det()


def test_json_round_trip():
    m = Matrix(F7, [[1, 2], [3, 4]])
    assert Matrix.from_json(m.to_json()) == m
    mq = Matrix(Q, [[Fraction(1, 3), 2]])
    assert Matrix.from_json(mq.to_json()) == mq


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_json_round_trip_of_empty_shapes(shape):
    m = Matrix.zeros(F5, *shape)
    back = Matrix.from_json(m.to_json())
    assert back == m and back.shape == shape


@pytest.mark.parametrize("key", ["rows", "cols"])
@pytest.mark.parametrize("bad", [-1, True, False, "2", 2.0, None])
def test_json_shape_must_be_non_negative_ints(key, bad):
    obj = Matrix.zeros(F5, 1, 1).to_json() | {key: bad}
    with pytest.raises(ValueError):
        Matrix.from_json(obj)


def _product_operand(ctx, rng, nrows, ncols):
    """Seeded entries: over F_p half of them within 3 of p - 1 (big-integer
    products at p near 2^31), over Q fractions with denominators up to 7."""

    def draw():
        if ctx.kind != "prime":
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        p = ctx.p
        return rng.randrange(max(0, p - 4), p) if rng.random() < 0.5 else rng.randrange(p)

    return Matrix(ctx, [[draw() for _ in range(ncols)] for _ in range(nrows)], ncols)


@pytest.mark.parametrize("ctx", [FieldCtx.prime(2), F7, F_BIG, Q], ids=["F2", "F7", "F2147483629", "Q"])
def test_product_matches_entrywise_reference(ctx):
    rng = random.Random(f"matmul-{ctx.to_str()}")
    shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1), (2, 5, 3), (5, 7, 3), (9, 9, 9), (4, 1, 6)]
    for m, k, n in shapes:
        for _ in range(3):
            a, b = _product_operand(ctx, rng, m, k), _product_operand(ctx, rng, k, n)
            prod = a @ b
            assert prod.shape == (m, n) and prod == reference_matmul(a, b)
            kind = int if ctx.kind == "prime" else Fraction
            assert all(type(x) is kind for row in prod.data for x in row)
            assert ctx.kind != "prime" or all(0 <= x < ctx.p for row in prod.data for x in row)
