"""Exact oracles that the tests compare the package against.

None of these is reached from the command line, the pipeline or the
benchmark; they live here so that the package holds only what its commands
run.  The module has no ``test_`` prefix, so pytest does not collect it.
"""

from collections import Counter
from operator import mul

import numpy as np

from altrank import _engine
from altrank.analyze import first_singular
from altrank.fields import prime_below
from altrank.matrices import Matrix, integer_lift, pfaffian, upper_pairs
from altrank.rand import DEFAULT_RATIONAL_BOX, random_alternating
from altrank.spaces import Span, _coset_walk, _mod, equivalence_act, spaces_equal


def rank_multiset(sp, budget=10**4):
    """Exhaustive rank -> count map, ascending; budgeted, and refusing Q past dimension 0, as
    ``enumerate`` is.  Ranks come from ``Matrix.rank``, so the engine's scans have an oracle."""
    return dict(sorted(Counter(m.rank() for _, m in sp.enumerate(budget)).items()))


def member_at(sp, coords):
    """The member of sp at coords, one entry at a time: the tuple loop that
    ``AffineMatrixSpace.member_at``'s one stacked product replaced."""
    if len(coords) != sp.dim:
        raise ValueError("coordinate count mismatch")
    # each entry once: base + the sum of c * g over the nonzero c, normalized by the constructor
    terms = [(c, g.data) for c, g in zip(map(sp.ctx.normalize, coords), sp.basis) if c != 0]
    cs = [1, *(c for c, _ in terms)]
    rows = zip(sp.base.data, *(g for _, g in terms))
    return Matrix(sp.ctx, ([sum(map(mul, cs, col)) for col in zip(*r)] for r in rows))


def row_echelon_forward(ctx, stack):
    """``spaces._row_echelon`` as a forward elimination: each step makes the pivot row unit and clears its
    column in the rows below only, so a row is zero at the earlier rows' pivots but not at the later ones'.
    The (rank, w) rows, their pivots and the inputs that gave them."""
    a, pivots, kept, i = stack.copy(), [], [], 0
    while (nonzero := a[i:] != 0).any():
        skip, pc = divmod(int(nonzero.argmax()), a.shape[1])
        i += skip
        a[i] = _mod(ctx, a[i] * ctx.inv(a.item(i, pc)))
        a[i + 1 :] = _mod(ctx, a[i + 1 :] - a[i + 1 :, pc, None] * a[i])
        pivots.append(pc)
        kept.append(i)
        i += 1
    return a[kept], pivots, kept


def residuals_pivot_by_pivot(ctx, rows, pivots, out):
    """A stack reduced by the rows and pivots of ``row_echelon_forward``, in order, one step per pivot:
    the membership residuals before they were one stacked product by the reduced echelon."""
    for row, pc in zip(rows, pivots):
        out = _mod(ctx, out - out[:, pc, None] * row)
    return out


def nilpotent_flag_by_span(sp):
    """``spaces.nilpotent_flag`` one ``Span`` step at a time: Q_i is the ``Span`` of the rows of
    every ``Matrix`` product Q_(i-1) G, and the flag is greedy, the kernel vectors of Q_1, Q_2, ...
    and then the unit vectors, each taken while the ``Span`` of those taken does not contain it:
    the oracle for the word chain on the space's stack."""
    n, m = sp.shape
    if n != m:
        raise ValueError("members must be square")
    ctx = sp.ctx
    chain = [Matrix.identity(ctx, n)]
    while chain[-1].nrows:
        step = Span(ctx, [row for g in sp.basis for row in (chain[-1] @ g).data], width=n)
        if step.dim == chain[-1].nrows:
            return None
        chain.append(Matrix(ctx, step.rows))
    basis = []
    for v in [v for q in chain[1:-1] for v in q.kernel_basis()] + list(Matrix.identity(ctx, n).data):
        if not Span(ctx, basis, width=n).contains(v):
            basis.append(v)
    return Matrix(ctx, zip(*basis))


def flag_holds_by_span(basis, sp):
    """Whether the columns b_j of ``basis`` are a basis of F^n with G b_j in
    span(b_0..b_(j-1)) for every generator G of sp, one column at a time: ``det``,
    then a ``Span`` of b_0..b_(j-1) for each j that must contain every image column
    G b_j.  The oracle for ``analyze._flag_holds``'s one elimination."""
    n = sp.shape[0]
    if basis.shape != (n, n) or basis.det() == 0:
        return False
    cols, images = basis.T.data, [(g @ basis).T.data for g in sp.basis]
    spans = (Span(sp.ctx, cols[:j], width=n) for j in range(n))  # one per j, built as the check reaches it
    return all(below.contains(image[j]) for j, below in enumerate(spans) for image in images)


def level_nonempty_per_class(good, n, d, q):
    """Whether some d-flat of strict upper triangles lies in ``good``, shaped
    (q,) * m; for d >= 1, decided one congruence class of directions at a
    time: the decision that ``spaces._level_nonempty``'s walks per orbit of
    second directions replaced.

    Congruence X -> P^T X P keeps every rank and acts transitively on the
    alternating matrices of each rank 2k, so a good d-flat exists iff one
    exists whose direction space W holds w_k = e_01 + e_23 + ... +
    e_(2k-2)(2k-1) for some k.  Coordinate 0 of w_k (the pair (0, 1)) is 1,
    so W = <w_k> + (W meet {x_0 = 0}), and the flat is good iff its image in
    F_q^(m-1), a (d-1)-flat, holds only good cosets u + <w_k> (u_0 = 0): those
    with u + lambda w_k good for every lambda in F_q.
    """
    if d == 0:
        return bool(good.any())
    pairs = upper_pairs(n)
    for k in range(1, n // 2 + 1):
        axes = tuple(pairs.index((2 * i, 2 * i + 1)) for i in range(1, k))
        # entry u of the slice x_0 = lambda rolled back by lambda is u + lambda w_k;
        # each slice keeps its axis 0, so a roll never meets a 0-d array
        coset_good = np.logical_and.reduce([np.roll(good[lam : lam + 1], -lam, axis=axes) for lam in range(q)])
        if _coset_walk(coset_good[0], d - 1, q) is not None:
            return True
    return False


def rational_residues_by_matrix(sp, box):
    """``analyze._rational_residues`` with the integer lift taken of a ``Matrix`` rebuilt from the
    flattened base and generators, every entry normalized again: the construction that the lift
    of the space's own ``Fraction`` stack replaced."""
    rows, _ = integer_lift(Matrix(sp.ctx, [sp.base.flatten(), *(g.flatten() for g in sp.basis)]))
    ints = np.array(rows, dtype=object)
    base, basis = ints[0] - box * ints[1:].sum(axis=0), ints[1:]
    a = max(abs(ints[0]) + box * abs(basis).sum(axis=0), default=0)
    k = min(sp.shape)
    bound = (k * a * a) ** k
    residues, product, p = [], 1, 1 << 31
    while not residues or product * product <= bound:
        p = prime_below(p)
        product *= p
        residues.append((p, (base % p).astype(np.int64), (basis % p).astype(np.int64)))
    return residues


def random_invertible_alternating(ctx, n, stream, box=DEFAULT_RATIONAL_BOX):
    """First alternating matrix along the stream with a nonzero Pfaffian."""
    if n % 2 == 1:
        raise ValueError("odd alternating matrices are singular")
    while True:
        m = random_alternating(ctx, n, stream, box)
        if pfaffian(m) != 0:
            return m


def pencil_symplectic_iff_trivial_spectrum(k, g):
    """(every K + t G invertible, spectrum of K^{-1} G inside {0}); the two
    booleans agree whenever K is invertible alternating over a prime field.

    Both come from ``first_singular``: the pencil itself, and K^{-1} G - t I
    for t != 0."""
    if k.det() == 0:
        raise ValueError("pencil base must be invertible")
    minus_one = Matrix.identity(k.ctx, k.nrows).scale(-1)
    return first_singular(k, g) is None, first_singular(k.inverse() @ g, minus_one, 1) is None


def reference_matmul(a, b):
    """a @ b from the definition: entry (i, j) summed one ``ctx.mul``/``ctx.add``
    at a time, the oracle of the one-dot-per-entry ``Matrix.__matmul__``."""
    ctx = a.ctx
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = ctx.zero()
            for k in range(a.ncols):
                acc = ctx.add(acc, ctx.mul(a[i, k], b[k, j]))
            row.append(acc)
        rows.append(row)
    return Matrix(ctx, rows, b.ncols)


def reference_fa_conclusions(m, r, mode, gram=None):
    """(D_zero, moment_vanishing, first_failure) of one matrix M whose rank hypothesis holds,
    by ``Matrix`` products one generator at a time: the loop that ``flanders_atkinson_check``
    replaced by stacked products over the whole family.  Blocks split at r; the k-th moment
    is B^T K^-1 (A K^-1)^k B in alternating mode, with K = gram, and C A^k B otherwise."""
    n = m.nrows
    a, upper = m.block(0, r, 0, r), m.block(0, r, r, n)
    d = m.block(r, n, r, n)
    d_zero = d.is_zero()
    first = None if d_zero else ("D", d)
    # the k-th moment is left @ step^k @ y
    if mode == "alternating":
        kinv = gram.inverse()
        left, step, y = upper.T, kinv @ a, kinv @ upper
    else:
        left, step, y = m.block(r, n, 0, r), a, upper
    moments = []
    for k in range(r):
        prod = left @ y
        moments.append(prod.is_zero())
        if not moments[-1] and first is None:
            first = ("moment", (k, prod))
        y = step @ y
    return d_zero, tuple(moments), first


def lazy_totally_singular_witness(gram, vecs):
    """First (i, j), i <= j in row-major order, with vecs[i]^T gram vecs[j] != 0,
    or None: the scan that ``symplectic.totally_singular_witness`` replaced.

    Pure field arithmetic, no ``Matrix`` product: gram @ vecs[j] is formed
    when the scan first reaches column j, one ``ctx.mul``/``ctx.add`` at a time."""
    ctx = gram.ctx

    def dot(u, v):
        total = ctx.zero()
        for a, b in zip(u, v, strict=True):
            total = ctx.add(total, ctx.mul(a, b))
        return total

    images = []
    for i in range(len(vecs)):
        for j in range(i, len(vecs)):
            if j == len(images):
                images.append(tuple(dot(row, vecs[j]) for row in gram.data))
            if dot(vecs[i], images[j]) != 0:
                return (i, j)
    return None


# -- brute-force equivalence of small square spaces ------------------------------------------


def _gl_matrices(p, s):
    """GL_s(F_p) as a (k, s, s) stack, in lexicographic order of the
    flattened entry tuple: the coordinates of the unit-basis space are the
    entries themselves, ranked in one engine call."""
    mats = _engine.lex_coords(0, p ** (s * s), s * s, p).reshape(-1, s, s)
    return mats[_engine.batch_rank(mats.copy(), p) == s]


def brute_equivalence_test(x, y):
    """First (P, Q) in GL_s^2 lexicographic scan with P X Q == Y, else None.

    Deliberately refuses s >= 3 or q > 7: the search space past |GL_2(F_7)|^2
    stops being a meaningful brute-force certificate.  The scan is vectorized
    over blocks of P against all of Q; a witness is re-verified exactly.
    """
    if x.ctx != y.ctx or x.ctx.kind != "prime":
        raise ValueError("both spaces must live over one prime field")
    s = x.shape[0]
    if x.shape != (s, s) or y.shape != (s, s):
        raise ValueError("square spaces of equal size required")
    if s > 2 or x.ctx.p > 7:
        raise ValueError("brute-force envelope is s <= 2, q <= 7")
    if x.dim != y.dim:
        return None
    witness = _brute_equivalence_scan(x, y, _gl_matrices(x.ctx.p, s))
    if witness is None:
        return None
    pm, qm = (Matrix(x.ctx, g.tolist()) for g in witness)
    if not spaces_equal(equivalence_act(x, pm, qm), y):
        raise AssertionError("vectorized equivalence witness failed exact re-verification")
    return pm, qm


def _brute_equivalence_scan(x, y, gl):
    """The first (P, Q) of the scan as entries of ``gl``, or None."""
    # Membership in an affine space via its annihilator: v lies in the row
    # span of B iff v @ K == 0 for K a kernel basis of B (one zero row for a point).
    p = x.ctx.p
    s = x.shape[0]
    rows = [g.flatten() for g in y.basis] or [(0,) * (s * s)]
    kmat = np.array(Matrix(x.ctx, rows).kernel_basis(), dtype=np.int64).reshape(-1, s * s).T
    x_mats = [np.array(g.flatten(), dtype=np.int64).reshape(s, s) for g in (x.base, *x.basis)]
    y0 = np.array(y.base.flatten(), dtype=np.int64)
    count = len(gl)
    step = max(1, (1 << 20) // max(1, count))
    for lo in range(0, count, step):
        p_blk = gl[lo : lo + step]
        ok = np.ones((len(p_blk), count), dtype=bool)
        for t, xm in enumerate(x_mats):
            px = p_blk @ xm % p
            pxq = px[:, None] @ gl[None] % p
            flat = pxq.reshape(pxq.shape[0], pxq.shape[1], s * s)
            if t == 0:
                flat = (flat - y0) % p
            ok &= ~(flat @ kmat % p).any(axis=2)
            if not ok.any():
                break
        if ok.any():
            a, b = np.argwhere(ok)[0]
            return gl[lo + int(a)], gl[int(b)]
    return None
