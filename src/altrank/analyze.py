"""Verification engine: rank profiles, spectrum scans, and conclusion checkers.

Every check is exact.  Enumeration-scale work is delegated to the batched
prime-field engine; witnesses coming back from it are re-verified with the
pure arithmetic in this package before they are reported; a nilpotent flag
(``spaces.nilpotent_flag``) is proved by one exact ``rref`` before it is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _engine, rand
from .errors import BudgetExceededError, ContractError
from .fields import FieldCtx, prime_below
from .matrices import Matrix, Vector, place_blocks
from .spaces import AffineMatrixSpace, Span, equivalence_images, exact_rank, independent_matrices, nilpotent_flag
from .symplectic import totally_singular_witness

DEFAULT_ENUM_BUDGET = 10**6
DEFAULT_SAMPLES = 10**5


@dataclass(frozen=True)
class RankProfile:
    """Observed rank extremes of a matrix space."""

    min_rank: int
    max_rank: int
    method: str  # "exhaustive" | "sampled"
    checked: int
    seed: Optional[int]
    witness_min: tuple
    witness_max: tuple

    @property
    def constant(self) -> bool:
        return self.min_rank == self.max_rank

    def to_json(self, ctx: FieldCtx) -> dict:
        def enc(coords):
            return [ctx.element_to_str(c) for c in coords]

        obj = {
            "min_rank": self.min_rank,
            "max_rank": self.max_rank,
            "constant": self.constant,
            "method": self.method,
            "checked": self.checked,
            "witness_min": enc(self.witness_min),
            "witness_max": enc(self.witness_max),
        }
        if self.method == "sampled":
            obj["seed"] = self.seed
        return obj


def rank_profile(
    sp: AffineMatrixSpace,
    budget: int = DEFAULT_ENUM_BUDGET,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
) -> RankProfile:
    """Min/max rank over all members (exhaustive) or a seeded sample.

    Exhaustive mode runs when the member count is finite and within budget
    (over Q only at dimension zero); only exhaustive profiles can prove rank
    constancy.  Witnesses are the least enumeration or sample indices attaining
    each extreme, and each is re-ranked by the exact arithmetic.

    Over Q the sampled coordinates are integers in [-box, box] (``box`` is
    ``rand.DEFAULT_RATIONAL_BOX``) and the members are ranked by the F_p
    engine modulo several primes (see ``_rational_residues``); the largest
    of those ranks is the exact rank over Q.
    """
    q, exhaustive, count, residues = _engine_walk(sp, budget, samples)
    mn, mn_idx, mx, mx_idx = _engine.profile_ranks(
        residues, *sp.shape, q, exhaustive=exhaustive, total=count, seed=seed,
        alternating=sp.alternating,
    )
    wmin, wmax = (_member_coords(sp, i, exhaustive, q, seed) for i in (mn_idx, mx_idx))
    for coords, expect in dict.fromkeys([(wmin, mn), (wmax, mx)]):  # once if one member has both
        exact_rank(sp.member_at(coords), lambda ranks: ranks == expect)
    return RankProfile(
        mn, mx, "exhaustive" if exhaustive else "sampled", count, None if exhaustive else seed, wmin, wmax
    )


def first_member(
    sp: AffineMatrixSpace, accept: Callable[[np.ndarray], np.ndarray], *,
    budget: int = DEFAULT_ENUM_BUDGET, samples: int = DEFAULT_SAMPLES, seed: int = 0,
) -> Optional[tuple[tuple, Matrix]]:
    """First member, as (coords, member), whose rank satisfies ``accept`` (an
    elementwise predicate on ranks), or None.

    Members are walked as in ``rank_profile``: in enumeration order when
    exhaustive, in seeded sample order over ``samples`` draws otherwise.  One
    engine scan, ``accept`` applied to its arrays of ranks, finds the hit, and
    the hit alone is re-ranked by ``exact_rank``, ``accept`` applied to its
    exact rank.
    """
    q, exhaustive, count, residues = _engine_walk(sp, budget, samples)
    idx = _engine.first_index(
        residues, *sp.shape, q, accept, exhaustive=exhaustive, total=count, seed=seed,
        alternating=sp.alternating,
    )
    if idx < 0:
        return None
    coords = _member_coords(sp, idx, exhaustive, q, seed)
    member = sp.member_at(coords)
    exact_rank(member, accept)
    return coords, member


def first_singular(a: Matrix, b: Matrix, lo: int = 0) -> Optional[int]:
    """The least t in [lo, p) with a + t b singular, or None, for square a, b over a prime
    field: one exhaustive ``first_index`` pass over a + lo b + t b, by ``batch_rank`` even
    when a and b are alternating (on the skew path a short line would be ranked twice, once
    more by the guard), its hit re-ranked exactly.  With b = -I the answer is the least
    eigenvalue of a that is at least lo."""
    if a.ctx.kind != "prime":
        raise ValueError("pencil scan needs a prime field")
    n, p, start = a.nrows, a.ctx.p, a + b.scale(lo)
    singular = lambda ranks: ranks < n
    t = _engine.first_index(
        [(p, np.array(start.flatten(), dtype=np.int64), np.array([b.flatten()], dtype=np.int64))],
        n, n, p, singular, exhaustive=True, total=p - lo,
    )
    if t >= 0:
        exact_rank(start + b.scale(t), singular)
    return lo + t if t >= 0 else None


def _engine_walk(sp: AffineMatrixSpace, budget: int, samples: int):
    """(q, exhaustive, count, residues): how the engine walks the members of
    sp.  Over F_p every member when there are at most ``budget`` of them;
    over Q only at dimension zero.  Otherwise ``samples`` seeded draws, with
    coordinates in [0, q) taken as integers in [-box, box] over Q (``box``
    is ``rand.DEFAULT_RATIONAL_BOX``).  A negative budget, or a sampled
    walk of fewer than one sample, raises ValueError."""
    _check_budget(budget)
    if sp.ctx.kind == "prime":
        q = sp.ctx.p
        exhaustive = q**sp.dim <= budget
        residues = [(q, *sp.flat_arrays())]
    else:
        q = 2 * rand.DEFAULT_RATIONAL_BOX + 1
        exhaustive = sp.dim == 0
        residues = _rational_residues(sp, rand.DEFAULT_RATIONAL_BOX)
    if not exhaustive and samples < 1:
        raise ValueError(f"a sampled rank profile needs at least one sample, got {samples}")
    return q, exhaustive, q**sp.dim if exhaustive else samples, residues


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"the enumeration budget must be non-negative, got {budget}")


def _member_coords(sp: AffineMatrixSpace, index: int, exhaustive: bool, q: int, seed: int) -> tuple:
    """Coordinates of member ``index`` of the walk ``_engine_walk`` describes."""
    if exhaustive:
        return _engine.index_to_coords(index, sp.dim, q)
    shift = 0 if sp.ctx.kind == "prime" else rand.DEFAULT_RATIONAL_BOX
    row = _engine.sampled_coords(seed, index, index + 1, sp.dim, q)[0]
    return tuple(sp.ctx.normalize(int(c) - shift) for c in row)


def _rational_residues(sp: AffineMatrixSpace, box: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Engine arrays (p, base_flat, basis_flat), one per prime, whose largest
    rank is the rank over Q of every member ``base + c @ basis`` with c in
    [-box, box]^dim.  The base is shifted by ``-box * sum(basis)``, so the
    engine's coordinates are c + box, in [0, 2 box + 1).

    Scaling by the lcm L of all denominators (``integer_stack``) keeps every
    rank and makes every entry of a scaled member an integer of absolute value
    at most A, the largest |L base_e| + box * sum_t |L basis_te|.  By
    Hadamard's bound every minor is then at most (k A^2)^(k/2) in absolute
    value, k = min(n, m).  A rank mod p never exceeds the rank over Q, and a
    nonzero maximal minor below the product of the primes is nonzero modulo one
    of them; so primes go downward from 2^31 until (prod p)^2 > (k A^2)^k.
    """
    ints = sp.integer_stack()
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


@dataclass(frozen=True)
class TrivialSpectrumReport:
    checked: int
    witness: Optional[tuple]  # (member, eigenvalue)

    @property
    def trivial(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.trivial

    def to_json(self, ctx=None) -> dict:
        obj = {"trivial": self.trivial, "checked": self.checked}
        if self.witness is not None:
            m, lam = self.witness
            obj["witness_member"] = m.to_json()
            obj["witness_eigenvalue"] = m.ctx.element_to_str(lam)
        return obj


def _flag_holds(basis: Matrix, sp: AffineMatrixSpace) -> bool:
    """Whether the columns of ``basis`` are a basis of F^n in which every generator of sp is strictly
    upper triangular, by one exact ``rref`` of [B | G_1 B | ... | G_k B]: its first n pivots must be
    0..n-1 (B is invertible) and the right blocks B^-1 G_i B of [I | B^-1 G_1 B | ...] strictly upper."""
    n = sp.shape[0]
    if basis.shape != (n, n):
        return False
    blocks = [(0, t * n, b) for t, b in enumerate([basis] + [g @ basis for g in sp.basis])]
    reduced, pivots = place_blocks(sp.ctx, n, (sp.dim + 1) * n, blocks).rref()
    return pivots[:n] == tuple(range(n)) and not any(
        row[k * n + j] for a, row in enumerate(reduced.data) for k in range(1, sp.dim + 1) for j in range(a + 1))


def _checked_flag(sp: AffineMatrixSpace) -> bool:
    """Whether ``nilpotent_flag`` finds a flag of sp, re-checked exactly."""
    flag = nilpotent_flag(sp)
    if flag is not None and not _flag_holds(flag, sp):
        raise AssertionError("nilpotent flag failed exact re-verification")
    return flag is not None


def invertible_by_flag(sp: AffineMatrixSpace) -> bool:
    """Whether a nilpotent flag of the B_0^-1 G_i proves every member B_0 + sum x_i G_i of a
    square space invertible, as B_0 times the unipotent I + sum x_i B_0^-1 G_i.  False proves nothing."""
    try:
        b0inv = sp.base.inverse()
    except ValueError:  # B_0 is singular
        return False
    ctx, n = sp.ctx, sp.shape[0]
    _, *gens = equivalence_images([sp.base, *sp.basis], b0inv, Matrix.identity(ctx, n))  # B_0: never an empty stack
    return _checked_flag(AffineMatrixSpace(Matrix.zeros(ctx, n), gens))


def trivial_spectrum_check(
    sp: AffineMatrixSpace, budget: int = DEFAULT_ENUM_BUDGET
) -> TrivialSpectrumReport:
    """Whether no member of a linear space has a nonzero eigenvalue.

    First ``nilpotent_flag``: a basis in which every generator is strictly
    upper triangular makes every member nilpotent, with no nonzero eigenvalue
    in any extension of F_p.  The basis is re-checked exactly before it is
    trusted.  Without one, the line scan decides, and it sees eigenvalues in
    F_p only: eigenvalue sets scale along with members, so
    ``_engine.unit_eigen_hits`` decides each line by rank(z^(p-1) - I) < n at
    its member z with leading coordinate 1 (lex indices [p^k, 2 p^k)).  Either
    way ``checked`` counts all p^dim members, but only the line scan is held
    to the budget: the flag enumerates nothing.  The witness is
    the first (member, eigenvalue) pair in member-major, eigenvalue-minor
    order: the first hit, the least member of its line, with its least
    nonzero eigenvalue in F_p, found by ``first_singular`` on
    member - t I and re-ranked there exactly.  A negative budget raises
    ValueError.
    """
    ctx = sp.ctx
    if ctx.kind != "prime":
        raise ValueError("spectrum scan needs a prime field")
    if not sp.base.is_zero():
        raise ValueError("spectrum scan is defined for linear spaces")
    if sp.shape[0] != sp.shape[1]:
        raise ValueError("members must be square")
    _check_budget(budget)
    p = ctx.p
    total = p**sp.dim
    if _checked_flag(sp):
        return TrivialSpectrumReport(total, None)
    if total > budget:
        raise BudgetExceededError(
            f"{total} members exceed the spectrum scan budget {budget}"
        )
    hits = _engine.unit_eigen_hits(sp.flat_arrays()[1], sp.shape[0], p)
    if len(hits) == 0:
        return TrivialSpectrumReport(total, None)
    member = sp.member_at(_engine.index_to_coords(int(hits[0]), sp.dim, p))
    lam = first_singular(member, Matrix.identity(ctx, sp.shape[0]).scale(-1), 1)
    if lam is None:
        raise AssertionError("spectrum witness failed exact re-verification")
    return TrivialSpectrumReport(total, (member, lam))


@dataclass(frozen=True)
class FAReport:
    """Outcome of a rank-degeneration conclusion check.

    When the rank hypothesis fails the conclusion fields are None and
    first_failure carries the ("hypothesis", witness) tag; else it is None, ("D", block)
    or ("moment", (k, product)), whose JSON detail is {"k": k, "witness": product}.
    """

    mode: str
    r: int
    hypothesis_held: bool
    D_zero: Optional[bool]
    moment_vanishing: Optional[tuple]
    first_failure: Optional[tuple]

    @property
    def conclusions_hold(self) -> bool:
        return bool(
            self.hypothesis_held and self.D_zero and all(self.moment_vanishing)
        )

    def to_json(self) -> dict:
        obj = {
            "mode": self.mode,
            "r": self.r,
            "hypothesis_held": self.hypothesis_held,
        }
        if self.hypothesis_held:
            obj["D_zero"] = self.D_zero
            obj["moment_vanishing"] = list(self.moment_vanishing)
        if self.first_failure is not None:
            kind, detail = self.first_failure
            if kind == "moment":
                detail = {"k": detail[0], "witness": detail[1].to_json()}
            obj["first_failure"] = {"kind": kind, "detail": detail.to_json() if isinstance(detail, Matrix) else detail}
        return obj


def flanders_atkinson_check(
    ms: Sequence[Matrix], r: int, mode: str, gram: Optional[Matrix] = None
) -> list[FAReport]:
    """Scan a rank-degeneration hypothesis and, if it holds, its conclusions,
    for each matrix M of ms: one report per matrix, in order.

    Modes:
      pencil       rank(s*J + t*M) <= r for all (s, t); J = I_r padded by zero
      line         rank(J + t*M) <= r for all t
      alternating  rank(J_K + t*M) <= r for all t; J_K = K padded by zero,
                   K invertible alternating, M alternating

    Conclusions with M split into blocks at row/column r:
    the lower-right block D vanishes, and the moment products vanish for
    k = 0..r-1 (B A^k C in the first two modes; B^T K^{-1} (A K^{-1})^k B in
    alternating mode).  Higher k reduce to these by Cayley-Hamilton.  Each line
    is scanned at t < min(p, r+2), which holds its least failure if any: the
    J + t*M of every M in one ``batch_rank`` stack, chunked by ``chunk_ranges``,
    and each M's least hit re-ranked exactly.  The conclusions are read off the
    same int64 stack: K^{-1} A and K^{-1} B once each in alternating mode, then one
    ``_matmul_mod`` product per moment for the whole family, exact for every p < 2^31; a
    ``Matrix`` is built only for a witness.  A pencil is one exact rank(M)
    plus its line: its first failure in (s, t) order is (0, 1, rank M) when
    rank M > r, and else the line's first (1, t), as s*J + t*M = s(J + (t/s)*M).

    The matrices share one field and one square shape.  The input, K and
    every M included, is validated and K inverted once for the whole
    family; an empty ms returns [] without looking at K.
    """
    if not ms:
        return []
    ctx, shape = ms[0].ctx, ms[0].shape
    if ctx.kind != "prime":
        raise ValueError("hypothesis scanning needs a prime field")
    if not ms[0].is_square or any(m.ctx != ctx or m.shape != shape for m in ms):
        raise ValueError("square matrices of one field and shape required")
    n = shape[0]
    if not 0 <= r <= n:
        raise ValueError("rank bound out of range")
    if mode not in ("pencil", "line", "alternating"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "alternating":
        if gram is None or gram.shape != (r, r):
            raise ValueError("alternating mode needs an r x r gram matrix")
        if not gram.is_alternating() or gram.det() == 0:
            raise ValueError("gram matrix must be invertible and alternating")
        if not all(m.is_alternating() for m in ms):
            raise ValueError("alternating mode needs an alternating matrix")
        kinv = np.array(gram.inverse().data, np.int64).reshape(r, r)
    j = place_blocks(ctx, n, n, [(0, 0, gram if mode == "alternating" else Matrix.identity(ctx, r))])
    # an (r+1)-minor of J + t*M nonzero at some t has degree <= r+1 in t, so it is nonzero at
    # some t <= r+1 too: one batch_rank stack of every J + t*M_i, member i * lines + t
    lines, jm = min(ctx.p, r + 2), np.array([x.data for x in (j, *ms)], np.int64).reshape(len(ms) + 1, n, n)
    ranks = np.empty(len(ms) * lines, dtype=np.int64)
    for lo, hi in _engine.chunk_ranges(0, ranks.size, n * n):
        i, t = np.divmod(np.arange(lo, hi), lines)
        ranks[lo:hi] = _engine.batch_rank(_engine.mod(jm[0] + t[:, None, None] * jm[1 + i], ctx.p), ctx.p)
    fails = ranks.reshape(len(ms), lines) > r
    firsts = np.where(fails.any(axis=1), fails.argmax(axis=1), -1).tolist()
    # the conclusions on the same stack, blocks split at r: moment k is left @ step^k @ y
    p, gens = ctx.p, jm[1:]
    a, upper, lower, d = gens[:, :r, :r], gens[:, :r, r:], gens[:, r:, :r], gens[:, r:, r:]
    if mode == "alternating":
        left, step, y = upper.transpose(0, 2, 1), *(_engine._matmul_mod(kinv, x, 0, p) for x in (a, upper))
    else:
        left, step, y = lower, a, upper
    moments = []
    for _ in range(r):
        moments.append(_engine._matmul_mod(left, y, 0, p))
        y = _engine._matmul_mod(step, y, 0, p)
    d_zero = (~d.any(axis=(1, 2))).tolist()
    zero_moments = [~x.any(axis=(1, 2)) for x in moments]
    reports = []
    for i, (m, t) in enumerate(zip(ms, firsts)):
        # pencil members at s = 0 have rank(M); each one at s != 0 has a line member's rank
        if mode == "pencil" and (rk := m.rank()) > r:
            reports.append(FAReport(mode, r, False, None, None, ("hypothesis", (0, 1, rk))))
        elif t >= 0:
            rk = exact_rank(j + m.scale(t), lambda ranks: ranks > r)
            reports.append(FAReport(mode, r, False, None, None, ("hypothesis", (1, t, rk))))
        else:
            vanish = tuple(bool(z[i]) for z in zero_moments)
            first = None if d_zero[i] else ("D", m.block(r, n, r, n))
            if first is None and not all(vanish):
                k = vanish.index(False)
                first = ("moment", (k, Matrix.from_residue_stack(ctx, moments[k][i : i + 1])[0]))
            reports.append(FAReport(mode, r, True, d_zero[i], vanish, first))
    return reports


def extract_range_lagrangian(ops: Sequence[Matrix], gram: Matrix) -> Optional[list[Vector]]:
    """Common range Lagrangian of an independent family of maps, if forced.

    ops spans a space of q' x p matrices (maps from F^p into a symplectic
    space of dimension q') in which every generator has totally singular
    range.  Above the dimension bound p*q'/2 the input is inconsistent;
    strictly below it no conclusion is available (None); at the bound with
    p > 2 the common column span must be a Lagrangian, which is verified and
    returned as a basis.
    """
    if not ops:
        return None
    ctx = gram.ctx
    qprime = gram.nrows
    if not gram.is_alternating() or gram.det() == 0:
        raise ValueError("gram matrix must be invertible and alternating")
    p = ops[0].ncols
    if p <= 2:
        raise ValueError("needs more than two source dimensions")
    for u in ops:
        if u.shape != (qprime, p) or u.ctx != ctx:
            raise ValueError("map shape or field mismatch")
    if len(independent_matrices(ops)) != len(ops):
        raise ValueError("generators must be independent")
    bound = p * qprime // 2
    if 2 * len(ops) > p * qprime:
        raise ValueError(f"dimension {len(ops)} exceeds the singular-range bound {bound}")
    for u in ops:
        if totally_singular_witness(gram, [u.col(j) for j in range(p)]) is not None:
            raise ValueError("a generator's range is not totally singular")
    if len(ops) < bound:
        return None

    vecs: list[Vector] = []
    for u in ops:
        vecs.extend(tuple(u.col(j)) for j in range(p))
    lag = Span(ctx, vecs)
    if lag.dim != qprime // 2:
        raise ContractError(
            f"combined range has dimension {lag.dim}, expected {qprime // 2}"
        )
    if totally_singular_witness(gram, lag.rows) is not None:
        raise ContractError("combined range is not totally singular")
    return lag.rows


def trivial_spectrum_gate(sp: AffineMatrixSpace, what: str, budget: int = DEFAULT_ENUM_BUDGET) -> None:
    """Raise unless no member of the linear square space sp has a nonzero eigenvalue.

    Over F_p this is ``trivial_spectrum_check``, and a failure raises
    ``ContractError`` naming ``what``, a member and its eigenvalue.  Over Q
    no finite scan decides it, so only a nilpotent flag, re-checked exactly,
    proves it; a flagless space raises ``BudgetExceededError``.
    """
    if sp.ctx.kind == "prime":
        report = trivial_spectrum_check(sp, budget)
        if not report.trivial:
            member, lam = report.witness
            raise ContractError(f"{what} fails the trivial-spectrum gate: {member!r} has eigenvalue {lam}")
    elif not sp.base.is_zero():
        raise ValueError("spectrum gate is defined for linear spaces")
    elif not _checked_flag(sp):
        raise BudgetExceededError(f"{what} has no nilpotent flag, the only proof of a trivial spectrum over Q")


def duality_invariant_check(pair, *, budget: int = DEFAULT_ENUM_BUDGET) -> bool:
    """Orthogonality invariant of a trivial-spectrum operator space S.

    Every nonzero x stays outside the orbit span S.x, and both x and S.x lie
    in the form-orthogonal of x.  This is a theorem once
    ``trivial_spectrum_gate`` passes on S, so the gate is the whole check:
    x in S.x means u x = x for some u in S, an eigenvalue 1; x^T K x = 0 as
    K is alternating; and (u x)^T K x = x^T (K u) x = 0, since K u is
    alternating (``FormSpacePair`` checks it) and so u^T K = K u.  A failed
    gate raises as ``trivial_spectrum_gate`` says; a negative budget raises
    ValueError.
    """
    _check_budget(budget)
    n = pair.gram.nrows
    trivial_spectrum_gate(AffineMatrixSpace(Matrix.zeros(pair.ctx, n, n), pair.operators), "operator space", budget)
    return True
