"""Acceptance gate: the eight headline contracts, one pass/fail line each.

Every check is exact (zero tolerance); runtime caps are asserted so a
regression that silently blows the budget fails loudly.
"""

import hashlib
import json
import time

from altrank import (
    AffineMatrixSpace,
    CounterStream,
    FieldCtx,
    Matrix,
    build_bordered_alternating,
    build_corank_one_space,
    build_counterexample_plane,
    build_invertible_alternating,
    build_operator_block_space,
    build_rank_at_least_space,
    build_strictly_upper_space,
    build_unitriangular_space,
    canonical_reduction,
    certify_plane_anisotropy,
    congruence_act,
    derive_seed,
    duality_invariant_check,
    exhaustive_optimal_dimension,
    flanders_atkinson_check,
    normalize_radical_to_tail,
    optimal_dimension_formula,
    pfaffian,
    pfaffian_expansion,
    pfaffian_form_coefficients,
    phi_operators_to_forms,
    plane_rank_drop_witness,
    random_alternating,
    random_invertible,
    rank_profile,
    spaces_equal,
    translation_rank_two_witness,
    trivial_spectrum_check,
    a_xyz,
)
from altrank.cli import dimension_table
from reference import (
    brute_equivalence_test,
    pencil_symplectic_iff_trivial_spectrum,
    random_invertible_alternating,
    rank_multiset,
)

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
QQ = FieldCtx.rational()

GRID_FIELDS = (F3, F5, F7)
GRID_RANKS = (2, 4, 6)
GRID_N_MAX = 9
MASTER_SEED = 20260814


def report(number, label, ok, t0):
    print(f"acceptance {number} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{time.monotonic() - t0:.1f}s]")


def test_01_dimension_formula_table():
    t0 = time.monotonic()
    rows = dimension_table(
        list(GRID_FIELDS), list(GRID_RANKS), 2, GRID_N_MAX, rank_checks=False
    )
    seen = {(row["n"], row["r"], row["q"], row["problem"], row["family"]) for row in rows}
    expected = set()
    for q, ctx in ((3, F3), (5, F5), (7, F7)):
        for r in GRID_RANKS:
            s = r // 2
            for n in range(r, GRID_N_MAX + 1):
                if q >= (n - 1 if n % 2 == 0 else n - 2):
                    expected.add((n, r, ctx.to_str(), "rank_at_least", "h-bar"))
                if q >= max(r - 1, 2 + s):
                    fam = "h-plus" if n == r + 1 else "m-tilde-alt"
                    expected.add((n, r, ctx.to_str(), "constant_rank", fam))
                if n == r and q >= r - 1:
                    expected.add((n, r, ctx.to_str(), "invertible", "nonsingular-alt"))
                    expected.add((n, r, ctx.to_str(), "invertible", "operator-pullback"))
    ok = seen == expected and all(
        row["theorem_dim"] == row["constructed_dim"] for row in rows
    )
    elapsed = time.monotonic() - t0
    report(1, "dimension formulas", ok and elapsed < 60, t0)
    assert seen == expected
    for row in rows:
        assert row["theorem_dim"] == row["constructed_dim"], row
    assert elapsed < 60


def grid_cells():
    """Every family the grid can build, hypothesis met or not."""
    for ctx in GRID_FIELDS:
        for r in GRID_RANKS:
            s = r // 2
            for n in range(r, GRID_N_MAX + 1):
                if n == r:
                    yield ctx, n, r, "nonsingular-alt", build_invertible_alternating(ctx, s), ("constant", r)
                    forms = phi_operators_to_forms(build_operator_block_space(ctx, s))
                    yield ctx, n, r, "operator-pullback", forms, ("constant", r)
                elif n == r + 1:
                    yield ctx, n, r, "h-plus", build_corank_one_space(ctx, r), ("constant", r)
                else:
                    yield ctx, n, r, "m-tilde-alt", build_bordered_alternating(ctx, n, s), ("constant", r)
                if n > r:
                    yield ctx, n, r, "h-bar", build_rank_at_least_space(ctx, n, r), ("at_least", r)


def test_02_rank_contracts_grid():
    t0 = time.monotonic()
    budget, samples = 10**6, 10**5
    failures = []
    pinned_example = None
    for ctx, n, r, family, sp, (kind, value) in grid_cells():
        prof = rank_profile(sp, budget=budget, samples=samples, seed=MASTER_SEED)
        want_method = "exhaustive" if ctx.p**sp.dim <= budget else "sampled"
        cell_ok = prof.method == want_method
        if prof.method == "sampled":
            cell_ok = cell_ok and prof.checked >= samples
        if kind == "constant":
            cell_ok = cell_ok and prof.min_rank == value == prof.max_rank
        else:
            cell_ok = cell_ok and prof.min_rank >= value
        if not cell_ok:
            failures.append((ctx.to_str(), n, r, family, prof))
        if (ctx, n, r, family) == (F3, 7, 4, "m-tilde-alt"):
            pinned_example = prof
    ok = not failures
    ok = ok and pinned_example is not None
    ok = ok and pinned_example.method == "exhaustive"
    ok = ok and pinned_example.checked == 6561
    ok = ok and pinned_example.min_rank == 4 == pinned_example.max_rank
    elapsed = time.monotonic() - t0
    report(2, "rank contracts", ok and elapsed < 300, t0)
    assert not failures, failures
    assert pinned_example.method == "exhaustive"
    assert pinned_example.checked == 6561
    assert pinned_example.min_rank == 4 == pinned_example.max_rank
    assert elapsed < 300


def test_03_exhaustive_optimality_tiny():
    t0 = time.monotonic()
    res4 = exhaustive_optimal_dimension(4, 4, F3, "constant-rank")
    res2 = exhaustive_optimal_dimension(4, 2, F3, "constant-rank")
    ok = (
        res4.max_dim == 2
        and res4.exists_by_dim[2] and not res4.exists_by_dim[3]
        and res2.max_dim == 2
        and res2.exists_by_dim[2] and not res2.exists_by_dim[3]
        and optimal_dimension_formula(4, 4, "invertible") == 2
        and optimal_dimension_formula(4, 2, "constant_rank") == 2
    )
    elapsed = time.monotonic() - t0
    report(3, "tiny-size optimality", ok and elapsed < 300, t0)
    assert ok
    assert elapsed < 300


def test_04_pfaffian_suite():
    t0 = time.monotonic()
    trials = 1000
    ok = True
    for ctx in (F3, F5, F7, QQ):
        for n in (2, 4, 6, 8):
            stream = CounterStream(derive_seed(MASTER_SEED, "pf", ctx.to_str(), n))
            for _ in range(trials):
                m = random_alternating(ctx, n, stream, box=5)
                pf = pfaffian(m)
                ok = ok and pf == pfaffian_expansion(m)
                ok = ok and ctx.mul(pf, pf) == m.det()
                ok = ok and m.rank() % 2 == 0
                if not ok:
                    break
    congr = True
    for ctx in (F3, F5, F7, QQ):
        stream = CounterStream(derive_seed(MASTER_SEED, "pf-congr", ctx.to_str()))
        for _ in range(50):
            a = random_alternating(ctx, 6, stream, box=3)
            p = random_invertible(ctx, 6, stream, box=3)
            congr = congr and pfaffian(p.T @ a @ p) == ctx.mul(p.det(), pfaffian(a))
    elapsed = time.monotonic() - t0
    report(4, "pfaffian suite", ok and congr and elapsed < 300, t0)
    assert ok
    assert congr
    assert elapsed < 300


def test_05_degeneration_conclusions():
    t0 = time.monotonic()
    violations = []
    for n, s, q in ((5, 1, 5), (7, 2, 5), (8, 2, 7)):
        ctx = FieldCtx.prime(q)
        r = 2 * s
        sp = build_bordered_alternating(ctx, n, s)
        for trial in range(200):
            stream = CounterStream(derive_seed(MASTER_SEED, "fa", n, s, q, trial))
            p0 = random_invertible(ctx, n, stream)
            moved = congruence_act(sp, p0)
            p1, k = normalize_radical_to_tail(moved.base)
            conj = congruence_act(moved, p1)
            for rep in flanders_atkinson_check(conj.basis, r, "alternating", gram=k):
                if not (rep.hypothesis_held and rep.conclusions_hold):
                    violations.append((n, s, q, trial, rep.first_failure))
    ok = not violations
    report(5, "degeneration conclusions", ok, t0)
    assert not violations, violations[:3]


# sha256 over the 100 certificates below, each fed in order as sorted-key JSON
CERTIFICATES_SHA256 = "e129e6d47e06c6ab126df3a733c612f466535250c6d404d1f32f4bea13f093d5"


def test_06_reduction_round_trip():
    t0 = time.monotonic()
    failures = []
    digest = hashlib.sha256()

    sp7 = build_bordered_alternating(F5, 7, 2)
    planted2 = build_unitriangular_space(F5, 2)
    for trial in range(50):
        stream = CounterStream(derive_seed(MASTER_SEED, "rt7", trial))
        p0 = random_invertible(F5, 7, stream)
        moved = congruence_act(sp7, p0)
        cert = canonical_reduction(moved, 4, seed=trial)
        digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
        good = all(cert.verdicts.values())
        good = good and spaces_equal(
            congruence_act(moved, cert.P),
            build_bordered_alternating(F5, 7, 2, inner=cert.recovered_M),
        )
        good = good and brute_equivalence_test(cert.recovered_M, planted2) is not None
        if not good:
            failures.append(("rt7", trial, cert.verdicts))

    sp9 = build_bordered_alternating(F7, 9, 3)
    planted3 = build_unitriangular_space(F7, 3)
    planted3_ranks = rank_multiset(planted3, budget=10**4)
    for trial in range(50):
        stream = CounterStream(derive_seed(MASTER_SEED, "rt9", trial))
        p0 = random_invertible(F7, 9, stream)
        moved = congruence_act(sp9, p0)
        cert = canonical_reduction(moved, 6, seed=trial)
        digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
        good = all(cert.verdicts.values())
        good = good and spaces_equal(
            congruence_act(moved, cert.P),
            build_bordered_alternating(F7, 9, 3, inner=cert.recovered_M),
        )
        good = good and cert.recovered_M.dim == 3
        good = good and rank_multiset(cert.recovered_M, budget=10**4) == planted3_ranks
        if not good:
            failures.append(("rt9", trial, cert.verdicts))

    pinned = digest.hexdigest() == CERTIFICATES_SHA256
    elapsed = time.monotonic() - t0
    report(6, "reduction round trip", not failures and pinned and elapsed < 600, t0)
    assert not failures, failures[:3]
    assert pinned, digest.hexdigest()
    assert elapsed < 600


def test_07_plane_counterexample():
    t0 = time.monotonic()
    coeffs = pfaffian_form_coefficients(QQ)
    form_ok = coeffs == {"xx": 1, "yy": 1, "zz": 1, "xy": 0, "xz": 0, "yz": 0}

    plane = build_counterexample_plane(QQ)
    prof = rank_profile(plane, samples=10**4, seed=MASTER_SEED)
    plane_ok = prof.method == "sampled" and prof.checked == 10**4
    plane_ok = plane_ok and prof.min_rank == 4 == prof.max_rank

    cert = certify_plane_anisotropy()
    aniso_ok = cert.anisotropic and cert.no_rank_two

    drop3 = plane_rank_drop_witness(F3)
    drop_ok = drop3 is not None
    if drop_ok:
        coords, member = drop3
        drop_ok = coords == (1, 1) and member == a_xyz(F3, 1, 1, 1) and member.rank() == 2

    two5 = translation_rank_two_witness(F5)
    two_ok = two5 is not None
    if two_ok:
        coords, member = two5
        two_ok = coords == (1, 2) and member == a_xyz(F5, 1, 2, 0) and member.rank() == 2

    ok = form_ok and plane_ok and aniso_ok and drop_ok and two_ok
    report(7, "plane counterexample", ok, t0)
    assert form_ok, coeffs
    assert plane_ok, prof
    assert aniso_ok
    assert drop_ok, drop3
    assert two_ok, two5


def test_08_spectrum_and_duality():
    t0 = time.monotonic()
    nt_ok = True
    for ctx in (F3, F5):
        for n in range(1, 6):
            nt = build_strictly_upper_space(ctx, n)
            nt_ok = nt_ok and nt.dim == n * (n - 1) // 2
            rep = trivial_spectrum_check(nt, budget=10**7)
            nt_ok = nt_ok and rep.trivial and rep.checked == ctx.p**nt.dim

    ops_ok = True
    for ctx in (F3, F5):
        for n in (2, 3):
            pair = build_operator_block_space(ctx, n)
            ops_ok = ops_ok and len(pair.operators) == n * (n - 1)
            ops_ok = ops_ok and all(
                (pair.gram @ u).is_alternating() for u in pair.operators
            )
            ops_ok = ops_ok and phi_operators_to_forms(pair).dim == n * (n - 1)
            ops_ok = ops_ok and duality_invariant_check(pair)
            if ctx is F3:
                op_space = AffineMatrixSpace(
                    Matrix.zeros(ctx, 2 * n, 2 * n), list(pair.operators)
                )
                spec = trivial_spectrum_check(op_space)
                ops_ok = ops_ok and spec.trivial and spec.checked == 3 ** (n * (n - 1))

    pencil_ok = True
    for size in (4, 6):
        stream = CounterStream(derive_seed(MASTER_SEED, "pencil", size))
        for _ in range(100):
            k = random_invertible_alternating(F7, size, stream)
            g = random_alternating(F7, size, stream)
            a, b = pencil_symplectic_iff_trivial_spectrum(k, g)
            pencil_ok = pencil_ok and a == b

    ok = nt_ok and ops_ok and pencil_ok
    report(8, "spectrum and duality", ok, t0)
    assert nt_ok
    assert ops_ok
    assert pencil_ok
