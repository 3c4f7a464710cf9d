"""The benchmark's workloads: inputs made from one seed, jobs, answer checks.

A job is one call a user of ``altrank`` would make, followed by a check of its
answer against the mathematical claim behind it.  ``setup(seed)`` builds a
workload's inputs and returns its jobs; running a job returns the program's
report (hashed for the byte-stability gate) and the number of members whose
rank or spectrum the call decided.  A failed check raises ``WrongAnswer``.

Calls go through the ``altrank`` package namespace at call time, so that the
traced run sees the wrapped functions.
"""

from __future__ import annotations

from collections import namedtuple

import altrank as A
from altrank import CounterStream, FieldCtx, Matrix, derive_seed

F3, F5, F7, F11 = (FieldCtx.prime(q) for q in (3, 5, 7, 11))
QQ = FieldCtx.rational()


class WrongAnswer(Exception):
    """A job's answer failed its mathematical check."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


Job = namedtuple("Job", "label run")


# -- grid: rank_profile on the acceptance rank grid -----------------------------------
#
# Every cell of the acceptance grid (q in {3,5,7}, r in {2,4,6}, r <= n <= 9, all
# families), with the enumeration budget and the sample count scaled down
# together from 10^6 / 10^5 so that a pass takes seconds, not minutes.  Both
# exhaustive and seeded-sampled cells remain.

GRID_BUDGET = 10**5
GRID_SAMPLES = 5000


def _grid_cells():
    for ctx in (F3, F5, F7):
        for r in (2, 4, 6):
            s = r // 2
            for n in range(r, 10):
                if n == r:
                    yield ctx, n, r, "nonsingular-alt", "constant", A.build_invertible_alternating(ctx, s)
                    forms = A.phi_operators_to_forms(A.build_operator_block_space(ctx, s))
                    yield ctx, n, r, "operator-pullback", "constant", forms
                elif n == r + 1:
                    yield ctx, n, r, "h-plus", "constant", A.build_corank_one_space(ctx, r)
                else:
                    yield ctx, n, r, "m-tilde-alt", "constant", A.build_bordered_alternating(ctx, n, s)
                if n > r:
                    yield ctx, n, r, "h-bar", "at_least", A.build_rank_at_least_space(ctx, n, r)


def _profile_job(sp, r, kind, budget, samples, seed):
    def run():
        prof = A.rank_profile(sp, budget=budget, samples=samples, seed=seed)
        exhaustive = sp.ctx.kind == "prime" and sp.ctx.p**sp.dim <= budget
        expect(prof.method == ("exhaustive" if exhaustive else "sampled"), f"method {prof.method}")
        expect(prof.checked == (sp.ctx.p**sp.dim if exhaustive else samples), f"checked {prof.checked}")
        if kind == "constant":
            expect(prof.min_rank == r == prof.max_rank, f"ranks {prof.min_rank}..{prof.max_rank}, want {r}")
        else:
            expect(prof.min_rank >= r, f"min rank {prof.min_rank} < {r}")
        return prof.to_json(sp.ctx), prof.checked
    return run


def setup_grid(seed: int) -> list[Job]:
    jobs = []
    for ctx, n, r, family, kind, sp in _grid_cells():
        label = f"{ctx.to_str()}/n{n}/r{r}/{family}"
        jobs.append(Job(label, _profile_job(sp, r, kind, GRID_BUDGET, GRID_SAMPLES, seed)))
    return jobs


# -- probe: the documented prime range (p < 2^31) ---------------------------------------
#
# Sampled cells at primes above the engine's 2^20 inverse-table limit, with the
# family construction inside the job, so that the defect counts as failed jobs.
# Small enough that, once they succeed, they would add well under 2% to a grid pass.

PROBE_PRIMES = (1_048_583, 2_147_483_629)
PROBE_SAMPLES = 200


def setup_probe(seed: int) -> list[Job]:
    jobs = []
    for p in PROBE_PRIMES:
        for family, n, kind, build in (
            ("h-bar", 4, "at_least", lambda ctx: A.build_rank_at_least_space(ctx, 4, 2)),
            ("m-tilde-alt", 5, "constant", lambda ctx: A.build_bordered_alternating(ctx, 5, 1)),
            ("h-plus", 3, "constant", lambda ctx: A.build_corank_one_space(ctx, 2)),
        ):
            def run(p=p, kind=kind, build=build):
                sp = build(FieldCtx.prime(p))
                return _profile_job(sp, 2, kind, GRID_BUDGET, PROBE_SAMPLES, seed)()
            jobs.append(Job(f"Fp:{p}/n{n}/r2/{family}", run))
    return jobs


# -- reduce: certified canonical reductions ----------------------------------------------
#
# Seeded random congruences of the bordered family, reduced with
# rank_certified=True and re-checked independently by set equality with the
# bordered model over the recovered inner family.  Six (9,6,7) reductions to two
# (7,4,5) ones keep the median and the tail inside the (9,6,7) cluster.

REDUCE_MIX = ((7, 2, F5, 2), (9, 3, F7, 6))  # (n, s, field, jobs per pass)


def setup_reduce(seed: int) -> list[Job]:
    jobs = []
    for n, s, ctx, count in REDUCE_MIX:
        sp = A.build_bordered_alternating(ctx, n, s)
        for trial in range(count):
            stream = CounterStream(derive_seed(seed, "reduce", n, trial))
            moved = A.congruence_act(sp, A.random_invertible(ctx, n, stream))
            trial_seed = derive_seed(seed, "reduce-trial", n, trial)

            def run(moved=moved, n=n, s=s, ctx=ctx, trial_seed=trial_seed):
                cert = A.canonical_reduction(moved, 2 * s, seed=trial_seed, rank_certified=True)
                expect(all(cert.verdicts.values()), f"verdicts {cert.verdicts}")
                m_space = cert.recovered_M
                expect(m_space.dim == s * (s - 1) // 2, f"recovered dimension {m_space.dim}")
                expect(A.spaces_equal(
                    A.congruence_act(moved, cert.P),
                    A.build_bordered_alternating(ctx, n, s, inner=m_space),
                ), "set equality re-check")
                # the base point plus the recovered family's invertibility scan
                return cert.to_json(), 1 + m_space.member_count()
            jobs.append(Job(f"{ctx.to_str()}/n{n}/r{2 * s}/trial{trial}", run))
    return jobs


# -- scan: trivial-spectrum scans and exhaustive optimal searches --------------------------
#
# Spectrum scans rank square M - I stacks (not alternating), so an
# alternating-only engine change should leave them unchanged.  Each scanned
# space is conjugated by a seeded invertible P (members P^-1 M P), which keeps
# the spectrum trivial and the member count, and makes the inputs depend on the
# seed.  The optimal searches are the only heavy users of echelon_bases and
# the numpy coset scan; their inputs are fixed by (n, r, q).

SCAN_UPPER = ((5, F3), (4, F3), (4, F5), (4, F7), (4, F11), (3, F11))
SCAN_OPERATORS = ((2, F3), (3, F3), (3, F5), (3, F7))
SCAN_OPTIMAL = ((4, 4, F3, "constant-rank", 2), (4, 2, F3, "constant-rank", 2), (4, 2, F3, "rank-at-least", 5))
SCAN_BUDGET = 2 * 10**6


def _conjugated(ctx, mats, stream):
    n = mats[0].nrows
    p = A.random_invertible(ctx, n, stream)
    pinv = p.inverse()
    return A.AffineMatrixSpace(Matrix.zeros(ctx, n, n), [pinv @ g @ p for g in mats])


def _spectrum_job(sp):
    def run():
        rep = A.trivial_spectrum_check(sp, budget=SCAN_BUDGET)
        expect(rep.trivial, "nontrivial spectrum")
        expect(rep.checked == sp.ctx.p**sp.dim, f"checked {rep.checked}")
        return rep.to_json(sp.ctx), rep.checked
    return run


def _optimal_job(n, r, ctx, predicate, want):
    def run():
        res = A.exhaustive_optimal_dimension(n, r, ctx, predicate)
        expect(res.max_dim == want, f"max_dim {res.max_dim}, want {want}")
        expect(res.exists_by_dim[want] and not res.exists_by_dim.get(want + 1, False),
               f"exists_by_dim {res.exists_by_dim}")
        report = {
            "max_dim": res.max_dim,
            "exists_by_dim": {str(d): v for d, v in sorted(res.exists_by_dim.items())},
            "witness": res.witness.to_json(),
        }
        return report, ctx.p ** (n * (n - 1) // 2)
    return run


def setup_scan(seed: int) -> list[Job]:
    jobs = []
    for n, ctx in SCAN_UPPER:
        stream = CounterStream(derive_seed(seed, "scan-upper", n, ctx.p))
        sp = _conjugated(ctx, A.build_strictly_upper_space(ctx, n).basis, stream)
        jobs.append(Job(f"spectrum/upper/{ctx.to_str()}/n{n}", _spectrum_job(sp)))
    for n, ctx in SCAN_OPERATORS:
        stream = CounterStream(derive_seed(seed, "scan-operators", n, ctx.p))
        sp = _conjugated(ctx, list(A.build_operator_block_space(ctx, n).operators), stream)
        jobs.append(Job(f"spectrum/operators/{ctx.to_str()}/n{n}", _spectrum_job(sp)))
    for n, r, ctx, predicate, want in SCAN_OPTIMAL:
        jobs.append(Job(f"optimal/{ctx.to_str()}/n{n}/r{r}/{predicate}", _optimal_job(n, r, ctx, predicate, want)))
    return jobs


# -- rational: the exact layer over Q ------------------------------------------------------
#
# Sampled rank profiles of the counterexample plane (constant rank 4 over Q) and
# the Q arm of the Pfaffian suite on seeded random alternating matrices.  A
# Pfaffian job checks a batch of matrices of one size, as the acceptance suite
# loops over one (field, size) at a time; single matrices take milliseconds,
# and their times swing with the machine far more than the batch's.

RATIONAL_PLANE_JOBS = 2
RATIONAL_PLANE_SAMPLES = 2500
RATIONAL_PFAFFIAN = ((4, 2), (6, 2), (8, 4))  # (n, batches per pass)
RATIONAL_BATCH = 25


def _pfaffian_job(mats):
    def run():
        reports = []
        for m in mats:
            pf = A.pfaffian(m)
            pfe = A.pfaffian_expansion(m)
            det = m.det()
            rank = m.rank()
            expect(pf == pfe, "pfaffian algorithms disagree")
            expect(pf * pf == det, "Pf^2 != det")
            expect(rank % 2 == 0 and (rank == m.nrows) == (pf != 0), f"rank {rank} with Pf {pf}")
            reports.append({"pf": str(pf), "det": str(det), "rank": rank})
        return reports, 0
    return run


def _plane_job(plane, seed):
    def run():
        prof = A.rank_profile(plane, samples=RATIONAL_PLANE_SAMPLES, seed=seed)
        expect(prof.method == "sampled" and prof.checked == RATIONAL_PLANE_SAMPLES,
               f"{prof.method} {prof.checked}")
        expect(prof.min_rank == 4 == prof.max_rank, f"ranks {prof.min_rank}..{prof.max_rank}")
        return prof.to_json(QQ), prof.checked
    return run


def setup_rational(seed: int) -> list[Job]:
    plane = A.build_counterexample_plane(QQ)
    jobs = [
        Job(f"plane/{k}", _plane_job(plane, derive_seed(seed, "plane", k)))
        for k in range(RATIONAL_PLANE_JOBS)
    ]
    for n, batches in RATIONAL_PFAFFIAN:
        stream = CounterStream(derive_seed(seed, "pf", QQ.to_str(), n))
        for b in range(batches):
            mats = [A.random_alternating(QQ, n, stream, box=5) for _ in range(RATIONAL_BATCH)]
            jobs.append(Job(f"pfaffian/n{n}/batch{b}", _pfaffian_job(mats)))
    return jobs


SETUP = {
    "grid": setup_grid,
    "reduce": setup_reduce,
    "scan": setup_scan,
    "rational": setup_rational,
    "probe": setup_probe,
}

# Nominal seconds per pass on the reference machine.  The number of passes in
# a run is fixed from --seconds and this value, never from the program's speed,
# so every commit does the same work and reports the same percentiles.
NOMINAL_PASS_S = {"grid": 4.0, "reduce": 7.7, "scan": 11.7, "rational": 2.5, "probe": 1.0}
