"""Command-line interface: construct, verify, reduce, table, optimal-search,
counterexample.

Reports are JSON (or TSV for tables) written to stdout or an explicit path,
byte-identical for a fixed seed and flag set; timing goes to stderr.  Exit
codes: 0 success, 1 mathematical check failure, 2 usage error, 3 internal
check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__, analyze, families, reduction
from .errors import BudgetExceededError, ContractError
from .fields import FieldCtx
from .matrices import Matrix
from .spaces import AffineMatrixSpace, exhaustive_optimal_dimension
from .symplectic import FormSpacePair, phi_operators_to_forms, standard_symplectic

# each family's flags, in the order its usage error names them
FAMILY_NEEDS = {
    "nt": "n",
    "nonsingular-alt": "s",
    "m-tilde-alt": "ns",
    "h-plus": "r",
    "h-bar": "nr",
    "m-tilde-rect": "ns",
    "operator-block": "n",
    "counterexample-plane": "",
    "standard-symplectic": "s",
}
FAMILY_NAMES = tuple(FAMILY_NEEDS)


def _load_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_input(path: str, key: str):
    """The space (key "space") or form-space pair (key "pair") in a JSON file:
    either the bare object or a ``construct`` report, which holds it under key."""
    obj = _load_json(path)
    if isinstance(obj, dict) and isinstance(obj.get(key), dict):
        obj = obj[key]
    parse = FormSpacePair.from_json if key == "pair" else AffineMatrixSpace.from_json
    try:
        return parse(obj)
    except KeyError as exc:
        raise ValueError(f"{key} JSON is missing the key {exc.args[0]!r}") from None


def _report(command: str, ctx: Optional[FieldCtx], parameters: dict, seed: Optional[int]) -> dict:
    return {
        "command": command,
        "version": __version__,
        "field": ctx.to_str() if ctx is not None else None,
        "parameters": parameters,
        "seed": seed,
    }


def build_family(
    name: str,
    ctx: FieldCtx,
    *,
    n: Optional[int] = None,
    r: Optional[int] = None,
    s: Optional[int] = None,
    inner: Optional[AffineMatrixSpace] = None,
):
    """(space or pair, expected dimension, rank contract) for a family name."""
    if name not in FAMILY_NEEDS:
        raise ValueError(f"unknown family {name!r}")
    flags = {"n": n, "r": r, "s": s}
    if any(flags[f] is None for f in FAMILY_NEEDS[name]):
        raise ValueError(f"{name} needs " + " and ".join(f"--{f}" for f in FAMILY_NEEDS[name]))
    half = (r or 0) // 2
    if name == "nt":
        return families.build_strictly_upper_space(ctx, n), n * (n - 1) // 2, None
    if name == "nonsingular-alt":
        return families.build_invertible_alternating(ctx, s), s * (s - 1), ("constant", 2 * s)
    if name == "m-tilde-alt":
        sp = families.build_bordered_alternating(ctx, n, s, inner=inner)
        return sp, s * (n - s - 1), ("constant", 2 * s)
    if name == "h-plus":
        return families.build_corank_one_space(ctx, r, inner=inner), half * (half + 1), ("constant", r)
    if name == "h-bar":
        sp = families.build_rank_at_least_space(ctx, n, r, inner=inner)
        return sp, n * (n - 1) // 2 - half * half, ("at_least", r)
    if name == "m-tilde-rect":
        sp = families.build_row_block_family(ctx, n, s, inner=inner)
        return sp, s * (s - 1) // 2 + s * (n - 2 * s), ("constant", s)
    if name == "operator-block":
        return families.build_operator_block_space(ctx, n), n * (n - 1), None
    if name == "counterexample-plane":
        return families.build_counterexample_plane(ctx), 2, None
    return AffineMatrixSpace(standard_symplectic(ctx, s), []), 0, ("constant", 2 * s)


def _verify_rank(space, kind: str, value: int, budget: int, samples: int, seed: int):
    profile = analyze.rank_profile(space, budget=budget, seed=seed, samples=samples)
    if kind == "constant":
        ok = profile.min_rank == value and profile.max_rank == value
    else:
        ok = profile.min_rank >= value
    return ok, profile


# -- construct --------------------------------------------------------------------------


def cmd_construct(args) -> tuple[dict, bool]:
    ctx = FieldCtx.parse(args.field)
    inner = _load_input(args.inner, "space") if args.inner is not None else None
    built, expected, contract = build_family(args.family, ctx, n=args.n, r=args.r, s=args.s, inner=inner)
    report = _report(
        "construct",
        ctx,
        {"family": args.family, "n": args.n, "r": args.r, "s": args.s},
        args.seed,
    )
    results: dict = {"dimension": built.dim, "expected_dimension": expected}
    ok = built.dim == expected
    if isinstance(built, FormSpacePair):
        results["alternating_invariant"] = True  # validated at construction
        report["pair"] = built.to_json()
    else:
        if contract is not None:
            rank_ok, profile = _verify_rank(built, *contract, args.budget, args.sample, args.seed)
            results["rank"] = profile.to_json(ctx)
            results["rank_verdict"] = rank_ok
            ok = ok and rank_ok
        report["space"] = built.to_json()
    results["verdict"] = ok
    report["results"] = results
    return report, ok


# -- verify -----------------------------------------------------------------------------


def cmd_verify(args) -> tuple[dict, bool]:
    if args.check == "duality":
        pair = _load_input(getattr(args, "in"), "pair")
        holds = analyze.duality_invariant_check(pair, budget=args.budget)
        report = _report("verify", pair.ctx, {"check": args.check}, args.seed)
        report["results"] = {"holds": holds}
        return report, holds

    space = _load_input(getattr(args, "in"), "space")
    ctx = space.ctx
    params = {"check": args.check, "rank": args.rank, "profile_mode": args.profile_mode}
    report = _report("verify", ctx, params, args.seed)
    ok = True
    results: dict = {}
    if args.check == "rank-profile":
        if args.rank is None:
            profile = analyze.rank_profile(
                space, budget=args.budget, seed=args.seed, samples=args.sample
            )
        else:
            ok, profile = _verify_rank(
                space, args.profile_mode, args.rank, args.budget, args.sample, args.seed
            )
        results["profile"] = profile.to_json(ctx)
    elif args.check == "trivial-spectrum":
        rep = analyze.trivial_spectrum_check(space, args.budget)
        results["report"] = rep.to_json(ctx)
        ok = rep.trivial
    elif args.check == "flanders-atkinson":
        if args.rank is None:
            raise ValueError("flanders-atkinson needs --rank")
        r, n, base = args.rank, space.shape[0], space.base
        if not 0 <= r <= n:
            raise ValueError("rank bound out of range")
        if not base.block(0, n, r, n).is_zero() or not base.block(r, n, 0, n).is_zero():
            raise ValueError("base must be zero outside its leading block")
        lead = base.block(0, r, 0, r)
        # a dim-0 space has no generator to check its leading block against
        if space.basis and args.fa_mode != "alternating" and lead != Matrix.identity(ctx, r):
            raise ValueError("pencil and line modes need an identity leading block")
        reports = analyze.flanders_atkinson_check(space.basis, r, args.fa_mode, lead)
        results["generators"] = [rep.to_json() for rep in reports]
        ok = all(rep.conclusions_hold for rep in reports)
    else:
        raise ValueError(f"unknown check {args.check!r}")
    results["verdict"] = ok
    report["results"] = results
    return report, ok


# -- reduce -----------------------------------------------------------------------------


def cmd_reduce(args) -> tuple[dict, bool]:
    space = _load_input(getattr(args, "in"), "space")
    cert = reduction.canonical_reduction(
        space, args.rank, seed=args.seed, enum_budget=args.budget, samples=args.sample
    )
    report = _report("reduce", space.ctx, {"rank": args.rank}, args.seed)
    report["certificate"] = cert.to_json()
    report["results"] = {"all_verdicts_true": cert.all_verdicts_true}
    return report, cert.all_verdicts_true


# -- table ------------------------------------------------------------------------------


def dimension_table(
    ctxs: list[FieldCtx],
    r_values: list[int],
    n_min: int,
    n_max: int,
    *,
    budget: int = 10**6,
    samples: int = 10**5,
    seed: int = 0,
    rank_checks: bool = True,
) -> list[dict]:
    """Rows comparing closed-form dimensions against constructed families.

    For each (n, r, field) meeting the problem's ``families.field_size_bound``:
    the rank-at-least family, the constant-rank family (the bordered family,
    or the corank-one family at n = r+1), and at n = r both witnesses of the
    invertible problem.  Row order is fixed by (n, r, field, problem, family).
    """
    rows = []
    for n in range(n_min, n_max + 1):
        for r in r_values:
            if r > n:
                continue
            s = r // 2
            cells = [("rank_at_least", "h-bar")]
            cells.append(("constant_rank", "h-plus" if n == r + 1 else "m-tilde-alt"))
            if n == r:
                cells += [("invertible", "nonsingular-alt"), ("invertible", "operator-pullback")]
            for ctx in ctxs:
                for problem, family in cells:
                    if not ctx.cardinality_at_least(families.field_size_bound(problem, n, r)):
                        continue
                    theorem_dim = families.optimal_dimension_formula(n, r, problem)
                    if family == "operator-pullback":
                        pair, expected, _ = build_family("operator-block", ctx, n=s)
                        space, contract = phi_operators_to_forms(pair), ("constant", r)
                    else:
                        space, expected, contract = build_family(family, ctx, n=n, r=r, s=s)
                    row = {
                        "n": n,
                        "r": r,
                        "q": ctx.to_str(),
                        "problem": problem,
                        "family": family,
                        "theorem_dim": theorem_dim,
                        "constructed_dim": space.dim,
                        "agree": space.dim == theorem_dim == expected,
                    }
                    if rank_checks:
                        ok, profile = _verify_rank(space, *contract, budget, samples, seed)
                        row["rank_verdict"] = "pass" if ok else "fail"
                        row["method"] = profile.method
                        row["agree"] = row["agree"] and ok
                    else:
                        row["rank_verdict"] = "-"
                        row["method"] = "-"
                    rows.append(row)
    return rows


def cmd_table(args) -> tuple[str, bool]:
    ctxs = [FieldCtx.parse(f) for f in args.fields.split(",")]
    r_values = sorted({int(x) for x in args.r.split(",")})
    rows = dimension_table(
        ctxs,
        r_values,
        args.n_min,
        args.n_max,
        budget=args.budget,
        samples=args.sample,
        seed=args.seed,
        rank_checks=not args.skip_rank_verify,
    )
    header = [
        "n", "r", "q", "problem", "family",
        "theorem_dim", "constructed_dim", "rank_verdict", "method",
    ]
    lines = [
        f"# altrank {__version__} seed={args.seed} budget={args.budget} sample={args.sample}",
        "\t".join(header),
    ]
    ok = True
    for row in rows:
        ok = ok and row["agree"] and row["rank_verdict"] != "fail"
        lines.append("\t".join(str(row[k]) for k in header))
    return "\n".join(lines) + "\n", ok


# -- optimal search ----------------------------------------------------------------------


def cmd_optimal_search(args) -> tuple[dict, bool]:
    ctx = FieldCtx.parse(args.field)
    result = exhaustive_optimal_dimension(
        args.n,
        args.r,
        ctx,
        args.predicate,
        table_budget=args.table_budget,
        work_budget=args.work_budget,
    )
    problem = "constant_rank" if args.predicate == "constant-rank" else "rank_at_least"
    formula = families.optimal_dimension_formula(args.n, args.r, problem)
    report = _report(
        "optimal-search",
        ctx,
        {"n": args.n, "r": args.r, "predicate": args.predicate},
        None,
    )
    report["results"] = {
        "max_dim": result.max_dim,
        "exists_by_dim": {str(d): v for d, v in result.exists_by_dim.items()},
        "formula": formula,
        "agrees": result.max_dim == formula,
        "witness": result.witness.to_json(),
    }
    return report, result.max_dim == formula


# -- counterexample ----------------------------------------------------------------------


def cmd_counterexample(args) -> tuple[dict, bool]:
    ratctx = FieldCtx.rational()
    coeffs = families.pfaffian_form_coefficients(ratctx)
    coeffs_ok = all(coeffs[k] == 1 for k in ("xx", "yy", "zz")) and all(
        coeffs[k] == 0 for k in ("xy", "xz", "yz")
    )
    cert = families.certify_plane_anisotropy()
    plane = families.build_counterexample_plane(ratctx)
    profile = analyze.rank_profile(plane, budget=0, seed=args.seed, samples=args.sample)
    rational_ok = profile.min_rank == 4 and profile.max_rank == 4

    f3 = FieldCtx.prime(3)
    f5 = FieldCtx.prime(5)
    drop3 = families.plane_rank_drop_witness(f3)
    two5 = families.translation_rank_two_witness(f5)

    def witness(hit):
        return {"coords": [str(c) for c in hit[0]], "member": hit[1].to_json()} if hit else None

    report = _report("counterexample", None, {"samples": args.sample}, args.seed)
    report["results"] = {
        "pfaffian_form": {k: str(v) for k, v in sorted(coeffs.items())},
        "pfaffian_form_expected": coeffs_ok,
        "anisotropy_certificate": cert.to_json(),
        "rational_plane": profile.to_json(ratctx),
        "rational_all_rank_4": rational_ok,
        "mod_3_rank_drop": witness(drop3),
        "mod_5_rank_two": witness(two5),
    }
    ok = bool(coeffs_ok and cert.no_rank_two and rational_ok and drop3 and two5)
    report["results"]["verdict"] = ok
    return report, ok


# -- parser -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altrank",
        description="exact constructions and verification for affine spaces of alternating matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_field=True, with_sampling=True, with_budget=True):
        if with_field:
            p.add_argument("--field", required=True, help="Fp:<p> or Q")
        if with_sampling:
            p.add_argument("--seed", type=int, default=0, help="any integer, taken modulo 2^64")
        if with_budget:
            p.add_argument("--budget", type=int, default=10**6, help="max enumerated members")
        if with_sampling:
            p.add_argument("--sample", type=int, default=10**5, help="sample count past the budget")
        p.add_argument("--out", default="-", help="output path or - for stdout")

    p = sub.add_parser("construct", help="build a named family and verify its contract")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--inner", help="path to a space JSON overriding the inner family")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run a check against a space JSON")
    p.add_argument("--in", default="-", help="space JSON path or - for stdin")
    p.add_argument(
        "--check",
        required=True,
        choices=("rank-profile", "trivial-spectrum", "flanders-atkinson", "duality"),
    )
    p.add_argument("--rank", type=int)
    p.add_argument("--profile-mode", choices=("constant", "at-least"), default="constant")
    p.add_argument("--fa-mode", choices=("pencil", "line", "alternating"), default="alternating")
    common(p, with_field=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="run the canonical reduction pipeline")
    p.add_argument("--in", default="-", help="space JSON path or - for stdin")
    p.add_argument("--rank", type=int, required=True)
    common(p, with_field=False)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("table", help="dimension-formula table across a grid")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--r", default="2,4,6", help="comma-separated even ranks")
    p.add_argument("--fields", default="Fp:3,Fp:5,Fp:7", help="comma-separated fields")
    p.add_argument("--skip-rank-verify", action="store_true")
    common(p, with_field=False)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("optimal-search", help="exhaustive optimal dimension at tiny sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--predicate", choices=("constant-rank", "rank-at-least"), required=True)
    p.add_argument("--table-budget", type=int, default=10**6)
    p.add_argument("--work-budget", type=int, default=3 * 10**8)
    common(p, with_sampling=False, with_budget=False)
    p.set_defaults(func=cmd_optimal_search)

    p = sub.add_parser("counterexample", help="field-dependent rank behavior demonstration")
    common(p, with_field=False, with_budget=False)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        t0 = time.perf_counter()
        report, ok = args.func(args)  # a JSON object, or the text of a table
        print(f"[time] {args.command}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
        text = report if isinstance(report, str) else json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0 if ok else 1
    except ContractError as exc:
        print(f"contract failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, BudgetExceededError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # an internal invariant, such as the engine guard
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
