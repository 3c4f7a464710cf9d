import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from altrank import _engine
from altrank.cli import FAMILY_NAMES, FAMILY_NEEDS, build_family, dimension_table, main
from altrank.families import (
    build_bordered_alternating,
    build_counterexample_plane,
    build_invertible_alternating,
    build_operator_block_space,
    build_rank_at_least_space,
    build_strictly_upper_space,
    optimal_dimension_formula,
)
from altrank.fields import FieldCtx
from altrank.matrices import Matrix, place_blocks
from altrank.rand import CounterStream, derive_seed, random_alternating, random_invertible
from altrank.spaces import AffineMatrixSpace, congruence_act
from altrank.symplectic import FormSpacePair, phi_operators_to_forms, standard_symplectic

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F11 = FieldCtx.prime(11)
Q = FieldCtx.rational()


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_construct_reports_dimension_and_rank(tmp_path):
    code, text = run(
        tmp_path, "construct", "--family", "m-tilde-alt", "--field", "Fp:3", "--n", "6", "--s", "2"
    )
    assert code == 0
    report = json.loads(text)
    assert report["command"] == "construct"
    assert report["results"]["dimension"] == 6
    assert report["results"]["rank_verdict"] is True
    assert report["results"]["rank"]["method"] == "exhaustive"


def test_construct_is_byte_stable(tmp_path):
    args = ("construct", "--family", "h-bar", "--field", "Fp:3", "--n", "5", "--r", "4")
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first == second


def test_seed_is_taken_modulo_2_64(tmp_path):
    args = ("construct", "--family", "m-tilde-alt", "--field", "Fp:7", "--n", "9", "--s", "3", "--sample", "200")
    ranks = []
    for seed in ("-1", str((1 << 64) - 1), str(1 << 64), "0"):
        code, text = run(tmp_path, *args, "--seed", seed)
        assert code == 0
        rank = json.loads(text)["results"]["rank"]
        assert rank["method"] == "sampled"
        ranks.append((rank["witness_min"], rank["witness_max"]))
    assert ranks[0] == ranks[1] and ranks[2] == ranks[3] and ranks[0] != ranks[2]
    assert run(tmp_path, "counterexample", "--sample", "1", "--seed", "-1")[0] == 0


def test_construct_missing_parameter_is_usage_error(tmp_path):
    code, _ = run(tmp_path, "construct", "--family", "m-tilde-alt", "--field", "Fp:3", "--n", "6")
    assert code == 2


# sha256 of each report at fixed flags and seed: a refactor of the command
# line keeps every report byte for byte
CONSTRUCT_SHA256 = {
    "nt": "2bae46a0685b02392533c8d854aab082243d4965f3eeed1a60ece41581382a53",
    "nonsingular-alt": "ef77b28f8c3e669ff3a9818858a838d1a2636ec137830f7444dd29e5e558f666",
    "m-tilde-alt": "7a9066035c3a092c7fa4110319bdb9f1c3909c79f72f5ab3a2d7410b1b13c6af",
    "h-plus": "01035101fdd304923bf023494741c6095dbee1a928b7a97d01fbe52384a95032",
    "h-bar": "52ffdd08848b971d16d037ff4d34b9ea9bc7a6145492b9da87631e4d7f39f76e",
    "m-tilde-rect": "21094ac85cd7b1bac27a2786d9f41d10cb747e9be001fd7a1ad01a234c2cc23b",
    "operator-block": "de72940d75aa63c4da194c23add8cdadb8b11ac5592a80b7925d58a86eb396f7",
    "counterexample-plane": "eab6bef762991c4bfc3125ec560767a40693392aadf3f7726eaf2409a1c184fe",
    "standard-symplectic": "18a7b75035e5ff8f536e38f75c2339f606e38241378d17548edaed05721d3ee9",
}
TABLE_SHA256 = "b19596923d6b424bc245f7139647a06e77529864d61fc5f0a65c5a19839f3e5f"
COUNTEREXAMPLE_SHA256 = "b0c284541d402e5d82e2ab0f5d4a8b72dfa176b1c400eb3cad008c50fcf44e09"


def report_sha256(tmp_path, *argv):
    code, text = run(tmp_path, *argv)
    assert code == 0
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_construct_report_bytes_are_pinned(tmp_path, family):
    argv = ("construct", "--family", family, "--field", "Fp:5", "--n", "5", "--r", "4", "--s", "2")
    assert report_sha256(tmp_path, *argv) == CONSTRUCT_SHA256[family]


def test_table_and_counterexample_report_bytes_are_pinned(tmp_path):
    table = ("table", "--n-min", "2", "--n-max", "6", "--r", "2,4", "--fields", "Fp:3,Fp:5")
    assert report_sha256(tmp_path, *table) == TABLE_SHA256
    assert report_sha256(tmp_path, "counterexample", "--sample", "200") == COUNTEREXAMPLE_SHA256


NEEDS_MESSAGE = {
    "nt": "--n",
    "nonsingular-alt": "--s",
    "m-tilde-alt": "--n and --s",
    "h-plus": "--r",
    "h-bar": "--n and --r",
    "m-tilde-rect": "--n and --s",
    "operator-block": "--n",
    "standard-symplectic": "--s",
}


@pytest.mark.parametrize(
    "family, missing", [(family, flag) for family in FAMILY_NAMES for flag in FAMILY_NEEDS[family]]
)
def test_construct_without_a_needed_flag_names_every_flag(tmp_path, capsys, family, missing):
    argv = ["construct", "--family", family, "--field", "Fp:5"]
    for flag in FAMILY_NEEDS[family].replace(missing, ""):
        argv += [f"--{flag}", "4"]
    code, text = run(tmp_path, *argv)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {family} needs {NEEDS_MESSAGE[family]}\n"


def test_construct_unknown_family_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "vanishing", "--field", "Fp:3"])
    assert exc.value.code == 2


def test_verify_rank_profile_failure_exits_1(tmp_path):
    sp = build_rank_at_least_space(F3, 5, 4)
    src = tmp_path / "space.json"
    src.write_text(json.dumps(sp.to_json()))
    code, text = run(
        tmp_path, "verify", "--in", str(src), "--check", "rank-profile",
        "--rank", "6", "--profile-mode", "constant",
    )
    assert code == 1
    assert json.loads(text)["results"]["verdict"] is False
    code2, _ = run(
        tmp_path, "verify", "--in", str(src), "--check", "rank-profile",
        "--rank", "4", "--profile-mode", "at-least",
    )
    assert code2 == 0


def test_reduce_round_trip_via_cli(tmp_path):
    sp = build_bordered_alternating(F5, 5, 1)
    src = tmp_path / "space.json"
    src.write_text(json.dumps(sp.to_json()))
    code, text = run(tmp_path, "reduce", "--in", str(src), "--rank", "2")
    assert code == 0
    cert = json.loads(text)["certificate"]
    assert all(cert["verdicts"].values())


def test_reduce_nonconstant_space_exits_1_with_its_witness(tmp_path):
    sp = build_bordered_alternating(F5, 7, 2)
    stream = CounterStream(derive_seed(7, "cli-nonconstant"))
    moved = AffineMatrixSpace(sp.base + random_alternating(F5, 7, stream), sp.basis)
    src = tmp_path / "space.json"
    src.write_text(json.dumps(moved.to_json()))
    code, text = run(tmp_path, "reduce", "--in", str(src), "--rank", "4")
    report = json.loads(text)
    assert code == 1 and report["results"]["all_verdicts_true"] is False
    assert report["certificate"]["witnesses"]["failure"]


def test_reduce_past_the_inner_budget_proves_constant_rank(tmp_path):
    sp = build_bordered_alternating(F11, 11, 4)  # 11^6 inner members, proved by a flag
    src = tmp_path / "space.json"
    src.write_text(json.dumps(sp.to_json()))
    code, text = run(tmp_path, "reduce", "--in", str(src), "--rank", "8")
    assert code == 0 and json.loads(text)["results"]["all_verdicts_true"] is True
    with pytest.raises(SystemExit) as exc:  # reduce takes no --rank-certified option
        main(["reduce", "--in", str(src), "--rank", "8", "--rank-certified"])
    assert exc.value.code == 2


def test_construct_over_a_flagless_inner_family_past_the_budget_is_usage_error(tmp_path, capsys):
    # I + t [[0, 1], [a, 0]] has det 1 - a t^2, never 0 for a non-square a,
    # and no flag; its 1,000,003 members are past the budget, so nothing is proved
    p = 1_000_003
    a = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    ctx = FieldCtx.prime(p)
    inner = AffineMatrixSpace(Matrix.identity(ctx, 2), [Matrix(ctx, [[0, 1], [a, 0]])])
    src = tmp_path / "inner.json"
    src.write_text(json.dumps(inner.to_json()))
    code, text = run(
        tmp_path, "construct", "--family", "m-tilde-alt", "--field", f"Fp:{p}", "--n", "5", "--s", "2",
        "--inner", str(src),
    )
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.count("\n") == 1 and "no unipotent flag" in err


def test_reduce_small_field_is_usage_error(tmp_path, capsys):
    sp = build_bordered_alternating(F3, 7, 2)
    src = tmp_path / "space.json"
    src.write_text(json.dumps(sp.to_json()))
    code, _ = run(tmp_path, "reduce", "--in", str(src), "--rank", "4")
    assert code == 2  # cardinality hypothesis not met
    assert capsys.readouterr().err == "error: field must have at least 4 elements\n"


def test_reduce_takes_no_candidates_option(tmp_path):
    # the complement step is a proof and takes no options; its witness keeps
    # the count of 200 candidates that earlier scans drew and rejected
    sp = build_bordered_alternating(F5, 5, 1)
    src = tmp_path / "space.json"
    src.write_text(json.dumps(sp.to_json()))
    code, text = run(tmp_path, "reduce", "--in", str(src), "--rank", "2")
    report = json.loads(text)
    assert code == 0 and report["parameters"] == {"rank": 2}
    assert report["certificate"]["witnesses"]["complement_candidates_rejected"] == 200
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--in", str(src), "--rank", "2", "--candidates", "200"])
    assert exc.value.code == 2


def write_space(path, sp, alternating):
    """sp's JSON with its alternating entry set to the given value."""
    path.write_text(json.dumps(sp.to_json() | {"alternating": alternating}))
    return str(path)


def test_a_declared_false_on_alternating_data_changes_nothing(tmp_path):
    # the data decide: reduce and construct --inner accept the file, and every
    # report is the one the declared-true file gives
    moved = congruence_act(build_bordered_alternating(F5, 7, 2), random_invertible(F5, 7, CounterStream(5)))
    inner = build_invertible_alternating(F5, 2)
    runs = [
        ("reduce", moved, ("--rank", "4")),
        ("verify", moved, ("--check", "rank-profile", "--rank", "4", "--budget", "1000", "--sample", "2000")),
        ("construct", inner, ("--family", "h-bar", "--field", "Fp:5", "--n", "6", "--r", "4", "--budget", "1000")),
        ("construct", inner, ("--family", "h-plus", "--field", "Fp:5", "--r", "4")),
    ]
    for command, sp, argv in runs:
        option = "--inner" if command == "construct" else "--in"
        reports = []
        for declared in (True, False):
            path = write_space(tmp_path / f"declared-{declared}.json", sp, declared)
            code, text = run(tmp_path, command, option, path, *argv)
            assert code == 0
            reports.append(text)
        assert reports[0] == reports[1]
    assert json.loads(reports[0])["space"]["alternating"] is True


def test_a_declared_true_on_non_alternating_data_is_usage_error(tmp_path, capsys):
    path = write_space(tmp_path / "space.json", build_strictly_upper_space(F5, 3), True)
    for argv in (("verify", "--in", path, "--check", "rank-profile"), ("reduce", "--in", path, "--rank", "2"),
                 ("construct", "--family", "h-plus", "--field", "Fp:5", "--r", "2", "--inner", path)):
        code, text = run(tmp_path, *argv)
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("[time]")]
        assert code == 2 and text == ""
        assert err == ["error: alternating flag set on non-alternating data"]


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_json_round_trip_keeps_alternation_for_every_family(family):
    # an operator-block pair is checked through the forms it pulls back to
    built, _, _ = build_family(family, F5, n=5, r=2, s=2)
    sp = phi_operators_to_forms(built) if isinstance(built, FormSpacePair) else built
    back = AffineMatrixSpace.from_json(json.loads(json.dumps(sp.to_json())))
    assert back.alternating == sp.alternating == (family not in ("nt", "m-tilde-rect"))
    if family == "nt":  # the 1 x 1 zero space, with no generator, is alternating
        assert build_family(family, F5, n=1)[0].to_json()["alternating"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--rank", "2", "--sample", "-4", "--budget", "1"),
        ("reduce", "--rank", "2", "--sample", "0", "--budget", "1"),
        ("verify", "--check", "rank-profile", "--budget", "-3"),
        ("verify", "--check", "rank-profile", "--sample", "0", "--budget", "1"),
    ],
    ids=["reduce-negative-sample", "reduce-zero-sample", "verify-negative-budget", "verify-zero-sample"],
)
def test_malformed_walk_sizes_are_usage_errors(tmp_path, capsys, argv):
    sp = build_bordered_alternating(F5, 5, 1)
    src = tmp_path / "space.json"
    src.write_text(json.dumps(sp.to_json()))
    code, text = run(tmp_path, argv[0], "--in", str(src), *argv[1:])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("cols", [-5, True, "5"], ids=["negative", "bool", "string"])
def test_malformed_matrix_width_is_usage_error(tmp_path, capsys, cols):
    obj = build_bordered_alternating(F5, 5, 1).to_json()
    obj["base"]["cols"] = cols
    src = tmp_path / "space.json"
    src.write_text(json.dumps(obj))
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "rank-profile")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_construct_negative_symplectic_size_is_usage_error(tmp_path, capsys):
    code, text = run(tmp_path, "construct", "--family", "standard-symplectic", "--field", "Fp:3", "--s", "-1")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    code, text = run(tmp_path, "construct", "--family", "standard-symplectic", "--field", "Fp:3", "--s", "0")
    assert code == 0 and json.loads(text)["results"]["dimension"] == 0


def test_table_rows_and_agreement(tmp_path):
    out = tmp_path / "table.tsv"
    code = main([
        "table", "--n-min", "4", "--n-max", "5", "--r", "2,4",
        "--fields", "Fp:3,Fp:5", "--skip-rank-verify", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].split("\t")[:3] == ["n", "r", "q"]
    for line in lines[2:]:
        cells = line.split("\t")
        assert cells[5] == cells[6]  # theorem_dim == constructed_dim


def test_dimension_table_includes_both_invertible_witnesses():
    rows = dimension_table([F5], [4], 4, 4, rank_checks=False)
    fams = {row["family"] for row in rows if row["problem"] == "invertible"}
    assert fams == {"nonsingular-alt", "operator-pullback"}
    assert all(row["agree"] for row in rows)


def test_optimal_search_cli(tmp_path):
    code, text = run(
        tmp_path, "optimal-search", "--n", "3", "--r", "2", "--field", "Fp:3",
        "--predicate", "constant-rank",
    )
    assert code == 0
    results = json.loads(text)["results"]
    assert results["max_dim"] == 2 and results["agrees"]


def test_optimal_search_cli_at_n_zero(tmp_path):
    code, text = run(
        tmp_path, "optimal-search", "--n", "0", "--r", "0", "--field", "Fp:3",
        "--predicate", "constant-rank",
    )
    assert code == 0
    results = json.loads(text)["results"]
    assert results["max_dim"] == 0 == optimal_dimension_formula(0, 0, "constant_rank")
    assert results["agrees"] and results["exists_by_dim"] == {"0": True}


def test_optimal_search_cli_small_field_exception(tmp_path):
    """(4, 2, F_2) beats the constant-rank formula, so the search exits 1."""
    code, text = run(
        tmp_path, "optimal-search", "--n", "4", "--r", "2", "--field", "Fp:2",
        "--predicate", "constant-rank",
    )
    assert code == 1
    results = json.loads(text)["results"]
    assert results["max_dim"] == 3 and results["formula"] == 2
    assert results["agrees"] is False


def test_optimal_search_rejects_sampling_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(
            tmp_path, "optimal-search", "--n", "3", "--r", "2", "--field", "Fp:3",
            "--predicate", "constant-rank", "--budget", "5",
        )
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_counterexample_cli(tmp_path):
    code, text = run(tmp_path, "counterexample", "--sample", "200")
    assert code == 0
    results = json.loads(text)["results"]
    assert results["verdict"] is True
    assert results["pfaffian_form"] == {
        "xx": "1", "yy": "1", "zz": "1", "xy": "0", "xz": "0", "yz": "0",
    }
    assert results["mod_3_rank_drop"]["coords"] == ["1", "1"]
    assert results["mod_5_rank_two"]["coords"] == ["1", "2"]



@pytest.mark.parametrize(
    "space, path, value",
    [
        ("bordered", ["base", "data"], 5),
        ("plane", ["basis", 0, "data", 0, 1], "1/0"),
        ("bordered", ["base", "data", 0, 0], 3),
    ],
    ids=["non-list-data", "zero-denominator", "non-string-entry"],
)
def test_verify_malformed_space_is_usage_error(tmp_path, capsys, space, path, value):
    sp = build_bordered_alternating(F5, 5, 1) if space == "bordered" else build_counterexample_plane(Q)
    obj = sp.to_json()
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    src = tmp_path / "space.json"
    src.write_text(json.dumps(obj))
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "rank-profile", "--sample", "10")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "key, value",
    [
        ("basis", 5),
        ("base", 5),
        ("shape", 5),
        (None, "list"),
        ("field", 5),
        ("field", "Fp:7"),
        ("alternating", "no"),
    ],
    ids=["basis-5", "base-5", "shape-5", "top-level-list", "field-5", "field-mismatch", "alternating-string"],
)
def test_verify_malformed_space_fields_are_usage_errors(tmp_path, capsys, key, value):
    obj = build_bordered_alternating(F5, 5, 1).to_json()
    if key is None:
        obj = [obj]
    else:
        obj[key] = value
    src = tmp_path / "space.json"
    src.write_text(json.dumps(obj))
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "rank-profile", "--sample", "10")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("key", [None, "operators", "gram"], ids=["top-level-list", "operators-5", "gram-5"])
def test_verify_malformed_pair_is_usage_error(tmp_path, capsys, key):
    obj = build_operator_block_space(F3, 2).to_json()
    if key is None:
        obj = [obj]
    else:
        obj[key] = 5
    src = tmp_path / "pair.json"
    src.write_text(json.dumps(obj))
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "duality")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def readme_commands():
    """The argument lists of the ``altrank`` lines in README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("altrank ")]


@pytest.mark.parametrize("consumer", ["verify", "reduce"])
def test_readme_construct_pipelines_run_as_written(tmp_path, monkeypatch, capsys, consumer):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    at = next(i for i, argv in enumerate(commands) if argv[0] == consumer)
    assert commands[at - 1][0] == "construct"
    assert main(commands[at - 1]) == 0
    assert main(commands[at]) == 0, capsys.readouterr().err


def test_construct_operator_block_past_the_spectrum_budget(tmp_path):
    # the core's 11^6 members exceed the spectrum budget, but its common
    # nilpotent flag decides the gate without enumerating them
    code, text = run(tmp_path, "construct", "--family", "operator-block", "--field", "Fp:11", "--n", "4")
    results = json.loads(text)["results"]
    assert code == 0 and results["dimension"] == results["expected_dimension"] == 12


def test_main_times_and_writes_each_report_once(tmp_path, capsys):
    # one [time] line and one report per run, exit 1 included; a usage error
    # writes neither
    src = tmp_path / "space.json"
    src.write_text(json.dumps(build_strictly_upper_space(F3, 2).to_json()))
    for argv, want in [
        (("verify", "--in", str(src), "--check", "trivial-spectrum"), 0),
        (("verify", "--in", str(src), "--check", "rank-profile", "--rank", "2"), 1),
        (("table", "--n-min", "2", "--n-max", "2", "--r", "2", "--fields", "Fp:3"), 0),
    ]:
        code, text = run(tmp_path, *argv)
        err = capsys.readouterr().err.splitlines()
        assert code == want and text.endswith("\n")
        assert len(err) == 1 and err[0].startswith(f"[time] {argv[0]}: ")
        (tmp_path / "out.json").unlink()
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "flanders-atkinson")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: flanders-atkinson needs --rank\n"


def test_verify_duality_reads_a_construct_report(tmp_path):
    src = tmp_path / "pair.json"
    assert main(["construct", "--family", "operator-block", "--field", "Fp:3", "--n", "2", "--out", str(src)]) == 0
    assert "pair" in json.loads(src.read_text())
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "duality")
    assert code == 0 and json.loads(text)["results"]["holds"] is True


def test_verify_duality_failed_gate_exits_1_with_its_witness(tmp_path, capsys):
    src = tmp_path / "pair.json"
    src.write_text(json.dumps({
        "field": "Fp:3",
        "gram": standard_symplectic(F3, 1).to_json(),
        "operators": [Matrix.identity(F3, 2).to_json()],
    }))
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "duality")
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.splitlines() == [
        f"contract failure: operator space fails the trivial-spectrum gate: {Matrix.identity(F3, 2)!r} has eigenvalue 1"
    ]


def test_verify_duality_gate_runs_past_the_budget(tmp_path, capsys):
    # the span of I over F_3 has 3 members, each t I with eigenvalue t, and no
    # nilpotent flag, so past the budget the gate refuses with a usage error
    src = tmp_path / "pair.json"
    src.write_text(json.dumps({
        "field": "Fp:3",
        "gram": standard_symplectic(F3, 1).to_json(),
        "operators": [Matrix.identity(F3, 2).to_json()],
    }))
    capsys.readouterr()
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "duality", "--budget", "1")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.splitlines() == ["error: 3 members exceed the spectrum scan budget 1"]
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "duality")
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert len(err.splitlines()) == 1 and err.startswith("contract failure: ")


def test_verify_duality_over_q_without_a_flag_is_usage_error(tmp_path, capsys):
    # diag(S, S^T), S = [[0, 1], [1, 0]], fixes (1, 1, 0, 0), and over Q only
    # a nilpotent flag proves the invariant
    s = Matrix(Q, [[0, 1], [1, 0]])
    pair = FormSpacePair(standard_symplectic(Q, 2), [place_blocks(Q, 4, 4, [(0, 0, s), (2, 2, s.T)])])
    src = tmp_path / "pair.json"
    src.write_text(json.dumps(pair.to_json()))
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "duality")
    err = capsys.readouterr().err
    assert (code, text) == (2, "")
    assert err.splitlines() == [
        "error: operator space has no nilpotent flag, the only proof of a trivial spectrum over Q"
    ]


@pytest.mark.parametrize("check", ["duality", "trivial-spectrum"])
def test_verify_negative_spectrum_budget_is_usage_error(tmp_path, capsys, check):
    # with -1 the duality gate used to be skipped silently, and the scan said
    # that 27 members exceed the budget
    src = tmp_path / "input.json"
    if check == "duality":
        assert main(["construct", "--family", "operator-block", "--field", "Fp:3", "--n", "2", "--out", str(src)]) == 0
    else:
        src.write_text(json.dumps(build_strictly_upper_space(F3, 3).to_json()))
    capsys.readouterr()
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", check, "--budget", "-1")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.splitlines() == ["error: the enumeration budget must be non-negative, got -1"]


@pytest.mark.parametrize("key", ["basis", "field", "rows"])
def test_verify_space_missing_key_names_it(tmp_path, capsys, key):
    obj = build_bordered_alternating(F5, 5, 1).to_json()
    if key == "rows":
        del obj["base"]["rows"]
    else:
        del obj[key]
    src = tmp_path / "space.json"
    src.write_text(json.dumps({"command": "construct", "space": obj}))
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "rank-profile", "--sample", "10")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err == f"error: space JSON is missing the key {key!r}\n"


def test_internal_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    real = _engine.skew_rank

    def wrong(upper, n, p):
        ranks = real(upper, n, p)
        ranks[0] += 2
        return ranks

    monkeypatch.setattr(_engine, "skew_rank", wrong)
    src = tmp_path / "space.json"
    src.write_text(json.dumps(build_bordered_alternating(F5, 5, 1).to_json()))
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "rank-profile", "--rank", "4")
    err = capsys.readouterr().err
    assert code == 3 and text == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: skew elimination gave rank")


@pytest.mark.parametrize("mode", ["pencil", "line", "alternating"])
def test_verify_flanders_atkinson_failing_hypothesis_exits_1(tmp_path, mode):
    # the leading block J is I_2 (pencil, line) or the 2 x 2 symplectic K
    # (alternating); the generator adds a rank-2 block on the last two
    # coordinates, so J + tG has rank 4 from t = 1 on, and s = 0 never fails
    n = 4
    if mode == "alternating":
        lead = standard_symplectic(F5, 1)
        gen = place_blocks(F5, n, n, [(2, 2, lead)])
    else:
        lead = Matrix.identity(F5, 2)
        gen = place_blocks(F5, n, n, [(2, 2, Matrix.identity(F5, 2))])
    sp = AffineMatrixSpace(place_blocks(F5, n, n, [(0, 0, lead)]), [gen])
    src = tmp_path / "space.json"
    src.write_text(json.dumps(sp.to_json()))
    argv = ("verify", "--in", str(src), "--check", "flanders-atkinson", "--rank", "2", "--fa-mode", mode)
    code, text = run(tmp_path, *argv)
    assert code == 1
    assert run(tmp_path, *argv) == (code, text)
    results = json.loads(text)["results"]
    assert results["verdict"] is False
    [rep] = results["generators"]
    assert rep == {
        "mode": mode,
        "r": 2,
        "hypothesis_held": False,
        "first_failure": {"kind": "hypothesis", "detail": [1, 1, 4]},
    }
    assert all(type(x) is int for x in rep["first_failure"]["detail"])


@pytest.mark.parametrize("rank", ["99", "-3"])
def test_verify_flanders_atkinson_rank_out_of_range_is_usage_error(tmp_path, capsys, rank):
    # checked before the base is sliced, and even with no generator to scan
    lead, tail = Matrix(F5, [[1, 0], [0, 0]]), Matrix(F5, [[0, 0], [0, 1]])
    for sp in (AffineMatrixSpace(Matrix.zeros(F5, 2), []), AffineMatrixSpace(lead, [tail])):
        src = tmp_path / "space.json"
        src.write_text(json.dumps(sp.to_json()))
        capsys.readouterr()
        code, text = run(tmp_path, "verify", "--in", str(src), "--check", "flanders-atkinson", "--rank", rank)
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: rank bound out of range\n"


def test_verify_flanders_atkinson_validates_the_gram_once_for_all_generators(tmp_path, capsys):
    # K is checked only when there is a generator to scan against it: a dim-0
    # space with a singular leading block passes with no reports, while one
    # generator makes it a usage error; a non-alternating second generator is
    # rejected with the per-generator message
    n, k = 4, standard_symplectic(F5, 1)
    gen = place_blocks(F5, n, n, [(2, 2, k)])
    stray = Matrix(F5, [[1 if (i, j) == (0, 3) else 0 for j in range(n)] for i in range(n)])
    cases = [
        (AffineMatrixSpace(Matrix.zeros(F5, n, n), []), 0, "", "{"),
        (AffineMatrixSpace(Matrix.zeros(F5, n, n), [gen]), 2, "error: gram matrix must be invertible and alternating", ""),
        (AffineMatrixSpace(place_blocks(F5, n, n, [(0, 0, k)]), [gen, stray]), 2,
         "error: alternating mode needs an alternating matrix", ""),
    ]
    for sp, want_code, want_err, want_text in cases:
        src = tmp_path / "space.json"
        src.write_text(json.dumps(sp.to_json()))
        argv = ("verify", "--in", str(src), "--check", "flanders-atkinson", "--rank", "2", "--fa-mode", "alternating")
        code, text = run(tmp_path, *argv)
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("[time]")]
        assert code == want_code and text.startswith(want_text)
        assert err == ([want_err] if want_err else [])
        if code == 0:
            results = json.loads(text)["results"]
            assert results["generators"] == [] and results["verdict"] is True


def test_malformed_field_and_element_are_one_line_usage_errors(tmp_path, capsys):
    code, text = run(tmp_path, "construct", "--family", "nt", "--field", "Fp:x", "--n", "3")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: unrecognized field spec 'Fp:x'\n"
    obj = build_counterexample_plane(Q).to_json()
    obj["base"]["data"][0][1] = "1/2/3"
    src = tmp_path / "space.json"
    src.write_text(json.dumps(obj))
    code, text = run(tmp_path, "verify", "--in", str(src), "--check", "rank-profile", "--sample", "10")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: malformed element '1/2/3' for Q\n"


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.sampled_from(["", "x", "-1", "1/2", "1/2/3", "1e5", "1/0", "Q", "Fp:x", "Fp:4", "Fp:7"]),
    st.sampled_from([[], {}, [[]], ["1"]]),
)


def mutated(data, obj):
    """obj with one value replaced by junk, one key or list entry dropped, or
    one list entry duplicated."""
    if not isinstance(obj, (dict, list)) or not obj:
        return data.draw(JUNK)
    if isinstance(obj, dict):
        key, out = data.draw(st.sampled_from(list(obj))), dict(obj)
        action = data.draw(st.sampled_from(["descend", "drop", "replace"]))
    else:
        key, out = data.draw(st.sampled_from(range(len(obj)))), list(obj)
        action = data.draw(st.sampled_from(["descend", "drop", "duplicate", "replace"]))
    if action == "drop":
        del out[key]
    elif action == "duplicate":
        out.insert(key, out[key])
    elif action == "replace":
        return data.draw(JUNK)
    else:
        out[key] = mutated(data, obj[key])
    return out


# over F_2, base J = I_4 padded and one generator with D = 0 and C B = 1 whose rank hypothesis
# holds at r = 4 (J + tG is singular at t = 0 and 1): its moment k = 0 fails
MOMENT_SPACE = AffineMatrixSpace(
    place_blocks(FieldCtx.prime(2), 5, 5, [(0, 0, Matrix.identity(FieldCtx.prime(2), 4))]),
    [Matrix(FieldCtx.prime(2), [[0, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]])],
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_space_json_never_ends_in_a_traceback(tmp_path, capsys, data):
    """Fuzzing: a space file, kept as written or mutated, is parsed by ``from_json``,
    or refused with ValueError (KeyError for a missing key, which ``main`` maps to
    exit 2), and every ``verify`` check on it, flanders-atkinson in each mode,
    exits 0, 1 or 2 with no traceback.  A kept space parses, so every check runs
    on it in full; the third space fails a flanders-atkinson moment at r = 4."""
    spaces = [lambda: build_bordered_alternating(F5, 5, 1), lambda: build_counterexample_plane(Q), lambda: MOMENT_SPACE]
    sp = data.draw(st.sampled_from(spaces))()
    keep = data.draw(st.sampled_from(["keep", "mutate"])) == "keep"
    obj = sp.to_json() if keep else mutated(data, sp.to_json())
    try:
        AffineMatrixSpace.from_json(obj)
    except (ValueError, KeyError):
        assert not keep
    src = tmp_path / "space.json"
    src.write_text(json.dumps(obj))
    check = data.draw(st.sampled_from(["rank-profile", "trivial-spectrum", "flanders-atkinson", "duality"]))
    rank, mode = data.draw(st.sampled_from(["2", "4"])), data.draw(st.sampled_from(["pencil", "line", "alternating"]))
    argv = ("verify", "--in", str(src), "--check", check, "--rank", rank, "--budget", "200", "--sample", "10")
    argv += ("--fa-mode", mode) if check == "flanders-atkinson" else ()
    code, _ = run(tmp_path, *argv)
    err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("[time]")]
    assert code in (0, 1, 2) and len(err) <= 1
