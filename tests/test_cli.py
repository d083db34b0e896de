import argparse
import ast
import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

import singlet_lhv
from singlet_lhv import cli
from singlet_lhv.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def load_schema(name):
    path = resources.files("singlet_lhv") / "schemas" / name
    return json.loads(path.read_text())


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


# ------------------------------------------------------------ basics


def test_usage_error_exit_code(capsys):
    assert main(["correlate"]) == EXIT_USAGE  # missing required flag
    assert main(["no-such-command"]) == EXIT_USAGE


def test_bell_check_verdict(capsys):
    code, out = run_cli(
        capsys, "bell-check", "--d1", str(math.pi / 3), "--d2", str(2 * math.pi / 3),
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "bell_check.schema.json")
    assert payload["lhs"] == pytest.approx(1.0)
    assert payload["rhs"] == pytest.approx(0.5)
    assert payload["violated"] is True


def test_bell_check_not_violated(capsys):
    code, out = run_cli(capsys, "bell-check", "--d1", "0", "--d2", "0", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["violated"] is False


def test_bell_check_bad_order_is_usage_error(capsys):
    code, _ = run_cli(capsys, "bell-check", "--d1", "2.0", "--d2", "1.0")
    assert code == EXIT_USAGE


def test_bell_check_grid_map(capsys):
    code, out = run_cli(capsys, "bell-check", "--grid", "12", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("# effective-config:")
    assert lines[1] == "d1,d2,lhs,rhs,violated"
    assert any(line.endswith(",1") for line in lines[2:])


# Every option of every subcommand with its parsed default, after the least argv it needs.
PARSED_DEFAULTS = {
    ("transform-curve", "--delta", "1"): {
        "command": "transform-curve", "delta": 1.0, "n": 1, "grid_points": 2001,
        "format": "csv", "out": None, "degrees": False,
    },
    ("correlate", "--delta-grid", "0,1"): {
        "command": "correlate", "delta_grid": "0,1", "trials": 1_000_000, "seed": 0,
        "streams": 4, "n": 1, "format": "csv", "out": None, "degrees": False,
    },
    ("chsh", "--d-omega", "1", "--d-omega-p", "2", "--d-omega-pp", "3"): {
        "command": "chsh", "d_omega": 1.0, "d_omega_p": 2.0, "d_omega_pp": 3.0,
        "independent": False, "per_trial_distribution": False, "phi": 0.0,
        "trials": 10_000_000, "seed": 0, "streams": 4, "n": 1,
        "format": "csv", "out": None, "degrees": False,
    },
    ("bell-check",): {
        "command": "bell-check", "d1": None, "d2": None, "grid": 0,
        "format": "csv", "out": None, "degrees": False,
    },
    ("weak-values", "--phi", "0.5", "--delta-omega", "1"): {
        "command": "weak-values", "phi": 0.5, "delta_omega": 1.0,
        "format": "csv", "out": None, "degrees": False,
    },
    ("paths", "--omega-b", "1", "--hamiltonian", "h.json", "--operators", "ops.json",
     "--times", "0"): {
        "command": "paths", "phi": 0.0, "omega_a": 0.0, "omega_b": 1.0,
        "hamiltonian": "h.json", "operators": "ops.json", "times": "0",
        "format": "csv", "out": None, "degrees": False,
    },
    ("wz", "--alpha-set", "0", "--beta-set", "1"): {
        "command": "wz", "d_omega": 0.0, "alpha_set": "0", "beta_set": "1", "dump_records": 0,
        "phi": 0.0, "trials": 1_000_000, "seed": 0, "streams": 4, "n": 1,
        "format": "csv", "out": None, "degrees": False,
    },
}


def test_every_subcommand_parses_its_options_to_the_pinned_defaults():
    parser = build_parser()
    assert {argv[0] for argv in PARSED_DEFAULTS} == set(cli._DISPATCH)
    for argv, expected in PARSED_DEFAULTS.items():
        assert vars(parser.parse_args(list(argv))) == expected, argv


# argv through every way out of parsing: each pinned default, top-level help and
# errors, a subcommand's parse errors, and each subcommand's help
PARSE_CASES = [
    *map(list, PARSED_DEFAULTS),
    [],
    ["-h"],
    ["no-such-command"],
    ["weak-values", "--phi", "0.5"],
    ["bell-check", "--bogus"],
    ["weak-values", "--ph", "0.5", "--delta-om", "1"],
    ["bell-check", "stray"],
    *([name, "-h"] for name in cli._DISPATCH),
]


def _argv_id(argv):
    return " ".join(argv) or "<none>"


def _parsed(parser, argv, capsys):
    """The parsed options, or the exit code and output of an argv that parsing ends."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=_argv_id)
def test_the_parser_of_the_invoked_subcommand_parses_as_the_full_tree(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    own = _parsed(build_parser(argv[0] if argv else None), argv, capsys)
    assert own == _parsed(build_parser(), argv, capsys)


@pytest.mark.parametrize("argv", PARSE_CASES, ids=_argv_id)
def test_main_gives_what_it_gives_with_the_full_tree(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)

    def outcome():
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    own = outcome()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert own == outcome()


@pytest.mark.parametrize("command", sorted(cli._DISPATCH))
def test_the_parser_of_a_subcommand_gives_options_to_it_alone(command):
    parser = build_parser(command)
    (subcommands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subcommands) == list(cli._DISPATCH)
    assert [name for name, sub in subcommands.items() if sub._actions] == [command]


@pytest.mark.parametrize("argv", [
    ["weak-values", "--phi", "0.5", "--delta-omega", "1", "--format", "json"],
    ["bell-check", "--d1", "1", "--d2", "2"],
    ["weak-values", "--phi", "1"],
    ["-h"],
    [],
], ids=_argv_id)
def test_main_without_argv_reads_the_command_line(monkeypatch, capsys, argv):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["singlet-lhv", *argv])
    code = main()
    assert (code, capsys.readouterr()) == (main(list(argv)), capsys.readouterr())


# --------------------------------------------------------- commands


def test_transform_curve_csv(capsys):
    code, out = run_cli(
        capsys, "transform-curve", "--delta", str(math.pi / 3), "--grid-points", "2001"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[1] == "omega,transformed,linear_ref"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    # anchors: omega = delta maps to 0 across a sqrt-type corner, so the
    # nearest sample sits within sqrt(2 h sin(delta)) of zero; omega = 0
    # maps to -delta on a locally flat stretch
    at = lambda x: rows[np.argmin(np.abs(rows[:, 0] - x)), 1]
    spacing = 2 * math.pi / 2001
    assert abs(at(math.pi / 3)) < 1.5 * math.sqrt(2 * spacing)
    assert abs(at(0.0) + math.pi / 3) < 1e-5


def test_transform_curve_degrees_flag(capsys):
    _, rad = run_cli(capsys, "transform-curve", "--delta", str(math.pi / 2), "--grid-points", "11")
    _, deg = run_cli(capsys, "transform-curve", "--delta", "90", "--degrees", "--grid-points", "11")
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
    assert strip(rad) == strip(deg)


def test_transform_curve_of_a_huge_delta_at_n_above_one_is_finite(capsys):
    code, out = run_cli(capsys, "transform-curve", "--delta=1e308", "--n", "7", "--grid-points", "9")
    assert code == EXIT_OK
    rows = list(csv.reader(out.strip().splitlines()[2:]))
    assert len(rows) == 9 and "nan" not in out
    assert all(-math.pi <= float(x) < math.pi for row in rows for x in row)


def test_correlate_json_schema_and_content(capsys):
    code, out = run_cli(
        capsys, "correlate", "--delta-grid", "0,1.5707963267948966", "--trials", "20000",
        "--seed", "7", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "table.schema.json")
    assert payload["columns"] == ["delta_rad", "estimate", "std_error", "analytic", "n"]
    first = payload["rows"][0]
    assert first[1] == -1.0  # exact anti-correlation row
    second = payload["rows"][1]
    assert abs(second[1] - second[3]) <= 4 * second[2] + 1e-12


def test_correlate_grid_spec(capsys):
    code, out = run_cli(
        capsys, "correlate", "--delta-grid", "0:3.141592653589793:5", "--trials", "1000",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["rows"]) == 5


def test_chsh_json(capsys):
    code, out = run_cli(
        capsys, "chsh", "--d-omega", str(math.pi / 2), "--d-omega-p", str(math.pi / 4),
        "--d-omega-pp", str(-math.pi / 4), "--trials", "200000", "--seed", "3",
        "--per-trial-distribution", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "chsh.schema.json")
    assert payload["abs_estimate"] == pytest.approx(2 * math.sqrt(2), abs=0.05)
    assert payload["out_of_range_fraction"] > 0
    counts = payload["per_trial_counts"]
    assert any(abs(int(v)) > 2 for v in counts)


README_CHSH = ("--d-omega", "1.5707963", "--d-omega-p", "0.78539816", "--d-omega-pp=-0.78539816")


@pytest.mark.parametrize("independent", [False, True], ids=["gauge", "orthodox"])
@pytest.mark.parametrize("n", ["1", "7"])
@pytest.mark.parametrize(
    "angles",
    [README_CHSH + ("--phi", "0.5"),
     ("--d-omega", "1.1", "--d-omega-p=-0.4", "--d-omega-pp", "2.9", "--phi=-2.2")],
    ids=["readme-phi", "skew-phi"],
)
def test_chsh_analytic_abs_is_the_magnitude_of_analytic(capsys, angles, n, independent):
    argv = ["chsh", *angles, "--n", n, "--trials", "1000", "--format", "json"]
    code, out = run_cli(capsys, *argv, *(["--independent"] if independent else []))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["analytic_abs"] == abs(payload["analytic"])


def test_chsh_at_n7_agrees_with_its_exact_expectation(capsys):
    code, out = run_cli(capsys, "chsh", *README_CHSH, "--n", "7", "--trials", "1000000",
                        "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["analytic"] == pytest.approx(-1.8817, abs=1e-4)
    assert abs(payload["estimate"] - payload["analytic"]) <= 4 * payload["std_error"]


def test_correlate_at_n3_agrees_with_its_exact_expectation(capsys):
    code, out = run_cli(capsys, "correlate", "--delta-grid=-2.5,-1,0.4,1.3,3", "--n", "3",
                        "--trials", "400000", "--format", "json")
    assert code == EXIT_OK
    for delta, estimate, std_error, analytic, _ in json.loads(out)["rows"]:
        assert abs(estimate - analytic) <= max(4 * std_error, 1e-12)


def test_weak_values_json(capsys):
    code, out = run_cli(
        capsys, "weak-values", "--phi", "0", "--delta-omega", str(math.pi / 2),
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "weak_values.schema.json")
    assert payload["passed"] is True
    assert len(payload["comparisons"]) == 12
    assert payload["b_side"]["passed"] is True


def test_weak_values_degenerate(capsys):
    code, out = run_cli(
        capsys, "weak-values", "--phi", "1.0", "--delta-omega", "1.0", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["degenerate"] is True


def test_paths_command(tmp_path, capsys):
    ham = tmp_path / "h.json"
    ham.write_text(json.dumps({"dim": 2, "re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]}))
    ops = tmp_path / "ops.json"
    ops.write_text(
        json.dumps(
            {
                "sx": {"dim": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]},
                "sz": {"dim": 2, "re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]},
            }
        )
    )
    half_turn = math.pi / 2
    code, out = run_cli(
        capsys, "paths", "--omega-b", "1.0", "--hamiltonian", str(ham),
        "--operators", str(ops), "--times", f"0,{half_turn}", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "table.schema.json")
    rows = payload["rows"]
    for t in (0.0, half_turn):
        probs = {
            (r[1], r[2]): r[3] for r in rows if r[0] == t and r[4] == "sx"
        }
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    # precession closed form: exp(+iZt) X exp(-iZt) = -X at t = pi/2,
    # so every branch value of sx flips sign between the two times
    sx = {
        (r[0], r[1], r[2]): complex(r[5], r[6])
        for r in rows
        if r[4] == "sx" and r[5] != ""
    }
    for (t, sa, sb), val in sx.items():
        if t == 0.0:
            assert sx[(half_turn, sa, sb)] == pytest.approx(-val, abs=1e-10)


def test_wz_json(capsys):
    code, out = run_cli(
        capsys, "wz", "--alpha-set", "0,1.5707963267948966",
        "--beta-set", "0.7853981633974483,-0.7853981633974483",
        "--trials", "200000", "--seed", "5", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    validate(payload, "wz.schema.json")
    assert payload["chsh"]["abs_estimate"] == pytest.approx(2 * math.sqrt(2), abs=0.05)
    for entry in payload["pair_correlations"].values():
        assert abs(entry["estimate"] - entry["analytic"]) <= 4 * entry["std_error"] + 1e-12


def test_wz_records_csv(capsys):
    code, out = run_cli(
        capsys, "wz", "--alpha-set", "0.1", "--beta-set", "0.2", "--trials", "100",
        "--seed", "1", "--dump-records", "3", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[1] == "alpha_rad,beta_rad,s_a,s_b"
    assert len(lines) > 2


@pytest.mark.parametrize("alpha_set", ["0,360", "180,-180"])
def test_wz_angles_equal_after_wrapping_count_once(capsys, alpha_set):
    code, out = run_cli(
        capsys, "wz", "--alpha-set", alpha_set, "--beta-set", "45,-45", "--degrees",
        "--trials", "20000",
    )
    assert code == EXIT_OK
    rows = list(csv.reader(out.strip().splitlines()[2:]))
    pair_rows = [row for row in rows if row[0] != "chsh"]
    assert len(pair_rows) == 2
    assert sum(int(row[4]) for row in pair_rows) == 20000


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wz_negative_dump_records_is_usage_error(capsys, fmt):
    code = main(["wz", "--alpha-set", "0,1", "--beta-set", "0.5,-0.5", "--trials", "1000",
                 "--dump-records", "-3", "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "usage error: argument --dump-records: must be at least 0, got -3" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["3", "5"])
def test_wz_empty_pair_without_a_2x2_sub_grid_is_usage_error(capsys, seed):
    # one alpha, so the estimate is E(a, b) of the first pair alone, and it drew no trial
    code = main(["wz", "--alpha-set", "0", "--beta-set", "0,1,2", "--trials", "1", "--seed", seed])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err == "usage error: no trials observed for modulator pair (0.0, 0.0)\n"
    assert captured.out == ""


# ------------------------------------------------ repeated main() calls


MAIN_SEQUENCE = (
    ("weak-values", "--phi", "0.3"),
    ("weak-values", "--phi", "0.3", "--delta-omega", "1.2", "--format", "json"),
    ("correlate", "--delta-grid", "0:1:3", "--trials", "2000", "--seed", "4"),
    ("wz", "--alpha-set", "0,1", "--beta-set", "0.5,-0.5", "--trials", "2000",
     "--format", "json"),
    ("--help",),
)


def test_main_keeps_no_state_between_calls(capsys):
    def run(sequence):
        seen = {}
        for argv in sequence:
            code = main(list(argv))
            captured = capsys.readouterr()
            seen[argv] = (code, captured.out, captured.err)
        return seen

    forward = run(MAIN_SEQUENCE)
    assert [forward[argv][0] for argv in MAIN_SEQUENCE] == [
        EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK
    ]
    assert run(MAIN_SEQUENCE[::-1]) == forward


# ----------------------------------------------------- reproducibility


@pytest.mark.parametrize(
    "argv",
    [
        ("correlate", "--delta-grid", "0:3.14:4", "--trials", "5000", "--seed", "11"),
        ("chsh", "--d-omega", "1.5707963267948966", "--d-omega-p", "0.7853981633974483",
         "--d-omega-pp", "-0.7853981633974483", "--trials", "5000", "--seed", "11",
         "--format", "json"),
        ("wz", "--alpha-set", "0,1.0", "--beta-set", "0.5,-0.5", "--trials", "5000",
         "--seed", "11", "--format", "json"),
        ("transform-curve", "--delta", "1.0", "--grid-points", "101"),
    ],
)
def test_rerun_is_byte_identical(tmp_path, argv):
    out1 = tmp_path / "a.out"
    out2 = tmp_path / "b.out"
    assert main([*argv, "--out", str(out1)]) == EXIT_OK
    assert main([*argv, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_effective_config_header_present_and_complete(capsys):
    code, out = run_cli(
        capsys, "correlate", "--delta-grid", "0:1:2", "--trials", "1000", "--seed", "9"
    )
    assert code == EXIT_OK
    header = out.splitlines()[0]
    assert header.startswith("# effective-config: ")
    resolved = json.loads(header.split(": ", 1)[1])
    assert resolved["trials"] == 1000
    assert resolved["seed"] == 9
    assert "streams" in resolved and "n" in resolved


def test_outdir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SINGLET_LHV_OUTDIR", str(tmp_path))
    assert main(["transform-curve", "--delta", "1.0", "--grid-points", "11",
                 "--out", "curve.csv"]) == EXIT_OK
    assert (tmp_path / "curve.csv").exists()


def test_io_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["transform-curve", "--delta", "1.0", "--out", str(missing)])
    assert code == 3


def test_numerical_contract_exit_code(monkeypatch, capsys):
    from singlet_lhv import cli
    from singlet_lhv.model import AcosDomainError

    def broken(args):
        raise AcosDomainError("synthetic branch failure")

    monkeypatch.setitem(cli._DISPATCH, "bell-check", broken)
    code = main(["bell-check", "--d1", "0", "--d2", "1"])
    assert code == EXIT_NUMERICAL


# ------------------------------------------------------ usage errors


def test_bell_check_reads_exponent_form_negative_value(capsys):
    # a usage line alone would mean argparse took "-1e-05" for an option
    code = main(["bell-check", "--d1", "-1e-05", "--d2", "0.5"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "-1e-05" in err and not err.startswith("usage:")
    code, out = run_cli(capsys, "bell-check", "--d1", "-0e-05", "--d2", "5E-1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["effective_config"]["d1"] == 0.0


def test_weak_values_reads_exponent_form_negative_value(capsys):
    code, out = run_cli(
        capsys, "weak-values", "--phi", "-1e-05", "--delta-omega", "1.5707963", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["effective_config"]["phi"] == -1e-05


def test_bell_check_negative_grid_is_usage_error(capsys):
    code = main(["bell-check", "--grid", "-2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "usage error: argument --grid: must be at least 0, got -2" in captured.err
    assert captured.out == ""
    # 0 still means no grid: the verdict of the two settings
    code, out = run_cli(capsys, "bell-check", "--grid", "0", "--d1", "0", "--d2", "0")
    assert code == EXIT_OK and out.strip().splitlines()[1:] == ["lhs,rhs,violated", "0.0,0.0,0"]


def test_bell_check_without_settings_says_why(capsys):
    code = main(["bell-check"])
    assert code == EXIT_USAGE
    assert "--d1" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0:1:0", "0:1:-3", ","])
def test_correlate_empty_grid_is_usage_error(capsys, spec):
    code = main(["correlate", "--delta-grid", spec, "--trials", "100"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "--delta-grid" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["correlate", "--delta-grid=0:1"], "--delta-grid", "0:1"),
        (["correlate", "--delta-grid=0:1:2.5"], "--delta-grid", "0:1:2.5"),
        (["correlate", "--delta-grid=0,x"], "--delta-grid", "0,x"),
        (["wz", "--alpha-set=0", "--beta-set=,y"], "--beta-set", ",y"),
        (["wz", "--alpha-set=,,", "--beta-set=0"], "--alpha-set", ",,"),
        (["paths", "--omega-b=1", "--hamiltonian={h}", "--operators={ops}", "--times", "0,x"],
         "--times", "0,x"),
    ],
)
def test_malformed_list_option_is_usage_error_naming_it(tmp_path, capsys, argv, option, text):
    ham, ops = tmp_path / "h.json", tmp_path / "ops.json"
    ham.write_text(json.dumps(_PAULI_Z_SPEC))
    ops.write_text(json.dumps({"sz": _PAULI_Z_SPEC}))
    code = main([arg.format(h=ham, ops=ops) for arg in argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith(f"usage error: {option} {text!r}")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["weak-values", "--phi", "x", "--delta-omega", "1"], "--phi"),
        (["correlate", "--delta-grid", "0,1", "--trials", "abc"], "--trials"),
    ],
)
def test_value_argparse_rejects_is_named_after_the_usage(capsys, argv, option):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    usage, _, message = captured.err.partition("usage error: ")
    assert usage.startswith("usage: singlet-lhv ") and option in message


def test_correlate_grid_with_an_overflowing_span_is_usage_error(capsys, recwarn):
    # both ends are finite, but stop - start is not: rejected before numpy sees it
    spec = "-1.7e308:1.7e308:3"
    code = main(["correlate", f"--delta-grid={spec}", "--trials", "100"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("usage error:") and spec in captured.err
    assert captured.out == "" and len(recwarn) == 0


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_seed_outside_64_unsigned_bits_is_usage_error(capsys, seed):
    code = main(["correlate", "--delta-grid", "0", "--trials", "1000", "--seed", seed])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "usage error: argument --seed: must be " in captured.err and captured.out == ""


def test_largest_64_bit_seed_runs(capsys):
    code, _ = run_cli(
        capsys, "correlate", "--delta-grid", "0", "--trials", "1000",
        "--seed", "18446744073709551615",
    )
    assert code == EXIT_OK


_PAULI_Z_SPEC = {"dim": 2, "re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]}


@pytest.mark.parametrize(
    "hamiltonian, operators, message",
    [
        ({"dim": 2, "re": [[1, 0], [0, -1]]}, {"sz": _PAULI_Z_SPEC}, "re and im"),
        (_PAULI_Z_SPEC, {"sz": {"dim": 2, "im": [[0, 0], [0, 0]]}}, "re and im"),
        ([_PAULI_Z_SPEC], {"sz": _PAULI_Z_SPEC}, "JSON object"),
        (_PAULI_Z_SPEC, [_PAULI_Z_SPEC], "--operators"),
        (_PAULI_Z_SPEC, {"a": 5}, "--operators"),
    ],
    ids=["hamiltonian-without-im", "operator-without-re", "hamiltonian-list",
         "operators-list", "operator-not-object"],
)
def test_paths_malformed_operator_file_is_usage_error(tmp_path, capsys, hamiltonian,
                                                      operators, message):
    ham, ops = tmp_path / "h.json", tmp_path / "ops.json"
    ham.write_text(json.dumps(hamiltonian))
    ops.write_text(json.dumps(operators))
    code = main(["paths", "--omega-b", "1.0", "--hamiltonian", str(ham),
                 "--operators", str(ops), "--times", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("usage error:") and message in captured.err
    assert captured.out == ""


# every angle option of every subcommand, after the valid arguments it overrides
_ANGLE_OPTIONS = {
    "transform-curve": (["--delta", "1.0"], ["--delta"]),
    "correlate": (["--delta-grid", "0,1", "--trials", "1000"], ["--delta-grid"]),
    "chsh": (
        ["--d-omega", "1.0", "--d-omega-p", "0.5", "--d-omega-pp", "-0.5", "--trials", "1000"],
        ["--d-omega", "--d-omega-p", "--d-omega-pp", "--phi"],
    ),
    "bell-check": (["--d1", "1.0", "--d2", "2.0"], ["--d1", "--d2"]),
    "weak-values": (["--phi", "0", "--delta-omega", "1.0"], ["--phi", "--delta-omega"]),
    "paths": (
        ["--omega-b", "1.0", "--hamiltonian", "{h}", "--operators", "{ops}", "--times", "0"],
        ["--phi", "--omega-a", "--omega-b"],
    ),
    "wz": (
        ["--alpha-set", "0,1", "--beta-set", "0.5,-0.5", "--trials", "1000"],
        ["--d-omega", "--phi", "--alpha-set", "--beta-set"],
    ),
}


@pytest.mark.parametrize("degrees", [False, True], ids=["radians", "degrees"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, (_, options) in _ANGLE_OPTIONS.items() for option in options],
)
def test_non_finite_angle_is_usage_error(tmp_path, capsys, command, option, value, degrees):
    ham, ops = tmp_path / "h.json", tmp_path / "ops.json"
    ham.write_text(json.dumps(_PAULI_Z_SPEC))
    ops.write_text(json.dumps({"sz": _PAULI_Z_SPEC}))
    base = [arg.format(h=ham, ops=ops) for arg in _ANGLE_OPTIONS[command][0]]
    argv = [command, *base, f"{option}={value}", *(["--degrees"] if degrees else [])]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("usage error:")
    assert captured.out == ""


# an out-of-range value of every int option, shared run options included
_OUT_OF_RANGE = {
    "--n": ["0"], "--grid-points": ["1"], "--grid": ["-1"], "--dump-records": ["-1"],
    "--trials": ["0"], "--streams": ["0"], "--seed": ["-1", str(2**64)],
}


def _typed_options():
    """(command, option, type) of every option with a type=, read from each command's parser."""
    for command in cli._COMMANDS:
        (commands,) = [a for a in build_parser(command)._actions if a.dest == "command"]
        for action in commands.choices[command]._actions:
            if action.type is not None:
                yield command, action.option_strings[0], action.type


def _bad_values():
    """"x" for every typed option; for an int option also "1.5" and its out-of-range values."""
    for command, option, type_ in _typed_options():
        int_values = ["1.5", *_OUT_OF_RANGE.get(option, [])] if isinstance(type_("7"), int) else []
        for value in ["x", *int_values]:
            yield command, option, value


def test_every_int_option_has_an_out_of_range_value():
    ints = {option for _, option, type_ in _typed_options() if isinstance(type_("7"), int)}
    assert ints == set(_OUT_OF_RANGE)


@pytest.mark.parametrize("command, option, value", list(_bad_values()))
def test_bad_value_of_a_typed_option_is_named_after_the_usage(tmp_path, capsys, command, option,
                                                              value):
    ham, ops = tmp_path / "h.json", tmp_path / "ops.json"
    ham.write_text(json.dumps(_PAULI_Z_SPEC))
    ops.write_text(json.dumps({"sz": _PAULI_Z_SPEC}))
    base = [arg.format(h=ham, ops=ops) for arg in _ANGLE_OPTIONS[command][0]]
    code = main([command, *base, f"{option}={value}"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    usage, _, message = captured.err.partition("usage error: ")
    assert usage.startswith(f"usage: singlet-lhv {command} ")
    assert message.startswith(f"argument {option}: ")


@pytest.mark.parametrize(
    "times, message",
    [("0,nan", "non-finite time"), ("0,inf", "non-finite time"), (",", "--times")],
    ids=["nan", "inf", "empty"],
)
def test_paths_bad_times_is_usage_error(tmp_path, capsys, times, message):
    ham, ops = tmp_path / "h.json", tmp_path / "ops.json"
    ham.write_text(json.dumps(_PAULI_Z_SPEC))
    ops.write_text(json.dumps({"sz": _PAULI_Z_SPEC}))
    code = main(["paths", "--omega-b", "1.0", "--hamiltonian", str(ham),
                 "--operators", str(ops), "--times", times])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("usage error:") and message in captured.err
    assert captured.out == ""


def test_correlate_reads_list_starting_with_negative(capsys):
    # a usage line alone would mean argparse took "-2.5,1" for an option
    code, out = run_cli(
        capsys, "correlate", "--delta-grid", "-2.5,1", "--trials", "1000", "--format", "json"
    )
    assert code == EXIT_OK
    assert [row[0] for row in json.loads(out)["rows"]] == [-2.5, 1.0]
    code, out = run_cli(
        capsys, "correlate", "--delta-grid", "-3:3:3", "--trials", "1000", "--format", "json"
    )
    assert code == EXIT_OK
    assert [row[0] for row in json.loads(out)["rows"]] == [-3.0, 0.0, 3.0]


def test_wz_reads_list_starting_with_negative(capsys):
    code, out = run_cli(
        capsys, "wz", "--alpha-set", "-0.5,1", "--beta-set", "0.2,-0.3", "--trials", "1000",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["effective_config"]["alpha_set"] == "-0.5,1"


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; the command line must start without it
    src = os.path.dirname(os.path.dirname(os.path.abspath(singlet_lhv.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, singlet_lhv.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0


def test_cli_import_does_not_load_the_monte_carlo_only_modules():
    # hashlib keys the seeded blocks and concurrent.futures runs the streams; the
    # commands without Monte Carlo must not pay their import at start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(singlet_lhv.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, singlet_lhv.cli; print(sorted({'hashlib', 'concurrent.futures'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout == "[]\n"


def _scipy_import_scopes(node, scope):
    """(scope, line) of each import of scipy under node; scope is the innermost def or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scipy_import_scopes(child, child.name)
            continue
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""] if child.level == 0 else []
        else:
            modules = []
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            yield scope, child.lineno
        yield from _scipy_import_scopes(child, scope)


def test_scipy_is_imported_in_the_package_only_by_the_quad_shim():
    # scipy is a test-only dependency: the one import left is the lazy
    # hidden_values.quad that the benchmark's tracer looks up
    package = os.path.dirname(os.path.abspath(singlet_lhv.__file__))
    sites = []
    for root, _, files in os.walk(package):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
                rel = os.path.relpath(path, package)
                sites += [(rel, scope) for scope, _ in _scipy_import_scopes(tree, "<module>")]
    assert sites == [("hidden_values.py", "__getattr__")]
