"""Command-line interface: flags, output formats, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import STAY_OR_GO
from stormlet import checkers, cli, solvers

CORPUS = Path(__file__).parent / "corpus"
DIE = str(CORPUS / "die.pm")

TRA = "dtmc\n0 0 0.5\n0 1 0.5\n1 1 1\n"
LAB = "#DECLARATION\ninit goal\n#END\n0 init\n1 goal\n"


@pytest.fixture
def explicit_files(tmp_path):
    tra = tmp_path / "model.tra"
    lab = tmp_path / "model.lab"
    tra.write_text(TRA)
    lab.write_text(LAB)
    return str(tra), str(lab)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_die_float_result(capsys):
    code, out, err = run_cli(capsys, "--prism", DIE, "--prop", 'P=? [ F "six" ]')
    assert code == 0
    assert out == 'Property: P=? [ F "six" ]\nResult (state 0): 0.166667\n'


def test_die_exact_result(capsys):
    code, out, _ = run_cli(capsys, "--prism", DIE, "--exact", "--prop", 'P=? [ F "six" ]')
    assert code == 0
    assert "Result (state 0): 1/6" in out


def test_repeated_calls_keep_no_options(capsys):
    # one argument parser serves every call in a process
    run_cli(capsys, "--prism", DIE, "--prop", 'P=? [ F "six" ]', "--prop", 'P=? [ F "one" ]')
    code, out, _ = run_cli(capsys, "--prism", DIE, "--prop", 'P=? [ F "two" ]')
    assert (code, out) == (0, 'Property: P=? [ F "two" ]\nResult (state 0): 0.166667\n')


def test_json_output(capsys):
    code, out, _ = run_cli(capsys, "--prism", DIE, "--json", "--prop", 'P=? [ F "six" ]')
    assert code == 0
    payload = json.loads(out)
    assert payload["property"] == 'P=? [ F "six" ]'
    assert payload["values"]["0"] == pytest.approx(1 / 6, abs=1e-6)
    assert "iterations" in payload["metadata"]
    assert "time_ms" not in payload["metadata"]  # stdout stays byte-stable


def test_json_exact_values_are_strings(capsys):
    code, out, _ = run_cli(capsys, "--prism", DIE, "--exact", "--json", "--prop", 'P=? [ F "six" ]')
    assert json.loads(out)["values"]["0"] == "1/6"


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_format_result_prints_long_fractions_in_full(fmt):
    # 5001 digits, past Python's default int-to-str limit of 4300
    value = Fraction(10**5000 + 1, 3)
    values = np.array([value], dtype=object)
    result = checkers.CheckResult(values=values, numeric=values)
    limit = sys.get_int_max_str_digits()
    out = cli.format_result(result, fmt, "R=? [ C<=15000 ]", [0])
    expected = "1" + "0" * 4999 + "1/3"
    if fmt == "human":
        assert out.splitlines()[1] == f"Result (state 0): {expected}"
    else:
        assert json.loads(out)["values"]["0"] == expected
    # the limit still guards input parsing
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        int("1" * 5000)


def test_multiple_properties_in_order(capsys):
    code, out, _ = run_cli(
        capsys, "--prism", DIE, "--prop", 'P=? [ F "one" ]', "--prop", 'P=? [ F "six" ]'
    )
    assert code == 0
    assert out.index('"one"') < out.index('"six"')
    assert out.count("Result (state 0)") == 2


def test_prop_file(capsys, tmp_path):
    pf = tmp_path / "props.txt"
    pf.write_text('// comment line\nP=? [ F "six" ] // trailing\n\nP>=1 [ F "done" ]\n')
    code, out, _ = run_cli(capsys, "--prism", DIE, "--prop-file", str(pf))
    assert code == 0
    assert out.count("Result") == 2
    assert "true" in out


def test_explicit_model(capsys, explicit_files):
    tra, lab = explicit_files
    code, out, _ = run_cli(capsys, "--explicit", tra, lab, "--prop", 'P=? [ F "goal" ]')
    assert code == 0
    assert "Result (state 0): 1\n" in out


def test_explicit_with_rewards(capsys, explicit_files, tmp_path):
    tra, lab = explicit_files
    srew = tmp_path / "model.srew"
    srew.write_text("0 1\n")
    code, out, _ = run_cli(
        capsys, "--explicit", tra, lab, "--srew", str(srew), "--prop", 'R=? [ F "goal" ]'
    )
    assert code == 0
    assert "Result (state 0): 2\n" in out


def test_output_is_deterministic(capsys):
    runs = [run_cli(capsys, "--prism", DIE, "--json", "--prop", 'P=? [ F "six" ]') for _ in range(3)]
    assert len({out for _, out, _ in runs}) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--prop", 'P=? [ F "a" ]'],  # no model source
        ["--prism", DIE, "--explicit", "a", "b", "--prop", "x"],  # both sources
        ["--prism", DIE],  # no properties
        ["--bogus"],  # unknown flag
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


def test_property_parse_error_exit_1(capsys):
    code, out, err = run_cli(capsys, "--prism", DIE, "--prop", "P=? [ Z \"six\" ]")
    assert code == 1
    assert out == ""  # no partial results on stdout
    assert "parse error" in err


def test_model_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.pm"
    bad.write_text("dtmc\nmodule m\nx : [0..1] init 0\nendmodule\n")  # missing semicolon
    code, out, err = run_cli(capsys, "--prism", str(bad), "--prop", 'P=? [ F "a" ]')
    assert code == 1 and out == ""


def test_fail_on_false_exit_2(capsys):
    code, out, _ = run_cli(
        capsys, "--prism", DIE, "--fail-on-false", "--prop", 'P>=0.5 [ F "six" ]'
    )
    assert code == 2
    assert "false" in out  # the result itself is still printed
    ok_code, _, _ = run_cli(
        capsys, "--prism", DIE, "--fail-on-false", "--prop", 'P>=0.1 [ F "six" ]'
    )
    assert ok_code == 0


def test_not_converged_exit_3(capsys):
    # one step of the iteration reaches 1/2 from 0, and none is left to show that it stays there
    code, out, err = run_cli(
        capsys, "--prism", str(CORPUS / "coin.nm"), "--max-iter", "1", "--minmax", "vi",
        "--prop", 'Pmax=? [ F "agree" ]',
    )
    assert code == 3 and out == ""
    assert err == "stormlet: no convergence within 1 iterations\n"


@pytest.mark.parametrize(
    "flag, message",
    [("--precision", "precision must be positive"), ("--max-iter", "max_iterations must be at least 1")],
)
def test_invalid_solver_settings_exit_1(capsys, flag, message):
    code, out, err = run_cli(capsys, "--prism", DIE, flag, "0", "--prop", 'P=? [ F "six" ]')
    assert code == 1 and out == ""
    assert err == f"stormlet: error: {message}\n"


OVERSIZED = "numeric literal has more than 4300 digits or an exponent above 4300"


@pytest.mark.parametrize("bound", ["1" * 5000, "1e999999999"])
def test_oversized_literal_in_a_property_exit_1(capsys, bound):
    # converting either would fail or build a power of ten with 10^9 digits
    code, out, err = run_cli(capsys, "--prism", DIE, "--prop", f'P=? [ F<={bound} "six" ]')
    assert code == 1 and out == ""
    assert err == f"stormlet: property parse error: {OVERSIZED} at line 1, column 10\n"


def test_oversized_literal_in_a_program_exit_1(capsys, tmp_path):
    program = tmp_path / "big.pm"
    program.write_text(f"dtmc\nmodule m\n  x : int init {'7' * 5000};\n  [] true -> (x'=x);\nendmodule\n")
    code, out, err = run_cli(capsys, "--prism", str(program), "--prop", 'P=? [ F x=0 ]')
    assert code == 1 and out == ""
    assert err == f"stormlet: parse error: {OVERSIZED} at line 3, column 16\n"


@pytest.mark.parametrize(
    "corpus_file, appended, prop",
    [
        ("die.pm", "", 'P=? [ F<={k} "six" ]'),
        ("coin.nm", "", 'Pmax=? [ F<={k} "agree" ]'),
        ("die.pm", 'rewards "flips"\n  s<7 : 1;\nendrewards\n', "R=? [ C<={k} ]"),
    ],
)
def test_huge_step_bound_stops_at_a_fixed_point(capsys, tmp_path, corpus_file, appended, prop):
    # stepping stops once an iterate repeats, so 10^8 steps give the 1000-step value at once
    program = tmp_path / corpus_file
    program.write_text((CORPUS / corpus_file).read_text() + appended)
    values = []
    for k in (1000, 100_000_000):
        code, out, _ = run_cli(capsys, "--prism", str(program), "--json", "--prop", prop.format(k=k))
        assert code == 0
        values.append(json.loads(out)["values"])
    assert values[0] == values[1]


STEP_BUDGET_ERROR = (f"stormlet: exact stepping reached no fixed point within its budget of "
                     f"{checkers.EXACT_BIT_BUDGET} numerator and denominator bits; use float mode for a "
                     "larger step bound\n")


@pytest.mark.parametrize("appended, prop", [
    ("", 'P=? [ F<=100000000 "six" ]'),
    ('rewards "flips"\n  s<7 : 1;\nendrewards\n', "R=? [ C<=100000000 ]"),
])
def test_exact_stepping_past_its_budget_exit_4(capsys, tmp_path, appended, prop):
    # exact iterates on a cycle never repeat, and each step adds digits
    program = tmp_path / "die.pm"
    program.write_text((CORPUS / "die.pm").read_text() + appended)
    code, out, err = run_cli(capsys, "--prism", str(program), "--exact", "--prop", prop)
    assert (code, out, err) == (4, "", STEP_BUDGET_ERROR)


def test_exact_stepping_within_its_budget_answers(capsys):
    code, out, _ = run_cli(capsys, "--prism", DIE, "--exact", "--json", "--prop", 'P=? [ F<=1000 "six" ]')
    # the paths to six take 3 + 2j steps with probability 2^-(3+2j): j = 0..498 within 1000
    assert code == 0
    assert Fraction(json.loads(out)["values"]["0"]) == Fraction(1, 6) * (1 - Fraction(1, 4) ** 499)


@pytest.mark.parametrize("prop, value", [
    ("P=? [ F<=100000000 (x=2) ]", "1/9"),
    ("R=? [ C<=100000000 ]", "4/3"),
])
def test_exact_stepping_on_an_acyclic_program_stops_at_its_fixed_point(capsys, tmp_path, prop, value):
    program = tmp_path / "acyclic.pm"
    program.write_text("dtmc\nmodule m\n  x : [0..3] init 0;\n  [] x<2 -> 1/3 : (x'=x+1) + 2/3 : (x'=3);\n"
                       "  [] x>=2 -> (x'=x);\nendmodule\nrewards\n  x<2 : 1;\nendrewards\n")
    code, out, _ = run_cli(capsys, "--prism", str(program), "--exact", "--prop", prop)
    assert (code, out) == (0, f"Property: {prop}\nResult (state 0): {value}\n")


RATE_OVERFLOW = "CTMC exit rate of state 0 is not finite: its rates add past the float range"


@pytest.mark.parametrize("files, message", [
    ({"m.sm": "ctmc\nmodule m\n  x : [0..2] init 0;\n  [] x=0 -> 1e308 : (x'=1) + 1e308 : (x'=2);\n"
              "  [] x>0 -> (x'=0);\nendmodule\n"}, RATE_OVERFLOW),
    ({"m.sm": "ctmc\nmodule m\n  x : [0..2] init 0;\n  [] x=0 -> 1e308 : (x'=1);\n  [] x=0 -> 1e308 : (x'=2);\n"
              "  [] x>0 -> (x'=0);\nendmodule\n"}, RATE_OVERFLOW),
    ({"m.tra": "ctmc\n0 1 1e308\n0 2 1e308\n1 0 1\n2 0 1\n", "m.lab": "#DECLARATION\n#END\n"}, RATE_OVERFLOW),
    # duplicate lines add up to inf before the rates do
    ({"m.tra": "ctmc\n0 1 1e308\n0 1 1e308\n1 0 1\n", "m.lab": "#DECLARATION\n#END\n"},
     "non-finite value at (0,1)"),
])
def test_ctmc_rates_that_add_past_the_float_range_exit_4(capsys, tmp_path, files, message):
    # the exit rate is inf and the embedded entries round to 0: not a deadlock
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    model = ["--prism", str(tmp_path / "m.sm")] if "m.sm" in files else [
        "--explicit", str(tmp_path / "m.tra"), str(tmp_path / "m.lab")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would fail the run
        code, out, err = run_cli(capsys, *model, "--prop", "P=? [ F<=1 true ]")
    assert (code, out, err) == (4, "", f"stormlet: model error: {message}\n")


def test_ctmc_time_bound_whose_rate_underflows_answers_at_step_0(capsys, tmp_path):
    # q * t rounds to 0, and a Poisson window at rate 0 is a point mass at step 0
    tra, lab = tmp_path / "slow.tra", tmp_path / "slow.lab"
    tra.write_text("ctmc\n0 1 5e-324\n1 1 1\n")
    lab.write_text("#DECLARATION\ninit goal\n#END\n0 init\n1 goal\n")
    code, out, err = run_cli(capsys, "--explicit", str(tra), str(lab), "--prop", 'P=? [ F<=0.5 "goal" ]')
    assert (code, out, err) == (0, 'Property: P=? [ F<=0.5 "goal" ]\nResult (state 0): 0\n', "")


@pytest.mark.parametrize("bound, expected", [
    ("0", (0, 'Property: P=? [ F<=0 "goal" ]\nResult (state 0): 0\n', "")),
    ("1", (4, "", "stormlet: rate 1.79e+308 exceeds the supported bound 1e9\n")),
])
def test_ctmc_time_bound_at_an_exit_rate_near_the_float_range(capsys, tmp_path, bound, expected):
    # 1.02 times the rate is past the float range, so q is the rate itself
    tra, lab = tmp_path / "fast.tra", tmp_path / "fast.lab"
    tra.write_text("ctmc\n0 1 1.79e308\n1 1 1\n")
    lab.write_text("#DECLARATION\ninit goal\n#END\n0 init\n1 goal\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would fail the run
        assert run_cli(capsys, "--explicit", str(tra), str(lab), "--prop", f'P=? [ F<={bound} "goal" ]') == expected


def test_deadlock_exit_4(capsys, tmp_path):
    tra = tmp_path / "dead.tra"
    lab = tmp_path / "dead.lab"
    tra.write_text("dtmc\n0 1 1\n")
    lab.write_text("#DECLARATION\n\n#END\n")
    code, out, err = run_cli(capsys, "--explicit", str(tra), str(lab), "--prop", "P=? [ F true ]")
    assert code == 4 and out == ""
    # with the patch flag the model builds
    code2, out2, _ = run_cli(
        capsys, "--explicit", str(tra), str(lab), "--fix-deadlocks", "--prop", "P=? [ F true ]"
    )
    assert code2 == 0


@pytest.mark.parametrize("divisor, message", [("x/(x-1)", "division by zero"), ("mod(x, x-1)", "mod by zero")])
@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_zero_divisor_in_a_state_exit_4(capsys, tmp_path, divisor, message, exact):
    program = tmp_path / "div.pm"
    program.write_text(f"dtmc\nmodule m\nx : [0..3] init 3;\n[] x>0 & {divisor}>=0 -> (x'=x-1);\n"
                       "[] x=0 -> (x'=0);\nendmodule\n")
    code, out, err = run_cli(capsys, "--prism", str(program), *exact, "--prop", "P=? [ F x=0 ]")
    assert code == 4 and out == ""
    assert err == f"stormlet: model error: {message}\n"


@pytest.mark.parametrize("exact, value", [([], "pow(-1, 0.5)"), (["--exact"], "pow(-1, 1/2)")])
def test_pow_that_is_not_a_finite_real_exit_4(capsys, tmp_path, exact, value):
    program = tmp_path / "pow.pm"
    program.write_text("dtmc\nmodule m\nx : [0..3] init 3;\n[] x>0 -> (x'=x-1);\n[] x=0 -> (x'=0);\nendmodule\n"
                       "rewards \"r\"\n  true : pow(x-2, 0.5);\nendrewards\n")
    code, out, err = run_cli(capsys, "--prism", str(program), *exact, "--prop", "R=? [ F x=0 ]")
    assert code == 4 and out == ""
    assert err == f"stormlet: model error: {value} is not a finite real (line 8, column 10)\n"


@pytest.mark.parametrize("index", ["100000000000000", "99999999999999999999999"])
def test_huge_state_index_exit_1(capsys, tmp_path, index):
    tra, lab = tmp_path / "huge.tra", tmp_path / "huge.lab"
    tra.write_text(f"dtmc\n0 {index} 1\n")
    lab.write_text("#DECLARATION\ngoal\n#END\n")
    code, out, err = run_cli(capsys, "--explicit", str(tra), str(lab), "--prop", 'P=? [ F "goal" ]')
    assert code == 1 and out == ""
    assert err == "stormlet: parse error: gap in state indices: state 1 is never used\n"


@pytest.mark.parametrize("weight, reward, message", [
    ("pow(10, 400) : ", "1", "update weight is an integer too large for a float (line 4, column 11)"),
    ("", "pow(10, 400)", "reward is an integer too large for a float (line 8, column 10)"),
])
def test_integer_too_large_for_a_float_exit_4(capsys, tmp_path, weight, reward, message):
    program = tmp_path / "big.pm"
    program.write_text(f"ctmc\nmodule m\nx : [0..3] init 0;\n[] x<3 -> {weight}(x'=x+1);\n[] x=3 -> (x'=3);\n"
                       f"endmodule\nrewards \"r\"\n  true : {reward};\nendrewards\n")
    code, out, err = run_cli(capsys, "--prism", str(program), "--prop", "R=? [ F (x=3) ]")
    assert code == 4 and out == ""
    assert err == f"stormlet: model error: {message}\n"
    code, out, err = run_cli(capsys, "--prism", str(program), "--exact", "--prop", "R=? [ F (x=3) ]")
    assert code == 0 and err == ""
    assert out.startswith("Property: R=? [ F (x=3) ]\nResult (state 0): ")
    # a CTMC state reward is earned per unit of time: three sojourns of 1/10^400 or of 1
    assert out.endswith(("3/1" if weight else "3") + "0" * 400 + "\n")


@pytest.mark.parametrize("predicate, message", [
    ("(x/(x-1)>0)", "division by zero"),
    ("(mod(x, x-1)=0)", "mod by zero"),
    ("(y=1)", "unknown identifier 'y'"),
])
def test_bad_predicate_exit_4(capsys, tmp_path, predicate, message):
    program = tmp_path / "walk.pm"
    program.write_text("dtmc\nmodule m\nx : [0..3] init 3;\n[] x>0 -> (x'=x-1);\n[] x=0 -> (x'=0);\nendmodule\n")
    code, out, err = run_cli(capsys, "--prism", str(program), "--prop", f"P=? [ F {predicate} ]")
    assert code == 4 and out == ""
    assert message in err


def test_unknown_label_exit_4(capsys):
    code, out, err = run_cli(capsys, "--prism", DIE, "--prop", 'P=? [ F "nonexistent" ]')
    assert code == 4 and out == ""


@pytest.mark.parametrize("name", ["init", "deadlock"])
def test_reserved_label_name_exit_1(capsys, tmp_path, name):
    model = tmp_path / "reserved.pm"
    model.write_text(f'dtmc\nmodule m\nx : [0..1] init 0;\n[] true -> (x\'=1-x);\nendmodule\nlabel "{name}" = x=1;\n')
    code, out, err = run_cli(capsys, "--prism", str(model), "--prop", f'P=? [ F "{name}" ]')
    assert code == 1 and out == ""
    assert f'label "{name}" is reserved' in err


@pytest.mark.parametrize(
    "program, prop, message",
    [
        ("die.pm", 'P=? [ G<=2.5 "six" ]', "fractional (time) bounds require a continuous-time model"),
        ("die.pm", 'P=? [ G<=-1 "six" ]', "step bound must be nonnegative"),
        ("queue.sm", 'P=? [ G<=-1 "full" ]', "time bound must be nonnegative"),
    ],
)
def test_globally_bounds_are_validated_like_until(capsys, program, prop, message):
    code, out, err = run_cli(capsys, "--prism", str(CORPUS / program), "--prop", prop)
    assert code == 4 and out == ""
    assert message in err


def test_unreadable_model_path_exit_1(capsys, tmp_path, explicit_files):
    missing = str(tmp_path / "missing.pm")
    binary = tmp_path / "binary.pm"
    binary.write_bytes(b"\xff\xfe dtmc")
    for path in (missing, str(binary)):
        code, out, err = run_cli(capsys, "--prism", path, "--prop", 'P=? [ F "x" ]')
        assert code == 1 and out == ""
        assert "cannot read model file" in err
    tra, lab = explicit_files
    for argv in ([missing, lab], [tra, missing]):
        code, out, err = run_cli(capsys, "--explicit", *argv, "--prop", 'P=? [ F "goal" ]')
        assert code == 1 and out == "" and "cannot read model file" in err


def test_unwritable_export_path_exit_1(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(
        capsys, "--prism", DIE, "--export-model", str(blocker / "out"), "--prop", 'P=? [ F "six" ]'
    )
    assert code == 1 and out == ""
    assert "cannot write model" in err


MDP_TRA = "mdp\n0 0 0 1/2\n0 0 1 1/2\n0 1 2 1\n1 0 2 1\n2 0 2 1\n"
MDP_LAB = "#DECLARATION\ninit goal\n#END\n0 init\n2 goal\n"
MDP_SREW = "0 1\n1 2/3\n"
DTMC_TRA = "dtmc\n0 0 2/3\n0 1 1/3\n1 1 1\n"
DTMC_SREW = "0 1\n"


@pytest.fixture
def reward_models(tmp_path):
    """Explicit MDP and DTMC with state rewards, as CLI arguments by name."""
    out = {}
    for name, tra, lab, srew in (("mdp", MDP_TRA, MDP_LAB, MDP_SREW), ("dtmc", DTMC_TRA, LAB, DTMC_SREW)):
        paths = [tmp_path / f"{name}.{ext}" for ext in ("tra", "lab", "srew")]
        for path, text in zip(paths, (tra, lab, srew)):
            path.write_text(text)
        out[name] = ["--explicit", str(paths[0]), str(paths[1]), "--srew", str(paths[2])]
    return out


# every operator in both domains, against hand-derived rationals
@pytest.mark.parametrize(
    "source, prop, expected",
    [
        ("die.pm", 'P=? [ X "done" ]', "0"),
        ("die.pm", 'P=? [ F<=3 "done" ]', "3/4"),
        ("die.pm", 'P=? [ G !"six" ]', "5/6"),
        ("die.pm", 'P=? [ G<=3 !"done" ]', "1/4"),
        ("die.pm", 'P=? [ F "six" || F "done" ]', "1/6"),
        ("coin.nm", 'Pmax=? [ X "agree" ]', "1/2"),
        ("coin.nm", 'Pmin=? [ F<=2 "agree" ]', "1/2"),
        ("coin.nm", 'Pmax=? [ G !"agree" ]', "1/2"),
        ("mdp", 'Rmin=? [ F "goal" ]', "1"),
        ("mdp", 'Rmax=? [ F "goal" ]', "8/3"),
        ("mdp", "Rmax=? [ C<=3 ]", "9/4"),
        ("dtmc", 'R=? [ F "goal" ]', "3"),
        ("dtmc", "R=? [ C<=2 ]", "5/3"),
    ],
)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_operator_domain_matrix(capsys, reward_models, source, prop, expected, exact):
    argv = reward_models.get(source, ["--prism", str(CORPUS / source)])
    argv = [*argv, "--json", "--prop", prop] + (["--exact"] if exact else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    value = json.loads(out)["values"]["0"]
    if exact:
        assert value == expected
    else:
        assert isinstance(value, float)
        assert value == pytest.approx(float(Fraction(expected)), abs=1e-6)


@pytest.mark.parametrize("prop, exact_text, float_text", [
    ('P=? [ F P>=1 [ F "done" ] & "six" ]', "1/6", "0.166667"),
    ('P>=0.1 [ !"six" U P>=1 [ X "done" ] ]', "true", "true"),
    ('P=? [ G P<0.75 [ F "six" ] ]', "5/6", "0.833333"),
    ('P=? [ F !P>=0.5 [ F "six" ] & P>=0.3 [ F "six" ] ]', "1/2", "0.5"),
])
@pytest.mark.parametrize("domain", ["exact", "float"])
def test_nested_operators_inside_boolean_structure(capsys, prop, exact_text, float_text, domain):
    flags = ["--exact"] if domain == "exact" else []
    code, out, _ = run_cli(capsys, "--prism", DIE, *flags, "--prop", prop)
    assert code == 0
    assert out == f"Property: {prop}\nResult (state 0): {exact_text if flags else float_text}\n"


def test_constants_flag(capsys, tmp_path):
    src = tmp_path / "param.pm"
    src.write_text(
        "dtmc\nconst double p;\nmodule m\nx : [0..1] init 0;\n"
        "[] x=0 -> p : (x'=1) + (1-p) : (x'=0);\n[] x=1 -> (x'=1);\nendmodule\n"
        'label "goal" = x=1;\n'
    )
    code, out, _ = run_cli(
        capsys, "--prism", str(src), "--constants", "p=0.25", "--prop", 'P=? [ F "goal" ]'
    )
    assert code == 0 and "Result (state 0): 1\n" in out
    bad_code, _, _ = run_cli(capsys, "--prism", str(src), "--prop", 'P=? [ F "goal" ]')
    assert bad_code == 1  # undefined constant


def test_huge_constant_is_a_parse_error():
    # Fraction("1e999999999") would build a number of a billion digits, so
    # the value goes through the lexer's size check; a subprocess bounds the wait
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["--prism", DIE, "--constants", "N=1e999999999", "--prop", 'P=? [ F "six" ]']
    result = subprocess.run([sys.executable, "-m", "stormlet.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (1, "", f"stormlet: error: {OVERSIZED}\n")


def test_export_model_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "exported"
    code, direct_out, _ = run_cli(
        capsys, "--prism", DIE, "--export-model", str(out_dir), "--prop", 'P=? [ F "six" ]'
    )
    assert code == 0
    assert (out_dir / "model.tra").exists() and (out_dir / "model.lab").exists()
    code2, exported_out, _ = run_cli(
        capsys,
        "--explicit", str(out_dir / "model.tra"), str(out_dir / "model.lab"),
        "--prop", 'P=? [ F "six" ]',
    )
    assert code2 == 0
    # identical results from the re-imported model
    assert exported_out.splitlines()[-1] == direct_out.splitlines()[-1]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("stormlet ")


def test_solver_flag_is_gone(capsys):
    # --exact is the one exact route: a float model solved exactly answers for the rounded probabilities
    with pytest.raises(SystemExit) as exc:
        cli.main(["--prism", DIE, "--solver", "exact", "--prop", 'P=? [ F "six" ]'])
    assert exc.value.code == 1 and "unrecognized arguments: --solver exact" in capsys.readouterr().err


@pytest.mark.parametrize("criterion, prop, bounded", [
    ([], 'P=? [ F "six" ]', True),
    ([], 'P=? [ G !"six" ]', False),  # a relative bound on F would not hold for 1 - F
    (["--absolute"], 'P=? [ G !"six" ]', True),
])
def test_json_reports_the_error_bound(capsys, criterion, prop, bounded):
    code, out, _ = run_cli(capsys, "--prism", DIE, *criterion, "--json", "--prop", prop)
    meta = json.loads(out)["metadata"]
    assert code == 0 and meta["method"] == "elimination" and meta["iterations"] == 0
    assert ("error_bound" in meta) == bounded
    if bounded:
        assert 0 < meta["error_bound"] <= 1e-6


def test_json_reports_the_poisson_window(capsys):
    queue, prop = str(CORPUS / "queue.sm"), 'P=? [ F<=2 "full" ]'
    code, out, _ = run_cli(capsys, "--prism", queue, "--json", "--prop", prop)
    # the exit rates are 2, 5, 5 and 3: the window is that of rate 1.02 * 5 over t = 2
    L, R, _, _ = solvers.fox_glynn(checkers.UNIFORMIZATION_SLACK * 5 * 2, 1e-7)
    assert code == 0 and json.loads(out)["metadata"] == {"method": "uniformization", "poisson_window": [L, R]}
    code, out, _ = run_cli(capsys, "--prism", queue, "--prop", prop)
    assert (code, out) == (0, f"Property: {prop}\nResult (state 0): 0.347832\n")


def test_minimising_vi_reports_no_bound_when_its_seed_chain_proves_none(capsys):
    # at 1e-17 the seed chain's iteration proves no bound, so the result has none either
    coin = str(CORPUS / "coin.nm")
    for precision, bounded in ((["--precision", "1e-17"], False), ([], True)):
        code, out, _ = run_cli(capsys, "--prism", coin, "--minmax", "vi", *precision, "--json",
                               "--prop", 'Pmin=? [ F "agree" ]')
        meta = json.loads(out)["metadata"]
        assert code == 0 and meta["method"] == "value_iteration"
        assert ("error_bound" in meta) == bounded


def test_rmin_defaults_to_certified_policy_iteration(capsys, tmp_path):
    program = tmp_path / "stay_or_go.nm"
    program.write_text(STAY_OR_GO)
    code, out, _ = run_cli(capsys, "--prism", str(program), "--prop", 'Rmin=? [ F "goal" ]')
    assert code == 0 and out == 'Property: Rmin=? [ F "goal" ]\nResult (state 0): 1\n'
    code, out, _ = run_cli(capsys, "--prism", str(program), "--json", "--prop", 'Rmin=? [ F "goal" ]')
    meta = json.loads(out)["metadata"]
    assert meta["method"] == "policy_iteration" and 0 < meta["error_bound"] <= 1e-6


@pytest.mark.parametrize("minmax", ["vi", "pi"])
def test_rmin_with_a_zero_reward_loop_is_1_by_both_methods(capsys, tmp_path, minmax):
    # [stay] loops for reward 0 and never reaches the goal; the iteration descends from the
    # value of the proper seed [go], so it never reaches the loop's fixed point 0
    program = tmp_path / "stay_or_go.nm"
    program.write_text(STAY_OR_GO)
    code, out, _ = run_cli(capsys, "--prism", str(program), "--minmax", minmax, "--prop", 'Rmin=? [ F "goal" ]')
    assert code == 0 and out == 'Property: Rmin=? [ F "goal" ]\nResult (state 0): 1\n'


@pytest.mark.parametrize("weight, label, message", [
    ("pow(10, 400) * 0.5 : ", "true", "an operand of '*' is an integer too large for a float (line 4, column 24)"),
    ("", "pow(10, 400) * 1.0 > x", "an operand of '*' is an integer too large for a float (line 7, column 26)"),
])
def test_double_arithmetic_on_an_integer_too_large_for_a_float_exit_4(capsys, tmp_path, weight, label, message):
    program = tmp_path / "big.sm"
    program.write_text(f"ctmc\nmodule m\nx : [0..3] init 0;\n[] x<3 -> {weight}(x'=x+1);\n[] x=3 -> (x'=3);\n"
                       f"endmodule\nlabel \"l\" = {label};\n")
    code, out, err = run_cli(capsys, "--prism", str(program), "--prop", 'P=? [ F "l" ]')
    assert code == 4 and out == ""
    assert err == f"stormlet: model error: {message}\n"


# the M/M/1 queue of the corpus, rewarded by the time spent: 33/8 until full
QUEUE_TIME = (CORPUS / "queue.sm").read_text() + 'rewards "time"\n  true : 1;\nendrewards\n'
QUEUE_TRA = "ctmc\n0 1 2\n1 0 3\n1 2 2\n2 1 3\n2 3 2\n3 2 3\n"
QUEUE_LAB = "#DECLARATION\ninit full\n#END\n0 init\n3 full\n"


@pytest.mark.parametrize("exact, value", [([], "4.125"), (["--exact"], "33/8")])
def test_ctmc_state_rewards_accumulate_over_time(capsys, tmp_path, exact, value):
    program = tmp_path / "queue.sm"
    program.write_text(QUEUE_TIME)
    tra, lab, srew = tmp_path / "q.tra", tmp_path / "q.lab", tmp_path / "q.srew"
    tra.write_text(QUEUE_TRA)
    lab.write_text(QUEUE_LAB)
    srew.write_text("0 1\n1 1\n2 1\n3 1\n")
    for model in (["--prism", str(program)], ["--explicit", str(tra), str(lab), "--srew", str(srew)]):
        code, out, err = run_cli(capsys, *model, *exact, "--prop", 'R=? [ F "full" ]')
        assert (code, out, err) == (0, f'Property: R=? [ F "full" ]\nResult (state 0): {value}\n', "")


def test_ctmc_action_rewards_are_earned_per_transition(capsys, tmp_path):
    program = tmp_path / "queue.sm"
    program.write_text(QUEUE_TIME.replace("true : 1;", "[] true : 1;"))
    code, out, _ = run_cli(capsys, "--prism", str(program), "--exact", "--prop", 'R=? [ F "full" ]')
    assert code == 0 and out.endswith("Result (state 0): 27/2\n")  # the expected number of jumps


def test_non_ascii_digits_are_refused(capsys, tmp_path):
    program = tmp_path / "die.pm"
    program.write_text((CORPUS / "die.pm").read_text().replace("s=0 ->", "s=² ->", 1))
    code, out, err = run_cli(capsys, "--prism", str(program), "--prop", 'P=? [ F "six" ]')
    assert (code, out) == (1, "") and err.startswith("stormlet: parse error: unknown character '²' at line ")
    code, out, err = run_cli(capsys, "--prism", DIE, "--prop", "P=? [ F (s=²) ]")
    assert (code, out, err) == (1, "", "stormlet: property parse error: unknown character '²' at line 1, column 12\n")


REWARD_DTMC = """dtmc
module m
  x : [0..2] init 0;
  [go] x<2 -> 0.5 : (x'=x+1) + 0.5 : (x'=0);
  [] x=2 -> (x'=2);
endmodule
label "done" = x=2;
rewards "cost"
  x=1 : 2.5;
  [go] true : 1;
endrewards
"""

REWARD_MDP = """mdp
module m
  s : [0..2] init 0;
  [a] s=0 -> 0.5 : (s'=1) + 0.5 : (s'=2);
  [b] s=0 -> (s'=2);
  [] s=1 -> (s'=2);
  [] s=2 -> (s'=2);
endmodule
label "goal" = s=2;
rewards "r"
  [a] true : 3;
  [b] true : 2;
  [] s=1 : 1;
endrewards
"""


@pytest.mark.parametrize("source, props", [
    (REWARD_DTMC, ['R=? [ F "done" ]', "R=? [ C<=3 ]"]),
    (REWARD_MDP, ['Rmax=? [ F "goal" ]', 'Rmin=? [ F "goal" ]', "Rmax=? [ C<=2 ]"]),
])
@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_export_model_round_trip_with_rewards(capsys, tmp_path, source, props, exact):
    program, out_dir = tmp_path / "model.pm", tmp_path / "exported"
    program.write_text(source)
    argv = [arg for prop in props for arg in ("--prop", prop)] + exact
    code, direct, err = run_cli(capsys, "--prism", str(program), "--export-model", str(out_dir), *argv)
    assert code == 0 and err == ""
    files = [str(out_dir / f"model.{ext}") for ext in ("tra", "lab", "srew", "trew")]
    srew = ["--srew", files[2]] if (out_dir / "model.srew").exists() else []
    code, reloaded, _ = run_cli(capsys, "--explicit", *files[:2], *srew, "--trew", files[3], *argv)
    assert code == 0 and reloaded == direct


def test_rmax_reloads_from_the_export(capsys, tmp_path):
    program, out_dir = tmp_path / "model.nm", tmp_path / "exported"
    program.write_text(REWARD_MDP)
    run_cli(capsys, "--prism", str(program), "--export-model", str(out_dir), "--prop", 'Rmax=? [ F "goal" ]')
    code, out, _ = run_cli(capsys, "--explicit", str(out_dir / "model.tra"), str(out_dir / "model.lab"),
                           "--trew", str(out_dir / "model.trew"), "--exact", "--prop", 'Rmax=? [ F "goal" ]')
    assert code == 0 and out.endswith("Result (state 0): 7/2\n")


def test_export_names_the_reward_structures_it_does_not_write(capsys, tmp_path):
    program, out_dir = tmp_path / "model.pm", tmp_path / "exported"
    program.write_text(REWARD_DTMC + 'rewards "steps"\n  true : 1;\nendrewards\n'
                       'rewards "served"\n  x=2 : 1;\nendrewards\n')
    code, out, err = run_cli(capsys, "--prism", str(program), "--export-model", str(out_dir),
                             "--prop", 'R{"cost"}=? [ F "done" ]')
    assert code == 0 and out.startswith('Property: R{"cost"}=? [ F "done" ]\n')
    assert err == "stormlet: --export-model wrote reward structure 'cost' only; not written: 'steps', 'served'\n"
    assert (out_dir / "model.srew").read_text() == "1 2.5\n"
