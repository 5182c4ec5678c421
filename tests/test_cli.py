import json
import os
import subprocess
import sys
import time

import pytest

import qlmoments
from qlmoments import cli, predictor

# the CLI subprocesses import the same tree as this test process
SRC = os.path.dirname(os.path.dirname(os.path.abspath(qlmoments.__file__)))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, timeout=600):
    proc = subprocess.run(
        [sys.executable, "-m", "qlmoments.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=ENV,
    )
    return proc


def test_moments_csv_schema_and_determinism():
    a = run_cli("moments", "--q", "5", "--r", "2", "--dmin", "1", "--dmax", "3")
    b = run_cli("moments", "--q", "5", "--r", "2", "--dmin", "1", "--dmax", "3")
    assert a.returncode == 0
    assert a.stdout == b.stdout  # byte-identical rerun
    lines = a.stdout.strip().splitlines()
    assert lines[0] == "q,r,D,moment_a,moment_b,moment_float,count,seconds"
    first = lines[1].split(",")
    assert first[:3] == ["5", "2", "1"]
    assert first[-1] == "0.000"


def test_moments_json():
    p = run_cli("moments", "--q", "5", "--r", "1", "--dmin", "1", "--dmax", "1",
                "--format", "json")
    row = json.loads(p.stdout.strip())
    assert row["moment_a"] == "5" and row["count"] == 5


def test_moments_accepts_and_ignores_workers():
    args = ("moments", "--q", "5", "--r", "4", "--dmin", "1", "--dmax", "5")
    one = run_cli(*args, "--workers", "1")
    three = run_cli(*args, "--workers", "3")
    assert one.returncode == 0
    assert one.stdout == three.stdout


# stdout of `moments --q 5 --r 4 --dmin 6 --dmax 9` and `--q 13 --r 4 --dmin 5
# --dmax 5`, pinned byte for byte at degrees whose low half reaches a_2 to a_4
# (the benchmark references stop at D = 5 and D = 4)
MOMENTS_GOLDEN = {
    ("5", "6", "9"): (
        'q,r,D,moment_a,moment_b,moment_float,count,seconds\n'
        '5,4,6,16076918144/3125,-5641173888/3125,1108118.3544112681,12500,0.000\n'
        '5,4,7,462468792632/3125,0,147990013.64224,62500,0.000\n'
        '5,4,8,54463756737344/78125,-3391616922432/15625,211767382.73742193,312500,0.000\n'
        '5,4,9,1210050019602152/78125,0,15488640250.907545,1562500,0.000\n'
    ),
    ("13", "5", "5"): (
        'q,r,D,moment_a,moment_b,moment_float,count,seconds\n'
        '13,4,5,385934127216/2197,0,175664145.29631317,342732,0.000\n'
    ),
}


@pytest.mark.parametrize("q, dmin, dmax", sorted(MOMENTS_GOLDEN))
def test_moments_golden_stdout(q, dmin, dmax):
    p = run_cli("moments", "--q", q, "--r", "4", "--dmin", dmin, "--dmax", dmax)
    assert p.returncode == 0
    assert p.stdout == MOMENTS_GOLDEN[q, dmin, dmax]


def test_roots_jsonl():
    p = run_cli("roots", "--r", "4", "--level", "1")
    rows = [json.loads(x) for x in p.stdout.strip().splitlines()]
    assert len(rows) == 16
    assert {"k", "height", "word"} <= set(rows[0])


@pytest.mark.parametrize("level", ["3", "4"])
def test_roots_above_level_two_is_one_error_line(level):
    # no root is printed before the rejected one
    p = run_cli("roots", "--r", "4", "--level", level)
    assert_one_line_error(p)
    assert f"not level {level}" in p.stderr


@pytest.mark.parametrize("level", ["1", "3"])
def test_roots_over_the_root_budget_is_one_error_line(level):
    # 2^40 level-one roots: the enumeration stops at ROOT_BUDGET instead
    p = run_cli("roots", "--r", "40", "--level", level, timeout=60)
    assert_one_line_error(p)
    assert "positive real roots" in p.stderr


# stdout of `cocycle gamma-table --q 5`, pinned byte for byte so that a change
# in how K stores its elements cannot move a printed digit
GAMMA_TABLE_GOLDEN = (
    '{"case": "zeta=1 sgn=+1", '
    '"coords_1_q4_q2_q34": [["126", "0"], ["36", "0"], ["60", "0"], ["12", "0"]], '
    '"value": [354.1210530725366, 0.0]}\n'
    '{"case": "zeta=-1 sgn=+1", '
    '"coords_1_q4_q2_q34": [["126", "0"], ["-36", "0"], ["60", "0"], ["-12", "0"]], '
    '"value": [166.20710422743812, 0.0]}\n'
    '{"case": "zeta=i sgn=-1", '
    '"coords_1_q4_q2_q34": [["56", "0"], ["0", "-36"], ["-24", "0"], ["0", "12"]], '
    '"value": [2.334368540005059, -13.708137825378628]}\n'
    '{"case": "zeta=-i sgn=-1", '
    '"coords_1_q4_q2_q34": [["56", "0"], ["0", "36"], ["-24", "0"], ["0", "-12"]], '
    '"value": [2.334368540005059, 13.708137825378628]}\n'
)


def test_gamma_table_values():
    p = run_cli("cocycle", "gamma-table", "--q", "5")
    assert p.returncode == 0
    assert p.stdout == GAMMA_TABLE_GOLDEN


# stdout of the README example `cocycle eval --word 1,2,4 --z 0.3,0.4,0.5,0.6
# --q 5`, pinned byte for byte so that a change in how a base matrix is
# formed cannot move a printed float
COCYCLE_EVAL_GOLDEN = (
    "[[1.1373260380642944, 0.0], [0.3858024691358024, 0.0], "
    "[0.24056948235220957, 0.0]]\n"
    "[[0.2374943874550108, 0.0], [1.1574074074074072, 0.0], "
    "[0.1986296930582431, 0.0]]\n"
    "[[0.2876402866657704, 0.0], [0.3858024691358024, 0.0], "
    "[0.9512086759972491, 0.0]]\n"
)


def test_cocycle_eval_golden_stdout():
    p = run_cli("cocycle", "eval", "--word", "1,2,4",
                "--z", "0.3,0.4,0.5,0.6", "--q", "5")
    assert p.returncode == 0
    assert p.stdout == COCYCLE_EVAL_GOLDEN


# a diagonal letter scales columns, so its structural zeros come out as
# (+-0) * m; at negative coordinates that is -0.0, which prints as 0.0
COCYCLE_EVAL_DIAGONAL_NEGATIVE = (
    "[[-0.8191605554688717, 0.0], [0.0, 0.0], [0.0, 0.0]]\n"
    "[[0.0, 0.0], [3.855289616378947, 0.0], [0.0, 0.0]]\n"
    "[[0.0, 0.0], [0.0, 0.0], [2.440983809170683, 0.0]]\n"
)


def test_cocycle_eval_prints_exact_zero_unsigned():
    p = run_cli("cocycle", "eval", "--word", "3",
                "--z", "0.115,-0.048,0.116,-0.285,0.605+0.452j", "--q", "5")
    assert p.returncode == 0
    assert p.stdout == COCYCLE_EVAL_DIAGONAL_NEGATIVE


def test_cocycle_eval_diagonal():
    p = run_cli("cocycle", "eval", "--word", "1",
                "--z", "0.3,0.4,0.5,0.6", "--q", "5")
    rows = [json.loads(x) for x in p.stdout.strip().splitlines()]
    assert abs(rows[0][1][0]) < 1e-12 and abs(rows[1][0][0]) < 1e-12
    u = 0.3
    want = -(1 - 5 * u) / (5 * u * (1 - u))
    assert abs(rows[0][0][0] - want) < 1e-12


def test_predict_q1_json():
    p = run_cli("predict", "q1", "--q", "5", "--r", "4", "--D", "4",
                "--pmax", "8", "--quad", "16")
    out = json.loads(p.stdout.strip())
    assert out["kind"] == "q1" and out["D"] == 4
    assert out["refinement_delta"] is not None
    assert out["truncation_tail"] >= 0


def test_verify_theta_validation():
    p = run_cli("verify", "--N", "2", "--theta", "0.6",
                "--dmin", "1", "--dmax", "1")
    assert p.returncode != 0
    assert "theta" in p.stderr.lower()


def test_verify_theta_window_is_per_term_count():
    # theta = 0.45 is admissible for N = 2 but not for N = 1
    p = run_cli("verify", "--N", "1", "--theta", "0.45",
                "--dmin", "1", "--dmax", "1")
    assert p.returncode != 0


def test_verify_pipeline_small():
    p = run_cli("verify", "--q", "5", "--r", "2", "--dmin", "1", "--dmax", "2",
                "--N", "1", "--theta", "0.55", "--quad", "16", "--pmax", "6")
    assert p.returncode == 0
    lines = p.stdout.strip().splitlines()
    assert lines[0] == "D,moment_a,moment_b,moment,prediction,residual,normalized"
    assert len(lines) == 3
    assert "np." not in p.stdout
    # determinism
    p2 = run_cli("verify", "--q", "5", "--r", "2", "--dmin", "1", "--dmax", "2",
                 "--N", "1", "--theta", "0.55", "--quad", "16", "--pmax", "6")
    assert p.stdout == p2.stdout


# stdout of `verify --q 5 --r 4 --dmin 1 --dmax 3 --quad 16 --pmax 6`, pinned
# byte for byte so that a change in how the prediction is assembled shows
VERIFY_GOLDEN_ARGS = ("verify", "--q", "5", "--r", "4", "--dmin", "1",
                      "--dmax", "3", "--quad", "16", "--pmax", "6")
VERIFY_GOLDEN = {
    "1": (
        '# note: normalization: unit auxiliary series assumed for r = 4\n'
        'D,moment_a,moment_b,moment,prediction,residual,normalized\n'
        '1,5,0,5.0,5.512539221905172,-0.5125392219051719,-0.12535115832042656\n'
        '2,224/5,-96/5,1.8674948320040343,2.1696947504233135,-0.3021999184192792,-0.018075771187736858\n'
        '3,20456/5,0,4091.2,4097.044831886888,-5.844831886887732,-0.08550189945005669\n'
    ),
    "2": (
        '# note: normalization: unit auxiliary series assumed for r = 4\n'
        'D,moment_a,moment_b,moment,prediction,residual,normalized\n'
        '1,5,0,5.0,5.437240171891949,-0.43724017189194875,-0.13983513411977444\n'
        '2,224/5,-96/5,1.8674948320040343,4.123122044716522,-2.255627212712488,-0.2307064939681628\n'
        '3,20456/5,0,4091.2,4089.3047804522325,1.895219547767283,0.061993801437019505\n'
    ),
}


@pytest.mark.parametrize("n_terms", ["1", "2"])
def test_verify_golden_stdout(n_terms):
    p = run_cli(*VERIFY_GOLDEN_ARGS, "--N", n_terms)
    assert p.returncode == 0
    assert p.stdout == VERIFY_GOLDEN[n_terms]


# stdout of the benchmark's `predict q1|q2 --D 6 --quad 16`, pinned byte for
# byte so that a change in how the contour grid is walked shows
PREDICT_GOLDEN = {
    "q1": (
        '{"D": 6, "imag_rel": 6.97185473065105e-11, "kind": "q1", "q": 5, '
        '"r": 4, "refinement_delta": 1.0780782402925287e-06, '
        '"truncation_tail": 0.00025549121817545193, "value": 70.95844084230716}\n'
    ),
    "q2": (
        '{"D": 6, "imag_rel": 1.210874519353e-09, "kind": "q2", "q": 5, '
        '"r": 4, "refinement_delta": 2.539314332002812e-05, '
        '"truncation_tail": 0.04252778084136078, "value": -0.3509777164983037}\n'
    ),
}


@pytest.mark.parametrize("which", ["q1", "q2"])
def test_predict_golden_stdout(which):
    p = run_cli("predict", which, "--D", "6", "--quad", "16")
    assert p.returncode == 0
    assert p.stdout == PREDICT_GOLDEN[which]


def test_predict_flags_an_unconverged_euler_cutoff():
    # q = 13 at the default pmax = 12 gives Q2 = +0.533 where pmax = 6..10
    # give ~ -0.334; the value is finite, so only the tail can say so
    p = run_cli("predict", "q2", "--q", "13", "--D", "6", "--quad", "16")
    assert p.returncode == 0
    assert json.loads(p.stdout)["truncation_tail"] > 1


def test_verify_json_names_the_second_term_radius():
    # --rho sets the Q1 contour only; the Q2 term runs on Q2_QUAD.rho
    args = ("verify", "--q", "5", "--r", "4", "--dmin", "1", "--dmax", "1",
            "--rho", "0.3", "--quad", "8", "--pmax", "6", "--format", "json")
    one = json.loads(run_cli(*args, "--N", "1").stdout)["config"]
    two = json.loads(run_cli(*args, "--N", "2").stdout)["config"]
    assert one["rho"] == two["rho"] == 0.3
    assert "rho_q2" not in one
    assert two["rho_q2"] == predictor.Q2_QUAD.rho


def assert_one_line_error(p):
    assert p.returncode == 2
    assert p.stdout == ""
    lines = p.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("qlm: error:")
    assert "Traceback" not in p.stderr


def test_moments_rejects_composite_modulus():
    assert_one_line_error(run_cli("moments", "--q", "9", "--dmax", "2"))


@pytest.mark.parametrize("args", [
    ("--dmin", "0"),
    ("--r", "0"),
    ("--dmin", "3", "--dmax", "2"),
])
def test_moments_rejects_bad_range_before_printing(args):
    assert_one_line_error(run_cli("moments", *args))


@pytest.mark.parametrize("args", [
    ("--dmin", "12", "--dmax", "12"),
    ("--dmax", "12"),
    ("--dmin", "11", "--dmax", "11", "--method", "sieve"),
])
def test_moments_over_budget_fails_before_any_work(args):
    # at q = 5 the table route's budget holds to D = 11; no degree of the
    # range is computed, and not even the header is printed
    p = run_cli("moments", *args, timeout=30)
    assert_one_line_error(p)
    assert "budget" in p.stderr


def test_verify_over_budget_fails_before_the_prediction():
    p = run_cli("verify", "--dmin", "12", "--dmax", "12", "--N", "2", timeout=30)
    assert_one_line_error(p)
    assert "budget" in p.stderr


# the CLI with the prediction refused, so a check that comes after it fails
NO_PREDICTION = """
import sys
from qlmoments import cli, predictor
def refuse(*args, **kwargs):
    raise AssertionError("the prediction started")
predictor.moment_prediction = refuse
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("args", [
    ("moments", "--q", "50000017", "--dmax", "1"),
    ("verify", "--q", "50000017", "--dmin", "1", "--dmax", "1", "--quad", "8"),
], ids=["moments", "verify"])
def test_sieve_over_budget_fails_before_any_output(args):
    # D = 1 costs no symbol evaluations, but its factor sieve of degree 1
    # needs q > CELL_BUDGET cells: it is refused before the CSV header and
    # before the prediction
    p = subprocess.run([sys.executable, "-c", NO_PREDICTION, *args],
                       capture_output=True, text=True, timeout=30, env=ENV)
    assert_one_line_error(p)
    assert p.stderr == ("qlm: error: sieve would need 50000017 cells, "
                        "budget is 50000000\n")


@pytest.mark.parametrize("args", [
    ("predict", "q1", "--D", "4", "--r", "40", "--quad", "4"),
    ("predict", "q2", "--D", "4", "--r", "40", "--quad", "4"),
    ("predict", "q1", "--D", "4", "--r", "5", "--quad", "64"),
    # 4^12 grid points are within the budget, 4^11 per slice are not
    ("predict", "q2", "--D", "6", "--r", "12", "--quad", "4", "--pmax", "4"),
    ("verify", "--r", "40", "--quad", "4"),
])
def test_grid_over_budget_fails_before_any_allocation(args):
    # 4^40 points would ask numpy for 16 GiB on the first slice
    p = run_cli(*args, timeout=30)
    assert_one_line_error(p)
    assert "budget" in p.stderr


def test_moments_refuses_a_large_prime_modulus_in_under_a_second(capsys):
    # the modulus check passes q ~ 1e16 in well under a second (trial
    # division took seconds); the factor sieve's budget refuses it
    start = time.perf_counter()
    assert cli.main(["moments", "--q", "10000000000000061", "--dmax", "1"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "qlm: error: sieve would need "
                                   "10000000000000061 cells, budget is 50000000\n")


def test_predict_quad_below_four_nodes_is_refused():
    p = run_cli("predict", "q1", "--D", "3", "--quad", "2", timeout=30)
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr == "qlm: error: n_points must be a power of two >= 4\n"


def test_predict_rejects_composite_modulus():
    p = run_cli("predict", "q1", "--q", "9", "--D", "4", "--quad", "16",
                "--pmax", "6")
    assert_one_line_error(p)
    assert "modulus" in p.stderr


def test_predict_rejects_rank_zero():
    p = run_cli("predict", "q1", "--r", "0", "--D", "4", "--quad", "16")
    assert_one_line_error(p)
    assert "r >= 1" in p.stderr


def test_verify_second_term_needs_rank_four():
    p = run_cli("verify", "--N", "2", "--r", "3", "--dmin", "1", "--dmax", "2")
    assert_one_line_error(p)
    assert "r >= 4" in p.stderr


@pytest.mark.parametrize("rule, message", [
    (("--r", "0"), "need r >= 1"),
    (("--dmin", "0"), "need every degree D >= 1"),
], ids=["rank", "degree"])
@pytest.mark.parametrize("command", [
    ("moments",),
    ("predict", "q1", "--D", "4"),
    ("predict", "q2", "--D", "4"),
    ("verify",),
], ids=["moments", "q1", "q2", "verify"])
def test_request_rules_are_refused_in_one_text(command, rule, message):
    # the moments and the predictions accept the same (q, r, D), so each
    # rule is refused in the same words whichever command breaks it
    if command[0] == "predict" and rule[0] == "--dmin":
        rule = ("--D", "0")
    p = run_cli(*command, *rule, timeout=30)
    assert_one_line_error(p)
    assert p.stderr == f"qlm: error: {message}\n"


@pytest.mark.parametrize("args", [
    ("predict", "q1", "--D", "4", "--quad", "8", "--pmax", "442"),
    ("predict", "q2", "--D", "4", "--quad", "8", "--pmax", "442"),
    ("verify", "--dmin", "3", "--dmax", "3", "--quad", "8", "--pmax", "445"),
    ("predict", "q2", "--q", "13", "--D", "4", "--quad", "8", "--pmax", "277"),
], ids=["q1", "q2", "verify", "q2-q13"])
def test_pmax_beyond_the_float_range_is_refused(args):
    # q^pmax overflows a float: 5^442 and 13^277
    p = run_cli(*args, timeout=30)
    assert_one_line_error(p)
    assert "pmax must be <= " in p.stderr


def test_predict_refinement_null_without_a_half_grid():
    # --quad 8 has no half grid of >= 8 nodes: the delta is null, not 0.0
    p = run_cli("predict", "q1", "--q", "5", "--r", "4", "--D", "4",
                "--pmax", "6", "--quad", "8")
    assert p.returncode == 0
    assert json.loads(p.stdout)["refinement_delta"] is None


# at pmax = 29 the level-two product overflows (exp of the count-weighted
# log sum) to inf or NaN
def test_predict_non_finite_is_one_error_line():
    p = run_cli("predict", "q2", "--pmax", "29", "--quad", "8", "--D", "6")
    assert_one_line_error(p)
    assert "non-finite q2 prediction" in p.stderr and "--pmax" in p.stderr


def test_verify_non_finite_is_one_error_line():
    p = run_cli("verify", "--N", "2", "--pmax", "29", "--dmin", "3", "--dmax", "4",
                "--quad", "8")
    assert_one_line_error(p)
    assert "non-finite prediction" in p.stderr and "--pmax" in p.stderr


def test_cocycle_eval_singular_point_is_one_error_line():
    # u = 1 zeroes the base matrix's first denominator
    p = run_cli("cocycle", "eval", "--word", "1", "--z", "1,0.5", "--q", "5")
    assert_one_line_error(p)
    assert p.stderr.startswith("qlm: error: cocycle base matrix singular at letter 1")


@pytest.mark.parametrize("z, q, message", [
    ("nan,0.7,0.3", "5", "non-finite z coordinate (1)"),
    ("0.3,0.7,inf", "5", "non-finite z coordinate (3)"),
    ("0.3,nan+1j,-inf", "5", "non-finite z coordinate (2, 3)"),
    # finite input whose matrix overflows
    ("1e308,0.7,0.3", "5", "non-finite cocycle matrix entry"),
    ("0.3,0.7,0.3", "-5", "q must be finite and positive"),
    # q = 0 is rejected before any letter, not reported as a singular one
    ("1,0.5", "0", "q must be finite and positive"),
    ("0.3,0.7,0.3", "nan", "q must be finite and positive"),
    ("0.3,0.7,0.3", "inf", "q must be finite and positive"),
], ids=["z-nan", "z-inf", "z-two", "z-overflow", "q-negative", "q-zero",
        "q-nan", "q-inf"])
def test_cocycle_eval_rejects_non_finite_input(z, q, message):
    p = run_cli("cocycle", "eval", "--word", "1,2", "--z", z, "--q", q)
    assert_one_line_error(p)
    assert message in p.stderr
