import json
import subprocess
import sys


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "qlmoments.cli", *args],
        capture_output=True, text=True, timeout=600,
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


def test_roots_jsonl():
    p = run_cli("roots", "--r", "4", "--level", "1")
    rows = [json.loads(x) for x in p.stdout.strip().splitlines()]
    assert len(rows) == 16
    assert {"k", "height", "word"} <= set(rows[0])


def test_gamma_table_values():
    p = run_cli("cocycle", "gamma-table", "--q", "5")
    rows = [json.loads(x) for x in p.stdout.strip().splitlines()]
    assert len(rows) == 4
    first = rows[0]
    assert first["coords_1_q4_q2_q34"] == [["126", "0"], ["36", "0"],
                                           ["60", "0"], ["12", "0"]]


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
                "--N", "1", "--theta", "0.55", "--quad", "16", "--pmax", "6",
                "--workers", "1")
    assert p.returncode == 0
    lines = p.stdout.strip().splitlines()
    assert lines[0] == "D,moment_a,moment_b,moment,prediction,residual,normalized"
    assert len(lines) == 3
    assert "np." not in p.stdout
    # determinism
    p2 = run_cli("verify", "--q", "5", "--r", "2", "--dmin", "1", "--dmax", "2",
                 "--N", "1", "--theta", "0.55", "--quad", "16", "--pmax", "6",
                 "--workers", "1")
    assert p.stdout == p2.stdout


def test_selftest_passes():
    p = run_cli("selftest")
    assert p.returncode == 0
    assert "FAIL" not in p.stdout


def assert_one_line_error(p):
    assert p.returncode == 2
    assert p.stdout == ""
    lines = p.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("qlm: error:")
    assert "Traceback" not in p.stderr


def test_moments_rejects_composite_modulus():
    assert_one_line_error(run_cli("moments", "--q", "9", "--dmax", "2"))


def test_predict_rejects_composite_modulus():
    p = run_cli("predict", "q1", "--q", "9", "--D", "4", "--quad", "16",
                "--pmax", "6")
    assert_one_line_error(p)
    assert "modulus" in p.stderr


def test_verify_second_term_needs_rank_four():
    p = run_cli("verify", "--N", "2", "--r", "3", "--dmin", "1", "--dmax", "2")
    assert_one_line_error(p)
    assert "r >= 4" in p.stderr


def test_predict_refinement_null_without_a_half_grid():
    # --quad 8 has no half grid of >= 8 nodes: the delta is null, not 0.0
    p = run_cli("predict", "q1", "--q", "5", "--r", "4", "--D", "4",
                "--pmax", "6", "--quad", "8")
    assert p.returncode == 0
    assert json.loads(p.stdout)["refinement_delta"] is None
