"""The benchmark's tracer (perfbench/tracing.py) wraps package attributes by
name, so a renamed or moved one breaks it; this runs it on a small
prediction.  -B keeps bytecode out of perfbench/."""

import json
import os
import subprocess
import sys

import qlmoments

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qlmoments.__file__)))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

TRACED_PREDICT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from qlmoments import cli
for which in ("q1", "q2"):
    cli.main(["predict", which, "--D", "4", "--quad", "8", "--pmax", "6"])
print(json.dumps(tracer.report()))
"""


def test_tracer_installs_and_counts_a_traced_prediction():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    p = subprocess.run([sys.executable, "-B", "-c", TRACED_PREDICT, PERFBENCH],
                       capture_output=True, text=True, timeout=120, env=env)
    assert p.returncode == 0, p.stderr
    report = json.loads(p.stdout.splitlines()[-1])
    # two r = 4 grids on 8 nodes, one tail each (the tracer counts n^r
    # points for either); the level-two product once per slice of leads
    # 0..4 (the other three are read off their conjugate partners), the
    # level-one product once per nonempty block of Q1's increasing index
    # tuples, one block per largest index t = 3..7: 8 - 4 + 1 = 5 calls,
    # where the multiset table took 2 (330 multisets in blocks of 8^3 / 2)
    assert report["counts"]["predictor.grid_points"] == 2 * 8**4
    assert report["spans"]["predictor.tail"][0] == 2
    assert report["spans"]["predictor.euler_level_one"][0] == 8 - 4 + 1
    assert report["spans"]["predictor.euler_regularized"][0] == 8 // 2 + 1
