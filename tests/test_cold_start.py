"""What a fresh interpreter loads: SciPy only on the first Phi evaluation,
concurrent.futures only for a drift estimate's thread pool, and nothing of
the urllib/ssl chain at all.

Each test runs its own interpreter, so no module an earlier test imported
can hide a load. A module counts only if the package loaded it, not if
the interpreter had it before the first package import.
"""

import json

from helpers import run_python

TINY_TRAIN = [
    "train", "--rounds", "2", "--epochs", "2", "--batch-size", "8", "--width", "8", "--layers", "2",
    "--classes", "3", "--dim", "6", "--n-per-class", "10", "--out", "o",
]

# the TestFrozenDrift pin of the normal-noise config on CHUNK_SIZE + 20,123 neurons
PINNED_TWO_CHUNKS = ("-0x1.8a56902c3bf15p-19", "0x1.dd039f152f283p-27")

TRAIN_THEN_REPORT = """
import json, sys
before = set(sys.modules)

def loaded():
    return sorted({"scipy", "urllib.request", "ssl", "concurrent.futures"} & (set(sys.modules) - before))

from collapse_lab import cli
stages = {"import": loaded()}
stages["train"] = [cli.main(sys.argv[1:]), loaded()]
stages["report"] = [cli.main(["report", "--source", "o", "--out", "r"]), loaded()]
print(json.dumps(stages))
"""

FIRST_PHI_IN_THE_POOL = """
import json, sys
before = set(sys.modules)
from collapse_lab.dists import Uniform
from collapse_lab.mc import CHUNK_SIZE, EnsembleSpec, UpdateConfig, one_step_drift
spec = EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1.0, 1.0), CHUNK_SIZE + 20_123)
imported = "scipy" in set(sys.modules) - before
est, = one_step_drift(spec, [UpdateConfig(eta=0.005, c=1.0, noise="normal", seed=11)])
print(json.dumps([imported, "scipy" in sys.modules, est.empirical_mean.hex(), est.std_error.hex()]))
"""


def test_train_and_report_never_load_scipy(tmp_path):
    # one thread: the cells train in this interpreter, not in spawned workers
    res = run_python(["-c", TRAIN_THEN_REPORT, *TINY_TRAIN], cwd=tmp_path, env={"COLLAPSE_LAB_THREADS": "1"})
    assert res.returncode == 0, res.stderr
    stages = json.loads(res.stdout.splitlines()[-1])
    assert stages == {"import": [], "train": [0, []], "report": [0, []]}


def test_first_phi_inside_a_two_chunk_drift(tmp_path):
    # two chunk threads, and neither may find SciPy half imported
    res = run_python(["-c", FIRST_PHI_IN_THE_POOL], cwd=tmp_path, env={"COLLAPSE_LAB_THREADS": "2"})
    assert res.returncode == 0, res.stderr
    imported, loaded, *estimate = json.loads(res.stdout)
    assert (imported, loaded) == (False, True)
    assert tuple(estimate) == PINNED_TWO_CHUNKS
