"""The runtime needs no scipy, and loads PyYAML and the process pool only on demand.

A fresh interpreter refuses every scipy import, then imports the CLI, runs a
default mission and a short self-play training run, and checks that neither
loaded PyYAML or the process pool. A one-run `jobs=1` sweep must still leave
the pool out; the `defaults` verb, which prints YAML, then loads PyYAML.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import sys
import tempfile
from pathlib import Path


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is not a runtime dependency: {name}")
        return None


sys.meta_path.insert(0, NoScipy())

from gridswarm import allocation, cli, qnet

solves = []  # allocate calls the solver only for two or more robots
solve = allocation._assign
allocation._assign = lambda c: solves.append(c) or solve(c)
policies = sys.argv[1]
cfg = cli.load_config(None)
result = cli.build_mission(cfg, cli.splitmix64(0, 0),
                          cli._load_policy(f"{policies}/conflict.qnet", "conflict"),
                          cli._load_policy(f"{policies}/free.qnet", "free")).run()
assert result.success, result.summary()
assert solves, "no multi-robot solve ran"
qnet.train_conflict_selfplay(qnet.TrainerConfig(episodes=100), n_agents=2, seed=0)
POOL = ("concurrent.futures.process", "multiprocessing")
loaded = [m for m in ("yaml", *POOL) if m in sys.modules]
assert not loaded, f"a mission and a training run loaded {loaded}"
cfg["sweep"].update(values=[3], repetitions=1)
with tempfile.TemporaryDirectory() as out:
    cli.run_sweep(cfg, 0, f"{policies}/conflict.qnet", f"{policies}/free.qnet",
                  Path(out), jobs=1)
loaded = [m for m in POOL if m in sys.modules]
assert not loaded, f"a one-run sweep loaded {loaded}"
cli.main(["defaults"])
assert "yaml" in sys.modules
assert "scipy" not in sys.modules
print("runtime ok")
"""


def test_runtime_needs_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "policies")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("runtime ok")
