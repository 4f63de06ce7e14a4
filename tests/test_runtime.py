"""The runtime needs no scipy: scipy is a test-only dependency.

A fresh interpreter refuses every scipy import, then imports the CLI, runs a
default mission, a short self-play training run and the `defaults` verb.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import sys


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
cli.main(["defaults"])
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
