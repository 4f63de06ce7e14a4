import numpy as np
import pytest

from gridswarm.qnet import NetworkSpec, QNetwork
from gridswarm.sim import Mission, MissionConfig, run_mission
from gridswarm.world import ArenaConfig, Target


@pytest.fixture(scope="module")
def nets():
    rng = np.random.default_rng(0)
    return (
        QNetwork.initialize(NetworkSpec.conflict(), rng),
        QNetwork.initialize(NetworkSpec.free(), rng),
    )


def targets_at(*specs):
    return [
        Target(i, pos, visits)
        for i, (pos, visits) in enumerate(specs)
    ]


def test_config_validation(nets):
    with pytest.raises(ValueError):
        MissionConfig(n_robots=0)
    with pytest.raises(ValueError):
        MissionConfig(max_time=0)
    with pytest.raises(ValueError):
        Mission(MissionConfig(), targets_at(((99.0, 5.0), 1)), *nets)
    with pytest.raises(ValueError):
        Mission(MissionConfig(spawn_box=(80.0, 80.0, 20.0, 20.0)),
                targets_at(((5.0, 5.0), 1)), *nets)


def test_grid_spacing():
    arena = ArenaConfig(swarm_bound_radius=30.0)
    cfg = MissionConfig(arena=arena, grid_rows=5, grid_cols=5)
    assert cfg.grid_spacing == pytest.approx(15.0)
    cfg = MissionConfig(arena=arena, grid_rows=7, grid_cols=5)
    assert cfg.grid_spacing == pytest.approx(10.0)


def test_spawn_inside_box(nets):
    cfg = MissionConfig(n_robots=9, spawn_box=(10.0, 20.0, 5.0, 5.0), seed=3)
    m = Mission(cfg, targets_at(((50.0, 50.0), 1)), *nets)
    for r in m.world.robots:
        assert 10.0 <= r.position[0] <= 15.0
        assert 20.0 <= r.position[1] <= 25.0


def test_mission_time_limit(nets):
    cfg = MissionConfig(n_robots=2, max_time=5.0, seed=0)
    res = run_mission(cfg, targets_at(((85.0, 85.0), 1)), *nets)
    assert not res.success
    assert res.total_time == pytest.approx(5.0)


def test_no_targets_is_immediate_success(nets):
    cfg = MissionConfig(n_robots=2, max_time=5.0, seed=0)
    res = run_mission(cfg, [], *nets)
    assert res.success and res.total_time == 0.0


def test_neutralization_near_spawn(nets):
    # a single-visit target right in the spawn box falls quickly
    cfg = MissionConfig(n_robots=6, max_time=120.0, seed=1)
    res = run_mission(cfg, targets_at(((10.0, 10.0), 1)), *nets)
    assert res.success
    assert res.target_times[0] <= res.total_time


def test_mission_deterministic(nets):
    tgts = targets_at(((12.0, 8.0), 1), ((30.0, 25.0), 1))
    cfg = MissionConfig(n_robots=4, max_time=60.0, seed=5, log_trajectory=True)
    r1 = run_mission(cfg, tgts, *nets)
    r2 = run_mission(cfg, tgts, *nets)
    assert r1.summary() == r2.summary()
    assert r1.trajectory == r2.trajectory


def test_seed_changes_outcome(nets):
    tgts = targets_at(((12.0, 8.0), 1))
    a = run_mission(MissionConfig(n_robots=4, max_time=30.0, seed=1, log_trajectory=True), tgts, *nets)
    b = run_mission(MissionConfig(n_robots=4, max_time=30.0, seed=2, log_trajectory=True), tgts, *nets)
    assert a.trajectory != b.trajectory


def test_mrt_requires_two_distinct_robots(nets):
    cfg = MissionConfig(n_robots=6, max_time=200.0, seed=2)
    m = Mission(cfg, targets_at(((12.0, 12.0), 2)), *nets)
    res = m.run()
    if res.success:
        tgt = m.world.targets[0]
        assert len(tgt.visited_by) == 2


def test_trajectory_rows_shape(nets):
    cfg = MissionConfig(n_robots=3, max_time=2.0, seed=0, log_trajectory=True)
    res = run_mission(cfg, targets_at(((80.0, 80.0), 1)), *nets)
    assert res.trajectory
    row = res.trajectory[0]
    assert len(row) == 8
    ids = {r[1] for r in res.trajectory}
    assert ids == {0, 1, 2}


def test_robots_stay_in_arena(nets):
    cfg = MissionConfig(n_robots=6, max_time=30.0, seed=4, log_trajectory=True)
    res = run_mission(cfg, targets_at(((88.0, 88.0), 1)), *nets)
    arena = ArenaConfig()
    for row in res.trajectory:
        assert 0.0 <= row[2] <= arena.width
        assert 0.0 <= row[3] <= arena.height
