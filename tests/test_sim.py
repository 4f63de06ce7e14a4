import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridswarm.cli import DistributionSpec
from gridswarm.motion import KinematicParams, PIState
from gridswarm.qnet import NetworkSpec, QNetwork, TrainerConfig
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("config, field", [
    (MissionConfig, "max_time"),
    *((ArenaConfig, f) for f in ("width", "height", "swarm_bound_radius",
                                 "global_sensor_range", "local_sensor_range",
                                 "neutralize_radius")),
    *((KinematicParams, f) for f in ("v_max", "heading_gain", "omega_max", "dt")),
    *((PIState, f) for f in ("kp", "ki")),
    *((TrainerConfig, f) for f in ("learning_rate", "eps_end", "eps_decay_fraction",
                                   "lr_end_scale")),
    *((DistributionSpec, f) for f in ("mrt_fraction", "cluster_radius")),
])
def test_config_float_fields_must_be_finite(config, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        config(**{field: value})


def test_duplicate_target_ids_rejected(nets):
    # one id for two targets would make every lookup by id resolve to one of them
    twins = [Target(0, (30.0, 30.0), 1), Target(0, (60.0, 60.0), 1)]
    with pytest.raises(ValueError, match="target id 0 is used by more than one target"):
        Mission(MissionConfig(), twins, *nets)


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


def test_mission_runs_on_its_own_copy_of_the_targets(nets):
    # a multi-visit target robot 4 has already visited, one that falls near
    # the spawn box and one far off
    tgts = [Target(0, (12.0, 12.0), 3, sequence_progress=1, visit_sequence=(4,),
                   visited_by={4}),
            Target(1, (10.0, 10.0), 1),
            Target(2, (70.0, 60.0), 2)]
    before = copy.deepcopy(tgts)
    cfg = MissionConfig(n_robots=6, max_time=120.0, seed=1, log_trajectory=True)
    m = Mission(cfg, tgts, *nets)
    res = m.run()
    assert tgts == before
    assert m.world.targets != before  # the run did change its own targets
    for mine, theirs in zip(m.world.targets, tgts):
        assert mine is not theirs and mine.visited_by is not theirs.visited_by
    ref = Mission(cfg, copy.deepcopy(tgts), *nets).run()
    assert res.summary() == ref.summary()
    assert res.trajectory == ref.trajectory


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


SMALL_ARENA = ArenaConfig(width=30.0, height=30.0, swarm_bound_radius=15.0)


@st.composite
def small_missions(draw):
    n_robots = draw(st.integers(1, 3))
    spots = st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
    targets = [Target(i, pos, visits) for i, (pos, visits) in enumerate(
        draw(st.lists(st.tuples(spots, st.integers(1, 3)), min_size=1, max_size=4)))]
    max_time = draw(st.floats(1.0, 20.0))
    cfg = MissionConfig(arena=SMALL_ARENA, n_robots=n_robots, max_time=max_time,
                        seed=draw(st.integers(0, 2**32 - 1)),
                        spawn_box=(0.0, 0.0, 10.0, 10.0))
    return cfg, targets


@settings(max_examples=25, deadline=None)
@given(small_missions())
def test_mission_invariants_hold_after_every_step(nets, case):
    cfg, targets = case
    m = Mission(cfg, targets, *nets)
    while m.world.time < cfg.max_time and any(t.live for t in m.world.targets):
        m.step()
        for r in m.world.robots:
            assert SMALL_ARENA.contains(r.position)
        for t in m.world.targets:
            assert t.sequence_progress <= t.required_visits
            assert len(t.visited_by) == t.sequence_progress
            if t.required_visits > 1:
                assert set(t.visit_sequence[:t.sequence_progress]) == t.visited_by
            assert t.live == (t.sequence_progress < t.required_visits)
