import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridswarm import cli, motion, sim, world as world_mod
from gridswarm.cli import DistributionSpec
from gridswarm.motion import KinematicParams, PIState
from gridswarm.qnet import NetworkSpec, QNetwork, TrainerConfig, load_weights
from gridswarm.sim import Mission, MissionConfig
from gridswarm.world import ArenaConfig, Target

POLICIES = Path(__file__).resolve().parents[1] / "perfbench" / "policies"


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
    res = Mission(cfg, targets_at(((85.0, 85.0), 1)), *nets).run()
    assert not res.success
    assert res.total_time == pytest.approx(5.0)


def test_no_targets_is_immediate_success(nets):
    cfg = MissionConfig(n_robots=2, max_time=5.0, seed=0)
    res = Mission(cfg, [], *nets).run()
    assert res.success and res.total_time == 0.0


def test_neutralization_near_spawn(nets):
    # a single-visit target right in the spawn box falls quickly
    cfg = MissionConfig(n_robots=6, max_time=120.0, seed=1)
    res = Mission(cfg, targets_at(((10.0, 10.0), 1)), *nets).run()
    assert res.success
    assert res.target_times[0] <= res.total_time


def test_mission_deterministic(nets):
    tgts = targets_at(((12.0, 8.0), 1), ((30.0, 25.0), 1))
    cfg = MissionConfig(n_robots=4, max_time=60.0, seed=5)
    rows1, r1 = cli.record_trajectory(Mission(cfg, tgts, *nets))
    rows2, r2 = cli.record_trajectory(Mission(cfg, tgts, *nets))
    assert r1.summary() == r2.summary()
    assert rows1 == rows2


def test_seed_changes_outcome(nets):
    tgts = targets_at(((12.0, 8.0), 1))
    a, _ = cli.record_trajectory(Mission(MissionConfig(n_robots=4, max_time=30.0, seed=1),
                                         tgts, *nets))
    b, _ = cli.record_trajectory(Mission(MissionConfig(n_robots=4, max_time=30.0, seed=2),
                                         tgts, *nets))
    assert a != b


def test_mission_runs_on_its_own_copy_of_the_targets(nets):
    # a multi-visit target robot 4 has already visited, one that falls near
    # the spawn box and one far off
    tgts = [Target(0, (12.0, 12.0), 3, sequence_progress=1, visit_sequence=(4,),
                   visited_by={4}),
            Target(1, (10.0, 10.0), 1),
            Target(2, (70.0, 60.0), 2)]
    before = copy.deepcopy(tgts)
    cfg = MissionConfig(n_robots=6, max_time=120.0, seed=1)
    m = Mission(cfg, tgts, *nets)
    rows, res = cli.record_trajectory(m)
    assert tgts == before
    assert m.world.targets != before  # the run did change its own targets
    for mine, theirs in zip(m.world.targets, tgts):
        assert mine is not theirs and mine.visited_by is not theirs.visited_by
    ref_rows, ref = cli.record_trajectory(Mission(cfg, copy.deepcopy(tgts), *nets))
    assert res.summary() == ref.summary()
    assert rows == ref_rows


def test_mrt_requires_two_distinct_robots(nets):
    cfg = MissionConfig(n_robots=6, max_time=200.0, seed=2)
    m = Mission(cfg, targets_at(((12.0, 12.0), 2)), *nets)
    res = m.run()
    if res.success:
        tgt = m.world.targets[0]
        assert len(tgt.visited_by) == 2


def test_a_colliding_pair_counts_again_only_after_it_separates(nets):
    """A pair counts one collision per approach: it re-arms only once it is
    more than 2 x COLLISION_RADIUS apart."""
    m = Mission(MissionConfig(n_robots=2), targets_at(((80.0, 80.0), 1)), *nets)
    a, b = m.world.robots
    counts = []
    for gap in (0.4, 0.8, 0.4, 1.2, 0.4):
        a.position, b.position = (40.0, 40.0), (40.0 + gap, 40.0)
        m._count_collisions()
        counts.append(m.collisions)
    assert counts == [1, 1, 1, 1, 2]


def test_the_coverage_circuit_starts_at_anchor_0(nets):
    # a swarm spawned far from anchor 0, with its one target out of view,
    # neither reaches the anchor nor stalls within five steps
    cfg = MissionConfig(spawn_box=(60.0, 60.0, 20.0, 20.0))
    m = Mission(cfg, targets_at(((5.0, 85.0), 1)), *nets)
    for _ in range(5):
        m.step()
        assert m.sweep_idx == 0


def test_trajectory_rows_shape(nets):
    cfg = MissionConfig(n_robots=3, max_time=2.0, seed=0)
    mission = Mission(cfg, targets_at(((80.0, 80.0), 1)), *nets)
    header, *rows = cli.record_trajectory(mission)[0]
    assert len(header) == 8
    assert rows
    row = rows[0]
    assert len(row) == 8
    ids = {r[1] for r in rows}
    assert ids == {0, 1, 2}


def test_robots_stay_in_arena(nets):
    cfg = MissionConfig(n_robots=6, max_time=30.0, seed=4)
    mission = Mission(cfg, targets_at(((88.0, 88.0), 1)), *nets)
    _header, *rows = cli.record_trajectory(mission)[0]
    arena = ArenaConfig()
    assert rows
    for row in rows:
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
    while m.running:
        m.step()
        for r in m.world.robots:
            assert SMALL_ARENA.contains(r.position)
        for t in m.world.targets:
            assert t.sequence_progress <= t.required_visits
            assert len(t.visited_by) == t.sequence_progress
            if t.required_visits > 1:
                assert set(t.visit_sequence[:t.sequence_progress]) == t.visited_by
            assert t.live == (t.sequence_progress < t.required_visits)
        assert m.live_targets == [t for t in m.world.targets if t.live]


def reference_step(m):
    """`Mission.step` as three passes: move every robot, then test every
    robot's visits against a fresh live list, then count collisions.

    The sequence timeout reads the twin's own stamps: a decision that grew a
    sequence stamps it, a visit stamps its target, and a tail drop pops the
    stamp.  The anchor stall reads the later of the approach clock and the
    visit clock."""
    cfg = m.config
    dt = cfg.kinematics.dt
    for tgt in m.world.targets:
        if (tgt.live and tgt.required_visits > 1
                and len(tgt.visit_sequence) > tgt.sequence_progress
                and m.world.time - m._seq_stamp.get(tgt.id, 0.0)
                > world_mod.SEQUENCE_TIMEOUT):
            tgt.visit_sequence = tgt.visit_sequence[:tgt.sequence_progress]
            m._seq_stamp.pop(tgt.id, None)
    centroid = world_mod.hale_centroid(m.world.robots)
    for robot in m.world.robots:
        ctl = m.ctl[robot.id]
        if ctl.waypoint is None or m.world.time >= ctl.deadline or \
                math.dist(robot.position, ctl.waypoint) <= m.arrival:
            held = [len(t.visit_sequence) for t in m.world.targets]
            m._decide(robot, centroid)
            for tgt, n in zip(m.world.targets, held):
                if len(tgt.visit_sequence) > n:
                    m._seq_stamp[tgt.id] = m.world.time

    anchor = m.sweep_anchors[m.sweep_idx]
    d = math.dist(centroid, anchor)
    if d < m._sweep_best - 0.5:
        m._sweep_best = d
        m._sweep_since = m.world.time
    if d <= m._sweep_reach or m.world.time - max(
            m._sweep_since, m._last_visit) > sim.ANCHOR_STALL:
        m.sweep_idx = (m.sweep_idx + 1) % len(m.sweep_anchors)
        m._sweep_best = math.inf
        m._sweep_since = m.world.time
    kp, ki = cfg.pi.kp, cfg.pi.ki
    bound, arrival = m.arena.swarm_bound_radius, m.arrival
    for robot in m.world.robots:
        ctl = m.ctl[robot.id]
        waypoint = ctl.waypoint
        if math.dist(robot.position, centroid) > bound:
            waypoint = centroid
        dist = math.dist(robot.position, waypoint)
        if dist > arrival:
            ctl.integral = motion.advance(robot, waypoint, dist, ctl.integral,
                                          kp, ki, cfg.kinematics, m.arena)

    live = [t for t in m.world.targets if t.live]
    for robot in m.world.robots:
        ctl = m.ctl[robot.id]
        for tgt in live:
            if tgt.live and math.dist(robot.position, tgt.position) \
                    <= m.arena.neutralize_radius:
                if world_mod.try_neutralize(robot.id, tgt, m.world.time + dt):
                    m._seq_stamp[tgt.id] = m.world.time + dt
                    m._last_visit = m.world.time
                    if not tgt.live:
                        m.target_times[tgt.id] = m.world.time + dt
                    ctl.waypoint = None

    pts = [(r.id, r.position) for r in m.world.robots]
    for i, (a, pa) in enumerate(pts):
        for b, pb in pts[i + 1:]:
            d = math.dist(pa, pb)
            if d <= sim.COLLISION_RADIUS:
                if (a, b) not in m._colliding_pairs:
                    m._colliding_pairs.add((a, b))
                    m.collisions += 1
            elif d > 2.0 * sim.COLLISION_RADIUS and m._colliding_pairs:
                m._colliding_pairs.discard((a, b))
    m.world.time += dt


def _state(m):
    """Everything a step writes, as a string: float reprs round-trip, so
    equal strings mean equal bits."""
    return repr((
        [(r.id, r.position, r.heading, m.ctl[r.id].integral, m.ctl[r.id].label,
          m.ctl[r.id].action, m.ctl[r.id].assigned) for r in m.world.robots],
        [(t.id, t.position, t.required_visits, t.sequence_progress, t.live,
          t.visit_sequence, sorted(t.visited_by), t.active_at) for t in m.world.targets],
        sorted(m.target_times.items()), m.collisions, m.world.time, m.sweep_idx,
    ))


def assert_steps_like_the_reference(make):
    """Step `make()` and its twin by `reference_step` in lockstep, comparing
    after every step; return the mission and its sequence timeouts."""
    m, twin = make(), make()
    # the twin keeps the progress times apart: sequence stamps in a dict by
    # target id, and the circuit's approach and visit clocks
    twin._seq_stamp, twin._sweep_since, twin._last_visit = {}, 0.0, 0.0
    steps = timeouts = 0
    while m.running:
        held = [len(t.visit_sequence) for t in m.world.targets]
        m.step()
        reference_step(twin)
        steps += 1
        assert _state(m) == _state(twin), f"step {steps}"
        assert m._progress_at == max(twin._sweep_since, twin._last_visit), f"step {steps}"
        timeouts += any(len(t.visit_sequence) < n for t, n in zip(m.world.targets, held))
    assert not (twin.world.time < twin.config.max_time
                and any(t.live for t in twin.world.targets))
    return m, timeouts


@settings(max_examples=25, deadline=None)
@given(small_missions())
def test_step_matches_the_three_pass_reference(nets, case):
    cfg, targets = case
    assert_steps_like_the_reference(lambda: Mission(cfg, targets, *nets))


# seeds whose missions, under the shipped policies, also drop a visit
# sequence's tail on timeout
@pytest.mark.parametrize("seed", [3, 4])
def test_default_missions_step_like_the_three_pass_reference(seed):
    policies = (load_weights(POLICIES / "conflict.qnet"), load_weights(POLICIES / "free.qnet"))
    cfg = cli.load_config(None)
    m, timeouts = assert_steps_like_the_reference(
        lambda: cli.build_mission(cfg, seed, *policies))
    assert not m.live_targets and m.collisions and timeouts


def test_a_committed_tail_drops_one_step_after_the_timeout(nets):
    cfg = MissionConfig(seed=0)
    m = Mission(cfg, targets_at(((85.0, 85.0), 2)), *nets)  # beyond every robot's view
    tgt = m.world.targets[0]
    assert world_mod.commit(0, tgt, 0.0)
    m.world.time = world_mod.SEQUENCE_TIMEOUT
    m.step()  # now - active_at == SEQUENCE_TIMEOUT: not yet past it
    assert tgt.visit_sequence == (0,) and tgt.active_at == 0.0
    m.step()
    assert tgt.visit_sequence == () and tgt.live
