import functools
import math
import operator

import pytest
from hypothesis import given, strategies as st

from gridswarm.world import (
    ArenaConfig,
    Robot,
    Target,
    WorldState,
    hale_centroid,
    sense,
    try_neutralize,
)


def make_robot(i, pos):
    return Robot(id=i, position=pos)


def test_arena_validation():
    with pytest.raises(ValueError):
        ArenaConfig(width=-1)
    with pytest.raises(ValueError):
        ArenaConfig(global_sensor_range=5.0, local_sensor_range=10.0)
    arena = ArenaConfig()
    assert arena.contains((0, 0)) and arena.contains((90, 90))
    assert not arena.contains((90.1, 10))


def test_target_kind():
    srt = Target(0, (1, 1), 1)
    mrt = Target(1, (2, 2), 2)
    assert srt.required_visits == 1
    assert mrt.required_visits == 2
    with pytest.raises(ValueError):
        Target(2, (3, 3), 0)


@given(
    st.lists(
        st.tuples(st.floats(0, 90), st.floats(0, 90)), min_size=1, max_size=9
    )
)
def test_centroid_is_mean(positions):
    robots = [make_robot(i, p) for i, p in enumerate(positions)]
    cx, cy = hale_centroid(robots)
    assert math.isclose(cx, sum(p[0] for p in positions) / len(positions))
    assert math.isclose(cy, sum(p[1] for p in positions) / len(positions))


@given(st.lists(st.tuples(st.floats(0, 90), st.floats(0, 90)), min_size=3, max_size=9))
def test_centroid_adds_left_to_right(positions):
    """The bits of a plain left-to-right sum on every Python: the builtin
    sum compensates since 3.12, which moves about half of all random
    6-robot centroids."""
    robots = [make_robot(i, p) for i, p in enumerate(positions)]
    n = len(positions)
    want = tuple(functools.reduce(operator.add, (p[k] for p in positions), 0.0) / n
                 for k in (0, 1))
    assert hale_centroid(robots) == want


def test_centroid_empty_swarm():
    with pytest.raises(ValueError):
        hale_centroid([])


def test_sense_ranges_and_ordering():
    arena = ArenaConfig()
    robots = [make_robot(0, (45, 45)), make_robot(1, (50, 45)), make_robot(2, (80, 45))]
    targets = [
        Target(5, (60, 45), 1),  # 15 m: inside r_g
        Target(3, (45, 50), 1),  # 5 m
        Target(7, (45, 80), 1),  # 35 m: outside
    ]
    seen, neighbors = sense(robots[0], WorldState(robots, targets), arena)
    assert seen == ((3, (45, 50)), (5, (60, 45)))  # (id, position), ascending id
    assert neighbors == ((1, (50, 45)),)  # robot 2 beyond r_l


def test_sense_skips_dead_targets():
    arena = ArenaConfig()
    robots = [make_robot(0, (45, 45))]
    t = Target(0, (46, 45), 1, live=False)
    assert sense(robots[0], WorldState(robots, [t]), arena) == ((), ())


def test_neutralize_single_visit():
    t = Target(0, (1, 1), 1)
    assert try_neutralize(3, t)
    assert not t.live
    assert not try_neutralize(4, t)  # already dead


def test_neutralize_sequence_order():
    t = Target(0, (1, 1), 2, visit_sequence=(2, 5))
    assert not try_neutralize(5, t)  # out of order
    assert try_neutralize(2, t)
    assert t.live and t.sequence_progress == 1
    assert not try_neutralize(2, t)  # same robot cannot count twice
    assert try_neutralize(5, t)
    assert not t.live


def test_neutralize_multivisit_distinct_robots():
    t = Target(0, (1, 1), 3)
    # uncommitted slots accept any new robot and commit it on the spot
    assert try_neutralize(0, t)
    assert t.live and t.sequence_progress == 1 and t.visit_sequence == (0,)
    # a robot may not count twice against the same target
    assert not try_neutralize(0, t)
    assert try_neutralize(2, t)
    assert try_neutralize(1, t)
    assert not t.live and t.visit_sequence == (0, 2, 1)


def test_neutralize_committed_slot_binds_robot():
    t = Target(0, (1, 1), 2, visit_sequence=(3, 4))
    # only the committed robot for the next slot may advance the sequence
    assert not try_neutralize(4, t)
    assert try_neutralize(3, t)
    assert try_neutralize(4, t)
    assert not t.live
