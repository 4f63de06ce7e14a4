import ast
import copy
import functools
import itertools
import math
import operator
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gridswarm import world
from gridswarm.world import (
    ArenaConfig,
    Robot,
    Target,
    WorldState,
    commit,
    hale_centroid,
    sense,
    try_neutralize,
    waits_for,
)


def make_robot(i, pos):
    return Robot(id=i, position=pos)


def test_arena_validation():
    with pytest.raises(ValueError):
        ArenaConfig(width=-1)
    with pytest.raises(ValueError):
        ArenaConfig(global_sensor_range=5.0, local_sensor_range=10.0)
    # a robot within reach of a target must also sense it
    for radius in (20.5, 1000.0, 0.0, -0.0, -1.0):
        with pytest.raises(ValueError, match=re.escape(
                "require global_sensor_range >= neutralize_radius > 0")):
            ArenaConfig(neutralize_radius=radius)
    assert ArenaConfig(neutralize_radius=20.0).neutralize_radius == 20.0
    arena = ArenaConfig()
    assert arena.contains((0, 0)) and arena.contains((90, 90))
    assert not arena.contains((90.1, 10))


TARGET_FIELDS = {"visit_sequence", "active_at", "sequence_progress", "live", "visited_by"}
SET_WRITES = {"add", "discard", "remove", "update", "clear", "pop"}


def _assigned(target):
    """The expressions an assignment target binds, through tuple unpacking."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned(elt)
    elif isinstance(target, ast.Starred):
        yield from _assigned(target.value)
    else:
        yield target


def test_only_world_writes_a_target():
    writes = []
    for path in sorted(Path(world.__file__).parent.glob("*.py")):
        if path.name == "world.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.Delete)):
                written = [t for target in node.targets for t in _assigned(target)]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                written = [node.target]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in SET_WRITES:
                written = [node.func.value]
            else:
                continue
            writes += [f"{path.name}:{node.lineno} {t.attr}" for t in written
                       if isinstance(t, ast.Attribute) and t.attr in TARGET_FIELDS]
    assert writes == []


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
    t = Target(0, (46, 45), 1)
    assert try_neutralize(0, t, 0.0)
    assert sense(robots[0], WorldState(robots, [t]), arena) == ((), ())


def test_neutralize_single_visit():
    t = Target(0, (1, 1), 1)
    assert try_neutralize(3, t, 2.5)
    assert not t.live and t.active_at == 2.5
    assert not try_neutralize(4, t, 3.0)  # already dead
    assert t.active_at == 2.5


def test_neutralize_sequence_order():
    t = Target(0, (1, 1), 2)
    assert commit(2, t, 0.0) and commit(5, t, 0.0) and t.visit_sequence == (2, 5)
    assert not try_neutralize(5, t, 1.0)  # out of order
    assert t.active_at == 0.0
    assert try_neutralize(2, t, 2.0)
    assert t.live and t.sequence_progress == 1 and t.active_at == 2.0
    assert not try_neutralize(2, t, 3.0)  # same robot cannot count twice
    assert try_neutralize(5, t, 4.0)
    assert not t.live and t.active_at == 4.0


def test_neutralize_multivisit_distinct_robots():
    t = Target(0, (1, 1), 3)
    # uncommitted slots accept any new robot and commit it on the spot
    assert try_neutralize(0, t, 1.0)
    assert t.live and t.sequence_progress == 1 and t.visit_sequence == (0,)
    # a robot may not count twice against the same target
    assert not try_neutralize(0, t, 2.0)
    assert try_neutralize(2, t, 3.0)
    assert try_neutralize(1, t, 4.0)
    assert not t.live and t.visit_sequence == (0, 2, 1)


def test_neutralize_committed_slot_binds_robot():
    t = Target(0, (1, 1), 2)
    assert commit(3, t, 0.0) and commit(4, t, 0.0)
    # only the committed robot for the next slot may advance the sequence
    assert not try_neutralize(4, t, 1.0)
    assert try_neutralize(3, t, 2.0)
    assert try_neutralize(4, t, 3.0)
    assert not t.live


ROBOT_IDS = range(4)


def consistent_targets():
    """Every blackboard state with 1-3 required visits and robots 0-3, each
    reached from a fresh target: a sequence's robots commit in order, then
    its first `progress` of them visit."""
    yield Target(0, (1, 1), 1)
    for rid in ROBOT_IDS:
        t = Target(0, (1, 1), 1)
        try_neutralize(rid, t, 0.0)
        yield t
    for required in (2, 3):
        for n in range(required + 1):
            for seq in itertools.permutations(ROBOT_IDS, n):
                for progress in range(n + 1):
                    t = Target(0, (1, 1), required)
                    for rid in seq:
                        commit(rid, t, 0.0)
                    for rid in seq[:progress]:
                        try_neutralize(rid, t, 0.0)
                    yield t


def test_a_target_must_be_consistent():
    """A target is built unvisited and takes no visit state from its caller,
    so every state it reaches keeps the rules the mission checks after every
    step."""
    fresh = Target(7, (1, 1), 2)
    assert (fresh.sequence_progress, fresh.live, fresh.visit_sequence,
            fresh.visited_by, fresh.active_at) == (0, True, (), set(), 0.0)
    states = list(consistent_targets())
    assert len(states) == 191
    assert len({(t.required_visits, t.sequence_progress, t.visit_sequence,
                 tuple(sorted(t.visited_by))) for t in states}) == 191
    for t in states:
        k, n = t.sequence_progress, t.required_visits
        assert k <= n and len(t.visited_by) == k and t.live == (k < n)
        assert n == 1 or set(t.visit_sequence[:k]) == t.visited_by
        assert len(set(t.visit_sequence)) == len(t.visit_sequence) <= (n if n > 1 else 0)
    # a sequence `commit` can never write, and every other visit-state keyword
    for required, extra in (
        (2, dict(visit_sequence=(1, 1))),
        (2, dict(visit_sequence=(1, 2, 3))),
        (1, dict(visit_sequence=(4,))),
        (2, dict(sequence_progress=1)),
        (1, dict(live=False)),
        (2, dict(visited_by={0})),
        (2, dict(active_at=1.0)),
    ):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            Target(7, (1, 1), required, **extra)


def inline_neutralize(robot_id, t, now):
    """Reference visit rule, written out without `commit` and `waits_for`;
    a visit that counts stamps the target, as a mission visit does."""
    if not t.live or robot_id in t.visited_by:
        return False
    if t.required_visits > 1:
        if t.sequence_progress < len(t.visit_sequence):
            if t.visit_sequence[t.sequence_progress] != robot_id:
                return False
        else:
            t.visit_sequence += (robot_id,)
    t.active_at = now
    t.sequence_progress += 1
    t.visited_by.add(robot_id)
    if t.sequence_progress >= t.required_visits:
        t.live = False
    return True


def inline_commit(robot_id, t, now):
    """Reference slot commitment of a mission decision, written out; a
    written slot stamps the target, as a mission decision does."""
    if t.required_visits > 1 and robot_id not in t.visit_sequence \
            and len(t.visit_sequence) < t.required_visits:
        t.visit_sequence += (robot_id,)
        t.active_at = now
        return True
    return False


def inline_waits(robot_id, t):
    """Reference turn test of a mission goal, written out."""
    seq = t.visit_sequence
    return t.required_visits > 1 and bool(seq) and t.sequence_progress < len(seq) \
        and seq[t.sequence_progress] != robot_id


def test_sequence_rules_match_the_inline_rules_on_every_state():
    states = list(consistent_targets())
    assert len(states) == 191
    for t, rid in itertools.product(states, ROBOT_IDS):
        for rule, inline, now in ((try_neutralize, inline_neutralize, (5.0,)),
                                  (commit, inline_commit, (5.0,)),
                                  (waits_for, inline_waits, ())):
            got, want = copy.deepcopy(t), copy.deepcopy(t)
            assert rule(rid, got, *now) == inline(rid, want, *now), (rule.__name__, t, rid)
            # dataclass equality includes `active_at`, so this pins the stamps
            assert got == want, (rule.__name__, t, rid)
