import math

import pytest
from hypothesis import example, given, settings, strategies as st

from gridswarm.motion import (
    KinematicParams,
    PIState,
    advance,
    corrected_setpoint,
    desired_heading,
    pi_heading_command,
    speed_command,
    step_kinematics,
    wrap_angle,
)
from gridswarm.world import ArenaConfig, Robot


@given(st.floats(-50, 50))
def test_wrap_angle_range(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    # same angle modulo 2*pi
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)


def test_desired_heading_cardinals():
    assert desired_heading((0, 0), (1, 0)) == pytest.approx(0.0)
    assert desired_heading((0, 0), (0, 1)) == pytest.approx(math.pi / 2)
    assert desired_heading((0, 0), (-1, 0)) == pytest.approx(math.pi)
    assert desired_heading((0, 0), (0, -1)) == pytest.approx(-math.pi / 2)


def test_pi_command_saturates():
    pi = PIState(kp=10.0, ki=0.0)
    cmd, _ = pi_heading_command(0.0, math.pi, pi, 0.0, 0.1, omega_max=2.0)
    assert cmd == pytest.approx(2.0)


def test_pi_integral_accumulates():
    pi = PIState(kp=0.0, ki=1.0)
    cmd1, integral = pi_heading_command(0.0, 1.0, pi, 0.0, 0.5, omega_max=10.0)
    cmd2, integral = pi_heading_command(0.0, 1.0, pi, integral, 0.5, omega_max=10.0)
    assert cmd2 > cmd1 > 0
    assert integral == pytest.approx(1.0)


@pytest.mark.parametrize("gains", [{"kp": -5.0, "ki": -1.0}, {"kp": -0.1},
                                   {"ki": -1e-9}])
def test_pi_gains_must_not_be_negative(gains):
    with pytest.raises(ValueError, match="PI gains must be >= 0"):
        PIState(**gains)
    PIState(kp=0.0, ki=0.0)  # zero stays allowed: it turns a term off


def test_pi_anti_windup():
    pi = PIState(kp=0.0, ki=0.5)
    integral = 0.0
    for _ in range(10_000):
        _, integral = pi_heading_command(0.0, math.pi, pi, integral, 0.1, omega_max=2.0)
    assert integral <= 2.0 / 0.5 + 1e-9


def test_step_kinematics_straight_line():
    params = KinematicParams(v_max=10.0, dt=0.1)
    r = Robot(id=0, position=(0.0, 0.0), heading=0.0)
    r2 = step_kinematics(r, 0.0, 10.0, params)
    assert r2.position == pytest.approx((1.0, 0.0))
    assert r2.heading == pytest.approx(0.0)


def test_step_kinematics_turn_rate_limit():
    params = KinematicParams(v_max=10.0, heading_gain=100.0, omega_max=2.0, dt=0.1)
    r = Robot(id=0, position=(0.0, 0.0), heading=0.0)
    r2 = step_kinematics(r, math.pi, 0.0, params)
    assert r2.heading == pytest.approx(0.2)  # omega_max * dt


def test_step_kinematics_clips_to_arena():
    params = KinematicParams(v_max=15.0, dt=0.1)
    arena = ArenaConfig()
    r = Robot(id=0, position=(89.5, 45.0), heading=0.0)
    r2 = step_kinematics(r, 0.0, 15.0, params, arena)
    assert r2.position[0] == pytest.approx(90.0)


def test_speed_command_profile():
    params = KinematicParams(v_max=15.0, dt=0.1)
    assert speed_command(100.0, params, 0.5) == pytest.approx(15.0)
    # lands exactly on the waypoint in one step
    assert speed_command(0.8, params, 0.5) == pytest.approx(8.0)
    assert speed_command(0.4, params, 0.5) == 0.0


@given(st.floats(0.0, 200.0))
def test_speed_command_never_exceeds_vmax(d):
    params = KinematicParams()
    v = speed_command(d, params, 0.5)
    assert 0.0 <= v <= params.v_max


def test_waypoint_convergence():
    """PI-tracked unicycle reaches a waypoint from an adverse heading."""
    params = KinematicParams()
    r = Robot(id=0, position=(10.0, 10.0), heading=math.pi)  # facing away
    pi, integral = PIState(), 0.0
    wp = (25.0, 20.0)
    for _ in range(200):
        d = math.hypot(wp[0] - r.position[0], wp[1] - r.position[1])
        if d <= 0.5:
            break
        psi_d = desired_heading(r.position, wp)
        cmd, integral = pi_heading_command(r.heading, psi_d, pi, integral, params.dt,
                                           params.omega_max)
        v = speed_command(d, params, 0.5, heading_error=psi_d - r.heading)
        r = step_kinematics(r, corrected_setpoint(r.heading, psi_d, cmd), v, params)
    assert math.hypot(wp[0] - r.position[0], wp[1] - r.position[1]) <= 0.5


# -- advance against the five step functions -----------------------------

_PARAMS = KinematicParams()
_ARENA = ArenaConfig()
_ARRIVAL = 0.5 * _ARENA.neutralize_radius  # the mission engine's threshold


def _edge_coord(limit):
    """A coordinate on, or one ulp inside or outside, an arena edge, or anywhere."""
    return st.one_of(
        st.sampled_from([0.0, -0.0, math.nextafter(0.0, 1.0), math.nextafter(0.0, -1.0),
                         limit, math.nextafter(limit, 0.0), math.nextafter(limit, math.inf)]),
        st.floats(0.0, limit),
    )


@st.composite
def _tracking_inputs(draw):
    position = (draw(_edge_coord(_ARENA.width)), draw(_edge_coord(_ARENA.height)))
    # a NaN heading leaves a NaN position before the arena clip, the only
    # input on which the order of its min and max shows
    heading = draw(st.one_of(st.sampled_from([math.pi, -math.pi, 0.0, -0.0, math.nan]),
                             st.floats(-math.pi, math.pi)))
    reach = draw(st.one_of(
        st.sampled_from([math.nextafter(_ARRIVAL, math.inf), _ARRIVAL * (1 + 1e-12),
                         _ARRIVAL + 1e-9]),
        st.floats(_ARRIVAL, 130.0),
    ))
    kind = draw(st.sampled_from(["ahead", "behind", "level_x", "level_y", "bearing"]))
    if kind == "level_x":
        waypoint = (position[0], position[1] + draw(st.sampled_from([reach, -reach])))
    elif kind == "level_y":
        waypoint = (position[0] + draw(st.sampled_from([reach, -reach])), position[1])
    else:
        if kind == "ahead":
            bearing = heading
        elif kind == "behind":
            bearing = heading + math.pi
        else:
            bearing = draw(st.floats(-math.pi, math.pi))
        waypoint = (position[0] + reach * math.cos(bearing),
                    position[1] + reach * math.sin(bearing))
    pi = draw(st.sampled_from([PIState(), PIState(ki=0.0)]))
    limit = _PARAMS.omega_max / max(pi.ki, 1e-12)
    integral = draw(st.one_of(
        st.sampled_from([0.0, -0.0, limit, -limit, math.nextafter(limit, math.inf),
                         math.nextafter(-limit, -math.inf), 3.0 * limit, -3.0 * limit]),
        st.floats(-2.0 * limit, 2.0 * limit),
    ))
    return position, heading, waypoint, integral, pi


def _bits(position, heading, integral):
    return [float.hex(v) for v in (*position, heading, integral)]


@settings(max_examples=1000, deadline=None)
@given(_tracking_inputs())
# a setpoint past -pi: only its wrap fixes the last bits of the turn rate
@example(((15.436538565994676, 78.10029579914941), -math.pi,
          (-74.99280027124243, 93.1371291067319), 0.0, PIState()))
# wrap boundaries, where `advance`'s inlined wraps take their `a <= 0.0`
# branch: a bearing error of exactly +pi and of exactly -pi (heading pi)
@example(((50.0, 50.0), 0.0, (40.0, 50.0), 0.0, PIState()))
@example(((50.0, 50.0), math.pi, (60.0, 50.0), 0.0, PIState()))
# -0.0: atan2(-0.0, -10.0) is exactly -pi, so the bearing itself wraps;
# from a heading of -0.1 the error's last bit shows which way it wrapped
@example(((50.0, 0.0), -0.0, (40.0, -0.0), 0.0, PIState()))
@example(((50.0, 0.0), -0.1, (40.0, -0.0), 0.0, PIState()))
# a heading many turns out either way: the error, setpoint, turn-rate and
# heading wraps all start below -pi on one side or the other
@example(((50.0, 50.0), 1000.0, (60.0, 57.0), 0.0, PIState()))
@example(((50.0, 50.0), -1000.0, (60.0, 57.0), 0.0, PIState()))
def test_advance_matches_the_five_step_functions_bit_for_bit(inputs):
    position, heading, waypoint, integral, pi = inputs
    dist = math.dist(position, waypoint)
    if not dist > _ARRIVAL:
        return  # the mission engine only moves robots beyond the arrival radius
    robot = Robot(id=0, position=position, heading=heading)

    psi_d = desired_heading(robot.position, waypoint)
    cmd, expected_integral = pi_heading_command(robot.heading, psi_d, pi, integral,
                                                _PARAMS.dt, _PARAMS.omega_max)
    speed = speed_command(dist, _PARAMS, _ARRIVAL, heading_error=psi_d - robot.heading)
    setpoint = corrected_setpoint(robot.heading, psi_d, cmd)
    expected = step_kinematics(robot, setpoint, speed, _PARAMS, _ARENA)

    new_integral = advance(robot, waypoint, dist, integral, pi.kp, pi.ki, _PARAMS, _ARENA)
    assert _bits(robot.position, robot.heading, new_integral) == \
        _bits(expected.position, expected.heading, expected_integral)


def test_advance_keeps_the_speed_range_check():
    robot = Robot(id=0, position=(10.0, 10.0), heading=0.0)
    with pytest.raises(ValueError, match="speed command outside"):
        advance(robot, (20.0, 10.0), -1.0, 0.0, 0.2, 0.003, _PARAMS, _ARENA)
