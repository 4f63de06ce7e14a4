"""Unicycle kinematics and PI waypoint tracking.

The PI loop produces a correction that is added to the geometric desired
heading before the first-order heading dynamics are integrated.  `PIState`
holds its two gains, so either term can be disabled; the integral is a
float that the caller carries from one update to the next (the mission
restarts it at 0.0 at each decision), and `pi_heading_command` and
`advance` each take it and return the new one.

`advance` is the per-dt path the mission engine runs: one call moves one
robot.  The five step functions `desired_heading` -> `pi_heading_command`
-> `speed_command` -> `corrected_setpoint` -> `step_kinematics` are its
step-by-step reference; `advance` performs exactly their float operations,
in the same order, so it gives the same bits.  It writes `wrap_angle`'s
arithmetic out inline at each of its five wraps, which saves a call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from gridswarm.world import Robot, reject_non_finite

_EPS = 1e-12
_SETPOINT_LIM = math.pi - 1e-6  # keeps the setpoint offset inside (-pi, pi)
_PI = math.pi
_TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


@dataclass(frozen=True)
class KinematicParams:
    v_max: float = 15.0
    heading_gain: float = 1.0
    omega_max: float = 2.0
    dt: float = 0.1

    def __post_init__(self):
        reject_non_finite(self)
        if min(self.v_max, self.heading_gain, self.omega_max, self.dt) <= 0:
            raise ValueError("kinematic parameters must be strictly positive")


@dataclass(frozen=True)
class PIState:
    kp: float = 0.2
    ki: float = 0.003

    def __post_init__(self):
        reject_non_finite(self)
        # zero turns a term off; a negative ki would lift the anti-windup cap
        # omega_max / max(ki, 1e-12) to about 2e12
        if min(self.kp, self.ki) < 0:
            raise ValueError("PI gains must be >= 0")


def desired_heading(position, waypoint) -> float:
    """Angle of the line from position to waypoint, in (-pi, pi]."""
    dx = waypoint[0] - position[0]
    dy = waypoint[1] - position[1]
    return wrap_angle(math.atan2(dy, dx))


def pi_heading_command(psi: float, psi_d: float, pi: PIState, integral: float,
                       dt: float, omega_max: float) -> tuple:
    """One PI update on the heading error; returns (command, new integral)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    e = wrap_angle(psi_d - psi)
    integral = integral + e * dt
    # anti-windup: cap the integral where its term alone would saturate
    limit = omega_max / max(pi.ki, _EPS)
    integral = max(-limit, min(limit, integral))
    cmd = pi.kp * e + pi.ki * integral
    cmd = max(-omega_max, min(omega_max, cmd))
    return cmd, integral


def corrected_setpoint(psi: float, psi_d: float, cmd: float) -> float:
    """Heading setpoint combining the geometric bearing and the PI trim.

    The combined offset is clipped just inside (-pi, pi) so the heading
    loop always turns the short way; an unclipped trim can push the offset
    across the wrap and flip the turn direction every step when the robot
    faces directly away from the waypoint.
    """
    offset = wrap_angle(psi_d - psi) + cmd
    return wrap_angle(psi + max(-_SETPOINT_LIM, min(_SETPOINT_LIM, offset)))


def step_kinematics(robot, psi_d: float, speed_cmd: float,
                    params: KinematicParams, arena=None):
    """Explicit-Euler unicycle step: heading first, then position.

    Returns a new Robot; position is clipped to the arena when given.
    """
    if not (0.0 <= speed_cmd <= params.v_max + 1e-9):
        raise ValueError("speed command outside [0, v_max]")
    rate = params.heading_gain * wrap_angle(psi_d - robot.heading)
    rate = max(-params.omega_max, min(params.omega_max, rate))
    psi = wrap_angle(robot.heading + rate * params.dt)
    x = robot.position[0] + speed_cmd * math.cos(psi) * params.dt
    y = robot.position[1] + speed_cmd * math.sin(psi) * params.dt
    if arena is not None:
        x = max(0.0, min(arena.width, x))
        y = max(0.0, min(arena.height, y))
    return Robot(robot.id, (x, y), psi)


def speed_command(distance: float, params: KinematicParams,
                  arrival_threshold: float, heading_error: float = 0.0) -> float:
    """Full speed while far away, then land on the waypoint in one step.

    Speed is scaled by the cosine of the heading error (floored at zero) so
    a badly aligned robot turns in place instead of orbiting the waypoint;
    the minimum turn radius v_max / omega_max exceeds the arrival threshold.
    """
    if distance <= arrival_threshold:
        return 0.0
    align = max(0.0, math.cos(wrap_angle(heading_error)))
    return min(params.v_max, distance / params.dt) * align


def advance(robot, waypoint, distance: float, integral: float, kp: float,
            ki: float, params: KinematicParams, arena) -> float:
    """Move `robot` in place one dt toward `waypoint`; return the new PI integral.

    `distance` is `math.dist(robot.position, waypoint)` and must exceed the
    arrival threshold.  Gives the same bits as `desired_heading` ->
    `pi_heading_command` -> `speed_command` -> `corrected_setpoint` ->
    `step_kinematics` (position clipped to `arena`): it wraps the heading
    error once where they wrap it three times, and writes `min(hi, x)` as
    `x if x < hi else hi` and `max(lo, x)` as `x if x > lo else lo`, which
    keep the builtins' choice on ties and signed zeros.
    """
    x, y = robot.position
    psi = robot.heading
    dt = params.dt
    omega_max = params.omega_max
    fmod = math.fmod
    # each wrap is wrap_angle written out: fmod, then + 2 pi when <= 0, then - pi
    a = fmod(math.atan2(waypoint[1] - y, waypoint[0] - x) + _PI, _TWO_PI)
    psi_d = (a + _TWO_PI if a <= 0.0 else a) - _PI
    a = fmod(psi_d - psi + _PI, _TWO_PI)
    e = (a + _TWO_PI if a <= 0.0 else a) - _PI

    integral = integral + e * dt
    limit = omega_max / (_EPS if _EPS > ki else ki)
    integral = integral if integral < limit else limit
    integral = integral if integral > -limit else -limit
    cmd = kp * e + ki * integral
    cmd = cmd if cmd < omega_max else omega_max
    cmd = cmd if cmd > -omega_max else -omega_max

    align = math.cos(e)
    align = align if align > 0.0 else 0.0
    v_max = params.v_max
    speed = distance / dt
    speed = (speed if speed < v_max else v_max) * align

    offset = e + cmd
    offset = offset if offset < _SETPOINT_LIM else _SETPOINT_LIM
    offset = offset if offset > -_SETPOINT_LIM else -_SETPOINT_LIM
    a = fmod(psi + offset + _PI, _TWO_PI)
    setpoint = (a + _TWO_PI if a <= 0.0 else a) - _PI

    if not (0.0 <= speed <= v_max + 1e-9):
        raise ValueError("speed command outside [0, v_max]")
    a = fmod(setpoint - psi + _PI, _TWO_PI)
    rate = params.heading_gain * ((a + _TWO_PI if a <= 0.0 else a) - _PI)
    rate = rate if rate < omega_max else omega_max
    rate = rate if rate > -omega_max else -omega_max
    a = fmod(psi + rate * dt + _PI, _TWO_PI)
    psi = (a + _TWO_PI if a <= 0.0 else a) - _PI
    x = x + speed * math.cos(psi) * dt
    y = y + speed * math.sin(psi) * dt
    x = x if x < arena.width else arena.width
    x = x if x > 0.0 else 0.0
    y = y if y < arena.height else arena.height
    y = y if y > 0.0 else 0.0
    robot.position = (x, y)
    robot.heading = psi
    return integral
