"""Unicycle kinematics and PI waypoint tracking.

The PI loop produces a correction that is added to the geometric desired
heading before the first-order heading dynamics are integrated; both gains
are exposed so either loop can be disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

_EPS = 1e-12


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
        if min(self.v_max, self.heading_gain, self.omega_max, self.dt) <= 0:
            raise ValueError("kinematic parameters must be strictly positive")


@dataclass(frozen=True)
class PIState:
    kp: float = 0.2
    ki: float = 0.003
    integral_error: float = 0.0

    def reset(self) -> "PIState":
        return replace(self, integral_error=0.0)


def desired_heading(position, waypoint) -> float:
    """Angle of the line from position to waypoint, in (-pi, pi]."""
    dx = waypoint[0] - position[0]
    dy = waypoint[1] - position[1]
    return wrap_angle(math.atan2(dy, dx))


def pi_heading_command(psi: float, psi_d: float, pi: PIState, dt: float,
                       omega_max: float) -> tuple:
    """One PI update on the heading error; returns (command, new state)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    e = wrap_angle(psi_d - psi)
    integral = pi.integral_error + e * dt
    # anti-windup: cap the integral where its term alone would saturate
    limit = omega_max / max(pi.ki, _EPS)
    integral = max(-limit, min(limit, integral))
    cmd = pi.kp * e + pi.ki * integral
    cmd = max(-omega_max, min(omega_max, cmd))
    return cmd, replace(pi, integral_error=integral)


def corrected_setpoint(psi: float, psi_d: float, cmd: float) -> float:
    """Heading setpoint combining the geometric bearing and the PI trim.

    The combined offset is clipped just inside (-pi, pi) so the heading
    loop always turns the short way; an unclipped trim can push the offset
    across the wrap and flip the turn direction every step when the robot
    faces directly away from the waypoint.
    """
    offset = wrap_angle(psi_d - psi) + cmd
    lim = math.pi - 1e-6
    return wrap_angle(psi + max(-lim, min(lim, offset)))


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
    return replace(robot, position=(x, y), heading=psi, speed=speed_cmd)


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
