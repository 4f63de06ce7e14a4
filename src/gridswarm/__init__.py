"""Decentralized multi-robot search-and-neutralize simulation toolkit.

Robots coordinate without communication: each one senses its surroundings,
solves the same distance-based assignment problem, embeds the result in a
deformable context grid centered on the swarm centroid, and steers with one
of two small Q-networks depending on whether another robot is nearby.
"""

from gridswarm.world import ArenaConfig, Robot, Target
from gridswarm.sim import Mission, MissionConfig, MissionResult

__all__ = [
    "ArenaConfig",
    "Robot",
    "Target",
    "Mission",
    "MissionConfig",
    "MissionResult",
]
