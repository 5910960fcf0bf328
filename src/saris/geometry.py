"""3D node positions, link geometry, and uniform-disk cluster sampling.

Swarms and ground users are placed as fixed-count clusters of daughter points
drawn uniformly in a horizontal disk around a deterministic parent (the swarm
center or the user-region center).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point3:
    """Position in meters; z >= 0 for every simulated node."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError("coordinates must be finite")
        if self.z < 0:
            raise ValueError(f"node altitude must be >= 0, got z={self.z}")


def distance(a: Point3, b: Point3) -> float:
    """Euclidean distance in meters."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def sample_uniform_disk(center: Point3, radius: float, rng: np.random.Generator) -> Point3:
    """One point uniform over the horizontal disk of ``radius`` around
    ``center``, at the center's altitude: ``sample_cluster``'s count-1 case."""
    return sample_cluster(center, radius, 1, rng)[0]


def sample_cluster(center: Point3, radius: float, count: int, rng: np.random.Generator) -> list[Point3]:
    """``count`` independent points uniform over the horizontal disk of
    ``radius`` around ``center`` (fixed daughter count), at its altitude.

    Each point takes its radius fraction sqrt(u_r), then its angle
    2*pi*u_phi, from the next two uniforms of one batched draw; those are the
    values of 2*count scalar draws, so streams replay identically for a given
    generator state.
    """
    u = rng.random(2 * count).tolist()
    points = []
    for u_r, u_phi in zip(u[0::2], u[1::2]):
        r = radius * math.sqrt(u_r)
        phi = 2.0 * math.pi * u_phi
        points.append(Point3(center.x + r * math.cos(phi), center.y + r * math.sin(phi), center.z))
    return points
