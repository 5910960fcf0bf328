import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from conftest import elevation_angle_deg
from saris.geometry import Point3, distance, sample_cluster, sample_uniform_disk
from saris.streams import substream

coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
alt = st.floats(0, 1e5, allow_nan=False, allow_infinity=False)
points = st.builds(Point3, coord, coord, alt)


class TestPoint3:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Point3(math.nan, 0, 0)
        with pytest.raises(ValueError):
            Point3(math.inf, 0, 0)

    def test_rejects_negative_altitude(self):
        with pytest.raises(ValueError):
            Point3(0, 0, -1)


class TestDistance:
    def test_pythagorean_triple(self):
        assert distance(Point3(0, 0, 0), Point3(3, 4, 0)) == 5.0

    def test_identity(self):
        assert distance(Point3(0, 0, 0), Point3(0, 0, 0)) == 0.0

    def test_diagonal(self):
        # sqrt(100^2 + 100^2) by hand
        assert distance(Point3(0, 0, 0), Point3(100, 0, 100)) == pytest.approx(141.4214, abs=1e-3)

    @given(points, points)
    def test_symmetric(self, a, b):
        assert distance(a, b) == distance(b, a)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


class TestElevation:
    """The test reference for the elevation that the link draw computes inline."""

    def test_forty_five(self):
        assert elevation_angle_deg(Point3(0, 0, 0), Point3(100, 0, 100)) == pytest.approx(45.0)

    def test_overhead(self):
        assert elevation_angle_deg(Point3(0, 0, 0), Point3(0, 0, 50)) == pytest.approx(90.0)

    def test_thirty(self):
        # atan(57.735 / 100)
        assert elevation_angle_deg(Point3(0, 0, 0), Point3(100, 0, 57.735)) == pytest.approx(
            30.0, abs=1e-3
        )

    def test_requires_aerial_above_ground(self):
        with pytest.raises(ValueError):
            elevation_angle_deg(Point3(0, 0, 10), Point3(100, 0, 10))
        with pytest.raises(ValueError):
            elevation_angle_deg(Point3(0, 0, 10), Point3(100, 0, 5))

    @given(
        st.floats(1, 1e4),
        st.floats(1, 1e4),
        st.floats(1.01, 10),
    )
    def test_strictly_increasing_in_altitude(self, horiz, z, factor):
        ground = Point3(0, 0, 0)
        low = elevation_angle_deg(ground, Point3(horiz, 0, z))
        high = elevation_angle_deg(ground, Point3(horiz, 0, z * factor))
        assert high > low


class TestDiskSampling:
    def test_containment(self, rng):
        region = (Point3(5, -3, 40), 10.0)
        for _ in range(2000):
            p = sample_uniform_disk(*region, rng)
            assert math.hypot(p.x - 5, p.y + 3) <= 10.0
            assert p.z == 40.0

    def test_point_from_two_scalar_draws(self):
        # radius fraction first, then angle, one scalar uniform each
        rng, twin = substream(9, "disk"), substream(9, "disk")
        p = sample_uniform_disk(Point3(5, -3, 40), 10.0, rng)
        r = 10.0 * math.sqrt(twin.random())
        phi = 2.0 * math.pi * twin.random()
        assert (p.x, p.y, p.z) == (5 + r * math.cos(phi), -3 + r * math.sin(phi), 40)
        assert rng.random() == twin.random()

    def test_mean_radial_offset(self, rng):
        # mean of r * (2r/R^2) over [0, R] is 2R/3
        region = (Point3(0, 0, 0), 10.0)
        offsets = np.array(
            [math.hypot(p.x, p.y) for p in (sample_uniform_disk(*region, rng) for _ in range(100_000))]
        )
        assert offsets.mean() == pytest.approx(20.0 / 3.0, rel=0.02)

    def test_half_area_fraction(self, rng):
        # the disk of radius R/sqrt(2) holds half the area
        region = (Point3(0, 0, 0), 10.0)
        offsets = np.array(
            [math.hypot(p.x, p.y) for p in (sample_uniform_disk(*region, rng) for _ in range(100_000))]
        )
        frac = np.mean(offsets <= 10.0 / math.sqrt(2))
        assert frac == pytest.approx(0.5, abs=0.01)

    def test_area_uniformity_ks(self, rng):
        # (r/R)^2 must be uniform(0, 1)
        region = (Point3(0, 0, 0), 7.0)
        sq = np.array(
            [
                (p.x**2 + p.y**2) / 49.0
                for p in (sample_uniform_disk(*region, rng) for _ in range(100_000))
            ]
        )
        ks = stats.kstest(sq, "uniform")
        assert ks.statistic < 0.01


class TestCluster:
    def test_count_and_containment(self):
        region = (Point3(100, 0, 80), 10.0)
        pts = sample_cluster(*region, 10, substream(1, "cluster"))
        assert len(pts) == 10
        assert all(math.hypot(p.x - 100, p.y) <= 10.0 for p in pts)
        assert all(p.z == 80.0 for p in pts)

    def test_single_point_reduces_to_disk_sample(self):
        region = (Point3(0, 0, 0), 5.0)
        a = sample_cluster(*region, 1, substream(7, "x"))[0]
        b = sample_uniform_disk(*region, substream(7, "x"))
        assert (a.x, a.y, a.z) == (b.x, b.y, b.z)

    def test_equals_sequential_disk_samples(self):
        # one batched draw of 2*count uniforms gives the points, and leaves
        # the stream where count scalar-drawing calls would
        region = (Point3(100, -20, 80), 15.0)
        rng_a, rng_b = substream(4, "seq"), substream(4, "seq")
        a = sample_cluster(*region, 12, rng_a)
        b = [sample_uniform_disk(*region, rng_b) for _ in range(12)]
        assert [(p.x, p.y, p.z) for p in a] == [(p.x, p.y, p.z) for p in b]
        assert rng_a.random() == rng_b.random()

    def test_deterministic_for_fixed_stream(self):
        region = (Point3(0, 0, 0), 5.0)
        a = sample_cluster(*region, 8, substream(3, "s"))
        b = sample_cluster(*region, 8, substream(3, "s"))
        assert a == b
