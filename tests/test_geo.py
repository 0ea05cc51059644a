"""Geometry: haversine distances and hysteresis zone classification."""

import math

import pytest
from hypothesis import given, strategies as st

from syncpoint.geo import (
    EARTH_RADIUS_M,
    FenceInvalid,
    Geofence,
    GeoPoint,
    LatOutOfRange,
    LonOutOfRange,
    Zone,
    classify_zone,
    haversine_m,
)

lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lons = st.floats(min_value=-180.0, max_value=180.0, exclude_min=True, allow_nan=False)
points = st.builds(GeoPoint, lats, lons)


def north_of(center: GeoPoint, meters: float) -> GeoPoint:
    # Moving along a meridian: distance is exactly R * dphi on the sphere.
    return GeoPoint(center.lat + math.degrees(meters / EARTH_RADIUS_M), center.lon)


class TestGeoPoint:
    def test_ranges_enforced(self):
        with pytest.raises(LatOutOfRange):
            GeoPoint(90.1, 0.0)
        with pytest.raises(LatOutOfRange):
            GeoPoint(-91.0, 0.0)
        with pytest.raises(LonOutOfRange):
            GeoPoint(0.0, -180.0)  # open lower bound
        with pytest.raises(LonOutOfRange):
            GeoPoint(0.0, 180.5)
        assert GeoPoint(0.0, 180.0).lon == 180.0

    def test_nan_rejected(self):
        with pytest.raises(LatOutOfRange):
            GeoPoint(float("nan"), 0.0)


class TestGeofence:
    def test_radius_must_be_positive(self):
        center = GeoPoint(41.56, -8.397)
        with pytest.raises(FenceInvalid):
            Geofence(center, 0.0)
        with pytest.raises(FenceInvalid):
            Geofence(center, -5.0)

    def test_hysteresis_must_be_non_negative(self):
        with pytest.raises(FenceInvalid):
            Geofence(GeoPoint(0, 0), 100.0, -1.0)

    @pytest.mark.parametrize("radius, hysteresis", [
        (math.inf, 25.0), (math.nan, 25.0), (100.0, math.inf), (100.0, math.nan),
    ])
    def test_a_non_finite_radius_or_hysteresis_is_invalid(self, radius, hysteresis):
        with pytest.raises(FenceInvalid):
            Geofence(GeoPoint(0, 0), radius, hysteresis)

    def test_default_hysteresis(self):
        assert Geofence(GeoPoint(0, 0), 100.0).hysteresis_m == 25.0


class TestHaversine:
    def test_identity_is_zero(self):
        p = GeoPoint(41.5600, -8.3970)
        assert haversine_m(p, p) == 0.0

    def test_one_degree_of_longitude_on_equator(self):
        # Independent oracle: one degree along the equator is pi*R/180.
        expected = math.pi * EARTH_RADIUS_M / 180.0
        got = haversine_m(GeoPoint(0, 0), GeoPoint(0, 1))
        assert got == pytest.approx(expected, abs=0.5)
        assert got == pytest.approx(111_194.9, abs=0.5)

    def test_symmetry_example(self):
        a, b = GeoPoint(41.56, -8.40), GeoPoint(41.57, -8.39)
        assert haversine_m(a, b) == haversine_m(b, a)

    def test_meridian_distance_is_exact(self):
        c = GeoPoint(41.0, 10.0)
        assert haversine_m(c, north_of(c, 250.0)) == pytest.approx(250.0, abs=1e-6)

    @given(points, points)
    def test_symmetric_and_in_range(self, a, b):
        d = haversine_m(a, b)
        assert d == haversine_m(b, a)
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_M * (1 + 1e-12)

    @given(points)
    def test_self_distance_zero(self, p):
        assert haversine_m(p, p) == 0.0

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        d_ac = haversine_m(a, c)
        d_ab = haversine_m(a, b)
        d_bc = haversine_m(b, c)
        assert d_ac <= d_ab + d_bc + 1e-6 * max(d_ac, 1.0)


class TestClassifyZone:
    center = GeoPoint(41.5606, -8.3970)
    fence = Geofence(center, 100.0, 25.0)

    def at(self, d: float) -> GeoPoint:
        return north_of(self.center, d)

    def test_enters_at_radius(self):
        assert classify_zone(self.fence, Zone.OUTSIDE, self.at(90)) is Zone.INSIDE

    def test_dead_band_keeps_previous(self):
        assert classify_zone(self.fence, Zone.INSIDE, self.at(110)) is Zone.INSIDE
        assert classify_zone(self.fence, Zone.OUTSIDE, self.at(110)) is Zone.OUTSIDE

    def test_exits_at_radius_plus_hysteresis(self):
        assert classify_zone(self.fence, Zone.INSIDE, self.at(130)) is Zone.OUTSIDE

    def test_boundaries_inclusive(self):
        # Build fences whose thresholds equal the computed distance exactly,
        # so the inclusive comparisons are what decides.
        p = self.at(100.0)
        d = haversine_m(self.center, p)
        on_radius = Geofence(self.center, d, 25.0)
        assert classify_zone(on_radius, Zone.OUTSIDE, p) is Zone.INSIDE
        on_exit = Geofence(self.center, d - 25.0, 25.0)
        assert classify_zone(on_exit, Zone.INSIDE, p) is Zone.OUTSIDE

    @given(
        st.lists(
            st.floats(min_value=100.5, max_value=124.5, allow_nan=False), min_size=1
        ),
        st.sampled_from([Zone.INSIDE, Zone.OUTSIDE]),
    )
    def test_no_flap_inside_the_band(self, distances, start):
        zone = start
        for d in distances:
            zone = classify_zone(self.fence, zone, self.at(d))
            assert zone is start

    @given(points, st.sampled_from([Zone.INSIDE, Zone.OUTSIDE]))
    def test_zero_hysteresis_is_memoryless(self, p, prev):
        fence = Geofence(self.center, 100.0, 0.0)
        assert classify_zone(fence, prev, p) is classify_zone(
            fence, Zone.INSIDE if prev is Zone.OUTSIDE else Zone.OUTSIDE, p
        )
