"""Geometry: haversine distances and hysteresis zone classification."""

import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from codes import raises_code

from syncpoint.geo import (
    EARTH_RADIUS_M,
    Geofence,
    GeoPoint,
    M_PER_DEG_LAT,
    Zone,
    classify_zone,
    haversine_m,
)
from syncpoint.schema import FieldInvalid

lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lons = st.floats(min_value=-180.0, max_value=180.0, exclude_min=True, allow_nan=False)
points = st.builds(GeoPoint, lats, lons)


def wrap_lon(lon: float) -> float:
    """``lon`` moved by whole turns into (-180, 180]."""
    lon = (lon + 180.0) % 360.0 - 180.0
    return 180.0 if lon == -180.0 else lon


def north_of(center: GeoPoint, meters: float) -> GeoPoint:
    # Moving along a meridian: distance is exactly R * dphi on the sphere.
    return GeoPoint(center.lat + math.degrees(meters / EARTH_RADIUS_M), center.lon)


@contextmanager
def raises_field(name: str):
    """Expect ``FieldInvalid`` for the field ``name``."""
    with pytest.raises(FieldInvalid) as info:
        yield info
    assert info.value.name == name


class TestGeoPoint:
    def test_ranges_enforced(self):
        with raises_field("lat"):
            GeoPoint(90.1, 0.0)
        with raises_field("lat"):
            GeoPoint(-91.0, 0.0)
        with raises_field("lon"):
            GeoPoint(0.0, -180.0)  # open lower bound
        with raises_field("lon"):
            GeoPoint(0.0, 180.5)
        assert GeoPoint(0.0, 180.0).lon == 180.0

    def test_nan_rejected(self):
        with raises_field("lat"):
            GeoPoint(float("nan"), 0.0)

    def test_a_range_failure_is_field_invalid_named_by_its_field(self):
        with raises_field("lat") as e:
            GeoPoint(91.0, 0.0)
        assert e.value.code == "FIELD_INVALID"
        assert e.value.detail == "invalid field 'lat': latitude 91.0 outside [-90, 90]"


class Degrees(float):
    """A float subclass, as a numeric library's scalar may be."""


class TestGeoPointFloats:
    @pytest.mark.parametrize("lat, lon", [
        (41, -8), (41.5, -8), (41, -8.5), (True, 2.5), (Degrees(0.5), -8.0), (0.5, Degrees(1.0)),
    ])
    def test_a_coordinate_is_stored_as_a_float(self, lat, lon):
        p = GeoPoint(lat, lon)
        assert (type(p.lat), type(p.lon)) == (float, float)
        assert (p.lat, p.lon) == (float(lat), float(lon))


class TestGeofence:
    def test_radius_must_be_positive(self):
        center = GeoPoint(41.56, -8.397)
        with raises_code("FENCE_INVALID"):
            Geofence(center, 0.0)
        with raises_code("FENCE_INVALID"):
            Geofence(center, -5.0)

    def test_hysteresis_must_be_non_negative(self):
        with raises_code("FENCE_INVALID"):
            Geofence(GeoPoint(0, 0), 100.0, -1.0)

    @pytest.mark.parametrize("radius, hysteresis", [
        (math.inf, 25.0), (math.nan, 25.0), (100.0, math.inf), (100.0, math.nan),
    ])
    def test_a_non_finite_radius_or_hysteresis_is_invalid(self, radius, hysteresis):
        with raises_code("FENCE_INVALID"):
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


def haversine_rule(fence: Geofence, prev: Zone, p: GeoPoint) -> Zone:
    """``classify_zone`` as its docstring states it, from the haversine alone."""
    d = haversine_m(fence.center, p)
    if d <= fence.radius_m:
        return Zone.INSIDE
    if d >= fence.radius_m + fence.hysteresis_m:
        return Zone.OUTSIDE
    return prev


@st.composite
def centres(draw) -> GeoPoint:
    """A fence's centre anywhere, near a pole or by the antimeridian."""
    lat, lon = draw(lats), draw(lons)
    where = draw(st.sampled_from(["anywhere", "pole", "antimeridian"]))
    if where == "pole":
        lat = math.copysign(90.0 - draw(st.floats(0.0, 1e-3)), draw(st.sampled_from([1, -1])))
    elif where == "antimeridian":
        lon = wrap_lon(180.0 + draw(st.floats(-1e-3, 1e-3)))
    return GeoPoint(lat, lon)


def ulps(x: float, steps: int) -> float:
    """``x`` moved ``steps`` representable floats up (or down, if negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def cases(draw) -> tuple[Geofence, GeoPoint]:
    """A fence of any size from a centimetre to half the globe's
    circumference, and a fix: anywhere, on the centre's meridian, near its
    antipode or across the antimeridian; or one whose latitude alone puts it
    within a few metres or a few floats of the radius, of the outer edge or
    of where that bound decides; or a fence whose outer edge is fitted a few
    floats inside the bound of a fix on the meridian or by the antipode."""
    c = draw(centres())
    radius = 10 ** draw(st.floats(-2.0, math.log10(2e7)))
    hysteresis = draw(st.sampled_from([0.0, 25.0, 1e-9, radius, 1e6]))
    where = draw(st.sampled_from(
        ["anywhere", "meridian", "antipode", "across", "radius", "outer", "bound", "fitted"]
    ))
    if where in ("radius", "outer", "bound"):
        outer = radius + hysteresis
        edge = {"radius": radius, "outer": outer, "bound": outer * (1 + 1e-9) + 1.0}[where]
        metres = edge + draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
        lat = c.lat + draw(st.sampled_from([1, -1])) * metres / M_PER_DEG_LAT
        lat = ulps(max(-90.0, min(90.0, lat)), draw(st.integers(-4, 4)))
        p = GeoPoint(
            max(-90.0, min(90.0, lat)),
            wrap_lon(c.lon + draw(st.sampled_from([0.0, 1e-9, 1e-5, -1e-3]))),
        )
        return Geofence(c, radius, hysteresis), p
    if where in ("meridian", "fitted") and draw(st.booleans()):
        p = GeoPoint(draw(lats), c.lon)
    elif where in ("antipode", "fitted"):
        p = GeoPoint(
            max(-90.0, min(90.0, -c.lat + draw(st.floats(-1e-6, 1e-6)))),
            wrap_lon(c.lon + 180.0 + draw(st.floats(-1e-6, 1e-6))),
        )
    elif where == "across":
        p = GeoPoint(c.lat, wrap_lon(-c.lon + draw(st.floats(-1e-3, 1e-3))))
    else:
        p = draw(points)
    if where == "fitted":
        bound = abs(p.lat - c.lat) * M_PER_DEG_LAT
        radius = ulps(bound, -draw(st.integers(0, 64)))
        hysteresis = 0.0
        if not 0.0 < radius:
            radius = 1.0
    return Geofence(c, radius, hysteresis), p


class TestLatitudeShortcut:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_classify_zone_agrees_with_the_haversine_rule(self, data):
        fence, p = data.draw(cases())
        for prev in (Zone.INSIDE, Zone.OUTSIDE):
            assert classify_zone(fence, prev, p) is haversine_rule(fence, prev, p), (fence, p)

    @pytest.mark.parametrize("centre, fix", [
        ((41.5606, -8.397), (41.6179, -8.397)),  # 6.4 km apart, 1e-12 m below the bound
        ((-89.9992408338941, 169.1025201627351), (89.99924168051427, 169.1025201627351)),
    ])
    def test_a_fence_whose_edge_is_the_haversine_below_the_bound_keeps_the_fix(
        self, centre, fix,
    ):
        """Along a meridian the haversine can round below the latitude bound,
        here by 1e-12 m and by 5e-5 m; a fence whose radius is that haversine
        holds the fix, so the bound alone must not call it outside."""
        c, p = GeoPoint(*centre), GeoPoint(*fix)
        d = haversine_m(c, p)
        assert abs(p.lat - c.lat) * M_PER_DEG_LAT > d
        for prev in (Zone.INSIDE, Zone.OUTSIDE):
            assert classify_zone(Geofence(c, d, 0.0), prev, p) is Zone.INSIDE

    def test_a_fix_far_in_latitude_skips_the_haversine(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("haversine_m called")

        fence = Geofence(GeoPoint(41.5606, -8.3970), 100.0, 25.0)
        monkeypatch.setattr("syncpoint.geo.haversine_m", refuse)
        assert classify_zone(fence, Zone.INSIDE, north_of(fence.center, 1100.0)) is Zone.OUTSIDE
        with pytest.raises(AssertionError, match="haversine_m called"):
            classify_zone(fence, Zone.INSIDE, north_of(fence.center, 125.0))
