"""Great-circle geometry and hysteresis-based zone classification.

Distances are computed with the haversine formula on a sphere of radius
6,371,000 m. Centimetre-level geodesy is irrelevant at the ~100 m fence
scales this package deals in.

Zone classification is deliberately stateful-by-argument: the caller passes
the previously classified zone and the fence's dead band (``hysteresis_m``)
keeps GPS jitter from flapping a subject in and out of the fence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import asin, cos, inf, pi, radians, sin, sqrt

from .errors import Refused
from .schema import FieldInvalid

EARTH_RADIUS_M = 6_371_000.0

# A fence's defaults, for an activity that does not state its own values.
DEFAULT_RADIUS_M = 100.0
DEFAULT_HYSTERESIS_M = 25.0


class Zone(str, Enum):
    INSIDE = "INSIDE"
    OUTSIDE = "OUTSIDE"


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS-ish coordinate pair: lat in [-90, 90], lon in (-180, 180], else ``FieldInvalid``."""

    lat: float
    lon: float

    def __post_init__(self):
        lat, lon = self.lat, self.lon
        # A decoded point holds floats already; only other numbers are converted.
        if lat.__class__ is not float or lon.__class__ is not float:
            lat, lon = float(lat), float(lon)
            object.__setattr__(self, "lat", lat)
            object.__setattr__(self, "lon", lon)
        if not (-90.0 <= lat <= 90.0):
            raise FieldInvalid("lat", f"latitude {lat!r} outside [-90, 90]")
        if not (-180.0 < lon <= 180.0):
            raise FieldInvalid("lon", f"longitude {lon!r} outside (-180, 180]")


@dataclass(frozen=True, slots=True)
class Geofence:
    """Circular geographic scope: center, radius, and exit dead band."""

    center: GeoPoint
    radius_m: float = DEFAULT_RADIUS_M
    hysteresis_m: float = DEFAULT_HYSTERESIS_M

    def __post_init__(self):
        object.__setattr__(self, "radius_m", float(self.radius_m))
        object.__setattr__(self, "hysteresis_m", float(self.hysteresis_m))
        if not 0 < self.radius_m < inf:  # NaN fails too
            raise Refused(
                "FENCE_INVALID", f"radius_m must be finite and > 0, got {self.radius_m!r}"
            )
        if not 0 <= self.hysteresis_m < inf:
            raise Refused(
                "FENCE_INVALID", f"hysteresis_m must be finite and >= 0, got {self.hysteresis_m!r}"
            )


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters.

    Result lies in [0, pi * EARTH_RADIUS_M].
    """
    phi1, phi2 = radians(a.lat), radians(b.lat)
    dphi = radians(b.lat - a.lat)
    dlam = radians(b.lon - a.lon)
    h = sin(dphi / 2.0) ** 2 + cos(phi1) * cos(phi2) * sin(dlam / 2.0) ** 2
    # Clamp guards rounding noise for antipodal-ish inputs.
    return 2.0 * EARTH_RADIUS_M * asin(min(1.0, sqrt(h)))


# Bound once, for the FIX path: reading a member off its class calls a descriptor.
_INSIDE, _OUTSIDE = Zone.INSIDE, Zone.OUTSIDE

# Metres of great circle per degree of latitude. No two points are closer than
# their latitudes are apart along a meridian, so |dlat| * this is a lower bound
# on their distance.
M_PER_DEG_LAT = EARTH_RADIUS_M * pi / 180.0
# How far that bound must pass a fence's outer edge before it alone decides. The
# two parts cover the haversine's rounding: relative, and absolute for its asin
# near antipodes, where the error grows to about a tenth of a metre.
_SLACK_REL, _SLACK_M = 1e-9, 1.0


def classify_zone(fence: Geofence, prev: Zone, p: GeoPoint) -> Zone:
    """Classify a fix against a fence with hysteresis.

    Inside when distance <= radius; Outside when distance >= radius +
    hysteresis; anywhere in the open band between, the previous zone is
    kept (dead band). With hysteresis 0 the result is independent of
    ``prev``. A fix whose latitude alone puts it beyond the outer edge is
    Outside without the haversine: the answer is the same, and most fixes
    come from people far away.
    """
    centre, outer = fence.center, fence.radius_m + fence.hysteresis_m
    if abs(p.lat - centre.lat) * M_PER_DEG_LAT > outer * (1.0 + _SLACK_REL) + _SLACK_M:
        return _OUTSIDE
    d = haversine_m(centre, p)
    if d <= fence.radius_m:
        return _INSIDE
    if d >= outer:
        return _OUTSIDE
    return prev
