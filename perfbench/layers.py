"""Per-layer metrics from the spans of one traced run.

Spans come from several processes, each with a role: ``setup`` (ingest and
the acceptance pass), ``live`` (the server of the TCP stage), ``recovery``
(a cold restart on the final log) and ``sim`` (the simulation worker).
Timings are means per call over every role unless the metric says
otherwise. A layer's self time is the time inside its spans that no child
span covers.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import SpanSet

# Self time of the whole run, per layer; the simulator has its own per-run figure.
LAYERS = ("wire", "engine", "eventlog", "activities", "presence", "geo", "notify", "ics")


class Aggregate:
    def __init__(self, sets: list[SpanSet]):
        self.sets = sets
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.total: dict[tuple[str, str], float] = defaultdict(float)
        self.self_total: dict[tuple[str, str], float] = defaultdict(float)
        for s in sets:
            for i, nid in enumerate(s.name):
                key = (s.role, s.names[nid])
                self.calls[key] += 1
                self.total[key] += s.dur[i]
                self.self_total[key] += s.self_time[i]

    def _sum(self, table, name: str, roles) -> float:
        return sum(v for (r, n), v in table.items() if n == name and (roles is None or r in roles))

    def calls_of(self, name: str, roles=None) -> int:
        return int(self._sum(self.calls, name, roles))

    def mean_us(self, name: str, roles=None) -> float:
        calls = self.calls_of(name, roles)
        return self._sum(self.total, name, roles) / calls * 1e6 if calls else 0.0

    def mean_s(self, name: str, roles=None) -> float:
        return self.mean_us(name, roles) / 1e6

    def self_mean_s(self, name: str) -> float:
        calls = self.calls_of(name)
        return self._sum(self.self_total, name, None) / calls if calls else 0.0

    def count(self, key: str, roles=None) -> float:
        return sum(s.counts.get(key, 0.0) for s in self.sets if roles is None or s.role in roles)

    def maximum(self, key: str) -> float:
        return max((s.maxima.get(key, 0.0) for s in self.sets), default=0.0)

    def nested(self, name: str, inside: str, roles=None) -> tuple[int, float]:
        """Calls of ``name`` made inside a ``inside`` span, and their time."""
        calls, total = 0, 0.0
        for s in self.sets:
            if roles is not None and s.role not in roles:
                continue
            for i in s.indices(name):
                if s.under(i, inside):
                    calls += 1
                    total += s.dur[i]
        return calls, total

    def layer_self_s(self, layer: str) -> float:
        return sum(v for (_, n), v in self.self_total.items() if n.split(".")[0] == layer)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(sets: list[SpanSet], live: dict, extra: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit).

    ``live`` holds the live server's CPU seconds and the wall-clock window
    of the open and closed phases; ``extra`` holds figures measured outside
    the spans (tracing overhead, load-generator lateness and backlog).
    """
    agg = Aggregate(sets)
    fixes = agg.calls_of("engine.handle.FIX")
    fix_decodes = agg.calls_of("wire.decode.FIX")
    participant_calls, _ = agg.nested("activities.participant", "engine.handle.FIX")

    def participant_share(role: str) -> float:
        """Share of ``handle`` time spent in ``Activity.participant``."""
        _, inside = agg.nested("activities.participant", "engine.handle", (role,))
        handle = sum(v for (r, n), v in agg.total.items()
                     if r == role and n.startswith("engine.handle."))
        return _ratio(inside, handle)
    classify_calls, _ = agg.nested("geo.classify_zone", "engine.handle.FIX")

    # The live server's time outside every traced layer: the asyncio
    # transport, routing and the loop itself.
    live_sets = [s for s in sets if s.role == "live"]
    w0, w1 = live["window"]
    in_layers, frames = 0.0, 0
    for s in live_sets:
        decode_ids = {i for i, n in enumerate(s.names) if n.startswith("wire.decode")}
        for i, p in enumerate(s.parent):
            if w0 <= s.start[i] <= w1:
                if p < 0:
                    in_layers += s.dur[i]
                if s.name[i] in decode_ids:
                    frames += 1
    cpu = live["cpu_s"]

    m = {
        "wire.decode_us.FIX": (agg.mean_us("wire.decode.FIX"), "us"),
        "wire.decode_us.POLL": (agg.mean_us("wire.decode.POLL"), "us"),
        "wire.encode_us.ACK": (agg.mean_us("wire.encode.ACK"), "us"),
        "wire.encode_us.NOTIFY": (agg.mean_us("wire.encode.NOTIFY"), "us"),
        "wire.framebuffer_feed_us": (agg.mean_us("wire.feed"), "us"),
        "wire.frames_per_feed": (_ratio(agg.count("wire.feed.frames"), agg.calls_of("wire.feed")), "count"),
        "wire.bytes_out_per_fix": (_ratio(agg.count("wire.encode.bytes", ("live",)), fix_decodes), "B"),
        "engine.handle_us.FIX": (agg.mean_us("engine.handle.FIX"), "us"),
        "engine.handle_us.POLL": (agg.mean_us("engine.handle.POLL"), "us"),
        "engine.handle_us.ARM": (agg.mean_us("engine.handle.ARM"), "us"),
        "engine.apply_us.FIX_ACCEPTED": (agg.mean_us("engine.apply.FIX_ACCEPTED"), "us"),
        "engine.apply_us.ARRIVAL_RECORDED": (agg.mean_us("engine.apply.ARRIVAL_RECORDED"), "us"),
        "engine.pending_us": (agg.mean_us("engine.pending"), "us"),
        "engine.pending_useful_ratio": (_ratio(agg.count("engine.pending.returned"), agg.count("engine.pending.scanned")), "1"),
        "engine.queue_depth_max": (agg.maximum("engine.queue_depth"), "count"),
        "engine.records_per_fix": (_ratio(agg.count("engine.fix.records"), fixes), "count"),
        "eventlog.append_us": (agg.mean_us("eventlog.append"), "us"),
        "eventlog.bytes_per_record.FIX_ACCEPTED": (_ratio(agg.count("eventlog.bytes.FIX_ACCEPTED"), agg.calls_of("eventlog.encode_record.FIX_ACCEPTED")), "B"),
        "eventlog.decode_record_us.FIX_ACCEPTED": (agg.mean_us("eventlog.decode_record.FIX_ACCEPTED", ("recovery",)), "us"),
        "eventlog.load_log_s": (agg.mean_s("eventlog.load_log", ("recovery",)), "s"),
        "engine.replay_s": (agg.mean_s("engine.replay", ("recovery",)), "s"),
        "activities.participant_calls_per_fix": (_ratio(participant_calls, fixes), "count"),
        "activities.participant_us": (agg.mean_us("activities.participant"), "us"),
        "activities.participant_share.live": (participant_share("live"), "1"),
        "activities.participant_share.sim": (participant_share("sim"), "1"),
        "activities.respond_invitation_us": (agg.mean_us("activities.respond_invitation"), "us"),
        "presence.ingest_fix_us": (agg.mean_us("presence.ingest_fix"), "us"),
        "geo.classify_zone_calls_per_fix": (_ratio(classify_calls, fixes), "count"),
        "geo.haversine_us": (agg.mean_us("geo.haversine"), "us"),
        "notify.on_arrival_us": (agg.mean_us("notify.on_arrival"), "us"),
        "notify.recipients_per_arrival": (_ratio(agg.count("notify.on_arrival.recipients"), agg.calls_of("notify.on_arrival")), "count"),
        "notify.notifications_enqueued": (agg.count("notify.enqueued", ("live", "sim")), "count"),
        "ics.parse_ics_s": (agg.mean_s("ics.parse_ics"), "s"),
        "ics.events_per_s": (_ratio(agg.count("ics.drafts"), agg.mean_s("ics.parse_ics") * agg.calls_of("ics.parse_ics")), "1/s"),
        "net.server_busy_ratio": (_ratio(cpu, w1 - w0), "1"),
        "net.self_us_per_frame": (_ratio(cpu - in_layers, frames) * 1e6, "us"),
        "net.bytes_in_per_frame": (_ratio(agg.count("wire.feed.bytes", ("live",)), agg.count("wire.feed.frames", ("live",))), "B"),
        "sim.self_s": (agg.self_mean_s("sim.run_scenario"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (agg.layer_self_s(layer), "s")
    m.update(extra)
    return m
