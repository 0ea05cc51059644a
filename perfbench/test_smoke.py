"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
traced and untraced, and that the output checks fire on corrupted inputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import live  # noqa: E402
import run  # noqa: E402
import simworker  # noqa: E402
import speed  # noqa: E402

TINY = run.Sizes(events=12, history_records=600, history_activities=5, crowd=(12, 6),
                 sim_reps=2, live_scale=1.0)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_untraced_run_emits_every_end_to_end_metric():
    result, meta, problems = run.measure(TINY, seed=1, seconds=1, trace=False)
    assert problems == [] and result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["src_lines"] > 0 and meta["nproc"] >= 1


def test_traced_run_emits_every_per_layer_metric():
    result, meta, problems = run.measure(TINY, seed=2, seconds=1, trace=True)
    assert problems == [] and result["correct"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("per_layer")
    assert meta["missing_entry_points"] == []
    assert result["metrics"]["engine.handle_us.FIX"]["value"] > 0
    assert result["metrics"]["activities.participant_calls_per_fix"]["value"] > 0


def test_checks_fire_on_corrupted_inputs(monkeypatch):
    make_history, make_plans = inputs.make_history, live.make_plans

    def history_with_a_wrong_arrival(*args):
        # The log says someone else arrived than the generator's state does.
        h = make_history(*args)
        i = next(i for i, line in enumerate(h.lines) if '"ARRIVAL_RECORDED"' in line)
        who = json.loads(h.lines[i])["who"]
        other = next(p for p in inputs.LIVE)
        h.lines[i] = h.lines[i].replace(who, other)
        return h

    def plans_with_a_bad_fix(*args):
        plans = make_plans(*args)
        kind, frame, crossing = plans[0].open[0]
        plans[0].open[0] = (kind, frame.replace(b'"activity":"a', b'"activity":"zz'), crossing)
        return plans

    monkeypatch.setattr(inputs, "make_history", history_with_a_wrong_arrival)
    monkeypatch.setattr(live, "make_plans", plans_with_a_bad_fix)
    result, _, problems = run.measure(TINY, seed=3, seconds=1, trace=False)
    assert not result["correct"] and result["failed"] >= 2
    assert any("STATUS_VIEW differs" in p for p in problems)
    assert any("ERR UNKNOWN_ACTIVITY" in p for p in problems)


def test_mediator_scan_flags_a_coordinate():
    tally = live.Tally()
    client = live.Client("x", live.Shared(tally))
    client._frame(b'{"type":"NOTIFY","notification":{"activity":"a1","at":5,'
                  b'"kind":"ARRIVAL_NOTICE","lat":1.5},"seq":1}', 0.0)
    assert tally.failed == 1 and "coordinate" in tally.problems[0]


def test_simulation_checks_fire_on_a_wrong_expectation(tmp_path):
    crowd = inputs.make_crowd(4, 12, 6)
    path = tmp_path / "crowd.json"
    path.write_text(json.dumps(crowd.scenario))
    _, result, transcript, log = simworker.simulate(str(path))
    expect = {"arrivals": crowd.expected_arrivals, "batched": ["Crowd gathering"]}
    assert simworker.check(result, transcript, log, expect) == []
    expect["arrivals"]["Crowd meetup"] = expect["arrivals"]["Crowd meetup"][1:]
    problems = simworker.check(result, transcript, log, expect)
    assert any("Crowd meetup" in p for p in problems)


def test_speed_scale_uses_the_samples_of_the_window():
    samples = {0: ([1.0, 2.0, 3.0, 4.0], [1e-3, 2e-3, 4e-3, 8e-3]),
               1: ([1.0, 2.0, 3.0, 4.0], [1e-3, 1e-3, 1e-3, 1e-3])}
    ref = speed.REF_KERNEL_S
    assert speed.factor(samples, (1.9, 3.1), 0) == pytest.approx(ref / 3e-3)
    assert speed.factor(samples, (1.9, 3.1)) == pytest.approx(ref / 2e-3)
    assert speed.factor(samples, (1.9, 3.1), 0, ref=1.0) == pytest.approx(1.0 / 3e-3)
    # A window shorter than twice the margin takes the samples around it too.
    assert speed.factor(samples, (2.8, 2.9), 0) == pytest.approx(ref / 4e-3)
    with pytest.raises(RuntimeError):
        speed.factor(samples, (6.0, 7.0))
