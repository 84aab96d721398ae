"""A report makes each value's text once: a cold report formats every
distinct hop value and the report's other values one time each, however
many hops share them, and the values keep their texts."""

import random

from relaydof.analysis import analyze, report_to_obj
from relaydof.model import INFINITY, ExtRational

from support import calls, chain

# distinct 7-digit sizes, so no earlier call has cached their hop values
SIZES = random.Random(1707).sample(range(10**6, 10**7), 6)


def test_a_cold_report_formats_each_value_once(monkeypatch):
    cycle = [*SIZES, INFINITY, SIZES[0], SIZES[3]]
    t = chain((cycle * 25)[:200] + [SIZES[1]])
    # every text is made at this one site, from the value's int pair
    rendered = calls(monkeypatch, ExtRational, "_render")
    report = analyze(t)
    obj = report_to_obj(report)
    hop_values = {id(v): v for v in (*report.achievable_per_hop, *report.cutset_per_hop)}
    others = 7  # the two sums, three gaps, ultimate capacity, relay loss factor
    assert len(obj["achievable_per_hop"]) == 200
    assert len(hop_values) < 40
    assert 0 < len(rendered) <= len(hop_values) + others
    # the texts are kept: a second report formats only the values made anew
    rendered.clear()
    assert report_to_obj(analyze(t)) == obj
    assert len(rendered) <= others
