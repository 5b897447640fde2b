"""Every demo reports the same lines under any schedule.

``determ.demos`` promises that a demo's report is a pure function of its
inputs; these tests run each demo unperturbed and under two perturbation
seeds and compare the reports, and pin the lines of the demos no other
test runs.
"""
from __future__ import annotations

import pytest

from determ.demos import DEMOS

PINNED = {
    "pipeline": ("result=42",),
    "tasks": ("snapshot=10", "g=99", "waited=9,1,4"),
}


@pytest.mark.parametrize("name", list(DEMOS))
def test_demo_reports_the_same_lines_under_any_schedule(name):
    demo = DEMOS[name]
    reports = [demo(seed=seed, delay=0.0005) for seed in (None, 1, 2)]
    assert reports[1] == reports[0] and reports[2] == reports[0]
    if name in PINNED:
        assert reports[0].lines == PINNED[name]
