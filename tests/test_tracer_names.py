"""The benchmark tracer's entry points against the package, in-process.

Every name `bench/tracer.py` wraps must exist, and `RationalScale` keeps
its own `fine_array` entry, so the `windows.RootScale.fine_array` span
times root orders only.  `bench/test_selfcheck.py` checks the same
through whole benchmark runs, in about ten seconds.
"""

import os
import sys
from fractions import Fraction

import numpy as np

from fds.windows import RationalScale, RootScale

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from tracer import Tracer  # noqa: E402


def test_tracer_wraps_every_name_and_only_root_scales():
    levels = np.arange(16, 64, dtype=np.int64)
    tracer = Tracer()
    tracer.install(0)
    try:
        assert tracer.missing == []
        RationalScale(Fraction(1, 3)).fine_array(levels)
        assert [s["name"] for s in tracer.spans] == []
        RootScale(Fraction(1, 3), 2).fine_array(levels)
        assert [s["name"] for s in tracer.spans] == ["windows.RootScale.fine_array"]
    finally:
        tracer.uninstall()
    assert vars(RootScale)["fine_array"] is vars(RationalScale)["fine_array"]
