"""Fixtures shared by the core model and plan tests."""

from __future__ import annotations

import pytest

from repro.core.coverage import EXACT
from repro.core.plan import KernelArrays, RetargetablePlan


@pytest.fixture()
def lines_plan():
    """Factory: a one-layer retargetable plan over the given transfers.

    The layer maps every kernel of ``transfers``, so the plan's
    ``kernel_lines`` synthesise each transfer's line (rows in sorted
    kernel-name order). ``metric`` is the driver metric, by default the
    target's bandwidth.
    """
    def build(transfers, metric=lambda spec: spec.bandwidth_gbs):
        terms = tuple((name, 1.0) for name in sorted(transfers))
        arrays = KernelArrays.from_columns(["all"], ["conv"], ["sig"],
                                           [EXACT], [1.0], {0: terms})
        return RetargetablePlan("lines", "all", 1, arrays, transfers,
                                metric, {}, ())
    return build
