"""Shared fixtures: sample modules for the oracle tests of the placement
kernels (sliced action operators and balanced-tensor relation rows)."""

import pytest

from coideals.catalog import (
    function_algebra,
    group_algebra,
    sweedler4,
    symmetric_group_3,
    taft,
)
from coideals.correspondence import _direct_sum
from coideals.fields import GF, QQ
from coideals.linalg import identity_map, regroup
from coideals.repcats import ModuleData, radical_and_simples, regular_module


def _flip(f, m, n):
    """The flip k^m (x) k^n -> k^n (x) k^m as a matrix."""
    return regroup(identity_map(f, m * n), (m, n), (m * n,), (1, 0), (2,))


@pytest.fixture(scope="module", params=[
    lambda: sweedler4(),
    lambda: function_algebra(QQ, symmetric_group_3()),
    lambda: group_algebra(QQ, symmetric_group_3()),
    lambda: taft(3, GF(7)),
], ids=["sweedler4", "kS3-functions", "kS3", "taft3-GF7"])
def sample_modules(request):
    """(right modules, left modules) over the algebra of a Hopf algebra: the
    regular ones, the trivial one given by the counit, the direct sum of
    the trivial module with itself and, where the trace-form radical
    applies (not for taft(3) over GF(7)), the simples, carried to the left
    side across the swap."""
    h = request.param()
    f, a = h.field, h.algebra
    triv = ModuleData(f, 1, h.counit, a, "right", "trivial")
    rights = [regular_module(a, "right"), triv, _direct_sum(triv, triv)]
    lefts = [regular_module(a, "left"), ModuleData(f, 1, h.counit, a, "left")]
    if f.char == 0:
        rights += radical_and_simples(a)[1]
        lefts += [ModuleData(f, s.dim, s.action @ _flip(f, a.dim, s.dim), a, "left")
                  for s in radical_and_simples(a.op())[1]]
    return rights, lefts
