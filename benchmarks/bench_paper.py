"""Regenerate every experiment that has paper-claim rows and assert them.

The rows live in ``repro.experiments.claims.CLAIMS``; each experiment
runs once at seed 0 and a failure names every row that missed its bound.
"""

import pytest

from repro.experiments import claims
from repro.experiments.registry import EXPERIMENTS


@pytest.mark.parametrize("experiment", claims.claimed_experiments())
def test_paper_claims(render, experiment):
    verdicts = claims.check(render(EXPERIMENTS[experiment][1], seed=0))
    print("\n".join(map(str, verdicts)))
    failed = [str(v) for v in verdicts if not v.holds]
    assert not failed, "\n".join(failed)
