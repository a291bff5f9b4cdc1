"""Tests of the paper-claim table itself (repro.experiments.claims)."""

import math
import re
from pathlib import Path

import pytest

from repro.experiments import claims
from repro.experiments.registry import EXPERIMENTS

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def test_claim_ids_unique():
    ids = [c.id for c in claims.CLAIMS]
    assert len(ids) == len(set(ids))


def test_every_claim_names_a_registered_experiment():
    assert {c.experiment for c in claims.CLAIMS} <= set(EXPERIMENTS)


def test_paper_check_experiments_all_have_rows():
    # bench_paper.py runs claimed_experiments(); pinning the list keeps
    # an experiment from leaving `make paper-check` by losing its rows
    assert claims.claimed_experiments() == [
        "table1", "table2", "fig01", "fig02_03", "fig04_06", "fig07_09",
        "fig10", "fig11_12", "fig13_14", "text_claims", "ablations",
        "ext_skew", "ext_future_work", "ext_maintenance", "ext_arrivals",
    ]


def test_experiments_md_block_is_the_table():
    block = re.search(
        r"<!-- claims:begin[^>]*-->\n(.*?)\n<!-- claims:end -->",
        EXPERIMENTS_MD.read_text(),
        re.S,
    )
    assert block is not None, "EXPERIMENTS.md has no claims block"
    expected = claims.claims_markdown()
    assert block.group(1) == expected, (
        "EXPERIMENTS.md's claims block differs from CLAIMS; replace it "
        "with claims_markdown():\n" + expected
    )


@pytest.mark.parametrize(
    "bound, inside, outside, text",
    [
        (claims.above(0), [1e-12], [0.0, -1.0], "> 0"),
        (claims.at_least(-0.15), [-0.15, 0.0], [-0.16], "≥ -0.15"),
        (claims.below(0), [-1.0], [0.0], "< 0"),
        (claims.at_most(0), [0.0], [1.0], "≤ 0"),
        (claims.within(1.36, 1.7), [1.36, 1.7], [1.35, 1.71],
         "in [1.36, 1.7]"),
    ],
)
def test_bound(bound, inside, outside, text):
    assert all(bound.holds(v) for v in inside)
    assert not any(bound.holds(v) for v in outside + [math.nan])
    assert str(bound) == text
