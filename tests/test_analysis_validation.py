"""Tests for the paper-anchor validation module."""

import pytest

from repro.analysis.validation import (
    PAPER_ANCHORS,
    AnchorVerdict,
    PaperAnchor,
    ValidationReport,
    render,
    validate,
)
from repro.core.config import SimulationConfig
from repro.runner import SweepRunner

FAST = SimulationConfig(warmup_iterations=1, measure_iterations=2)


def test_anchor_catalogue_covers_every_artifact():
    sources = {a.source.split("/")[0] for a in PAPER_ANCHORS}
    assert {"Fig.3", "Table II", "Sec.V-A", "Sec.V-C", "Table IV", "Fig.5",
            "Sec.V-E"} <= sources
    ids = [a.anchor_id for a in PAPER_ANCHORS]
    assert len(ids) == len(set(ids))


def test_value_anchor_verdict():
    anchor = PaperAnchor("x", "s", "d", lambda c: 1.0, expected=1.1, rel_tol=0.15)
    assert AnchorVerdict(anchor, 1.0).passed
    assert not AnchorVerdict(anchor, 2.0).passed


def test_ordering_anchor_verdict():
    anchor = PaperAnchor("x", "s", "d", lambda c: 0.0, ordering=True)
    assert AnchorVerdict(anchor, 0.5).passed
    assert not AnchorVerdict(anchor, -0.5).passed
    assert not AnchorVerdict(anchor, 0.0).passed


def test_validate_subset_runs():
    subset = [a for a in PAPER_ANCHORS if a.anchor_id.startswith("t4-")]
    report = validate(SweepRunner(sim=FAST), anchors=subset)
    assert report.total == len(subset)
    assert report.passed == report.total


def test_full_validation_passes():
    """Every encoded paper anchor holds under the fast simulation config."""
    report = validate(SweepRunner(sim=FAST))
    failed = [v.anchor.anchor_id for v in report.verdicts if not v.passed]
    assert report.all_passed, failed


def test_render_contains_verdicts():
    subset = [a for a in PAPER_ANCHORS if a.anchor_id == "t4-alexnet-64"]
    report = validate(SweepRunner(sim=FAST), anchors=subset)
    text = render(report)
    assert "PASS" in text
    assert "1/1 anchors passed" in text
