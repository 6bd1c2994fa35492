"""Command-line entry points: exit codes and report timing."""

import json
import time

from artgallery.cli import main


def test_check_generator_with_quantitative_family(tmp_path):
    out = tmp_path / "report.json"
    argv = ["check", "--generator", "star", "--theorem", "disc", "--threshold", "1/4",
            "--budget", "1", "-o", str(out)]
    assert main(argv) == 0
    det = json.loads(out.read_text())["deterministic"]
    assert det["config"]["family"] == "disc"
    assert det["classification"] != "THEOREM_VIOLATION_CANDIDATE"


def test_check_batch_timing_is_per_report(tmp_path):
    out = tmp_path / "batch.json"
    t0 = time.monotonic()
    assert main(["check", "--generator", "star", "--budget", "3", "--timing", "-o", str(out)]) == 0
    wall = time.monotonic() - t0
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 3
    seconds = [r["timing"]["seconds"] for r in reports]
    assert all(s > 0 for s in seconds)
    assert sum(seconds) <= wall
