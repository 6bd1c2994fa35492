"""Tests of the benchmark itself, at toy size.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run._load_program()

import tracer as T  # noqa: E402
import verify as V  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "artgallery" or name.startswith("artgallery.")
        for attr, value in vars(mod).items()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_completes_at_toy_size(name):
    result, detail = run.run_workload(name, 0, 0, 0, size="toy", setup_samples=[0.0])
    assert result["attempted"] >= 1
    assert result["failed"] == 0, detail["errors"]
    assert result["correct"] is True
    assert detail["fail_frac"] == 0
    assert detail["digests_expected"]
    assert all(m["value"] > 0 for k, m in result["metrics"].items() if k != "setup_s")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_restores_originals_and_self_times_fit(name):
    before = _bindings()
    result, detail = run.run_workload(name, 0, 0, 1, size="toy")
    after = _bindings()
    assert result["failed"] == 0, detail["errors"]  # traced digests == untraced
    for key, value in before.items():
        assert after[key] is value, key
    assert not any(hasattr(v, "perfbench_layer") for v in after.values())

    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert 0 < self_total <= m["trace.wall_s"]


def test_install_rebinds_every_importing_module():
    tr = T.Tracer()
    originals = {f: getattr(sys.modules[mod], f) for mod, f, _ in T.LAYERS}
    tr.install()
    try:
        left = [key for key, value in _bindings().items()
                if any(value is orig for orig in originals.values())]
        assert left == []
        import artgallery.checkers as C
        import artgallery.cli as cli
        import artgallery.inscribe as I

        for mod in (C, cli, I):
            for attr in ("region_boolean", "kernel_simple", "clip_convex"):
                if attr in vars(mod):
                    assert hasattr(getattr(mod, attr), "perfbench_layer"), (mod.__name__, attr)
    finally:
        tr.uninstall()
    for mod, f, _ in T.LAYERS:
        assert getattr(sys.modules[mod], f) is originals[f]


def test_witness_checks_reject_bad_witnesses():
    square = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    assert V.witness_errors(square, "disc", "1/4", {"type": "disc", "cx": 0.0, "cy": 0.0, "r": 0.25}) == []
    assert V.witness_errors(square, "disc", "1/4", {"type": "disc", "cx": 0.9, "cy": 0.0, "r": 0.25})
    box = {"type": "box", "x": "-1/2", "y": "-1/2", "w": "1", "h": "1"}
    assert V.witness_errors(square, "box-volume", "1", box) == []
    assert V.witness_errors(square, "box-volume", "2", box)
    assert V.witness_errors(square, "box-volume", "1", dict(box, x="1/2"))
    ell = {"type": "ellipse", "center": [0.0, 0.0], "a11": 1.0, "a12": 0.0, "a22": 0.5}
    assert V.witness_errors(square, "ellipse", "1/4", ell) == []
    assert V.witness_errors(square, "ellipse", "1/4", dict(ell, a11=1.5))
    seg = {"type": "segment", "a": ["-1", "0"], "b": ["1", "0"], "value": "2"}
    assert V.witness_errors(square, "vwidth-segment", "1", seg) == []
    assert V.witness_errors(square, "vwidth-segment", "1", dict(seg, value="3"))


def test_coordinate_bits_read_exact_rationals_only():
    assert V.max_coord_bits([["5/8", "-3"], {"w": "1/1024"}, 0.5, "donut"]) == 11
