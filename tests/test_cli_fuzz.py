"""The CLI's exit codes under generated input: 0 or 2, never 1.

Exit code 1 is an internal error, so bad input must never reach it.
Hypothesis draws well-formed gallery documents of every kind and mutates
them (keys dropped, values of the wrong type, bad or moved coordinates,
non-string names, text that is not JSON), then runs `vis`, `kernel` and
`render` on them with drawn flags; a second test draws `generate` flags.
The runs are derandomized, so every run tries the same examples.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from artgallery import docio
from artgallery.cli import main
from artgallery.galleries import gen_fig1, gen_spider

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=60)

SQUARE = [["0", "0"], ["6", "0"], ["6", "6"], ["0", "6"]]
BASES = (
    {"format_version": 1, "kind": "polygonal", "outer": [["0", "0"], ["1", "0"], ["0", "1"]]},
    {
        "format_version": 1, "kind": "polygonal", "outer": SQUARE,
        "holes": [[["2", "2"], ["2", "4"], ["4", "4"], ["4", "2"]]],
        "classes": {"a": [["1", "1"], ["5", "5"]]}, "name": "donut",
    },
    {
        "format_version": 1, "kind": "pinched",
        "components": [[["0", "0"], ["1", "0"], ["0", "1"]], [["1", "0"], ["2", "0"], ["2", "1"]]],
    },
    {"format_version": 1, "kind": "skeletal", "segments": [[["-1", "0"], ["1", "0"]], [["0", "-1"], ["0", "1"]]]},
    json.loads(docio.dumps(docio.gallery_to_document(gen_fig1()))),
    json.loads(docio.dumps(docio.gallery_to_document(gen_spider()))),
)

COORDS = ("0", "1", "3", "7", "-1", "1/2", "5/3", "31/10", "1/3")
BAD_COORDS = ("x", "", "1/0", "0/0", "1/", "nan", "inf", " 2 ")
BAD_VALUES = st.one_of(
    st.sampled_from(BAD_COORDS),
    st.sampled_from([None, True, 7, 1.5, math.inf, math.nan, [], {}, [[]], ["1"], "polygonal"]),
    st.text(max_size=3),
)
COORD = st.one_of(st.sampled_from(COORDS), st.sampled_from(COORDS + BAD_COORDS))


def _leaves(node, path=()):
    """Paths to every scalar inside a JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def gallery_texts(draw):
    """The text of a gallery file: a mutated document, or not JSON at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "{", "[1, 2]", "null", '"gallery"']))
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        how = draw(st.sampled_from(["leaf", "leaf", "key", "drop", "name"]))
        if how == "name":
            doc["name"] = draw(BAD_VALUES)
        elif how == "drop" and doc:
            doc.pop(draw(st.sampled_from(sorted(doc))))
        elif how == "key" and doc:
            doc[draw(st.sampled_from(sorted(doc)))] = draw(BAD_VALUES)
        else:
            paths = [p for p in _leaves(doc) if p]
            if paths:
                path = draw(st.sampled_from(paths))
                value = draw(st.one_of(st.sampled_from(COORDS), BAD_VALUES))
                _parent(doc, path)[path[-1]] = value
    return json.dumps(doc)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a malformed flag with 2
            return exc.code


OVERLAY = st.one_of(
    st.sampled_from(["classes", "kernel"]),
    st.builds(lambda x, y: f"vis:{x},{y}", COORD, COORD),
    st.sampled_from(["vis:1", "vis:", "bogus"]),
)


@FUZZ
@given(text=gallery_texts(), command=st.sampled_from(["vis", "kernel", "render"]),
       x=COORD, y=COORD, overlays=st.lists(OVERLAY, max_size=3), files=st.booleans())
def test_gallery_commands_exit_0_or_2(text, command, x, y, overlays, files):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path)]
        if command == "vis":
            argv += [x, y]
        if command == "render":
            argv += [arg for spec in overlays for arg in ("--overlay", spec)]
        if files or command == "render":
            argv += ["-o", str(Path(tmp) / "out")]
        if files and command != "render":
            argv += ["--svg", str(Path(tmp) / "out.svg")]
        assert _run(argv) in (0, 2), argv


SMALL_INT = st.sampled_from(["-1", "0", "1", "2", "x"])


@st.composite
def generate_flags(draw):
    example = draw(st.sampled_from(["fig1", "spider", "claim22", "spiked", "star", "simple", "nope"]))
    argv = ["--example", example, "--seed", draw(st.sampled_from(["0", "3", "-2"]))]
    if example == "claim22":
        argv += ["--n", draw(SMALL_INT)]
        if draw(st.booleans()):
            argv += ["--sizes", draw(st.sampled_from(["3,3", "3", "2,3", "3,x", "", ","]))]
    elif example == "spiked":
        argv += ["--n", draw(SMALL_INT), "--budget", draw(SMALL_INT),
                 "--disc-poly-verts", draw(st.sampled_from(["-1", "0", "2", "3", "6", "7", "8"]))]
    elif example in ("star", "simple"):
        argv += ["--n-vertices", draw(st.sampled_from(["-1", "0", "2", "3", "4", "7", "x"]))]
    return argv


@settings(FUZZ, max_examples=30)
@given(flags=generate_flags())
def test_generate_exits_0_or_2(flags):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["generate", *flags, "-o", str(Path(tmp) / "g.json")]
        assert _run(argv) in (0, 2), argv
