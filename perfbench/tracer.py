"""Layer tracing from outside the program.

`Tracer.install` wraps each public function in `LAYERS` and rebinds the
wrapper under every name that refers to the original in any loaded
`artgallery` module, because most callers bind these functions with
`from ... import`. `Tracer.uninstall` puts every original back. Spans (name,
start, end, parent, item id) stay in memory until `write_spans`.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

# (defining module, function, per-call statistic hook name or None)
LAYERS = (
    ("artgallery.geom.boolean", "region_boolean", "boolean"),
    ("artgallery.visibility", "visibility_polygon", "visibility"),
    ("artgallery.visibility", "common_visibility", None),
    ("artgallery.visibility", "skeletal_common_visibility", None),
    ("artgallery.visibility", "pinched_common_visibility", None),
    ("artgallery.geom.convex", "clip_convex", "out_bits"),
    ("artgallery.galleries", "disc_polygon", "out_bits"),
    ("artgallery.galleries", "estimate_m", "evaluations"),
    ("artgallery.galleries", "gen_empty_kernel", None),
    ("artgallery.galleries", "gen_star", None),
    ("artgallery.galleries", "gen_claim22", None),
    ("artgallery.kernel", "kernel_simple", None),
    ("artgallery.checkers", "kernel_status", None),
    ("artgallery.inscribe", "max_inscribed_disc", None),
    ("artgallery.inscribe", "mvie", None),
    ("artgallery.inscribe", "longest_vwidth_segment", None),
    ("artgallery.inscribe", "contains_box_of_area", "found"),
    ("artgallery.inscribe", "contains_box_of_axis_sum", "found"),
    ("artgallery.docio", "report_to_document", None),
    ("artgallery.docio", "gallery_to_document", None),
    ("artgallery.docio", "dumps", None),
)

ITEM = "item"


def layer_name(module: str, func: str) -> str:
    return f"{module.removeprefix('artgallery.')}.{func}"


def _rings(shape):
    if hasattr(shape, "components"):
        for comp in shape.components:
            yield from _rings(comp)
    elif hasattr(shape, "outer"):
        yield shape.outer.vertices
        for hole in shape.holes:
            yield hole.vertices
    elif hasattr(shape, "vertices"):
        yield shape.vertices
    else:
        yield tuple(shape)


def _bits(value) -> int:
    return max(int(value.numerator).bit_length(), int(value.denominator).bit_length())


def coord_bits(points) -> int:
    return max((_bits(c) for p in points for c in p), default=0)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id]
        self.stats = defaultdict(float)
        self.item = None
        self._stack = []
        self._seen_views = set()
        self._restore = []
        self._hooks = {
            "boolean": self._boolean,
            "visibility": self._visibility,
            "out_bits": self._out_bits,
            "evaluations": self._evaluations,
            "found": self._found,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import artgallery

        for info in pkgutil.walk_packages(artgallery.__path__, "artgallery."):
            importlib.import_module(info.name)
        modules = [m for n, m in sys.modules.items() if n == "artgallery" or n.startswith("artgallery.")]
        try:
            for modname, func, hook in LAYERS:
                original = getattr(sys.modules[modname], func)
                wrapper = self._wrap(layer_name(modname, func), original, self._hooks.get(hook))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                hook(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_layer = name
        return wrapper

    # -- items ---------------------------------------------------------------

    def begin_item(self, item_id: str) -> None:
        self.item = item_id
        self._seen_views.clear()
        self._stack.append(len(self.spans))
        self.spans.append([ITEM, time.perf_counter(), 0.0, -1, item_id])

    def end_item(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self.item = None

    # -- per-call statistics -------------------------------------------------

    def _boolean(self, name, args, result):
        self.stats[name + ".edges_in"] += sum(len(r) for shape in args[1:3] for r in _rings(shape))
        self.stats[name + ".empty"] += result.is_empty()

    def _visibility(self, name, args, result):
        key = (id(args[0]), tuple(args[1]))
        self.stats[name + ".repeats"] += key in self._seen_views
        self._seen_views.add(key)

    def _out_bits(self, name, args, result):
        key = name + ".out_bits_max"
        self.stats[key] = max(self.stats[key], coord_bits(result.vertices))

    def _evaluations(self, name, args, result):
        self.stats[name + ".evaluations"] += result.evaluations

    def _found(self, name, args, result):
        self.stats[name + ".found"] += result is not None

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name; self time excludes the time
        of wrapped child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        selfs = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            selfs[name] += (end - start) - inner
        return calls, selfs

    def metrics(self, rounds: int) -> dict:
        """name -> (value, unit) per round for every layer, plus the item time
        no wrapped layer covers."""
        calls, selfs = self.self_times()
        stats = self.stats

        def frac(key, name):
            return stats[key] / calls[name] if calls[name] else 0.0

        out = {}
        for module, func, hook in LAYERS:
            name = layer_name(module, func)
            out[name + ".calls"] = (calls[name] / rounds, "count")
            out[name + ".self_s"] = (selfs[name] / rounds, "s")
            if hook == "boolean":
                out[name + ".edges_in"] = (stats[name + ".edges_in"] / rounds, "count")
                out[name + ".empty_frac"] = (frac(name + ".empty", name), "fraction")
            elif hook == "visibility":
                out[name + ".repeat_frac"] = (frac(name + ".repeats", name), "fraction")
            elif hook == "out_bits":
                out[name + ".out_bits_max"] = (stats[name + ".out_bits_max"], "bits")
            elif hook == "evaluations":
                out[name + ".evaluations"] = (stats[name + ".evaluations"] / rounds, "count")
            elif hook == "found":
                out[name + ".found_frac"] = (frac(name + ".found", name), "fraction")
        out["unwrapped.self_s"] = (selfs[ITEM] / rounds, "s")
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
