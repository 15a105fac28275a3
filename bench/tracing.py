"""Layer spans recorded from outside the program.

`Tracer.install` replaces every public function of the layer modules (and
the public methods of their classes) with a wrapper that records a span:
name, start, end, parent span and op. Module globals that were bound to a
function by `from .x import f` are replaced too, so calls between layers go
through the wrappers. `uninstall` puts the originals back.

Span times run on a clock that stops while the tracer does its own
bookkeeping, so a layer's self time (its spans' time minus their child
spans') does not include the tracer's work.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("tree", "market", "gains", "lp", "arbitrage", "pricing", "cli")

# O(1) lookups called thousands of times per op; a span around each would
# time the tracer, so their cost stays in the calling layer.
UNTRACED = {"ScenarioTree", "Node", "MarketModel.submarket", "MarketModel.claim"}


def value_bits(value) -> int:
    """Largest numerator or denominator bit length of an LP value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, float) and value == value and abs(value) != float("inf"):
        n, d = value.as_integer_ratio()
        return max(n.bit_length(), d.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    return 0


def _outcome_bits(outcome) -> int:
    best = value_bits(outcome.value) if outcome.value is not None else 0
    for field in (outcome.x, outcome.row_duals, outcome.farkas, outcome.ray):
        if field:
            best = max(best, max(value_bits(v) for v in field))
    return best


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.rows_max = self.cols_max = self.bits_max = 0
        self.lps_in_extraction = 0
        self.useful_extractions = 0
        self._scopes: set = set()
        self._extracting = 0
        self._stack: list[list] = []
        self._paused = 0.0

    # -- installing ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, layer-qualified name, function, is_static)."""
        for layer in LAYERS:
            mod = sys.modules[f"multimarket.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, name, f"{layer}.{name}", obj, False
                elif inspect.isclass(obj) and name not in UNTRACED:
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") or f"{name}.{attr}" in UNTRACED:
                            continue
                        if isinstance(member, staticmethod):
                            yield obj, attr, f"{layer}.{attr}", member.__func__, True
                        elif inspect.isfunction(member):
                            yield obj, attr, f"{layer}.{attr}", member, False

    def install(self) -> None:
        wrapped = {}
        for owner, attr, name, fn, static in list(self._targets()):
            wrapper = self._wrap(name, name.split(".", 1)[0], fn)
            wrapped[fn] = wrapper
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("multimarket.") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._scopes = set()

    def end_op(self) -> None:
        self.useful_extractions += len(self._scopes)

    def _wrap(self, name, layer, fn):
        tracer = self
        clock = time.perf_counter
        is_lp = name == "lp.solve_lp"
        is_extract = name == "arbitrage.extract_deflator"

        def traced(*args, **kwargs):
            b0 = clock()
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append([index, 0.0])
            tracer.calls[name] += 1
            if is_lp:
                prog = args[0] if args else kwargs["prog"]
                tracer.rows_max = max(tracer.rows_max, len(prog.rows))
                tracer.cols_max = max(tracer.cols_max, len(prog.objective))
                if tracer._extracting:
                    tracer.lps_in_extraction += 1
            if is_extract:
                tracer._extracting += 1
                scope = args[1] if len(args) > 1 else kwargs.get("scope", "global")
                tracer._scopes.add((id(args[0] if args else kwargs["model"]), scope))
            b1 = clock()
            tracer._paused += b1 - b0
            start = b1 - tracer._paused
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                e0 = clock()
                end = e0 - tracer._paused
                _, child = tracer._stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - child
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (tracer.op, name, start, end, parent)
                if is_extract:
                    tracer._extracting -= 1
                if is_lp and result is not None:
                    tracer.bits_max = max(tracer.bits_max, _outcome_bits(result))
                tracer._paused += clock() - e0

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                if span is not None:
                    op, name, start, end, parent = span
                    handle.write(json.dumps([op, name, round(start, 7), round(end, 7), parent]) + "\n")
