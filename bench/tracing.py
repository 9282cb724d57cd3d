"""Per-layer tracing of ``stockbound`` from outside the package.

``Tracer.install()`` replaces each public function of the package's modules
with a wrapper, at every module attribute that refers to it (so both
``rates.invert_rate`` and ``policy.invert_rate`` are traced), and restores
the originals on ``uninstall()``.  The package's source is not edited.

Each wrapped call opens a span.  A span's self time is its duration minus the
time covered by the spans it directly encloses; summing self time over a
module's functions gives that layer's share of the work.  Statistics cover
every call; individual spans are kept only while ``recording`` is set, and
never for CGF evaluations, which run tens of thousands of times per solve.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

MODULES = ("cli", "policy", "rates", "cgf", "oracle", "demand", "events")
# Called at every quadrature node; wrapping it would multiply the cost of the
# oracle layer it sits in and distort every share.
UNWRAPPED = {"oracle.normal_upper_tail"}
EVAL_KEY = "cgf.eval"
EVAL_METHODS = ("value", "gradient", "value_and_gradient", "__call__")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0  # outermost calls only, so recursion is not double counted
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.recording = True
        self._stack: list[list] = []  # [key, start, time covered by children, span id]
        self._depth: Counter = Counter()
        self._hooks = {
            "rates.rate_numeric": self._count_iterations,
            "demand.sample_correlated": self._count_bytes,
            "oracle.joint_tail_monte_carlo": self._count_trials,
        }
        self._patched: list[tuple] = []

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()
        self.spans.clear()

    # -- spans -------------------------------------------------------------

    def call(self, key: str, fn, args=(), kwargs=None, record: bool = True):
        if key == "oracle.bivariate_joint_tail" and self._depth["oracle.invert_joint_tail"]:
            self.counters["oracle.invert_joint_tail.tail_evals"] += 1
        parent = self._stack[-1][3] if self._stack else None
        span_id = None
        if record and self.recording:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [key, self.clock(), 0.0, span_id if span_id is not None else parent]
        self._stack.append(frame)
        self._depth[key] += 1
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = self.clock()
            self._stack.pop()
            self._depth[key] -= 1
            duration = end - frame[1]
            stat = self.stats[key]
            stat.calls += 1
            stat.self_s += duration - frame[2]
            if not self._depth[key]:
                stat.total_s += duration
            if self._stack:
                self._stack[-1][2] += duration
            if span_id is not None:
                self.spans[span_id] = (span_id, parent, key, frame[1], end)
        hook = self._hooks.get(key)
        if hook is not None:
            hook(result)
        return result

    def _count_iterations(self, result) -> None:
        self.counters["rates.rate_numeric.iterations"] += int(result.iterations)

    def _count_bytes(self, result) -> None:
        self.counters["demand.sample_correlated.bytes"] += int(result.nbytes)

    def _count_trials(self, result) -> None:
        self.counters["oracle.joint_tail_monte_carlo.trials"] += int(result.trials)

    # -- patching ----------------------------------------------------------

    def _wrap(self, key: str, fn, record: bool = True):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(key, fn, args, kwargs, record)

        return wrapper

    def install(self, package: str = "stockbound") -> None:
        """Wrap every public function of the package's modules, wherever it is bound."""
        submodules = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        modules = [importlib.import_module(package), *submodules.values()]
        wrappers = {}
        for name, module in submodules.items():
            for attr, obj in vars(module).items():
                key = f"{name}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and key not in UNWRAPPED
                ):
                    wrappers[id(obj)] = (obj, self._wrap(key, obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])
        evaluator = submodules["cgf"].CgfEvaluator
        for attr in EVAL_METHODS:
            original = vars(evaluator)[attr]
            self._patched.append((evaluator, attr, original))
            setattr(evaluator, attr, self._wrap(EVAL_KEY, original, record=False))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        """Self time per layer (the prefix of each key before the first dot)."""
        out: dict[str, float] = defaultdict(float)
        for key, stat in self.stats.items():
            out[key.split(".", 1)[0]] += stat.self_s
        return dict(out)

