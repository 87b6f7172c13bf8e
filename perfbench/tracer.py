"""Call spans around the public functions of each ``bontea`` layer.

``Tracer.install`` replaces every module attribute of a loaded ``bontea.*``
module that *is* one of the target functions with a timing wrapper, so a
function is traced wherever a caller module looks it up (``bontea.cli.
compute_rule``, ``bontea.trainer.compute_rule``, ...), including calls made
through the defining module's own globals. ``uninstall`` puts the originals
back. A target that no longer exists is skipped and reports zero calls.

Spans nest: each span adds its duration to its parent's child time, and a
function's self time is its duration minus its children's. Generator
functions are timed per ``next()``, i.e. the time spent pulling items.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

#: (metric prefix, defining module, function name) for every traced function.
TARGETS = (
    ("cli.main", "bontea.cli", "main"),
    ("cli.read_reward_groups", "bontea.cli", "read_reward_groups"),
    ("advantages.compute_rule", "bontea.advantages", "compute_rule"),
    ("tailstats.empirical_tail_vector", "bontea.tailstats", "empirical_tail_vector"),
    ("tailstats.prefix_tail_vectors", "bontea.tailstats", "prefix_tail_vectors"),
    ("prefixes.build_scheme", "bontea.prefixes", "build_scheme"),
    ("gauss.tail_constants", "bontea.gauss", "tail_constants"),
    ("gauss.qq_tail_fit", "bontea.gauss", "qq_tail_fit"),
    ("bon_eval.grouped_bon_curve", "bontea.bon_eval", "grouped_bon_curve"),
    ("bon_eval.paired_bootstrap_delta", "bontea.bon_eval", "paired_bootstrap_delta"),
    ("trainer.train", "bontea.trainer", "train"),
    ("trainer.evaluate_policy_bon", "bontea.trainer", "evaluate_policy_bon"),
    ("synth.true_gradient", "bontea.synth", "true_gradient"),
)

#: Spans land in this bucket until ``fold`` moves them, scaled, into another.
PENDING = "pending"

#: Layers whose self time is reported, keyed by the span that stands for them.
SELF_TIMES = {
    "cli.self.s": "cli.main",
    "advantages.self.s": "advantages.compute_rule",
    "trainer.self.s": "trainer.train",
}


class Tracer:
    """Accumulates calls, total and self seconds per span name into buckets."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self.calls: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.seconds: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.self_seconds: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def _record(self, name: str, elapsed: float, child: float) -> None:
        self.seconds[PENDING][name] += elapsed
        self.self_seconds[PENDING][name] += elapsed - child
        if self._stack:
            self._stack[-1][0] += elapsed

    def _wrap(self, name: str, func):
        tracer = self
        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[PENDING][name] += 1
                inner = func(*args, **kwargs)
                try:
                    while True:
                        tracer._stack.append([0.0])
                        start = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            elapsed = time.perf_counter() - start
                            child = tracer._stack.pop()[0]
                            tracer._record(name, elapsed, child)
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.calls[PENDING][name] += 1
            tracer._stack.append([0.0])
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = tracer._stack.pop()[0]
                tracer._record(name, elapsed, child)

        return wrapper

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "bontea" or key.startswith("bontea."))]
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def fold(self, source: str, target: str, factor: float) -> None:
        """Add bucket ``source`` to ``target``, seconds times ``factor``, and empty it."""
        for name, count in self.calls.pop(source, {}).items():
            self.calls[target][name] += count
        for table in (self.seconds, self.self_seconds):
            for name, value in table.pop(source, {}).items():
                table[target][name] += value * factor

    def report(self, once: str, per_round: str, rounds: int) -> dict[str, float]:
        """Calls and seconds of bucket ``once`` plus the per-round mean of ``per_round``."""

        def value(table, name: str) -> float:
            return table[once][name] + table[per_round][name] / max(rounds, 1)

        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = value(self.calls, name)
            out[f"{name}.s"] = value(self.seconds, name)
        for metric, name in SELF_TIMES.items():
            out[metric] = value(self.self_seconds, name)
        return out
