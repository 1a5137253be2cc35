"""Per-layer tracing from outside the package: timing wrappers on public functions.

Every public function defined in a layer module is wrapped, and the wrapper is
installed into every loaded module namespace that holds the function, since
`from .hyper_wz import sum_F` leaves a second reference in congruence_suite
that patching hyper_wz alone would miss. Spans (name, start, end, parent)
stay in memory; a function's self time is its span minus its child spans.
Counters are taken at the same call boundaries. `restore` puts every patched
attribute back as it was.

Spans from worker processes cannot come back, so traced runs use one process.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict
from fractions import Fraction

from supercong.padic_gamma import PrecisionCapError

LAYERS = ("exact_core", "dwork", "padic_gamma", "hyper_wz", "congruence_suite", "cli")
PACKAGE = "supercong"


def _bits(q) -> int:
    return abs(q.numerator).bit_length() + q.denominator.bit_length()


def public_functions(module: types.ModuleType) -> dict[str, types.FunctionType]:
    """Functions defined in `module` whose names do not start with an underscore."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
    }


class Tracer:
    """Install with `with Tracer() as tracer:`; read `tracer.summary()` afterwards."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._gamma_keys: set[tuple[int, int, int]] = set()
        self._count_hooks = {
            "hyper_wz.sum_F": self._count_sum_F,
            "exact_core.valuation": self._count_valuation,
            "padic_gamma.gamma_p": self._count_gamma_p,
            "cli.emit_report": self._count_emit_report,
        }

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
                originals[id(fn)] = fn
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def restore(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def _wrap(self, qualname: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        count_hook = self._count_hooks.get(qualname)
        in_gamma = qualname.startswith("padic_gamma.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(qualname)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = time.perf_counter()
                stack.pop()
                if in_gamma and isinstance(exc, PrecisionCapError):
                    parent = parents[index]
                    if parent < 0 or not names[parent].startswith("padic_gamma."):
                        self.counts["padic_gamma.cap_errors"] += 1
                raise
            ends[index] = time.perf_counter()
            stack.pop()
            if count_hook is not None:
                count_hook(args, kwargs, result)
            return result

        return traced

    def _count_sum_F(self, args, kwargs, result) -> None:
        self.counts["hyper_wz.sum_F.terms"] += args[1] if len(args) > 1 else kwargs["N"]
        key = "hyper_wz.sum_F.result_bits_max"
        self.maxima[key] = max(self.maxima[key], _bits(result))

    def _count_valuation(self, args, kwargs, result) -> None:
        q = args[0] if args else kwargs["q"]
        key = "exact_core.valuation.operand_bits_max"
        self.maxima[key] = max(self.maxima[key], _bits(Fraction(q)))

    def _count_gamma_p(self, args, kwargs, result) -> None:
        # the Gamma_p product cache is keyed by (residue of x mod p^M, p, p^M)
        x = Fraction(args[0])
        pm = result.p**result.M
        key = (x.numerator * pow(x.denominator, -1, pm) % pm, result.p, pm)
        if key not in self._gamma_keys:
            self._gamma_keys.add(key)
            self.counts["padic_gamma.gamma_p.distinct_args"] += 1
            self.counts["padic_gamma.gamma_p.product_len"] += pm

    def _count_emit_report(self, args, kwargs, result) -> None:
        self.counts["cli.emit_report.bytes"] += len(result)

    def summary(self) -> dict[str, float]:
        """Per function `<layer>.<name>.calls` and `.self_s`, plus every counter."""
        child = [0.0] * len(self.starts)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        totals: defaultdict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += self.ends[index] - self.starts[index] - child[index]
        totals.update(self.counts)
        totals.update(self.maxima)
        return dict(totals)
