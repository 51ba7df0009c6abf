"""Outside-in call tracer for the fdmimo modules.

The tracer wraps every public function and public method of the modules
named in `MODULES` without touching their source.  A function is found by
discovery: any callable whose `__module__` is the module that defines it,
so a function that a later change deletes simply reports nothing.  Each
wrapper is bound under every name that refers to the original function in
any fdmimo namespace: the defining module (which also catches callers in
the same module, such as `assemble_analog_bf` calling `dft_codebook`), the
modules that import it by name (`link`, `cli`, `cancellation`), and the
package itself.  Public methods are rebound on their class.

Per function the tracer keeps a call count, a count of calls that raised,
and self time: the span minus the time spent in traced callees.  For the functions named in `distinct`, it also keeps the set of
distinct scalar-argument tuples, so repeated constant work shows as a low
distinct ratio.  Everything is aggregated in memory; nothing is written
per call.  The tracer assumes the traced code runs on the calling thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from numbers import Number
from typing import Dict, Iterable, List, Optional, Tuple

PACKAGE = "fdmimo"
MODULES = ("channel", "estimation", "beamforming", "cancellation", "impairments", "link", "cli")


@dataclass
class CallStats:
    """Aggregate of every call to one traced function."""

    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    keys: Optional[set] = None

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.calls if self.calls else 0.0

    @property
    def distinct_ratio(self) -> float:
        if not self.calls or self.keys is None:
            return 0.0
        return len(self.keys) / self.calls


def _scalar_key(args: tuple, kwargs: dict) -> tuple:
    """Scalar arguments as a hashable key; other arguments count by type only."""

    def part(v):
        if v is None or isinstance(v, (Number, str)):
            return v
        return type(v).__name__

    return tuple(part(a) for a in args) + tuple((k, part(v)) for k, v in sorted(kwargs.items()))


def _public_targets() -> List[Tuple[str, object, str, object]]:
    """(qualified name, owner, attribute, original) for everything to wrap."""
    targets = []
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        targets.append((f"{short}.{attr}.{meth}", obj, meth, fn))
            elif callable(obj):
                targets.append((f"{short}.{attr}", mod, attr, obj))
    return targets


class Tracer:
    """Context manager that installs the wrappers on entry and removes them on exit."""

    def __init__(self, distinct: Iterable[str] = ()):
        self.distinct = frozenset(distinct)
        self.stats: Dict[str, CallStats] = {}
        self._undo: List[Tuple[object, str, object]] = []
        self._stack: List[float] = []

    def __enter__(self) -> "Tracer":
        namespaces = [importlib.import_module(PACKAGE)]
        namespaces += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for qual, owner, attr, original in _public_targets():
            wrapper = self._wrap(qual, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, name, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _rebind(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def _wrap(self, qual: str, fn):
        stat = self.stats.setdefault(qual, CallStats())
        if qual in self.distinct and stat.keys is None:
            stat.keys = set()
        keys = stat.keys
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(_scalar_key(args, kwargs))
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat.failed += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def get(self, qual: str) -> CallStats:
        """Stats of one function; an empty record if it was never discovered."""
        return self.stats.get(qual, CallStats())
