"""Span tracer for the benchmark's traced runs.

The tracer times calls into the layers' public functions by replacing them
on their classes (or modules) for the duration of one traced run, and puts
the originals back afterwards; nothing in ``src/`` is edited.  Each call is
a span.  A span's *self time* is its duration minus the time covered by the
spans it encloses, so the self times of every span opened inside a root
span add up to the root's wall time exactly.

Spans are only recorded while a root span is open: work done outside the
measured region (building a scenario, say) calls straight through.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Called after a traced call returns, outside its span's own time:
#: ``hook(tracer, args, kwargs, result)``.  Used to count work (bytes,
#: elements) measured from a call's arguments and result.
ExitHook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Accumulates self time and call counts per span name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Free-form work counters filled by exit hooks.
        self.counters: Dict[str, float] = defaultdict(float)
        #: Wall time of every root span, summed.
        self.wall_s = 0.0
        # One entry per open span: the time its children covered so far.
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _close(self, name: str, elapsed: float, frame: List[float]) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self.self_s[name] += elapsed - frame[0]
        self.calls[name] += 1

    def wrap(self, name: str, fn: Callable, on_exit: Optional[ExitHook] = None) -> Callable:
        """``fn`` timed as span ``name`` whenever a root span is open."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer._stack:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, time.perf_counter() - start, frame)
            if on_exit is not None:
                on_exit(tracer, args, kwargs, result)
            return result

        return traced

    def patch(
        self, owner: Any, attr: str, name: str, on_exit: Optional[ExitHook] = None
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its span."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_exit))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """The measured region: spans opened inside it are recorded."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._close(name, elapsed, frame)
            self.wall_s += elapsed

    def total_self_s(self) -> float:
        """Sum of every span's self time (equals ``wall_s`` by construction)."""
        return sum(self.self_s.values())
