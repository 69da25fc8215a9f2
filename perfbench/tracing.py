"""In-memory spans recorded by the benchmark around its calls into signsum.

A span is ``[name, start, end, parent, job, attrs]``.  Each job is a root
span named ``job``; the benchmark opens child spans at every call it makes
into a signsum module.  While a traced pass runs, ``core_boundary_spans``
also wraps the names that ``balancing``, ``search`` and ``constructions``
import from ``core``, so enumeration done on their behalf is attributed to
``core`` and not to the caller.  Nothing inside ``src/signsum`` is edited.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

NAME, START, END, PARENT, JOB, ATTRS = range(6)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[START] = perf_counter()
        return self.record[ATTRS]

    def __exit__(self, exc_type, exc, tb):
        self.record[END] = perf_counter()
        self.tracer._stack.pop()
        if exc_type is not None:
            self.record[ATTRS]["error"] = exc_type.__name__
        return False


class Tracer:
    """Collects spans of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = -1

    def job(self, index: int):
        self._job = index
        return self.span("job")

    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        return _Span(self, [name, 0.0, 0.0, parent, self._job, attrs])


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return {}

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    """Stands in for a Tracer in untraced passes; records nothing."""

    _span = _NoSpan()

    def job(self, index: int):
        return self._span

    def span(self, name: str, **attrs):
        return self._span


def mode_label(policy) -> str:
    """``double``, ``ext256``, ``interval256``...: the core.* metric infix."""
    if policy is None or policy.mode == "double":
        return "double"
    prefix = "ext" if policy.mode == "extended" else "interval"
    return f"{prefix}{policy.bits}"


@contextlib.contextmanager
def core_boundary_spans(tracer: Tracer):
    """Wrap the ``min_signed_norm`` that other layers imported from core."""
    from signsum import balancing, constructions, core, search

    original = core.min_signed_norm

    def traced(config, policy=None, *args, **kwargs):
        with tracer.span("core", n=config.n, mode=mode_label(policy)):
            return original(config, policy, *args, **kwargs)

    callers = (balancing, constructions, search)
    for module in callers:
        module.min_signed_norm = traced
    try:
        yield
    finally:
        for module in callers:
            module.min_signed_norm = original


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(name: str) -> str:
    return "bench" if name == "job" else name.split(".", 1)[0]


def write_spans(path, passes: list[list[list]]):
    """One JSON object per span; ``pass`` numbers the traced passes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for index, s in enumerate(spans):
                fh.write(json.dumps({
                    "pass": number, "id": index, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "job": s[JOB], **s[ATTRS],
                }) + "\n")
