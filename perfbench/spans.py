"""In-memory span recorder for the traced benchmark run.

The traced run wraps the public entry point of each layer *where its
caller looks it up* — a module that did ``from x import f`` holds its
own binding of ``f``, so that binding is the one replaced.  Every call
through a wrapper records one span (name, layer, parent, start, end,
attributes).  Spans stay in a list until the run ends and are then
written out in one go; nothing is recorded while tracing is off.

A layer's *self time* is the total duration of its spans minus the part
covered by their direct children, so nested layers are never counted
twice.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


@dataclass
class Span:
    name: str
    layer: str
    parent: int          #: index of the enclosing span, -1 at top level
    start_ns: int = 0
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: list = []

    def wrap(self, layer: str, name: str, fn: Callable,
             attrs_of: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so each call records a span.  ``attrs_of(args,
        kwargs)`` gives the span's attributes at entry; ``on_result(span,
        result)`` may add more from the return value."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1,
                        attrs=attrs_of(args, kwargs) if attrs_of else {})
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, name: str,
              **hooks) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a
        traced wrapper; :meth:`restore` puts the original back."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.wrap(layer, name, original.__func__, **hooks))
        else:
            replacement = self.wrap(layer, name, original, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_ns(self) -> List[int]:
        """Per span: its duration minus its direct children's."""
        out = [span.duration_ns for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] -= span.duration_ns
        return out

    def self_by(self, labels: Sequence[Optional[str]]) -> Dict[str, float]:
        """Self seconds summed per label; ``labels`` has one entry per
        span (``None`` skips the span)."""
        totals: Dict[str, float] = {}
        for label, own in zip(labels, self.self_ns()):
            if label is not None:
                totals[label] = totals.get(label, 0.0) + own / 1e9
        return totals

    def inherited(self, key: str) -> List[Optional[object]]:
        """Per span: ``attrs[key]`` of the span or its nearest ancestor
        that has one (parents always precede their children)."""
        values: List[Optional[object]] = []
        for span in self.spans:
            value = span.attrs.get(key)
            if value is None and span.parent >= 0:
                value = values[span.parent]
            values.append(value)
        return values

    def dump(self, path) -> None:
        """Write every span as one JSON line (index order)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), default=str) + "\n")
