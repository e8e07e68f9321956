"""Spans and call counters wrapped around rtcsim from the outside.

Stage calls (generate, schedule, cbp, ...) get one span each: name, start,
end, parent and the run id shared by every span of one operation. Hot calls
(``is_hidden``, ``classify``, ``position_at``, ...) get a call count and an
accumulated self time instead, because one span per call would cost more
than the call. Self time is the call's duration minus the time spent in
wrapped calls it makes, so ``is_hidden`` -> ``rss_dbm`` -> ``path_loss_db``
charges the log-curve evaluation to ``path_loss_db`` only.

Each thread keeps its own call stack and counters: the paced runner calls
``position_at`` and ``path_loss_db`` from both its producer and its delivery
thread, and a shared read-modify-write counter could lose updates across a
thread switch. The tables are merged when the run ends.

Nothing is patched until :func:`install_rtcsim_wrappers`;
:meth:`Tracer.uninstall` puts every original function back, so untraced
runs call rtcsim unwrapped.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "calls")

    def __init__(self):
        # one accumulator per active wrapped call: time spent in wrapped children
        self.stack: list[float] = []
        # name -> [calls, self seconds]
        self.calls: dict[str, list] = {}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record one stage call; spans opened inside it name it as parent."""
        index = len(self.spans)
        record = {"run_id": self.run_id, "id": index, "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": _clock(), "end": None}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = _clock()
            self._open.pop()

    def span_seconds(self, name: str) -> float:
        """Summed duration of every span with this name (0.0 if none)."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def span_self_seconds(self, name: str) -> float:
        """Summed duration of the named spans minus what their child spans cover."""
        total = 0.0
        for s in self.spans:
            if s["name"] != name:
                continue
            children = sum(c["end"] - c["start"] for c in self.spans
                           if c["parent"] == s["id"])
            total += (s["end"] - s["start"]) - children
        return total

    # -- counted hot calls --------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def counted(self, name: str, fn):
        """Wrap ``fn`` so each call adds to ``name``'s count and self time."""
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state_of()
            stack = st.stack
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                child = stack.pop()
                rec = st.calls.get(name)
                if rec is None:
                    rec = st.calls[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def spanned(self, name: str, fn):
        """Wrap a stage function the program calls internally in a span."""
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def tally(self, name: str) -> None:
        """Count one event under ``name`` without timing it."""
        calls = self._state().calls
        rec = calls.get(name)
        if rec is None:
            rec = calls[name] = [0, 0.0]
        rec[0] += 1

    def calls(self) -> dict[str, tuple[int, float]]:
        """Merged (count, self seconds) per counted name across all threads."""
        merged: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (n, secs) in st.calls.items():
                rec = merged.setdefault(name, [0, 0.0])
                rec[0] += n
                rec[1] += secs
        return {name: (n, secs) for name, (n, secs) in merged.items()}

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr``, remembering the original for uninstall()."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class CountingHeapq:
    """Stand-in for the ``heapq`` module that counts pushes and pops.

    Provides only the three functions the scheduler uses; pushes and pops
    count through the tracer's per-thread tables like any wrapped call.
    """

    def __init__(self, tracer: Tracer, heapq_module):
        self.heappush = tracer.counted("heapq.heappush", heapq_module.heappush)
        self.heappop = tracer.counted("heapq.heappop", heapq_module.heappop)
        self.heapify = heapq_module.heapify


def install_rtcsim_wrappers(tracer: Tracer) -> None:
    """Wrap the hot calls and internal stage calls of the rtcsim package.

    ``position_at`` is imported by name into ``mac``, ``metrics`` and
    ``wire``, so it is wrapped in each of those namespaces. Redeferrals are
    backoffs applied to a packet that already drew its counter.
    """
    import heapq

    from rtcsim import channel, mac, metrics, wire

    for name in ("is_hidden", "path_loss_db", "resolve_capture"):
        tracer.patch(channel, name, tracer.counted(f"channel.{name}",
                                                   getattr(channel, name)))
    for name in ("classify", "reschedule_after_aifs", "resolve_transmission"):
        tracer.patch(mac, name, tracer.counted(f"mac.{name}", getattr(mac, name)))

    apply_backoff = mac.apply_backoff
    tally = tracer.tally

    def backoff_with_redeferrals(next_pkt, *args, **kwargs):
        if next_pkt.backoff_counter is not None:
            tally("mac.redeferral")
        return apply_backoff(next_pkt, *args, **kwargs)

    tracer.patch(mac, "apply_backoff",
                 tracer.counted("mac.apply_backoff", backoff_with_redeferrals))
    tracer.patch(mac.KeyedBackoffRng, "draw",
                 tracer.counted("mac.KeyedBackoffRng.draw", mac.KeyedBackoffRng.draw))
    for module in (mac, metrics, wire):
        tracer.patch(module, "position_at",
                     tracer.counted("scenario.position_at", module.position_at))
    tracer.patch(mac, "heapq", CountingHeapq(tracer, heapq))
    tracer.patch(mac, "verify_run_invariants",
                 tracer.spanned("invariants", mac.verify_run_invariants))
    for name in ("event_to_record", "pack_bsm"):
        tracer.patch(wire, name, tracer.counted(f"wire.{name}", getattr(wire, name)))
