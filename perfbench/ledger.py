"""Outside-in per-layer ledger: wrap each layer's entry points, keep spans.

The benchmark never edits the program.  :class:`Ledger` replaces each
layer's public functions and handler methods *at the names callers bind*:
a module-level function is swapped in every ``repro.*`` module that holds
a reference to it (``from x import f`` copies the binding), and a method
is swapped in its class dictionary, so objects built afterwards bind the
wrapper.  :meth:`Ledger.uninstall` restores every original.

Each wrapped call is a span.  A span's *self time* is its duration minus
the time of the wrapped spans it encloses, so the self times of all layers
add up to the time spent inside the outermost span without double
counting.  A call that re-enters the metric already on top of the stack
(``canonical_encode`` recursing, ``Authenticator.verify`` calling
``verify_payload``) is folded into the outer span.

Aggregates (self time, calls) are exact for every call.  Individual spans
are kept in memory up to ``max_spans`` (plus the outermost span) and
written out at the end as JSONL and as Chrome trace-event JSON; spans past
the cap are counted, not kept.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Cap on individually kept spans (aggregates stay exact past it).
MAX_SPANS = 50_000


def _rid_of_message(args: Sequence[Any]) -> Optional[Tuple[int, int]]:
    """``(client, sequence)`` of a handler's ``(self, kind, payload, src)``."""
    if len(args) < 3:
        return None
    body = getattr(args[2], "payload", args[2])
    client = getattr(body, "client", None)
    sequence = getattr(body, "sequence", None)
    if isinstance(client, int) and isinstance(sequence, int):
        return (client, sequence)
    return None


def _rid_of_apply(args: Sequence[Any]) -> Optional[Tuple[int, int]]:
    """``ServiceKVStore.apply_request(self, client, sequence, op)``."""
    return (args[1], args[2]) if len(args) >= 3 else None


def _rid_of_signed(args: Sequence[Any]) -> Optional[Tuple[int, int]]:
    """``Authenticator.sign(self, payload)`` / ``verify(self, message)``."""
    if len(args) < 2:
        return None
    return _rid_of_message((None, None, args[1]))


# (module, qualified attribute, metric, request-id extractor).  Handler
# methods are the entry points the hosts dispatch to; functions are the
# layer APIs every caller goes through.
SIM_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.service.kv", "ServiceKVStore.apply_request", "service.kv.apply", _rid_of_apply),
    ("repro.service.client", "ServiceClient.on_reply", "service.client.reply", _rid_of_message),
    ("repro.crypto.digests", "canonical_encode", "crypto.encode", None),
    ("repro.crypto.digests", "digest", "crypto.digest", None),
    ("repro.crypto.authenticator", "Authenticator.sign", "crypto.sign", _rid_of_signed),
    ("repro.crypto.signatures", "sign_payload", "crypto.sign", None),
    ("repro.crypto.authenticator", "Authenticator.verify", "crypto.verify", _rid_of_signed),
    ("repro.crypto.signatures", "verify_payload", "crypto.verify", None),
    ("repro.protocol.enumeration", "quorum_for_view", "protocol.enum", None),
    ("repro.protocol.enumeration", "leader_of_view", "protocol.enum", None),
    ("repro.xpaxos.replica", "XPaxosReplica._on_request", "protocol.handler", _rid_of_message),
    ("repro.xpaxos.replica", "XPaxosReplica._on_prepare", "protocol.handler", None),
    ("repro.xpaxos.replica", "XPaxosReplica._on_commit", "protocol.handler", None),
    ("repro.xpaxos.replica", "XPaxosReplica._on_viewchange", "protocol.handler", None),
    ("repro.xpaxos.replica", "XPaxosReplica._on_newview", "protocol.handler", None),
    ("repro.xpaxos.replica", "XPaxosReplica._on_checkpoint", "protocol.handler", None),
    ("repro.xpaxos.replica", "XPaxosReplica._on_suspected", "protocol.handler", None),
    ("repro.xpaxos.replica", "XPaxosReplica._on_selected_quorum", "protocol.handler", None),
    ("repro.xpaxos.replica", "XPaxosReplica._propose_now", "protocol.handler", None),
    ("repro.ibft.replica", "IbftReplica._on_request", "protocol.handler", _rid_of_message),
    ("repro.ibft.replica", "IbftReplica._on_preprepare", "protocol.handler", None),
    ("repro.ibft.replica", "IbftReplica._on_prepare", "protocol.handler", None),
    ("repro.ibft.replica", "IbftReplica._on_commit", "protocol.handler", None),
    ("repro.ibft.replica", "IbftReplica._on_roundchange", "protocol.handler", None),
    ("repro.ibft.replica", "IbftReplica._on_newround", "protocol.handler", None),
    ("repro.ibft.replica", "IbftReplica._on_suspected", "protocol.handler", None),
    ("repro.ibft.replica", "IbftReplica._on_selected_quorum", "protocol.handler", None),
    ("repro.ibft.replica", "IbftReplica._propose_now", "protocol.handler", None),
    ("repro.core.quorum_selection", "QuorumSelectionModule.on_suspected", "core.qs", None),
    ("repro.core.quorum_selection", "QuorumSelectionModule._on_update", "core.qs", None),
    ("repro.fd.detector", "FailureDetector.on_receive", "fd", None),
    ("repro.fd.detector", "FailureDetector.expect", "fd", None),
    ("repro.fd.detector", "FailureDetector.cancel", "fd", None),
    ("repro.fd.detector", "FailureDetector._on_deadline", "fd", None),
    ("repro.fd.heartbeat", "HeartbeatModule._beat", "fd", None),
    ("repro.graphs.independent_set", "has_independent_set", "graphs.is_search", None),
    ("repro.graphs.independent_set", "lex_first_independent_set", "graphs.is_search", None),
)

#: The gateway process of the live workload: client, crypto and codec.
LIVE_TARGETS = tuple(
    target for target in SIM_TARGETS
    if target[2].startswith(("service.client", "crypto.", "protocol.enum"))
) + (
    ("repro.net.wire", "FrameDecoder.feed", "net.gateway_decode", None),
    ("repro.net.batch", "BatchAuthenticator.mac", "net.gateway_hmac", None),
    ("repro.net.batch", "BatchAuthenticator.verify", "net.gateway_hmac", None),
)


class Ledger:
    """Span recorder with exact per-metric self time and call counts."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        #: (id, parent id, metric, function, start ns, duration ns, rid)
        self.spans: List[Tuple[int, int, str, str, int, int, Any]] = []
        self.spans_dropped = 0
        self._stack: List[List[Any]] = []  # [metric, child ns, span id]
        self._next_id = 1
        self._undo: List[Callable[[], None]] = []
        self.origin_ns = time.perf_counter_ns()
        #: Where :meth:`export` wrote the spans.
        self.files: Dict[str, str] = {}

    # ------------------------------------------------------------ recording

    def wrap(self, metric: str, fn: Callable, rid: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call under ``metric``; ``rid(args)``
        gives the span's request id."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        spans = self.spans
        clock = time.perf_counter_ns
        name = getattr(fn, "__qualname__", repr(fn))
        ledger = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == metric:
                return fn(*args, **kwargs)
            span_id = ledger._next_id
            ledger._next_id += 1
            frame = [metric, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_ns[metric] += duration - frame[1]
                calls[metric] += 1
                parent = 0
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][2]
                if len(spans) < ledger.max_spans or not stack:  # keep the root
                    spans.append((span_id, parent, metric, name, start, duration,
                                  rid(args) if rid is not None else None))
                else:
                    ledger.spans_dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, metric: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` as one span (the sim run loop)."""
        return self.wrap(metric, fn)(*args)

    # ---------------------------------------------------------- installing

    def install(self, targets: Sequence[Tuple[str, str, str, Optional[Callable]]]) -> None:
        for module_name, attr, metric, rid in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                setattr(owner, method, self.wrap(metric, original, rid))
                self._undo.append(lambda o=owner, m=method, f=original: setattr(o, m, f))
            else:
                original = getattr(module, attr)
                wrapper = self.wrap(metric, original, rid)
                for holder in list(sys.modules.values()):
                    if not getattr(holder, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
                            self._undo.append(
                                lambda h=holder, n=name, f=original: setattr(h, n, f)
                            )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------- export

    def covered_ns(self) -> int:
        return sum(self.self_ns.values())

    def export(self, out_dir: Path, label: str) -> Dict[str, str]:
        """Write kept spans as JSONL and Chrome trace-event JSON."""
        out_dir.mkdir(parents=True, exist_ok=True)
        jsonl = out_dir / f"{label}.spans.jsonl"
        chrome = out_dir / f"{label}.trace.json"
        origin = self.origin_ns
        with jsonl.open("w") as sink:
            for span_id, parent, metric, name, start, duration, rid in self.spans:
                sink.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": metric, "fn": name,
                    "start_us": (start - origin) / 1e3, "dur_us": duration / 1e3,
                    "rid": list(rid) if rid else None,
                }) + "\n")
        events = [
            {
                "name": name, "cat": metric, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) / 1e3, "dur": duration / 1e3,
                "args": {"id": span_id, "parent": parent,
                         **({"rid": list(rid)} if rid else {})},
            }
            for span_id, parent, metric, name, start, duration, rid in self.spans
        ]
        events.sort(key=lambda event: event["ts"])
        chrome.write_text(json.dumps({
            "traceEvents": events,
            "otherData": {"spans_dropped": self.spans_dropped},
        }))
        self.files = {"jsonl": str(jsonl), "chrome": str(chrome)}
        return self.files
