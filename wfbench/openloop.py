"""An honest open-loop load generator over pipelined RSF1 connections.

The sender thread sends every frame at the moment it is due, whether or
not earlier replies have arrived; one receiver thread reads the replies of
every connection through a selector.  Each request is timed from when it
was *due*, not from when it was sent, so a server stall also delays — and
is charged to — every request queued behind it.  The generator reports how
late it sent (``late_s``) and how many requests were still unanswered when
the sending phase ended (``backlog``); a run whose sender fell behind is
invalid, because its latencies describe the generator, not the server.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

from repro.serving import protocol

from measure import percentile_ms

# A run whose sender was later than this at its 99th percentile is invalid.
MAX_LATE_P99_S = 0.020


class InvalidRun(RuntimeError):
    """The run cannot be scored: its load generator fell behind."""


@dataclass
class Event:
    """One frame to send on connection ``conn`` at ``due`` seconds in."""

    due: float
    conn: int
    frame: bytes
    sent: float = float("nan")
    replied: float = float("nan")
    reply_type: Optional[int] = None
    reply: bytes = b""

    @property
    def latency_s(self) -> float:
        """Due-to-reply time; ``inf`` for an error or a missing reply."""
        if self.reply_type in (None, protocol.ERROR):
            return float("inf")
        return self.replied - self.due

    @property
    def late_s(self) -> float:
        """How long after its due time the frame was actually sent."""
        return self.sent - self.due


@dataclass
class OpenLoopResult:
    """What one open-loop phase produced."""

    events: List[Event]
    backlog: int
    late: List[float] = field(default_factory=list)

    def late_p99_s(self) -> float:
        """99th percentile of send lateness over every event, computed as
        the reported ``loadgen.late_p99_ms`` is."""
        return percentile_ms(self.late, 99) / 1e3 if self.late else 0.0

    @property
    def valid(self) -> bool:
        """Whether the sender kept its schedule."""
        return self.late_p99_s() <= MAX_LATE_P99_S


class _Inbox:
    """Reassembles frames from one connection's byte stream."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.pending: Deque[Event] = deque()

    def frames(self) -> List[Tuple[int, bytes]]:
        out = []
        while len(self.buffer) >= protocol.HEADER.size:
            frame_type, length = protocol.parse_header(bytes(self.buffer[: protocol.HEADER.size]))
            end = protocol.HEADER.size + length
            if len(self.buffer) < end:
                break
            out.append((frame_type, bytes(self.buffer[protocol.HEADER.size : end])))
            del self.buffer[:end]
        return out


def run_open_loop(
    address: Tuple[str, int],
    events: Sequence[Event],
    n_connections: int,
    *,
    drain_timeout_s: float = 60.0,
) -> OpenLoopResult:
    """Send ``events`` on schedule over ``n_connections`` pipelined
    connections; returns once every reply arrived or the drain timed out."""
    sockets = [socket.create_connection(address, timeout=10.0) for _ in range(n_connections)]
    inboxes = [_Inbox() for _ in sockets]
    lock = threading.Lock()
    outstanding = [0]
    sending_done = threading.Event()
    selector = selectors.DefaultSelector()
    try:
        for position, sock in enumerate(sockets):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(True)
            selector.register(sock, selectors.EVENT_READ, position)

        def receive() -> None:
            deadline = None
            while True:
                with lock:
                    if sending_done.is_set() and outstanding[0] == 0:
                        return
                if sending_done.is_set():
                    deadline = deadline or time.perf_counter() + drain_timeout_s
                    if time.perf_counter() > deadline:
                        return
                for key, _ in selector.select(timeout=0.05):
                    chunk = key.fileobj.recv(1 << 20)
                    now = time.perf_counter()
                    inbox = inboxes[key.data]
                    if not chunk:
                        return
                    inbox.buffer += chunk
                    for frame_type, payload in inbox.frames():
                        with lock:
                            event = inbox.pending.popleft()
                            outstanding[0] -= 1
                        event.replied, event.reply_type, event.reply = now, frame_type, payload

        receiver = threading.Thread(target=receive, name="openloop-receiver", daemon=True)
        receiver.start()
        started = time.perf_counter()
        for event in events:
            wait = started + event.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            with lock:
                inboxes[event.conn].pending.append(event)
                outstanding[0] += 1
            event.sent = time.perf_counter() - started
            sockets[event.conn].sendall(event.frame)
        # Backlog: requests the server had not answered when sending ended.
        ended = started + (events[-1].due if events else 0.0)
        wait = ended - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        with lock:
            backlog = outstanding[0]
        sending_done.set()
        receiver.join(timeout=drain_timeout_s + 5.0)
        if receiver.is_alive():
            raise RuntimeError("open-loop receiver did not finish")
    finally:
        selector.close()
        for sock in sockets:
            sock.close()
    for event in events:
        event.replied -= started
    return OpenLoopResult(
        events=list(events),
        backlog=backlog,
        late=[event.late_s for event in events],
    )
