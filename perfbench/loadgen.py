"""Load generators: a seeded open loop and a closed loop over few connections.

Both run in the benchmark's own process, separate from the server, with
one thread per connection (at most ``nproc`` of each).  A ``send(conn,
index)`` callable performs request ``index`` over connection ``conn`` and
returns ``(status, body)``; ``status`` is ``None`` when the connection
failed.  Times come from ``time.monotonic``, which the server's processes
share.

* :func:`open_loop` — independent users: request ``i`` is due at
  ``start + offsets[i]`` whatever happened before, and its latency is
  timed from that due time, so a stalled server shows in the latency of
  every request that came due during the stall and in the generator's
  lateness (send time minus due time).
* :func:`closed_loop` — callers that each wait for their reply: every
  connection sends its next request when the previous answer lands,
  until ``seconds`` have passed (and a minimum count was sent) or the
  inputs run out.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
from dataclasses import dataclass


@dataclass
class Sample:
    """One request as the client saw it."""

    index: int
    due: float       # when it was due (open loop) or when it was sent (closed loop)
    sent: float
    done: float
    status: int | None
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def poisson_offsets(rng, rate: float, count: int) -> list[float]:
    """``count`` arrivals of a Poisson process at ``rate`` per second.

    Drawn conditioned on the count over ``count / rate`` seconds — sorted
    uniform times — so every seed offers the same mean rate over a window
    of the same length, with Poisson burstiness inside it.
    """
    return sorted(float(t) for t in rng.uniform(0.0, count / rate, size=count))


def open_loop(send, connections: list, offsets: list[float], lead: float = 0.05) -> list[Sample]:
    """Send request ``i`` at ``start + offsets[i]`` over the free connections."""
    clock = time.monotonic
    samples: list[Sample | None] = [None] * len(offsets)
    lock = threading.Lock()
    cursor = [0]
    start = clock() + lead

    def run(conn) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(offsets):
                    return
                cursor[0] = index + 1
            due = start + offsets[index]
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            sent = clock()
            status, body = send(conn, index)
            samples[index] = Sample(index, due, sent, clock(), status, body)

    _run_threads(run, connections)
    return samples


def closed_loop(send, connections: list, count: int, seconds: float,
                min_count: int = 0) -> tuple[list[Sample], float]:
    """Each connection sends back to back for ``seconds`` (and at least
    ``min_count`` requests), never more than the ``count`` inputs.

    Returns the samples in send order and the window's start time.
    """
    clock = time.monotonic
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = [0]
    start = clock()
    stop = start + seconds

    def run(conn) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= count or (clock() >= stop and index >= min_count):
                    return
                cursor[0] = index + 1
            sent = clock()
            status, body = send(conn, index)
            sample = Sample(index, sent, sent, clock(), status, body)
            with lock:
                samples.append(sample)

    _run_threads(run, connections)
    samples.sort(key=lambda s: s.index)
    return samples, start


def _run_threads(target, connections: list) -> None:
    threads = [threading.Thread(target=target, args=(conn,), daemon=True) for conn in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class HttpConnection:
    """A persistent HTTP/1.1 connection that reconnects after a failure."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host, self.port, self.timeout = host, port, timeout
        self._conn = None

    def _connect(self):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        conn.connect()
        # Headers and body go out as separate writes; without TCP_NODELAY
        # the body waits on the server's delayed ACK.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None) -> tuple[int | None, bytes]:
        try:
            if self._conn is None:
                self._conn = self._connect()
            self._conn.request(method, path, body=body, headers=headers or {})
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
