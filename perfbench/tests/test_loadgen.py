"""Open-loop timing: a stalled server shows in later requests and in lateness."""

import time

from perfbench import common, loadgen

STALL_S = 0.2
GAP_S = 0.01


class StallingServer:
    """Answers in 1 ms, except that nothing completes during the stall window."""

    def __init__(self, stall_start: float):
        self.stall_start = stall_start
        self.stall_end = stall_start + STALL_S

    def send(self, _conn, _index):
        now = time.monotonic()
        if self.stall_start <= now < self.stall_end:
            time.sleep(self.stall_end - now)
        time.sleep(0.001)
        return 200, b"{}"


def _run(count: int = 60, stall_after: float = 0.2):
    offsets = [i * GAP_S for i in range(count)]
    server = StallingServer(time.monotonic() + 0.05 + stall_after)
    samples = loadgen.open_loop(server.send, [object(), object()], offsets, lead=0.05)
    return samples, server


def test_stall_shows_in_later_requests_latency_and_in_lateness():
    samples, server = _run()
    due_during_stall = [s for s in samples if server.stall_start + 0.02 <= s.due < server.stall_end - 0.05]
    assert due_during_stall
    for s in due_during_stall:
        # Timed from the due time: the wait for the stall to clear counts.
        assert s.latency >= server.stall_end - s.due - 0.005
        # Both connections were stuck, so the generator sent it late.
        assert s.late > 0.0
    late_p99_ms = common.percentile([s.late * 1e3 for s in samples], 99.0)
    assert late_p99_ms >= 0.5 * STALL_S * 1e3
    # A send-time clock would hide the stall for the requests queued behind it.
    hidden = [s.done - s.sent for s in due_during_stall]
    assert min(hidden) < min(s.latency for s in due_during_stall)


def test_no_stall_means_on_time_sends():
    samples, _server = _run(count=30, stall_after=10.0)
    assert all(s.status == 200 for s in samples)
    # Generous margins: only a stall of the size above may fail them.
    assert common.percentile([s.late * 1e3 for s in samples], 99.0) < 0.5 * STALL_S * 1e3
    assert max(s.latency for s in samples) < STALL_S


def test_closed_loop_runs_past_the_window_until_the_minimum_count():
    sent = []

    def send(_conn, index):
        sent.append(index)
        time.sleep(0.001)
        return 200, b""

    samples, start = loadgen.closed_loop(send, [object(), object()], count=100, seconds=0.0, min_count=30)
    assert 30 <= len(samples) <= 32
    assert [s.index for s in samples] == list(range(len(samples)))
    assert all(s.sent >= start for s in samples)
    samples, _ = loadgen.closed_loop(send, [object()], count=5, seconds=10.0)
    assert len(samples) == 5
