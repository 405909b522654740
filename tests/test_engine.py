"""Event loop ordering, cancellation, and replay determinism."""

import pytest
from hypothesis import given, strategies as st

from cclab.engine import EventLoop, ScheduleInPastError, ms, seconds


def test_schedule_at_current_time_fires_first():
    loop = EventLoop()
    order = []
    loop.schedule(0, lambda: order.append("now"))
    loop.schedule(5, lambda: order.append("later"))
    loop.run_until(10)
    assert order == ["now", "later"]


def test_equal_fire_times_dispatch_in_insertion_order():
    loop = EventLoop()
    order = []
    loop.schedule(ms(1), lambda: order.append("first"))
    loop.schedule(ms(1), lambda: order.append("second"))
    loop.schedule(ms(1), lambda: order.append("third"))
    loop.run_until(ms(1))
    assert order == ["first", "second", "third"]


def test_scheduling_in_the_past_raises():
    loop = EventLoop()
    loop.run_until(10)
    with pytest.raises(ScheduleInPastError):
        loop.schedule(5, lambda: None)


def test_running_until_before_the_clock_raises_and_keeps_it():
    loop = EventLoop()
    hits = []
    loop.post(9, hits.append, "kept")
    loop.run_until(5)
    with pytest.raises(ScheduleInPastError):
        loop.run_until(4)
    assert loop.now == 5
    loop.run_until(5)       # running to the clock itself is a no-op
    assert loop.run_until(9) == 1
    assert hits == ["kept"]


def test_run_until_empty_queue_advances_clock():
    loop = EventLoop()
    assert loop.run_until(seconds(180)) == 0
    assert loop.now == seconds(180)


def test_run_until_boundary_is_inclusive():
    loop = EventLoop()
    hits = []
    loop.schedule(ms(1), lambda: hits.append(1))
    loop.schedule(ms(1), lambda: hits.append(2))
    loop.schedule(ms(2), lambda: hits.append(3))
    assert loop.run_until(ms(1)) == 2
    assert hits == [1, 2]
    assert loop.run_until(ms(2)) == 1


def test_cancelled_event_never_fires_nor_counts():
    loop = EventLoop()
    hits = []
    keep = loop.schedule(5, lambda: hits.append("keep"))
    drop = loop.schedule(5, lambda: hits.append("drop"))
    drop.cancel()
    assert loop.run_until(10) == 1
    assert hits == ["keep"]
    assert keep.fire_at == 5


def test_pending_excludes_cancelled():
    loop = EventLoop()
    loop.schedule(5, lambda: None)
    handle = loop.schedule(6, lambda: None)
    handle.cancel()
    assert loop.pending() == 1
    loop.post(6, lambda _: None, None)
    assert loop.pending() == 2


def test_handler_reentrancy_keeps_clock_monotone():
    loop = EventLoop()
    seen = []

    def chain():
        seen.append(loop.now)
        if len(seen) < 5:
            loop.schedule(loop.now + 7, chain)

    loop.schedule(0, chain)
    loop.run_until(seconds(1))
    assert seen == sorted(seen)
    assert seen == [0, 7, 14, 21, 28]


def test_replay_produces_identical_trace():
    def build_and_run():
        loop = EventLoop()
        trace = []

        def spawn(depth):
            trace.append((loop.now, f"spawn{depth}"))
            if depth < 40:
                loop.schedule(loop.now + 3, lambda: spawn(depth + 1))
                loop.schedule(loop.now + 5, lambda: trace.append((loop.now, f"leaf{depth}")))

        loop.schedule(0, lambda: spawn(0))
        loop.run_until(seconds(1))
        return trace

    first = build_and_run()
    assert len(first) == 81
    assert first == build_and_run()


# one op: (kind, index into the scheduled events, amount in us)
_OPS = st.lists(st.tuples(
    st.sampled_from(("schedule", "cancel", "later", "earlier", "same", "past", "run")),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=20)), max_size=80)


@given(_OPS)
def test_reschedule_dispatches_like_cancel_then_schedule(ops):
    moved, plain = EventLoop(), EventLoop()
    moved_log, plain_log = [], []
    handles = []      # [handle in `moved`, handle in `plain`] per scheduled event
    cancelled = set()

    def logger(loop, log, tag):
        return lambda: log.append((loop.now, tag))

    def live(i):
        return i not in cancelled and i not in {tag for _, tag in plain_log}

    for kind, pick, amount in ops:
        if kind == "schedule" or not handles:
            tag = len(handles)
            at = moved.now + amount
            handles.append([moved.schedule(at, logger(moved, moved_log, tag)),
                            plain.schedule(at, logger(plain, plain_log, tag))])
            continue
        if kind == "run":
            moved.run_until(moved.now + amount)
            plain.run_until(plain.now + amount)
            continue
        i = pick % len(handles)
        if not live(i):
            continue
        pair = handles[i]
        fire_at = pair[1].fire_at
        if kind == "cancel":
            pair[0].cancel()
            pair[1].cancel()
            cancelled.add(i)
            continue
        if kind == "past":
            if moved.now > 0:
                with pytest.raises(ScheduleInPastError):
                    moved.reschedule(pair[0], moved.now - 1)
            continue
        if kind == "later":
            to = fire_at + amount + 1
        elif kind == "earlier":
            to = max(moved.now, fire_at - amount - 1)
        else:
            to = fire_at
        pair[0] = moved.reschedule(pair[0], to)
        pair[1].cancel()
        pair[1] = plain.schedule(to, logger(plain, plain_log, i))
        assert pair[0].fire_at == to
        expected = sum(1 for j in range(len(handles)) if live(j))
        assert moved.pending() == plain.pending() == expected

    moved.run_until(moved.now + 1_000)
    plain.run_until(plain.now + 1_000)
    assert moved_log == plain_log
    assert moved.processed == plain.processed == len(plain_log)
    assert moved.pending() == 0


def test_reschedule_of_a_fired_or_cancelled_event_raises():
    loop = EventLoop()
    fired = loop.schedule(1, lambda: None)
    dropped = loop.schedule(5, lambda: None)
    dropped.cancel()
    loop.run_until(2)
    for handle in (fired, dropped):
        with pytest.raises(ValueError):
            loop.reschedule(handle, 10)


def test_reschedule_into_the_past_raises_and_keeps_the_event():
    loop = EventLoop()
    hits = []
    handle = loop.schedule(20, lambda: hits.append(loop.now))
    loop.run_until(10)
    with pytest.raises(ScheduleInPastError):
        loop.reschedule(handle, 9)
    assert loop.pending() == 1
    loop.run_until(30)
    assert hits == [20]


def test_clear_drops_pending_events():
    loop = EventLoop()
    hits = []
    loop.schedule(5, lambda: hits.append(5))
    loop.reschedule(loop.schedule(6, lambda: hits.append(6)), 8)
    loop.post(7, hits.append, 7)
    loop.clear()
    assert loop.pending() == 0
    assert loop.run_until(10) == 0
    assert hits == []


# one op: (kind, index into the filed events, amount in us)
_MIXED_OPS = st.lists(st.tuples(
    st.sampled_from(("schedule", "post", "cancel", "later", "earlier", "run")),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=20)), max_size=80)


@given(_MIXED_OPS)
def test_posts_dispatch_like_scheduled_events(ops):
    mixed, plain = EventLoop(), EventLoop()
    mixed_log, plain_log = [], []
    events = []       # [handle in `mixed` or None if posted, handle in `plain`]
    cancelled = set()

    def live(i):
        return i not in cancelled and i not in {tag for _, tag in plain_log}

    for kind, pick, amount in ops:
        if kind in ("schedule", "post") or not events:
            tag = len(events)
            at = mixed.now + amount
            if kind == "post":
                mixed.post(at, lambda t: mixed_log.append((mixed.now, t)), tag)
                first = None
            else:
                first = mixed.schedule(at, lambda t=tag: mixed_log.append((mixed.now, t)))
            events.append([first, plain.schedule(
                at, lambda t=tag: plain_log.append((plain.now, t)))])
        elif kind == "run":
            mixed.run_until(mixed.now + amount)
            plain.run_until(plain.now + amount)
        else:
            i = pick % len(events)
            pair = events[i]
            if pair[0] is None or not live(i):
                continue    # a post cannot be cancelled or moved
            if kind == "cancel":
                pair[0].cancel()
                pair[1].cancel()
                cancelled.add(i)
                continue
            fire_at = pair[1].fire_at
            to = fire_at + amount + 1 if kind == "later" else max(
                mixed.now, fire_at - amount - 1)
            pair[0] = mixed.reschedule(pair[0], to)
            pair[1].cancel()
            pair[1] = plain.schedule(to, lambda t=i: plain_log.append((plain.now, t)))
        assert mixed.pending() == plain.pending()

    mixed.run_until(mixed.now + 1_000)
    plain.run_until(plain.now + 1_000)
    assert mixed_log == plain_log
    assert mixed.processed == plain.processed == len(plain_log)
    assert mixed.pending() == 0


def test_post_calls_fn_with_arg_in_insertion_order():
    loop = EventLoop()
    order = []
    loop.schedule(ms(1), lambda: order.append("scheduled"))
    loop.post(ms(1), order.append, "posted")
    loop.post(0, order.append, "first")
    assert loop.run_until(ms(1)) == 3
    assert order == ["first", "scheduled", "posted"]


@pytest.mark.parametrize("file_at_9", [
    lambda loop: loop.post(9, lambda _: None, None),
    lambda loop: loop.file(9, loop.take_keys(10), lambda _: None, None),
], ids=["post", "file"])
def test_filing_into_the_past_raises(file_at_9):
    loop = EventLoop()
    loop.run_until(10)
    with pytest.raises(ScheduleInPastError):
        file_at_9(loop)
    assert loop.pending() == 0


def test_ms_and_seconds_round_to_microseconds():
    assert ms(1) == 1_000
    assert ms(0.1) == 100
    assert seconds(180) == 180_000_000
    assert seconds(0.25) == 250_000


# one op: (kind, delay before firing, delay before the filed-at time), in us
_FILE_OPS = st.lists(st.tuples(
    st.sampled_from(("post", "file", "run")),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20)), max_size=60)


@given(_FILE_OPS)
def test_filed_entries_dispatch_in_key_order_beside_posts(ops):
    # `file` takes the lane when an entry sorts after its tail and the heap
    # otherwise; either way entries dispatch in (fire_at, key) order
    loop = EventLoop()
    log, keys = [], []

    def record(tag):
        log.append((loop.now, loop.key, tag))

    for kind, delay, filed_after in ops:
        if kind == "run":
            loop.run_until(loop.now + delay)
            continue
        if kind == "post":
            loop.post(loop.now + delay, record, len(keys))
            keys.append(None)
        else:
            filed_at = loop.now + filed_after
            key = loop.take_keys(filed_at)
            loop.file(filed_at + delay, key, record, len(keys))
            keys.append(key)
    assert loop.pending() == len(keys) - len(log)
    loop.run_until(loop.now + 100)
    assert sorted(tag for _, _, tag in log) == list(range(len(keys)))
    order = [(now, key) for now, key, _ in log]
    assert order == sorted(order) and len(set(order)) == len(order)
    assert all(keys[tag] in (None, key) for _, key, tag in log)
    assert loop.processed == len(keys)
    assert loop.pending() == 0


def test_between_events_the_key_sorts_after_every_key_filed_by_now():
    loop = EventLoop()
    loop.run_until(7)
    assert loop.take_keys(7) < loop.key < loop.take_keys(8)


def test_pending_and_clear_cover_the_lane():
    loop = EventLoop()
    hits = []
    loop.file(5, loop.take_keys(2), hits.append, "lane")
    loop.file(3, loop.take_keys(1), hits.append, "heap")   # sorts before the lane's tail
    loop.post(4, hits.append, "posted")
    assert loop.pending() == 3
    loop.clear()
    assert loop.pending() == 0
    assert loop.run_until(10) == 0
    assert hits == []


def test_a_counter_past_its_bits_raises():
    loop = EventLoop()
    loop.take_keys(0, 1 << 32)
    with pytest.raises(OverflowError):
        loop.run_until(1)
