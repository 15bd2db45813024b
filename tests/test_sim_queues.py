"""Bulk scheduling and the calendar-queue backend.

Two contracts under test: ``schedule_many`` must execute exactly like N
individual ``schedule_at`` calls (same order, same clock, same FIFO
tie-breaks), and the ``queue="wheel"`` backend must pop the identical
event sequence as the heap oracle — including under adversarial
interleavings of bulk runs, same-timestamp cascades and mid-run pauses.
"""

import heapq
import random

import pytest

from taureau.sim import Simulation, SimulationError
from taureau.sim.queues import CalendarQueue


class TestCalendarQueue:
    def test_pops_in_total_order(self):
        rng = random.Random(0)
        queue = CalendarQueue(bucket_width_s=1.0)
        entries = [
            (rng.uniform(0, 50), seq, None, ()) for seq in range(500)
        ]
        for entry in entries:
            queue.push(entry)
        assert len(queue) == 500
        popped = [queue.pop() for _ in range(500)]
        assert popped == sorted(entries)
        assert not queue

    def test_same_time_entries_pop_in_seq_order(self):
        queue = CalendarQueue()
        for seq in (3, 1, 2):
            queue.push((7.0, seq, None, ()))
        assert [queue.pop()[1] for _ in range(3)] == [1, 2, 3]

    def test_push_into_current_bucket_after_sort(self):
        # A callback scheduling a follow-up into the already-sorted
        # current bucket must still pop in (when, seq) order.
        queue = CalendarQueue(bucket_width_s=10.0)
        queue.push((1.0, 1, None, ()))
        queue.push((5.0, 2, None, ()))
        assert queue.pop()[0] == 1.0  # sorts the [0, 10) bucket
        queue.push((2.0, 3, None, ()))  # lands in the current range
        queue.push((5.0, 4, None, ()))  # ties with the snapshot entry
        assert [queue.pop()[:2] for _ in range(3)] == [
            (2.0, 3),
            (5.0, 2),
            (5.0, 4),
        ]

    def test_peek_matches_pop(self):
        rng = random.Random(1)
        queue = CalendarQueue(bucket_width_s=0.5)
        for seq in range(200):
            queue.push((rng.uniform(0, 20), seq, None, ()))
        while queue:
            assert queue.peek() == queue.pop()
        assert queue.peek() is None

    def test_pop_empty_raises(self):
        queue = CalendarQueue()
        with pytest.raises(IndexError):
            queue.pop()

    def test_refill_after_full_drain(self):
        queue = CalendarQueue(bucket_width_s=2.0)
        queue.push((1.0, 1, None, ()))
        assert queue.pop()[1] == 1
        queue.push((3.0, 2, None, ()))
        queue.push((0.5, 3, None, ()))  # earlier bucket than the last pop's
        assert [queue.pop()[1] for _ in range(2)] == [3, 2]

    def test_extend_equals_pushes(self):
        entries = [(float(i % 7), i, None, ()) for i in range(50)]
        one = CalendarQueue()
        one.extend(entries)
        other = CalendarQueue()
        for entry in entries:
            other.push(entry)
        assert [one.pop() for _ in range(50)] == [other.pop() for _ in range(50)]

    def test_infinite_entries_pop_after_every_finite_one(self):
        # Random pushes, pops and peeks mixing finite and t=inf entries,
        # with equal-time ties among both, pop exactly like a heap.
        inf = float("inf")
        rng = random.Random(7)
        queue, oracle, seq = CalendarQueue(bucket_width_s=2.0), [], 0
        for _ in range(3000):
            action = rng.random()
            if action < 0.55 or not oracle:
                seq += 1
                when = rng.choice((inf, inf, float(rng.randrange(10)),
                                   rng.uniform(0, 40)))
                if oracle and when < oracle[0][0]:
                    when = oracle[0][0]  # never before the popped clock
                queue.push((when, seq, None, ()))
                heapq.heappush(oracle, (when, seq, None, ()))
            elif action < 0.75:
                assert queue.peek() == oracle[0]
            else:
                assert queue.pop() == heapq.heappop(oracle)
            assert len(queue) == len(oracle)
        assert [queue.pop() for _ in range(len(oracle))] == sorted(oracle)
        assert not queue and queue.peek() is None

    def test_finite_push_while_infinite_entries_are_current(self):
        queue = CalendarQueue()
        queue.push((float("inf"), 1, None, ()))
        assert queue.peek()[1] == 1  # loads the t=inf entries
        queue.push((3.0, 2, None, ()))
        queue.push((float("inf"), 3, None, ()))
        queue.push((1.0, 4, None, ()))
        assert [queue.pop()[1] for _ in range(4)] == [4, 2, 1, 3]

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            CalendarQueue(bucket_width_s=0.0)


class TestScheduleMany:
    def test_equivalent_to_individual_pushes(self):
        rng = random.Random(2)
        times = [rng.uniform(0, 30) for _ in range(300)]

        bulk_sim, bulk_seen = Simulation(), []
        bulk_sim.schedule_many(times, bulk_seen.append, args=range(len(times)))
        bulk_sim.run()

        loop_sim, loop_seen = Simulation(), []
        for index, when in enumerate(times):
            loop_sim.schedule_at(when, loop_seen.append, index)
        loop_sim.run()

        assert bulk_seen == loop_seen
        assert bulk_sim.now == loop_sim.now

    def test_unsorted_input_keeps_fifo_ties(self):
        # Equal timestamps must run in submission order, as N pushes would.
        sim, seen = Simulation(), []
        sim.schedule_many([2.0, 1.0, 2.0, 1.0], seen.append, args="abcd")
        sim.run()
        assert seen == ["b", "d", "a", "c"]

    def test_interleaves_with_schedule_at(self):
        sim, seen = Simulation(), []
        sim.schedule_at(1.0, seen.append, "pre-tie")
        sim.schedule_many([0.5, 1.0, 2.0], seen.append, args=["r0", "r1", "r2"])
        sim.schedule_at(1.0, seen.append, "post-tie")
        sim.schedule_at(1.5, seen.append, "mid")
        sim.run()
        assert seen == ["r0", "pre-tie", "r1", "post-tie", "mid", "r2"]

    def test_callbacks_see_the_virtual_clock(self):
        sim, stamps = Simulation(), []
        sim.schedule_many([0.25, 0.5, 0.75], lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == [0.25, 0.5, 0.75]

    def test_numpy_array_input(self):
        numpy = pytest.importorskip("numpy")
        sim, seen = Simulation(), []
        sim.schedule_many(numpy.array([3.0, 1.0, 2.0]), seen.append, args=[3, 1, 2])
        sim.run()
        assert seen == [1, 2, 3]

    def test_rejects_past_times(self):
        sim = Simulation()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_many([6.0, 1.0], lambda: None)

    def test_rejects_args_length_mismatch(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.schedule_many([1.0, 2.0], lambda x: None, args=[1])

    def test_empty_vector_is_a_noop(self):
        sim = Simulation()
        assert sim.schedule_many([], lambda: None) == 0
        assert not sim.has_work()

    def test_run_until_pauses_a_run_mid_way(self):
        sim, seen = Simulation(), []
        sim.schedule_many([1.0, 2.0, 3.0, 4.0], seen.append, args=range(4))
        sim.run(until=2.5)
        assert seen == [0, 1]
        assert sim.now == 2.5
        sim.run()
        assert seen == [0, 1, 2, 3]

    def test_step_executes_one_entry_of_a_run(self):
        sim, seen = Simulation(), []
        sim.schedule_many([1.0, 1.0, 2.0], seen.append, args=range(3))
        sim.step()
        assert seen == [0]
        assert sim.peek() == 1.0
        sim.step()
        assert seen == [0, 1]

    def test_run_until_event_with_bulk_work(self):
        sim, seen = Simulation(), []
        sim.schedule_many([1.0, 2.0, 3.0], seen.append, args=range(3))
        timeout = sim.timeout(2.0, value="t")
        assert sim.run(until=timeout) == "t"
        assert seen == [0, 1]

    def test_sanitizer_falls_back_to_individual_entries(self):
        sim, seen = Simulation(sanitize=True), []
        sim.schedule_many([1.0, 1.0], seen.append, args=["a", "b"])
        sim.schedule_at(1.0, lambda: seen.append("rival"))
        sim.run()
        assert seen == ["a", "b", "rival"]
        # The fallback keeps feeding the collision detector: the bulk
        # entries and the rival lambda tie ambiguously at t=1.0.
        assert sim.sanitizer.findings_of("tie-break")

    def test_callback_exception_consumes_its_entry(self):
        sim = Simulation()

        def boom(tag):
            if tag == 1:
                raise RuntimeError("boom")

        sim.schedule_many([1.0, 2.0, 3.0], boom, args=range(3))
        with pytest.raises(RuntimeError):
            sim.run()
        # The failed entry is gone; the rest of the run still drains.
        sim.run()
        assert not sim.has_work()
        assert sim.now == 3.0


def _exercise(sim, seen):
    """A gnarly scenario: bulk runs, ties, cascades, processes."""
    sim.schedule_many(
        [0.5, 1.0, 1.0, 2.5, 4.0], lambda tag: seen.append(("bulk", tag, sim.now)),
        args=range(5),
    )
    sim.schedule_at(1.0, lambda: seen.append(("at", sim.now)))

    def cascade():
        seen.append(("cascade", sim.now))
        if sim.now < 3.0:
            sim.schedule_after(0.75, cascade)

    sim.schedule_at(0.25, cascade)

    def proc():
        yield sim.timeout(1.25)
        seen.append(("proc", sim.now))
        sim.schedule_many(
            [sim.now, sim.now + 0.1], lambda tag: seen.append(("late", tag)),
            args="xy",
        )

    sim.process(proc())


class TestBackendEquivalence:
    @pytest.mark.parametrize("width", [0.1, 1.0, 60.0])
    def test_wheel_replays_heap_exactly(self, width):
        heap_sim, heap_seen = Simulation(seed=3), []
        _exercise(heap_sim, heap_seen)
        heap_sim.run()

        wheel_sim, wheel_seen = Simulation(seed=3, queue="wheel",
                                           wheel_bucket_s=width), []
        _exercise(wheel_sim, wheel_seen)
        wheel_sim.run()

        assert wheel_seen == heap_seen
        assert wheel_sim.now == heap_sim.now

    def test_wheel_run_until_and_resume(self):
        heap_sim, heap_seen = Simulation(seed=4), []
        wheel_sim, wheel_seen = Simulation(seed=4, queue="wheel"), []
        for sim, seen in ((heap_sim, heap_seen), (wheel_sim, wheel_seen)):
            _exercise(sim, seen)
            sim.run(until=1.5)
        assert wheel_seen == heap_seen
        assert wheel_sim.now == heap_sim.now == 1.5
        heap_sim.run()
        wheel_sim.run()
        assert wheel_seen == heap_seen

    def test_wheel_single_steps(self):
        heap_sim, heap_seen = Simulation(seed=5), []
        wheel_sim, wheel_seen = Simulation(seed=5, queue="wheel"), []
        for sim, seen in ((heap_sim, heap_seen), (wheel_sim, wheel_seen)):
            _exercise(sim, seen)
            while sim.has_work():
                assert sim.peek() < float("inf")
                sim.step()
        assert wheel_seen == heap_seen

    def test_wheel_random_fuzz_matches_heap(self):
        rng = random.Random(6)
        batches = [
            [rng.uniform(0, 100) for _ in range(rng.randrange(1, 40))]
            for _ in range(20)
        ]
        singles = [rng.uniform(0, 100) for _ in range(50)]

        def drive(sim):
            seen = []
            for batch_index, batch in enumerate(batches):
                sim.schedule_many(
                    batch,
                    lambda tag, b=batch_index: seen.append((b, tag, sim.now)),
                    args=range(len(batch)),
                )
            for single_index, when in enumerate(singles):
                sim.schedule_at(
                    when, lambda s=single_index: seen.append(("s", s, sim.now))
                )
            sim.run()
            return seen

        assert drive(Simulation(queue="wheel", wheel_bucket_s=7.3)) == drive(
            Simulation()
        )

    def test_wheel_matches_heap_with_events_at_infinity(self):
        inf = float("inf")

        def drive(sim):
            seen = []

            def note(tag):
                seen.append((tag, sim.now))
                if tag == "never-1":
                    sim.schedule_at(inf, note, "never-3")

            for when, tag in ((inf, "never-1"), (2.0, "a"), (inf, "never-2"),
                              (2.0, "b"), (0.5, "c")):
                sim.schedule_at(when, note, tag)
            sim.run(until=1.0)
            sim.schedule_after(0.25, note, "d")
            sim.run()
            return seen

        heap_seen = drive(Simulation(seed=8))
        assert heap_seen[-3:] == [("never-1", inf), ("never-2", inf),
                                  ("never-3", inf)]
        assert drive(Simulation(seed=8, queue="wheel")) == heap_seen

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Simulation(queue="splay")

    def test_wheel_deadlock_detection_still_works(self):
        sim = Simulation(queue="wheel")
        never = sim.event()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=never)
