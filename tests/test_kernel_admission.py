"""Kernel admission seams: recycled ids, the failure record, pause/advance.

A long-running service churns through task objects continuously, which
turns two comfortable batch-era assumptions into bugs; this module
pins their fixes:

* nothing in the admission loop is keyed on ``id(item)`` — a new object
  allocated on a recycled interpreter id must be judged on its own
  shape, never on a dead predecessor's verdict (the classic symptom: a
  service task that should be admitted sits queued until the next
  unrelated space change);
* the **external-clock hooks** grown for the always-on service:
  ``advance`` processes events up to a target instant and re-stamps
  the metrics, ``pause``/``resume`` bracket a checkpoint window during
  which admission passes are deferred and the clock refuses to move.
"""

import pytest

from repro.core.manager import LogicSpaceManager
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.sched.kernel import SchedulingKernel
from repro.sched.tasks import Task


def kernel_for(on_admitted=None, queue: str = "fifo") -> SchedulingKernel:
    """A kernel over the 8x12 XC2S15 fabric (96 sites)."""
    manager = LogicSpaceManager(Fabric(device("XC2S15")))
    return SchedulingKernel(manager, queue=queue, on_admitted=on_admitted)


def task(task_id: int, height: int, width: int) -> Task:
    return Task(task_id=task_id, height=height, width=width,
                exec_seconds=1.0, arrival=0.0)


# -- the admission failure record ------------------------------------------


def test_recycled_interpreter_id_gets_a_fresh_token():
    """End to end through the allocator: discard a failed item without
    the kernel's help, let CPython recycle its id, and check the
    newcomer is judged on its own shape."""
    admitted = []
    kernel = kernel_for(on_admitted=lambda item, _: admitted.append(item),
                        queue="priority")
    blocked = task(1, 20, 20)  # cannot ever fit 8x12
    kernel.enqueue(blocked, area=blocked.area)
    assert not admitted and len(kernel.queue) == 1
    # Tombstone it *directly* — the one removal path that cannot call
    # the kernel's bookkeeping — then drop the last strong reference.
    kernel.queue.discard(blocked)
    list(kernel.queue.scan(0.0))  # purge the tombstone's reference
    recycled = id(blocked)
    del blocked
    fresh = task(2, 2, 2)  # fits trivially
    if id(fresh) != recycled:
        pytest.skip("allocator did not recycle the id (layout changed)")
    kernel.enqueue(fresh, area=fresh.area)
    assert admitted == [fresh]


def test_memo_still_short_circuits_within_one_occupancy():
    """The record must not lose its point: against one occupancy a
    failed shape is not re-planned."""
    requests = []
    kernel = kernel_for()
    original = kernel.manager.request

    def counting(height, width, owner):
        requests.append(owner)
        return original(height, width, owner)

    kernel.manager.request = counting
    big = task(1, 20, 20)
    kernel.enqueue(big, area=big.area)
    first = requests.count(1)
    assert first == 1
    # A FIFO-ordered arrival behind a blocked head re-runs the pass, but
    # the head's shape is in the failure record: no second probe.
    small = task(2, 20, 20)
    kernel.enqueue(small, area=small.area)
    assert requests.count(1) == first


# -- pause / resume / advance -----------------------------------------------


def test_pause_defers_admission_until_resume():
    admitted = []
    kernel = kernel_for(on_admitted=lambda item, _: admitted.append(item))
    kernel.pause()
    assert kernel.paused
    fits = task(1, 2, 2)
    kernel.enqueue(fits, area=fits.area)
    assert not admitted, "admission ran inside the checkpoint window"
    kernel.resume()
    assert admitted == [fits]
    assert not kernel.paused
    kernel.resume()  # idempotent


def test_advance_refuses_while_paused_and_backwards():
    kernel = kernel_for()
    kernel.pause()
    with pytest.raises(RuntimeError):
        kernel.advance(1.0)
    kernel.resume()
    kernel.advance(2.0)
    with pytest.raises(ValueError):
        kernel.advance(1.0)


def test_advance_processes_due_events_and_stamps_metrics():
    kernel = kernel_for()
    fired = []
    kernel.events.at(1.0, lambda: fired.append(1.0))
    kernel.events.at(3.0, lambda: fired.append(3.0))
    kernel.advance(2.0)
    assert fired == [1.0]
    assert kernel.now == 2.0
    assert kernel.metrics.makespan == 2.0
    kernel.advance(3.0)
    assert fired == [1.0, 3.0]
    assert kernel.metrics.makespan == 3.0
