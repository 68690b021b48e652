"""Virtual-time execution substrate.

``repro.vtime`` lets the whole emulated cloud (client, invokers, containers,
object storage) run on real threads while time is simulated, so the paper's
minute-scale experiments finish in milliseconds.  See
:mod:`repro.vtime.kernel` for the mechanism.

Ambient helpers :func:`sleep` and :func:`now` operate on the kernel owning
the calling thread, falling back to wall-clock time outside a kernel so user
functions are runnable in both worlds.
"""

from __future__ import annotations

import time as _time

from repro.vtime.errors import (
    DeadlockError,
    KernelShutdownError,
    NotInKernelError,
    VTimeError,
)
from repro.vtime.kernel import (
    JoinOp,
    Kernel,
    ModelTask,
    SleepOp,
    Task,
    Waiter,
    WaitOp,
    current_kernel,
    current_task,
    live_kernels,
    vjoin,
    vsleep,
    vwait,
)
from repro.vtime.sync import (
    QueueEmpty,
    VCondition,
    VEvent,
    VQueue,
    VSemaphore,
    fan_out,
    fan_out_steps,
    gather,
)

__all__ = [
    "Kernel",
    "Task",
    "ModelTask",
    "Waiter",
    "SleepOp",
    "WaitOp",
    "JoinOp",
    "vsleep",
    "vwait",
    "vjoin",
    "live_kernels",
    "VCondition",
    "VEvent",
    "VQueue",
    "VSemaphore",
    "QueueEmpty",
    "gather",
    "fan_out",
    "fan_out_steps",
    "current_kernel",
    "current_task",
    "sleep",
    "now",
    "VTimeError",
    "DeadlockError",
    "KernelShutdownError",
    "NotInKernelError",
]


def sleep(seconds: float) -> None:
    """Sleep in virtual time inside a kernel, or in real time outside one.

    This is the hook benchmark functions use to model compute: a cloud
    function that "computes for 50 seconds" simply calls
    ``repro.vtime.sleep(50)``.
    """
    kernel = current_kernel()
    if kernel is None:
        _time.sleep(seconds)
    else:
        kernel.sleep(seconds)


def now() -> float:
    """Current time: virtual inside a kernel, wall clock outside."""
    kernel = current_kernel()
    if kernel is None:
        return _time.monotonic()
    return kernel.now()
