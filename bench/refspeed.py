"""Reference-speed timing.

On a shared VM the CPU's speed swings by up to 1.8x for seconds at a time,
and CPU time swings with wall time, so neither clock alone gives steady
figures. The benchmark therefore times a fixed kernel between consecutive
chunks of about ``CHUNK_S`` of program work and scales each chunk's raw
time by ``R0 / mean(kernel before, kernel after)``. Scaled times are
seconds at the reference speed, the speed at which one kernel run takes
``R0``.
"""

from __future__ import annotations

from time import perf_counter

# The kernel's usual duration on the machine the benchmark was built on
# (2 vCPU Xeon, CPython 3.11.7); fixed once, so that figures from
# different runs and commits share one scale.
R0 = 0.004
CHUNK_S = 0.05

_WORDS = list(range(7, 3 * 2048, 3))
_ROUNDS = 8


def kernel_seconds() -> float:
    """One timed run of the kernel: integer arithmetic over a pre-built list.

    It creates no container, so it cannot trigger the cyclic garbage
    collector, and it runs no code of the program under test.
    """
    words = _WORDS
    acc = 0
    start = perf_counter()
    for _ in range(_ROUNDS):
        for w in words:
            acc = (acc * 31 + (w ^ acc >> 7)) & 0xFFFFFFFF
    return perf_counter() - start


class Meter:
    """Scale factors for consecutive chunks of work, from kernel runs between them."""

    def __init__(self) -> None:
        self.kernels = [kernel_seconds()]

    def factor(self) -> float:
        """Run the kernel again; the factor for the work since its last run."""
        self.kernels.append(kernel_seconds())
        return 2 * R0 / (self.kernels[-2] + self.kernels[-1])
