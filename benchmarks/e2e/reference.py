"""The reference kernel ``wall_ref`` is measured in.

A fixed piece of pure Python, independent of ``repro``: heap-ordered dispatch
over a dict, the shape of the simulator's event loop.  Its wall time says
how fast the host runs Python at that moment, and no change to ``repro`` can
make it faster or slower.

A workload that keeps two cores busy is compared with the kernel running on
two cores at once: here and in a helper process started once per run.  Run
directly, this module is that helper: it runs the kernel for every line it
reads on standard input and prints the kernel's wall time.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
from time import perf_counter


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = perf_counter()
    heap = [((i * 0.618) % 1.0, i) for i in range(1024)]
    heapq.heapify(heap)
    counts: dict = {}
    for _ in range(120_000):
        when, key = heapq.heappop(heap)
        counts[key % 97] = counts.get(key % 97, 0) + 1
        heapq.heappush(heap, (when + 0.5, key + 1))
    return perf_counter() - start


class Reference:
    """Runs the kernel on ``cores`` cores at once and reports the mean time."""

    def __init__(self, cores: int) -> None:
        self.helpers = [
            subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(cores - 1)
        ]

    def seconds(self) -> float:
        """Mean wall time of one simultaneous kernel run per core."""
        for helper in self.helpers:
            helper.stdin.write("run\n")
            helper.stdin.flush()
        times = [kernel_seconds()]
        times += [float(helper.stdout.readline()) for helper in self.helpers]
        return statistics.fmean(times)

    def close(self) -> None:
        """Stop the helpers and wait for them."""
        for helper in self.helpers:
            helper.stdin.close()
            helper.wait()
            helper.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(kernel_seconds(), flush=True)
