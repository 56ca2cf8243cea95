"""Host facts and ``/proc`` sampling for the serving benchmark.

The host block records what the numbers ran on: cores, CPU model,
Python, numpy and its BLAS (reported by the numpy-side helper), and the
BLAS thread variables as set.  :class:`CpuSampler` measures, over a
timed phase, the CPU steal share and client-process CPU share; the
process-tree readers give the server's CPU time (workers included) and
its summed PSS, which counts shared-memory slabs once.
"""

from __future__ import annotations

import os
import platform
import time

__all__ = ["CpuSampler", "process_tree", "static_host", "tree_cpu_seconds",
           "tree_pss_mb", "wait_for_quiet"]

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_TICKS = os.sysconf("SC_CLK_TCK")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def static_host() -> dict:
    """Cores, CPU model, Python and the BLAS thread variables as set."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _system_cpu() -> tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs from ``/proc/stat``."""
    with open("/proc/stat", encoding="utf-8") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already included in user/nice
    return fields[7], sum(fields[:8])


def wait_for_quiet(budget: float, threshold: float = 0.02,
                   window: float = 0.25) -> float:
    """Wait until the hypervisor steals at most ``threshold`` of the CPU.

    Samples the host's steal share over ``window`` seconds until one
    sample is at or below ``threshold``, or ``budget`` seconds passed;
    returns the seconds spent.  On a shared VM, steal comes in phases
    of a minute or more in which closed-loop throughput halves, so a
    launch is not started in one when a short wait can avoid it.
    """
    start = time.monotonic()
    while True:
        steal, total = _system_cpu()
        time.sleep(window)
        steal_after, total_after = _system_cpu()
        waited = time.monotonic() - start
        share = (steal_after - steal) / max(total_after - total, 1)
        if share <= threshold or waited >= budget:
            return waited


class CpuSampler:
    """Steal share, load average and client CPU share over one phase."""

    def start(self) -> "CpuSampler":
        self._steal, self._total = _system_cpu()
        self._client = time.process_time()
        self._wall = time.monotonic()
        return self

    def stop(self) -> dict:
        steal, total = _system_cpu()
        wall = max(time.monotonic() - self._wall, 1e-9)
        return {
            "steal_share": (steal - self._steal)
            / max(total - self._total, 1),
            "loadavg_1m": os.getloadavg()[0],
            "client_cpu_share": (time.process_time() - self._client) / wall,
        }


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant, parents first."""
    tree, index = [pid], 0
    while index < len(tree):
        current = tree[index]
        index += 1
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children",
                          encoding="utf-8") as handle:
                    tree.extend(int(child) for child in handle.read().split())
        except OSError:
            continue  # exited while we walked
    return tree


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode("utf-8",
                                                             "replace")
    except OSError:
        return ""


def tree_cpu_seconds(pid: int) -> dict:
    """User+sys CPU seconds of ``pid`` and of its descendants, by pid.

    The multiprocessing resource tracker is left out: it is bookkeeping
    of the shared-memory store, not serving work.
    """
    out = {}
    for member in process_tree(pid):
        if member != pid and "resource_tracker" in _cmdline(member):
            continue
        try:
            with open(f"/proc/{member}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[11], fields[12] are utime, stime (stat fields 14, 15)
        out[member] = (int(fields[11]) + int(fields[12])) / _TICKS
    return out


def tree_pss_mb(pid: int) -> float:
    """Summed proportional set size of the process tree, in MB."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/smaps_rollup",
                      encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
