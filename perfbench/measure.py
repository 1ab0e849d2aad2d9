"""Small statistics and process readings shared by the workloads."""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Sequence, Set


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile, ``share`` in [0, 1]; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def cpu_pair() -> List[Set[int]]:
    """A one-CPU set for each of the first two CPUs this process may use.

    On a shared host one vCPU is often slowed for seconds at a time by a
    neighbour while the other is not, and the slow one moves. Timing a
    step once on each and keeping the faster time measures the program
    on a free core.
    """
    return [{cpu} for cpu in sorted(os.sched_getaffinity(0))[:2]]


def time_wait_sockets() -> int:
    """TCP sockets in TIME_WAIT on this host's network namespace."""
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                next(handle)
                count += sum(1 for line in handle
                             if line.split()[3] == "06")
        except OSError:
            continue
    return count


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, from each process's stat line."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ')'
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def status_fields(pid: int) -> Dict[str, str]:
    with open(f"/proc/{pid}/status") as handle:
        return dict(line.rstrip("\n").split(":\t", 1)
                    for line in handle if ":\t" in line)


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the processes' peak resident set sizes (VmHWM), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            total_kb += int(status_fields(pid)["VmHWM"].split()[0])
        except (OSError, KeyError):
            continue
    return total_kb / 1024


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current resident size."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        return status_fields(pid).get("State", "Z").split()[0] != "Z"
    except OSError:
        return False
