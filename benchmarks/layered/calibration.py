"""The host-speed control: a fixed plain-Python kernel timed beside the
statements, and the correction a run's times get from it.

This box is a few cores of a shared host whose speed wanders by 10-40 %
for tens of seconds to tens of minutes at a time. Every time a run
measures moves with it, whatever is done inside the run: two sets of
ten runs of one commit, an hour apart, differed by 22-34 % in the
medians of most metrics, and ten runs spread by up to 28 %, against a
regression bound of 25 %. The kernel below does a fixed amount of the
kind of work the program does (attribute reads, dict and list updates,
Decimal sums, a keyed sort, string formatting) and nothing of the
program's own: its time says how fast the host was during the run. It
is used as a *control variate*:

    reported = measured * (REFERENCE_SECONDS / kernel median) ** DAMPING

With ``DAMPING`` 0 the times would be reported as measured, with 1 in
units of the kernel. The kernel feels some slow phases more strongly
than the program's statements do, others less, and its own timing
carries noise, so the best coefficient is below 1: over the studies
recorded in README.md ("How steady this box is") 0.75 left the least
spread within a set of runs and the least shift between sets (13 % and
11 % at worst, where the times as measured showed 28 % and 34 %). The
as-measured medians are printed and stored beside the corrected ones.

The kernel lives here, outside ``src/``: no change to the program can
move it, so a change's gain or loss shows in the corrected figure
exactly as in the measured one.
"""

from __future__ import annotations

import gc
import statistics
import time
from decimal import Decimal

#: Kernel time on the reference box (2 x Xeon 2.1 GHz under KVM, Python
#: 3.11) in a quiet minute, so that corrected and measured times agree
#: there. Only ratios between commits matter.
REFERENCE_SECONDS = 0.0040
DAMPING = 0.75


class _Item:
    __slots__ = ("number", "text", "amount")

    def __init__(self, number: int):
        self.number = number
        self.text = str(number)
        self.amount = Decimal(number) / 7


_ITEMS = [_Item(number) for number in range(0, 20_000, 4)]


def kernel() -> int:
    """Group, sum, sort and format ``_ITEMS``: always the same work."""
    groups: dict = {}
    total = Decimal(0)
    for item in _ITEMS:
        key = (item.number % 1013, item.text[-1])
        members = groups.get(key)
        if members is None:
            groups[key] = [item]
        else:
            members.append(item)
        if item.number % 50 == 0:
            total += item.amount
    rows = sorted(groups.items(), key=lambda pair: pair[0])
    text = "|".join(f"{key[0]},{key[1]},{len(members)}"
                    for key, members in rows)
    return len(text.split("|")) + int(total)


class HostSpeed:
    """Kernel timings over one phase of a run and the correction that
    phase's times get."""

    def __init__(self):
        self.timings: list[float] = []

    def sample(self) -> None:
        """Time the kernel once, with the collector held off: what the
        program keeps alive must not count."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            kernel()
            self.timings.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    def median(self) -> float:
        """Median kernel seconds (the reference before any timing)."""
        if not self.timings:
            return REFERENCE_SECONDS
        return statistics.median(self.timings)

    def correction(self) -> float:
        """Factor for the seconds measured while these timings were
        taken."""
        return (REFERENCE_SECONDS / self.median()) ** DAMPING
