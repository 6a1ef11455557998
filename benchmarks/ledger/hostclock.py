"""Host-speed normalisation: a fixed reference kernel brackets every block.

Wall-clock on the small shared hosts this repo runs on drifts by +-16%
between identical runs because the vCPU itself speeds up and slows down
(cpu/wall stays ~0.98, so it is not descheduling).  Dividing by an
interleaved fixed pure-Python kernel removes that: every timed region is
cut into blocks of fixed *work*, each bracketed by the kernel, and a
block's samples are scaled by ``REF_KERNEL_S / mean(bracketing kernels)``
- "at reference host speed".  The limits of the rule (it corrects a host
that is uniformly slower at interpreting bytecode, not cache or memory
contention that hits the workload and the kernel differently) are spelled
out in README.md.
"""

from __future__ import annotations

import statistics
import struct
import time

#: the kernel's duration on the host the baseline was measured on; every
#: normalised timing is "as if the kernel took this long"
REF_KERNEL_S = 0.030
#: a block whose two bracketing kernels differ by more than this is dropped
MAX_KERNEL_SKEW = 0.15
#: a run with more than this share of its blocks dropped is flagged
MAX_DROPPED_SHARE = 0.25

# The kernel is four equal parts (~7.5 ms each at reference speed), one per
# kind of bytecode the program spends its slot on.  A blend tracks the
# workloads' slowdown better than any one part (README.md has the numbers):
# a busy sibling hyperthread slows tight integer code more than object-heavy
# code, so a single tight loop over-corrects.


def _mix(x: int, y: int) -> int:
    return (x * 31 + y) & 0xFFFF


def _integer_part(iters: int = 47_000) -> int:
    """Integer arithmetic, list and dict indexing, a branch, a call."""
    acc = 0
    table = list(range(64))
    lookup = {i: i * 3 for i in range(64)}
    for i in range(iters):
        j = i & 63
        acc = _mix(acc, table[j]) + lookup[j]
        if acc & 1:
            acc ^= 0x5A5A
        table[j] = acc & 63
    return acc


class _Ue:
    def __init__(self, ue_id: int):
        self.ue_id = ue_id
        self.buffer = 1000 + ue_id
        self.cqi = 7
        self.mcs = 5
        self.avg = 0.0

    def step(self, slot: int) -> int:
        self.cqi = (self.cqi + slot) % 15 + 1
        self.mcs = self.cqi * 2
        return self.cqi


def _object_part(ues: list, rounds: int = 500) -> float:
    """Attribute access, method calls, tuple/list/dict building and float
    arithmetic: the shape of the MAC's per-UE loops."""
    acc = 0.0
    for slot in range(rounds):
        infos = []
        for ue in ues:
            ue.step(slot)
            infos.append((ue.ue_id, ue.mcs, ue.cqi, ue.buffer, ue.avg))
        delivered = {}
        for info in infos:
            delivered[info[0]] = info[3] * 8 / 0.001
            acc += info[1] * 0.01
        for ue in ues:
            ue.avg = 0.99 * ue.avg + 0.01 * delivered[ue.ue_id]
    return acc


def _threaded_program(memory: bytearray) -> list:
    def push(stack, imm):
        stack.append(imm)

    def add(stack, imm):
        b = stack.pop()
        stack[-1] = (stack[-1] + b) & 0xFFFFFFFF

    def mul(stack, imm):
        b = stack.pop()
        stack[-1] = (stack[-1] * b) & 0xFFFFFFFF

    def load(stack, imm):
        stack.append(memory[imm & 1023])

    def store(stack, imm):
        memory[imm & 1023] = stack.pop() & 0xFF

    program = []
    for i in range(64):
        program += [
            (push, i), (load, i * 7), (add, 0), (push, 3), (mul, 0), (store, i * 5)
        ]
    return program


def _dispatch_part(program: list, rounds: int = 210) -> int:
    """Closure dispatch over an operand stack: the shape of an interpreter."""
    stack: list = []
    for _ in range(rounds):
        for fn, imm in program:
            fn(stack, imm)
    return len(stack)


_RECORD = struct.Struct("<IHHIf")


def _struct_part(iters: int = 22_000) -> int:
    """Fixed-layout pack/unpack into a reused buffer: the ABI wire."""
    size = _RECORD.size
    buf = bytearray(size * 16)
    acc = 0
    for i in range(iters):
        offset = (i & 15) * size
        _RECORD.pack_into(buf, offset, i, i & 0xFFFF, 7, 1000, 1.5)
        a, _b, _c, d, _e = _RECORD.unpack_from(buf, offset)
        acc += a + d
    return acc


def reference_kernel() -> None:
    """Fixed work, no I/O, nothing of the program under test: ~30 ms."""
    _integer_part()
    _object_part([_Ue(i) for i in range(48)])
    _dispatch_part(_threaded_program(bytearray(1024)))
    _struct_part()


class HostClock:
    """Kernel timings at block boundaries; block ``i`` lies between
    tick ``i`` and tick ``i + 1``."""

    def __init__(self, kernel=reference_kernel, timer=time.perf_counter):
        self._kernel = kernel
        self._timer = timer
        self.ticks: list[float] = []

    def tick(self) -> float:
        start = self._timer()
        self._kernel()
        elapsed = self._timer() - start
        self.ticks.append(elapsed)
        return elapsed

    @property
    def blocks(self) -> int:
        return max(len(self.ticks) - 1, 0)

    def factor(self, block: int) -> float:
        """Multiply a raw duration of ``block`` by this to normalise it."""
        return REF_KERNEL_S / ((self.ticks[block] + self.ticks[block + 1]) / 2)

    def factor_after_tick(self) -> float:
        """Close the open block with a kernel run and return its factor."""
        self.tick()
        return self.factor(self.blocks - 1)

    def steady(self, block: int) -> bool:
        a, b = self.ticks[block], self.ticks[block + 1]
        return abs(a - b) <= MAX_KERNEL_SKEW * min(a, b)

    def kept(self) -> list[int]:
        return [i for i in range(self.blocks) if self.steady(i)]


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0
