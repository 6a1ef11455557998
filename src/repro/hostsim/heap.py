"""A C heap with faithful undefined behaviour.

Free chunks are threaded through a singly-linked free list whose *next*
pointer lives at the chunk's user address (as in dlmalloc/glibc fastbins).
That is what makes double free catastrophic natively: the second free
inserts the chunk into the list twice, a later pair of mallocs returns the
same address twice, user data written through one alias overwrites the
free-list pointer, and the allocator later chases that garbage pointer into
unmapped memory - killing the process far from the original bug.
"""

from __future__ import annotations


class SegmentationFault(Exception):
    """The process touched memory it does not own.  Natively: SIGSEGV."""


class HeapCorruption(SegmentationFault):
    """Allocator metadata was corrupted (double free, overflow into headers)."""


_NULL = 0
_CHUNK_HEADER = 8  # size word + padding before the user region


class UnsafeHeap:
    """Byte-addressed heap with malloc/free and raw loads/stores.

    Addresses below 64 model the unmapped null page.  There is **no**
    double-free detection, by design: this heap exists to show what the
    native baseline does with the same bugs the sandbox merely traps.
    """

    def __init__(self, size: int = 1 << 20):
        self.size = size
        self.memory = bytearray(size)
        self._allocated: dict[int, int] = {}  # user addr -> size
        self._free_head = _NULL  # user addr of first free chunk
        self._brk = 64  # skip the null guard region

    # ----- accounting ------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocated.values())

    @property
    def brk_bytes(self) -> int:
        """High-water mark: what the OS sees as the process heap size."""
        return self._brk

    # ----- raw access (undefined behaviour included) -------------------------

    def _check_mapped(self, addr: int, size: int) -> None:
        if addr < 64:
            raise SegmentationFault(f"access to {addr:#x}: null-page dereference")
        if addr < 0 or addr + size > self.size:
            raise SegmentationFault(
                f"access to {addr:#x}+{size}: beyond mapped memory"
            )

    def load32(self, addr: int) -> int:
        self._check_mapped(addr, 4)
        return int.from_bytes(self.memory[addr : addr + 4], "little")

    def store32(self, addr: int, value: int) -> None:
        self._check_mapped(addr, 4)
        self.memory[addr : addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def write(self, addr: int, payload: bytes) -> None:
        self._check_mapped(addr, len(payload))
        self.memory[addr : addr + len(payload)] = payload

    # ----- allocator ----------------------------------------------------------

    def malloc(self, size: int) -> int:
        if size <= 0:
            raise ValueError("malloc size must be positive")
        if self._free_head != _NULL:
            user = self._free_head
            # chase the fd pointer stored AT the user address
            next_ptr = self.load32(user)
            if next_ptr != _NULL and (next_ptr < 64 or next_ptr + 4 > self.size):
                raise HeapCorruption(
                    f"malloc: free-list fd pointer {next_ptr:#x} is garbage"
                )
            self._free_head = next_ptr
            self._allocated[user] = self.load32(user - _CHUNK_HEADER)
            return user
        chunk = self._brk
        if chunk + _CHUNK_HEADER + size > self.size:
            raise MemoryError("heap exhausted")
        self._brk += _CHUNK_HEADER + size
        self.store32(chunk, size)
        user = chunk + _CHUNK_HEADER
        self._allocated[user] = size
        return user

    def free(self, addr: int) -> None:
        """Push onto the free list - unconditionally, like a fastbin."""
        if addr == _NULL:
            return  # free(NULL) is a no-op
        self._check_mapped(addr - _CHUNK_HEADER, _CHUNK_HEADER)
        self._allocated.pop(addr, None)
        self.store32(addr, self._free_head)  # fd pointer at user address
        self._free_head = addr

    # ----- the three §5D faults, as native code executes them ------------------

    def null_dereference(self) -> int:
        """``*(int *)NULL`` - immediate segfault."""
        return self.load32(_NULL)

    def out_of_bounds_write(self, addr: int, count: int) -> None:
        """Walk an i32 array far past its end until the page boundary kills us."""
        for i in range(count):
            self.store32(addr + i * 4, i)

    def double_free_then_use(self) -> None:
        """free(p); free(p); then reuse - the glibc fastbin-dup scenario.

        The two subsequent mallocs alias; writing user data through the
        first overwrites the free-list fd pointer, and the third malloc
        chases it into garbage -> :class:`HeapCorruption` (native crash).
        """
        p = self.malloc(64)
        self.free(p)
        self.free(p)  # UB: p is now twice in the free list
        a = self.malloc(64)  # returns p; free list still points at p
        self.store32(a, 0xDEADBEEF)  # user data clobbers the fd pointer
        b = self.malloc(64)  # returns p again (aliased with a!)
        assert a == b  # two owners of one chunk
        self.malloc(64)  # chases fd = 0xDEADBEEF -> HeapCorruption
