"""Binary layout of scheduler plugin inputs and outputs.

Little-endian, fixed stride, so WACC plugins can walk records with plain
pointer arithmetic.

Input::

    offset 0   u32  magic 0x5741524E ("WARN")
    offset 4   u32  abi version (1)
    offset 8   u32  slot number
    offset 12  u32  allocated PRBs for this slice
    offset 16  u32  number of UE records (n)
    offset 20  n * 24-byte UE records:
        +0   u32  ue_id
        +4   u32  mcs
        +8   u32  cqi
        +12  u32  buffer_bytes
        +16  f64  avg_tput_bps

UE records are packed in ascending ``ue_id`` order (the canonical order;
plugins may rely on it).

Output::

    offset 0   u32  number of grants (m)
    offset 4   m * 8-byte grant records: u32 ue_id, u32 prbs
"""

from __future__ import annotations

import struct
from functools import lru_cache, partial
from operator import attrgetter

from repro.sched.types import UeGrant, UeSchedInfo

MAGIC = 0x5741524E
ABI_VERSION = 1

SCHED_INPUT_HEADER = 20
SCHED_UE_STRIDE = 24
GRANT_STRIDE = 8


class WireError(ValueError):
    """Malformed ABI buffer."""


_COUNT = struct.Struct("<I")
_GRANT = struct.Struct("<II")
_BY_UE_ID = attrgetter("ue_id")
#: a grant from its unpacked ``(ue_id, prbs)`` pair, built in C:
#: ``UeGrant(*pair)`` runs the named tuple's Python ``__new__`` per grant
_grant = partial(tuple.__new__, UeGrant)


@lru_cache(maxsize=64)
def _sched_input_struct(n_ues: int) -> struct.Struct:
    """The whole input buffer of ``n_ues`` UEs as one struct."""
    return struct.Struct("<IIIII" + "IIIId" * n_ues)


def pack_sched_input(slot: int, allocated_prbs: int, ues: list[UeSchedInfo]) -> bytes:
    """Serialize one scheduler call's input."""
    fields = [MAGIC, ABI_VERSION, slot, allocated_prbs, len(ues)]
    for ue in sorted(ues, key=_BY_UE_ID):
        fields += (ue.ue_id, ue.mcs, ue.cqi, ue.buffer_bytes, ue.avg_tput_bps)
    return _sched_input_struct(len(ues)).pack(*fields)


def unpack_sched_input(data: bytes) -> tuple[int, int, list[UeSchedInfo]]:
    """Parse an input buffer (used by tests and native-shim plugins)."""
    if len(data) < SCHED_INPUT_HEADER:
        raise WireError("input too short for header")
    magic, version, slot, prbs, n = struct.unpack_from("<IIIII", data, 0)
    if magic != MAGIC:
        raise WireError(f"bad magic 0x{magic:08x}")
    if version != ABI_VERSION:
        raise WireError(f"unsupported ABI version {version}")
    expected = SCHED_INPUT_HEADER + n * SCHED_UE_STRIDE
    if len(data) < expected:
        raise WireError(f"input truncated: {len(data)} < {expected}")
    ues = []
    for i in range(n):
        ue_id, mcs, cqi, buf, avg = struct.unpack_from(
            "<IIIId", data, SCHED_INPUT_HEADER + i * SCHED_UE_STRIDE
        )
        ues.append(UeSchedInfo(ue_id, mcs, cqi, buf, avg))
    return slot, prbs, ues


def pack_grants(grants: list[UeGrant]) -> bytes:
    out = bytearray(struct.pack("<I", len(grants)))
    for grant in grants:
        out += struct.pack("<II", grant.ue_id, grant.prbs)
    return bytes(out)


def unpack_grants(data: bytes) -> list[UeGrant]:
    """Parse an output buffer written by a plugin."""
    if len(data) < 4:
        raise WireError("output too short for count")
    (count,) = _COUNT.unpack_from(data)
    if count > 10_000:
        raise WireError(f"implausible grant count {count}")
    expected = 4 + count * GRANT_STRIDE
    if len(data) < expected:
        raise WireError(f"output truncated: {len(data)} < {expected}")
    return list(map(_grant, _GRANT.iter_unpack(data[4:expected])))
