"""Transport block size determination (3GPP 38.214 §5.1.3.2).

Given PRB count and MCS (one layer), computes the number of information
bits one slot can carry.  This is the function that turns scheduler grants
into throughput, so it is implemented to the spec:

1. ``N_RE' = 12 * n_symbols - n_dmrs - n_overhead`` per PRB, capped at 156;
2. ``N_info = N_RE * R * Qm * v``;
3. for ``N_info <= 3824``: quantize and round *up* to the nearest entry of
   the 93-entry TBS table (Table 5.1.3.2-1);
4. above 3824: the log2-based quantization with byte alignment and the
   code-block-count alignment for rates <= or > 1/4.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import lru_cache
from math import ceil, floor, log2

from repro.phy.mcs import mcs_entry

#: 38.214 Table 5.1.3.2-1 (TBS for N_info <= 3824)
TBS_TABLE: list[int] = [
    24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144,
    152, 160, 168, 176, 184, 192, 208, 224, 240, 256, 272, 288, 304, 320,
    336, 352, 368, 384, 408, 432, 456, 480, 504, 528, 552, 576, 608, 640,
    672, 704, 736, 768, 808, 848, 888, 928, 984, 1032, 1064, 1128, 1160,
    1192, 1224, 1256, 1288, 1320, 1352, 1416, 1480, 1544, 1608, 1672, 1736,
    1800, 1864, 1928, 2024, 2088, 2152, 2216, 2280, 2408, 2472, 2536, 2600,
    2664, 2728, 2792, 2856, 2976, 3104, 3240, 3368, 3496, 3624, 3752, 3824,
]

#: cap on usable resource elements per PRB (38.214 step 1)
_MAX_RE_PER_PRB = 156

#: PDSCH symbols of a slot a grant spans (control symbols excluded)
N_SYMBOLS = 12
#: DMRS resource elements per PRB; there is no further overhead and one
#: spatial layer
DMRS_RE_PER_PRB = 12


#: step 1: usable REs per PRB
_RE_PER_PRB = min(_MAX_RE_PER_PRB, 12 * N_SYMBOLS - DMRS_RE_PER_PRB)


@lru_cache(maxsize=1 << 16)
def transport_block_size_bits(n_prb: int, mcs: int, mcs_table: int = 1) -> int:
    """TBS in bits for a grant of ``n_prb`` PRBs at MCS ``mcs``.

    Returns 0 for an empty grant.  Memoized: TBS is a pure function of its
    arguments, and production gNBs precompute exactly this table.
    ``mcs_table`` selects MCS table 1 (64QAM) or 2 (256QAM).
    """
    if n_prb == 0:
        return 0
    if n_prb < 0:
        raise ValueError(f"negative PRB count {n_prb}")
    entry = mcs_entry(mcs, table=mcs_table)
    return _tbs_bits(n_prb, entry.code_rate, entry.qm)


#: PRB counts a TBS row covers: 0..ROW_PRBS
ROW_PRBS = 512


class _Rows(dict):
    """MCS (table 1) -> its TBS row, built on the MCS's first lookup."""

    def __missing__(self, mcs: int) -> array:
        entry = mcs_entry(mcs)  # an MCS outside the table raises ValueError
        rate, qm = entry.code_rate, entry.qm
        row = self[mcs] = array(
            "I", [0] + [_tbs_bits(n, rate, qm) for n in range(1, ROW_PRBS + 1)]
        )
        return row


#: ``TBS_ROWS[mcs][n] == transport_block_size_bits(n, mcs)`` for n in
#: 0..ROW_PRBS: one 2 KB ``array('I')`` per MCS, filled by the same steps
#: without touching that function's memo.  A lookup of a built row is one
#: dict probe, which is what a scheduler's per-UE search needs.
TBS_ROWS = _Rows()


def _tbs_bits(n_prb: int, code_rate: float, qm: int) -> int:
    """Steps 2-4 for ``n_prb`` > 0 PRBs (``floor`` / ``ceil`` of a float
    are ints)."""
    n_info = _RE_PER_PRB * n_prb * code_rate * qm
    if n_info <= 0:
        return 0

    if n_info <= 3824:
        n = max(3, floor(log2(n_info)) - 6)
        n_info_q = max((1 << n) * floor(n_info / (1 << n)), 24)
        # the smallest table entry >= n_info_q (the table is ascending)
        return TBS_TABLE[min(bisect_left(TBS_TABLE, n_info_q), len(TBS_TABLE) - 1)]

    n = floor(log2(n_info - 24)) - 5
    n_info_q = max(3840, (1 << n) * round((n_info - 24) / (1 << n)))
    if code_rate <= 0.25:
        c = ceil((n_info_q + 24) / 3816)
        return 8 * c * ceil((n_info_q + 24) / (8 * c)) - 24
    if n_info_q > 8424:
        c = ceil((n_info_q + 24) / 8424)
        return 8 * c * ceil((n_info_q + 24) / (8 * c)) - 24
    return 8 * ceil((n_info_q + 24) / 8) - 24
