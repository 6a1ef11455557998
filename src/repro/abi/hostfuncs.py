"""The ``env`` host-function set a gNB exposes to scheduler plugins.

This is the capability boundary of §4: "the gNB host exposes multiple host
functions, which provide access to specific control processes".  A plugin
can only do what these functions allow - reading its own memory, computing
TBS, and logging.  Nothing else of the host is reachable.
"""

from __future__ import annotations

from typing import Callable

from repro.phy.tbs import transport_block_size_bits
from repro.wasm.instance import HostFunc
from repro.wasm.wtypes import FuncType, ValType

I32 = ValType.I32
F64 = ValType.F64


def make_env(
    log_sink: Callable[[int, int], None] | None = None,
    extra: dict[str, HostFunc] | None = None,
) -> dict[str, HostFunc]:
    """Build the standard ``env`` import namespace.

    - ``tbs_bits(prbs, mcs) -> i32``: the 38.214 TBS the gNB itself uses,
      so plugins see the same rate model as native schedulers;
    - ``log(code, value)``: diagnostic channel into the host's log sink;
    - ``now_slot() -> i32`` placeholder (0) unless the host overrides it.

    ``extra`` lets specific hosts (near-RT RIC, E2 nodes) add their own
    capabilities without re-declaring the base set.
    """

    def tbs_bits(caller, prbs: int, mcs: int) -> int:
        # Wasm hands over unsigned i32s: a negative count arrives >= 2**31
        if prbs >= 1 << 31 or not 0 <= mcs <= 28:
            return 0
        # cap so a buggy plugin cannot make the host chew huge numbers
        return transport_block_size_bits(min(prbs, 1024), mcs)

    def log(caller, code: int, value: int) -> None:
        if log_sink is not None:
            log_sink(code, value)

    def now_slot(caller) -> int:
        return 0

    env = {
        "tbs_bits": HostFunc(FuncType((I32, I32), (I32,)), tbs_bits, "tbs_bits"),
        "log": HostFunc(FuncType((I32, I32), ()), log, "log"),
        "now_slot": HostFunc(FuncType((), (I32,)), now_slot, "now_slot"),
    }
    if extra:
        env.update(extra)
    return env


#: import names a sanitized plugin may use (anything else is rejected)
ALLOWED_IMPORTS = frozenset({"tbs_bits", "log", "now_slot"})
