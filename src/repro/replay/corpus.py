"""The on-disk replay-corpus format (``.wrc``: WA-RAN replay corpus).

One corpus file holds everything a standalone replay needs: the module
binaries (keyed by sha256), one call stream per ``(plugin, generation)``
with exact ABI input bytes, expected outcome/output/fuel, chaos and rt
attachments, and the pre-call state (mutable globals, scratch-alloc
flag) that makes stateful plugins reproduce bit-exactly.

The container is deliberately boring and fully deterministic::

    magic    4 bytes   b"WRC" + version byte
    sha256  32 bytes   of the canonical JSON payload (integrity)
    length   8 bytes   big-endian uncompressed payload size
    body     N bytes   zlib(level=9) canonical JSON (sorted keys,
                       compact separators)

Canonical JSON + fixed-level zlib means ``loads -> dumps`` is
byte-identical, and re-recording the same seeded workload re-produces
the same file - the property the round-trip tests pin.  Truncated or
corrupted files are rejected with :class:`CorpusError` before any JSON
is parsed.

Nothing wall-clock ever enters the payload: expectations are outcomes,
output bytes and fuel counts, all engine-identical by construction.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.fuzz.corpus import decode_value, encode_value

#: current format version; bumped on any payload schema change
CORPUS_VERSION = 1

_MAGIC_PREFIX = b"WRC"
_HEADER = struct.Struct(">3sB32sQ")


class CorpusError(ValueError):
    """A corpus file is truncated, corrupted, or from an unknown version."""


@dataclass
class ReplayCall:
    """One recorded plugin invocation and its verified expectations."""

    seq: int
    entry: str
    input_bytes: bytes
    outcome: str  # 'ok' | 'trap' | 'fuel' | 'abi' | 'deadline'
    output_bytes: bytes | None
    fuel_used: int | None
    #: pre-call mutable globals, ``[[index, value], ...]``
    globals_pre: list = field(default_factory=list)
    #: recorded call ran the plugin's ``alloc`` (fuel includes it)
    alloc: bool = False
    #: chaos injection document (``ChaosInjection.to_json``), if any
    chaos: dict | None = None
    #: rt decision document (budget/lane/verdict + effective fuel), if any
    rt: dict | None = None
    #: False when the standalone expectation was rebased during reduction
    #: because it deterministically differs from the live recording (e.g.
    #: an xApp whose host functions are stubbed standalone)
    live_match: bool = True

    def matches(self, result) -> bool:
        """True iff ``result`` (the :class:`~repro.abi.host.PluginCallResult`
        of re-issuing this call) reproduces the expectation bit-exactly."""
        return (result.outcome, result.output, result.fuel_used) == (
            self.outcome, self.output_bytes, self.fuel_used
        )

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "seq": self.seq,
            "entry": self.entry,
            "input_hex": self.input_bytes.hex(),
            "outcome": self.outcome,
            "output_hex": (
                None if self.output_bytes is None else self.output_bytes.hex()
            ),
            "fuel_used": self.fuel_used,
            "globals_pre": [
                [index, encode_value(value)] for index, value in self.globals_pre
            ],
            "alloc": self.alloc,
            "live_match": self.live_match,
        }
        if self.chaos is not None:
            doc["chaos"] = self.chaos
        if self.rt is not None:
            doc["rt"] = self.rt
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "ReplayCall":
        return cls(
            seq=doc["seq"],
            entry=doc["entry"],
            input_bytes=bytes.fromhex(doc["input_hex"]),
            outcome=doc["outcome"],
            output_bytes=(
                None
                if doc.get("output_hex") is None
                else bytes.fromhex(doc["output_hex"])
            ),
            fuel_used=doc.get("fuel_used"),
            globals_pre=[
                [index, decode_value(value)]
                for index, value in doc.get("globals_pre", [])
            ],
            alloc=doc.get("alloc", False),
            chaos=doc.get("chaos"),
            rt=doc.get("rt"),
            live_match=doc.get("live_match", True),
        )


@dataclass
class ReplayStream:
    """All captured calls of one ``(plugin, generation)`` pair."""

    plugin: str
    generation: int
    module_sha: str
    #: host policy the recording host ran with
    fuel_limit: int | None
    output_record_bytes: int
    max_output_bytes: int
    calls: list[ReplayCall] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "plugin": self.plugin,
            "generation": self.generation,
            "module_sha": self.module_sha,
            "fuel_limit": self.fuel_limit,
            "output_record_bytes": self.output_record_bytes,
            "max_output_bytes": self.max_output_bytes,
            "calls": [call.to_json() for call in self.calls],
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "ReplayStream":
        return cls(
            plugin=doc["plugin"],
            generation=doc["generation"],
            module_sha=doc["module_sha"],
            fuel_limit=doc.get("fuel_limit"),
            output_record_bytes=doc["output_record_bytes"],
            max_output_bytes=doc["max_output_bytes"],
            calls=[ReplayCall.from_json(c) for c in doc.get("calls", [])],
        )


@dataclass
class ReplayCorpus:
    """A self-contained benchmark corpus: modules + call streams + meta."""

    meta: dict[str, Any] = field(default_factory=dict)
    modules: dict[str, bytes] = field(default_factory=dict)
    streams: list[ReplayStream] = field(default_factory=list)

    @property
    def total_calls(self) -> int:
        return sum(len(s.calls) for s in self.streams)

    def fidelity_digest(self) -> str:
        """sha256 over every call's expectation - the replay contract.

        Folds module identity, entry, input and the expected
        (outcome, output, fuel) triple; wall-clock never enters, so the
        digest is identical across engines and machines.  ``repro
        replay-bench`` proves a run faithful by reproducing every
        expectation behind this digest.
        """
        digest = hashlib.sha256()
        for stream in self.streams:
            digest.update(
                f"{stream.plugin}:{stream.generation}:{stream.module_sha}\n".encode()
            )
            for call in stream.calls:
                out = call.output_bytes
                digest.update(
                    f"{call.seq}:{call.entry}:{call.input_bytes.hex()}:"
                    f"{call.outcome}:{'-' if out is None else out.hex()}:"
                    f"{call.fuel_used}\n".encode()
                )
        return digest.hexdigest()

    def to_json(self) -> dict[str, Any]:
        return {
            "version": CORPUS_VERSION,
            "meta": self.meta,
            "modules": {
                sha: raw.hex() for sha, raw in sorted(self.modules.items())
            },
            "streams": [stream.to_json() for stream in self.streams],
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "ReplayCorpus":
        modules = {}
        for sha, hexed in doc.get("modules", {}).items():
            raw = bytes.fromhex(hexed)
            actual = hashlib.sha256(raw).hexdigest()
            if actual != sha:
                raise CorpusError(
                    f"module {sha[:12]}... does not hash to its key "
                    f"(got {actual[:12]}...)"
                )
            modules[sha] = raw
        corpus = cls(
            meta=dict(doc.get("meta", {})),
            modules=modules,
            streams=[ReplayStream.from_json(s) for s in doc.get("streams", [])],
        )
        for stream in corpus.streams:
            if stream.module_sha not in modules:
                raise CorpusError(
                    f"stream {stream.plugin} references missing module "
                    f"{stream.module_sha[:12]}..."
                )
        return corpus


# ----- (de)serialisation ----------------------------------------------------


def dumps_corpus(corpus: ReplayCorpus) -> bytes:
    """Serialise to the deterministic binary container."""
    payload = json.dumps(
        corpus.to_json(), sort_keys=True, separators=(",", ":")
    ).encode()
    return _HEADER.pack(
        _MAGIC_PREFIX,
        CORPUS_VERSION,
        hashlib.sha256(payload).digest(),
        len(payload),
    ) + zlib.compress(payload, 9)


def loads_corpus(data: bytes) -> ReplayCorpus:
    """Parse corpus bytes, rejecting anything malformed with a clear error."""
    if len(data) < _HEADER.size:
        raise CorpusError(
            f"truncated corpus: {len(data)} bytes is shorter than the "
            f"{_HEADER.size}-byte header"
        )
    magic, version, payload_sha, payload_len = _HEADER.unpack_from(data)
    if magic != _MAGIC_PREFIX:
        raise CorpusError(
            f"not a replay corpus (magic {magic!r}, expected {_MAGIC_PREFIX!r})"
        )
    if version != CORPUS_VERSION:
        raise CorpusError(
            f"unsupported corpus version {version} "
            f"(this build reads version {CORPUS_VERSION})"
        )
    try:
        payload = zlib.decompress(data[_HEADER.size :])
    except zlib.error as exc:
        raise CorpusError(f"corrupt corpus body: {exc}") from exc
    if len(payload) != payload_len:
        raise CorpusError(
            f"truncated corpus body: header promises {payload_len} bytes, "
            f"decompressed {len(payload)}"
        )
    if hashlib.sha256(payload).digest() != payload_sha:
        raise CorpusError("corrupt corpus: payload sha256 mismatch")
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:  # sha matched but JSON broken
        raise CorpusError(f"corrupt corpus payload: {exc}") from exc
    return ReplayCorpus.from_json(doc)


def save_corpus(path: str | Path, corpus: ReplayCorpus) -> int:
    """Write ``corpus`` to ``path``; returns the byte size written."""
    data = dumps_corpus(corpus)
    Path(path).write_bytes(data)
    return len(data)


def load_corpus(path: str | Path) -> ReplayCorpus:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    try:
        return loads_corpus(data)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc
