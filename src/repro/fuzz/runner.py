"""The deterministic fuzz-campaign driver behind ``repro fuzz``.

Each iteration derives its own ``random.Random`` from
``sha256(f"{seed}:{i}")``, so iteration *i* of seed *s* always produces
the same module, mutation and call plan regardless of how many iterations
ran before it, whether a time-box cut the campaign short, or what Python's
global RNG state is.  The campaign digest folds every module hash and
canonical outcome into one SHA-256, so two runs with the same seed and
budget must report the same digest — the CI determinism gate.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.fuzz.corpus import CorpusCase, expected_outcomes, save_case
from repro.fuzz.gen import GeneratorError, ModuleGen
from repro.fuzz.mutate import MutationCrash, classify_bytes, mutate_bytes
from repro.fuzz.oracle import differential
from repro.fuzz.shrink import shrink
from repro.wasm.traps import WasmError


@dataclass
class Failure:
    """One fuzz finding: a divergence, host crash, or generator bug."""

    iteration: int
    kind: str  # "divergence" | "crash" | "mutation-crash" | "generator-bug"
    detail: str
    module_sha: str
    corpus_path: str | None = None


@dataclass
class FuzzReport:
    """Outcome of one campaign; ``digest`` is the determinism fingerprint."""

    seed: int
    budget: int
    executed: int = 0
    generated: int = 0
    mutated: int = 0
    seeded: int = 0
    class_counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    digest: str = ""
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "executed": self.executed,
            "generated": self.generated,
            "mutated": self.mutated,
            "seeded": self.seeded,
            "class_counts": dict(sorted(self.class_counts.items())),
            "failures": [
                {
                    "iteration": f.iteration,
                    "kind": f.kind,
                    "detail": f.detail,
                    "module_sha": f.module_sha,
                    "corpus_path": f.corpus_path,
                }
                for f in self.failures
            ],
            "digest": self.digest,
            "elapsed": round(self.elapsed, 3),
            "ok": self.ok,
        }


def _iteration_rng(seed: int, i: int) -> random.Random:
    material = hashlib.sha256(f"{seed}:{i}".encode()).digest()
    return random.Random(int.from_bytes(material[:8], "big"))


def _write_reproducer(
    corpus_dir: str | None, case: CorpusCase, seed: int, i: int
) -> str | None:
    if corpus_dir is None:
        return None
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fuzz-seed{seed}-i{i}.json"
    save_case(path, case)
    return str(path)


def run_campaign(
    seed: int,
    budget: int,
    *,
    mutate_ratio: float = 0.3,
    time_box: float | None = None,
    corpus_dir: str | None = None,
    do_shrink: bool = True,
    seed_modules: list[bytes] | None = None,
) -> FuzzReport:
    """Run ``budget`` seeded iterations (or until ``time_box`` seconds pass).

    A ``mutate_ratio`` fraction of iterations corrupt the generated module
    and classify it (decoder/validator robustness); the rest run the full
    differential oracle.  Failing cases are shrunk and written as corpus
    reproducers when ``corpus_dir`` is given.  Never raises on findings —
    they land in :attr:`FuzzReport.failures`.

    ``seed_modules`` (e.g. the plugin binaries of a recorded replay
    corpus, ``repro fuzz --seed-corpus``) biases half of the mutation
    iterations to corrupt a *real* module instead of a generated one -
    realistic section layouts, import-heavy preambles and scheduler
    control flow that the generator does not produce.  Determinism is
    preserved: the pick is driven by the per-iteration RNG over the
    caller-sorted list, and every mutant's sha still folds into the
    campaign digest (a different seed list is a different campaign).
    """
    report = FuzzReport(seed=seed, budget=budget)
    digest = hashlib.sha256()
    started = time.monotonic()
    deadline = started + time_box if time_box is not None else None

    for i in range(budget):
        if deadline is not None and time.monotonic() >= deadline:
            break
        report.executed += 1
        rng = _iteration_rng(seed, i)
        try:
            generated = ModuleGen(rng).generate()
        except GeneratorError as exc:
            digest.update(f"{i}:genbug".encode())
            report.failures.append(
                Failure(i, "generator-bug", str(exc), module_sha="")
            )
            continue
        module_sha = hashlib.sha256(generated.wasm).hexdigest()

        if rng.random() < mutate_ratio:
            report.mutated += 1
            base = generated.wasm
            if seed_modules and rng.random() < 0.5:
                base = seed_modules[rng.randrange(len(seed_modules))]
                report.seeded += 1
            mutant = mutate_bytes(rng, base)
            mutant_sha = hashlib.sha256(mutant).hexdigest()
            try:
                verdict = classify_bytes(mutant)
            except MutationCrash as exc:
                digest.update(f"{i}:mut:{mutant_sha}:crash".encode())
                case = CorpusCase(
                    name=f"fuzz-seed{seed}-i{i}",
                    wasm=mutant,
                    mode="classify",
                    note=f"mutation crash: {exc}",
                )
                path = _write_reproducer(corpus_dir, case, seed, i)
                report.failures.append(
                    Failure(i, "mutation-crash", str(exc), mutant_sha, path)
                )
                continue
            report.class_counts[verdict] = report.class_counts.get(verdict, 0) + 1
            digest.update(f"{i}:mut:{mutant_sha}:{verdict}".encode())
            if verdict == "diverged":
                report.failures.append(
                    Failure(
                        i,
                        "divergence",
                        "mutated-but-valid module diverged between engines",
                        mutant_sha,
                        _write_reproducer(
                            corpus_dir,
                            CorpusCase(
                                name=f"fuzz-seed{seed}-i{i}",
                                wasm=mutant,
                                mode="classify",
                                note="engine divergence on mutated module",
                            ),
                            seed,
                            i,
                        ),
                    )
                )
            continue

        report.generated += 1
        try:
            result = differential(generated.wasm, generated.calls)
        except Exception as exc:  # noqa: BLE001 - host crash on a valid module
            digest.update(f"{i}:gen:{module_sha}:crash".encode())
            case = CorpusCase(
                name=f"fuzz-seed{seed}-i{i}",
                wasm=generated.wasm,
                calls=generated.calls,
                mode="classify",
                note=f"host crash on generated module: "
                f"{type(exc).__name__}: {exc}",
            )
            path = _write_reproducer(corpus_dir, case, seed, i)
            report.failures.append(
                Failure(
                    i,
                    "crash",
                    f"{type(exc).__name__}: {exc}",
                    module_sha,
                    path,
                )
            )
            continue

        digest.update(f"{i}:gen:{module_sha}:".encode())
        digest.update(result.digest_material.encode())
        if result.ok:
            continue

        # a real divergence: shrink it, save it, record it
        wasm, calls = generated.wasm, generated.calls
        if do_shrink:

            def still_diverges(candidate_wasm, candidate_calls):
                try:
                    return not differential(candidate_wasm, candidate_calls).ok
                except WasmError:
                    return False

            wasm, calls = shrink(wasm, calls, still_diverges)
        try:
            expect = expected_outcomes(wasm, calls)
        except WasmError:
            expect = []
        case = CorpusCase(
            name=f"fuzz-seed{seed}-i{i}",
            wasm=wasm,
            calls=calls,
            expect=expect,
            note=f"engine divergence: {result.reason}",
        )
        path = _write_reproducer(corpus_dir, case, seed, i)
        report.failures.append(
            Failure(i, "divergence", result.reason or "", module_sha, path)
        )

    report.digest = digest.hexdigest()
    report.elapsed = time.monotonic() - started
    return report
