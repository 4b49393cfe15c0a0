"""Crash-safe proof journal: a write-ahead log for batch prove runs.

A long batch run that dies at task 180/200 should not re-prove 179
finished proofs.  :class:`ProofJournal` is an append-only JSONL
write-ahead log of completed work — one ``{"key", "task_id", "proof"}``
entry per proof, flushed and fsynced per append — and
:func:`journaled_prove` is the runner that consults it: on ``--resume``
it loads the journal, skips every task whose key is already recorded,
and proves only the remainder (checkpointing as it goes).

Format (one JSON object per line):

* line 1 — header: ``{"journal": "repro-proofs", "version": 1,
  "spec": "<r1cs digest hex>", "field": "<modulus hex>"}``.  Resuming
  against a different circuit fails loudly
  (:class:`~repro.errors.JournalError`) instead of serving proofs of the
  wrong statement.
* following lines — entries: ``{"key": "<task key hex>", "task_id": N,
  "proof": "<serialized proof hex>", "t": <unix time>}``.  The proof
  bytes are the wire format of :mod:`repro.core.serialize`, so a journal
  doubles as an exportable proof archive.

A crash mid-append leaves at most one truncated final line; the loader
tolerates (and reports) exactly that — a torn line anywhere *before* the
tail means external corruption and fails loudly.

Task identity is content-addressed: ``task_key(spec, task)`` digests the
circuit (R1CS digest) together with the witness and public values, so a
resumed run matches tasks by meaning, not by position — reordering the
task list between runs still skips exactly the proven work.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..core.serialize import deserialize_proof, serialize_proof
from ..errors import JournalError
from ..runtime.spec import ProverSpec
from ..runtime.stats import RuntimeStats, merge_runtime_stats
from ..runtime.trace import JsonlTraceSink, SpanContext, ambient_span

HEADER_TAG = "repro-proofs"
JOURNAL_VERSION = 1


def task_key(spec: ProverSpec, task: ProofTask) -> bytes:
    """Content address of one task under one circuit.

    Independent of ``task_id`` (an ordering label, not proof content),
    so identical work is recognized across runs that renumber tasks.
    """
    h = hashlib.sha256()
    h.update(spec.r1cs.digest())
    h.update(b"|w|")
    h.update(",".join(str(int(v)) for v in task.witness).encode())
    h.update(b"|p|")
    h.update(",".join(str(int(v)) for v in task.public_values).encode())
    return h.digest()


class ProofJournal:
    """Append-only JSONL write-ahead log of ``task key → proof bytes``.

    Open with :meth:`create` for a fresh journal (writes the header) or
    :meth:`open` to append to / resume from an existing one (validates
    the header against the spec).  Each :meth:`append` is flushed and
    fsynced before returning — the durability point a kill cannot cross.
    """

    def __init__(self, path: str, handle, spec_digest: bytes):
        self.path = path
        self._handle = handle
        self.spec_digest = spec_digest
        self.entries_written = 0

    # -- constructors ----------------------------------------------------------

    @classmethod
    def create(cls, path: str, spec: ProverSpec) -> "ProofJournal":
        """Start a fresh journal (truncates any existing file)."""
        digest = spec.r1cs.digest()
        handle = open(path, "w", encoding="utf-8")
        header = {
            "journal": HEADER_TAG,
            "version": JOURNAL_VERSION,
            "spec": digest.hex(),
            "field": hex(spec.r1cs.field.modulus),
        }
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        return cls(path, handle, digest)

    @classmethod
    def open(cls, path: str, spec: ProverSpec) -> "ProofJournal":
        """Open an existing journal for appending (header must match)."""
        digest = spec.r1cs.digest()
        with open(path, "rb") as handle:
            found = cls._header_digest(path, handle.readline())
        if found != digest:
            raise JournalError(
                f"journal {path} was written for circuit "
                f"{found.hex()[:16]}…, not {digest.hex()[:16]}…"
            )
        handle = open(path, "a", encoding="utf-8")
        return cls(path, handle, digest)

    @staticmethod
    def _header_digest(path: str, first: bytes) -> bytes:
        """The circuit digest a header line records; any malformed header
        (not UTF-8 JSON, wrong tag or version, bad ``spec``) raises."""
        try:
            header = json.loads(first)
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            raise JournalError(
                f"{path} is not a proof journal (unparseable header)"
            ) from None
        if (
            not isinstance(header, dict)
            or header.get("journal") != HEADER_TAG
        ):
            raise JournalError(
                f"{path} is not a proof journal (bad header tag)"
            )
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"unsupported journal version {header.get('version')}"
            )
        try:
            return bytes.fromhex(header["spec"])
        except (KeyError, TypeError, ValueError):
            raise JournalError(
                f"{path}: journal header has no valid circuit digest"
            ) from None

    # -- writing ---------------------------------------------------------------

    def append(self, key: bytes, task_id: int, proof_bytes: bytes) -> None:
        """Durably record one completed proof (flush + fsync)."""
        entry = {
            "key": key.hex(),
            "task_id": task_id,
            "proof": proof_bytes.hex(),
            "t": time.time(),
        }
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.entries_written += 1

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "ProofJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading ---------------------------------------------------------------

    @staticmethod
    def load(path: str, spec: ProverSpec) -> Tuple[Dict[bytes, bytes], int]:
        """Read completed entries: ``({task key: proof bytes}, torn_lines)``.

        Tolerates a truncated *final* line (a crash mid-append); a
        malformed line anywhere else raises :class:`JournalError`.
        Later entries for the same key win (re-proves after corruption).
        """
        with open(path, "rb") as handle:
            lines = handle.readlines()
        first = lines[0] if lines else b""
        if ProofJournal._header_digest(path, first) != spec.r1cs.digest():
            raise JournalError(
                f"journal {path} was written for a different circuit"
            )
        entries: Dict[bytes, bytes] = {}
        torn = 0
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                key = bytes.fromhex(entry["key"])
                proof = bytes.fromhex(entry["proof"])
            except (KeyError, TypeError, ValueError):
                if lineno == len(lines):
                    torn += 1  # crash mid-append: expected, recoverable
                    continue
                raise JournalError(
                    f"{path}:{lineno}: corrupt journal entry "
                    "(not at tail — refusing to resume)"
                ) from None
            entries[key] = proof
        return entries, torn


@dataclass
class JournalReport:
    """What a journaled run did: the resume audit trail."""

    path: str
    #: Tasks served from the journal without re-proving.
    skipped: int = 0
    #: Tasks proved (and appended) by this run.
    proved: int = 0
    #: Tasks quarantined by the backend (never journaled).
    quarantined: int = 0
    #: Truncated tail lines tolerated while loading.
    torn_lines: int = 0
    #: Task ids served from the journal.
    skipped_task_ids: List[int] = dc_field(default_factory=list)

    def summary(self) -> str:
        text = (
            f"journal {self.path}: skipped {self.skipped} already-proven, "
            f"proved {self.proved}"
        )
        if self.quarantined:
            text += f", quarantined {self.quarantined}"
        if self.torn_lines:
            text += f", tolerated {self.torn_lines} torn tail line(s)"
        return text


def journaled_prove(
    backend,
    spec: ProverSpec,
    tasks: Sequence[ProofTask],
    journal_path: str,
    *,
    resume: bool = False,
    checkpoint_every: int = 1,
    trace: Optional[JsonlTraceSink] = None,
    parent: Optional[str] = None,
):
    """Prove a batch with write-ahead journaling (and optional resume).

    With ``resume=True`` and an existing journal, tasks whose keys are
    already recorded are *deserialized from the journal* instead of
    proved; the rest are proved in chunks of ``checkpoint_every`` tasks,
    each chunk's proofs durably appended before the next chunk starts —
    so a kill at any instant loses at most the in-flight chunk.

    Returns ``(results, stats, report)``: results in task order (each a
    proof or a :class:`~repro.errors.QuarantinedTaskError` if the
    backend quarantines), the merged
    :class:`~repro.runtime.RuntimeStats` of the proving actually
    performed, and a :class:`JournalReport`.
    """
    if checkpoint_every < 1:
        raise JournalError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    tasks = list(tasks)
    field = spec.r1cs.field
    report = JournalReport(path=journal_path)
    completed: Dict[bytes, bytes] = {}
    if resume and os.path.exists(journal_path):
        completed, report.torn_lines = ProofJournal.load(journal_path, spec)
        journal = ProofJournal.open(journal_path, spec)
    else:
        journal = ProofJournal.create(journal_path, spec)

    ambient = ambient_span()
    if ambient is not None:
        if trace is None:
            trace = ambient.sink
        if parent is None:
            parent = ambient.span
    ctx = SpanContext(trace, "backend", parent=parent)
    ctx.emit(
        "journal_start",
        path=journal_path,
        resume=resume,
        known_entries=len(completed),
        tasks=len(tasks),
    )

    keys = [task_key(spec, task) for task in tasks]
    results: List[object] = [None] * len(tasks)
    pcs_params = None
    todo: List[int] = []
    for index, key in enumerate(keys):
        if key in completed:
            if pcs_params is None:
                pcs_params = spec.build_pcs().params
            results[index] = deserialize_proof(
                completed[key], field, pcs_params
            )
            report.skipped += 1
            report.skipped_task_ids.append(tasks[index].task_id)
        else:
            todo.append(index)
    if report.skipped:
        ctx.emit(
            "journal_skip",
            skipped=report.skipped,
            task_ids=report.skipped_task_ids,
        )

    part_stats: List[RuntimeStats] = []
    try:
        for lo in range(0, len(todo), checkpoint_every):
            chunk = todo[lo:lo + checkpoint_every]
            chunk_tasks = [tasks[i] for i in chunk]
            proofs, stats = backend.prove_tasks(
                spec, chunk_tasks, trace=trace, parent=ctx.span
            )
            part_stats.append(stats)
            for index, proof in zip(chunk, proofs):
                results[index] = proof
                # Only a real proof is durable progress.  A quarantined
                # slot (or any other non-proof placeholder a backend
                # might return) must NOT be journaled: a later --resume
                # would deserialize it as a completed task and silently
                # skip the re-attempt the quarantine exists to force.
                if not isinstance(proof, SnarkProof):
                    report.quarantined += 1
                    continue
                journal.append(
                    keys[index],
                    tasks[index].task_id,
                    serialize_proof(proof, field),
                )
                report.proved += 1
    finally:
        journal.close()
        ctx.emit(
            "journal_end",
            proved=report.proved,
            skipped=report.skipped,
            quarantined=report.quarantined,
        )
        if trace is not None:
            trace.flush()

    merged = merge_runtime_stats(part_stats)
    merged.total_seconds = sum(p.total_seconds for p in part_stats)
    return results, merged, report
