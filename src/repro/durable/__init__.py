"""``repro.durable`` — write-ahead journal, crash recovery, campaign resume.

The paper's thesis leans on cloud services *outliving* any single process
or allocation.  This package makes that literal for the reproduction:

* :class:`Journal` — append-only JSONL write-ahead log with snapshot
  compaction over a simulated durable medium (a ``repro.net.fs``
  volume), charged I/O as the fsync;
* :func:`recover_cloud` — rebuild a discarded
  :class:`~repro.faas.cloud.FaasCloud`/shard from snapshot + log replay
  with exactly-once semantics (ledger dedupe, in-flight re-lease,
  notification re-establishment at the acked frontier);
* :class:`CampaignCheckpoint` — the same discipline for Thinker decision
  state, powering ``repro.cli resume``.
"""

from repro.durable.checkpoint import CampaignCheckpoint
from repro.durable.journal import (
    FileJournalBackend,
    Journal,
    decode_payload,
    encode_payload,
)
from repro.durable.recovery import RecoveryReport, recover_cloud
from repro.durable.resume import ResumeReport, ledger_digest, run_resumable_moldesign

__all__ = [
    "CampaignCheckpoint",
    "FileJournalBackend",
    "Journal",
    "RecoveryReport",
    "ResumeReport",
    "decode_payload",
    "encode_payload",
    "ledger_digest",
    "recover_cloud",
    "run_resumable_moldesign",
]
