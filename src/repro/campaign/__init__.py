"""Campaign engine: parallel, checkpointable injection sweeps with a
content-addressed outcome cache.

Layers (bottom up):

* :mod:`~repro.campaign.digest` — stable content addresses for
  per-function outcomes and whole campaigns;
* :mod:`~repro.campaign.store` — the digest-keyed JSON outcome store
  (lossless :class:`~repro.injector.InjectionReport` round-trips);
* :mod:`~repro.campaign.scheduler` — the supervised multiprocessing
  pool (timeout, retry, crash containment);
* :mod:`~repro.campaign.runner` — the campaign driver wiring cache,
  scheduler, and checkpoint manifest together.
"""

from repro.campaign.digest import (
    CACHE_SCHEMA,
    campaign_id,
    generator_fingerprint,
    outcome_digest,
    spec_fingerprint,
)
from repro.campaign.runner import (
    CampaignConfig,
    CampaignResult,
    CampaignRunner,
    DEFAULT_CAMPAIGN_DIR,
    FunctionOutcome,
    clean_cache,
    load_manifest,
)
from repro.campaign.scheduler import (
    DEFAULT_TASK_RETRIES,
    DEFAULT_TASK_TIMEOUT,
    TaskResult,
    clamp_jobs,
    effective_jobs,
    run_tasks,
)
from repro.campaign.store import (
    CleanStats,
    OutcomeStore,
    UncacheableReport,
    report_from_payload,
    report_to_payload,
)

__all__ = [
    "CACHE_SCHEMA",
    "CampaignConfig",
    "CampaignResult",
    "CleanStats",
    "CampaignRunner",
    "DEFAULT_CAMPAIGN_DIR",
    "DEFAULT_TASK_RETRIES",
    "DEFAULT_TASK_TIMEOUT",
    "FunctionOutcome",
    "OutcomeStore",
    "TaskResult",
    "UncacheableReport",
    "campaign_id",
    "clamp_jobs",
    "clean_cache",
    "effective_jobs",
    "generator_fingerprint",
    "load_manifest",
    "outcome_digest",
    "report_from_payload",
    "report_to_payload",
    "run_tasks",
    "spec_fingerprint",
]
