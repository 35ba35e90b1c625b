"""repro.session — the stage-graph Session API.

The canonical programmatic surface of the package (see ``docs/API.md``):

* :class:`~repro.session.session.Session` — a caching pipeline driver
  that models ``source → ast → ir → {cssame, optimized, bytecode} →
  {diagnostics, dot, audit}`` as an explicit stage graph
  (:data:`~repro.session.stages.STAGES`, the one table of stages and
  their option defaults) with a content-addressed artifact cache;
* :class:`~repro.session.batch.BatchSession` /
  :class:`~repro.session.batch.FileResult` — the parallel corpus
  driver behind ``repro batch``;
* :class:`~repro.session.artifacts.ArtifactCache` /
  :class:`~repro.session.artifacts.CacheStats` — the cache itself.

:mod:`repro.api` is the typed facade over this machinery: it turns a
wire-stage request into a frozen result whose ``as_dict()`` is the
``repro serve`` payload.
"""

from repro.session.artifacts import ArtifactCache, CacheStats, derive_key, source_key
from repro.session.batch import BatchSession, FileResult
from repro.session.session import Session
from repro.session.stages import STAGES, StageSpec

__all__ = [
    "ArtifactCache",
    "BatchSession",
    "CacheStats",
    "FileResult",
    "STAGES",
    "Session",
    "StageSpec",
    "derive_key",
    "source_key",
]
