"""The :class:`Session` — the canonical entry point of the package.

A session owns one :class:`~repro.session.artifacts.ArtifactCache` and
answers pipeline requests (*analyze*, *diagnose*, *optimize*, *dot*,
*bytecode*) by walking the stage graph of :mod:`repro.session.stages`,
reusing every artifact the cache already holds.  Sweeping one program
through analyze + diagnose + dot therefore parses and lowers it once,
builds each SSA variant once, and pays only the last stage of each
journey on repeats::

    from repro.session import Session

    session = Session()
    form = session.analyze(source)            # parse + lower + CSSAME
    warnings, races = session.diagnose(source)  # reuses ast/ir; adds CSSA
    dot = session.dot(source)                   # pure cache walk + render
    print(session.cache_stats().hit_rate)

Sharing rules (what a caller may do with a returned artifact):

* :meth:`front_end` returns a **private deep copy** of the cached IR —
  mutate it freely (the VM, the optimizer and destructive passes do).
* :meth:`analyze` and :meth:`optimize` return the **cached object**;
  treat it as read-only.  The session guarantees its own stages never
  corrupt each other (copy-on-write inside the stage graph), but a
  caller who mutates a shared form sees their edits on the next hit.
* :meth:`diagnose` returns fresh lists (of shared, immutable findings).
* :meth:`payload` returns **private** plain data: payload nodes are
  cached pickled and every lookup decodes fresh containers, so a
  caller's edits never reach the next hit.

Persistence: a layered cache (the :mod:`repro.serve.store` disk tier)
is told to persist only the (pickled) payload nodes of the stage graph;
every compiler object (AST, IR, forms, reports, bytecode) stays in
memory.

Tracing: every stage lookup runs under a ``stage:<name>`` span carrying
a ``cache_hit`` attribute, and bumps the ``session.cache.hit`` /
``session.cache.miss`` counters of the active tracer.  A session built
with ``fresh_when_traced=True`` (what the :mod:`repro.api` facade uses)
recomputes stages whenever tracing is enabled, so a traced run always
observes the real pipeline rather than a cache lookup.
"""

from __future__ import annotations

import contextlib
import pickle
from typing import Any, Mapping, Optional

from repro.cssame.builder import CSSAMEForm
from repro.ir.printer import format_ir
from repro.ir.structured import ProgramIR, clone_program
from repro.mutex.races import RaceReport
from repro.mutex.warnings import SyncWarning
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.opt.pipeline import OptimizationReport
from repro.session.artifacts import ArtifactCache, CacheStats, derive_key, source_key
from repro.session.stages import STAGES, payload_stage
from repro.vm.bytecode import VMProgram

__all__ = ["Session"]

_DEFAULT_PASSES = ("constprop", "pdce", "licm")

#: per-journey option defaults, the same values the journey methods
#: default to — :meth:`Session.artifact_key` fills a request with these
#: before applying the caller's overrides
_CHAIN_DEFAULTS: dict[str, dict] = {
    "ast": {},
    "ir": {},
    "cssame": {"prune": True, "prune_events": True},
    "diagnostics": {},
    "optimized": {
        "passes": _DEFAULT_PASSES,
        "use_mutex": True,
        "fold_output_uses": True,
        "simplify": True,
    },
    "dot": {"title": "PFG", "prune": True, "prune_events": True},
    "bytecode": {},
}


def _tracing(trace: Optional[Tracer]):
    if trace is None:
        return contextlib.nullcontext()
    return use_tracer(trace)


class Session:
    """A caching pipeline driver over the stage graph.

    Parameters
    ----------
    max_entries:
        Artifact-cache bound (LRU eviction); ``None`` = unbounded.
    cache:
        An explicit artifact store to use instead of a fresh in-memory
        :class:`ArtifactCache` — anything with the same ``get`` /
        ``put`` / ``MISSING`` / ``stats`` surface.  This is how
        ``repro.serve`` layers its persistent on-disk store under the
        session (``max_entries`` is ignored when ``cache`` is given);
        ``put`` is told which artifacts are payloads worth persisting.
    fresh_when_traced:
        When ``True``, any request made while tracing is enabled
        recomputes every stage it touches (and refreshes the cache with
        the results).  This preserves the one-shot observability
        contract of the legacy ``repro.api`` helpers: a traced run's
        spans and events always describe a full pipeline execution.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        fresh_when_traced: bool = False,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.cache = cache if cache is not None else ArtifactCache(max_entries=max_entries)
        self.fresh_when_traced = fresh_when_traced

    # -- the generic stage walk ---------------------------------------------

    def _options_for(self, stage: str, request: Mapping[str, Any]) -> dict:
        spec = STAGES[stage]
        return {name: request[name] for name in spec.option_names}

    def _key_for(self, stage: str, source: str, request: Mapping[str, Any]) -> str:
        """Artifact key of ``stage`` by walking the parent chain."""
        spec = STAGES[stage]
        if spec.parent is None:
            parent_key = source_key(source)
        else:
            parent_request = dict(request)
            if spec.parent_options:
                parent_request.update(spec.parent_options)
            parent_key = self._key_for(spec.parent, source, parent_request)
        return derive_key(
            stage,
            parent_key,
            self._options_for(stage, request),
            schema=spec.option_names,
        )

    def artifact_key(self, stage: str, source: str, **options: Any) -> str:
        """The public artifact key of ``stage`` for ``source``.

        ``options`` must name every option of the stage *chain* that
        differs from the journey defaults (the same names the journey
        methods accept).  Used by the serve layer for provenance and by
        store tooling; computing a key never computes the artifact.
        """
        request = dict(_CHAIN_DEFAULTS.get(stage, {}))
        request.update(options)
        return self._key_for(stage, source, request)

    def _artifact(self, stage: str, source: str, request: Mapping[str, Any]) -> Any:
        """The ``stage`` artifact for ``source``, computing on miss.

        ``request`` maps option names (for the whole chain) to values;
        each stage picks out the names it declares.
        """
        spec = STAGES[stage]
        key = self._key_for(stage, source, request)
        tracer = get_tracer()
        bypass = self.fresh_when_traced and tracer.enabled
        value = self.cache.MISSING if bypass else self.cache.get(key, stage)
        hit = value is not self.cache.MISSING
        if tracer.enabled:
            tracer.counter(
                "session.cache.hit" if hit else "session.cache.miss"
            ).inc()
        if hit:
            with tracer.span(f"stage:{stage}", cache_hit=True):
                pass
            return pickle.loads(value) if spec.wire else value
        if spec.parent is None:
            parent_value = source
        else:
            parent_request = dict(request)
            if spec.parent_options:
                parent_request.update(spec.parent_options)
            parent_value = self._artifact(spec.parent, source, parent_request)
        with tracer.span(f"stage:{stage}", cache_hit=False):
            value = spec.compute(parent_value, self._options_for(stage, request))
        if tracer.enabled:
            # Deterministic work hook: one unit per stage actually
            # computed (cache hits cost no stage work by definition).
            tracer.counter(f"work.session.compute.{stage}").inc()
        if spec.wire is None:
            self.cache.put(key, value, persist=False)
        else:
            # A payload is cached pickled: compact, and every hit decodes
            # private containers, so no caller can edit a cached answer
            # (this one hands out the containers it just built).
            self.cache.put(key, pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
        return value

    # -- journeys ------------------------------------------------------------

    def front_end(
        self, source: str, trace: Optional[Tracer] = None
    ) -> ProgramIR:
        """Parse and lower ``source``; returns a private, mutable copy."""
        with _tracing(trace):
            return clone_program(self._artifact("ir", source, {}))

    def analyze(
        self,
        source: str,
        prune: bool = True,
        prune_events: bool = True,
        trace: Optional[Tracer] = None,
    ) -> CSSAMEForm:
        """CSSAME form of ``source`` (``prune=False`` → plain CSSA).

        The returned form is the cached artifact — treat it as
        read-only.
        """
        with _tracing(trace):
            return self._artifact(
                "cssame",
                source,
                {"prune": prune, "prune_events": prune_events},
            )

    def diagnose(
        self, source: str, trace: Optional[Tracer] = None
    ) -> tuple[list[SyncWarning], list[RaceReport]]:
        """Section 6 diagnostics (sync warnings + potential races)."""
        with _tracing(trace):
            warnings, races = self._artifact("diagnostics", source, {})
            return list(warnings), list(races)

    def optimize(
        self,
        source: str,
        passes: tuple[str, ...] = _DEFAULT_PASSES,
        use_mutex: bool = True,
        fold_output_uses: bool = True,
        simplify: bool = True,
        trace: Optional[Tracer] = None,
    ) -> OptimizationReport:
        """The paper's optimization pipeline; cached per option tuple."""
        with _tracing(trace):
            return self._artifact(
                "optimized",
                source,
                {
                    "passes": tuple(passes),
                    "use_mutex": use_mutex,
                    "fold_output_uses": fold_output_uses,
                    "simplify": simplify,
                },
            )

    def dot(
        self,
        source: str,
        title: str = "PFG",
        prune: bool = True,
        trace: Optional[Tracer] = None,
    ) -> str:
        """DOT rendering of the PFG (CSSAME, or CSSA with ``prune=False``)."""
        with _tracing(trace):
            return self._artifact(
                "dot",
                source,
                {
                    "title": title,
                    "prune": prune,
                    "prune_events": True,
                },
            )

    def bytecode(self, source: str, trace: Optional[Tracer] = None) -> VMProgram:
        """VM bytecode of the (unoptimized) program."""
        with _tracing(trace):
            return self._artifact("bytecode", source, {})

    def payload(
        self,
        stage: str,
        source: str,
        options: Optional[Mapping[str, Any]] = None,
        trace: Optional[Tracer] = None,
    ) -> tuple[dict, tuple]:
        """The JSON-ready ``(artifacts, diagnostics)`` of wire ``stage``.

        ``options`` are the wire stage's options (unnamed ones take the
        journey defaults).  A warm call is one cache lookup that decodes
        a private copy of the cached plain data.
        """
        spec = payload_stage(stage)
        if spec is None:
            raise KeyError(f"no payload node for wire stage {stage!r}")
        request = dict(_CHAIN_DEFAULTS[spec.parent])
        request.update(options or {})
        with _tracing(trace):
            return self._artifact(spec.name, source, request)

    # -- bookkeeping ---------------------------------------------------------

    def listing(self, program: ProgramIR) -> str:
        """Source-like listing of a program in any form."""
        return format_ir(program)

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction accounting for this session's cache."""
        return self.cache.stats

    def clear_cache(self) -> None:
        """Drop every cached artifact (accounting is preserved)."""
        self.cache.clear()

    def __repr__(self) -> str:  # pragma: no cover
        stats = self.cache.stats
        return (
            f"Session(artifacts={len(self.cache)}, hits={stats.hits}, "
            f"misses={stats.misses})"
        )
