"""Single source of truth for the package version and every format version.

Everything that keys or stamps a persisted artifact reads its version here, so
the definition layer (cache keys, specs, result rows) never imports the
execution-layer module whose output the version describes.  Each constant is
re-exported from the module it describes.
"""

__version__ = "1.24.0"

#: Bump whenever the generator's event stream changes for an unchanged
#: configuration, so persistent caches keyed by ``config_fingerprint``
#: cannot serve traces produced by an older generator.
#: Version 2: rank-aware schedules (per-stage 1F1B warm-up), last-stage LM
#: head / fp32 logits, and rank + generator version in the trace metadata.
#: Version 3: expert-parallel rank asymmetry -- per-EP-rank router slices,
#: the exact balanced split at ``moe_imbalance == 0``, and the EP rank in the
#: trace metadata and fingerprint.
#: Version 4: expert-parallel all-to-all communication transients (the
#: ``moe_comm_factor`` dispatch/combine staging buffers), execution-keyed
#: router draws (the gating decision of one (layer, microbatch) execution no
#: longer depends on the rank's schedule order), and ``moe_comm_factor`` in
#: the trace metadata.
#: Version 5: inference and generation workloads -- forward-only schedules,
#: per-layer KV caches allocated at prefill and re-allocated larger per decode
#: step, decode-step transients, and ``workload_kind``/``decode_steps``/
#: ``max_new_tokens`` in the trace metadata.  Training event streams are
#: byte-for-byte unchanged from version 4.
TRACEGEN_VERSION = 5

#: Bump whenever the timeline simulator's event stream changes for an
#: unchanged configuration, so the golden timeline fixtures fail loudly (and
#: get regenerated) instead of drifting silently.
#: Version 2: hierarchical network fabric (per-tier all-to-all pricing via
#: NodeTopology), comm/compute overlap (``comm_overlap_factor``), per-phase
#: allocator-overhead injection, and ``gpus_per_node`` in the serialized
#: header.  Degenerate configurations (single-node/equal-tier, zero overlap,
#: zero overhead) reproduce version-1 event durations bit-exactly.
#: Version 3: inference and generation workloads -- forward-only pipelines
#: plus autoregressive ``decode`` events whose duration combines a per-token
#: compute share with a KV-read memory term priced at the device's HBM
#: bandwidth.  Training event streams keep their version-2 durations exactly
#: (only the serialized header's version field rotates the digests).
TIMELINE_VERSION = 3

#: Version of the serialized-plan format written by ``STAlloc.to_json_dict``.
#: Bump on incompatible changes so persistent caches discard stale entries.
#: Version 2: the static plan is five int columns (no dict per decision) and
#: the document holds no wall-clock, so equal inputs serialize to equal bytes.
#: Version 3: the dynamic request routing is stored grouped, one
#: ``[alloc_module, free_module, [req_id, ...]]`` entry per HomoLayer group
#: instead of one ``[req_id, alloc_module, free_module]`` triple per request.
PLAN_FORMAT_VERSION = 3
#: How every entry ``STAlloc.dumps`` writes begins: the version is read off
#: the head of a stored plan without parsing it.
PLAN_ENTRY_HEAD = f'{{"format_version":{PLAN_FORMAT_VERSION},'

#: Version of the binary trace entry ``Trace.entry_chunks`` writes to the
#: sweep cache (a JSON head line, then the raw bytes of the typed columns).
#: An entry of any other version is a miss, regenerated and rewritten.
#: Version 2: the head holds no digest; a loaded trace hashes its columns.
TRACE_ENTRY_VERSION = 2

#: Bump to invalidate every cached result row (e.g. when row fields change).
#: Version 2: job-level rows (multi-rank aggregation, binding rank, default
#: throughput columns) and full-precision float serialization.
#: Version 3: expert-parallel rank identity (EP coordinates in the point's
#: rank selection, coordinate-valued binding ranks) and heterogeneous
#: per-rank device budgets in the point payload.
#: Version 4: the ``comm_peak_bytes`` column (all-to-all dispatch/combine
#: transients in the trace) and ``moe_comm_factor`` in the config payload.
#: Version 5: discrete-event timeline timing -- the ``timing`` identity
#: column, the ``iteration_seconds``/``comm_seconds``/``bubble_fraction``/
#: ``mfu`` columns, and ``timing`` in the point payload.
#: Version 6: generation workloads -- the ``workload_kind`` identity column
#: and the ``decode_steps``/``kv_peak_bytes``/``decode_seconds`` columns.
RESULT_FORMAT_VERSION = 6

#: Version of the search algorithm + result schema; bump when prune logic or
#: the SearchResult serialization changes so stale goldens fail loudly.
#: Version 2: the timeline backend injects per-phase allocator overhead into
#: phase durations (shifting measured throughput) and the upper bound prices
#: the timing backend's fabric (fastest tier + collective floor).
SEARCH_VERSION = 2

#: Schema version stamped into every NDJSON meta line; bump whenever the
#: event shapes in ``repro.obs.sinks`` change incompatibly.
OBS_FORMAT_VERSION = 1
