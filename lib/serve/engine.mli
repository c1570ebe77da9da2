(** The daemon's analysis core: one shared configuration (memo cache +
    optional disk store + metrics registry) serving every request.

    Two cache levels answer an analyze request:
    + the response tier, at routine granularity, held in the optional
      {!Dt_engine.Store}. {!Dt_frontend.Split} cuts the source into its
      routines without lexing; each piece is keyed by the MD5 of its
      text and whether the unit has more than one routine (["rn:"] or
      ["r1:"]), and its value is that routine's rendered text, byte for
      byte. A request whose every routine hits decodes nothing and
      parses nothing; an edited unit parses, analyzes (one
      {!Deptest.Analyze.run_all}) and renders only the routines that
      missed. A unit the scanner cannot split (line continuations, C)
      is one piece. These rendered routines are all the store holds;
    + the in-process structural memo ({!Deptest.Pair_cache}) — a
      missed routine whose pairs this process has already tested skips
      the test cascade for them.

    Degraded verdicts are never cached at either level: a routine with
    a degraded pair is not stored, its undegraded siblings are. All
    verdict text comes from {!Render}, so answers are byte-identical to
    the one-shot [deptest analyze]; a piece that fails to parse sends
    the whole unit through the one-shot parse, so errors are too.

    Every request is additionally observed ({!Dt_obs.Reqtrace}): timed
    into the per-endpoint latency histogram, and — for analyze — entered
    into the slow-request ring ledger under its trace id, tagged with
    the coarsest cache tier that answered it. When the sampler arms, the
    whole analysis runs under a request-scoped {!Dt_obs.Span} profiler
    whose capture (if retained by the latency threshold) the
    [trace-last] endpoint exports as a Chrome trace. The profiler is the
    only difference between a traced and an untraced run — same memo
    cache, same store — so answers stay byte-identical either way.

    The daemon's own counters and gauges (requests, errors, sheds, queue
    depth, ...) are families on the same {!Dt_obs.Metrics} registry as
    the analysis metrics, so one exposition renders the whole scrape. *)

type t

type admission = { depth : int; waited_ns : int64 }
(** What the server loop knows about a request at service time: [depth]
    is the number of requests waiting in the queue (including this one),
    [waited_ns] how long this one sat queued before being served. *)

val no_admission : admission
(** [depth 0, waited 0] — the default for direct callers (tests, the
    drain path): nothing is ever shed under it. *)

val create :
  ?jobs:int ->
  ?cache_dir:string ->
  ?cache_capacity:int ->
  ?sample_period:int ->
  ?slow_threshold_ns:int64 ->
  ?ledger_recent:int ->
  ?ledger_top:int ->
  ?max_inflight:int ->
  ?queue_deadline_ms:int ->
  ?restarts:int ->
  unit ->
  t
(** [jobs] follows one-shot [analyze]'s parallelism policy: [0] (the
    default) is auto, so a unit of fewer than
    {!Deptest.Analyze.min_parallel_routines} routines is not sharded, a
    routine below {!Deptest.Analyze.min_parallel_sites} pairs is
    analyzed on the calling domain, and only larger work fans out to
    {!Dt_support.Pool.recommended_jobs} workers. An explicit count is
    honoured, capped at the core count (never oversubscribe). [cache_dir] attaches the persistent store, keyed by
    {!store_fingerprint} of this build; omitted means in-memory only.
    [cache_capacity] bounds both the memo and the store.

    [sample_period] (default 1: every request) arms span capture on
    every n-th analyze, [0] never; [slow_threshold_ns] (default 0: keep
    everything armed) drops captures of requests faster than it;
    [ledger_recent]/[ledger_top] (64/16) bound the ring ledger.

    [max_inflight] (default 0: unbounded) sheds an analyze request with
    {!Protocol.overloaded} when more than that many requests are queued
    at service time; [queue_deadline_ms] (default 0: none) sheds one
    that already waited longer than that in the queue. [restarts] is the
    supervised-restart count this incarnation inherits, exported on
    [health] and [deptest_serve_restarts_total]. *)

val store_fingerprint : build:string -> string
(** The disk store's fingerprint for a build label: the serve
    configuration's semantics, the store schema and the build. A store
    persisted under one label reads as invalid, and starts empty, under
    any other. {!create} uses {!Dt_obs.Build_id.git}. *)

val jobs : t -> int
(** The worker ceiling ({!Dt_support.Pool.workers} of the capped
    request): the most domains one analysis may use. *)

val store : t -> Dt_engine.Store.t option

val restarts : t -> int

val shed_total : t -> int
(** Analyze requests answered with {!Protocol.overloaded} or
    {!Protocol.deadline_exceeded} so far. *)

val deadline_exceeded_total : t -> int

val note_connection : t -> unit
(** The server accepted one client connection. *)

val note_injected_fault : t -> unit
(** The server performed one chaos-harness fault (accept drop, mid-frame
    close, response delay) — counted on
    [deptest_serve_injected_faults_total] so every injected degradation
    is observable. *)

val set_queue_depth : t -> int -> unit
(** The server publishes its current select-queue depth here; exported
    as the [deptest_serve_queue_depth] gauge and in [health]'s
    saturation block. *)

val note_protocol_error : t -> unit
(** The server dropped a connection on a framing error (oversized or
    truncated frame); counted into both [protocol_errors] and
    [errors]. *)

val analyze_source : t -> string -> (string * int, string) result
(** [Ok (rendered, degraded_pairs)] or [Error message] for a source
    text that does not parse. Used by [warm] and tests; the request
    path ({!respond}) adds tracing around the same lookup and
    computation. *)

val warm : t -> ?suite:string -> unit -> int
(** Pre-analyze the workload corpus ({!Dt_workloads.Corpus}, optionally
    one suite) through the same caching path, so a fresh daemon answers
    its first real requests warm. Returns the number of units warmed. *)

val flush : t -> int
(** Persist the disk store; the number of entries on disk after. *)

val respond :
  ?admission:admission -> t -> Protocol.request -> Protocol.response
(** Answer one request ([Shutdown] gets its [ok] response here too; the
    server loop decides to stop). Never raises.

    [admission] drives overload shedding for analyze requests only —
    introspection ops answer even when saturated. A request over the
    [max_inflight] depth or the [queue_deadline_ms] wait gets
    {!Protocol.overloaded} with a [retry_after_ms] estimated from queue
    depth times the smoothed analyze wall time; one whose own
    [deadline_ms] budget was spent queueing gets
    {!Protocol.deadline_exceeded}. Otherwise the remaining budget
    (request deadline minus queue wait) becomes the analysis deadline
    via {!Deptest.Analyze.Config}, degrading conservatively rather than
    overrunning. Sheds are counted ([shed_total]) but are not errors. *)

val handle : ?admission:admission -> t -> Protocol.request -> Dt_obs.Json.t
(** {!respond} as one JSON value ({!Protocol.response_json}): for
    in-process callers. The server writes {!respond}'s answer into its
    frame part by part instead. *)
