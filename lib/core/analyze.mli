(** Whole-program dependence analysis: enumerate reference pairs, run the
    per-pair driver (paper §3) over them — in parallel and through the
    structural memo cache when configured — orient the resulting
    direction vectors into forward / backward / loop-independent
    dependences, and collect statistics.

    {!run} analyzes one routine; {!run_all} shards a routine corpus
    across the same work-stealing pool. {!Config} bundles every knob.
    Parallelism and caching are engine concerns, never semantic ones:
    for a fixed program and configuration semantics, [run] returns the
    same {!result} (same [deps], same ordering) at every [jobs] /
    [grain] setting and with the cache on or off. *)

open Dt_ir

(** Analysis configuration: the testing strategy and symbolic facts
    (semantics), the engine knobs (worker count, splitting grain, memo
    cache), and the observability outputs (metrics registry, trace sink)
    in one value.

    A configuration [make ~cache:true] owns its memo cache: reusing the
    same [Config.t] across several {!run} calls shares the cache, so a
    corpus-wide run hits on shapes repeated across routines. The cache is
    domain-safe and semantically transparent. *)
module Config : sig
  type t

  val make :
    ?strategy:Pair_test.strategy ->
    ?include_inputs:bool ->
    ?assume:Assume.t ->
    ?jobs:int ->
    ?grain:int ->
    ?cache:bool ->
    ?cache_capacity:int ->
    ?metrics:Dt_obs.Metrics.t ->
    ?sink:Dt_obs.Trace.sink ->
    ?profiler:Dt_obs.Span.profiler ->
    ?budget:int ->
    ?deadline_ms:int ->
    unit ->
    t
  (** Defaults: [Partition_based], no input dependences, empty assume,
      [jobs = 0] (auto: one worker per recommended domain, but small
      nests — fewer than ~256 reference pairs, where a spawned domain
      (~0.1 ms to spawn and join, ~0.5 ms more once it allocates and
      faults in its minor heap) would cost more than the testing work —
      run sequentially),
      [grain = 0] (auto leaf size for the pool's lazy binary split),
      cache on and unbounded ([cache_capacity] bounds its resident
      entries with FIFO eviction), no metrics, no sink, no profiler, no
      budget, no deadline. An explicit [jobs >= 1] is honored
      literally. A trace sink forces sequential execution — a
      trace is an ordered narrative. A profiler does {e not} constrain
      the schedule: each worker domain records into its own span buffer
      and the buffers merge deterministically afterwards (see
      {!Dt_obs.Span}).

      [budget] caps the work per reference pair (in Banerjee
      hierarchy-node evaluations); a pair that exhausts it degrades to
      the conservative full direction-vector verdict. [deadline_ms]
      caps the whole analysis' wall clock: the deadline is fixed when
      {!run} starts and every pair beginning after it degrades without
      being tested ([deadline_ms = 0] degrades every pair —
      deterministic, used by the fault harness). Both degradations are
      counted in the metrics' guard block and recorded in the pair's
      [meta.degraded]; degraded verdicts are never cached. *)

  val default : t
  (** [make ()] evaluated once: note that every [run default] therefore
      shares one process-wide memo cache. *)

  (* builder-style updates (each returns a new value; [with_cache true]
     attaches a fresh cache) *)
  val with_strategy : Pair_test.strategy -> t -> t
  val with_include_inputs : bool -> t -> t
  val with_assume : Assume.t -> t -> t
  val with_jobs : int -> t -> t
  val with_grain : int -> t -> t
  val with_cache : bool -> t -> t
  val with_metrics : Dt_obs.Metrics.t option -> t -> t
  val with_sink : Dt_obs.Trace.sink option -> t -> t
  val with_profiler : Dt_obs.Span.profiler option -> t -> t
  val with_budget : int option -> t -> t
  val with_deadline_ms : int option -> t -> t

  val profiler : t -> Dt_obs.Span.profiler option
  val strategy : t -> Pair_test.strategy
  val include_inputs : t -> bool
  val assume : t -> Assume.t
  val jobs : t -> int
  val grain : t -> int
  val budget : t -> int option
  val deadline_ms : t -> int option
  val cache_enabled : t -> bool

  val cache_stats : t -> (int * int) option
  (** [(hits, misses)] of this configuration's cache, if it has one. *)

  val cache_usage : t -> (int * int) option
  (** [(size, evictions)]: resident entries and capacity evictions of
      this configuration's cache, if it has one. [run] snapshots the
      same numbers into the metrics registry's cache block. *)

  val cache_hit_rate : t -> float option
end

type pair_record = {
  array : string;
  src_stmt : int;
  snk_stmt : int;
  meta : Pair_test.meta;
  independent : bool;
}

type result = {
  deps : Dep.t list;
  pairs : pair_record list;  (** one per reference pair tested *)
  counters : Counters.t;
      (** §6 test-application counts; cache-invariant (hits replay the
          producing run's increments) *)
}

type site = {
  left : Stmt.access * Loop.t list;
  right : Stmt.access * Loop.t list;
  same_ref : bool;  (** the pair of one access with itself *)
}
(** One reference pair to test, in textual enumeration order. [left] and
    [right] are unoriented — orientation (who is source) is decided per
    direction vector after testing. *)

val sites : ?include_inputs:bool -> Nest.program -> site array
(** Pair enumeration, split from testing: every pair of accesses to the
    same array (read-read pairs only when [include_inputs]), in the
    deterministic order the sequential driver has always used. *)

val min_parallel_sites : int
(** In auto mode ([jobs = 0]) {!run} fans out to worker domains only
    when a routine has at least this many reference pairs; below it a
    spawned domain costs more than the pairs it would test. *)

val min_parallel_routines : int
(** In auto mode {!run_all} shards routines across worker domains only
    when the batch has at least this many routines. *)

val run : Config.t -> Nest.program -> result
(** Analyze one program under the given configuration. *)

val run_all : Config.t -> Nest.program list -> result list
(** Analyze a routine corpus, sharding whole routines across the
    work-stealing pool: each worker analyzes its routines sequentially
    (one {!Dt_obs.Span.Shard} bracket per routine, counted in the
    metrics' engine block) while the deque scheduler balances uneven
    routine sizes by stealing. The result list is byte-identical to
    [List.map (run cfg) progs] at every engine setting — per-routine
    counters included — with two scheduling-only differences: the
    [deadline_ms] clock is armed once for the whole batch instead of
    per routine, and a shard that faults outside the per-pair
    containment aborts the batch exactly as the corresponding [run]
    call would. Falls back to [List.map (run cfg)] (and its per-site
    parallelism policy) when there is no fan-out to gain: fewer than
    two routines, [jobs = 1], a trace sink, or auto mode on a small
    batch. *)

type component = int option * Dirvec.t * [ `Forward | `Backward ]

val decompose : Dirvec.t -> component list
(** Split a (possibly starred) direction vector into its carried components:
    [(Some k, v, `Forward)] is the part carried forward at level k;
    backward parts denote reversed dependences (vector NOT yet negated);
    [(None, v, `Forward)] is the loop-independent (all '=') part. *)

val compare_component : component -> component -> int
(** The order [Stdlib.compare] gives components, computed without the
    polymorphic traversal: by level ([None] first), then by vector
    (shorter first, then position by position, a set ranked by its
    [(lt, eq, gt)] flags read as a binary number), then [`Backward]
    before [`Forward]. *)

val components : Dirvec.t list -> component list
(** Every component of a pair's direction vectors, sorted by
    {!compare_component} with duplicates removed: the orientation pass
    emits a pair's dependences in this order. *)
