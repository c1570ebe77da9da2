(** The structural memo cache for per-pair dependence test results.

    The corpus repeats structurally identical reference pairs thousands of
    times (same subscript shapes, same bounds, different loop-variable
    names). Queries are canonicalized by {!Dt_engine.Key}; a hit returns
    the cached {!Pair_test.t} rehydrated into the querying pair's index
    space, so the driver skips the whole SIV/MIV/Delta cascade.

    Correctness contract: for structurally identical queries A (cached)
    and B (hitting), [find] returns exactly what [Pair_test.test] would
    compute for B — direction vectors are positional and carry over
    unchanged; loop indices inside distances, symbolic distance affines
    and classification metadata are translated A-index -> B-index through
    the canonical form (including the driver's tick-renamed sink indices,
    e.g. [I'] -> [K']).

    Counters contract: each entry stores the counter increments of the
    producing run; [find] replays them into the caller's accumulator, so
    {!Counters} totals — the paper's §6 tables — are cache-invariant.
    {!Dt_obs.Metrics} is *not* replayed: metrics report what actually
    executed, plus explicit cache hit/miss counts.

    The table is domain-safe (see {!Dt_engine.Memo}); concurrent workers
    of the parallel engine share one cache. It lives for the process:
    what outlives a run is the serve daemon's store of rendered routine
    answers, not pair verdicts. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the resident entries (FIFO eviction past it, see
    {!Dt_engine.Memo}); omitted means unbounded. *)

val find : t -> Dt_engine.Key.t -> counters:Counters.t -> Pair_test.t option
(** On a hit, returns the rehydrated result and replays the entry's
    counter deltas into [counters]. Bumps the hit/miss statistics. *)

val store : t -> Dt_engine.Key.t -> counters:Counters.t -> Pair_test.t -> unit
(** [counters] must hold exactly the increments recorded while computing
    this result (run the test against a fresh accumulator). *)

val hits : t -> int
val misses : t -> int
val hit_rate : t -> float
val length : t -> int

val evictions : t -> int
(** Entries dropped by capacity eviction. *)

