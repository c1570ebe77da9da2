(** The metrics registry: named families of counters, gauges and
    histograms for the dependence-test driver and the serve daemon.

    Each family declares its name, HELP text, type, optional label and
    merge rule once; {!merge_into} and {!to_prometheus} are derived from
    the declarations, so a new metric is one declaration plus its
    recorder. The built-in families count, per test kind, how often each
    test ran and proved independence (the paper's §6 Table-3 quantities,
    measured as executed work — [Deptest.Counters] keeps the
    cache-replayed logical counts), with wall-clock time per test kind
    and per analysis phase (parse / partition / test / merge), a
    log-scale histogram of per-reference-pair latency, and the cache,
    Banerjee-kernel, guard and engine counters. All times are
    nanoseconds from the monotonic {!Clock}. Recorders index arrays
    through handles resolved when the registry is created; none hashes a
    string. *)

type phase = Parse | Partition | Test | Merge

val phases : phase list
val phase_name : phase -> string

type t

val create : unit -> t

val record : t -> Test_kind.t -> indep:bool -> ns:int64 -> unit
(** One application of a dependence test: bump applied (and independent
    when proven), add [ns] to the kind's total. *)

val timed : t option -> phase -> (unit -> 'a) -> 'a
(** Run the thunk, adding its wall-clock time to the phase total.
    With [None] the thunk runs untimed (no clock call). Exception-safe:
    time is accounted even when the thunk raises. *)

val add_phase_ns : t -> phase -> int64 -> unit

val observe_pair : t -> ns:int64 -> unit
(** One reference pair completed in [ns]: bump the pair count, total, and
    the latency histogram bucket. *)

val cache_hit : t -> unit
(** One pair verdict served by the structural memo cache. Unlike
    {!Counters} (which the engine replays on hits so the paper's §6
    tables stay cache-invariant), metrics report what actually executed:
    a hit bumps this counter and the pair histogram, never the per-kind
    test counts. *)

val cache_miss : t -> unit
val cache_hits : t -> int
val cache_misses : t -> int

val set_cache_usage : t -> size:int -> evictions:int -> unit
(** Snapshot the memo table's growth after a run: resident entries and
    capacity evictions. A snapshot of shared state, not an increment —
    {!merge} keeps the larger value rather than summing, so per-worker
    registries observing one shared cache don't multiply it. *)

val cache_size : t -> int
val cache_evictions : t -> int

val set_disk_cache : t -> hits:int -> misses:int -> invalid:int -> unit
(** Snapshot the disk-backed store's counters ({!Dt_engine.Store}-style
    hits/misses plus invalid objects skipped). Snapshot semantics like
    {!set_cache_usage}: {!merge} keeps the larger value. *)

val disk_hits : t -> int
val disk_misses : t -> int
val disk_invalid : t -> int

val banerjee_compile : t -> unit
(** One subscript pair compiled into its linear-form kernel
    ({!Dt_ir.Linform}-style dense arrays) for the Banerjee evaluator. *)

val banerjee_node : t -> incremental:bool -> unit
(** One §4.4 hierarchy-node feasibility evaluation: [incremental] when
    served by the running-sum evaluator (one index's contribution swapped
    in O(1)), scratch when the node was recombined from scratch. *)

val banerjee_cap : t -> unit
(** One Banerjee evaluation whose vertex cross product exceeded the combo
    cap and conservatively assumed feasibility (see the [banerjee] block
    of {!to_json} and the paired trace note). *)

val degraded : t -> [ `Overflow | `Exception | `Budget ] -> unit
(** One reference pair degraded to the conservative full
    direction-vector verdict, bucketed by the guard's reason (checked
    arithmetic overflow, a contained exception, or an exhausted work
    budget / deadline). Feeds the [guard] block of {!to_json}. *)

val degraded_pairs : t -> int
(** Total degraded pairs across every reason. *)

val degraded_by : t -> [ `Overflow | `Exception | `Budget ] -> int

val engine_task : t -> domain:int -> ns:int64 -> unit
(** One engine work leaf executed by worker [domain] in [ns]: bump the
    domain's task count and busy time. *)

val engine_wait : t -> domain:int -> ns:int64 -> unit
(** Worker [domain] spent [ns] acquiring work (own-deque pop, steal
    attempts, idle backoff). *)

val engine_steal : t -> domain:int -> unit
(** Worker [domain] stole a range from another worker's deque. *)

val engine_registry : t -> unit
(** One per-worker metrics registry was created for this run; after the
    engine's deterministic merge the total counts the workers that
    participated. *)

val engine_registries : t -> int

val engine_shards : t -> n:int -> unit
(** [n] routine-grain shards were dispatched to the pool (one per
    routine in a batched {e run_all}-style analysis). *)

val shards : t -> int

val engine_rows : t -> (int * int * int * int64 * int64) list
(** [(domain, tasks, steals, busy_ns, queue_wait_ns)] per domain that
    executed work, sorted by domain id. Empty when the engine never
    reported. *)

(** {2 Serve-daemon request accounting}

    Whole-request observations from the long-lived [deptest serve]
    daemon: a latency histogram per protocol endpoint and a counter per
    cache tier that answered an analyze. The request buckets run two
    decades above {!bucket_bounds_ns}, since a request spans many pairs.
    Both are summed by {!merge_into}, and — unlike every batch family —
    are exported (JSON [serve] block, Prometheus [deptest_serve_*]
    families) only once at least one endpoint or tier has been
    registered, so batch-run snapshots stay byte-identical to pre-daemon
    ones. *)

val serve_request : t -> endpoint:string -> ns:int64 -> unit
(** One daemon request on [endpoint] answered in [ns]: bump the
    endpoint's count, total, and histogram bucket. *)

val serve_endpoint : t -> endpoint:string -> unit
(** Pre-register [endpoint] at zero so its series appear in every
    scrape (the daemon registers all protocol endpoints at startup). *)

val serve_answered : t -> tier:string -> unit
(** One analyze request answered by cache tier [tier] (a
    {!Reqtrace.tier_name} slug). *)

val serve_tier : t -> tier:string -> unit
(** Pre-register [tier] at zero, like {!serve_endpoint}. *)

val banerjee_compilations : t -> int
val banerjee_incremental_nodes : t -> int
val banerjee_scratch_nodes : t -> int
val banerjee_caps : t -> int

val applied : t -> Test_kind.t -> int
val proved_indep : t -> Test_kind.t -> int
val kind_ns : t -> Test_kind.t -> int64
val phase_ns : t -> phase -> int64
val pairs : t -> int
val pair_ns_total : t -> int64

val bucket_bounds_ns : int64 array
(** Upper bounds (inclusive) of the latency buckets; one extra overflow
    bucket follows the last bound. *)

val latency_hist : t -> int array
(** Bucket counts; length [Array.length bucket_bounds_ns + 1]. *)

val merge_into : t -> t -> unit
(** [merge_into acc extra] folds every family of [extra] into [acc] by
    its declared rule: increments sum, while the memo and disk snapshots
    keep the larger value. Families [acc] lacks are added to it. *)

val merge : t -> t -> t
(** Fresh registry holding the sum — commutative and associative, so the
    parallel engine's per-domain registries merge deterministically. *)

val to_json : t -> Json.t
(** The metrics snapshot: schema ["deptest-metrics/2"], per-kind
    [tests] rows (kind, name, applied, independent, total_ns), [phases]
    totals, [pairs] with the latency histogram, [cache]
    hits/misses/hit_rate/size/evictions, [banerjee] kernel counters
    (kernel_compilations, incremental_nodes, scratch_nodes,
    combo_cap_fallbacks), the [guard] block (degraded pair total and
    by_reason overflow / exception / budget buckets), and the [engine]
    block (merged registries, per-domain tasks / busy_ns / queue_wait_ns
    rows plus totals) — see README. *)

val pp : Format.formatter -> t -> unit
(** The per-kind time/count table — the §6 Table-3 shape with wall-clock
    columns — followed by phase totals and the latency histogram. *)

val to_prometheus : ?build:(string * string) list -> t -> string
(** The snapshot in Prometheus text exposition format (version 0.0.4):
    one [# HELP]/[# TYPE] family header per metric, stable metric names
    under the [deptest_] prefix, label values escaped, and the pair
    latency histogram as cumulative [_bucket{le=...}] samples (bounds
    from {!bucket_bounds_ns} plus [+Inf]) with [_sum]/[_count]. Every
    per-kind series is emitted even at zero, so the set of series never
    depends on the workload. This is the exposition surface
    [deptest analyze --prom] writes and the serve daemon mounts.

    Leads with a [deptest_build_info] gauge (constant [1]) carrying the
    git-describe label, the metrics and trace schema versions, and any
    extra [build] labels the caller adds (the daemon adds its store
    schema) — scrapes join on it to correlate drift with deploys. When
    the serve tables are non-empty, appends the
    [deptest_serve_request_duration_ns] per-endpoint histogram (bounds
    two decades above the pair bounds) and the
    [deptest_serve_answered_total] per-tier counter, then every family
    registered through {!counter} and {!gauge}. Label values never
    contain spaces, so line-oriented consumers can split on
    whitespace. *)

(** {2 Caller-registered families}

    A long-lived owner of a registry (the serve daemon) declares its own
    unlabelled counters and gauges here. They are exported by
    {!to_prometheus} after the built-in families, in registration
    order, and are not part of {!to_json}'s fixed layout. *)

type cell
(** Handle to the single series of an unlabelled family. *)

val counter : t -> string -> help:string -> cell
(** Register a counter family; {!merge_into} sums it. *)

val gauge : t -> string -> help:string -> cell
(** Register a gauge family; {!merge_into} keeps the larger value. *)

val add : cell -> int -> unit
val set : cell -> int -> unit
val get : cell -> int
