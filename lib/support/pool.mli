(** A Domain-based work-stealing pool for embarrassingly parallel index
    loops.

    A {!t} is a configuration handle: worker count, splitting grain and
    {!hooks} fixed once at {!create}, plus one Chase–Lev deque per
    worker ({!Deque}) that is reused across {!run} calls. Work is
    distributed by {e lazy binary splitting}: [run ~n] seeds each
    worker's deque with one contiguous index range; a worker pops its
    own deque LIFO and, while the range in hand is larger than the
    grain, pushes the upper half back (making it stealable) and
    continues on the lower half. An idle worker steals FIFO from a
    victim's top — always the largest outstanding range there, so one
    steal transfers roughly half the victim's remaining work — and
    backs off with exponential [Domain.cpu_relax] spins while a range
    is still being split elsewhere. A leaf counts as taken when a worker
    claims it, not when it finishes: once every index is claimed there
    is nothing left to steal, so an idle worker leaves its loop at
    once.

    Determinism contract (unchanged from the chunked predecessor): which
    worker processes which index is scheduling-dependent, but every
    index in [0 .. n-1] is processed exactly once, and writes to
    disjoint result slots made inside [body] are visible to the caller
    after {!run} returns (the domain joins establish the happens-before
    edge). Any result that depends only on the index — never on the
    executing worker — is therefore identical to a sequential run.

    Worker domains are spawned per {!run} and joined before it returns
    (the calling domain, worker 0, waits for the last leaves in
    [Domain.join], not in a spin); the handle owns no threads between
    runs and must not be shared by two concurrent runs. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val workers : int -> int
(** The worker ceiling a jobs request resolves to: [jobs <= 0] (auto)
    is {!recommended_jobs}, an explicit count is kept as given. The one
    resolution rule: {!create} and [Analyze] both go through it, and the
    daemon reports it as its ceiling. Whether an auto run actually fans
    out is [Analyze]'s policy (small nests and small routine batches
    stay on the calling domain); explicit oversubscription is the
    caller's to cap — on a 2-core box, 64 miv-batch units through
    [Analyze.run_all] took 2.0–2.1x as long at jobs 4 as at jobs 2. *)

type probe = {
  worker_start : int -> unit;  (** worker [w] begins its loop *)
  worker_stop : int -> unit;  (** worker [w] finished (normal exit) *)
  wait_start : int -> unit;  (** worker [w] starts acquiring work *)
  wait_stop : int -> unit;  (** worker [w] obtained a range (or the end) *)
  task_start : int -> unit;  (** worker [w] begins a grain-sized leaf *)
  task_stop : int -> unit;  (** worker [w] finished the leaf *)
  steal : thief:int -> victim:int -> unit;
      (** worker [thief] took a range from worker [victim]'s deque;
          called on the thief's domain *)
}
(** Per-worker accounting brackets, called from the worker's own domain
    — an implementation must only touch per-worker state (the engine
    hands each worker its own metrics registry and span buffer). The
    wait bracket covers the whole acquisition (own pop, steal attempts
    and backoff). On the sequential path the whole loop is bracketed as
    one task on worker 0 with no queue waits; on an exception the
    failing worker's open brackets are simply never closed. *)

val no_probe : probe
(** All callbacks no-ops. *)

type 'w hooks = {
  probe : probe;
  on_error : ('w -> int -> exn -> unit) option;
      (** per-task containment policy: when given, a [body] call that
          raises is caught at its own index — [on_error st i e] runs on
          the same worker (so it may record into the worker state and
          fill the index's result slot) and the loop continues; one
          faulty task no longer aborts the run. Applies on the
          sequential path too. Without it (or when the handler itself
          raises — strict mode) all outstanding work is abandoned, the
          workers are joined, and the first exception by worker id is
          re-raised with its backtrace. *)
}
(** The pool's one extension point: instrumentation and containment
    bundled in a single record, replacing the former loose [?probe] /
    [?on_error] arguments. *)

val hooks :
  ?probe:probe -> ?on_error:('w -> int -> exn -> unit) -> unit -> 'w hooks
(** Build a {!hooks} value; defaults: {!no_probe}, no handler. *)

val default_hooks : 'w hooks
(** [hooks ()]. *)

type 'w t
(** A pool handle; ['w] is the per-worker state type the hooks'
    [on_error] may touch. *)

val create : ?jobs:int -> ?grain:int -> ?hooks:'w hooks -> unit -> 'w t
(** [jobs] is the worker count, resolved by {!workers}: [0] (the
    default) means {!recommended_jobs}. [grain] is the leaf size of the lazy binary
    split — ranges at most this long are executed without further
    splitting; [0] (the default) picks [clamp (n / (workers * 8)) 1 64]
    per run, the grain the chunked scheduler used. *)

val jobs : _ t -> int
(** The resolved worker count (never 0). *)

val run : 'w t -> n:int -> state:(int -> 'w) -> body:('w -> int -> unit) -> 'w list
(** [run pool ~n ~state ~body] calls [body st i] exactly once for every
    [i] in [0 .. n-1] and returns the per-worker states in worker-id
    order. Each worker owns a private state value created by [state].

    With [jobs <= 1] (or [n <= 1]) everything runs in the calling
    domain in index order — the sequential reference path. Otherwise
    [min jobs n] domains run, the calling domain being worker 0.
    A raising [state] call is always fatal. *)
