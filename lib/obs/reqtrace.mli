(** Request-scoped tracing for a long-lived analysis daemon.

    Three pieces, all generic over "a request" so the serve layer stays
    a thin client:

    + {b trace ids} — 64-bit identifiers rendered as 16 lowercase hex
      characters. The {e client} generates one per request and carries
      it in the wire frame; every observation of that request (slow
      ledger entry, captured span tree, log line) is keyed by it.
    + {b sampling} — a {!Sampler} decides, before a request runs,
      whether to arm the expensive span capture (probabilistic: every
      [period]-th request) and, after it ran, whether the captured spans
      are worth retaining (threshold: wall clock at or above
      [threshold_ns]). Entry {e summaries} are always recorded — they
      are a few words each — so the slow ledger never has holes.
    + {b the slow-request ring ledger} — a fixed-capacity, allocation-
      bounded in-memory ledger holding the last-N recent request
      summaries plus the top-K by latency, with the most recent retained
      span capture kept aside for ["trace-last"] export.

    Concurrency contract: a {!Sampler} and a {!Ring} belong to the
    single daemon thread that handles requests (the serve accept loop);
    neither is locked. {!gen_id} alone is safe from any domain. *)

(** {1 Trace ids} *)

val gen_id : unit -> string
(** A fresh 64-bit trace id (16 lowercase hex chars). Mixes a global
    counter, the monotonic clock, and the pid through a splitmix64
    finalizer, so ids are unique across calls, domains, and concurrent
    client processes without coordination. *)

val is_id : string -> bool
(** Exactly 16 lowercase hex characters. *)

(** {1 Cache tiers} *)

(** Which tier of the daemon's cache hierarchy answered a request,
    coarsest first. *)
type tier =
  | Response  (** every routine from the rendered-response cache: no
                    analysis at all *)
  | Memo  (** pair verdicts replayed from the in-memory memo *)
  | Cold  (** the full test cascade ran *)
  | None_  (** not an analysis (metrics, health, ...) or an error *)

val tier_name : tier -> string
val tiers : tier list

(** {1 Entries} *)

type entry = {
  trace_id : string;
  endpoint : string;  (** protocol op slug, e.g. ["analyze"] *)
  source_digest : string Lazy.t;
      (** MD5 hex of the source, computed when the entry is first read,
          so a request pays no second hash of its source; until then
          the entry holds the source *)
  tier : tier;
  degraded : int;  (** pairs degraded conservatively in this request *)
  error : bool;  (** the request was answered with an error *)
  wall_ns : int64;
  ts_ms : int;  (** arrival time, unix epoch milliseconds *)
  spans : Span.span array;  (** [[||]] unless a capture was retained *)
}

val entry_to_json : entry -> Json.t
(** The summary fields (everything but [spans], plus a [captured]
    bool) — what the [slow] / [top] endpoints return per entry. *)

(** {1 Sampling} *)

module Sampler : sig
  type t

  val create : ?period:int -> ?threshold_ns:int64 -> unit -> t
  (** [period] (default 1) arms span capture on every [period]-th
      request; [0] never arms (summaries only). [threshold_ns]
      (default [0L]) drops a captured span tree — after the request, so
      the summary survives — unless the request's wall clock reached
      it. *)

  val period : t -> int
  val threshold_ns : t -> int64

  val arm : t -> bool
  (** Pre-request decision: capture this request's spans? Bumps the
      internal tick. *)

  val retain : t -> wall_ns:int64 -> bool
  (** Post-request decision: keep an armed capture? *)
end

(** {1 The ring ledger} *)

module Ring : sig
  type t

  val create : ?recent:int -> ?top:int -> unit -> t
  (** [recent] (default 64) bounds the newest-first ring; [top]
      (default 16) bounds the slowest-first board. *)

  val add : t -> entry -> unit
  (** Record one finished request: always enters the recent ring
      (evicting the oldest past capacity), enters the top board if it
      beats the board's floor, and — when it carries spans — replaces
      the ledger's most recent capture. *)

  val recent : ?n:int -> t -> entry list
  (** Newest first, at most [n] (default: the ring's capacity). *)

  val top : ?n:int -> t -> entry list
  (** Slowest first, at most [n] (default: the board's capacity). *)

  val find : t -> string -> entry option
  (** Look a trace id up in the recent ring, the top board, and the
      retained capture; prefers the copy that still has spans. *)

  val last_capture : t -> entry option
  (** The most recent entry whose span capture was retained. *)

  val total : t -> int
  (** Requests ever recorded (not bounded by either capacity). *)
end
