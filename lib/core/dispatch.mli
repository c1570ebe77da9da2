(** The one place a dependence test is applied and recorded.

    The driver (paper §3) applies the cheapest exact test to each
    separable subscript, the Delta test (§5) applies the same tests inside
    coupled groups, and both fall back to GCD plus Banerjee (§4.4) for MIV
    subscripts. {!Pair_test}, {!Delta} and {!Subscript_wise} decide
    *which* subscript gets which test; this module runs the test and
    records it: the §6 counters, the per-kind metrics, the timeline leaf
    and one trace event per application, with the same reason strings on
    every path. *)

open Dt_ir

type t
(** The observers of one reference-pair test: counters, metrics, trace
    sink, span buffer, work budget and Banerjee scratch arena, each
    optional. *)

val make :
  ?counters:Counters.t ->
  ?metrics:Dt_obs.Metrics.t ->
  ?sink:Dt_obs.Trace.sink ->
  ?spans:Dt_obs.Span.t ->
  ?budget:Dt_guard.Budget.t ->
  ?scratch:Banerjee.Scratch.t ->
  unit ->
  t

val none : t
(** No observer, no budget, no arena: tests run and nothing is recorded. *)

(** {1 Recording} *)

val tick : t -> int64
(** Open a measurement: the clock when metrics or spans are on, else [0L]. *)

val record : t -> ?span:bool -> t0:int64 -> Counters.kind -> indep:bool -> unit
(** Close the measurement [tick] opened: bump the counters, and with one
    clock read feed both the metrics total and the timeline leaf.
    [~span:false] drops the leaf for intervals a dedicated span (the
    Banerjee or Delta bracket) already covers. *)

val span : t -> Dt_obs.Span.kind -> (unit -> 'a) -> 'a
(** Bracket the thunk as one timeline span (nothing without spans). *)

(** {1 Tracing} *)

val tracing : t -> bool
(** Whether a sink is attached: check it before building a trace string. *)

val emit : t -> Dt_obs.Trace.event -> unit
val note : t -> string -> unit

val scoped : t -> (unit -> 'a) -> 'a
(** Run the thunk one trace level deeper (see {!Dt_obs.Trace.scope}). *)

(** {1 Applying tests} *)

type 'a applied =
  | Independent of Counters.kind  (** this test proved independence *)
  | Dependent of 'a  (** not disproved; what the test learned *)

type separable =
  | Ziv of Outcome.t
  | Siv of Index.t * Siv.result
  | Rdiv of Rdiv.result

val outcome : separable -> Outcome.t

val separable :
  t -> Assume.t -> Range.t -> Spair.t -> Classify.t -> separable applied
(** Apply the exact test for the subscript's class — ZIV (counted as
    symbolic ZIV when the subscript difference is not constant), the SIV
    test of its shape, or RDIV — then record and trace it. The raw result
    lets the caller build a partition result or a Delta constraint.
    Raises [Invalid_argument] on an MIV class (see {!miv}). *)

val miv :
  t -> Assume.t -> Range.t -> Spair.t -> indices:Index.t list ->
  Presult.t applied
(** The MIV fallback: the GCD test, then, when it cannot decide, the
    Banerjee direction-vector hierarchy over [indices] (in that order).
    Both applications are recorded and traced, an inconclusive GCD
    included; the Banerjee interval is covered by its own span. The only
    call to {!Banerjee.vectors} in the analyzer. *)

val degraded : t -> Dt_guard.Degrade.reason -> unit
(** Count one degraded pair in the metrics' guard block and note it on
    the trace. *)
