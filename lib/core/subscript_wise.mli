(** The traditional subscript-by-subscript testing strategy (baseline).

    Every subscript position is tested independently with the Banerjee-GCD
    hierarchy and the per-dimension direction-vector sets are intersected —
    the strategy the first version of PFC used (paper §8) and the one the
    Delta test improves upon for coupled subscripts (§2.2's example shows
    it can report direction vectors that do not exist). *)

open Dt_ir

val test :
  ?counters:Counters.t ->
  ?metrics:Dt_obs.Metrics.t ->
  ?sink:Dt_obs.Trace.sink ->
  ?spans:Dt_obs.Span.t ->
  ?budget:Dt_guard.Budget.t ->
  ?scratch:Banerjee.Scratch.t ->
  Assume.t ->
  Range.t ->
  Spair.t list ->
  common:Index.t list ->
  [ `Independent of Counters.kind | `Dependent of Presult.t list ]
(** One [Presult] per subscript position; on independence, the kind of the
    test that proved it. [metrics] and [sink] feed the observability
    layer (see {!Dt_obs}). *)
