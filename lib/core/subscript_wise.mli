(** The traditional subscript-by-subscript testing strategy (baseline).

    Every subscript position is tested independently with the Banerjee-GCD
    hierarchy and the per-dimension direction-vector sets are intersected —
    the strategy the first version of PFC used (paper §8) and the one the
    Delta test improves upon for coupled subscripts (§2.2's example shows
    it can report direction vectors that do not exist). *)

open Dt_ir

val test :
  ?obs:Dispatch.t ->
  Assume.t ->
  Range.t ->
  Spair.t list ->
  common:Index.t list ->
  [ `Independent of Counters.kind | `Dependent of Presult.t list ]
(** One [Presult] per subscript position, each from {!Dispatch.miv} over
    the common loops it mentions; on independence, the kind of the test
    that proved it. [obs] receives the counts, timings and trace of every
    test applied (default {!Dispatch.none}). *)
