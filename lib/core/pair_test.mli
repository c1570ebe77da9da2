(** The per-reference-pair dependence testing driver (paper §3).

    Given two references to the same array together with their enclosing
    loops, the driver:

    + renames sink-side loop indices beyond the common nest so distinct
      loops never alias;
    + excludes nonlinear subscripts (conservatively unconstrained);
    + partitions the subscript positions into separable positions and
      minimal coupled groups;
    + applies the cheapest applicable exact test on each separable
      position (ZIV / SIV / RDIV, or GCD then Banerjee for MIV) and the
      Delta test on each coupled group, every test through {!Dispatch};
    + merges the per-partition direction-vector sets into a single set
      over the common loops.

    The [Subscript_wise] strategy is the pre-Delta baseline, kept for the
    Table-4 comparison. *)

open Dt_ir

type strategy = Partition_based | Subscript_by_subscript

type meta = {
  dims : int;  (** subscript positions tested *)
  nonlinear : int;  (** positions excluded as nonlinear *)
  separable : int;
  coupled_groups : int;
  coupled_positions : int;
  classes : Classify.t list;  (** classification per linear position *)
  delta_passes : int;
  delta_leftover_miv : int;
  proved_by : Counters.kind option;
      (** when the result is [`Independent], the test that proved it;
          [None] means independence emerged from the direction-vector
          merge (no single test). Meaningless for dependent results. *)
  degraded : Dt_guard.Degrade.reason option;
      (** [Some r] when a fault (checked-arithmetic overflow, contained
          exception, exhausted budget) forced part or all of this pair to
          the conservative full direction-vector verdict. The result is
          still sound — a superset of the true dependences — but no
          longer exact; such results are never cached. *)
}

type dependence_info = {
  dirvecs : Dirvec.t list;  (** over the common loops, outermost first *)
  distances : (Index.t * Outcome.dist) list;
}

type t = { result : [ `Independent | `Dependent of dependence_info ]; meta : meta }

val common_loops : Loop.t list -> Loop.t list -> Loop.t list

val test :
  ?counters:Counters.t ->
  ?metrics:Dt_obs.Metrics.t ->
  ?sink:Dt_obs.Trace.sink ->
  ?spans:Dt_obs.Span.t ->
  ?budget:Dt_guard.Budget.t ->
  ?scratch:Banerjee.Scratch.t ->
  ?strategy:strategy ->
  ?assume:Assume.t ->
  src:Aref.t * Loop.t list ->
  snk:Aref.t * Loop.t list ->
  unit ->
  t
(** Loop lists are the statements' enclosing loops, outermost first. The
    two references must name the same array. Loop-nonemptiness facts are
    added to [assume] automatically.

    The six optional observers and resources form the pair's one
    {!Dispatch} context, which records every test applied: [counters]
    and [metrics] count and time it per kind, [sink] traces it with its
    reason (see {!Dt_obs.Trace}), [spans] adds a timeline leaf (see
    {!Dt_obs.Span}), [budget] caps the Banerjee work and [scratch] lends
    the Banerjee hierarchy a per-worker arena (it cannot change the
    verdict). [metrics] and [spans] also get this driver's partition /
    test / merge brackets. None of them costs anything when omitted.

    Fault containment: an overflow of the checked arithmetic or an
    injected fault inside one partition's test degrades that partition;
    anything escaping the partition guard — including
    {!Dt_guard.Budget.Exhausted} when [budget] runs out — degrades the
    whole pair to the full direction-vector verdict. Either way the
    reason is recorded in [meta.degraded], counted in [metrics]'s guard
    block, and noted on [sink]; the call never raises (except
    [Out_of_memory], which stays fatal). *)

val degraded_result :
  src:Aref.t * Loop.t list ->
  snk:Aref.t * Loop.t list ->
  Dt_guard.Degrade.reason ->
  t
(** The conservative verdict the engine substitutes when a pair task
    fails outside {!test}'s own guards (or is cut off by a deadline
    before starting): full direction vectors over the common loops,
    zeroed meta, [meta.degraded = Some reason]. *)
