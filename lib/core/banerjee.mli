(** Banerjee's inequalities with the direction-vector hierarchy, combined
    with the directed GCD test (paper §4.4).

    For each candidate direction-vector assignment, the test brackets the
    dependence equation's left side [h = sum a_k*alpha_k - sum b_k*beta_k]
    between its minimum and maximum over the constrained iteration region
    and reports infeasibility when the constant [c] falls outside.

    Implementation note: instead of the classic a+/a- closed forms we
    evaluate [h] at the *vertices* of the per-index regions (segment for
    '=', triangles for '<' and '>', box for '*') — linear objectives attain
    their extremes at vertices, so the bracket is identical, and the vertex
    formulation extends directly to symbolic and triangular bounds: each
    vertex is an affine form compared against [c] by the sign oracle. This
    subsumes the paper's "triangular Banerjee" through the section 4.3
    index ranges.

    Since the compiled-kernel rewrite the hierarchy DFS is *incremental*:
    per pair, each index's vertex set is compiled once per direction into
    flat {!Dt_ir.Linform} vectors, and refining one index swaps its
    contribution in and out of running bound sums instead of recombining
    the whole cross product (DESIGN.md §8). A symbolic node over one
    symbol whose facts bound it alone is decided by per-slot extremes of
    the sign oracle's half-planes, without enumerating vertex sums
    (DESIGN.md §4). The verdicts are byte-identical to the from-scratch
    evaluator, which is kept as {!Reference}. *)

open Dt_ir

(** A per-worker scratch arena for the compiled evaluator: the
    symbolic enumeration's proof memo table and sum vector are rented
    per pair and returned when the query finishes, so a long testing
    loop stops allocating them once the arena is warm. Single-domain by design — the engine gives
    each worker its own; never share one across domains. *)
module Scratch : sig
  type t

  val create : unit -> t
end

val feasible :
  ?scratch:Scratch.t ->
  ?metrics:Dt_obs.Metrics.t ->
  ?sink:Dt_obs.Trace.sink ->
  ?budget:Dt_guard.Budget.t ->
  Assume.t ->
  Range.t ->
  Spair.t ->
  dirs:(Index.t * Direction.t option) list ->
  bool
(** Can the subscript's dependence equation hold under the (partial)
    direction assignment? [None] entries are the paper's '*'; indices of
    the pair absent from [dirs] are unconstrained, and the first binding
    of an index wins. Sound: [false] proves no solution. Includes the
    directed GCD test. [metrics] counts the evaluation (a single query
    builds its state from scratch); [sink] receives a note when the
    vertex cross product exceeds {!max_combos} and the test
    conservatively assumes feasibility. [budget] is charged one unit per
    hierarchy-node evaluation and raises {!Dt_guard.Budget.Exhausted}
    when spent — the driver catches it at the pair boundary. *)

val region_nonempty :
  Assume.t -> Range.t -> Index.t -> Direction.t option -> bool
(** Whether any (alpha_k, beta_k) satisfies the direction within the
    index's range — '<' and '>' are impossible in single-trip loops.
    [false] is a proof of emptiness. *)

val vectors :
  ?scratch:Scratch.t ->
  ?metrics:Dt_obs.Metrics.t ->
  ?sink:Dt_obs.Trace.sink ->
  ?spans:Dt_obs.Span.t ->
  ?budget:Dt_guard.Budget.t ->
  Assume.t ->
  Range.t ->
  Spair.t list ->
  indices:Index.t list ->
  [ `Independent | `Vectors of Direction.t list list ]
(** The direction-vector hierarchy: refine '*' entries outermost-first,
    keeping assignments under which *every* subscript pair is feasible.
    Returns the concrete legal vectors over [indices] (in the given
    order), or [`Independent] when none survive.

    One kernel compilation per pair (counted in [metrics]), then O(1)
    contribution swaps per hierarchy node, with the enumeration's
    buffers rented from [scratch] when given. [sink] receives a note per combo-cap
    fallback; [spans] brackets the whole hierarchy walk as one
    {!Dt_obs.Span.Banerjee} timeline span. *)

val explain :
  [ `Independent | `Vectors of Direction.t list list ] -> string
(** One-line reason for a {!vectors} verdict, for the trace layer. *)

val max_combos : int
(** Cap on the vertex cross-product size: a node whose (literal, before
    per-slot deduplication) combination count exceeds this is assumed
    feasible — sound, observable via {!Dt_obs.Metrics.banerjee_caps} and
    a trace note, no longer silent. *)

(** The pre-kernel, from-scratch evaluator: recombines every index's
    vertex contributions at each hierarchy node with persistent-map
    {!Affine} arithmetic. The semantics oracle the compiled evaluator is
    tested against, and the baseline the bench compares allocation and
    ns/node figures with. The analyzer never calls it. *)
module Reference : sig
  val feasible :
    ?metrics:Dt_obs.Metrics.t ->
    ?budget:Dt_guard.Budget.t ->
    Assume.t ->
    Range.t ->
    Spair.t ->
    dirs:(Index.t * Direction.t option) list ->
    bool
  (** As {!val:Banerjee.feasible}, evaluated from scratch (every
      evaluation counts as a scratch node in [metrics]). *)

  val vectors :
    ?metrics:Dt_obs.Metrics.t ->
    ?budget:Dt_guard.Budget.t ->
    Assume.t ->
    Range.t ->
    Spair.t list ->
    indices:Index.t list ->
    [ `Independent | `Vectors of Direction.t list list ]
  (** As {!val:Banerjee.vectors}, on the from-scratch evaluator. *)
end
