(** The Delta test (paper §5): exact and efficient testing of coupled
    subscript groups.

    The algorithm (the paper's Figure 3):

    + classify each subscript of the group (ZIV / SIV / RDIV / MIV);
    + apply the exact SIV tests, turning each SIV subscript into a
      *constraint* (distance, line, or point) on its index;
    + intersect constraints index-wise — an empty intersection proves
      independence;
    + propagate SIV constraints into MIV subscripts, reducing them; when a
      reduction produces new SIV subscripts, iterate (multiple passes);
    + propagate restricted-DIV (RDIV) constraints for coupled permutation-
      style subscripts (§5.3.2);
    + any remaining MIV subscripts fall through to the GCD test and the
      Banerjee hierarchy, {!Dispatch.miv} (the paper notes more general
      tests may be used here).

    Each subscript is tested at most once per shape, so the test is linear
    in the number of subscripts. *)

open Dt_ir

type result = {
  verdict : [ `Independent | `Dependent of Presult.t list ];
  passes : int;  (** constraint-propagation passes executed *)
  leftover_miv : int;  (** MIV subscripts the Delta test could not reduce *)
}

val test :
  ?obs:Dispatch.t ->
  ?loops:Loop.t list ->
  Assume.t ->
  Range.t ->
  Spair.t list ->
  relevant:Index.Set.t ->
  result
(** Test one minimal coupled group. [relevant] is the set of common-loop
    indices. Every exact test and MIV fallback runs through {!Dispatch},
    so [obs] (default {!Dispatch.none}) records each one: §6 counters,
    per-kind metrics, a timeline leaf and a typed {!Dt_obs.Trace} event
    (the Figure-3 walkthrough example prints the trace). Its spans also
    get one {!Dt_obs.Span.Delta} bracket for the group and one
    {!Dt_obs.Span.Delta_pass} per constraint-propagation pass. Without a
    sink no trace strings are built.

    [loops] (the enclosing loops, outermost first) enables the *relational*
    RDIV refinement: combining an RDIV relation [alpha_i = beta_j + c]
    with a distance constraint on one of the indices yields a single-side
    relation such as [beta_i = beta_j + e], which is checked directly
    against triangular loop bounds (e.g. [DO I; DO J = I+1, N] refutes
    [beta_j = beta_i + e] for all [e <= 0]). This captures the paper's
    restricted-DIV constraint propagation in its strongest form. *)
