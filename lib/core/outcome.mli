(** Results of dependence tests.

    A test either proves independence or describes the possible dependences
    index-by-index: a set of legal directions plus distance information
    when it is exact. Indices of the loop nest that a partition does not
    mention are left unconstrained by that partition ('*'). *)

open Dt_ir

type dist =
  | Const of int  (** exact constant dependence distance *)
  | Sym of Affine.t  (** exact symbolic distance (symbol-only affine) *)
  | Unknown

type index_dep = { index : Index.t; dirs : Direction.set; dist : dist }

type t = Independent | Dependent of index_dep list

val dependent_star : Index.t list -> t
(** Fully unconstrained dependence on the given indices. *)

val dep1 : Index.t -> Direction.set -> dist -> t
(** Dependence info for a single index. *)

val and_outcomes : t -> t -> t
(** Conjunction: independence wins; otherwise per-index intersection of
    directions (indices are expected to be disjoint or agree). *)

val dist_of_affine : Affine.t -> dist
(** [Const] when the affine is constant, [Sym] otherwise. *)

val dirs_of_dist : Assume.t -> dist -> Direction.set
(** Direction set implied by a distance (using the sign oracle for
    symbolic distances). *)

val dist_to_buffer : Buffer.t -> dist -> unit
(** Append a distance as text: the integer, the affine form, or ["?"]. *)

val pp_dist : Format.formatter -> dist -> unit
val pp : Format.formatter -> t -> unit
val equal_dist : dist -> dist -> bool
