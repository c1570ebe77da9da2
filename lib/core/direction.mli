(** Dependence directions and direction sets.

    For a dependence from source iteration alpha to sink iteration beta, the
    direction for loop index i is:
      [Lt]  alpha_i < beta_i   (written '<')
      [Eq]  alpha_i = beta_i   (written '=')
      [Gt]  alpha_i > beta_i   (written '>')

    A {!set} is a non-empty-or-empty subset of the three directions; the
    full set is the paper's '*'. Sets form the refinement lattice used by
    the Banerjee direction-vector hierarchy. *)

type t = Lt | Eq | Gt

val all : t list
val negate : t -> t
(** '<' <-> '>', '=' fixed — reversing source and sink. *)

val of_distance : int -> t
(** Direction implied by distance [d = beta_i - alpha_i]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val compare : t -> t -> int

type set = { lt : bool; eq : bool; gt : bool }

val empty_set : set
val full_set : set
(** The paper's '*'. *)

val single : t -> set
val of_list : t list -> set
val mem : t -> set -> bool
val union : set -> set -> set
val inter : set -> set -> set
val is_empty : set -> bool
val is_full : set -> bool
val elements : set -> t list
val subset : set -> set -> bool
val negate_set : set -> set
val cardinal : set -> int
val set_compare : set -> set -> int
val set_equal : set -> set -> bool
val set_to_buffer : Buffer.t -> set -> unit
(** '*' for the full set, '0' for the empty set, '<=' for {<,=}, etc. *)

val pp_set : Format.formatter -> set -> unit
