(** Data dependences between statement instances (paper §2.1).

    A dependence records its endpoints (statement ids), its kind (true/
    flow, anti, output, input), the direction vector over the common loops
    of the two statements, the carried level (the outermost non-'='
    position, 1-based; [None] for loop-independent dependences), and any
    exact distance facts. *)

open Dt_ir

type kind = Flow | Anti | Output | Input

type t = {
  src_stmt : int;
  snk_stmt : int;
  array : string;
  kind : kind;
  dirvec : Dirvec.t;  (** over the common loops of the two statements *)
  level : int option;  (** [Some k]: carried by loop k; [None]: loop-independent *)
  distances : (Index.t * Outcome.dist) list;
}

val kind_name : kind -> string
val is_carried_at : t -> int -> bool
(** Carried exactly at that (1-based) level. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the dependence's one-line text, without a newline, e.g.
    ["S1 -flow-> S2 A (<,=) carried level 1 d_I=1"]. *)

val pp : Format.formatter -> t -> unit
val compare : t -> t -> int
