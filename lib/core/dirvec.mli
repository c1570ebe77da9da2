(** Direction vectors over the common loops of a reference pair.

    A direction vector assigns a {!Direction.set} to each common loop,
    outermost first. The driver works with *sets of* direction vectors; a
    minimal complete set uses '*' entries wherever all three directions are
    legal, expanding lazily. *)

type t = Direction.set array
(** Position 0 = outermost common loop. *)

val full : int -> t
(** All-'*' vector of the given length. *)

val refine : t -> int -> Direction.set -> t option
(** Intersect position [k] with a set; [None] if the result is empty. *)

val expand : t -> t list
(** All single-direction vectors covered (cartesian expansion). *)

val concrete : t -> Direction.t list option
(** When every entry is a singleton. *)

val of_dirs : Direction.t list -> t
val level : t -> int option
(** Carried level of a concrete-enough vector: 1-based position of the
    outermost entry whose set excludes '='... more precisely the outermost
    position that is definitely not '=' when scanning; [None] if the vector
    can be all-'=' (loop-independent). A position whose set contains both
    '=' and others yields the conservative answer for the non-'=' choice,
    so [level] is defined on *concrete* vectors; on mixed vectors use
    [levels]. *)

val levels : t -> int list
(** All carried levels realizable by some concrete expansion, sorted;
    level [n+1] (represented as [Array.length + 1]) stands for
    loop-independent (the all-'=' expansion). *)

val is_forward : Direction.t list -> bool
(** First non-'=' is '<' (a legal source-to-sink execution order), or all
    '='. *)

val is_backward : Direction.t list -> bool
(** First non-'=' is '>' — denotes the reversed dependence. *)

val negate : t -> t
val merge : t list list -> t list
(** Cartesian merge of per-partition vector sets (each already over the
    full loop list, '*' on indices the partition does not constrain):
    position-wise intersection of one choice from each set; empty results
    dropped. Duplicates removed, and the list sorted by {!compare}: the
    [--explain]/[--trace] verdict text and the memo's stored verdicts
    list a pair's vectors in this order. (The dependence list
    itself is re-sorted by the orientation pass.)

    Vectors are merged as strings of one rank byte per level (see
    {!compare}), intersected through a table and deduplicated after each
    cartesian step; they are decoded once, at the end. *)

val compare : t -> t -> int
(** Shorter vectors first; then level by level, by the rank of each set
    in the order of its {!Direction.elements} list:
    [{} < {<} < {<,=} < * < {<,>} < {=} < {=,>} < {>}]. This is the order
    a polymorphic compare of the element lists gives, without building
    them. *)

val equal : t -> t -> bool
val to_buffer : Buffer.t -> t -> unit
(** Append the vector as text, e.g. ["(<,*,=)"]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val pp_concrete : Format.formatter -> Direction.t list -> unit

val distances_to_vec : int option array -> t
(** Direction vector implied by (possibly unknown) distances. *)
