(** Compiled linear forms — the allocation-free mirror of {!Affine} the
    Banerjee hot path runs on.

    {!Affine} stays the general IR (persistent maps, easy algebra); this
    module does the symbolic bookkeeping {e once} per subscript pair and
    emits flat [int array] forms over a dense, interned symbol universe,
    so the inner loops of the §4.4 hierarchy evaluator are plain array
    arithmetic with no map or closure allocation.

    Two layers:
    - a {!universe} of interned symbolic constants with {!vec} vectors
      (one slot per symbol plus a trailing constant slot) and in-place
      [add]/[sub] over them;
    - a per-pair {!pair} kernel: occurring indices interned into dense
      slots with the source/sink coefficient arrays and the precomputed
      per-slot gcds the directed GCD test folds over. *)

type universe
(** An interned, sorted set of symbolic-constant names. *)

val universe : string list -> universe
(** Build a universe from a symbol list (duplicates welcome). *)

val universe_size : universe -> int
val universe_syms : universe -> string list

val sym_slot : universe -> string -> int option
(** Dense slot of a symbol, if interned. *)

type vec = int array
(** A compiled index-free affine: [universe_size u] symbol-coefficient
    slots followed by one constant slot. Structural equality and hashing
    on [vec] values agree with {!Affine.equal} on what they denote. *)

val zero_vec : universe -> vec

val compile : universe -> Affine.t -> vec
(** Compile an index-free affine whose symbols are all interned.
    @raise Invalid_argument on index terms or unknown symbols. *)

val to_affine : universe -> vec -> Affine.t
(** Inverse of {!compile} (zero slots are dropped, as {!Affine.make}
    normalizes). *)

val add_into : vec -> vec -> unit
(** [add_into dst v] adds [v] into [dst] in place. *)

val sub_into : vec -> vec -> unit

val corner : a:int -> b:int -> vec -> vec -> vec
(** [corner ~a ~b x y] is the fresh vector [a*x - b*y] — one vertex value
    [a*alpha - b*beta] of a Banerjee per-index region. *)

val add_const_vec : int -> vec -> vec
(** Fresh vector with the constant slot shifted. *)

val is_const_vec : vec -> bool
(** All symbol slots zero. *)

val const_of_vec : vec -> int

(** {2 Per-pair kernel} *)

type pair = {
  indices : Index.t array;  (** occurring indices, in {!Index.Set} order *)
  a : int array;  (** source coefficient per slot *)
  b : int array;  (** sink coefficient per slot *)
  gcd_star : int array;  (** [gcd a.(k) b.(k)] — the unconstrained/[<]/[>]
                             contribution to the directed GCD *)
  diff_eq : int array;  (** [a.(k) - b.(k)] — the ['='] contribution *)
  c : Affine.t;  (** {!Spair.diff_const}: symbolic + constant part of
                     [snk - src] *)
  c_sym_gcd : int;  (** gcd of [c]'s symbolic coefficients *)
  c_const : int;  (** [c]'s integer part *)
}

val compile_pair : src:Affine.t -> snk:Affine.t -> pair
(** Intern the pair's occurring indices and precompute every per-slot
    quantity the GCD and Banerjee tests consume. Done once per
    {!Spair.t} (see {!Spair.kernel}). *)

val slot : pair -> Index.t -> int option
(** Dense slot of an occurring index. *)

val coeffs : pair -> Index.t -> int * int
(** [(a, b)] coefficients of an index on the source/sink side;
    [(0, 0)] when the index does not occur. *)
