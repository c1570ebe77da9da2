(** Affine (linear + constant) expressions over loop indices and
    loop-invariant symbolic constants.

    An affine form is [sum_k a_k * i_k + sum_j s_j * N_j + c] where the
    [i_k] are loop indices, the [N_j] are symbolic constants (e.g. the [N]
    of a symbolic loop bound), and [c] is an integer. This is the only
    subscript language the dependence tests consume; anything the frontend
    cannot bring into this form is flagged nonlinear and excluded from
    testing (the paper does the same).

    The symbolic part directly supports the paper's section 4.5: subtracting
    two affine forms cancels matching symbolic terms, which is exactly the
    "symbolic additive constant" handling of the enhanced ZIV/SIV tests. *)

type t = private {
  idx : int Index.Map.t;  (** index coefficients; zero entries absent *)
  sym : int Smap.t;  (** symbolic-constant coefficients; zero entries absent *)
  const : int;
}

val zero : t
val const : int -> t
val of_index : ?coeff:int -> Index.t -> t
val of_sym : ?coeff:int -> string -> t

val make : idx:(Index.t * int) list -> sym:(string * int) list -> const:int -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t
val add_const : int -> t -> t

val div_exact : t -> int -> t option
(** Divide every coefficient and the constant by [k] when all are
    divisible; [None] otherwise (or when [k = 0]). *)

val content : t -> int
(** Gcd of all coefficients and the constant (non-negative). *)

val coeff : t -> Index.t -> int
val sym_coeff : t -> string -> int
val const_part : t -> int
val set_coeff : t -> Index.t -> int -> t

val indices : t -> Index.Set.t
(** Indices with non-zero coefficient. *)

val syms : t -> string list
val index_terms : t -> (Index.t * int) list
val sym_terms : t -> (string * int) list

val is_const : t -> bool
(** No index and no symbolic term. *)

val as_const : t -> int option
(** [Some c] iff [is_const]. *)

val is_sym_free : t -> bool
val drop_index : t -> Index.t -> t
(** Remove the term for one index. *)

val subst_index : t -> Index.t -> t -> t
(** [subst_index t i e] replaces every occurrence [a*i] by [a*e]. *)

val eval : t -> index_env:(Index.t -> int) -> sym_env:(string -> int) -> int
val eval_syms : t -> sym_env:(string -> int option) -> t
(** Partially evaluate known symbolic constants. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_buffer : Buffer.t -> t -> unit
(** Append the form as text, e.g. ["2*I - J + N - 3"]: index terms,
    then symbolic terms, then the constant; ["0"] for the zero form. *)

val pp : Format.formatter -> t -> unit
(** {!to_buffer}'s text as one [Format] string (no break hints). *)

val to_string : t -> string
