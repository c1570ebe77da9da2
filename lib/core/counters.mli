(** Instrumentation counters for the empirical study (paper §6).

    The driver and the Delta test record how many times each dependence
    test was applied and how often it proved independence — the exact
    measurements PFC was instrumented for in the paper. *)

type kind = Dt_obs.Test_kind.t =
  | Ziv_test
  | Strong_siv
  | Weak_zero_siv
  | Weak_crossing_siv
  | Exact_siv
  | Rdiv_test
  | Gcd_miv
  | Banerjee_miv
  | Delta_test
  | Symbolic_ziv  (** ZIV decided only via symbolic reasoning *)
(** Shared with the observability layer: [kind] is an equation over
    {!Dt_obs.Test_kind.t}, so counters, metrics, and trace events agree on
    the enumeration. *)

val all_kinds : kind list
val kind_name : kind -> string

val kind_id : kind -> int
(** Dense index in [0, length all_kinds): a direct pattern match, O(1). *)

type t

val create : unit -> t
val record : t -> kind -> indep:bool -> unit
val applied : t -> kind -> int
val proved_indep : t -> kind -> int
val merge_into : t -> t -> unit
(** [merge_into acc extra] adds [extra]'s counts into [acc]. *)

val merge : t -> t -> t
(** Fresh accumulator holding the sum. Commutative and associative (all
    counts are sums), so the parallel engine may merge its per-domain
    accumulators in any order and still equal the sequential run. *)

val equal : t -> t -> bool
(** Same applied and proved-independent count for every kind. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the §6 table: one newline-terminated line per kind that was
    applied at least once. *)

val pp : Format.formatter -> t -> unit
