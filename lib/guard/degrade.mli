(** Degradation reasons.

    When a pair test cannot be trusted — checked arithmetic overflowed, an
    exception escaped a test, or the work budget / deadline ran out — the
    driver records one of these and assumes dependence with every
    direction vector. Degradation is always sound (a superset of the true
    dependences) and never silent: the reason lands in the pair's meta,
    the metrics [guard] block, and a trace note. *)

type reason = Overflow | Exception of string | Budget

val label : reason -> string
(** The reason's bucket name ([overflow] / [exception] / [budget]), as
    used by the metrics JSON. *)

val to_string : reason -> string
(** [label], plus the carried message for [Exception]. *)

val tag : reason -> [ `Overflow | `Exception | `Budget ]
(** The structural bucket, for consumers (like the metrics registry)
    that must not depend on this library. *)

val of_exn : exn -> reason
(** The reason a contained exception degrades a pair with: checked
    overflow, a spent budget, an injected fault (naming its site), or any
    other exception by its printed form. Callers re-raise
    [Out_of_memory] before asking: it stays fatal. *)

val pp : Format.formatter -> reason -> unit
val equal : reason -> reason -> bool
