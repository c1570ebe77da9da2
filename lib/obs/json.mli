(** A minimal JSON value type with printer and parser.

    The repo depends on no JSON library, so this one module is the codec
    everywhere the repo speaks JSON: metrics snapshots and JSONL traces,
    the [deptest serve] wire protocol on both ends (the daemon and
    [Dt_serve.Client]), and the [Dt_engine.Store] disk-cache segments.
    It covers a small subset: UTF-8 strings with the standard escapes,
    62-bit ints kept distinct from floats, and order-preserving objects.
    Values printed by {!to_string} parse back to equal values with
    {!of_string}. Both work on runs of bytes rather than one byte at a
    time, since rendered answers are long. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering, stable byte for byte: the metrics
    and daemon output-parity tests pin it. *)

module type SINK = sig
  type t

  val add_char : t -> char -> unit
  val add_string : t -> string -> unit
  val add_substring : t -> string -> int -> int -> unit
end
(** Where a {!Printer} writes: [Buffer] is one; the serve daemon's
    reusable response frame ([Dt_support.Frame.Out]) is another. *)

module Printer (S : SINK) : sig
  val value : S.t -> t -> unit
  (** The bytes {!to_string} returns, written into the sink. *)

  val string : S.t -> string -> unit
  (** [value (String s)]. *)
end

val escape : string -> string
(** The bytes {!to_string} writes between the quotes of [String s]. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. The error
    string includes the byte offset. A [\u] escape takes exactly four
    hex digits, and a raw byte below 0x20 inside a string is an error
    (RFC 8259 §7: it must be escaped). *)

val equal : t -> t -> bool
(** Structural equality; object field order is significant. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val to_int : t -> int option

val to_float : t -> float option
(** [Int] values widen; everything non-numeric is [None]. *)

val to_list : t -> t list option
val to_str : t -> string option
