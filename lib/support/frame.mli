(** Length-prefixed message framing over Unix file descriptors.

    The serve protocol's wire unit: a 4-byte big-endian payload length
    followed by the payload bytes. Reads and writes retry on [EINTR] and
    loop over short transfers, so a frame either transfers whole or the
    call reports a broken peer. *)

val max_frame : int
(** Default payload cap (16 MiB): a length prefix beyond it is treated
    as a protocol error rather than an allocation request. *)

val write : Unix.file_descr -> string -> unit
(** Send one frame. Raises [Unix.Unix_error] on a broken peer and
    [Invalid_argument] on a payload over {!max_frame}. *)

val write_truncated : Unix.file_descr -> string -> unit
(** Chaos-harness helper: send a header promising the whole payload but
    only half the payload bytes, so the peer — once this end closes —
    observes a mid-frame end-of-stream. Exercises the receiver's
    [Truncated] containment path deterministically. *)

(** A reusable frame for a sender that writes many: one growable byte
    buffer holding the 4-byte header and the payload after it. The
    payload is written in place ({!Out.add_string} and friends, a
    [Dt_obs.Json.SINK]) and the header is patched when the frame is
    sent, so a frame costs no allocation once the buffer has grown to
    the sender's usual size, and its bytes are never copied into
    another buffer before [write]. The bytes on the wire are those of
    {!write} and {!write_truncated} for the same payload. *)
module Out : sig
  type t

  val create : unit -> t

  val clear : t -> unit
  (** Start a new, empty payload. A buffer grown past 1 MiB is
      released here rather than kept. *)

  val add_char : t -> char -> unit
  val add_string : t -> string -> unit
  val add_substring : t -> string -> int -> int -> unit

  val send : Unix.file_descr -> t -> unit
  (** {!write} of the payload: raises [Invalid_argument] over
      {!max_frame} (nothing is sent) and [Unix.Unix_error] on a broken
      peer. *)

  val send_truncated : Unix.file_descr -> t -> unit
  (** {!write_truncated} of the payload. *)
end

type error =
  | Truncated  (** end-of-stream inside a header or payload *)
  | Oversize of int
      (** the length prefix (payload bytes promised) exceeded the cap *)
  | Timeout  (** the receive deadline passed mid-frame (see {!read_r}) *)

val error_message : error -> string
(** Human-readable description, suitable for a protocol error reply. *)

val read_r :
  ?max:int -> ?deadline_ns:int64 -> Unix.file_descr -> (string option, error) result
(** Receive one frame. [Ok None] on clean end-of-stream at a frame
    boundary; [Error] on a truncated frame (peer died mid-message) or a
    length prefix over [max] (default {!max_frame}). [deadline_ns] is an
    absolute monotonic deadline (same clock as [Monotonic_clock.now]):
    each blocking read first waits in [select] for readability, and
    [Error Timeout] is returned once the deadline passes — the resilient
    client's per-attempt receive timeout. After any [Error] the stream
    position is unusable — the connection must be closed, and on
    [Oversize] the oversized payload has {e not} been drained (a
    malicious prefix need not be backed by real bytes, so draining could
    block forever). *)

val read : ?max:int -> Unix.file_descr -> string option
(** {!read_r} with errors raised as [Failure] — for callers (tests,
    one-shot tools) where a bad peer is fatal anyway. *)
