(** The serve wire protocol.

    Requests and responses are single JSON objects ({!Dt_obs.Json}),
    framed by {!Dt_support.Frame} (4-byte big-endian length prefix). A
    request carries an ["op"] and the wire {!version} under ["v"]; a
    response always carries ["ok"], with either the op's payload or an
    ["error"] message. A client may stream any number of requests over
    one connection. *)

val version : int
(** The wire version this build speaks (3). A request without ["v"] is
    read as version 1 — the PR 8 protocol, still accepted — while a
    ["v"] above {!version} is refused with an error response, so an old
    daemon fails loud instead of misreading a future frame. v2 added
    trace ids and the introspection ops; v3 adds the optional analyze
    deadline and the structured {!overloaded} response. *)

type request =
  | Analyze of {
      source : string;
      id : string option;
      trace_id : string option;
      deadline_ms : int option;
    }
      (** Analyze one compilation unit (mini-Fortran or the C fragment,
          auto-detected). [id] is echoed back for request matching;
          [trace_id] is the client-generated {!Dt_obs.Reqtrace} id that
          keys this request's entry in the daemon's slow ledger.
          [deadline_ms] is the client's total latency budget: the daemon
          subtracts the time the request waited in its queue and runs
          the analysis under the {e remaining} budget
          ({!Deptest.Analyze.Config} [deadline_ms]), shedding outright
          with {!deadline_exceeded} when nothing remains. *)
  | Metrics of { prometheus : bool }
      (** The daemon's metrics snapshot: JSON, or the Prometheus text
          exposition when [prometheus]. *)
  | Health
      (** Liveness plus daemon vitals: uptime, requests in flight,
          totals, sampler settings, pool/cache usage, saturation. *)
  | Slow of { n : int option }
      (** The newest [n] (default: ring capacity) request summaries from
          the slow ledger, newest first. *)
  | Top of { n : int option }
      (** The [n] (default: board capacity) slowest requests observed,
          slowest first. *)
  | Trace_last of { trace_id : string option }
      (** The most recent retained span capture — or the capture for
          [trace_id] when given — exported as a Chrome trace. *)
  | Flush  (** Persist the disk cache now. *)
  | Shutdown  (** Stop the daemon after responding. *)

val request_to_json : request -> Dt_obs.Json.t
val request_of_json : Dt_obs.Json.t -> (request, string) result

val endpoint_of : request -> string
(** The op slug — the [endpoint] label on the daemon's request metrics
    and ledger entries. *)

val endpoints : string list
(** Every op slug, for pre-registering metric series at startup. *)

val error : string -> Dt_obs.Json.t
(** [{"ok":false,"error":msg}]. *)

val ok : (string * Dt_obs.Json.t) list -> Dt_obs.Json.t
(** [{"ok":true, ...fields}]. *)

(** What the daemon answers a request with. An analyze answer keeps
    its output as the rendered routines' texts, in order, each already
    JSON-escaped ({!Dt_obs.Json.escape}, as the response tier stores
    them), so the server writes them into the response frame with one
    blit each and never builds or escapes the concatenated answer. *)
type response =
  | Reply of Dt_obs.Json.t
  | Answer of {
      output : string array;
      fields : (string * Dt_obs.Json.t) list;
    }
      (** [{"ok":true,"output":OUTPUT,...fields}], [OUTPUT] being the
          text of {!text_of_parts}[ output]. *)

val text_of_parts : string array -> string
(** The plain text of an answer's escaped parts: their concatenation,
    unescaped. Raises [Invalid_argument] if it is not the body of a
    JSON string. *)

val response_json : response -> Dt_obs.Json.t
(** The response as one JSON value, for in-process callers. *)

val write_response : Dt_support.Frame.Out.t -> response -> unit
(** Replace the frame's payload with the response's JSON text: the
    bytes of [Dt_obs.Json.to_string (response_json r)]. *)

val overloaded : retry_after_ms:int -> Dt_obs.Json.t
(** The admission-control shed response:
    [{"ok":false,"error":"overloaded","overloaded":true,
    "retry_after_ms":N}]. Always a structured reply on a healthy
    connection — overload never drops the connection — and always
    retryable: [retry_after_ms] (clamped to at least 1) is the daemon's
    estimate of when capacity frees up. *)

val deadline_exceeded : waited_ms:int -> Dt_obs.Json.t
(** The shed response for a request whose own [deadline_ms] budget was
    already spent queueing. Not retryable — the budget belonged to the
    request, so the client reports it rather than trying again. *)

val retry_after_of : Dt_obs.Json.t -> int option
(** [Some ms] iff the response is an {!overloaded} shed; the client's
    retry loop sleeps at least this long before the next attempt. *)

val is_deadline_exceeded : Dt_obs.Json.t -> bool
