module Json = Dt_obs.Json
module Frame = Dt_support.Frame

type t = Unix.file_descr

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     close_quiet fd;
     raise e);
  fd

let request fd req =
  Frame.write fd (Json.to_string (Protocol.request_to_json req));
  match Frame.read fd with
  | None -> failwith "server closed the connection"
  | Some payload -> (
      match Json.of_string payload with
      | Ok json -> json
      | Error e -> failwith ("bad response JSON: " ^ e))

let close fd = close_quiet fd

(* --- the resilient path ------------------------------------------- *)

module Retry = struct
  type t = {
    attempts : int;
    base_ms : int;
    cap_ms : int;
    seed : int64;
    retry_truncated : bool;
  }

  let none =
    { attempts = 1; base_ms = 0; cap_ms = 0; seed = 1L; retry_truncated = false }

  let default =
    {
      attempts = 3;
      base_ms = 5;
      cap_ms = 2_000;
      seed = 1L;
      retry_truncated = false;
    }

  (* splitmix64: the same tiny deterministic generator Reqtrace uses for
     trace ids — a seeded policy replays the exact backoff sequence *)
  let mix state =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let rand_below state bound =
    if bound <= 1 then 0
    else
      Int64.to_int
        (Int64.rem (Int64.logand (mix state) Int64.max_int)
           (Int64.of_int bound))

  (* decorrelated jitter: sleep ~ uniform [base, prev*3], capped. Spreads
     retry storms without synchronizing clients, and a fixed seed makes
     the whole sequence reproducible in tests. *)
  let next_backoff_ms t state ~prev_ms =
    if t.base_ms <= 0 then 0
    else
      let hi = max (t.base_ms + 1) (prev_ms * 3) in
      let ms = t.base_ms + rand_below state (hi - t.base_ms) in
      min t.cap_ms (max t.base_ms ms)

  let plan t =
    let state = ref t.seed in
    let rec go prev n acc =
      if n >= t.attempts then List.rev acc
      else
        let ms = next_backoff_ms t state ~prev_ms:prev in
        go ms (n + 1) (ms :: acc)
    in
    go t.base_ms 1 []
end

type failure =
  | Refused
  | Timed_out of [ `Connect | `Receive ]
  | Closed  (** EOF (or reset) before any response byte, retries spent *)
  | Truncated  (** mid-frame close, retries spent or not retryable *)
  | Overloaded of int  (** still overloaded after every attempt *)
  | Bad_response of string

let failure_message ~socket = function
  | Refused -> Printf.sprintf "cannot connect to %s: no daemon is listening" socket
  | Timed_out `Connect -> Printf.sprintf "timed out connecting to %s" socket
  | Timed_out `Receive ->
      Printf.sprintf "timed out waiting for a response from %s" socket
  | Closed -> Printf.sprintf "daemon at %s closed the connection before replying" socket
  | Truncated ->
      Printf.sprintf "daemon at %s closed the connection mid-response" socket
  | Overloaded ms ->
      Printf.sprintf "daemon at %s is overloaded (retry after %d ms)" socket ms
  | Bad_response e -> Printf.sprintf "bad response from %s: %s" socket e

(* A peer that vanishes mid-write must surface as EPIPE, not kill the
   process: the runtime leaves SIGPIPE at its fatal default. Forced by
   both this resilient path and [Server.run]. *)
let ignore_sigpipe =
  lazy (Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

(* one attempt: connect, send, receive — classified, never raising.
   The connect timeout rides on select too: unix-socket connects only
   block when the listener's backlog is full, i.e. exactly under the
   overload this layer exists for. *)
let attempt ~socket ~timeout_ms req =
  Lazy.force ignore_sigpipe;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let finish r = close_quiet fd; r in
  Unix.set_nonblock fd;
  let connected =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok ()
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match Unix.select [] [ fd ] [] (float_of_int timeout_ms /. 1000.) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            Error (Timed_out `Connect)
        | [], [], [] -> Error (Timed_out `Connect)
        | _ -> (
            match Unix.getsockopt_error fd with
            | None -> Ok ()
            | Some (Unix.ECONNREFUSED | Unix.ENOENT) -> Error Refused
            | Some e -> Error (Bad_response (Unix.error_message e))))
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        Error Refused
    | exception Unix.Unix_error (e, _, _) ->
        Error (Bad_response (Unix.error_message e))
  in
  match connected with
  | Error _ as e -> finish e
  | Ok () -> (
      Unix.clear_nonblock fd;
      match Frame.write fd (Json.to_string (Protocol.request_to_json req)) with
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          (* the daemon died between accept and read: the request was
             never processed, so this is as retry-safe as a refusal *)
          finish (Error Closed)
      | exception Unix.Unix_error (e, _, _) ->
          finish (Error (Bad_response (Unix.error_message e)))
      | () -> (
          let deadline_ns =
            Int64.add (Dt_obs.Clock.now_ns ())
              (Int64.mul (Int64.of_int timeout_ms) 1_000_000L)
          in
          match Frame.read_r ~deadline_ns fd with
          | Ok None -> finish (Error Closed)
          | Error Frame.Timeout -> finish (Error (Timed_out `Receive))
          | Error Frame.Truncated -> finish (Error Truncated)
          | Error (Frame.Oversize n) ->
              finish
                (Error (Bad_response (Printf.sprintf "oversized frame (%d bytes)" n)))
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
              finish (Error Truncated)
          | Ok (Some payload) -> (
              match Json.of_string payload with
              | Error e -> finish (Error (Bad_response e))
              | Ok json -> finish (Ok json))))

let call ?(retry = Retry.none) ?(timeout_ms = 30_000) ~socket req =
  let state = ref retry.Retry.seed in
  let sleep_ms ms = if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.) in
  let rec go n prev_ms =
    let outcome =
      match attempt ~socket ~timeout_ms req with
      | Ok json -> (
          match Protocol.retry_after_of json with
          | Some ms -> Error (Overloaded ms)
          | None -> Ok json)
      | Error _ as e -> e
    in
    match outcome with
    | Ok _ -> outcome
    | Error f ->
        (* only outcomes where the request provably did not complete —
           or where the daemon explicitly asked us back — are retried;
           a receive timeout may mean the analysis is still running, so
           it is surfaced, not resent. Truncated responses are re-asked
           only when the policy says the request is idempotent. *)
        let retryable =
          match f with
          | Refused | Closed -> true
          | Overloaded _ -> true
          | Truncated -> retry.Retry.retry_truncated
          | Timed_out _ | Bad_response _ -> false
        in
        if (not retryable) || n + 1 >= retry.Retry.attempts then outcome
        else begin
          let backoff = Retry.next_backoff_ms retry state ~prev_ms in
          let ms =
            match f with
            | Overloaded after -> max after backoff
            | _ -> backoff
          in
          sleep_ms ms;
          go (n + 1) (max backoff retry.Retry.base_ms)
        end
  in
  go 0 retry.Retry.base_ms

let ping ~socket ?(timeout_ms = 500) () =
  match call ~timeout_ms ~socket Protocol.Health with
  | Ok json -> (
      match Json.member "ok" json with
      | Some (Json.Bool true) -> true
      | _ -> false)
  | Error _ -> false
