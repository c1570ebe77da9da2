(* Tests for the overload-resilience layer: frame transfers under
   dribbled bytes, signal interruption, and receive deadlines; the
   client's retry policy (deterministic backoff plan, which failures
   are retried, exit-worthy messages naming the socket); engine-level
   admission control (depth and queue-deadline sheds, request-deadline
   budgets); server drain-on-stop; stale-vs-live socket handling; the
   fork supervisor; and the serve-layer chaos sites end-to-end. *)

module Json = Dt_obs.Json
module Frame = Dt_support.Frame
module Client = Dt_serve.Client
module Protocol = Dt_serve.Protocol
module Engine = Dt_serve.Engine
module Inject = Dt_guard.Inject

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let tmpdir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dt_resil_test_%d_%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let src =
  "      PROGRAM TRESIL\n\
  \      DO 20 I = 2, N\n\
  \        DO 10 J = 2, N\n\
  \          A(I,J) = A(I-1,J) + A(I,J-1)\n\
  \   10   CONTINUE\n\
  \   20 CONTINUE\n\
  \      END\n"

let in_process_output ?(source = src) () =
  let progs = Dt_frontend.Lower.parse_unit source in
  let cfg = Deptest.Analyze.Config.make () in
  let results = Deptest.Analyze.run_all cfg progs in
  fst (Dt_serve.Render.unit_ progs results)

let analyze ?deadline_ms ?trace_id () =
  Protocol.Analyze { source = src; id = None; trace_id; deadline_ms }

let output_of resp =
  match (Json.member "ok" resp, Json.member "output" resp) with
  | Some (Json.Bool true), Some (Json.String out) -> out
  | _ -> Alcotest.fail ("bad analyze response: " ^ Json.to_string resp)

(* --- Frame under adversity ------------------------------------------- *)

(* a peer that dribbles the frame one byte at a time must still deliver
   it whole: the reader loops over short reads at every offset *)
let test_frame_dribble () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = "{\"op\":\"health\",\"v\":3}" in
  let writer =
    Domain.spawn (fun () ->
        let header = Bytes.create 4 in
        Bytes.set_int32_be header 0 (Int32.of_int (String.length payload));
        let wire = Bytes.to_string header ^ payload in
        String.iter
          (fun c ->
            ignore (Unix.write_substring a (String.make 1 c) 0 1);
            Unix.sleepf 0.0005)
          wire;
        Unix.close a)
  in
  let got = Frame.read b in
  Domain.join writer;
  Unix.close b;
  check bool "dribbled frame arrives whole" true (got = Some payload)

(* EINTR coverage runs single-domain: the SIGALRM handler itself plays
   the peer, so no second domain mixes with the signal storm (an
   OCaml 5 runtime hazard, not a frame-layer one). *)
let stop_itimer () =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. })

(* a read blocked mid-frame is interrupted by SIGALRM, and the handler
   supplies the missing tail — only an interrupted-and-resumed read can
   ever return this payload whole *)
let test_frame_read_eintr () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = String.init 100_000 (fun i -> Char.chr (i land 0xff)) in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (String.length payload));
  ignore (Unix.write a header 0 4);
  let half = String.length payload / 2 in
  ignore (Unix.write_substring a payload 0 half);
  let fired = ref false in
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           if not !fired then begin
             fired := true;
             ignore
               (Unix.write_substring a payload half
                  (String.length payload - half))
           end))
  in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0.02 });
  let got = Frame.read b in
  stop_itimer ();
  ignore (Sys.signal Sys.sigalrm previous);
  Unix.close a;
  Unix.close b;
  check bool "the read was interrupted" true !fired;
  check bool "and resumed to the whole frame" true (got = Some payload)

let header_of len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  b

(* a write blocked on a full socket buffer is interrupted every 5 ms,
   and the handler drains the peer: the write must absorb each EINTR
   without losing or duplicating a byte of the frame *)
let test_frame_write_eintr () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock b;
  let total = 4_000_000 in
  let payload = String.init total (fun i -> Char.chr (i * 7 land 0xff)) in
  let drained = Buffer.create (total + 4) in
  let chunk = Bytes.create 65_536 in
  let rec drain_ready () =
    match Unix.read b chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes drained chunk 0 n;
        drain_ready ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain_ready ()
  in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> drain_ready ()))
  in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.005; it_value = 0.005 });
  Frame.write a payload;
  stop_itimer ();
  ignore (Sys.signal Sys.sigalrm previous);
  Unix.close a;
  let rec drain_rest () =
    match Unix.read b chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes drained chunk 0 n;
        drain_rest ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match Unix.select [ b ] [] [] 1. with
        | [], _, _ -> ()
        | _ -> drain_rest ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain_rest ()
  in
  drain_rest ();
  Unix.close b;
  let wire = Buffer.contents drained in
  check int "no byte lost or duplicated" (4 + total) (String.length wire);
  check bool "header intact" true
    (String.sub wire 0 4 = Bytes.to_string (header_of total));
  check bool "payload intact" true (String.sub wire 4 total = payload)

let test_frame_read_deadline () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* nothing ever arrives: the deadline, not the peer, ends the read *)
  let soon = Int64.add (Dt_obs.Clock.now_ns ()) 50_000_000L in
  check bool "idle read times out" true
    (Frame.read_r ~deadline_ns:soon b = Error Frame.Timeout);
  (* data already buffered beats a generous deadline *)
  Frame.write a "prompt";
  let later = Int64.add (Dt_obs.Clock.now_ns ()) 5_000_000_000L in
  check bool "buffered read returns" true
    (Frame.read_r ~deadline_ns:later b = Ok (Some "prompt"));
  Unix.close a;
  Unix.close b

let test_frame_write_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Frame.write_truncated a "0123456789";
  Unix.close a;
  check bool "mid-frame close is Truncated" true
    (Frame.read_r b = Error Frame.Truncated);
  Unix.close b

(* --- Retry policy ----------------------------------------------------- *)

let test_retry_plan () =
  let policy =
    { Client.Retry.default with attempts = 6; seed = 42L; base_ms = 5 }
  in
  let p1 = Client.Retry.plan policy in
  let p2 = Client.Retry.plan policy in
  check int "plan covers attempts - 1 sleeps" 5 (List.length p1);
  check bool "same seed, same plan" true (p1 = p2);
  List.iter
    (fun ms ->
      check bool "backoff >= base" true (ms >= policy.Client.Retry.base_ms);
      check bool "backoff <= cap" true (ms <= policy.Client.Retry.cap_ms))
    p1;
  let other = Client.Retry.plan { policy with seed = 43L } in
  check bool "different seed, different jitter" true (p1 <> other);
  check bool "Retry.none never sleeps" true (Client.Retry.plan Client.Retry.none = [])

(* --- Client failure classification and retries ------------------------ *)

(* a scripted daemon: accepts exactly one connection per handler, runs
   it, closes. Joining the domain proves the client made exactly as
   many attempts as the script expects. *)
let with_fake_server handlers f =
  let sock = Filename.concat (tmpdir ()) "fake.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 8;
  let d =
    Domain.spawn (fun () ->
        (* a 10 s accept window per handler: if the client legitimately
           makes fewer attempts than the script expects (a failing
           assertion, a non-retried outcome), the script gives up
           instead of deadlocking the join below *)
        let rec serve = function
          | [] -> ()
          | handler :: rest -> (
              match Unix.select [ lfd ] [] [] 10. with
              | [], _, _ -> ()
              | _ ->
                  let fd, _ = Unix.accept lfd in
                  (try handler fd with _ -> ());
                  (try Unix.close fd with Unix.Unix_error _ -> ());
                  serve rest)
        in
        serve handlers;
        Unix.close lfd)
  in
  Fun.protect ~finally:(fun () -> Domain.join d) (fun () -> f sock)

(* consume the request, then close without a reply: the client sees a
   clean FIN (EOF before any response byte). Closing with the request
   still unread would RST instead, which classifies as Truncated. *)
let h_drop fd = ignore (Frame.read fd)

let h_reply json fd =
  match Frame.read fd with
  | Some _ -> Frame.write fd (Json.to_string json)
  | None -> ()

let h_truncate fd =
  match Frame.read fd with
  | Some _ -> Frame.write_truncated fd (Json.to_string (Protocol.ok []))
  | None -> ()

(* read the request, never answer; wait for the client to hang up so the
   accept script can't race ahead *)
let h_black_hole fd =
  match Frame.read fd with Some _ -> ignore (Frame.read fd) | None -> ()

let fast_retry attempts =
  { Client.Retry.none with attempts; base_ms = 0; cap_ms = 0; seed = 7L }

let test_client_refused () =
  let sock = Filename.concat (tmpdir ()) "nobody-home.sock" in
  match Client.call ~socket:sock Protocol.Health with
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error f ->
      check bool "classified as Refused" true (f = Client.Refused);
      let msg = Client.failure_message ~socket:sock f in
      check bool "message names the socket path" true
        (Astring_contains.contains msg sock)

let test_client_retries_eof_before_reply () =
  with_fake_server [ h_drop; h_reply (Protocol.ok []) ] @@ fun sock ->
  match Client.call ~retry:(fast_retry 3) ~socket:sock Protocol.Health with
  | Ok json -> check bool "second attempt answered" true
      (Json.member "ok" json = Some (Json.Bool true))
  | Error f ->
      Alcotest.fail ("retry did not recover: " ^ Client.failure_message ~socket:sock f)

let test_client_retries_overloaded () =
  with_fake_server
    [ h_reply (Protocol.overloaded ~retry_after_ms:1); h_reply (Protocol.ok []) ]
  @@ fun sock ->
  (match Client.call ~retry:(fast_retry 3) ~socket:sock Protocol.Health with
  | Ok _ -> ()
  | Error f ->
      Alcotest.fail ("shed not retried: " ^ Client.failure_message ~socket:sock f));
  (* without a retry budget the shed surfaces, carrying the daemon's hint *)
  with_fake_server [ h_reply (Protocol.overloaded ~retry_after_ms:3) ]
  @@ fun sock ->
  check bool "overload surfaces the retry hint" true
    (Client.call ~socket:sock Protocol.Health = Error (Client.Overloaded 3))

let test_client_timeout_not_retried () =
  (* one handler: if the client retried, the second connect would hang
     on an accept that never comes — joining proves one attempt *)
  with_fake_server [ h_black_hole ] @@ fun sock ->
  check bool "receive timeout surfaces, unretried" true
    (Client.call ~retry:(fast_retry 3) ~timeout_ms:100 ~socket:sock
       Protocol.Health
    = Error (Client.Timed_out `Receive))

let test_client_truncated_opt_in () =
  with_fake_server [ h_truncate ] @@ fun sock ->
  (check bool "mid-frame close surfaces by default" true
     (Client.call ~retry:(fast_retry 3) ~socket:sock Protocol.Health
     = Error Client.Truncated));
  with_fake_server [ h_truncate; h_reply (Protocol.ok []) ] @@ fun sock ->
  let policy = { (fast_retry 3) with retry_truncated = true } in
  match Client.call ~retry:policy ~socket:sock Protocol.Health with
  | Ok _ -> ()
  | Error f ->
      Alcotest.fail
        ("idempotent retry did not recover: "
        ^ Client.failure_message ~socket:sock f)

(* --- Engine admission control ----------------------------------------- *)

let test_admission_depth_shed () =
  let e = Engine.create ~jobs:1 ~max_inflight:1 () in
  let crowded = { Engine.depth = 3; waited_ns = 0L } in
  let resp = Engine.handle ~admission:crowded e (analyze ()) in
  (match Protocol.retry_after_of resp with
  | Some ms -> check bool "retry_after_ms >= 1" true (ms >= 1)
  | None -> Alcotest.fail ("not shed: " ^ Json.to_string resp));
  check int "shed counted" 1 (Engine.shed_total e);
  check int "not a deadline shed" 0 (Engine.deadline_exceeded_total e);
  (* introspection answers even when saturated *)
  check bool "health never shed" true
    (Json.member "ok" (Engine.handle ~admission:crowded e Protocol.Health)
    = Some (Json.Bool true));
  (* under budget: same depth limit, queue of one admits and answers *)
  let calm = { Engine.depth = 1; waited_ns = 0L } in
  check string "admitted request answers byte-identically"
    (in_process_output ())
    (output_of (Engine.handle ~admission:calm e (analyze ())))

let test_admission_queue_deadline_shed () =
  let e = Engine.create ~jobs:1 ~queue_deadline_ms:10 () in
  let stale = { Engine.depth = 1; waited_ns = 50_000_000L } in
  check bool "overlong wait is shed" true
    (Protocol.retry_after_of (Engine.handle ~admission:stale e (analyze ()))
    <> None);
  check int "shed counted" 1 (Engine.shed_total e)

let test_admission_request_deadline () =
  let e = Engine.create ~jobs:1 () in
  (* the request's own budget, spent in the queue: shed as deadline
     exceeded, which is NOT retryable *)
  let waited = { Engine.depth = 1; waited_ns = 20_000_000L } in
  let resp = Engine.handle ~admission:waited e (analyze ~deadline_ms:5 ()) in
  check bool "spent budget is deadline_exceeded" true
    (Protocol.is_deadline_exceeded resp);
  check bool "deadline sheds carry no retry hint" true
    (Protocol.retry_after_of resp = None);
  check int "counted on both ledgers" 1 (Engine.deadline_exceeded_total e);
  check int "counted as shed" 1 (Engine.shed_total e);
  (* a generous budget changes nothing about the answer *)
  check string "deadline-carrying request is byte-identical"
    (in_process_output ())
    (output_of (Engine.handle e (analyze ~deadline_ms:60_000 ())))

let test_protocol_deadline_roundtrip () =
  let req = analyze ~deadline_ms:42 ~trace_id:"cafe0123feedface" () in
  (match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok got -> check bool "deadline survives the wire" true (got = req)
  | Error e -> Alcotest.fail e);
  let bare = analyze () in
  (match Protocol.request_of_json (Protocol.request_to_json bare) with
  | Ok got -> check bool "absent deadline survives too" true (got = bare)
  | Error e -> Alcotest.fail e);
  check bool "overloaded is self-describing" true
    (Protocol.retry_after_of (Protocol.overloaded ~retry_after_ms:7) = Some 7);
  check bool "plain errors carry no retry hint" true
    (Protocol.retry_after_of (Protocol.error "nope") = None);
  check bool "deadline_exceeded is typed" true
    (Protocol.is_deadline_exceeded (Protocol.deadline_exceeded ~waited_ms:3))

(* --- server: drain, stale vs live sockets ----------------------------- *)

let request_over fd req =
  Frame.write fd (Json.to_string (Protocol.request_to_json req));
  match Frame.read fd with
  | Some payload -> Result.get_ok (Json.of_string payload)
  | None -> Alcotest.fail "server closed the connection"

let wait_for_ping sock =
  let rec go n =
    if n = 0 then Alcotest.fail "daemon never answered health"
    else if Client.ping ~socket:sock () then ()
    else begin
      Unix.sleepf 0.02;
      go (n - 1)
    end
  in
  go 250

let start_server ?max_inflight ?queue_deadline_ms sock stop =
  Domain.spawn (fun () ->
      Dt_serve.Server.run ~socket:sock ~jobs:1 ?max_inflight
        ?queue_deadline_ms ~stop ())

(* a request already sent when the stop lands must still be answered:
   shutdown drains the queue before the flush-and-unlink *)
let test_server_drain_on_stop () =
  let baseline = in_process_output () in
  let sock = Filename.concat (tmpdir ()) "drain.sock" in
  let stop = Atomic.make false in
  let d = start_server sock stop in
  wait_for_ping sock;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  (* one round-trip first: the drain guarantee covers requests on
     accepted connections, and only the reply proves the accept — a
     connection still in the listen backlog is cut loose by stop *)
  ignore (request_over fd Protocol.Health);
  Frame.write fd (Json.to_string (Protocol.request_to_json (analyze ())));
  Atomic.set stop true;
  let resp =
    match Frame.read fd with
    | Some payload -> Result.get_ok (Json.of_string payload)
    | None -> Alcotest.fail "request dropped during shutdown"
  in
  Unix.close fd;
  check string "drained answer is byte-identical" baseline (output_of resp);
  check int "clean shutdown after drain" 0 (Domain.join d)

let test_socket_live_refused_stale_replaced () =
  let sock = Filename.concat (tmpdir ()) "claim.sock" in
  (* live arm: a second daemon must refuse to steal a socket that still
     answers health, and the first must keep serving *)
  let stop = Atomic.make false in
  let d = start_server sock stop in
  wait_for_ping sock;
  check int "second daemon refuses a live socket" 2
    (Dt_serve.Server.run ~socket:sock ~jobs:1 ());
  check bool "first daemon undisturbed" true (Client.ping ~socket:sock ());
  Atomic.set stop true;
  check int "first daemon clean exit" 0 (Domain.join d);
  (* stale arm: the file exists but nothing answers — bind a listener,
     close it, leave the corpse. A fresh daemon must replace it. *)
  let corpse = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind corpse (Unix.ADDR_UNIX sock);
  Unix.listen corpse 1;
  Unix.close corpse;
  check bool "socket file is a corpse" true (Sys.file_exists sock);
  let stop2 = Atomic.make false in
  let d2 = start_server sock stop2 in
  wait_for_ping sock;
  Atomic.set stop2 true;
  check int "stale socket replaced, clean exit" 0 (Domain.join d2)

(* --- supervision ------------------------------------------------------ *)

(* OCaml 5 forbids [Unix.fork] once any domain exists, and earlier
   tests in this binary spawn server domains — so the supervisor runs
   in a fresh probe process, launched with [create_process]
   (posix_spawn underneath, which domains permit) *)
let run_probe scenario =
  let probe =
    Filename.concat (Filename.dirname Sys.executable_name)
      "supervise_probe.exe"
  in
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process probe
      [| "supervise_probe"; scenario |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let buf = Buffer.create 64 in
  let bytes = Bytes.create 256 in
  let rec slurp () =
    match Unix.read out_r bytes 0 256 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf bytes 0 n;
        slurp ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
  in
  slurp ();
  Unix.close out_r;
  let rec wait () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | _, status -> status
  in
  (wait (), Buffer.contents buf)

let test_supervise_restarts_then_clean () =
  (* the probe's body crashes twice, then reports the restart count it
     was handed and exits cleanly *)
  let status, out = run_probe "recover" in
  check bool "supervisor exits clean after recovery" true
    (status = Unix.WEXITED 0);
  check string "two restarts reached the body" "2" (String.trim out)

let test_supervise_cap () =
  let status, out = run_probe "cap" in
  check bool "cap reached: the child's code surfaces" true
    (status = Unix.WEXITED 9);
  check bool "the give-up is logged" true
    (Astring_contains.contains out "giving up")

(* --- serve-layer chaos sites ------------------------------------------ *)

let saturation_field resp name =
  match Json.member "saturation" resp with
  | Some sat -> (
      match Json.member name sat with
      | Some (Json.Int n) -> n
      | _ -> Alcotest.fail ("no saturation field " ^ name))
  | None -> Alcotest.fail ("no saturation block in " ^ Json.to_string resp)

(* jobs 1 throughout: the inject harness is global and single-domain
   only, so the faults must fire on the daemon's own domain *)
let test_chaos_sites_end_to_end () =
  let baseline = in_process_output () in
  let sock = Filename.concat (tmpdir ()) "chaos.sock" in
  let stop = Atomic.make false in
  let d = start_server sock stop in
  wait_for_ping sock;
  Fun.protect ~finally:(fun () ->
      Inject.disable ();
      Atomic.set stop true;
      check int "clean shutdown after chaos" 0 (Domain.join d))
  @@ fun () ->
  (* delay: the reply is late but byte-identical, and counted *)
  Inject.enable ~only:"serve.delay" [ Inject.Delay ];
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  check string "delayed reply is byte-identical" baseline
    (output_of (request_over fd (analyze ())));
  Inject.disable ();
  check bool "delay was counted" true
    (saturation_field (request_over fd Protocol.Health) "injected_faults" >= 1);
  Unix.close fd;
  (* frame_close: header promises a full reply, the stream dies mid-frame *)
  Inject.enable ~only:"serve.frame_close" [ Inject.Delay ];
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Frame.write fd (Json.to_string (Protocol.request_to_json (analyze ())));
  check bool "client observes the mid-frame close" true
    (Frame.read_r fd = Error Frame.Truncated);
  Inject.disable ();
  Unix.close fd;
  (* accept_drop on the first accept only (seed 1, period 2): the drop
     lands as EOF or as a reset depending on whether the request bytes
     were still unread, so the retry policy opts into both — analyze is
     idempotent, exactly the case retry_truncated exists for *)
  Inject.enable ~only:"serve.accept_drop" ~seed:1 ~period:2 [ Inject.Delay ];
  (match
     Client.call
       ~retry:{ (fast_retry 3) with retry_truncated = true }
       ~socket:sock (analyze ())
   with
  | Ok resp ->
      check string "retry over dropped accept is byte-identical" baseline
        (output_of resp)
  | Error f ->
      Alcotest.fail
        ("retry did not survive accept_drop: "
        ^ Client.failure_message ~socket:sock f));
  Inject.disable ();
  (* every injected fault above is on the books *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  check bool "all three faults counted" true
    (saturation_field (request_over fd Protocol.Health) "injected_faults" >= 3);
  Unix.close fd

(* --- end-to-end overload: sheds are structured, never dropped --------- *)

let test_server_sheds_structured () =
  let baseline = in_process_output () in
  let sock = Filename.concat (tmpdir ()) "shed.sock" in
  let stop = Atomic.make false in
  (* max_inflight 1: pipelining several requests down two connections
     guarantees service-time queue depth > 1, so some analyze requests
     shed — each with a structured, parseable overloaded reply *)
  let d = start_server ~max_inflight:1 sock stop in
  wait_for_ping sock;
  Fun.protect ~finally:(fun () ->
      Atomic.set stop true;
      check int "clean shutdown" 0 (Domain.join d))
  @@ fun () ->
  let conns =
    List.init 4 (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd)
  in
  let per_conn = 3 in
  List.iter
    (fun fd ->
      for _ = 1 to per_conn do
        Frame.write fd (Json.to_string (Protocol.request_to_json (analyze ())))
      done)
    conns;
  let t0 = Unix.gettimeofday () in
  let shed = ref 0 and admitted_ms = ref [] in
  List.iter
    (fun fd ->
      for _ = 1 to per_conn do
        match Frame.read fd with
        | None -> Alcotest.fail "overload dropped a connection"
        | Some payload -> (
            let resp = Result.get_ok (Json.of_string payload) in
            match Protocol.retry_after_of resp with
            | Some ms ->
                incr shed;
                check bool "shed carries a positive hint" true (ms >= 1)
            | None ->
                let ms = (Unix.gettimeofday () -. t0) *. 1000. in
                admitted_ms := ms :: !admitted_ms;
                check string "admitted answer is byte-identical" baseline
                  (output_of resp))
      done;
      Unix.close fd)
    conns;
  let served = List.length !admitted_ms in
  check int "every request was answered" (4 * per_conn) (served + !shed);
  check bool "at least one request was admitted" true (served >= 1);
  check bool "at least one request was shed" true (!shed >= 1);
  (* nearest-rank p99 of the admitted requests' time to answer *)
  let p99 =
    List.nth
      (List.sort compare !admitted_ms)
      (int_of_float (ceil (0.99 *. float_of_int served)) - 1)
  in
  check bool (Printf.sprintf "admitted p99 %.1f ms < 10 s" p99) true
    (p99 < 10_000.);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let health = request_over fd Protocol.Health in
  check int "health agrees on the shed count" !shed
    (saturation_field health "shed");
  Unix.close fd;
  (* retrying clients converge over the same starved daemon: 4 clients
     x 6 distinct sources, so every admitted request does cold work and
     sheds recur; each client retries with its own jitter seed *)
  let source i =
    Printf.sprintf
      "      PROGRAM R%04d\n\
      \      DO 20 I = 2, %d\n\
      \        DO 10 J = 2, %d\n\
      \          A(I,J) = A(I-1,J) + A(I,J-1)\n\
      \   10   CONTINUE\n\
      \   20 CONTINUE\n\
      \      END\n"
      i (40 + i) (50 + i)
  in
  let clients =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            let retry =
              { Client.Retry.attempts = 30; base_ms = 1; cap_ms = 50;
                seed = Int64.of_int (w + 1); retry_truncated = true }
            in
            List.init 6 (fun k ->
                let source = source ((w * 6) + k) in
                ( source,
                  Client.call ~retry ~socket:sock
                    (Protocol.Analyze
                       { source; id = None; trace_id = None; deadline_ms = None })
                ))))
  in
  List.iter
    (fun (source, answer) ->
      match answer with
      | Ok resp ->
          check string "retried answer is byte-identical"
            (in_process_output ~source ()) (output_of resp)
      | Error f ->
          Alcotest.fail
            ("a retrying client did not converge: "
            ^ Client.failure_message ~socket:sock f))
    (List.concat_map Domain.join clients)

let suite =
  [
    Alcotest.test_case "frame dribbled bytes" `Quick test_frame_dribble;
    Alcotest.test_case "frame read EINTR" `Quick test_frame_read_eintr;
    Alcotest.test_case "frame write EINTR" `Quick test_frame_write_eintr;
    Alcotest.test_case "frame read deadline" `Quick test_frame_read_deadline;
    Alcotest.test_case "frame write_truncated" `Quick test_frame_write_truncated;
    Alcotest.test_case "retry backoff plan" `Quick test_retry_plan;
    Alcotest.test_case "client refused names socket" `Quick test_client_refused;
    Alcotest.test_case "client retries EOF-before-reply" `Quick
      test_client_retries_eof_before_reply;
    Alcotest.test_case "client retries overloaded" `Quick
      test_client_retries_overloaded;
    Alcotest.test_case "client timeout not retried" `Quick
      test_client_timeout_not_retried;
    Alcotest.test_case "client truncated retry opt-in" `Quick
      test_client_truncated_opt_in;
    Alcotest.test_case "admission depth shed" `Quick test_admission_depth_shed;
    Alcotest.test_case "admission queue-deadline shed" `Quick
      test_admission_queue_deadline_shed;
    Alcotest.test_case "admission request deadline" `Quick
      test_admission_request_deadline;
    Alcotest.test_case "protocol deadline round-trip" `Quick
      test_protocol_deadline_roundtrip;
    Alcotest.test_case "server drains on stop" `Quick test_server_drain_on_stop;
    Alcotest.test_case "live socket refused, stale replaced" `Quick
      test_socket_live_refused_stale_replaced;
    Alcotest.test_case "supervise restarts then clean" `Quick
      test_supervise_restarts_then_clean;
    Alcotest.test_case "supervise restart cap" `Quick test_supervise_cap;
    Alcotest.test_case "chaos sites end-to-end" `Quick
      test_chaos_sites_end_to_end;
    Alcotest.test_case "overload sheds structured" `Quick
      test_server_sheds_structured;
  ]
