module Json = Dt_obs.Json
module Frame = Dt_support.Frame
module Inject = Dt_guard.Inject

(* Chaos-harness sites (see Dt_guard.Inject): the CI fault matrix and
   the soak tests enable these via DEPTEST_INJECT with
   DEPTEST_INJECT_ONLY naming one site, so the socket layer's
   containment paths fire deterministically while the analysis layer
   stays clean. The faults live on the server side of the wire:
     accept_drop  — accept a connection, then close it unanswered
     frame_close  — send half the response frame, then close
     delay        — spin before replying (client-visible latency)
     kill         — die without replying (what --supervise is for) *)
let accept_drop_site = Inject.register "serve.accept_drop"
let frame_close_site = Inject.register "serve.frame_close"
let delay_site = Inject.register "serve.delay"
let kill_site = Inject.register "serve.kill"

(* Service one readable client: read one frame, answer it. Returns what
   to do with the connection afterwards. Frame granularity is the
   multiplexing unit — two clients interleave between requests, not
   inside one — which keeps responses strictly ordered per connection
   without threads. *)
type step = Keep | Close | Stop

(* [out] is the daemon's one response frame, reused for every reply:
   the answer is written into it once, header patched on send *)
let serve_frame ?admission engine out fd =
  match Frame.read_r fd with
  | Ok None -> Close
  | Error e ->
      (* a bad frame poisons the stream position, so the connection
         cannot survive; it still deserves a counted protocol error
         response rather than a raw exception. The oversized payload is
         NOT drained first — a malicious length prefix need not be
         backed by real bytes, and draining would block the daemon. *)
      Engine.note_protocol_error engine;
      (try
         Protocol.write_response out
           (Protocol.Reply
              (Protocol.error ("protocol error: " ^ Frame.error_message e)));
         Frame.Out.send fd out
       with
      | Unix.Unix_error _ | Invalid_argument _ -> ());
      Close
  | Ok (Some payload) -> (
      let req =
        match Json.of_string payload with
        | Error e -> Error ("bad JSON: " ^ e)
        | Ok json -> Protocol.request_of_json json
      in
      let response, stop =
        match req with
        | Error msg ->
            (* bad JSON or an unsupported version: answered in-protocol
               and counted, the connection stays usable *)
            Engine.note_protocol_error engine;
            (Protocol.Reply (Protocol.error msg), false)
        | Ok r -> (Engine.respond ?admission engine r, r = Protocol.Shutdown)
      in
      (* response-path chaos: the request has executed; the faults decide
         what the client sees of the answer *)
      if Inject.probe kill_site <> None then
        (* kill-before-reply: an abnormal death, skipping every at_exit
           and flush path — the supervised-restart scenario *)
        Unix._exit 70;
      (match Inject.probe delay_site with
      | Some _ ->
          Engine.note_injected_fault engine;
          Inject.delay_spin ()
      | None -> ());
      Protocol.write_response out response;
      match Inject.probe frame_close_site with
      | Some _ ->
          Engine.note_injected_fault engine;
          (try Frame.Out.send_truncated fd out with
          | Unix.Unix_error _ | Invalid_argument _ -> ());
          Close
      | None -> (
          match Frame.Out.send fd out with
          | () -> if stop then Stop else Keep
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              Close
          | exception Invalid_argument _ ->
              (* response over the frame cap (a giant trace export): the
                 peer cannot be answered in-protocol, drop it *)
              Engine.note_protocol_error engine;
              Close))

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run ~socket ?(jobs = 0) ?cache_dir ?cache_capacity ?sample_period
    ?slow_threshold_ns ?ledger_recent ?ledger_top ?max_inflight
    ?queue_deadline_ms ?restarts ?(drain_grace_ms = 2_000) ?warm
    ?(stop = Atomic.make false) ?(signals = false) ?(log = ignore) () =
  (* a client that disconnects mid-response must be an EPIPE exception
     on our write, not a fatal SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let engine =
    Engine.create ~jobs ?cache_dir ?cache_capacity ?sample_period
      ?slow_threshold_ns ?ledger_recent ?ledger_top ?max_inflight
      ?queue_deadline_ms ?restarts ()
  in
  let out = Frame.Out.create () in
  (match warm with
  | None -> ()
  | Some w ->
      let n =
        match w with
        | `All -> Engine.warm engine ()
        | `Suite s -> Engine.warm engine ~suite:s ()
      in
      log (Printf.sprintf "warmed %d corpus unit(s)" n));
  if signals then begin
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
  end;
  (* a stale socket file from a dead daemon would make bind fail — but
     only a file that no daemon answers on may be unlinked: removing a
     live daemon's socket would silently orphan it and steal its
     traffic. A health round-trip decides. *)
  let stale_or_absent =
    match Unix.stat socket with
    | exception Unix.Unix_error _ -> true
    | st ->
        if st.Unix.st_kind <> Unix.S_SOCK then true
        else if Client.ping ~socket () then false
        else begin
          (try Unix.unlink socket with Unix.Unix_error _ -> ());
          true
        end
  in
  if not stale_or_absent then begin
    log
      (Printf.sprintf
         "refusing to start: a live daemon already answers on %s" socket);
    2
  end
  else begin
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.bind sock (Unix.ADDR_UNIX socket) with
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close sock;
        log
          (Printf.sprintf "cannot bind %s: %s" socket (Unix.error_message e));
        2
    | () ->
        Unix.listen sock 16;
        log (Printf.sprintf "listening on %s (jobs %d)" socket
               (Engine.jobs engine));
        (* connections are multiplexed with select at frame granularity.
           Readable clients enter a FIFO queue stamped with their arrival
           time; one queued request is served per select round, so the
           loop keeps observing new arrivals while it works through a
           backlog — that queue depth and wait are exactly what admission
           control sheds on. *)
        let clients = ref [] in
        let pending = Queue.create () in
        let pending_set = Hashtbl.create 16 in
        let enqueue fd =
          if not (Hashtbl.mem pending_set fd) then begin
            Hashtbl.replace pending_set fd ();
            Queue.add (fd, Dt_obs.Clock.now_ns ()) pending
          end
        in
        let drop fd =
          clients := List.filter (fun c -> c <> fd) !clients;
          Hashtbl.remove pending_set fd;
          close_quiet fd
        in
        (* pop the next queued request and serve it whole, with the
           queue state it experienced as its admission context *)
        let serve_next () =
          match Queue.take_opt pending with
          | None -> ()
          | Some (fd, enqueued_ns) ->
              Hashtbl.remove pending_set fd;
              if List.mem fd !clients then begin
                let admission =
                  {
                    Engine.depth = Queue.length pending + 1;
                    waited_ns =
                      Int64.sub (Dt_obs.Clock.now_ns ()) enqueued_ns;
                  }
                in
                match serve_frame ~admission engine out fd with
                | Keep -> ()
                | Close -> drop fd
                | Stop ->
                    drop fd;
                    Atomic.set stop true
              end
        in
        let accept_clients readable =
          List.iter
            (fun fd ->
              if fd = sock then (
                match Unix.accept sock with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | client, _ -> (
                    Engine.note_connection engine;
                    match Inject.probe accept_drop_site with
                    | Some _ ->
                        (* accept-then-drop: the client sees a clean EOF
                           before any response byte — the retryable case *)
                        Engine.note_injected_fault engine;
                        close_quiet client
                    | None -> clients := !clients @ [ client ]))
              else if List.mem fd !clients then enqueue fd)
            readable
        in
        let rec loop () =
          if Atomic.get stop then ()
          else begin
            (* poll with a timeout so a signal or stop flag is seen even
               with no client activity; don't linger when work is queued *)
            let timeout = if Queue.is_empty pending then 0.2 else 0. in
            let watched =
              sock
              :: List.filter (fun fd -> not (Hashtbl.mem pending_set fd))
                   !clients
            in
            (match Unix.select watched [] [] timeout with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | readable, _, _ ->
                accept_clients readable;
                Engine.set_queue_depth engine (Queue.length pending);
                serve_next ();
                Engine.set_queue_depth engine (Queue.length pending));
            loop ()
          end
        in
        loop ();
        (* graceful drain: stop accepting, then answer requests already
           sent — queued frames plus anything readable on open
           connections — up to the grace period, so SIGTERM under load
           loses no accepted work *)
        close_quiet sock;
        let deadline_ns =
          Int64.add (Dt_obs.Clock.now_ns ())
            (Int64.mul (Int64.of_int (max 0 drain_grace_ms)) 1_000_000L)
        in
        let drained = ref 0 in
        let rec drain () =
          if Int64.compare (Dt_obs.Clock.now_ns ()) deadline_ns >= 0 then ()
          else if not (Queue.is_empty pending) then begin
            serve_next ();
            incr drained;
            drain ()
          end
          else if !clients <> [] then begin
            match Unix.select !clients [] [] 0.05 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
            | [], _, _ -> ()  (* nothing left in flight *)
            | readable, _, _ ->
                List.iter
                  (fun fd -> if List.mem fd !clients then enqueue fd)
                  readable;
                drain ()
          end
        in
        drain ();
        if !drained > 0 then
          log (Printf.sprintf "drained %d in-flight request(s)" !drained);
        List.iter close_quiet !clients;
        (* clean shutdown: verdicts first, then the listening endpoint *)
        let persisted = Engine.flush engine in
        if persisted > 0 then
          log (Printf.sprintf "flushed %d cache entr%s" persisted
                 (if persisted = 1 then "y" else "ies"));
        (try Unix.unlink socket with Unix.Unix_error _ -> ());
        log "stopped";
        0
  end
