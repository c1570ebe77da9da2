(* A `deptest serve` subprocess and the client side that loads it.

   Hygiene: every daemon and every scratch directory is registered here
   and torn down at exit on every path (normal end, FATAL, uncaught
   exception, SIGTERM/SIGINT to the benchmark): SIGTERM first, SIGKILL
   after 2 s, then the directories are removed, so no orphan daemon is
   left to skew the next run. *)

module Json = Dt_obs.Json
module Protocol = Dt_serve.Protocol
module Frame = Dt_support.Frame

let now = Dt_obs.Clock.now_ns

let fatal fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("e2e: FATAL: " ^ s);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* scratch directories and process reaping *)

let live = ref []  (* pids *)

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 2. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

(* Scratch space lives under the working directory (the checkout), not
   the system temp dir, and is named by pid so concurrent runs never
   share a socket or cache. Paths stay relative: a unix socket path is
   limited to ~107 bytes, and the checkout may sit deep. *)
let root = ".bench_tmp"

let scratch =
  lazy
    (let dir = Filename.concat root (Printf.sprintf "e2e-%d" (Unix.getpid ())) in
     (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     rm_rf dir;
     Unix.mkdir dir 0o755;
     at_exit (fun () ->
         List.iter reap !live;
         (try rm_rf dir with Unix.Unix_error _ | Sys_error _ -> ());
         try Unix.rmdir root with Unix.Unix_error _ -> ());
     dir)

let install_signals () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop _ = exit 1 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

let fresh_dir name =
  let d = Filename.concat (Lazy.force scratch) name in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* /proc readings: user+sys CPU seconds and peak RSS of a process *)

let proc pid file =
  In_channel.with_open_bin (Printf.sprintf "/proc/%d/%s" pid file)
    In_channel.input_all

(* fields 14 and 15 of /proc/PID/stat, in USER_HZ ticks (100/s on
   Linux); counted after the parenthesised command name, which may hold
   spaces *)
let cpu_s pid =
  let s = proc pid "stat" in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string (f.(11)) /. 100. +. float_of_string f.(12) /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let hwm_mb pid =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (proc pid "status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)

(* ------------------------------------------------------------------ *)
(* the daemon *)

type t = { pid : int; socket : string }

let call d req =
  match Dt_serve.Client.call ~socket:d.socket req with
  | Ok j -> j
  | Error f -> fatal "%s" (Dt_serve.Client.failure_message ~socket:d.socket f)

(* Start `deptest serve` with shipped defaults plus a cache dir, and
   return once [health] answers, with the seconds that took. *)
let launch ~deptest ~dir ~cache_dir =
  let socket = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process deptest
      [| deptest; "serve"; "--socket"; socket; "--cache-dir"; cache_dir |]
      null null log
  in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  let d = { pid; socket } in
  let rec await n =
    if Dt_serve.Client.ping ~socket () then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when n > 0 ->
          Unix.sleepf 0.001;
          await (n - 1)
      | 0, _ -> fatal "daemon did not answer health within 60 s (see %s)" dir
      | _ ->
          live := List.filter (( <> ) pid) !live;
          fatal "daemon exited before answering health (see %s/daemon.log)" dir
  in
  await 60_000;
  (d, Int64.to_float (Int64.sub (now ()) t0) /. 1e9)

(* graceful stop: the shutdown op drains and flushes; the exit code must
   be 0 *)
let stop d =
  ignore (call d Protocol.Shutdown);
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        reap d.pid;
        fatal "daemon did not exit within 10 s of shutdown"
    | _, Unix.WEXITED 0 -> live := List.filter (( <> ) d.pid) !live
    | _, _ ->
        live := List.filter (( <> ) d.pid) !live;
        fatal "daemon exited abnormally after shutdown"
  in
  wait ()

(* The daemon's metrics registry flattened to dotted paths, e.g.
   ["tests.delta.applied"], ["serve.endpoints.analyze.total_ns"];
   list rows are keyed by their kind / endpoint / domain / label. The
   same flattening reads an in-process registry, so both sides of the
   benchmark derive per-layer numbers from one vocabulary. *)
let flatten json =
  let tbl = Hashtbl.create 256 in
  let rec go prefix = function
    | Json.Int n -> Hashtbl.replace tbl prefix (float n)
    | Json.Float f -> Hashtbl.replace tbl prefix f
    | Json.Obj kvs ->
        List.iter
          (fun (k, v) -> go (if prefix = "" then k else prefix ^ "." ^ k) v)
          kvs
    | Json.List items ->
        List.iter
          (fun item ->
            let key =
              List.find_map
                (fun f ->
                  match Json.member f item with
                  | Some (Json.String s) -> Some s
                  | Some (Json.Int n) -> Some (string_of_int n)
                  | _ -> None)
                [ "kind"; "endpoint"; "domain"; "label" ]
            in
            match key with Some k -> go (prefix ^ "." ^ k) item | None -> ())
          items
    | _ -> ()
  in
  go "" json;
  tbl

let registry d =
  match Json.member "metrics" (call d (Protocol.Metrics { prometheus = false })) with
  | Some m -> flatten m
  | None -> fatal "metrics response without a registry"

(* ------------------------------------------------------------------ *)
(* the closed-loop load generator *)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with Unix.Unix_error (e, _, _) ->
     fatal "cannot connect to %s: %s" socket (Unix.error_message e));
  fd

let encode source =
  Json.to_string
    (Protocol.request_to_json
       (Protocol.Analyze { source; id = None; trace_id = None; deadline_ms = None }))

let connections socket n = Array.init n (fun _ -> connect socket)
let close_all fds = Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds

(* The connections [fds], each with exactly one request outstanding, all
   driven by this one thread through select. [next ()] yields the next
   request (an index and its encoded frame) or [None] to stop sending;
   [reply i r rtt_ns] receives each answer, [Error] on a transport
   failure (the connection then sends nothing more in this call).
   Returns once every outstanding request has been answered; the
   connections stay open. *)
let drive fds ~next ~reply =
  let conns = Array.length fds in
  let pending = Array.make conns (-1) and sent = Array.make conns 0L in
  let send c =
    match next () with
    | None -> pending.(c) <- -1
    | Some (i, frame) -> (
        sent.(c) <- now ();
        match Frame.write fds.(c) frame with
        | () -> pending.(c) <- i
        | exception Unix.Unix_error (e, _, _) ->
            pending.(c) <- -1;
            reply i (Error (Unix.error_message e)) 0)
  in
  Array.iteri (fun c _ -> send c) fds;
  let rec loop () =
    let busy = List.filter (fun c -> pending.(c) >= 0) (List.init conns Fun.id) in
    if busy <> [] then begin
      let ready =
        match Unix.select (List.map (fun c -> fds.(c)) busy) [] [] 60. with
        | [], _, _ -> fatal "no reply from the daemon within 60 s"
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun c ->
          if List.mem fds.(c) ready then begin
            let i = pending.(c) in
            match Frame.read_r fds.(c) with
            | Ok (Some payload) ->
                reply i (Ok payload) (Int64.to_int (Int64.sub (now ()) sent.(c)));
                send c
            | Ok None -> pending.(c) <- -1; reply i (Error "connection closed") 0
            | Error e ->
                pending.(c) <- -1;
                reply i (Error (Frame.error_message e)) 0
          end)
        busy;
      loop ()
    end
  in
  loop ()
