let recommended_jobs () = Domain.recommended_domain_count ()

let workers jobs = if jobs <= 0 then recommended_jobs () else jobs

type probe = {
  worker_start : int -> unit;
  worker_stop : int -> unit;
  wait_start : int -> unit;
  wait_stop : int -> unit;
  task_start : int -> unit;
  task_stop : int -> unit;
  steal : thief:int -> victim:int -> unit;
}

let no_probe =
  let nop _ = () in
  {
    worker_start = nop;
    worker_stop = nop;
    wait_start = nop;
    wait_stop = nop;
    task_start = nop;
    task_stop = nop;
    steal = (fun ~thief:_ ~victim:_ -> ());
  }

type 'w hooks = {
  probe : probe;
  on_error : ('w -> int -> exn -> unit) option;
}

let hooks ?(probe = no_probe) ?on_error () = { probe; on_error }
let default_hooks = { probe = no_probe; on_error = None }

(* ranges are [lo, hi) so splitting is pure index arithmetic *)
type 'w t = {
  pjobs : int;
  pgrain : int;  (* 0 = auto per run *)
  hooks : 'w hooks;
  deques : (int * int) Deque.t array;  (* one per worker, reused *)
}

let create ?(jobs = 0) ?(grain = 0) ?(hooks = default_hooks) () =
  let pjobs = workers jobs in
  {
    pjobs;
    pgrain = (if grain < 0 then 0 else grain);
    hooks;
    deques = Array.init pjobs (fun _ -> Deque.create ());
  }

let jobs t = t.pjobs

let sequential ~probe ~run_body ~n ~state =
  let st = state 0 in
  (* the whole index loop is one task on worker 0: the engine metrics
     see the same busy-time accounting shape at every jobs setting
     (queue wait is identically zero here) *)
  probe.worker_start 0;
  probe.task_start 0;
  Fun.protect
    ~finally:(fun () ->
      probe.task_stop 0;
      probe.worker_stop 0)
    (fun () ->
      for i = 0 to n - 1 do
        run_body st i
      done);
  [ st ]

(* the leaf size the chunked scheduler effectively used: roughly eight
   leaves per worker, clamped to [1, 64] *)
let auto_grain ~workers ~n =
  let g = n / (workers * 8) in
  if g < 1 then 1 else if g > 64 then 64 else g

let run pool ~n ~state ~body =
  let probe = pool.hooks.probe in
  (* per-task containment: with a handler, a raising [body] is confined
     to its own index — the handler runs on the worker's domain and the
     loop continues. A handler that itself raises falls through to the
     strict first-exception path below. *)
  let run_body =
    match pool.hooks.on_error with
    | None -> body
    | Some handle -> fun st i -> ( try body st i with e -> handle st i e)
  in
  if n <= 0 then []
  else
    let workers = min pool.pjobs n in
    if workers <= 1 || n <= 1 then sequential ~probe ~run_body ~n ~state
    else begin
      let grain =
        if pool.pgrain >= 1 then pool.pgrain else auto_grain ~workers ~n
      in
      let deques = pool.deques in
      (* seed one contiguous range per worker: deterministic initial
         shard, refined dynamically by splitting and stealing *)
      let lo = ref 0 in
      let per = n / workers and rem = n mod workers in
      for w = 0 to workers - 1 do
        let len = per + if w < rem then 1 else 0 in
        if len > 0 then Deque.push deques.(w) (!lo, !lo + len);
        lo := !lo + len
      done;
      (* indices not yet claimed by a leaf: zero means nothing is left
         to steal, though claimed leaves may still be running *)
      let remaining = Atomic.make n in
      let abort = Atomic.make false in
      (* one slot per worker: the first exception it hit, if any *)
      let failures = Array.make workers None in
      let fail w e =
        failures.(w) <- Some (e, Printexc.get_raw_backtrace ());
        Atomic.set abort true
      in
      let run_worker w =
        match state w with
        | exception e ->
            fail w e;
            None
        | st ->
            probe.worker_start w;
            (try
               let dq = deques.(w) in
               (* run one range: push upper halves back (stealable)
                  until the piece in hand fits the grain, then execute
                  that leaf *)
               let rec exec (rlo, rhi) =
                 if not (Atomic.get abort) then begin
                   let len = rhi - rlo in
                   if len > grain then begin
                     let mid = rlo + (len / 2) in
                     Deque.push dq (mid, rhi);
                     exec (rlo, mid)
                   end
                   else begin
                     (* the leaf is claimed before it runs: once every
                        index is claimed an idle worker has nothing left
                        to steal and leaves instead of spinning *)
                     ignore (Atomic.fetch_and_add remaining (-len));
                     probe.task_start w;
                     for i = rlo to rhi - 1 do
                       run_body st i
                     done;
                     probe.task_stop w
                   end
                 end
               in
               (* acquire: own deque first (LIFO), then steal round-robin
                  from the next worker up (FIFO — the victim's largest
                  range). When every queue looks empty but some indices
                  are not yet claimed — a range another worker is still
                  splitting — back off with exponentially longer
                  cpu_relax spins; a CAS race seen en route means real
                  contention, so retry eagerly. *)
               let rec acquire spins =
                 match Deque.pop dq with
                 | Some r -> Some r
                 | None -> steal_from ((w + 1) mod workers) ~raced:false spins
               and steal_from v ~raced spins =
                 if v = w then
                   if Atomic.get remaining = 0 || Atomic.get abort then None
                   else begin
                     let spins =
                       if raced then 1
                       else if spins >= 1024 then 1024
                       else spins * 2
                     in
                     for _ = 1 to spins do
                       Domain.cpu_relax ()
                     done;
                     acquire spins
                   end
                 else
                   match Deque.steal deques.(v) with
                   | Deque.Stolen r ->
                       probe.steal ~thief:w ~victim:v;
                       Some r
                   | Deque.Retry ->
                       steal_from ((v + 1) mod workers) ~raced:true spins
                   | Deque.Empty -> steal_from ((v + 1) mod workers) ~raced spins
               in
               let rec loop () =
                 if not (Atomic.get abort) then begin
                   probe.wait_start w;
                   let r = acquire 1 in
                   probe.wait_stop w;
                   match r with
                   | Some range ->
                       exec range;
                       loop ()
                   | None -> ()
                 end
               in
               loop ()
             with e -> fail w e);
            probe.worker_stop w;
            Some st
      in
      let domains =
        List.init (workers - 1) (fun w ->
            Domain.spawn (fun () -> run_worker (w + 1)))
      in
      (* worker 0 leaves its loop once every index is claimed and waits
         for the peers still running their last leaves in [Domain.join] *)
      let st0 = run_worker 0 in
      let states = st0 :: List.map Domain.join domains in
      (* strict-mode abort abandons in-flight ranges: drain the deques so
         the handle is clean for the next run *)
      if Atomic.get abort then
        Array.iter
          (fun dq ->
            let rec drain () =
              match Deque.steal dq with
              | Deque.Stolen _ | Deque.Retry -> drain ()
              | Deque.Empty -> ()
            in
            drain ())
          deques;
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
        failures;
      List.filter_map Fun.id states
    end
