open Dt_ir

(* ------------------------------------------------------------------ *)
(* configuration                                                       *)

module Config = struct
  type t = {
    strategy : Pair_test.strategy;
    include_inputs : bool;
    assume : Assume.t;
    jobs : int;  (* 0 = auto *)
    grain : int;  (* splitting leaf size, 0 = auto *)
    cache : Pair_cache.t option;
    metrics : Dt_obs.Metrics.t option;
    sink : Dt_obs.Trace.sink option;
    profiler : Dt_obs.Span.profiler option;
    budget : int option;  (* per-pair fuel, Banerjee nodes *)
    deadline_ms : int option;  (* wall-clock cap for the whole analysis *)
  }

  let make ?(strategy = Pair_test.Partition_based) ?(include_inputs = false)
      ?(assume = Assume.empty) ?(jobs = 0) ?(grain = 0) ?(cache = true)
      ?cache_capacity ?metrics ?sink ?profiler ?budget ?deadline_ms () =
    {
      strategy;
      include_inputs;
      assume;
      jobs;
      grain;
      cache =
        (if cache then
           Some (Pair_cache.create ?capacity:cache_capacity ())
         else None);
      metrics;
      sink;
      profiler;
      budget;
      deadline_ms;
    }

  let default = make ()
  let with_strategy strategy t = { t with strategy }
  let with_include_inputs include_inputs t = { t with include_inputs }
  let with_assume assume t = { t with assume }
  let with_jobs jobs t = { t with jobs }
  let with_grain grain t = { t with grain }

  let with_cache on t =
    { t with cache = (if on then Some (Pair_cache.create ()) else None) }

  let with_metrics metrics t = { t with metrics }
  let with_sink sink t = { t with sink }
  let with_profiler profiler t = { t with profiler }
  let with_budget budget t = { t with budget }
  let with_deadline_ms deadline_ms t = { t with deadline_ms }
  let profiler t = t.profiler
  let strategy t = t.strategy
  let include_inputs t = t.include_inputs
  let assume t = t.assume
  let jobs t = t.jobs
  let grain t = t.grain
  let budget t = t.budget
  let deadline_ms t = t.deadline_ms
  let cache_enabled t = t.cache <> None

  let cache_stats t =
    Option.map (fun c -> (Pair_cache.hits c, Pair_cache.misses c)) t.cache

  let cache_usage t =
    Option.map (fun c -> (Pair_cache.length c, Pair_cache.evictions c)) t.cache

  let cache_hit_rate t = Option.map Pair_cache.hit_rate t.cache
end

type pair_record = {
  array : string;
  src_stmt : int;
  snk_stmt : int;
  meta : Pair_test.meta;
  independent : bool;
}

type result = {
  deps : Dep.t list;
  pairs : pair_record list;
  counters : Counters.t;
}

(* ------------------------------------------------------------------ *)
(* direction-vector decomposition and orientation helpers              *)

let decompose (v : Dirvec.t) =
  let n = Array.length v in
  let out = ref [] in
  let rec go k =
    if k = n then out := (None, Array.map (fun _ -> Direction.single Eq) v, `Forward) :: !out
    else begin
      (if Direction.mem Lt v.(k) then
         let w = Array.copy v in
         for j = 0 to k - 1 do
           w.(j) <- Direction.single Eq
         done;
         w.(k) <- Direction.single Lt;
         out := (Some (k + 1), w, `Forward) :: !out);
      (if Direction.mem Gt v.(k) then
         let w = Array.copy v in
         for j = 0 to k - 1 do
           w.(j) <- Direction.single Eq
         done;
         w.(k) <- Direction.single Gt;
         out := (Some (k + 1), w, `Backward) :: !out);
      if Direction.mem Eq v.(k) then go (k + 1)
    end
  in
  go 0;
  List.rev !out

type component = int option * Dirvec.t * [ `Forward | `Backward ]

(* the order [Stdlib.compare] gives the triples, without its generic
   traversal: level [None] first, then by level; shorter vectors first,
   then position by position, a set ranked by its [(lt, eq, gt)] flags
   read as a binary number; [`Backward] before [`Forward] (the order of
   their variant hashes). The order is load-bearing: it fixes the
   dependence order every answer prints. *)
let set_rank (s : Direction.set) =
  (if s.lt then 4 else 0) + (if s.eq then 2 else 0) + if s.gt then 1 else 0

let compare_vec (a : Dirvec.t) (b : Dirvec.t) =
  let n = Array.length a in
  if n <> Array.length b then Int.compare n (Array.length b)
  else
    let rec go k =
      if k = n then 0
      else
        let c = Int.compare (set_rank a.(k)) (set_rank b.(k)) in
        if c <> 0 then c else go (k + 1)
    in
    go 0

let orient_rank = function `Backward -> 0 | `Forward -> 1

let compare_component ((l1, v1, o1) : component) ((l2, v2, o2) : component) =
  let c = Option.compare Int.compare l1 l2 in
  if c <> 0 then c
  else
    let c = compare_vec v1 v2 in
    if c <> 0 then c else Int.compare (orient_rank o1) (orient_rank o2)

let components dirvecs =
  Dt_support.Listx.dedup ~compare:compare_component
    (List.concat_map decompose dirvecs)

let kind_of src_kind snk_kind =
  match (src_kind, snk_kind) with
  | `Write, `Read -> Dep.Flow
  | `Read, `Write -> Dep.Anti
  | `Write, `Write -> Dep.Output
  | `Read, `Read -> Dep.Input

let neg_dist = function
  | Outcome.Const d -> Outcome.Const (-d)
  | Outcome.Sym e -> Outcome.Sym (Affine.neg e)
  | Outcome.Unknown -> Outcome.Unknown

(* ------------------------------------------------------------------ *)
(* pair enumeration, split from testing                                *)

type site = {
  left : Stmt.access * Loop.t list;
  right : Stmt.access * Loop.t list;
  same_ref : bool;
}

let sites ?(include_inputs = false) prog =
  let accesses =
    List.concat_map
      (fun (s, loops) ->
        List.map (fun a -> (a, loops)) (Stmt.accesses s))
      (Nest.stmts_with_loops prog)
  in
  let accesses = Array.of_list accesses in
  let n = Array.length accesses in
  let out = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i do
      let ((a1 : Stmt.access), _) = accesses.(i)
      and ((a2 : Stmt.access), _) = accesses.(j) in
      if
        a1.Stmt.aref.Aref.base = a2.Stmt.aref.Aref.base
        && (include_inputs
           || not (a1.Stmt.kind = `Read && a2.Stmt.kind = `Read))
      then
        out :=
          { left = accesses.(i); right = accesses.(j); same_ref = i = j }
          :: !out
    done
  done;
  Array.of_list !out

(* ------------------------------------------------------------------ *)
(* the engine: test every site (in parallel, through the cache), then
   orient the per-pair direction vectors sequentially                  *)

let strategy_tag = function
  | Pair_test.Partition_based -> "P"
  | Pair_test.Subscript_by_subscript -> "S"

(* per-worker accumulators, merged deterministically (in worker-id
   order) after the parallel loop; [scratch] is the worker's Banerjee
   arena — reused across every pair the worker tests, never shared *)
type worker = {
  counters : Counters.t;
  metrics : Dt_obs.Metrics.t option;
  spans : Dt_obs.Span.t option;
  scratch : Banerjee.Scratch.t;
}

(* minimum number of reference pairs before [run] fans out to worker
   domains; below this the spawn cost exceeds the testing work. A
   domain's spawn and join cost ~0.1 ms when it runs nothing, and a
   domain that allocates also faults in its own minor heap: ~0.5 ms of
   system time for 120k words (2-vCPU box) *)
let min_parallel_sites = 256

(* minimum number of routines before [run_all] shards the batch across
   domains in auto mode — the spawned domain's cost above is about that
   of testing a small routine *)
let min_parallel_routines = 8

let deadline_of deadline_ms =
  (* the deadline is absolute: fixed before any pair runs, checked at
     each pair's start. [deadline_ms = 0] therefore degrades every pair
     deterministically — the harness relies on that. *)
  Option.map
    (fun ms ->
      Int64.add (Dt_obs.Clock.now_ns ())
        (Int64.mul (Int64.of_int ms) 1_000_000L))
    deadline_ms

(* the per-site testing context: everything [test_one] needs that is
   fixed for a whole [run] / [run_all] call *)
type tctx = {
  cstrategy : Pair_test.strategy;
  cassume : Assume.t;
  ccache : Pair_cache.t option;
  cfacts : string;  (* assume-facts digest of the cache key, "" if no cache *)
  ctag : string;
  cfuel : int option;
  csink : Dt_obs.Trace.sink option;
  cdeadline : int64 option;
}

let ctx_of (cfg : Config.t) ~deadline_ns =
  {
    cstrategy = cfg.Config.strategy;
    cassume = cfg.Config.assume;
    ccache = cfg.Config.cache;
    (* the assume facts are index-free and shared by every pair: render
       the cache-key digest once (eagerly — it is read from every
       domain) *)
    cfacts =
      (match cfg.Config.cache with
      | Some _ ->
          Dt_engine.Key.facts_digest (Assume.facts cfg.Config.assume)
      | None -> "");
    ctag = strategy_tag cfg.Config.strategy;
    cfuel = cfg.Config.budget;
    csink = cfg.Config.sink;
    cdeadline = deadline_ns;
  }

let past_deadline ctx =
  match ctx.cdeadline with
  | Some d -> Int64.compare (Dt_obs.Clock.now_ns ()) d >= 0
  | None -> false

(* the conservative substitute for a site whose task failed (or was cut
   off) outside [Pair_test.test]'s own containment *)
let widen_site ?metrics site reason =
  let { left = (a1 : Stmt.access), loops1;
        right = (a2 : Stmt.access), loops2;
        _ } =
    site
  in
  Dispatch.degraded (Dispatch.make ?metrics ()) reason;
  Pair_test.degraded_result
    ~src:(a1.Stmt.aref, loops1)
    ~snk:(a2.Stmt.aref, loops2)
    reason

(* test one reference pair on worker [w], accumulating §6 counts into
   [counters] ([w.counters] for a per-site run; a per-routine
   accumulator under [run_all]'s sharding, where one worker analyzes
   many routines) *)
let test_one ctx (w : worker) ~counters site =
  let { left = (a1 : Stmt.access), loops1;
        right = (a2 : Stmt.access), loops2;
        _ } =
    site
  in
  let emit ev =
    match ctx.csink with Some sk -> Dt_obs.Trace.emit sk ev | None -> ()
  in
  let scoped f =
    match ctx.csink with Some sk -> Dt_obs.Trace.scope sk f | None -> f ()
  in
  emit
    (Dt_obs.Trace.Pair_start
       {
         array = a1.Stmt.aref.Aref.base;
         src_stmt = a1.Stmt.stmt.Stmt.id;
         snk_stmt = a2.Stmt.stmt.Stmt.id;
       });
  if past_deadline ctx then begin
    (* over the wall-clock cap: the pair is not tested at all, only
       widened. Never cached — a later run with more time must retest. *)
    emit (Dt_obs.Trace.Note "analysis deadline passed: pair degraded");
    widen_site ?metrics:w.metrics site Dt_guard.Degrade.Budget
  end
  else begin
    let budget = Option.map Dt_guard.Budget.make ctx.cfuel in
    let t0 =
      match w.metrics with Some _ -> Dt_obs.Clock.now_ns () | None -> 0L
    in
    let r =
      Dt_obs.Span.with_ w.spans Dt_obs.Span.Pair @@ fun () ->
      scoped (fun () ->
          let compute counters =
            Pair_test.test ~counters ?metrics:w.metrics ?sink:ctx.csink
              ?spans:w.spans ?budget ~scratch:w.scratch
              ~strategy:ctx.cstrategy ~assume:ctx.cassume
              ~src:(a1.Stmt.aref, loops1)
              ~snk:(a2.Stmt.aref, loops2)
              ()
          in
          let r =
            match ctx.ccache with
            | None -> compute counters
            | Some c -> (
                let key =
                  Dt_engine.Key.make
                    ~src:(a1.Stmt.aref, loops1)
                    ~snk:(a2.Stmt.aref, loops2)
                    ~facts:ctx.cfacts ~tag:ctx.ctag
                in
                match Pair_cache.find c key ~counters with
                | Some r ->
                    (match w.metrics with
                    | Some m -> Dt_obs.Metrics.cache_hit m
                    | None -> ());
                    emit
                      (Dt_obs.Trace.Note
                         "verdict from the structural memo cache (run with \
                          the cache off for the full test trace)");
                    r
                | None ->
                    (match w.metrics with
                    | Some m -> Dt_obs.Metrics.cache_miss m
                    | None -> ());
                    (* run against a fresh accumulator so the increments
                       can be stored and replayed on later hits *)
                    let local = Counters.create () in
                    let r = compute local in
                    (* a degraded verdict reflects a fault or a spent
                       budget, not the pair's shape: never memoize it *)
                    if r.Pair_test.meta.Pair_test.degraded = None then
                      Pair_cache.store c key ~counters:local r;
                    Counters.merge_into counters local;
                    r)
          in
          (if ctx.csink <> None then
             let independent = r.Pair_test.result = `Independent in
             let reason =
               match
                 (r.Pair_test.result, r.Pair_test.meta.Pair_test.proved_by)
               with
               | `Independent, Some k -> "proved by " ^ Counters.kind_name k
               | `Independent, None ->
                   "no consistent direction vector across subscript \
                    partitions"
               | `Dependent { Pair_test.dirvecs; _ }, _ ->
                   Format.asprintf "%d direction vector(s):%t"
                     (List.length dirvecs) (fun ppf ->
                       List.iter
                         (fun v -> Format.fprintf ppf " %a" Dirvec.pp v)
                         dirvecs)
             in
             emit (Dt_obs.Trace.Verdict { independent; reason }));
          r)
    in
    (match w.metrics with
    | Some m ->
        Dt_obs.Metrics.observe_pair m
          ~ns:(Int64.sub (Dt_obs.Clock.now_ns ()) t0)
    | None -> ());
    r
  end

(* per-worker engine instrumentation wired into the pool's probe: span
   brackets and busy / wait / steal attribution, each callback touching
   only the calling worker's own state *)
let make_probe (wres : worker array) ~instrumented =
  if Array.length wres = 0 || not instrumented then Dt_support.Pool.no_probe
  else begin
    let njobs = Array.length wres in
    let wait_t0 = Array.make njobs 0L in
    let task_t0 = Array.make njobs 0L in
    let worker_slot = Array.make njobs (-1) in
    let wait_slot = Array.make njobs (-1) in
    let task_slot = Array.make njobs (-1) in
    let enter w slots k =
      match wres.(w).spans with
      | Some b -> slots.(w) <- Dt_obs.Span.enter b k
      | None -> ()
    in
    let exit_ w slots =
      match wres.(w).spans with
      | Some b when slots.(w) >= 0 ->
          Dt_obs.Span.exit_ b slots.(w);
          slots.(w) <- -1
      | _ -> ()
    in
    {
      Dt_support.Pool.worker_start =
        (fun w -> enter w worker_slot Dt_obs.Span.Worker);
      worker_stop = (fun w -> exit_ w worker_slot);
      wait_start =
        (fun w ->
          wait_t0.(w) <- Dt_obs.Clock.now_ns ();
          enter w wait_slot Dt_obs.Span.Queue_wait);
      wait_stop =
        (fun w ->
          exit_ w wait_slot;
          match wres.(w).metrics with
          | Some m ->
              Dt_obs.Metrics.engine_wait m ~domain:w
                ~ns:(Int64.sub (Dt_obs.Clock.now_ns ()) wait_t0.(w))
          | None -> ());
      task_start =
        (fun w ->
          task_t0.(w) <- Dt_obs.Clock.now_ns ();
          enter w task_slot Dt_obs.Span.Task);
      task_stop =
        (fun w ->
          exit_ w task_slot;
          match wres.(w).metrics with
          | Some m ->
              Dt_obs.Metrics.engine_task m ~domain:w
                ~ns:(Int64.sub (Dt_obs.Clock.now_ns ()) task_t0.(w))
          | None -> ());
      steal =
        (fun ~thief ~victim:_ ->
          (match wres.(thief).metrics with
          | Some m -> Dt_obs.Metrics.engine_steal m ~domain:thief
          | None -> ());
          match wres.(thief).spans with
          | Some b ->
              let t = Dt_obs.Clock.now_ns () in
              Dt_obs.Span.record b Dt_obs.Span.Steal ~t0_ns:t ~t1_ns:t
          | None -> ());
    }
  end

(* one per-worker state per pool slot; each gets its own counters,
   metrics registry (merged afterwards in worker-id order), span buffer
   (domain = worker id) and Banerjee arena *)
let make_workers ~njobs ~metrics ~profiler =
  Array.init njobs (fun w ->
      let wm = Option.map (fun _ -> Dt_obs.Metrics.create ()) metrics in
      (match wm with
      | Some m -> Dt_obs.Metrics.engine_registry m
      | None -> ());
      {
        counters = Counters.create ();
        metrics = wm;
        spans = Option.map (fun p -> Dt_obs.Span.buffer p ~domain:w) profiler;
        scratch = Banerjee.Scratch.create ();
      })

let merge_workers ~metrics workers =
  let counters = Counters.create () in
  List.iter
    (fun w ->
      Counters.merge_into counters w.counters;
      match (metrics, w.metrics) with
      | Some m, Some wm -> Dt_obs.Metrics.merge_into m wm
      | _ -> ())
    workers;
  counters

let snapshot_cache ~metrics ~cache =
  (* the table is shared by all workers, so this is taken once after the
     merge, not per worker registry *)
  match (metrics, cache) with
  | Some m, Some c ->
      Dt_obs.Metrics.set_cache_usage m ~size:(Pair_cache.length c)
        ~evictions:(Pair_cache.evictions c)
  | _ -> ()

(* sequential orientation pass, in enumeration order: bit-identical to
   the historical sequential driver at every jobs setting *)
let orient ?buf (sites : site array) (results : Pair_test.t option array) =
  let deps = ref [] and pairs = ref [] in
  let emit_dep ~src ~snk ~array ~dirvec ~level ~distances =
    let (a1 : Stmt.access), _ = src and (a2 : Stmt.access), _ = snk in
    deps :=
      {
        Dep.src_stmt = a1.Stmt.stmt.Stmt.id;
        snk_stmt = a2.Stmt.stmt.Stmt.id;
        array;
        kind = kind_of a1.Stmt.kind a2.Stmt.kind;
        dirvec;
        level;
        distances;
      }
      :: !deps
  in
  Dt_obs.Span.with_ buf Dt_obs.Span.Orient (fun () ->
      Array.iteri
        (fun i site ->
          let ((a1 : Stmt.access), _) = site.left
          and ((a2 : Stmt.access), _) = site.right in
          let array = a1.Stmt.aref.Aref.base in
          let r = Option.get results.(i) in
          pairs :=
            {
              array;
              src_stmt = a1.Stmt.stmt.Stmt.id;
              snk_stmt = a2.Stmt.stmt.Stmt.id;
              meta = r.Pair_test.meta;
              independent = r.Pair_test.result = `Independent;
            }
            :: !pairs;
          match r.Pair_test.result with
          | `Independent -> ()
          | `Dependent { Pair_test.dirvecs; distances } ->
              let same_access = site.same_ref in
              let id1 = a1.Stmt.stmt.Stmt.id
              and id2 = a2.Stmt.stmt.Stmt.id in
              List.iter
                (fun (level, v, orient) ->
                  match (level, orient) with
                  | None, `Forward ->
                      (* loop-independent: source is the textually earlier
                         access; within one statement reads precede the
                         write. *)
                      if same_access then ()
                      else if id1 < id2 then
                        emit_dep ~src:site.left ~snk:site.right ~array
                          ~dirvec:v ~level:None ~distances
                      else if id1 > id2 then
                        emit_dep ~src:site.right ~snk:site.left ~array
                          ~dirvec:v ~level:None
                          ~distances:(List.map (fun (ix, d) -> (ix, neg_dist d)) distances)
                      else begin
                        (* same statement: read executes before write *)
                        match (a1.Stmt.kind, a2.Stmt.kind) with
                        | `Read, `Write ->
                            emit_dep ~src:site.left ~snk:site.right ~array
                              ~dirvec:v ~level:None ~distances
                        | `Write, `Read ->
                            emit_dep ~src:site.right ~snk:site.left ~array
                              ~dirvec:v ~level:None
                              ~distances:
                                (List.map (fun (ix, d) -> (ix, neg_dist d)) distances)
                        | _ -> ()
                      end
                  | Some k, `Forward ->
                      emit_dep ~src:site.left ~snk:site.right ~array
                        ~dirvec:v ~level:(Some k) ~distances
                  | Some k, `Backward ->
                      emit_dep ~src:site.right ~snk:site.left ~array
                        ~dirvec:(Dirvec.negate v) ~level:(Some k)
                        ~distances:(List.map (fun (ix, d) -> (ix, neg_dist d)) distances)
                  | None, `Backward -> assert false)
                (components dirvecs))
        sites);
  { deps = List.rev !deps; pairs = List.rev !pairs; counters = Counters.create () }

let run (cfg : Config.t) prog =
  let { Config.include_inputs; jobs; grain; cache; metrics; sink; profiler;
        deadline_ms; _ } =
    cfg
  in
  let deadline_ns = deadline_of deadline_ms in
  (* worker 0 runs in the calling domain, so the analysis-level brackets
     and worker 0's per-pair spans share buffer 0 and nest naturally *)
  let main_buf = Option.map (fun p -> Dt_obs.Span.buffer p ~domain:0) profiler in
  Dt_obs.Span.with_ main_buf Dt_obs.Span.Analyze @@ fun () ->
  let sites =
    Dt_obs.Span.with_ main_buf Dt_obs.Span.Enumerate (fun () ->
        sites ~include_inputs prog)
  in
  let n = Array.length sites in
  (* a trace is an ordered narrative: a sink forces the sequential path.
     In auto mode (jobs = 0) the engine also stays sequential below the
     grain threshold: a spawned domain costs ~0.1–0.6 ms (see
     [min_parallel_sites]) while a typical reference pair tests in
     ~10us, so small nests lose from fanning out. An explicit jobs
     count is honored literally (tests rely on that to drive the
     multi-domain path on small programs).
     The result is identical either way — only the wall clock changes. *)
  let jobs =
    if sink <> None then 1
    else if jobs = 0 && n < min_parallel_sites then 1
    else jobs
  in
  let results = Array.make n None in
  let ctx = ctx_of cfg ~deadline_ns in
  (* resolve the worker count as [Pool.run] will, so the states (and
     their span buffers / engine registries) can be created eagerly,
     before the domains spawn — [Span.buffer] takes the profiler lock,
     which must not happen concurrently with buffer lookups *)
  let pjobs = Dt_support.Pool.workers jobs in
  let njobs =
    if n = 0 then 0
    else begin
      let j = min pjobs n in
      if j <= 1 then 1 else j
    end
  in
  let wres = make_workers ~njobs ~metrics ~profiler in
  let probe =
    make_probe wres ~instrumented:(metrics <> None || profiler <> None)
  in
  (* engine-level backstop: a task that somehow raises outside
     [Pair_test.test]'s own containment (a fault in the cache or trace
     path, an injected engine fault) is contained per task — the other
     pairs keep running and the faulty pair is widened. *)
  let on_error (w : worker) i e =
    match e with
    | Out_of_memory -> raise e
    | e ->
        results.(i) <-
          Some
            (widen_site ?metrics:w.metrics sites.(i)
               (Dt_guard.Degrade.of_exn e))
  in
  let pool =
    Dt_support.Pool.create ~jobs:pjobs ~grain
      ~hooks:(Dt_support.Pool.hooks ~probe ~on_error ())
      ()
  in
  let workers =
    Dt_obs.Span.with_ main_buf Dt_obs.Span.Test_phase (fun () ->
        if n = 0 then []
        else
          Dt_support.Pool.run pool ~n
            ~state:(fun w -> wres.(w))
            ~body:(fun w i ->
              results.(i) <- Some (test_one ctx w ~counters:w.counters sites.(i))))
  in
  let counters = merge_workers ~metrics workers in
  snapshot_cache ~metrics ~cache;
  let r = orient ?buf:main_buf sites results in
  { r with counters }

(* ------------------------------------------------------------------ *)
(* batched analysis: shard a routine corpus across the pool            *)

(* analyze one routine sequentially on worker [w]'s buffers — the body
   of a [run_all] shard. Per-pair containment and enumeration order are
   exactly [run]'s sequential path, so the result is byte-identical to
   [run cfg] on the same routine; only the span/metrics attribution
   (worker [w]'s buffer and registry instead of domain 0's) differs. *)
let analyze_seq ctx (w : worker) ~include_inputs prog =
  let sites = sites ~include_inputs prog in
  let n = Array.length sites in
  let results = Array.make n None in
  let counters = Counters.create () in
  for i = 0 to n - 1 do
    results.(i) <-
      Some
        (match test_one ctx w ~counters sites.(i) with
        | r -> r
        | exception Out_of_memory -> raise Out_of_memory
        | exception e ->
            widen_site ?metrics:w.metrics sites.(i)
              (Dt_guard.Degrade.of_exn e))
  done;
  let r = orient sites results in
  { r with counters }

let run_all (cfg : Config.t) progs =
  let { Config.include_inputs; jobs; grain; cache; metrics; sink; profiler;
        deadline_ms; _ } =
    cfg
  in
  let n = List.length progs in
  (* shard at routine granularity only when there is real fan-out to
     gain: several routines and either an explicit jobs >= 2 or enough
     routines for auto mode to beat the spawn cost. Everything else —
     including a trace sink, whose narrative must stay ordered — falls
     back to analyzing the routines one by one, where each [run] still
     applies its own per-site parallelism policy. *)
  let sharded =
    sink = None && n >= 2
    && (match jobs with
       | 0 -> n >= min_parallel_routines
       | 1 -> false
       | _ -> true)
  in
  if not sharded then List.map (run cfg) progs
  else begin
    let progs = Array.of_list progs in
    (* one deadline for the whole batch (a per-routine [run] re-arms it
       instead); [deadline_ms = 0] still degrades every pair of every
       routine deterministically *)
    let ctx = ctx_of cfg ~deadline_ns:(deadline_of deadline_ms) in
    let pjobs = Dt_support.Pool.workers jobs in
    let njobs =
      let j = min pjobs n in
      if j <= 1 then 1 else j
    in
    let wres = make_workers ~njobs ~metrics ~profiler in
    let probe =
      make_probe wres ~instrumented:(metrics <> None || profiler <> None)
    in
    (* no pool-level on_error: per-pair faults are already contained
       inside [analyze_seq], so anything escaping a shard (enumeration
       overflow, a fault in the observability path) aborts the batch and
       re-raises — the same propagation [List.map run] would give *)
    let pool =
      Dt_support.Pool.create ~jobs:pjobs ~grain
        ~hooks:(Dt_support.Pool.hooks ~probe ())
        ()
    in
    let results = Array.make n None in
    let workers =
      Dt_support.Pool.run pool ~n
        ~state:(fun w -> wres.(w))
        ~body:(fun w i ->
          Dt_obs.Span.with_ w.spans Dt_obs.Span.Shard @@ fun () ->
          results.(i) <- Some (analyze_seq ctx w ~include_inputs progs.(i)))
    in
    (* worker counters hold only cache-replay noise here (each routine's
       result carries its own accumulator), but the metrics registries
       carry the engine attribution: merge them in worker-id order *)
    ignore (merge_workers ~metrics workers : Counters.t);
    (match metrics with
    | Some m -> Dt_obs.Metrics.engine_shards m ~n
    | None -> ());
    snapshot_cache ~metrics ~cache;
    Array.to_list (Array.map Option.get results)
  end
