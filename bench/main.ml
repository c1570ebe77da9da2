(* The timing gates.

   `dune exec bench/main.exe` measures what `dune runtest` cannot pin,
   wall clock on the machine it runs on, and exits 1 when a gate fails.
   It takes no arguments and writes no file: daemon sockets and the disk
   cache live in a temporary directory that it removes. Every correctness
   check of the code it times is in tier 1; bench/micro.exe prints the
   paper's tables and the per-test bechamel timings, and bench/e2e is the
   end-to-end benchmark. Each gate judges the minimum over several
   runs.

   - metrics: whole-corpus per-kind and per-phase time grows by no more
     than 25% (and 10 us) over bench/obs_baseline.json. It runs first,
     in a fresh process as the baseline was recorded, and prints the
     snapshot to rebuild that baseline from before it reads it.
   - banerjee: the compiled kernel's ns per hierarchy node is at most
     [bj_ratio] of the from-scratch Reference's on the same queries,
     best of [bj_rounds] alternating passes, and the kernel allocates at
     least 2x fewer minor words per node.
   - jobs: auto mode (jobs 0) is at most 1.15x jobs 1 on the seeded
     1000-routine corpus, both through one [Analyze.run_all] and one
     routine at a time (the daemon's edit shape), best of 3 to 15
     rounds.
   - serve: warm and disk-warm daemon passes over the corpus each take
     at most [serve_ratio] of the same units analyzed in process the way
     one-shot `deptest analyze` does, at jobs 1; every request and unit
     costs its floor over [serve_rounds] passes.
   - sampling: always-on request span sampling costs at most 1.05x
     sampling-off on the warm path.

   The metrics baseline is read before its gate is judged, and a
   missing or unreadable one is fatal: no gate passes by being
   skipped. *)

open Dt_ir

let repeat = 3
let failures = ref 0

let fatal fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench: FATAL: " ^ s);
      exit 1)
    fmt

let gate name ok fmt =
  Printf.ksprintf
    (fun detail ->
      Printf.printf "%-9s %-4s %s\n%!" name (if ok then "ok" else "FAIL") detail;
      if not ok then incr failures)
    fmt

let baseline path =
  if not (Sys.file_exists path) then fatal "%s is missing" path;
  match Dt_obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> fatal "%s is unreadable: %s" path e

(* the wall clock of one [f x] *)
let ns f x =
  let t0 = Dt_obs.Clock.now_ns () in
  ignore (Sys.opaque_identity (f x));
  Int64.to_float (Int64.sub (Dt_obs.Clock.now_ns ()) t0)

(* --- banerjee ------------------------------------------------------- *)

(* direct hierarchy queries where the DFS dominates: deep constant-bound
   MIV nests, a coefficient-varying pair, a triangular nest, a
   symbolic-bound nest, and a 7-deep nest whose root crosses the vertex
   cross-product cap *)
let bj_queries =
  let mk name n ~hi_of ~src_k ~snk_k ~delta =
    let ixs = List.init n (fun k -> Index.make (Printf.sprintf "X%d" k) ~depth:k) in
    let loops =
      List.mapi (fun k i -> Loop.make i ~lo:(Affine.const 1) ~hi:(hi_of k ixs)) ixs
    in
    let sum f =
      List.fold_left Affine.add Affine.zero
        (List.mapi (fun k i -> Affine.of_index ~coeff:(f k) i) ixs)
    in
    ( name,
      Deptest.Assume.add_loop_facts Deptest.Assume.empty loops,
      Deptest.Range.compute loops,
      [ Spair.make (sum src_k) (Affine.add_const delta (sum snk_k)) ],
      ixs )
  in
  let const_hi h _ _ = Affine.const h and one _ = 1 in
  [
    mk "deep5-unit" 5 ~hi_of:(const_hi 8) ~src_k:one ~snk_k:one ~delta:(-1);
    mk "deep6-coeffs" 6 ~hi_of:(const_hi 8)
      ~src_k:(fun k -> 1 + (k mod 3))
      ~snk_k:(fun k -> 1 + ((k + 1) mod 3))
      ~delta:1;
    mk "triangular3" 3
      ~hi_of:(fun k ixs ->
        if k = 0 then Affine.const 10
        else Affine.add_const (-1) (Affine.of_index (List.nth ixs (k - 1))))
      ~src_k:one ~snk_k:one ~delta:(-1);
    mk "symbolic3" 3 ~hi_of:(fun _ _ -> Affine.of_sym "N") ~src_k:one ~snk_k:one
      ~delta:(-2);
    mk "deep7-cap" 7 ~hi_of:(const_hi 8) ~src_k:one ~snk_k:one ~delta:(-1);
  ]

(* one pass: every query's verdict, nothing else timed *)
let bj_pass ~reference m =
  List.map
    (fun (_, assume, range, pairs, ixs) ->
      if reference then
        Deptest.Banerjee.Reference.vectors ~metrics:m assume range pairs ~indices:ixs
      else Deptest.Banerjee.vectors ~metrics:m assume range pairs ~indices:ixs)
    bj_queries

(* one evaluator's pass and its node count and minor words per node *)
let bj_leg ~reference =
  let pass () = bj_pass ~reference (Dt_obs.Metrics.create ()) in
  let m = Dt_obs.Metrics.create () in
  ignore (bj_pass ~reference m);
  let nodes =
    float_of_int
      (Dt_obs.Metrics.banerjee_incremental_nodes m
      + Dt_obs.Metrics.banerjee_scratch_nodes m)
  in
  let w0 = Gc.minor_words () in
  ignore (pass ());
  (pass, nodes, (Gc.minor_words () -. w0) /. nodes)

let bj_ratio = 0.0013
let bj_rounds = 8

let banerjee_gate () =
  let kpass, knodes, wpn = bj_leg ~reference:false in
  let rpass, rnodes, ref_wpn = bj_leg ~reference:true in
  let k = ref infinity and r = ref infinity in
  for _ = 1 to bj_rounds do
    (* each pass starts on a collected heap: the kernel's passes never
       pay for the Reference's garbage *)
    Gc.full_major ();
    k := Float.min !k (ns kpass ());
    Gc.full_major ();
    r := Float.min !r (ns rpass ())
  done;
  let npn = !k /. knodes and ref_npn = !r /. rnodes in
  gate "banerjee" (npn <= bj_ratio *. ref_npn)
    "%.1f ns/node, Reference %.1f (%.4fx, limit %.4fx)" npn ref_npn
    (npn /. ref_npn) bj_ratio;
  gate "banerjee" (ref_wpn >= 2. *. wpn)
    "%.1f words/node, Reference %.1f (%.1fx, limit 2x)" wpn ref_wpn (ref_wpn /. wpn)

(* --- jobs ------------------------------------------------------------ *)

(* Auto mode against jobs 1 on the seeded 1000-routine corpus, through
   one [Analyze.run_all] (auto shards it) and one [Analyze.run] at a time
   (the daemon's edit shape: no routine is big enough to fan out). The
   second leg runs both settings back to back on each routine, in
   alternating order, so the box's slow spells reach both alike. Two
   domains here sometimes share one core for a second or more, which
   doubles a sharded run; so a leg takes the best of [repeat] to
   [jobs_rounds] rounds, stopping once auto is within [jobs_ratio]. *)
let jobs_ratio = 1.15
let jobs_rounds = 15

let jobs_gate () =
  let routines = 1000 in
  let st = Random.State.make [| 0xD09; routines |] in
  let sym = { Dt_workloads.Generator.default with symbolic_hi = true } in
  let progs =
    List.init routines (fun k ->
        let g = if k mod 2 = 0 then Dt_workloads.Generator.default else sym in
        Dt_workloads.Generator.program st g ~stmts:4)
  in
  let one = Deptest.Analyze.Config.make ~jobs:1 ~cache:false ()
  and auto = Deptest.Analyze.Config.make ~jobs:0 ~cache:false () in
  (* one round of a leg: (jobs 1 ns, auto ns) *)
  let in_one_run_all () =
    (ns (Deptest.Analyze.run_all one) progs, ns (Deptest.Analyze.run_all auto) progs)
  and one_at_a_time () =
    snd
      (List.fold_left
         (fun (even, (a, b)) p ->
           let x, y =
             if even then
               let x = ns (Deptest.Analyze.run one) p in
               (x, ns (Deptest.Analyze.run auto) p)
             else
               let y = ns (Deptest.Analyze.run auto) p in
               (ns (Deptest.Analyze.run one) p, y)
           in
           (not even, (a +. x, b +. y)))
         (true, (0., 0.)) progs)
  in
  List.iter
    (fun (leg, round) ->
      let rec rounds r (o, a) =
        let o', a' = round () in
        let o = Float.min o o' and a = Float.min a a' in
        if r >= jobs_rounds || (r >= repeat && a <= jobs_ratio *. o) then (r, o, a)
        else rounds (r + 1) (o, a)
      in
      let r, o, a = rounds 1 (infinity, infinity) in
      gate "jobs" (a <= jobs_ratio *. o)
        "%d routines %s: auto %.1f ms vs jobs 1 %.1f ms (%.2fx, limit %.2fx, \
         best of %d, %d cores)"
        routines leg (a /. 1e6) (o /. 1e6) (a /. o) jobs_ratio r
        (Dt_support.Pool.recommended_jobs ()))
    [ ("in one run_all", in_one_run_all); ("one at a time", one_at_a_time) ]

(* --- serve and sampling: daemons on domains of this process ----------- *)

let tmp =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "deptest-bench-%d" (Unix.getpid ()))

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

let start_daemon ?cache_dir ?sample_period ?slow_threshold_ns name =
  let socket = Filename.concat tmp (name ^ ".sock") in
  let d =
    Domain.spawn (fun () ->
        Dt_serve.Server.run ~socket ?cache_dir ?sample_period ?slow_threshold_ns ())
  in
  let rec wait n =
    if n = 0 then fatal "daemon %s never answered health" name;
    if not (Dt_serve.Client.ping ~socket ()) then begin
      Unix.sleepf 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  (socket, d)

let stop_daemon (socket, d) =
  let c = Dt_serve.Client.connect ~socket in
  ignore (Dt_serve.Client.request c Dt_serve.Protocol.Shutdown);
  Dt_serve.Client.close c;
  if Domain.join d <> 0 then fatal "daemon on %s exited non-zero" socket

(* one round-trip per corpus unit on one connection: each request's ns *)
let pass ?(traced = false) (socket, _) =
  let c = Dt_serve.Client.connect ~socket in
  Fun.protect ~finally:(fun () -> Dt_serve.Client.close c) @@ fun () ->
  List.map
    (fun (e : Dt_workloads.Corpus.entry) ->
      let trace_id = if traced then Some (Dt_obs.Reqtrace.gen_id ()) else None in
      let t0 = Dt_obs.Clock.now_ns () in
      let resp =
        Dt_serve.Client.request c
          (Dt_serve.Protocol.Analyze
             { source = e.source; id = None; trace_id; deadline_ms = None })
      in
      let ns = Int64.to_float (Int64.sub (Dt_obs.Clock.now_ns ()) t0) in
      if Dt_obs.Json.member "ok" resp <> Some (Dt_obs.Json.Bool true) then
        fatal "daemon on %s failed %s: %s" socket e.name (Dt_obs.Json.to_string resp);
      ns)
    Dt_workloads.Corpus.all

let total = List.fold_left ( +. ) 0.

(* each corpus unit analyzed in process as one-shot `deptest analyze`
   does a file (parse, a fresh configuration, run_all, render), at jobs
   1: each unit's ns *)
let oneshot_pass () =
  let analyze src =
    let progs =
      if Dt_frontend.Cfront.looks_like_c src then
        [ Dt_frontend.Cfront.parse_and_lower src ]
      else Dt_frontend.Lower.parse_unit src
    in
    Dt_serve.Render.unit_ progs
      (Deptest.Analyze.run_all (Deptest.Analyze.Config.make ~jobs:1 ()) progs)
  in
  List.map
    (fun (e : Dt_workloads.Corpus.entry) -> ns analyze e.source)
    Dt_workloads.Corpus.all

(* A cold pass fills the store. Each round then restarts the daemon on
   it for a disk-warm pass and a warm pass, and runs the one-shot
   pipeline once; each request and unit costs its floor over the rounds.
   The reference does no serving and reads no store, so a change to the
   daemon's cold path cannot move it. *)
let serve_ratio = 0.65
let serve_rounds = 10

let serve_gate () =
  let cache_dir = Filename.concat tmp "cache" in
  let d = start_daemon ~cache_dir "serve" in
  ignore (pass d);
  stop_daemon d;
  let floor = ref None in
  for _ = 1 to serve_rounds do
    let d = start_daemon ~cache_dir "serve" in
    let disk_warm = pass d in
    let warm = pass d in
    stop_daemon d;
    let round = (disk_warm, warm, oneshot_pass ()) in
    floor :=
      Some
        (match !floor with
        | None -> round
        | Some (a, b, c) ->
            let m = List.map2 Float.min in
            let x, y, z = round in
            (m a x, m b y, m c z))
  done;
  let disk_warm, warm, oneshot = Option.get !floor in
  let oneshot = total oneshot in
  List.iter
    (fun (leg, ns) ->
      gate "serve" (ns <= serve_ratio *. oneshot)
        "%s %.2f ms vs one-shot in process %.2f ms (%.2fx, limit %.2fx)" leg
        (ns /. 1e6) (oneshot /. 1e6) (ns /. oneshot) serve_ratio)
    [ ("warm", total warm); ("disk-warm", total disk_warm) ]

(* Both daemons run side by side, warm passes alternate between them, and
   each request costs its floor: its minimum over the passes, with
   scheduler and GC stragglers squeezed out. *)
let sampling_gate () =
  let off = start_daemon ~sample_period:0 ~slow_threshold_ns:0L "sampling-off"
  and on = start_daemon ~sample_period:1 ~slow_threshold_ns:0L "sampling-on" in
  ignore (pass ~traced:true off);
  ignore (pass ~traced:true on);
  let floor_off = ref (pass ~traced:true off)
  and floor_on = ref (pass ~traced:true on) in
  for _ = 2 to 5 do
    floor_off := List.map2 Float.min !floor_off (pass ~traced:true off);
    floor_on := List.map2 Float.min !floor_on (pass ~traced:true on)
  done;
  stop_daemon off;
  stop_daemon on;
  let off = total !floor_off and on = total !floor_on in
  gate "sampling" (on <= 1.05 *. off) "on %.2f ms vs off %.2f ms (%.3fx, limit 1.05x)"
    (on /. 1e6) (off /. 1e6) (on /. off)

(* --- whole-corpus metrics --------------------------------------------- *)

let metrics_gate () =
  let suites = List.filter (fun s -> s <> "paper") Dt_workloads.Corpus.suites in
  let profs = List.concat_map snd (Dt_stats.Tables.profiles ~suites) in
  let agg = Dt_stats.Profile.aggregate ~name:"all" ~suite:"all" profs in
  let cur = Dt_obs.Metrics.to_json agg.Dt_stats.Profile.metrics in
  (* the line to copy over the baseline when a change is intended *)
  print_endline ("snapshot " ^ Dt_obs.Json.to_string cur);
  let base = baseline "bench/obs_baseline.json" in
  let diff = Dt_obs.Diff.compare_json ~threshold:0.25 ~min_ns:10_000. in
  match diff ~base ~cur () with
  | Error e -> fatal "bench/obs_baseline.json: %s" e
  | Ok report ->
      let breach = Dt_obs.Diff.has_breach report in
      if breach then Format.printf "%a@." Dt_obs.Diff.pp report;
      gate "metrics" (not breach)
        "%d rows vs bench/obs_baseline.json (limit +25%% and +10 us)"
        (List.length report.Dt_obs.Diff.rows)

let () =
  rm_rf tmp;
  Unix.mkdir tmp 0o700;
  at_exit (fun () -> rm_rf tmp);
  metrics_gate ();
  banerjee_gate ();
  jobs_gate ();
  serve_gate ();
  sampling_gate ();
  if !failures > 0 then fatal "%d gate(s) failed" !failures
