(* The benchmark harness.

   Running `dune exec bench/main.exe` regenerates every table and figure of
   the paper's evaluation over the embedded corpus (Tables 1-4, the Figure
   2 geometry, the class-distribution histogram), then times the dependence
   tests with bechamel:

   - per-test microbenchmarks (ZIV, each SIV shape, RDIV, GCD, Banerjee,
     Delta) back the paper's efficiency claim that the special-case exact
     tests are cheap;
   - strategy benchmarks (partition-based vs subscript-by-subscript vs the
     Power test) reproduce the shape of the paper's §7 comparison: the
     Fourier-Motzkin-based exact test costs over an order of magnitude
     more than the practical suite (Triolet's 22-28x);
   - a whole-corpus analysis benchmark measures end-to-end throughput.

   Pass `--tables-only` to skip the timing runs (used by CI). *)

open Bechamel
open Toolkit
open Dt_ir

(* ------------------------------------------------------------------ *)
(* fixtures                                                            *)

let i0 = Index.make "I" ~depth:0
let j1 = Index.make "J" ~depth:1
let av ?(c = 0) ?(k = 1) i = Affine.add_const c (Affine.of_index ~coeff:k i)
let loop ?(lo = 1) ~hi i = Loop.make i ~lo:(Affine.const lo) ~hi:(Affine.const hi)

let loops1 = [ loop ~hi:100 i0 ]
let loops2 = [ loop ~hi:100 i0; loop ~hi:100 j1 ]
let assume1 = Deptest.Assume.add_loop_facts Deptest.Assume.empty loops1
let range1 = Deptest.Range.compute loops1
let assume2 = Deptest.Assume.add_loop_facts Deptest.Assume.empty loops2
let range2 = Deptest.Range.compute loops2
let relevant2 = Index.Set.of_list [ i0; j1 ]

let ziv_pair = Spair.make (Affine.of_sym "N") (Affine.add_const 2 (Affine.of_sym "N"))
let strong_pair = Spair.make (av ~c:1 i0) (av i0)
let weak_zero_pair = Spair.make (av i0) (Affine.const 50)
let weak_crossing_pair = Spair.make (av i0) (av ~k:(-1) ~c:101 i0)
let exact_pair = Spair.make (av ~k:2 i0) (av ~k:3 ~c:1 i0)
let rdiv_pair = Spair.make (av i0) (av j1)
let miv_pair =
  Spair.make (Affine.add (av i0) (av j1))
    (Affine.add_const (-1) (Affine.add (av i0) (av j1)))

let coupled_group =
  [ Spair.make (av ~c:1 i0) (av i0); miv_pair ]

(* strategy-comparison pairs: a separable 2-D strong-SIV pair (the common
   case the paper's suite makes cheap) and a coupled pair (Delta
   territory) *)
let sep_src = Aref.linear "A" [ av ~c:1 i0; av j1 ]
let sep_snk = Aref.linear "A" [ av i0; av ~c:(-1) j1 ]
let cmp_src = Aref.linear "A" [ av ~c:1 i0; Affine.add (av i0) (av j1) ]
let cmp_snk =
  Aref.linear "A" [ av i0; Affine.add_const (-1) (Affine.add (av i0) (av j1)) ]

(* ------------------------------------------------------------------ *)
(* bechamel plumbing                                                   *)

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]

let instances = Instance.[ monotonic_clock ]

let cfg =
  Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()

let run_suite ~name tests =
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  (* print ns/run from the monotonic clock *)
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows = ref [] in
  Hashtbl.iter
    (fun key result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (key, est) :: !rows
      | _ -> ())
    clock;
  Printf.printf "\n== %s ==\n" name;
  List.iter
    (fun (key, est) -> Printf.printf "  %-40s %12.1f ns/run\n" key est)
    (List.sort compare !rows);
  List.sort compare !rows

let stage = Staged.stage

(* ------------------------------------------------------------------ *)

let micro_tests =
  [
    Test.make ~name:"ziv" (stage (fun () -> Deptest.Ziv.test assume1 ziv_pair));
    Test.make ~name:"strong-siv"
      (stage (fun () -> Deptest.Siv.strong assume1 range1 strong_pair i0));
    Test.make ~name:"weak-zero-siv"
      (stage (fun () -> Deptest.Siv.weak_zero assume1 range1 weak_zero_pair i0));
    Test.make ~name:"weak-crossing-siv"
      (stage (fun () ->
           Deptest.Siv.weak_crossing assume1 range1 weak_crossing_pair i0));
    Test.make ~name:"exact-siv"
      (stage (fun () -> Deptest.Siv.exact assume1 range1 exact_pair i0));
    Test.make ~name:"rdiv"
      (stage (fun () ->
           Deptest.Rdiv.test assume2 range2 rdiv_pair ~src:i0 ~snk:j1));
    Test.make ~name:"gcd" (stage (fun () -> Deptest.Gcd_test.test miv_pair));
    Test.make ~name:"banerjee-vectors"
      (stage (fun () ->
           Deptest.Banerjee.vectors assume2 range2 [ miv_pair ]
             ~indices:[ i0; j1 ]));
    Test.make ~name:"delta-coupled-group"
      (stage (fun () ->
           Deptest.Delta.test assume2 range2 coupled_group ~relevant:relevant2));
  ]

let strategy_tests =
  [
    Test.make ~name:"separable-partition-based"
      (stage (fun () ->
           Deptest.Pair_test.test ~strategy:Deptest.Pair_test.Partition_based
             ~src:(sep_src, loops2) ~snk:(sep_snk, loops2) ()));
    Test.make ~name:"separable-subscript-by-subscript"
      (stage (fun () ->
           Deptest.Pair_test.test
             ~strategy:Deptest.Pair_test.Subscript_by_subscript
             ~src:(sep_src, loops2) ~snk:(sep_snk, loops2) ()));
    Test.make ~name:"separable-power-test-fm"
      (stage (fun () ->
           Dt_exact.Power.vectors ~src:(sep_src, loops2) ~snk:(sep_snk, loops2)
             ()));
    Test.make ~name:"coupled-partition-based"
      (stage (fun () ->
           Deptest.Pair_test.test ~strategy:Deptest.Pair_test.Partition_based
             ~src:(cmp_src, loops2) ~snk:(cmp_snk, loops2) ()));
    Test.make ~name:"coupled-subscript-by-subscript"
      (stage (fun () ->
           Deptest.Pair_test.test
             ~strategy:Deptest.Pair_test.Subscript_by_subscript
             ~src:(cmp_src, loops2) ~snk:(cmp_snk, loops2) ()));
    Test.make ~name:"coupled-power-test-fm"
      (stage (fun () ->
           Dt_exact.Power.vectors ~src:(cmp_src, loops2) ~snk:(cmp_snk, loops2)
             ()));
  ]

(* §5.4: the Delta test is linear in the number of subscripts — groups of
   2, 4, 8, 16 coupled subscripts (a strong SIV driver plus MIV subscripts
   it reduces) should time proportionally. *)
let delta_scaling_tests =
  let group n =
    Spair.make (av ~c:1 i0) (av i0)
    :: List.init (n - 1) (fun k ->
           Spair.make
             (Affine.add (av ~c:k i0) (av j1))
             (Affine.add_const (-1) (Affine.add (av ~c:k i0) (av j1))))
  in
  List.map
    (fun n ->
      let pairs = group n in
      Test.make
        ~name:(Printf.sprintf "delta-%02d-subscripts" n)
        (stage (fun () ->
             Deptest.Delta.test assume2 range2 pairs ~relevant:relevant2)))
    [ 2; 4; 8; 16 ]

let corpus_tests =
  let suites = [ "linpack"; "eispack"; "livermore" ] in
  (* sequential, cache off: this benchmark measures the raw test
     cascade, the engine axes are covered by the BENCH_engine run *)
  let seq = Deptest.Analyze.Config.make ~jobs:1 ~cache:false () in
  List.map
    (fun suite ->
      let progs =
        List.map Dt_workloads.Corpus.program (Dt_workloads.Corpus.by_suite suite)
      in
      Test.make
        ~name:("analyze-" ^ suite)
        (stage (fun () ->
             List.iter (fun p -> ignore (Deptest.Analyze.run seq p)) progs)))
    suites

let frontend_tests =
  let src = (Dt_workloads.Corpus.find_exn ~suite:"linpack" ~name:"dgefa").Dt_workloads.Corpus.source in
  [
    Test.make ~name:"parse-and-lower"
      (stage (fun () -> Dt_frontend.Lower.parse src));
  ]

(* ------------------------------------------------------------------ *)

let print_tables () =
  print_string (Dt_stats.Tables.all ());
  print_newline ();
  print_string (Dt_stats.Figures.fig2_weak_siv ~a1:1 ~a2:2 ~c:(-9) ~lo:1 ~hi:10);
  print_newline ();
  let suites = List.filter (fun s -> s <> "paper") Dt_workloads.Corpus.suites in
  let profs =
    List.concat_map (fun (_, p) -> p) (Dt_stats.Tables.profiles ~suites)
  in
  let agg = Dt_stats.Profile.aggregate ~name:"all" ~suite:"all" profs in
  print_endline "Figure: subscript class distribution over the corpus";
  print_string (Dt_stats.Figures.class_histogram agg.Dt_stats.Profile.classes);
  (* metrics snapshot for the whole-corpus run: per-test-kind counts and
     wall-clock timings, phase spans, per-pair latency histogram *)
  Dt_obs.Artifact.write_atomic "BENCH_obs.json"
    (Dt_obs.Json.to_string (Dt_obs.Metrics.to_json agg.Dt_stats.Profile.metrics)
    ^ "\n");
  print_endline "\nwhole-corpus metrics snapshot written to BENCH_obs.json"

(* ------------------------------------------------------------------ *)
(* engine benchmark: the parallel pair-testing engine and the
   structural memo cache over the whole corpus. Always runs (the CI
   smoke exercises it under --tables-only); writes BENCH_engine.json.

     --jobs 1,2,4   worker-domain counts to measure (default 1,2,4)
     --no-cache     measure only the cache-off axis
     --repeat N     timing repetitions per setting, min taken (default 3) *)

let opt_value flag =
  let rec go = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go (Array.to_list Sys.argv)

(* the default jobs axis is clamped to the core count: oversubscribing
   domains is never profitable (a 1-core box measured --jobs 2 at 2.4x
   slower than --jobs 1), so auto selection must not exceed it. An
   explicit --jobs list is honored literally — the CI matrix measures
   oversubscription on purpose. Returns the axis and whether the clamp
   dropped anything. *)
let engine_jobs () =
  match opt_value "--jobs" with
  | None ->
      let cores = Dt_support.Pool.recommended_jobs () in
      let wanted = [ 1; 2; 4 ] in
      let js = List.filter (fun j -> j <= cores) wanted in
      ((if js = [] then [ 1 ] else js), List.exists (fun j -> j > cores) wanted)
  | Some v -> (
      try
        let js =
          List.map int_of_string (String.split_on_char ',' (String.trim v))
        in
        ((if js = [] then [ 1; 2; 4 ] else js), false)
      with _ ->
        prerr_endline "bench: bad --jobs value, expected e.g. --jobs 1,2,4";
        exit 2)

let engine_repeat () =
  match opt_value "--repeat" with
  | None -> 3
  | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> 3)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The digest a committed baseline pins. A missing or unreadable
   baseline is as fatal as a mismatching one, so a digest guard can
   never pass by being skipped. *)
let committed_digest path =
  let fatal why =
    Printf.eprintf "bench: FATAL: %s %s\n" path why;
    exit 1
  in
  if not (Sys.file_exists path) then fatal "is missing"
  else
    match Dt_obs.Json.of_string (read_file path) with
    | Error e -> fatal ("is unreadable: " ^ e)
    | Ok j -> (
        match Dt_obs.Json.member "digest" j with
        | Some (Dt_obs.Json.String s) -> s
        | _ -> fatal "has no \"digest\" string")

(* render the full analysis result (dependences + paper counters) so the
   cross-setting identity check covers everything a user can observe *)
let render_deps cfg progs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (p : Nest.program) ->
      let r = Deptest.Analyze.run cfg p in
      Buffer.add_string buf p.Nest.name;
      Buffer.add_char buf '\n';
      List.iter
        (fun d ->
          Buffer.add_string buf (Format.asprintf "%a@." Deptest.Dep.pp d))
        r.Deptest.Analyze.deps;
      Buffer.add_string buf
        (Format.asprintf "%a@." Deptest.Counters.pp r.Deptest.Analyze.counters))
    progs;
  Buffer.contents buf

(* The corpus routines are tiny — ~5 reference pairs each, far below the
   engine's sequential-fallback grain — so corpus timings cannot show
   parallel speedup. This synthetic nest (s statements over one array,
   ~1.5*s^2 coupled reference pairs) is the parallel showcase. *)
let synthetic_nest s =
  let li = loop ~hi:100 i0 and lj = loop ~hi:100 j1 in
  let stmts =
    List.init s (fun k ->
        let sub c d =
          [ av ~c i0; Affine.add_const d (Affine.add (av i0) (av ~c:(-k) j1)) ]
        in
        Stmt.make ~id:k
          ~writes:[ Aref.linear "A" (sub (k mod 5) 0) ]
          ~reads:[ Aref.linear "A" (sub ((k + 2) mod 5) 1) ]
          ~text:(Printf.sprintf "A(I+%d,I+J-%d) = A(I+%d,I+J-%d+1)"
                   (k mod 5) k ((k + 2) mod 5) k)
          ())
  in
  Nest.program ~name:(Printf.sprintf "synthetic-%d" s)
    [ Nest.Loop (li, [ Nest.Loop (lj, List.map (fun st -> Nest.Stmt st) stmts) ]) ]

type engine_run = {
  e_jobs : int;
  e_cache : bool;
  e_ns : int64;
  e_out : string;
  e_hits : int;
  e_misses : int;
}

let time_setting ~jobs ~cache ~repeat progs =
  let best = ref Int64.max_int in
  let out = ref "" and hits = ref 0 and misses = ref 0 in
  for _ = 1 to repeat do
    (* fresh config per repetition: every timed run starts cache-cold,
       so the hit rate reflects one corpus pass, not the repetitions *)
    let cfg = Deptest.Analyze.Config.make ~jobs ~cache () in
    let t0 = Dt_obs.Clock.now_ns () in
    let s = render_deps cfg progs in
    let t1 = Dt_obs.Clock.now_ns () in
    let dt = Int64.sub t1 t0 in
    if Int64.compare dt !best < 0 then best := dt;
    out := s;
    match Deptest.Analyze.Config.cache_stats cfg with
    | Some (h, m) ->
        hits := h;
        misses := m
    | None -> ()
  done;
  { e_jobs = jobs; e_cache = cache; e_ns = !best; e_out = !out;
    e_hits = !hits; e_misses = !misses }

let engine_bench () =
  let jobs, jobs_clamped = engine_jobs () and repeat = engine_repeat () in
  let cache_axes =
    if Array.mem "--no-cache" Sys.argv then [ false ] else [ false; true ]
  in
  let progs =
    List.concat_map
      (fun (e : Dt_workloads.Corpus.entry) -> Dt_workloads.Corpus.programs e)
      Dt_workloads.Corpus.all
  in
  let runs =
    List.concat_map
      (fun j ->
        List.map (fun c -> time_setting ~jobs:j ~cache:c ~repeat progs)
          cache_axes)
      jobs
  in
  let baseline =
    match
      List.find_opt (fun r -> r.e_jobs = 1 && not r.e_cache) runs
    with
    | Some r -> r
    | None -> List.hd runs
  in
  let identical = List.for_all (fun r -> r.e_out = baseline.e_out) runs in
  let speedup_vs base r =
    if Int64.compare r.e_ns 0L > 0 then
      Int64.to_float base.e_ns /. Int64.to_float r.e_ns
    else 0.0
  in
  let speedup = speedup_vs baseline in
  let hit_rate r =
    let total = r.e_hits + r.e_misses in
    if total = 0 then 0.0 else float_of_int r.e_hits /. float_of_int total
  in
  Printf.printf
    "\n== engine: whole-corpus analysis (%d routines, min of %d) ==\n"
    (List.length progs) repeat;
  List.iter
    (fun r ->
      Printf.printf
        "  jobs=%d cache=%-3s %10.2f ms   %5.2fx vs jobs=1/no-cache" r.e_jobs
        (if r.e_cache then "on" else "off")
        (Int64.to_float r.e_ns /. 1e6)
        (speedup r);
      if r.e_cache then
        Printf.printf "   hit rate %.1f%% (%d/%d)" (100.0 *. hit_rate r)
          r.e_hits (r.e_hits + r.e_misses);
      print_newline ())
    runs;
  Printf.printf "  output identical across all settings: %b\n" identical;
  let best_cached =
    List.find_opt (fun r -> r.e_cache) (List.rev runs)
  in
  let overall_hit_rate =
    match best_cached with Some r -> hit_rate r | None -> 0.0
  in
  (* parallel showcase on a nest large enough to cross the engine's
     sequential-fallback grain *)
  let synth = synthetic_nest 64 in
  let synth_sites = Array.length (Deptest.Analyze.sites synth) in
  let synth_runs =
    List.map (fun j -> time_setting ~jobs:j ~cache:false ~repeat [ synth ]) jobs
  in
  let synth_base =
    match List.find_opt (fun r -> r.e_jobs = 1) synth_runs with
    | Some r -> r
    | None -> List.hd synth_runs
  in
  let synth_identical =
    List.for_all (fun r -> r.e_out = synth_base.e_out) synth_runs
  in
  Printf.printf
    "\n== engine: synthetic nest (%d reference pairs, min of %d) ==\n"
    synth_sites repeat;
  List.iter
    (fun r ->
      Printf.printf "  jobs=%d            %10.2f ms   %5.2fx vs jobs=1\n"
        r.e_jobs
        (Int64.to_float r.e_ns /. 1e6)
        (speedup_vs synth_base r))
    synth_runs;
  Printf.printf "  output identical across all settings: %b\n" synth_identical;
  (* routine-grain sharding: a generated thousand-routine corpus through
     [Analyze.run_all], where whole routines are the stolen work items.
     Generation is seeded, so the digest of the rendered output is
     machine-independent and guarded against bench/engine_baseline.json
     (regenerate with `dune exec bench/main.exe -- --tables-only` and
     copy the "digest" field). Half the routines get a symbolic outer
     bound. *)
  let shard_routines = 1000 in
  let shard_progs =
    let st = Random.State.make [| 0xD09; shard_routines |] in
    let sym_cfg =
      { Dt_workloads.Generator.default with
        Dt_workloads.Generator.symbolic_hi = true }
    in
    List.init shard_routines (fun k ->
        let cfg =
          if k mod 2 = 0 then Dt_workloads.Generator.default else sym_cfg
        in
        let p = Dt_workloads.Generator.program st cfg ~stmts:4 in
        { p with Nest.name = Printf.sprintf "gen-%04d" k })
  in
  let render_all cfg progs =
    let buf = Buffer.create (1 lsl 16) in
    List.iter2
      (fun (p : Nest.program) (r : Deptest.Analyze.result) ->
        Buffer.add_string buf p.Nest.name;
        Buffer.add_char buf '\n';
        List.iter
          (fun d ->
            Buffer.add_string buf (Format.asprintf "%a@." Deptest.Dep.pp d))
          r.Deptest.Analyze.deps;
        Buffer.add_string buf
          (Format.asprintf "%a@." Deptest.Counters.pp
             r.Deptest.Analyze.counters))
      progs
      (Deptest.Analyze.run_all cfg progs);
    Buffer.contents buf
  in
  let shard_setting jobs =
    (* one instrumented pass for the digest and the per-worker
       attribution (tasks, steals, busy vs queue-wait), then
       uninstrumented timed passes, best-of-repeat *)
    let m = Dt_obs.Metrics.create () in
    let icfg =
      Deptest.Analyze.Config.make ~jobs ~cache:false ~metrics:m ()
    in
    let digest = Digest.to_hex (Digest.string (render_all icfg shard_progs)) in
    let best = ref Int64.max_int in
    for _ = 1 to repeat do
      let cfg = Deptest.Analyze.Config.make ~jobs ~cache:false () in
      let t0 = Dt_obs.Clock.now_ns () in
      ignore (Deptest.Analyze.run_all cfg shard_progs);
      let t1 = Dt_obs.Clock.now_ns () in
      let dt = Int64.sub t1 t0 in
      if Int64.compare dt !best < 0 then best := dt
    done;
    (jobs, digest, !best, Dt_obs.Metrics.engine_rows m,
     Dt_obs.Metrics.shards m)
  in
  let shard_runs = List.map shard_setting jobs in
  let _, shard_digest0, shard_base_ns, _, _ = List.hd shard_runs in
  let shard_speedup ns =
    if Int64.compare ns 0L > 0 then
      Int64.to_float shard_base_ns /. Int64.to_float ns
    else 0.0
  in
  let shard_identical =
    List.for_all (fun (_, d, _, _, _) -> d = shard_digest0) shard_runs
  in
  Printf.printf
    "\n== engine: sharded corpus (%d generated routines, min of %d) ==\n"
    shard_routines repeat;
  List.iter
    (fun (j, _, ns, rows, shards) ->
      let steals = List.fold_left (fun a (_, _, s, _, _) -> a + s) 0 rows in
      let busy =
        List.fold_left (fun a (_, _, _, b, _) -> Int64.add a b) 0L rows
      in
      let wait =
        List.fold_left (fun a (_, _, _, _, w) -> Int64.add a w) 0L rows
      in
      Printf.printf
        "  jobs=%d %10.2f ms   %5.2fx vs jobs=1   shards=%d steals=%d \
         busy=%.1fms wait=%.1fms\n"
        j
        (Int64.to_float ns /. 1e6)
        (shard_speedup ns) shards steals
        (Int64.to_float busy /. 1e6)
        (Int64.to_float wait /. 1e6))
    shard_runs;
  Printf.printf "  output digest identical across jobs settings: %b\n"
    shard_identical;
  let baseline_match =
    committed_digest "bench/engine_baseline.json" = shard_digest0
  in
  Printf.printf "  digest vs bench/engine_baseline.json: %s\n"
    (if baseline_match then "match" else "MISMATCH");
  let cores = Dt_support.Pool.recommended_jobs () in
  if cores = 1 then
    print_endline
      "  note: this environment exposes a single CPU, so wall-clock speedup\n\
      \  is not observable here — jobs>1 measures engine overhead only\n\
      \  (domains time-slice one core). The identity checks above still\n\
      \  exercise the full multi-domain path.";
  if jobs_clamped then
    Printf.printf
      "  jobs axis clamped to <= %d core(s); pass an explicit --jobs list \
       to measure oversubscription\n"
      cores;
  let json =
    Dt_obs.Json.Obj
      [
        ("schema", Dt_obs.Json.String "deptest-engine/2");
        ("cores", Dt_obs.Json.Int cores);
        ("routines", Dt_obs.Json.Int (List.length progs));
        ("repeat", Dt_obs.Json.Int repeat);
        ( "jobs_tested",
          Dt_obs.Json.List (List.map (fun j -> Dt_obs.Json.Int j) jobs) );
        ("jobs_auto_clamped", Dt_obs.Json.Bool jobs_clamped);
        ("cache_hit_rate", Dt_obs.Json.Float overall_hit_rate);
        ( "identical_output",
          Dt_obs.Json.Bool (identical && synth_identical && shard_identical)
        );
        ( "sharded",
          Dt_obs.Json.Obj
            [
              ("routines", Dt_obs.Json.Int shard_routines);
              ("stmts_per_routine", Dt_obs.Json.Int 4);
              ("digest", Dt_obs.Json.String shard_digest0);
              ("baseline_match", Dt_obs.Json.Bool baseline_match);
              ( "runs",
                Dt_obs.Json.List
                  (List.map
                     (fun (j, _, ns, rows, shards) ->
                       Dt_obs.Json.Obj
                         [
                           ("jobs", Dt_obs.Json.Int j);
                           ("ns", Dt_obs.Json.Int (Int64.to_int ns));
                           ("speedup", Dt_obs.Json.Float (shard_speedup ns));
                           ("shards", Dt_obs.Json.Int shards);
                           ( "workers",
                             Dt_obs.Json.List
                               (List.map
                                  (fun (d, tasks, steals, busy, wait) ->
                                    Dt_obs.Json.Obj
                                      [
                                        ("domain", Dt_obs.Json.Int d);
                                        ("tasks", Dt_obs.Json.Int tasks);
                                        ("steals", Dt_obs.Json.Int steals);
                                        ( "busy_ns",
                                          Dt_obs.Json.Int (Int64.to_int busy)
                                        );
                                        ( "queue_wait_ns",
                                          Dt_obs.Json.Int (Int64.to_int wait)
                                        );
                                      ])
                                  rows) );
                         ])
                     shard_runs) );
            ] );
        ( "synthetic",
          Dt_obs.Json.Obj
            [
              ("pairs", Dt_obs.Json.Int synth_sites);
              ( "runs",
                Dt_obs.Json.List
                  (List.map
                     (fun r ->
                       Dt_obs.Json.Obj
                         [
                           ("jobs", Dt_obs.Json.Int r.e_jobs);
                           ("ns", Dt_obs.Json.Int (Int64.to_int r.e_ns));
                           ( "speedup",
                             Dt_obs.Json.Float (speedup_vs synth_base r) );
                         ])
                     synth_runs) );
            ] );
        ( "runs",
          Dt_obs.Json.List
            (List.map
               (fun r ->
                 Dt_obs.Json.Obj
                   [
                     ("jobs", Dt_obs.Json.Int r.e_jobs);
                     ("cache", Dt_obs.Json.Bool r.e_cache);
                     ("ns", Dt_obs.Json.Int (Int64.to_int r.e_ns));
                     ("speedup", Dt_obs.Json.Float (speedup r));
                     ("hits", Dt_obs.Json.Int r.e_hits);
                     ("misses", Dt_obs.Json.Int r.e_misses);
                     ("hit_rate", Dt_obs.Json.Float (hit_rate r));
                   ])
               runs) );
      ]
  in
  Dt_obs.Artifact.write_atomic "BENCH_engine.json"
    (Dt_obs.Json.to_string json ^ "\n");
  print_endline "engine benchmark written to BENCH_engine.json";
  if not (identical && synth_identical && shard_identical) then begin
    prerr_endline
      "bench: FATAL: analysis output differs across jobs/cache settings";
    exit 1
  end;
  if not baseline_match then begin
    prerr_endline
      "bench: FATAL: sharded-corpus digest differs from \
       bench/engine_baseline.json (semantic drift; if intended, recommit \
       the baseline from BENCH_engine.json's sharded.digest)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Banerjee kernel benchmark: the incremental compiled evaluator against
   the from-scratch Reference, on direct hierarchy queries over synthetic
   deep-MIV nests where the DFS dominates. Always runs (CI guards the
   ns/node figure against bench/banerjee_baseline.json); writes
   BENCH_banerjee.json and exits 1 if the two evaluators ever render
   different output. *)

type bj_leg = {
  bj_ns : int64;          (* best-of-repeat wall clock for one pass *)
  bj_nodes : int;         (* hierarchy nodes evaluated in one pass *)
  bj_minor_words : float; (* minor words allocated by one pass *)
  bj_caps : int;          (* combo-cap fallbacks in one pass *)
  bj_out : string;        (* rendered verdicts, for the identity check *)
}

let bj_measure ~repeat run_once =
  (* instrumented pass: output, node count, cap fallbacks *)
  let m = Dt_obs.Metrics.create () in
  let out = run_once m in
  let nodes =
    Dt_obs.Metrics.banerjee_incremental_nodes m
    + Dt_obs.Metrics.banerjee_scratch_nodes m
  in
  let caps = Dt_obs.Metrics.banerjee_caps m in
  (* allocation pass, bracketed by the minor-words counter (both
     evaluators pay the same harness overhead, so the ratio is the
     per-node story) *)
  let w0 = Gc.minor_words () in
  ignore (run_once (Dt_obs.Metrics.create ()));
  let w1 = Gc.minor_words () in
  (* timed passes, best-of-repeat *)
  let best = ref Int64.max_int in
  for _ = 1 to repeat do
    let mt = Dt_obs.Metrics.create () in
    let t0 = Dt_obs.Clock.now_ns () in
    ignore (run_once mt);
    let t1 = Dt_obs.Clock.now_ns () in
    let dt = Int64.sub t1 t0 in
    if Int64.compare dt !best < 0 then best := dt
  done;
  { bj_ns = !best; bj_nodes = nodes; bj_minor_words = w1 -. w0;
    bj_caps = caps; bj_out = out }

(* synthetic hierarchy queries: deep constant-bound MIV nests (where the
   '*'-hierarchy is largest), a coefficient-varying pair, a triangular
   nest, a symbolic-bound nest, and a 7-deep nest whose root crosses the
   vertex cross-product cap *)
let bj_queries () =
  let mk name n ~hi_of ~src_k ~snk_k ~delta =
    let ixs = List.init n (fun k -> Index.make (Printf.sprintf "X%d" k) ~depth:k) in
    let loops =
      List.mapi
        (fun k i -> Loop.make i ~lo:(Affine.const 1) ~hi:(hi_of k ixs))
        ixs
    in
    let assume = Deptest.Assume.add_loop_facts Deptest.Assume.empty loops in
    let range = Deptest.Range.compute loops in
    let sum f =
      List.fold_left
        (fun acc (k, i) -> Affine.add acc (av ~k:(f k) i))
        Affine.zero
        (List.mapi (fun k i -> (k, i)) ixs)
    in
    let p = Spair.make (sum src_k) (Affine.add_const delta (sum snk_k)) in
    (name, assume, range, [ p ], ixs)
  in
  let const_hi h = fun _ _ -> Affine.const h in
  [
    mk "deep5-unit" 5 ~hi_of:(const_hi 8)
      ~src_k:(fun _ -> 1) ~snk_k:(fun _ -> 1) ~delta:(-1);
    mk "deep6-coeffs" 6 ~hi_of:(const_hi 8)
      ~src_k:(fun k -> 1 + (k mod 3)) ~snk_k:(fun k -> 1 + ((k + 1) mod 3))
      ~delta:1;
    mk "triangular3" 3
      ~hi_of:(fun k ixs ->
        if k = 0 then Affine.const 10
        else Affine.add_const (-1) (Affine.of_index (List.nth ixs (k - 1))))
      ~src_k:(fun _ -> 1) ~snk_k:(fun _ -> 1) ~delta:(-1);
    mk "symbolic3" 3 ~hi_of:(fun _ _ -> Affine.of_sym "N")
      ~src_k:(fun _ -> 1) ~snk_k:(fun _ -> 1) ~delta:(-2);
    (* 4^7 = 16384 literal vertex combinations at the all-'*' root: the
       cap fallback path is part of the measured (and identity-checked)
       workload *)
    mk "deep7-cap" 7 ~hi_of:(const_hi 8)
      ~src_k:(fun _ -> 1) ~snk_k:(fun _ -> 1) ~delta:(-1);
  ]

let bj_render_queries ~reference m queries =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, assume, range, pairs, ixs) ->
      let v =
        if reference then
          Deptest.Banerjee.Reference.vectors ~metrics:m assume range pairs
            ~indices:ixs
        else Deptest.Banerjee.vectors ~metrics:m assume range pairs ~indices:ixs
      in
      Buffer.add_string buf name;
      Buffer.add_string buf ": ";
      (match v with
      | `Independent -> Buffer.add_string buf "independent"
      | `Vectors vs ->
          List.iter
            (fun vec ->
              Buffer.add_string buf
                (Format.asprintf "%a " Deptest.Dirvec.pp_concrete vec))
            vs);
      Buffer.add_char buf '\n')
    queries;
  Buffer.contents buf

(* both evaluators over the synthetic queries: (incremental, reference) *)
let bj_measure_both ~repeat =
  let queries = bj_queries () in
  let measure ~reference =
    bj_measure ~repeat (fun m -> bj_render_queries ~reference m queries)
  in
  (measure ~reference:false, measure ~reference:true)

let bj_leg_json leg =
  let npn =
    if leg.bj_nodes = 0 then 0.0
    else Int64.to_float leg.bj_ns /. float_of_int leg.bj_nodes
  and wpn =
    if leg.bj_nodes = 0 then 0.0
    else leg.bj_minor_words /. float_of_int leg.bj_nodes
  in
  ( npn,
    wpn,
    Dt_obs.Json.Obj
      [
        ("ns", Dt_obs.Json.Int (Int64.to_int leg.bj_ns));
        ("nodes", Dt_obs.Json.Int leg.bj_nodes);
        ("ns_per_node", Dt_obs.Json.Float npn);
        ("minor_words", Dt_obs.Json.Float leg.bj_minor_words);
        ("words_per_node", Dt_obs.Json.Float wpn);
      ] )

let banerjee_bench () =
  let repeat = engine_repeat () in
  let inc, refl = bj_measure_both ~repeat in
  let inc_npn, inc_wpn, inc_json = bj_leg_json inc in
  let ref_npn, ref_wpn, ref_json = bj_leg_json refl in
  let identical = inc.bj_out = refl.bj_out in
  let speedup = if inc_npn > 0.0 then ref_npn /. inc_npn else 0.0 in
  let alloc_ratio = if inc_wpn > 0.0 then ref_wpn /. inc_wpn else 0.0 in
  Printf.printf
    "\n== banerjee: incremental kernel vs from-scratch (synthetic, min of %d) ==\n"
    repeat;
  Printf.printf "  incremental %8.1f ns/node %10.1f words/node (%d nodes)\n"
    inc_npn inc_wpn inc.bj_nodes;
  Printf.printf "  reference   %8.1f ns/node %10.1f words/node (%d nodes)\n"
    ref_npn ref_wpn refl.bj_nodes;
  Printf.printf "  %.2fx ns/node, %.2fx words/node, outputs identical: %b\n"
    speedup alloc_ratio identical;
  let json =
    Dt_obs.Json.Obj
      [
        ("schema", Dt_obs.Json.String "deptest-banerjee/1");
        ("repeat", Dt_obs.Json.Int repeat);
        ( "synthetic",
          Dt_obs.Json.Obj
            [
              ("incremental", inc_json);
              ("reference", ref_json);
              ("identical_output", Dt_obs.Json.Bool identical);
              ("speedup_ns_per_node", Dt_obs.Json.Float speedup);
              ("alloc_ratio_words_per_node", Dt_obs.Json.Float alloc_ratio);
            ] );
        (* headline figures: these are what CI guards *)
        ("ns_per_node", Dt_obs.Json.Float inc_npn);
        ("speedup_ns_per_node", Dt_obs.Json.Float speedup);
        ("alloc_ratio_words_per_node", Dt_obs.Json.Float alloc_ratio);
        ("combo_cap_fallbacks", Dt_obs.Json.Int inc.bj_caps);
        ("identical_output", Dt_obs.Json.Bool identical);
      ]
  in
  Dt_obs.Artifact.write_atomic "BENCH_banerjee.json"
    (Dt_obs.Json.to_string json ^ "\n");
  print_endline "banerjee benchmark written to BENCH_banerjee.json";
  if not identical then begin
    prerr_endline
      "bench: FATAL: incremental and reference Banerjee evaluators disagree";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* timeline capture: one profiled whole-corpus pass through the parallel
   engine (2 workers, cache off), exported in both timeline formats.
   Always runs (CI validates the artifacts), plus an informational
   metrics diff of the BENCH_obs.json snapshot against the checked-in
   baseline — the enforcing diff is the CI `profile --diff` step. *)

let obs_timeline () =
  let progs =
    List.concat_map
      (fun (e : Dt_workloads.Corpus.entry) -> Dt_workloads.Corpus.programs e)
      Dt_workloads.Corpus.all
  in
  let profiler = Dt_obs.Span.profiler ~gc:true () in
  let metrics = Dt_obs.Metrics.create () in
  let cfg =
    Deptest.Analyze.Config.make ~jobs:2 ~cache:false ~metrics ~profiler ()
  in
  List.iter (fun p -> ignore (Deptest.Analyze.run cfg p)) progs;
  let spans = Dt_obs.Span.spans profiler in
  let domains =
    List.length
      (List.sort_uniq compare
         (Array.to_list (Array.map (fun s -> s.Dt_obs.Span.domain) spans)))
  in
  Dt_obs.Artifact.write_atomic "BENCH_timeline.json"
    (Dt_obs.Json.to_string (Dt_obs.Timeline.to_chrome spans) ^ "\n");
  Dt_obs.Artifact.write_atomic "BENCH_flame.folded"
    (Dt_obs.Timeline.to_folded spans);
  Printf.printf
    "\ntimeline written to BENCH_timeline.json (%d spans over %d domains), \
     folded stacks to BENCH_flame.folded\n"
    (Array.length spans) domains;
  if Sys.file_exists "bench/obs_baseline.json" then
    match
      ( Dt_obs.Json.of_string (read_file "bench/obs_baseline.json"),
        Dt_obs.Json.of_string (read_file "BENCH_obs.json") )
    with
    | Ok base, Ok cur -> (
        match Dt_obs.Diff.compare_json ~base ~cur () with
        | Ok report ->
            Format.printf
              "@.-- metrics diff vs bench/obs_baseline.json (informational) \
               --@.%a@."
              Dt_obs.Diff.pp report
        | Error e -> Printf.printf "obs baseline diff skipped: %s\n" e)
    | _ -> print_endline "obs baseline diff skipped: unreadable JSON"

(* ------------------------------------------------------------------ *)
(* guard benchmark: cost and behavior of the robustness layer. Every
   arithmetic site on the verdict path is overflow-checked now, so the
   cost figure is the guarded Banerjee ns/node against the checked-in
   pre-guard baseline (target: within 5%; CI separately enforces a 25%
   ceiling on the same figure). The behavior figures are the degradation
   counters: zero over a clean corpus pass, non-zero under deterministic
   fault injection and under a one-node starvation budget. Writes
   BENCH_guard.json. *)

let guard_reasons m =
  Dt_obs.Json.Obj
    [
      ("overflow", Dt_obs.Json.Int (Dt_obs.Metrics.degraded_by m `Overflow));
      ("exception", Dt_obs.Json.Int (Dt_obs.Metrics.degraded_by m `Exception));
      ("budget", Dt_obs.Json.Int (Dt_obs.Metrics.degraded_by m `Budget));
    ]

let guard_bench () =
  let repeat = engine_repeat () in
  let inc, refl = bj_measure_both ~repeat in
  let inc_npn, _, _ = bj_leg_json inc in
  let ref_npn, _, _ = bj_leg_json refl in
  let baseline_npn =
    if Sys.file_exists "bench/banerjee_baseline.json" then
      match Dt_obs.Json.of_string (read_file "bench/banerjee_baseline.json") with
      | Ok j -> (
          match Dt_obs.Json.member "ns_per_node" j with
          | Some (Dt_obs.Json.Float f) -> Some f
          | Some (Dt_obs.Json.Int i) -> Some (float_of_int i)
          | _ -> None)
      | Error _ -> None
    else None
  in
  let overhead =
    match baseline_npn with
    | Some b when b > 0.0 -> Some ((inc_npn -. b) /. b)
    | _ -> None
  in
  let progs =
    List.concat_map
      (fun (e : Dt_workloads.Corpus.entry) -> Dt_workloads.Corpus.programs e)
      Dt_workloads.Corpus.all
  in
  let corpus_pass cfg_of =
    let m = Dt_obs.Metrics.create () in
    List.iter (fun p -> ignore (Deptest.Analyze.run (cfg_of m) p)) progs;
    m
  in
  let plain m = Deptest.Analyze.Config.make ~jobs:1 ~cache:false ~metrics:m () in
  let clean_m = corpus_pass plain in
  let inject_period = 7 in
  let inj_m =
    Fun.protect ~finally:Dt_guard.Inject.disable (fun () ->
        Dt_guard.Inject.enable ~period:inject_period
          [ Dt_guard.Inject.Overflow; Dt_guard.Inject.Exception ];
        corpus_pass plain)
  in
  let bud_m =
    corpus_pass (fun m ->
        Deptest.Analyze.Config.make ~jobs:1 ~cache:false ~metrics:m ~budget:1 ())
  in
  let clean_n = Dt_obs.Metrics.degraded_pairs clean_m
  and inj_n = Dt_obs.Metrics.degraded_pairs inj_m
  and bud_n = Dt_obs.Metrics.degraded_pairs bud_m in
  Printf.printf "\n== guard: checked arithmetic and degradation (min of %d) ==\n"
    repeat;
  Printf.printf "  guarded ns/node: incremental %8.1f   reference %8.1f\n"
    inc_npn ref_npn;
  (match (baseline_npn, overhead) with
  | Some b, Some o ->
      Printf.printf "  vs pre-guard baseline %.1f ns/node: %+.1f%%%s\n" b
        (100.0 *. o)
        (if o > 0.05 then "  (above the 5% target)" else "")
  | _ -> print_endline "  no banerjee baseline found; overhead not computed");
  Printf.printf
    "  degraded pairs: clean %d, injected(period=%d) %d, budget=1 %d\n" clean_n
    inject_period inj_n bud_n;
  let json =
    Dt_obs.Json.Obj
      [
        ("schema", Dt_obs.Json.String "deptest-guard/1");
        ("repeat", Dt_obs.Json.Int repeat);
        ("ns_per_node", Dt_obs.Json.Float inc_npn);
        ("reference_ns_per_node", Dt_obs.Json.Float ref_npn);
        ( "baseline_ns_per_node",
          match baseline_npn with
          | Some b -> Dt_obs.Json.Float b
          | None -> Dt_obs.Json.Null );
        ( "overhead_vs_baseline",
          match overhead with
          | Some o -> Dt_obs.Json.Float o
          | None -> Dt_obs.Json.Null );
        ( "clean",
          Dt_obs.Json.Obj
            [ ("degraded", Dt_obs.Json.Int clean_n);
              ("by_reason", guard_reasons clean_m) ] );
        ( "injected",
          Dt_obs.Json.Obj
            [
              ("degraded", Dt_obs.Json.Int inj_n);
              ("period", Dt_obs.Json.Int inject_period);
              ("by_reason", guard_reasons inj_m);
            ] );
        ( "budget",
          Dt_obs.Json.Obj
            [ ("fuel", Dt_obs.Json.Int 1);
              ("degraded", Dt_obs.Json.Int bud_n);
              ("by_reason", guard_reasons bud_m) ] );
      ]
  in
  Dt_obs.Artifact.write_atomic "BENCH_guard.json"
    (Dt_obs.Json.to_string json ^ "\n");
  print_endline "guard benchmark written to BENCH_guard.json";
  if clean_n <> 0 then begin
    prerr_endline "bench: FATAL: clean corpus pass degraded reference pairs";
    exit 1
  end;
  if inj_n = 0 then begin
    prerr_endline "bench: FATAL: fault injection produced no degradations";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* run ledger: one record per instrumented corpus pass, saved to
   BENCH_ledger.jsonl and drift-gated by CI against the committed
   bench/ledger_baseline.jsonl (regenerate with
   `dune exec bench/main.exe -- --tables-only && cp BENCH_ledger.jsonl
   bench/ledger_baseline.jsonl`). The jobs=1 and jobs=2 passes must
   produce byte-identical stable records — worker count is an engine
   knob, never a semantic one — so a mismatch is fatal. *)

let ledger_bench () =
  let entries = Dt_workloads.Corpus.all in
  let progs =
    List.concat_map
      (fun (e : Dt_workloads.Corpus.entry) -> Dt_workloads.Corpus.programs e)
      entries
  in
  let source_text =
    String.concat "\n"
      (List.map
         (fun (e : Dt_workloads.Corpus.entry) -> e.Dt_workloads.Corpus.source)
         entries)
  in
  let source =
    Dt_report.Record.source_of ~routines:(List.length progs) source_text
  in
  let pass ~label ?strategy ?budget ~jobs () =
    let metrics = Dt_obs.Metrics.create () in
    let cfg =
      Deptest.Analyze.Config.make ?strategy ~jobs ~cache:false ~metrics
        ?budget ()
    in
    let counters = Deptest.Counters.create () in
    let pairs = ref 0 and indep = ref 0 and degr = ref 0 in
    let gc0 = Gc.quick_stat () in
    let t0 = Dt_obs.Clock.now_ns () in
    List.iter
      (fun p ->
        let r = Deptest.Analyze.run cfg p in
        Deptest.Counters.merge_into counters r.Deptest.Analyze.counters;
        let np, ni, nd = Dt_report.Record.summary_of_result r in
        pairs := !pairs + np;
        indep := !indep + ni;
        degr := !degr + nd)
      progs;
    let wall_ns = Int64.to_int (Int64.sub (Dt_obs.Clock.now_ns ()) t0) in
    let gc1 = Gc.quick_stat () in
    Dt_report.Record.make ~ts_ms:(Dt_report.Record.now_ms ()) ~label
      ~config:(Dt_report.Record.config_of cfg)
      ~source ~counters ~pairs:!pairs ~independent:!indep ~degraded:!degr
      ~metrics ~wall_ns
      ~gc_minor_words:(gc1.Gc.minor_words -. gc0.Gc.minor_words)
      ~gc_major_words:(gc1.Gc.major_words -. gc0.Gc.major_words)
      ()
  in
  let r1 = pass ~label:"corpus" ~jobs:1 () in
  let r2 = pass ~label:"corpus" ~jobs:2 () in
  let rsub =
    pass ~label:"corpus-subscript"
      ~strategy:Deptest.Pair_test.Subscript_by_subscript ~jobs:1 ()
  in
  let rbud = pass ~label:"corpus-budget1" ~budget:1 ~jobs:1 () in
  let records = [ r1; r2; rsub; rbud ] in
  Printf.printf "\n== ledger: instrumented corpus passes ==\n";
  List.iter
    (fun (r : Dt_report.Record.t) ->
      Printf.printf
        "  %-18s jobs=%d  %4d pairs %4d indep %3d degraded  %s\n" r.label
        r.config.jobs r.verdicts.pairs r.verdicts.independent
        r.verdicts.degraded
        (String.sub r.fingerprint 0 12))
    records;
  let stable r = Dt_obs.Json.to_string (Dt_report.Record.stable_json r) in
  let parity = stable r1 = stable r2 in
  Printf.printf "  stable record byte-identical at jobs=1 and jobs=2: %b\n"
    parity;
  Dt_report.Ledger.save ~path:"BENCH_ledger.jsonl" records;
  print_endline "ledger records written to BENCH_ledger.jsonl";
  if not parity then begin
    prerr_endline
      "bench: FATAL: ledger record differs between --jobs 1 and --jobs 2";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* serve benchmark: daemon round-trips over the corpus, cold vs warm vs
   disk-warm after a restart. Latency numbers are machine-dependent and
   recorded for the CI speedup guard; the output digest is
   machine-independent and checked against bench/serve_baseline.json.
   Writes BENCH_serve.json. *)

let percentile_ns sorted p =
  let n = Array.length sorted in
  if n = 0 then 0L else sorted.(min (n - 1) (p * (n - 1) / 100))

let serve_bench () =
  Printf.printf "\n== serve: daemon round-trips (cold / warm / restart) ==\n";
  let pid = Unix.getpid () in
  let tmp = Filename.get_temp_dir_name () in
  let cache_dir = Filename.concat tmp (Printf.sprintf "dt_bench_cache_%d" pid)
  and sock = Filename.concat tmp (Printf.sprintf "dt_bench_%d.sock" pid) in
  let rec rm_rf p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
  in
  rm_rf cache_dir;
  (try Sys.remove sock with Sys_error _ -> ());
  let sources =
    List.map
      (fun (e : Dt_workloads.Corpus.entry) -> e.Dt_workloads.Corpus.source)
      Dt_workloads.Corpus.all
  in
  (* the in-process reference: one fresh configuration per unit, exactly
     what one-shot `deptest analyze` does *)
  let expected =
    List.map
      (fun src ->
        let progs = Dt_frontend.Lower.parse_unit src in
        let cfg = Deptest.Analyze.Config.make () in
        fst (Dt_serve.Render.unit_ progs (Deptest.Analyze.run_all cfg progs)))
      sources
  in
  let digest = Digest.to_hex (Digest.string (String.concat "\x00" expected)) in
  let start_daemon () =
    let stop = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          Dt_serve.Server.run ~socket:sock ~cache_dir ~stop ())
    in
    let rec wait n =
      if n = 0 then begin
        prerr_endline "bench: FATAL: serve daemon never bound its socket";
        exit 1
      end;
      if not (Sys.file_exists sock) then begin
        Unix.sleepf 0.02;
        wait (n - 1)
      end
    in
    wait 250;
    d
  in
  let identical = ref true in
  let pass () =
    let c = Dt_serve.Client.connect ~socket:sock in
    Fun.protect
      ~finally:(fun () -> Dt_serve.Client.close c)
      (fun () ->
        let lat =
          List.map2
            (fun src want ->
              let t0 = Dt_obs.Clock.now_ns () in
              let resp =
                Dt_serve.Client.request c
                  (Dt_serve.Protocol.Analyze { source = src; id = None; trace_id = None; deadline_ms = None })
              in
              let ns = Int64.sub (Dt_obs.Clock.now_ns ()) t0 in
              (match Dt_obs.Json.member "output" resp with
              | Some (Dt_obs.Json.String out) ->
                  if out <> want then identical := false
              | _ -> identical := false);
              ns)
            sources expected
        in
        let sorted = Array.of_list lat in
        Array.sort Int64.compare sorted;
        let total = List.fold_left Int64.add 0L lat in
        (total, percentile_ns sorted 50, percentile_ns sorted 99))
  in
  let shutdown d =
    let c = Dt_serve.Client.connect ~socket:sock in
    ignore (Dt_serve.Client.request c Dt_serve.Protocol.Shutdown);
    Dt_serve.Client.close c;
    if Domain.join d <> 0 then begin
      prerr_endline "bench: FATAL: serve daemon exited non-zero";
      exit 1
    end
  in
  let d = start_daemon () in
  let cold = pass () in
  let warm = pass () in
  (* hit accounting straight off the daemon before it stops *)
  let disk_hits, disk_misses =
    let c = Dt_serve.Client.connect ~socket:sock in
    Fun.protect
      ~finally:(fun () -> Dt_serve.Client.close c)
      (fun () ->
        let m =
          Dt_serve.Client.request c
            (Dt_serve.Protocol.Metrics { prometheus = false })
        in
        let geti path =
          match
            Option.bind (Dt_obs.Json.member "metrics" m) (fun j ->
                Option.bind (Dt_obs.Json.member "cache" j) (fun c ->
                    Option.bind (Dt_obs.Json.member path c) Dt_obs.Json.to_int))
          with
          | Some v -> v
          | None -> 0
        in
        (geti "disk_hits", geti "disk_misses"))
  in
  shutdown d;
  let d2 = start_daemon () in
  let disk_warm = pass () in
  shutdown d2;
  rm_rf cache_dir;
  let ms ns = Int64.to_float ns /. 1e6 in
  let speedup (c, _, _) (w, _, _) =
    if Int64.compare w 0L > 0 then Int64.to_float c /. Int64.to_float w
    else 0.
  in
  let row label (total, p50, p99) =
    Printf.printf "  %-10s total %9.2f ms   p50 %8.0f ns   p99 %8.0f ns\n"
      label (ms total) (Int64.to_float p50) (Int64.to_float p99)
  in
  row "cold" cold;
  row "warm" warm;
  row "disk-warm" disk_warm;
  Printf.printf
    "  warm %.1fx vs cold, disk-warm %.1fx vs cold; disk %d hits / %d \
     misses; identical output: %b\n"
    (speedup cold warm) (speedup cold disk_warm) disk_hits disk_misses
    !identical;
  let baseline_match = committed_digest "bench/serve_baseline.json" = digest in
  Printf.printf "  digest vs bench/serve_baseline.json: %s\n"
    (if baseline_match then "match" else "MISMATCH");
  let leg label (total, p50, p99) extra =
    ( label,
      Dt_obs.Json.Obj
        ([
           ("total_ns", Dt_obs.Json.Int (Int64.to_int total));
           ("p50_ns", Dt_obs.Json.Int (Int64.to_int p50));
           ("p99_ns", Dt_obs.Json.Int (Int64.to_int p99));
         ]
        @ extra) )
  in
  let json =
    Dt_obs.Json.Obj
      [
        ("schema", Dt_obs.Json.String "deptest-serve/1");
        ("cores", Dt_obs.Json.Int (Dt_support.Pool.recommended_jobs ()));
        ("jobs", Dt_obs.Json.Int (Dt_support.Pool.clamp_auto 0));
        ("requests_per_pass", Dt_obs.Json.Int (List.length sources));
        leg "cold" cold [];
        leg "warm" warm
          [ ("speedup_vs_cold", Dt_obs.Json.Float (speedup cold warm)) ];
        leg "disk_warm" disk_warm
          [ ("speedup_vs_cold", Dt_obs.Json.Float (speedup cold disk_warm)) ];
        ("disk_hits", Dt_obs.Json.Int disk_hits);
        ("disk_misses", Dt_obs.Json.Int disk_misses);
        ("identical_output", Dt_obs.Json.Bool !identical);
        ("digest", Dt_obs.Json.String digest);
        ("baseline_match", Dt_obs.Json.Bool baseline_match);
      ]
  in
  Dt_obs.Artifact.write_atomic "BENCH_serve.json"
    (Dt_obs.Json.to_string json ^ "\n");
  print_endline "serve benchmark written to BENCH_serve.json";
  if not !identical then begin
    prerr_endline
      "bench: FATAL: daemon verdicts differ from in-process analysis";
    exit 1
  end;
  if not baseline_match then begin
    prerr_endline
      "bench: FATAL: serve output digest differs from \
       bench/serve_baseline.json (semantic drift; if intended, recommit \
       the baseline from BENCH_serve.json's digest)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* request-tracing benchmark: warm-path round-trips with span sampling
   off vs always-on, the slow ledger, and a trace-last export. The
   sampling overhead ratio is the CI gate (<= 1.05 on the warm path);
   the exported Chrome trace is uploaded as a CI artifact. Writes
   BENCH_reqtrace.json and BENCH_reqtrace_trace.json. *)

let reqtrace_bench () =
  Printf.printf "\n== reqtrace: warm-path sampling overhead and slow ledger ==\n";
  let pid = Unix.getpid () in
  let tmp = Filename.get_temp_dir_name () in
  let sock_off =
    Filename.concat tmp (Printf.sprintf "dt_bench_rt_off_%d.sock" pid)
  and sock_on =
    Filename.concat tmp (Printf.sprintf "dt_bench_rt_on_%d.sock" pid)
  in
  List.iter
    (fun s -> try Sys.remove s with Sys_error _ -> ())
    [ sock_off; sock_on ];
  let sources =
    List.map
      (fun (e : Dt_workloads.Corpus.entry) -> e.Dt_workloads.Corpus.source)
      Dt_workloads.Corpus.all
  in
  let expected =
    List.map
      (fun src ->
        let progs = Dt_frontend.Lower.parse_unit src in
        let cfg = Deptest.Analyze.Config.make () in
        fst (Dt_serve.Render.unit_ progs (Deptest.Analyze.run_all cfg progs)))
      sources
  in
  let identical = ref true in
  let start_daemon ~socket ~sample_period () =
    let stop = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          Dt_serve.Server.run ~socket ~sample_period ~slow_threshold_ns:0L
            ~stop ())
    in
    let rec wait n =
      if n = 0 then begin
        prerr_endline "bench: FATAL: reqtrace daemon never bound its socket";
        exit 1
      end;
      if not (Sys.file_exists socket) then begin
        Unix.sleepf 0.02;
        wait (n - 1)
      end
    in
    wait 250;
    d
  in
  let pass c =
    List.map2
      (fun src want ->
        let t0 = Dt_obs.Clock.now_ns () in
        let resp =
          Dt_serve.Client.request c
            (Dt_serve.Protocol.Analyze
               {
                 source = src;
                 id = None;
                 trace_id = Some (Dt_obs.Reqtrace.gen_id ());
                 deadline_ms = None;
               })
        in
        let ns = Int64.sub (Dt_obs.Clock.now_ns ()) t0 in
        (match Dt_obs.Json.member "output" resp with
        | Some (Dt_obs.Json.String out) ->
            if out <> want then identical := false
        | _ -> identical := false);
        ns)
      sources expected
  in
  let shutdown ~socket d =
    let c = Dt_serve.Client.connect ~socket in
    ignore (Dt_serve.Client.request c Dt_serve.Protocol.Shutdown);
    Dt_serve.Client.close c;
    if Domain.join d <> 0 then begin
      prerr_endline "bench: FATAL: reqtrace daemon exited non-zero";
      exit 1
    end
  in
  let warm_passes = 5 in
  (* the overhead ratio is gated at 5% in CI, which only a paired,
     straggler-free measurement survives: both daemons run side by side,
     warm passes alternate between them, and each request's latency is
     its minimum across the passes — the floor a request costs on that
     path, with scheduler and GC stragglers squeezed out *)
  let d_off = start_daemon ~socket:sock_off ~sample_period:0 () in
  let d_on = start_daemon ~socket:sock_on ~sample_period:1 () in
  let c_off = Dt_serve.Client.connect ~socket:sock_off in
  let c_on = Dt_serve.Client.connect ~socket:sock_on in
  let summarize floor =
    let sorted = Array.copy floor in
    Array.sort Int64.compare sorted;
    (Array.fold_left Int64.add 0L floor, percentile_ns sorted 50)
  in
  let (off_total, off_p50), (on_total, on_p50) =
    Fun.protect
      ~finally:(fun () ->
        Dt_serve.Client.close c_off;
        Dt_serve.Client.close c_on)
      (fun () ->
        ignore (pass c_off) (* cold passes fill the response caches *);
        ignore (pass c_on);
        let n = List.length sources in
        let floor_off = Array.make n Int64.max_int
        and floor_on = Array.make n Int64.max_int in
        let fold floor lat =
          List.iteri
            (fun i ns ->
              if Int64.compare ns floor.(i) < 0 then floor.(i) <- ns)
            lat
        in
        for _ = 1 to warm_passes do
          fold floor_off (pass c_off);
          fold floor_on (pass c_on)
        done;
        (summarize floor_off, summarize floor_on))
  in
  shutdown ~socket:sock_off d_off;
  (* ledger + export straight off the sampling daemon before it stops *)
  let ledger_total, slow_entries, trace_json =
    let c = Dt_serve.Client.connect ~socket:sock_on in
    Fun.protect
      ~finally:(fun () -> Dt_serve.Client.close c)
      (fun () ->
        let slow =
          Dt_serve.Client.request c
            (Dt_serve.Protocol.Slow { n = Some 8 })
        in
        let total =
          match
            Option.bind (Dt_obs.Json.member "total" slow) Dt_obs.Json.to_int
          with
          | Some n -> n
          | None -> 0
        in
        let entries =
          match
            Option.bind (Dt_obs.Json.member "entries" slow)
              Dt_obs.Json.to_list
          with
          | Some l -> List.length l
          | None -> 0
        in
        let trace =
          Dt_serve.Client.request c
            (Dt_serve.Protocol.Trace_last { trace_id = None })
        in
        (total, entries, Dt_obs.Json.member "chrome_trace" trace))
  in
  shutdown ~socket:sock_on d_on;
  let overhead =
    if Int64.compare off_total 0L > 0 then
      Int64.to_float on_total /. Int64.to_float off_total
    else 0.
  in
  let ms ns = Int64.to_float ns /. 1e6 in
  Printf.printf
    "  warm sampling-off best total %8.2f ms  p50 %8.0f ns\n\
    \  warm sampling-on  best total %8.2f ms  p50 %8.0f ns\n\
    \  sampling overhead %.3fx; ledger %d requests (%d slow entries); \
     trace export: %b; identical output: %b\n"
    (ms off_total) (Int64.to_float off_p50) (ms on_total)
    (Int64.to_float on_p50) overhead ledger_total slow_entries
    (trace_json <> None) !identical;
  (match trace_json with
  | Some t ->
      Dt_obs.Artifact.write_atomic "BENCH_reqtrace_trace.json"
        (Dt_obs.Json.to_string t ^ "\n");
      print_endline
        "captured Chrome trace written to BENCH_reqtrace_trace.json"
  | None -> ());
  let json =
    Dt_obs.Json.Obj
      [
        ("schema", Dt_obs.Json.String "deptest-reqtrace/1");
        ("requests_per_pass", Dt_obs.Json.Int (List.length sources));
        ("warm_passes", Dt_obs.Json.Int warm_passes);
        ( "sampling_off",
          Dt_obs.Json.Obj
            [
              ("total_ns", Dt_obs.Json.Int (Int64.to_int off_total));
              ("p50_ns", Dt_obs.Json.Int (Int64.to_int off_p50));
            ] );
        ( "sampling_on",
          Dt_obs.Json.Obj
            [
              ("total_ns", Dt_obs.Json.Int (Int64.to_int on_total));
              ("p50_ns", Dt_obs.Json.Int (Int64.to_int on_p50));
            ] );
        ("overhead_ratio", Dt_obs.Json.Float overhead);
        ("ledger_total", Dt_obs.Json.Int ledger_total);
        ("slow_entries", Dt_obs.Json.Int slow_entries);
        ("trace_captured", Dt_obs.Json.Bool (trace_json <> None));
        ("identical_output", Dt_obs.Json.Bool !identical);
      ]
  in
  Dt_obs.Artifact.write_atomic "BENCH_reqtrace.json"
    (Dt_obs.Json.to_string json ^ "\n");
  print_endline "reqtrace benchmark written to BENCH_reqtrace.json";
  if not !identical then begin
    prerr_endline
      "bench: FATAL: daemon output changed when span sampling was enabled";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* resilience: a deliberately starved daemon (max_inflight 1) under
   pipelined load must shed with structured, hint-carrying overloaded
   responses — never a dropped connection — while admitted requests
   stay byte-identical and bounded; and retrying clients over the same
   starved daemon must all converge to byte-identical answers. Writes
   BENCH_resilience.json and exits 1 on any drop, hintless shed, or
   divergence. *)

let resilience_bench () =
  Printf.printf "\n== resilience: overload shedding and retry convergence ==\n";
  let pid = Unix.getpid () in
  let tmp = Filename.get_temp_dir_name () in
  let mk_sock tag =
    Filename.concat tmp (Printf.sprintf "dt_bench_resil_%s_%d.sock" tag pid)
  in
  let fatal msg =
    prerr_endline ("bench: FATAL: " ^ msg);
    exit 1
  in
  (* distinct sources, so every admitted request does cold analysis
     work — overload needs the queue to actually back up *)
  let mk_src i =
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
  let n_conns = 8 and per_conn = 3 in
  let n_sources = n_conns * per_conn in
  let sources = Array.init n_sources mk_src in
  let expected =
    Array.map
      (fun src ->
        let progs = Dt_frontend.Lower.parse_unit src in
        let cfg = Deptest.Analyze.Config.make () in
        fst (Dt_serve.Render.unit_ progs (Deptest.Analyze.run_all cfg progs)))
      sources
  in
  let start_daemon ~socket =
    (try Sys.remove socket with Sys_error _ -> ());
    let d =
      Domain.spawn (fun () ->
          Dt_serve.Server.run ~socket ~jobs:1 ~max_inflight:1 ())
    in
    let rec wait n =
      if n = 0 then fatal "resilience daemon never answered health";
      if not (Dt_serve.Client.ping ~socket ()) then begin
        Unix.sleepf 0.02;
        wait (n - 1)
      end
    in
    wait 250;
    d
  in
  let shutdown ~socket d =
    let c = Dt_serve.Client.connect ~socket in
    ignore (Dt_serve.Client.request c Dt_serve.Protocol.Shutdown);
    Dt_serve.Client.close c;
    if Domain.join d <> 0 then fatal "resilience daemon exited non-zero"
  in
  let analyze_req i =
    Dt_serve.Protocol.Analyze
      {
        source = sources.(i);
        id = Some (string_of_int i);
        trace_id = None;
        deadline_ms = None;
      }
  in
  (* --- phase 1: pipelined overload against max_inflight 1 ---------- *)
  let sock = mk_sock "over" in
  let d = start_daemon ~socket:sock in
  let conns =
    Array.init n_conns (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd)
  in
  let t0 = Dt_obs.Clock.now_ns () in
  Array.iteri
    (fun c fd ->
      for k = 0 to per_conn - 1 do
        Dt_support.Frame.write fd
          (Dt_obs.Json.to_string
             (Dt_serve.Protocol.request_to_json
                (analyze_req ((c * per_conn) + k))))
      done)
    conns;
  let served = ref 0 and shed = ref 0 and hintless = ref 0 in
  let identical = ref true in
  let admitted_ms = ref [] in
  Array.iteri
    (fun c fd ->
      for k = 0 to per_conn - 1 do
        match Dt_support.Frame.read fd with
        | None -> fatal "overload dropped a connection"
        | Some payload -> (
            let resp =
              match Dt_obs.Json.of_string payload with
              | Ok j -> j
              | Error e -> fatal ("bad response JSON: " ^ e)
            in
            match Dt_serve.Protocol.retry_after_of resp with
            | Some ms ->
                incr shed;
                if ms < 1 then incr hintless
            | None ->
                incr served;
                let ms =
                  Int64.to_float (Int64.sub (Dt_obs.Clock.now_ns ()) t0)
                  /. 1e6
                in
                admitted_ms := ms :: !admitted_ms;
                (match Dt_obs.Json.member "output" resp with
                | Some (Dt_obs.Json.String out) ->
                    if out <> expected.((c * per_conn) + k) then
                      identical := false
                | _ -> identical := false))
      done;
      Unix.close fd)
    conns;
  shutdown ~socket:sock d;
  let p99_ms =
    match List.sort compare !admitted_ms with
    | [] -> 0.
    | l ->
        let arr = Array.of_list l in
        arr.(min (Array.length arr - 1)
               (int_of_float (ceil (0.99 *. float_of_int (Array.length arr)))
                - 1))
  in
  Printf.printf
    "  overload: %d requests -> %d served, %d shed (admitted p99 %.1f ms)\n%!"
    n_sources !served !shed p99_ms;
  if !shed = 0 then
    fatal "overload phase never shed (admission control inert)";
  if !served = 0 then fatal "overload phase served nothing";
  if !hintless > 0 then fatal "a shed response carried no retry_after_ms";
  (* --- phase 2: retrying clients converge over the starved daemon -- *)
  let sock2 = mk_sock "retry" in
  let d2 = start_daemon ~socket:sock2 in
  let n_clients = 4 in
  let per_client = n_sources / n_clients in
  let t1 = Dt_obs.Clock.now_ns () in
  let workers =
    List.init n_clients (fun w ->
        Domain.spawn (fun () ->
            let retry =
              {
                Dt_serve.Client.Retry.attempts = 30;
                base_ms = 1;
                cap_ms = 50;
                seed = Int64.of_int (w + 1);
                retry_truncated = true;
              }
            in
            let ok = ref true in
            for k = 0 to per_client - 1 do
              let i = (w * per_client) + k in
              match
                Dt_serve.Client.call ~retry ~socket:sock2 (analyze_req i)
              with
              | Ok resp -> (
                  match Dt_obs.Json.member "output" resp with
                  | Some (Dt_obs.Json.String out) ->
                      if out <> expected.(i) then ok := false
                  | _ -> ok := false)
              | Error _ -> ok := false
            done;
            !ok))
  in
  let converged = List.for_all Domain.join workers in
  let retry_wall_ms =
    Int64.to_float (Int64.sub (Dt_obs.Clock.now_ns ()) t1) /. 1e6
  in
  shutdown ~socket:sock2 d2;
  Printf.printf "  retry: %d clients x %d requests converged in %.1f ms\n%!"
    n_clients per_client retry_wall_ms;
  let json =
    Dt_obs.Json.Obj
      [
        ("schema", Dt_obs.Json.String "deptest-resilience/1");
        ( "overload",
          Dt_obs.Json.Obj
            [
              ("requests", Dt_obs.Json.Int n_sources);
              ("served", Dt_obs.Json.Int !served);
              ("shed", Dt_obs.Json.Int !shed);
              ("shed_without_hint", Dt_obs.Json.Int !hintless);
              ("connection_drops", Dt_obs.Json.Int 0);
              ("admitted_p99_ms", Dt_obs.Json.Float p99_ms);
            ] );
        ( "retry",
          Dt_obs.Json.Obj
            [
              ("clients", Dt_obs.Json.Int n_clients);
              ("requests", Dt_obs.Json.Int (n_clients * per_client));
              ("converged", Dt_obs.Json.Bool converged);
              ("wall_ms", Dt_obs.Json.Float retry_wall_ms);
            ] );
        ("identical_output", Dt_obs.Json.Bool !identical);
      ]
  in
  Dt_obs.Artifact.write_atomic "BENCH_resilience.json"
    (Dt_obs.Json.to_string json ^ "\n");
  print_endline "resilience benchmark written to BENCH_resilience.json";
  if not !identical then
    fatal "an admitted response diverged from the in-process answer";
  if not converged then
    fatal "a retrying client failed to converge under overload"

let is_infix ~affix s =
  let na = String.length affix and ns = String.length s in
  let rec go i = i + na <= ns && (String.sub s i na = affix || go (i + 1)) in
  na = 0 || go 0

let () =
  let tables_only = Array.mem "--tables-only" Sys.argv in
  print_tables ();
  engine_bench ();
  banerjee_bench ();
  guard_bench ();
  obs_timeline ();
  ledger_bench ();
  serve_bench ();
  reqtrace_bench ();
  resilience_bench ();
  if not tables_only then begin
    let micro = run_suite ~name:"per-test microbenchmarks (Tables 2-3 tests)" micro_tests in
    let strat = run_suite ~name:"strategy comparison (Table 4 / Triolet 22-28x)" strategy_tests in
    let _ = run_suite ~name:"Delta linearity in group size (section 5.4)" delta_scaling_tests in
    let _ = run_suite ~name:"whole-corpus analysis (Tables 1-3 workload)" corpus_tests in
    let _ = run_suite ~name:"frontend" frontend_tests in
    (* headline ratio: Power/FM vs partition-based driver *)
    let find rows needle =
      List.find_opt (fun (k, _) -> is_infix ~affix:needle k) rows
    in
    ignore micro;
    (match
       ( find strat "separable-partition-based",
         find strat "separable-power-test-fm" )
     with
    | Some (_, fast), Some (_, slow) when fast > 0.0 ->
        Printf.printf
          "\nseparable pair: exact multiple-subscript (FM) is %.1fx slower than the practical suite\n"
          (slow /. fast)
    | _ -> ());
    match
      (find strat "coupled-partition-based", find strat "coupled-power-test-fm")
    with
    | Some (_, fast), Some (_, slow) when fast > 0.0 ->
        Printf.printf
          "coupled pair:   exact multiple-subscript (FM) is %.1fx slower than the Delta test\n"
          (slow /. fast)
    | _ -> ()
  end
