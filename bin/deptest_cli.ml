(* deptest — command-line driver for the dependence analyzer.

   Subcommands:
     analyze    print all data dependences of a mini-Fortran file
     parallel   report which loops are parallelizable
     vectorize  print the Allen-Kennedy vectorization plan
     suggest    print peel/split suggestions for breakable dependences
     tables     regenerate the paper's evaluation tables over the corpus
     corpus     list the embedded benchmark corpus *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit code 2 for load (lexical/syntax/lowering) errors, distinct from
   exit 1 for analysis failures such as an unsound [check] run. *)
let load_error path ?line what msg =
  (match line with
  | Some l -> Printf.eprintf "%s:%d: %s%s\n" path l what msg
  | None -> Printf.eprintf "%s: %s%s\n" path what msg);
  exit 2

let load_unit path =
  let src = read_file path in
  let is_c =
    Filename.check_suffix path ".c"
    || ((not (Filename.check_suffix path ".f"))
       && Dt_frontend.Cfront.looks_like_c src)
  in
  match
    if is_c then [ Dt_frontend.Cfront.parse_and_lower src ]
    else Dt_frontend.Lower.parse_unit src
  with
  | [] -> load_error path "" "empty compilation unit"
  | progs -> progs
  | exception Dt_frontend.Cfront.Error (msg, line) ->
      load_error path ~line "syntax error: " msg
  | exception Dt_frontend.Lexer.Error (msg, line) ->
      load_error path ~line "lexical error: " msg
  | exception Dt_frontend.Parser.Error (msg, line) ->
      load_error path ~line "syntax error: " msg
  | exception Dt_frontend.Lower.Error (msg, line) ->
      load_error path ~line "" msg

(* run a per-program command over every routine of the file *)
let each path f =
  let progs = load_unit path in
  let many = List.length progs > 1 in
  List.iter
    (fun (p : Dt_ir.Nest.program) ->
      if many then Printf.printf "===== %s =====\n" p.Dt_ir.Nest.name;
      f p)
    progs

let load path = List.hd (load_unit path)
let _ = load

(* dependence summary for the transform subcommands: default engine
   configuration (parallel pair testing, shared memo cache) *)
let deps_of prog =
  (Deptest.Analyze.run Deptest.Analyze.Config.default prog)
    .Deptest.Analyze.deps

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Mini-Fortran source file.")

let strategy_arg =
  Arg.(
    value
    & opt (enum [ ("partition", Deptest.Pair_test.Partition_based);
                  ("subscript", Deptest.Pair_test.Subscript_by_subscript) ])
        Deptest.Pair_test.Partition_based
    & info [ "strategy" ]
        ~doc:"Testing strategy: $(b,partition) (the paper) or $(b,subscript) \
              (pre-Delta baseline).")

let inputs_arg =
  Arg.(
    value & flag
    & info [ "inputs" ] ~doc:"Also report input (read-read) dependences.")

let bind_arg =
  Arg.(
    value
    & opt (list (pair ~sep:'=' string int)) []
    & info [ "bind" ] ~docv:"N=100,M=50"
        ~doc:
          "Bind symbolic constants to values before analysis \
           (specialization makes every exact test fully precise).")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel pair-testing engine. 0 (the \
           default) is auto: one worker per available core, but a file of \
           fewer than 8 routines is not sharded by routine and a routine of \
           fewer than 256 reference pairs runs on one domain. An explicit N \
           is honoured (serve caps it at the core count). The analysis \
           result is identical at every setting.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the structural memo cache (identical reference-pair \
           shapes re-run the full test cascade).")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit 3 if any reference pair was degraded to the conservative \
           full direction-vector verdict (overflow, contained exception, \
           or exhausted budget/deadline). Without this flag degraded \
           pairs are reported but the run still exits 0.")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget" ] ~docv:"N"
        ~doc:
          "Per-reference-pair work budget, in Banerjee hierarchy-node \
           evaluations; a pair exceeding it degrades to the conservative \
           verdict instead of running unboundedly.")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline per analyzed routine, in milliseconds; \
           pairs starting after it degrade conservatively without being \
           tested.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the reasoning trace: every test applied to every \
           reference pair, with the reason for each verdict.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.jsonl"
        ~doc:"Write the trace as JSON Lines (one event per line) to $(docv).")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE.json"
        ~doc:
          "Record a timeline of the run and write it in Chrome trace-event \
           format to $(docv) (open with Perfetto / chrome://tracing; one \
           row per worker domain).")

let flame_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flame" ] ~docv:"FILE.folded"
        ~doc:
          "Record a timeline of the run and write it as folded stacks to \
           $(docv) (pipe through flamegraph.pl for an SVG flamegraph).")

let prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics snapshot in Prometheus text exposition \
           format (0.0.4) to $(docv) — the same registry the JSON snapshot \
           exports, as $(b,deptest_)-prefixed families with a cumulative \
           pair-latency histogram.")

let ledger_arg =
  Arg.(
    value
    & opt ~vopt:(Some Dt_report.Ledger.default_path) (some string) None
    & info [ "ledger" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "DEPTEST_LEDGER")
        ~doc:
          "Append one run record (config fingerprint, source digest, \
           verdict histogram, timings) to the JSONL ledger at $(docv) \
           (default $(b,.deptest/ledger.jsonl)); inspect it with \
           $(b,deptest report).")

let label_arg =
  Arg.(
    value & opt string ""
    & info [ "label" ] ~docv:"NAME"
        ~doc:
          "Label stored in the ledger record; part of the configuration \
           fingerprint, so differently-labelled runs never drift against \
           each other.")

(* every artifact lands via write-to-temp-then-rename: a crashed or
   interrupted run never leaves a truncated file behind *)
let write_artifact path content =
  try Dt_obs.Artifact.write_atomic path content
  with Sys_error e ->
    Printf.eprintf "cannot write %s: %s\n" path e;
    exit 2

let make_profiler chrome flame =
  if chrome <> None || flame <> None then
    Some (Dt_obs.Span.profiler ~gc:true ())
  else None

let export_timeline chrome flame profiler =
  match profiler with
  | None -> ()
  | Some p ->
      let spans = Dt_obs.Span.spans p in
      (match chrome with
      | Some f ->
          write_artifact f
            (Dt_obs.Json.to_string (Dt_obs.Timeline.to_chrome spans) ^ "\n")
      | None -> ());
      (match flame with
      | Some f -> write_artifact f (Dt_obs.Timeline.to_folded spans)
      | None -> ())

let ledger_window_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "ledger-window" ] ~docv:"N"
        ~env:(Cmd.Env.info "DEPTEST_LEDGER_WINDOW")
        ~doc:
          (Printf.sprintf
             "Ledger compaction window: keep only the newest $(docv) \
              records per configuration fingerprint when appending \
              (default %d)."
             Dt_report.Ledger.default_keep))

let analyze_cmd =
  let run file strategy inputs bindings explain trace_file jobs no_cache
      strict budget deadline_ms chrome flame prom ledger ledger_window label
      =
    let profiler = make_profiler chrome flame in
    let trace_buf =
      match trace_file with None -> None | Some _ -> Some (Buffer.create 4096)
    in
    let degraded_total = ref 0 in
    (* --prom / --ledger observe the whole file as one run: a shared
       metrics registry across routines, plus §6 counters and pair
       verdicts aggregated for the ledger record *)
    let want_record = prom <> None || ledger <> None in
    let metrics = if want_record then Some (Dt_obs.Metrics.create ()) else None in
    let agg_counters = Deptest.Counters.create () in
    let agg_pairs = ref 0 and agg_indep = ref 0 and agg_degr = ref 0 in
    let routines = ref 0 in
    let gc0 = Gc.quick_stat () in
    let t0 = Dt_obs.Clock.now_ns () in
    let progs =
      List.map
        (fun p ->
          if bindings = [] then p else Dt_ir.Specialize.program p ~bindings)
        (load_unit file)
    in
    let many = List.length progs > 1 in
    routines := List.length progs;
    let cfg ?sink () =
      Deptest.Analyze.Config.make ~strategy ~include_inputs:inputs ~jobs
        ~cache:(not no_cache) ?metrics ?sink ?profiler ?budget ?deadline_ms
        ()
    in
    let analyzed =
      if explain || trace_buf <> None then
        (* a trace is an ordered narrative: per-routine sink, which also
           forces each routine to run sequentially *)
        List.map
          (fun prog ->
            let sink = Some (Dt_obs.Trace.make ()) in
            (prog, sink, Deptest.Analyze.run (cfg ?sink ()) prog))
          progs
      else
        (* no ordering constraint: shard whole routines across the
           work-stealing pool, sharing one memo cache across the file *)
        let c = cfg () in
        List.map2
          (fun prog r -> (prog, None, r))
          progs
          (Deptest.Analyze.run_all c progs)
    in
    (* verdict text comes from Dt_serve.Render — the single rendering
       shared with the serve daemon, so `deptest analyze` and a daemon
       answer are byte-identical by construction *)
    (analyzed
    |> List.iter @@ fun (prog, sink, r) ->
       print_string (Dt_serve.Render.header ~many prog.Dt_ir.Nest.name);
       if want_record then begin
       Deptest.Counters.merge_into agg_counters r.Deptest.Analyze.counters;
       let pairs, indep, degr = Dt_report.Record.summary_of_result r in
       agg_pairs := !agg_pairs + pairs;
       agg_indep := !agg_indep + indep;
       agg_degr := !agg_degr + degr
     end;
     print_string (Dt_serve.Render.verdicts prog r);
     (match sink with
     | Some sk ->
         if explain then begin
           Format.printf "@.-- explain --@.%a" Dt_obs.Trace.pp_tree sk;
           (* the surrounding text goes straight to the channel: push any
              queued formatter output out so ordering is preserved *)
           Format.print_flush ()
         end;
         (match trace_buf with
         | Some b -> Buffer.add_string b (Dt_obs.Trace.to_jsonl sk)
         | None -> ())
     | None -> ());
     let warn, degraded = Dt_serve.Render.warnings r in
     degraded_total := !degraded_total + degraded;
     print_string warn;
     print_string (Dt_serve.Render.counters r));
    (match (trace_file, trace_buf) with
    | Some f, Some b -> write_artifact f (Buffer.contents b)
    | _ -> ());
    export_timeline chrome flame profiler;
    (match metrics with
    | None -> ()
    | Some m ->
        let wall_ns = Int64.to_int (Int64.sub (Dt_obs.Clock.now_ns ()) t0) in
        let gc1 = Gc.quick_stat () in
        (match prom with
        | Some f -> write_artifact f (Dt_obs.Metrics.to_prometheus m)
        | None -> ());
        (match ledger with
        | None -> ()
        | Some path ->
            let cfg0 =
              Deptest.Analyze.Config.make ~strategy ~include_inputs:inputs
                ~jobs ~cache:(not no_cache) ?budget ?deadline_ms ()
            in
            let record =
              Dt_report.Record.make ~ts_ms:(Dt_report.Record.now_ms ()) ~label
                ~config:(Dt_report.Record.config_of cfg0)
                ~source:
                  (Dt_report.Record.source_of ~routines:!routines
                     (read_file file))
                ~counters:agg_counters ~pairs:!agg_pairs
                ~independent:!agg_indep ~degraded:!agg_degr ~metrics:m
                ~wall_ns
                ~gc_minor_words:(gc1.Gc.minor_words -. gc0.Gc.minor_words)
                ~gc_major_words:(gc1.Gc.major_words -. gc0.Gc.major_words)
                ()
            in
            (match Dt_report.Ledger.append ~path ?keep:ledger_window record with
            | Ok skipped ->
                if skipped > 0 then
                  Printf.eprintf
                    "warning: %s: dropped %d corrupt line(s) on rewrite\n" path
                    skipped
            | Error e ->
                Printf.eprintf "cannot write ledger %s: %s\n" path e;
                exit 2)));
    (* exit 3: sound-but-degraded, distinct from analysis failure (1)
       and load error (2) *)
    if strict && !degraded_total > 0 then begin
      Printf.eprintf
        "strict mode: %d reference pair(s) degraded conservatively\n"
        !degraded_total;
      exit 3
    end
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Print all data dependences of a program")
    Term.(
      const run $ file_arg $ strategy_arg $ inputs_arg $ bind_arg
      $ explain_arg $ trace_arg $ jobs_arg $ no_cache_arg $ strict_arg
      $ budget_arg $ deadline_arg $ chrome_arg $ flame_arg $ prom_arg
      $ ledger_arg $ ledger_window_arg $ label_arg)

let parallel_cmd =
  let run file =
    each file @@ fun prog ->
    let deps = deps_of prog in
    List.iter
      (fun rep -> Format.printf "%a@." Dt_transform.Parallel.pp_report rep)
      (Dt_transform.Parallel.analyze prog deps)
  in
  Cmd.v
    (Cmd.info "parallel" ~doc:"Report which loops can run in parallel")
    Term.(const run $ file_arg)

let vectorize_cmd =
  let run file =
    each file @@ fun prog ->
    let deps = deps_of prog in
    Format.printf "%a" Dt_transform.Vectorize.pp
      (Dt_transform.Vectorize.codegen prog deps)
  in
  Cmd.v
    (Cmd.info "vectorize"
       ~doc:"Print the Allen-Kennedy vectorization plan for a program")
    Term.(const run $ file_arg)

let suggest_cmd =
  let run file =
    each file @@ fun prog ->
    (match Dt_transform.Restructure.suggest prog with
    | [] -> print_endline "no peel/split opportunities found"
    | sugg ->
        List.iter
          (fun s -> Format.printf "%a@." Dt_transform.Restructure.pp s)
          sugg);
    let deps = deps_of prog in
    match Dt_transform.Scalar_replace.suggest prog deps with
    | [] -> ()
    | cands ->
        print_endline "-- scalar replacement candidates --";
        List.iter
          (fun c -> Format.printf "%a@." Dt_transform.Scalar_replace.pp c)
          cands
  in
  Cmd.v
    (Cmd.info "suggest"
       ~doc:
         "Suggest loop peeling / splitting / scalar replacement based on \
          the dependence information")
    Term.(const run $ file_arg)

let distribute_cmd =
  let run file =
    each file @@ fun prog ->
    let prog', reports = Dt_transform.Distribute.run_and_report prog in
    Format.printf "%a" Dt_ir.Nest.pp prog';
    print_endline "-- loop parallelism after distribution --";
    List.iter
      (fun r -> Format.printf "  %a@." Dt_transform.Parallel.pp_report r)
      reports
  in
  Cmd.v
    (Cmd.info "distribute"
       ~doc:"Distribute loops around dependence cycles (loop fission)")
    Term.(const run $ file_arg)

let graph_cmd =
  let run file =
    each file @@ fun prog ->
    let deps = deps_of prog in
    let g = Deptest.Depgraph.build deps in
    let label id =
      match Dt_ir.Nest.find_stmt prog id with
      | Some s -> Format.asprintf "S%d: %a" id Dt_ir.Stmt.pp s
      | None -> Printf.sprintf "S%d" id
    in
    print_string (Deptest.Depgraph.to_dot ~stmt_label:label g)
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Print the statement dependence graph in Graphviz dot format")
    Term.(const run $ file_arg)

let check_cmd =
  let run file n =
    let failures = ref 0 and checked = ref 0 in
    each file @@ fun prog ->
    (* same pair enumeration as the analysis engine (read-read pairs
       included: the oracle checks address collisions, not dep kinds) *)
    let sites = Deptest.Analyze.sites ~include_inputs:true prog in
    Array.iter
      (fun (site : Deptest.Analyze.site) ->
        let (a1 : Dt_ir.Stmt.access), l1 = site.Deptest.Analyze.left
        and (a2 : Dt_ir.Stmt.access), l2 = site.Deptest.Analyze.right in
        if Dt_ir.Aref.rank a1.Dt_ir.Stmt.aref > 0 then
          match
            Dt_exact.Brute.test ~sym_env:(fun _ -> n)
              ~src:(a1.Dt_ir.Stmt.aref, l1) ~snk:(a2.Dt_ir.Stmt.aref, l2) ()
          with
          | None -> ()
          | Some rep ->
              incr checked;
              let t =
                Deptest.Pair_test.test
                  ~src:(a1.Dt_ir.Stmt.aref, l1)
                  ~snk:(a2.Dt_ir.Stmt.aref, l2)
                  ()
              in
              let indep = t.Deptest.Pair_test.result = `Independent in
              if indep && rep.Dt_exact.Brute.dependent then begin
                incr failures;
                Format.printf "UNSOUND: %a vs %a@." Dt_ir.Aref.pp
                  a1.Dt_ir.Stmt.aref Dt_ir.Aref.pp a2.Dt_ir.Stmt.aref
              end
              else if (not indep) && not rep.Dt_exact.Brute.dependent then
                Format.printf "conservative: %a vs %a (no collision at N=%d)@."
                  Dt_ir.Aref.pp a1.Dt_ir.Stmt.aref Dt_ir.Aref.pp
                  a2.Dt_ir.Stmt.aref n)
      sites;
    Printf.printf "%d reference pairs checked against the oracle, %d unsound\n"
      !checked !failures;
    if !failures > 0 then exit 1
  in
  let n_arg =
    Arg.(
      value & opt int 10
      & info [ "n" ] ~docv:"N"
          ~doc:"Value bound to every symbolic constant for the oracle run.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate the analyzer against brute-force enumeration on a file \
          (reports unsound or conservative verdicts)")
    Term.(const run $ file_arg $ n_arg)

let suites_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "suites" ] ~docv:"S1,S2"
        ~doc:"Restrict to these corpus suites.")

let tables_cmd =
  let run suites which =
    let suites = suites in
    let s =
      match which with
      | "1" -> Dt_stats.Tables.table1 ?suites ()
      | "2" -> Dt_stats.Tables.table2 ?suites ()
      | "3" -> Dt_stats.Tables.table3 ?suites ()
      | "4" -> Dt_stats.Tables.table4 ?suites ()
      | _ -> Dt_stats.Tables.all ?suites ()
    in
    print_string s
  in
  let which =
    Arg.(
      value & opt string "all"
      & info [ "table" ] ~docv:"N" ~doc:"Which table (1-4 or all).")
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Regenerate the paper's evaluation tables over the corpus")
    Term.(const run $ suites_arg $ which)

let profile_cmd =
  let diff base_path cur_path ~threshold ~min_ns =
    let parse path =
      match Dt_obs.Json.of_string (read_file path) with
      | Ok j -> j
      | Error e -> load_error path "invalid metrics JSON: " e
      | exception Sys_error e -> load_error path "" e
    in
    let base = parse base_path and cur = parse cur_path in
    match
      Dt_obs.Diff.compare_json ~threshold:(threshold /. 100.) ~min_ns ~base
        ~cur ()
    with
    | Error e -> load_error cur_path "" e
    | Ok report ->
        Format.printf "%a@." Dt_obs.Diff.pp report;
        if Dt_obs.Diff.has_breach report then exit 1
  in
  let run file strategy json jobs diff_base threshold min_ns chrome flame =
    match diff_base with
    | Some base ->
        (* diff mode: FILE is the *current* metrics snapshot, not a
           source file — no analysis runs at all *)
        diff base file ~threshold ~min_ns
    | None ->
        let metrics = Dt_obs.Metrics.create () in
        let profiler = make_profiler chrome flame in
        let main_buf =
          Option.map (fun p -> Dt_obs.Span.buffer p ~domain:0) profiler
        in
        (* cache off: the per-kind time columns must reflect real
           executions of every test. Sequential by default; an explicit
           --jobs exercises the parallel engine (per-domain busy / wait
           accounting, one timeline row per worker). *)
        let cfg =
          Deptest.Analyze.Config.make ~strategy ~jobs ~cache:false ~metrics
            ?profiler ()
        in
        let progs =
          Dt_obs.Span.with_ main_buf Dt_obs.Span.Parse (fun () ->
              Dt_obs.Metrics.timed (Some metrics) Dt_obs.Metrics.Parse
                (fun () -> load_unit file))
        in
        List.iter
          (fun (prog : Dt_ir.Nest.program) ->
            ignore (Deptest.Analyze.run cfg prog))
          progs;
        if json then
          print_endline
            (Dt_obs.Json.to_string (Dt_obs.Metrics.to_json metrics))
        else Format.printf "%a" Dt_obs.Metrics.pp metrics;
        export_timeline chrome flame profiler
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the metrics snapshot as JSON instead of a table.")
  in
  let profile_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the profiled run (default 1: sequential, \
             so per-kind times reflect one execution stream).")
  in
  let diff_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "diff" ] ~docv:"OLD.json"
          ~doc:
            "Regression mode: compare the baseline metrics snapshot \
             $(docv) against the current snapshot given as the positional \
             argument (both from $(b,profile --json)), print per-row \
             deltas, and exit 1 if any row regressed past the thresholds.")
  in
  let threshold_arg =
    Arg.(
      value & opt float 25.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "With $(b,--diff): relative time growth (in percent) that \
             counts as a regression.")
  in
  let min_ns_arg =
    Arg.(
      value & opt float 10000.0
      & info [ "min-ns" ] ~docv:"NS"
          ~doc:
            "With $(b,--diff): absolute time growth floor a row must also \
             exceed to count (damps jitter on microsecond-scale rows).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Analyze a file and print per-test-kind counts and wall-clock \
          timings (the paper's Table-3 shape with time columns), or diff \
          two metrics snapshots for regressions")
    Term.(
      const run $ file_arg $ strategy_arg $ json_arg $ profile_jobs_arg
      $ diff_arg $ threshold_arg $ min_ns_arg $ chrome_arg $ flame_arg)

let corpus_cmd =
  let run () =
    List.iter
      (fun (e : Dt_workloads.Corpus.entry) ->
        Printf.printf "%-10s %s\n" e.Dt_workloads.Corpus.suite
          e.Dt_workloads.Corpus.name)
      Dt_workloads.Corpus.all
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"List the embedded benchmark corpus")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* report: inspect the run ledger                                      *)

let ledger_path_arg =
  Arg.(
    value
    & opt string Dt_report.Ledger.default_path
    & info [ "ledger" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "DEPTEST_LEDGER")
        ~doc:"Ledger file to read (JSONL of run records).")

let load_ledger path =
  match Dt_report.Ledger.load ~path () with
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 2
  | Ok (records, skipped) ->
      if skipped > 0 then
        Printf.eprintf "warning: %s: skipped %d corrupt line(s)\n" path skipped;
      records

let nth_record records i =
  match List.nth_opt records i with
  | Some r -> r
  | None ->
      Printf.eprintf "no record %d (ledger has %d record(s))\n" i
        (List.length records);
      exit 2

let ts_string ms =
  let t = Unix.gmtime (float_of_int ms /. 1000.) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let short_fp fp = if String.length fp > 12 then String.sub fp 0 12 else fp

let report_list_cmd =
  let run path =
    match load_ledger path with
    | [] -> print_endline "(empty ledger)"
    | records ->
        List.iteri
          (fun i (r : Dt_report.Record.t) ->
            Printf.printf
              "%3d  %s  %s  %-12s  %4d pairs %4d indep %3d degraded  jobs=%d\n"
              i (ts_string r.ts_ms) (short_fp r.fingerprint)
              (if r.label = "" then "-" else r.label)
              r.verdicts.pairs r.verdicts.independent r.verdicts.degraded
              r.config.jobs)
          records
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the ledger's run records, oldest first")
    Term.(const run $ ledger_path_arg)

let report_show_cmd =
  let run path index json =
    let r = nth_record (load_ledger path) index in
    if json then
      print_endline (Dt_obs.Json.to_string (Dt_report.Record.to_json r))
    else Format.printf "%a@." Dt_report.Record.pp r
  in
  let index_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"N" ~doc:"Record index as shown by $(b,report list).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the full record JSON instead of a summary.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Show one ledger record")
    Term.(const run $ ledger_path_arg $ index_arg $ json_arg)

let drift_threshold_arg =
  Arg.(
    value & opt float 50.0
    & info [ "latency-threshold" ] ~docv:"PCT"
        ~doc:
          "Relative mean-pair-latency growth (percent) that counts as \
           drift; verdict counts always compare exactly.")

let drift_min_ns_arg =
  Arg.(
    value & opt float 10000.0
    & info [ "min-ns" ] ~docv:"NS"
        ~doc:
          "Absolute mean-latency growth floor that must also be exceeded \
           (damps jitter on microsecond-scale runs).")

let no_latency_arg =
  Arg.(
    value & flag
    & info [ "no-latency" ]
        ~doc:
          "Compare verdicts only; ignore latency entirely (for \
           cross-machine comparisons, e.g. a committed CI baseline).")

let report_diff_cmd =
  let run path a b threshold min_ns no_latency =
    let records = load_ledger path in
    let baseline = nth_record records a and current = nth_record records b in
    let counters, latency =
      Dt_report.Drift.diff ~latency_threshold:(threshold /. 100.) ~min_ns
        ~check_latency:(not no_latency) ~baseline ~current ()
    in
    if counters = [] && latency = None then
      Printf.printf "records %d and %d agree\n" a b
    else begin
      List.iter
        (fun (r : Dt_report.Drift.counter_row) ->
          Printf.printf "%s: %d -> %d\n" r.metric r.baseline r.current)
        counters;
      (match latency with
      | Some (l : Dt_report.Drift.latency_row) ->
          Printf.printf "mean pair latency: %.0f ns -> %.0f ns\n" l.baseline_ns
            l.current_ns
      | None -> ());
      exit 1
    end
  in
  let a_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"A" ~doc:"Baseline record index.")
  in
  let b_arg =
    Arg.(
      required
      & pos 1 (some int) None
      & info [] ~docv:"B" ~doc:"Current record index.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two ledger records field by field; exit 1 if they differ")
    Term.(
      const run $ ledger_path_arg $ a_arg $ b_arg $ drift_threshold_arg
      $ drift_min_ns_arg $ no_latency_arg)

let report_drift_cmd =
  let run path baseline_path window threshold min_ns no_latency =
    (* a gate with nothing to compare must not pass: a missing baseline
       is a load error, and a ledger none of whose runs has a baseline
       of its fingerprint fails like drift *)
    if not (Sys.file_exists baseline_path) then begin
      Printf.eprintf "no baseline ledger at %s\n" baseline_path;
      exit 2
    end;
    let baseline = load_ledger baseline_path in
    let current = load_ledger path in
    let report =
      Dt_report.Drift.detect ~window ~latency_threshold:(threshold /. 100.)
        ~min_ns ~check_latency:(not no_latency) ~baseline ~current ()
    in
    Format.printf "%a@." Dt_report.Drift.pp report;
    if Dt_report.Drift.has_drift report then exit 1;
    if report.Dt_report.Drift.groups = [] then begin
      Printf.eprintf "no run has a baseline of its fingerprint: nothing compared\n";
      exit 1
    end
  in
  let baseline_arg =
    Arg.(
      value
      & opt string "bench/ledger_baseline.jsonl"
      & info [ "baseline" ] ~docv:"PATH"
          ~doc:
            "Baseline ledger to drift against; a missing file exits 2.")
  in
  let window_arg =
    Arg.(
      value & opt int 5
      & info [ "window" ] ~docv:"K"
          ~doc:
            "Baseline records per fingerprint to aggregate (latency \
             compares against the window mean).")
  in
  Cmd.v
    (Cmd.info "drift"
       ~doc:
         "Compare the newest run of each configuration against a baseline \
          ledger; exit 1 on verdict or latency drift, or when no run has a \
          baseline (the CI gate)")
    Term.(
      const run $ ledger_path_arg $ baseline_arg $ window_arg
      $ drift_threshold_arg $ drift_min_ns_arg $ no_latency_arg)

let report_cmd =
  Cmd.group
    (Cmd.info "report"
       ~doc:
         "Inspect the run ledger: list and show records, diff two runs, \
          gate on drift against a baseline")
    [ report_list_cmd; report_show_cmd; report_diff_cmd; report_drift_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / client: the persistent analysis daemon and its round-trip
   tool. Verdict text is rendered by the same Dt_serve.Render the
   analyze command uses, so daemon answers match one-shot runs byte for
   byte. *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "DEPTEST_SOCKET")
        ~doc:"Unix socket path of the analysis daemon.")

let serve_cmd =
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the persistent store of rendered routine \
             answers: versioned, fingerprinted, checksummed segments \
             written atomically; corrupt or stale segments are skipped \
             (counted in the metrics) and rebuilt.")
  in
  let cache_capacity_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Bound resident cache entries (FIFO eviction past it).")
  in
  let warm_arg =
    Arg.(
      value
      & opt ~vopt:(Some "all") (some string) None
      & info [ "warm" ] ~docv:"SUITE"
          ~doc:
            "Pre-analyze the built-in workload corpus (or one suite of \
             it) before accepting connections, so first requests hit \
             warm caches.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress messages.")
  in
  let sample_period_arg =
    Arg.(
      value & opt int 1
      & info [ "sample-period" ] ~docv:"N"
          ~doc:
            "Arm request-scoped span capture on every $(docv)-th analyze \
             request (1: every request, the default; 0: never — summaries \
             still enter the slow ledger).")
  in
  let slow_threshold_arg =
    Arg.(
      value & opt float 0.
      & info [ "slow-threshold-ms" ] ~docv:"MS"
          ~doc:
            "Retain a captured span tree only when the request took at \
             least $(docv) milliseconds (0, the default, keeps every armed \
             capture). The summary enters the ledger either way.")
  in
  let ledger_recent_arg =
    Arg.(
      value & opt int 64
      & info [ "ledger-recent" ] ~docv:"N"
          ~doc:"Capacity of the slow ledger's newest-first request ring.")
  in
  let ledger_top_arg =
    Arg.(
      value & opt int 16
      & info [ "ledger-top" ] ~docv:"N"
          ~doc:"Capacity of the slow ledger's slowest-first board.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 0
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission budget: when more than $(docv) requests are queued \
             at service time, analyze requests are shed with a structured \
             overloaded response carrying retry_after_ms (0, the default: \
             unbounded). Introspection ops always answer.")
  in
  let queue_deadline_arg =
    Arg.(
      value & opt int 0
      & info [ "queue-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Shed an analyze request that already waited more than \
             $(docv) ms in the queue (0, the default: no queue deadline).")
  in
  let drain_grace_arg =
    Arg.(
      value & opt int 2_000
      & info [ "drain-grace-ms" ] ~docv:"MS"
          ~doc:
            "On SIGTERM/SIGINT/shutdown, keep answering requests already \
             sent for up to $(docv) ms before flushing and exiting.")
  in
  let supervise_arg =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Fork the daemon and restart it on abnormal exit with \
             crash-loop backoff, up to $(b,--max-restarts) times. The \
             disk cache makes restarts warm; the restart count is \
             exported on $(b,client health) and \
             $(b,deptest_serve_restarts_total).")
  in
  let max_restarts_arg =
    Arg.(
      value & opt int 5
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:"Give up after $(docv) supervised restarts.")
  in
  let restart_backoff_arg =
    Arg.(
      value & opt int 100
      & info [ "restart-backoff-ms" ] ~docv:"MS"
          ~doc:
            "Base of the supervisor's crash-loop backoff: the k-th \
             restart waits $(docv) * 2^k ms (capped). Lower it when a \
             watching client's retry budget is tighter than the default \
             restart cadence.")
  in
  let run socket jobs cache_dir cache_capacity warm quiet sample_period
      slow_threshold_ms ledger_recent ledger_top max_inflight
      queue_deadline_ms drain_grace_ms supervise max_restarts
      restart_backoff_ms =
    let log =
      if quiet then ignore
      else fun s -> Printf.eprintf "deptest serve: %s\n%!" s
    in
    let warm =
      Option.map (function "all" -> `All | s -> `Suite s) warm
    in
    let serve ~restarts =
      Dt_serve.Server.run ~socket ~jobs ?cache_dir ?cache_capacity
        ~sample_period
        ~slow_threshold_ns:
          (Int64.of_float (slow_threshold_ms *. 1_000_000.))
        ~ledger_recent ~ledger_top ~max_inflight ~queue_deadline_ms
        ~restarts ~drain_grace_ms ?warm ~signals:true ~log ()
    in
    exit
      (if supervise then
         Dt_serve.Supervise.run ~max_restarts
           ~backoff_ms:(max 1 restart_backoff_ms) ~signals:true
           ~log:(fun s ->
             if not quiet then Printf.eprintf "deptest supervise: %s\n%!" s)
           (fun ~restarts -> serve ~restarts)
       else serve ~restarts:0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis daemon on a unix socket \
          (length-prefixed JSON protocol; analyze / metrics / health / \
          slow / top / trace-last / flush / shutdown ops). SIGTERM or \
          SIGINT drains in-flight requests, flushes the cache, and exits \
          cleanly; $(b,--max-inflight)/$(b,--queue-deadline-ms) shed \
          excess analyze load with retryable overloaded responses; \
          $(b,--supervise) restarts the daemon on crashes.")
    Term.(
      const run $ socket_arg $ jobs_arg $ cache_dir_arg $ cache_capacity_arg
      $ warm_arg $ quiet_arg $ sample_period_arg $ slow_threshold_arg
      $ ledger_recent_arg $ ledger_top_arg $ max_inflight_arg
      $ queue_deadline_arg $ drain_grace_arg $ supervise_arg
      $ max_restarts_arg $ restart_backoff_arg)

let client_fail json =
  (match Dt_obs.Json.member "error" json with
  | Some (Dt_obs.Json.String e) -> Printf.eprintf "%s\n" e
  | _ -> Printf.eprintf "malformed server response\n");
  exit 1

let client_ok json =
  match Dt_obs.Json.member "ok" json with
  | Some (Dt_obs.Json.Bool true) -> ()
  | _ -> client_fail json

(* the documented exit taxonomy: transport problems (no daemon, timeout,
   connection lost, still overloaded after every retry) are exit 2 with
   one line on stderr naming the socket; an ok:false response is the
   analysis' own failure, exit 1 *)
let client_call socket ~retries ~timeout_ms ?(retry_truncated = false) req =
  let retry =
    {
      Dt_serve.Client.Retry.default with
      attempts = 1 + max 0 retries;
      retry_truncated;
    }
  in
  match Dt_serve.Client.call ~retry ~timeout_ms ~socket req with
  | Ok json -> json
  | Error f ->
      Printf.eprintf "%s\n" (Dt_serve.Client.failure_message ~socket f);
      exit 2

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry up to $(docv) additional times when no daemon answers, \
           the connection dies before any response byte, or the daemon \
           sheds the request as overloaded (sleeping at least its \
           retry_after_ms, with decorrelated-jitter backoff).")

let timeout_ms_arg =
  Arg.(
    value & opt int 30_000
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:"Per-attempt connect and receive timeout.")

let client_analyze_cmd =
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ]
          ~doc:"Do not print the request's trace id to stderr.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Total latency budget for the request. The daemon subtracts \
             the time it queued and analyzes under the remainder \
             (degrading conservatively rather than overrunning); a \
             budget already spent queueing is a deadline-exceeded \
             error.")
  in
  let run socket file strict quiet retries timeout_ms deadline_ms =
    (* the client mints the trace id so a slow request can be chased
       into the daemon's ledger (client slow / trace-last) even when the
       response never arrives. It goes to stderr: stdout must stay
       byte-identical to one-shot `deptest analyze`. The same id rides
       every retry attempt, so the ledger shows the whole chain. *)
    let trace_id = Dt_obs.Reqtrace.gen_id () in
    if not quiet then Printf.eprintf "trace %s\n%!" trace_id;
    let resp =
      (* analyze is idempotent (pure analysis + idempotent cache
         writes), so a mid-response disconnect is safe to re-ask *)
      client_call socket ~retries ~timeout_ms ~retry_truncated:true
        (Dt_serve.Protocol.Analyze
           {
             source = read_file file;
             id = None;
             trace_id = Some trace_id;
             deadline_ms;
           })
    in
    client_ok resp;
    (match Dt_obs.Json.member "output" resp with
    | Some (Dt_obs.Json.String out) -> print_string out
    | _ -> client_fail resp);
    match Dt_obs.Json.member "degraded" resp with
    | Some (Dt_obs.Json.Int n) when strict && n > 0 ->
        Printf.eprintf
          "strict mode: %d reference pair(s) degraded conservatively\n" n;
        exit 3
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Analyze a file through the daemon; output is byte-identical to \
          one-shot $(b,deptest analyze). The request's trace id is printed \
          to stderr for chasing it through $(b,client slow) and \
          $(b,client trace-last).")
    Term.(
      const run $ socket_arg $ file_arg $ strict_arg $ quiet_arg
      $ retries_arg $ timeout_ms_arg $ deadline_arg)

let client_metrics_cmd =
  let prom_flag =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:"Prometheus text exposition instead of the JSON snapshot.")
  in
  let run socket prom retries timeout_ms =
    let resp =
      client_call socket ~retries ~timeout_ms
        (Dt_serve.Protocol.Metrics { prometheus = prom })
    in
    client_ok resp;
    if prom then
      match Dt_obs.Json.member "prometheus" resp with
      | Some (Dt_obs.Json.String body) -> print_string body
      | _ -> client_fail resp
    else print_endline (Dt_obs.Json.to_string resp)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "The daemon's metrics. JSON by default (the snapshot under \
          $(b,.metrics), request counters under $(b,.serve)); $(b,--prom) \
          for Prometheus text.")
    Term.(const run $ socket_arg $ prom_flag $ retries_arg $ timeout_ms_arg)

let client_simple name doc req print =
  let run socket retries timeout_ms =
    let resp = client_call socket ~retries ~timeout_ms req in
    client_ok resp;
    print resp
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ socket_arg $ retries_arg $ timeout_ms_arg)

let client_n_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"N"
        ~doc:"At most $(docv) entries (default: the ledger's capacity).")

let client_ledger_cmd name doc mk =
  let run socket n retries timeout_ms =
    let resp = client_call socket ~retries ~timeout_ms (mk n) in
    client_ok resp;
    print_endline (Dt_obs.Json.to_string resp)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ socket_arg $ client_n_arg $ retries_arg $ timeout_ms_arg)

let client_trace_last_cmd =
  let trace_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-id" ] ~docv:"ID"
          ~doc:
            "Export the capture for this trace id (default: the most \
             recent retained capture).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace there instead of stdout.")
  in
  let run socket trace_id out retries timeout_ms =
    let resp =
      client_call socket ~retries ~timeout_ms
        (Dt_serve.Protocol.Trace_last { trace_id })
    in
    client_ok resp;
    match Dt_obs.Json.member "chrome_trace" resp with
    | Some trace -> (
        let body = Dt_obs.Json.to_string trace ^ "\n" in
        match out with
        | None -> print_string body
        | Some f ->
            Dt_obs.Artifact.write_atomic f body;
            Printf.eprintf "wrote %s\n" f)
    | None -> client_fail resp
  in
  Cmd.v
    (Cmd.info "trace-last"
       ~doc:
         "Export the daemon's most recent captured request (or \
          $(b,--trace-id)'s) as a Chrome trace — load it in Perfetto / \
          chrome://tracing.")
    Term.(
      const run $ socket_arg $ trace_id_arg $ out_arg $ retries_arg
      $ timeout_ms_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:"Scripted round-trips against a running $(b,deptest serve)")
    [
      client_analyze_cmd;
      client_metrics_cmd;
      client_ledger_cmd "slow"
        "The newest entries in the daemon's slow-request ledger (JSON, \
         newest first): trace id, endpoint, cache tier, degraded count, \
         wall time."
        (fun n -> Dt_serve.Protocol.Slow { n });
      client_ledger_cmd "top"
        "The slowest requests the daemon has seen (JSON, slowest first)."
        (fun n -> Dt_serve.Protocol.Top { n });
      client_trace_last_cmd;
      client_simple "health" "Daemon liveness, vitals, and cache occupancy."
        Dt_serve.Protocol.Health
        (fun r -> print_endline (Dt_obs.Json.to_string r));
      client_simple "flush" "Persist the daemon's disk cache now."
        Dt_serve.Protocol.Flush
        (fun r -> print_endline (Dt_obs.Json.to_string r));
      client_simple "shutdown" "Stop the daemon (it flushes and exits 0)."
        Dt_serve.Protocol.Shutdown (fun _ -> ());
    ]

let main =
  Cmd.group
    (Cmd.info "deptest" ~version:"1.0.0"
       ~doc:"Practical dependence testing for loop nests (Goff-Kennedy-Tseng, PLDI 1991)")
    [
      analyze_cmd;
      parallel_cmd;
      vectorize_cmd;
      distribute_cmd;
      graph_cmd;
      suggest_cmd;
      check_cmd;
      profile_cmd;
      tables_cmd;
      corpus_cmd;
      report_cmd;
      serve_cmd;
      client_cmd;
    ]

let () =
  (* opt-in deterministic fault injection (DEPTEST_INJECT=overflow,...);
     only the CLI reads the environment, so library behavior stays
     env-independent *)
  Dt_guard.Inject.from_env ();
  exit (Cmd.eval main)
