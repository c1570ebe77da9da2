(* The run ledger and drift detection (dt_report), the Prometheus
   exposition, and the atomic-artifact guarantees they lean on. *)

open Dt_ir
open Helpers

(* ------------------------------------------------------------------ *)
(* fixtures: build ledger records from real analysis runs              *)

let small_prog =
  let li = loop ~hi:10 i0 in
  Nest.program ~name:"t"
    [
      Nest.Loop
        ( li,
          [
            Nest.Stmt
              (Stmt.make ~id:0
                 ~writes:[ Aref.linear "A" [ av ~c:1 i0 ] ]
                 ~reads:[ Aref.linear "A" [ av i0 ] ]
                 ~text:"A(I+1) = A(I)" ());
          ] );
    ]

let record_of ?(label = "test") ?(jobs = 1) ?(source = "SRC") prog =
  let metrics = Dt_obs.Metrics.create () in
  let cfg = Deptest.Analyze.Config.make ~jobs ~cache:false ~metrics () in
  let r = Deptest.Analyze.run cfg prog in
  let pairs, independent, degraded = Dt_report.Record.summary_of_result r in
  Dt_report.Record.make ~ts_ms:1234 ~label
    ~config:(Dt_report.Record.config_of cfg)
    ~source:(Dt_report.Record.source_of source)
    ~counters:r.Deptest.Analyze.counters ~pairs ~independent ~degraded
    ~metrics ~wall_ns:5000 ~gc_minor_words:10. ~gc_major_words:2. ()

let json_str j = Dt_obs.Json.to_string j

let tmp_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dt-report-%d-%s" (Unix.getpid ()) name)

(* ------------------------------------------------------------------ *)
(* record                                                              *)

let test_record_roundtrip () =
  let r = record_of small_prog in
  let j = Dt_report.Record.to_json r in
  match Dt_report.Record.of_json j with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok r' ->
      Alcotest.(check string)
        "to_json . of_json . to_json is the identity" (json_str j)
        (json_str (Dt_report.Record.to_json r'));
      (* the parse is also a value round-trip on the stable surface *)
      Alcotest.(check string)
        "stable view survives"
        (json_str (Dt_report.Record.stable_json r))
        (json_str (Dt_report.Record.stable_json r'))

let test_record_rejects () =
  let reject what j =
    match Dt_report.Record.of_json j with
    | Ok _ -> Alcotest.failf "accepted %s" what
    | Error _ -> ()
  in
  reject "a non-object" (Dt_obs.Json.Int 3);
  reject "an empty object" (Dt_obs.Json.Obj []);
  let r = record_of small_prog in
  (match Dt_report.Record.to_json r with
  | Dt_obs.Json.Obj fields ->
      reject "an unknown schema"
        (Dt_obs.Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "schema" then (k, Dt_obs.Json.String "deptest-ledger/99")
                else (k, v))
              fields));
      reject "a dropped field"
        (Dt_obs.Json.Obj (List.filter (fun (k, _) -> k <> "verdicts") fields))
  | _ -> Alcotest.fail "to_json is not an object")

let test_fingerprint_ignores_jobs () =
  let r1 = record_of ~jobs:1 small_prog in
  let r2 = record_of ~jobs:2 small_prog in
  Alcotest.(check string)
    "same fingerprint at jobs=1 and jobs=2" r1.Dt_report.Record.fingerprint
    r2.Dt_report.Record.fingerprint;
  Alcotest.(check string)
    "stable record byte-identical across jobs"
    (json_str (Dt_report.Record.stable_json r1))
    (json_str (Dt_report.Record.stable_json r2));
  let r3 = record_of ~label:"other" small_prog in
  Alcotest.(check bool)
    "label partitions the fingerprint" false
    (r1.Dt_report.Record.fingerprint = r3.Dt_report.Record.fingerprint);
  let r4 = record_of ~source:"OTHER SRC" small_prog in
  Alcotest.(check bool)
    "source digest partitions the fingerprint" false
    (r1.Dt_report.Record.fingerprint = r4.Dt_report.Record.fingerprint)

(* ------------------------------------------------------------------ *)
(* ledger                                                              *)

let test_ledger_roundtrip () =
  let path = tmp_path "roundtrip.jsonl" in
  let records =
    [ record_of small_prog; record_of ~label:"b" small_prog;
      record_of ~jobs:2 small_prog ]
  in
  Dt_report.Ledger.save ~path records;
  (match Dt_report.Ledger.load ~path () with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) ->
      Alcotest.(check int) "no skipped lines" 0 skipped;
      Alcotest.(check (list string))
        "records survive byte-for-byte"
        (List.map (fun r -> json_str (Dt_report.Record.to_json r)) records)
        (List.map (fun r -> json_str (Dt_report.Record.to_json r)) loaded));
  Sys.remove path

let test_ledger_missing_is_empty () =
  match Dt_report.Ledger.load ~path:(tmp_path "never-written.jsonl") () with
  | Ok ([], 0) -> ()
  | Ok (rs, sk) ->
      Alcotest.failf "expected empty, got %d records, %d skipped"
        (List.length rs) sk
  | Error e -> Alcotest.failf "missing file should not error: %s" e

let test_ledger_corrupt_lines () =
  let path = tmp_path "corrupt.jsonl" in
  let good = record_of small_prog in
  let line = json_str (Dt_report.Record.to_json good) in
  let oc = open_out_bin path in
  output_string oc (line ^ "\n");
  output_string oc "{ not json at all\n";
  output_string oc "{\"schema\":\"deptest-ledger/99\"}\n";
  output_string oc "\n";
  output_string oc (line ^ "\n");
  close_out oc;
  (match Dt_report.Ledger.load ~path () with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (records, skipped) ->
      Alcotest.(check int) "two valid records" 2 (List.length records);
      Alcotest.(check int) "two corrupt lines skipped" 2 skipped);
  (* an append over the corrupt ledger reports and drops the casualties *)
  (match Dt_report.Ledger.append ~path (record_of ~label:"b" small_prog) with
  | Error e -> Alcotest.failf "append failed: %s" e
  | Ok skipped -> Alcotest.(check int) "append reports the drops" 2 skipped);
  (match Dt_report.Ledger.load ~path () with
  | Ok (records, 0) ->
      Alcotest.(check int) "rewrite kept the valid records" 3
        (List.length records)
  | Ok (_, sk) -> Alcotest.failf "rewrite left %d corrupt lines" sk
  | Error e -> Alcotest.failf "reload failed: %s" e);
  Sys.remove path

let test_ledger_compaction () =
  let path = tmp_path "compact.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let r = record_of small_prog in
  let other = record_of ~label:"other" small_prog in
  for _ = 1 to 5 do
    match Dt_report.Ledger.append ~path ~keep:2 r with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "append failed: %s" e
  done;
  (match Dt_report.Ledger.append ~path ~keep:2 other with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "append failed: %s" e);
  (match Dt_report.Ledger.load ~path () with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (records, _) ->
      let count fp =
        List.length
          (List.filter
             (fun (x : Dt_report.Record.t) -> x.fingerprint = fp)
             records)
      in
      Alcotest.(check int) "same-fingerprint records capped" 2
        (count r.Dt_report.Record.fingerprint);
      Alcotest.(check int) "other fingerprint untouched" 1
        (count other.Dt_report.Record.fingerprint));
  Sys.remove path

let test_ledger_window_default () =
  (* the compaction window: [?keep] falls back to [default_keep], and an
     explicit window is honored exactly — this is what the CLI's
     [--ledger-window] / [DEPTEST_LEDGER_WINDOW] plumbs through *)
  let path = tmp_path "window.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let r = record_of small_prog in
  let n = Dt_report.Ledger.default_keep + 3 in
  for _ = 1 to n do
    match Dt_report.Ledger.append ~path r with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "append failed: %s" e
  done;
  (match Dt_report.Ledger.load ~path () with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (records, _) ->
      Alcotest.(check int) "default window caps per-config history"
        Dt_report.Ledger.default_keep (List.length records));
  (* widening the window on a later append must not drop history that
     still fits *)
  (match Dt_report.Ledger.append ~path ~keep:(n + 10) r with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "append failed: %s" e);
  (match Dt_report.Ledger.load ~path () with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (records, _) ->
      Alcotest.(check int) "wider window keeps everything present"
        (Dt_report.Ledger.default_keep + 1)
        (List.length records));
  (* and narrowing it compacts immediately *)
  (match Dt_report.Ledger.append ~path ~keep:3 r with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "append failed: %s" e);
  (match Dt_report.Ledger.load ~path () with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (records, _) ->
      Alcotest.(check int) "narrow window compacts on append" 3
        (List.length records));
  Sys.remove path

let test_ledger_merge_idempotent () =
  let a = [ record_of small_prog; record_of ~label:"b" small_prog ] in
  let b = [ List.hd a; record_of ~label:"c" small_prog ] in
  let merged = Dt_report.Ledger.merge a b in
  Alcotest.(check int) "union without duplicates" 3 (List.length merged);
  Alcotest.(check int) "self-merge is the identity" 3
    (List.length (Dt_report.Ledger.merge merged merged))

(* ------------------------------------------------------------------ *)
(* drift                                                               *)

(* one record per instrumented whole-corpus pass: jobs 1, jobs 2, the
   subscript-by-subscript strategy, and a one-node budget *)
let corpus_records () =
  let entries = Dt_workloads.Corpus.all in
  let progs = List.concat_map Dt_workloads.Corpus.programs entries in
  let source =
    Dt_report.Record.source_of ~routines:(List.length progs)
      (String.concat "\n"
         (List.map (fun (e : Dt_workloads.Corpus.entry) -> e.source) entries))
  in
  let pass ~label ?strategy ?budget ~jobs () =
    let metrics = Dt_obs.Metrics.create () in
    let cfg =
      Deptest.Analyze.Config.make ?strategy ~jobs ~cache:false ~metrics ?budget
        ()
    in
    let counters = Deptest.Counters.create () in
    let pairs = ref 0 and indep = ref 0 and degr = ref 0 in
    List.iter
      (fun p ->
        let r = Deptest.Analyze.run cfg p in
        Deptest.Counters.merge_into counters r.Deptest.Analyze.counters;
        let np, ni, nd = Dt_report.Record.summary_of_result r in
        pairs := !pairs + np;
        indep := !indep + ni;
        degr := !degr + nd)
      progs;
    Dt_report.Record.make ~label ~config:(Dt_report.Record.config_of cfg)
      ~source ~counters ~pairs:!pairs ~independent:!indep ~degraded:!degr
      ~metrics ~wall_ns:1 ()
  in
  [
    pass ~label:"corpus" ~jobs:1 ();
    pass ~label:"corpus" ~jobs:2 ();
    pass ~label:"corpus-subscript"
      ~strategy:Deptest.Pair_test.Subscript_by_subscript ~jobs:1 ();
    pass ~label:"corpus-budget1" ~budget:1 ~jobs:1 ();
  ]

let test_drift_identical_runs () =
  let baseline = [ record_of small_prog; record_of small_prog ] in
  let current = [ record_of ~jobs:2 small_prog ] in
  let report =
    Dt_report.Drift.detect ~check_latency:false ~baseline ~current ()
  in
  Alcotest.(check bool) "identical runs never drift" false
    (Dt_report.Drift.has_drift report);
  Alcotest.(check int) "one fingerprint group" 1
    (List.length report.Dt_report.Drift.groups);
  (* the four instrumented whole-corpus passes, against the ledger they
     wrote when this baseline was committed *)
  let corpus = corpus_records () in
  let stable r = json_str (Dt_report.Record.stable_json r) in
  (match corpus with
  | r1 :: r2 :: _ ->
      Alcotest.(check string) "corpus: jobs=1 and jobs=2 stable records"
        (stable r1) (stable r2)
  | _ -> Alcotest.fail "expected four corpus records");
  List.iter
    (fun (r : Dt_report.Record.t) ->
      let v = r.verdicts and j = Dt_report.Record.to_json r in
      Alcotest.(check (option string)) (r.label ^ ": schema")
        (Some Dt_report.Record.schema_version)
        (Option.bind (Dt_obs.Json.member "schema" j) Dt_obs.Json.to_str);
      Alcotest.(check int) (r.label ^ ": fingerprint length") 32
        (String.length r.fingerprint);
      Alcotest.(check bool) (r.label ^ ": pairs tested") true (v.pairs > 0);
      Alcotest.(check int) (r.label ^ ": pairs partitioned") v.pairs
        (v.independent + v.dependent);
      Alcotest.(check bool) (r.label ^ ": per-kind rows") true (v.by_kind <> []);
      Alcotest.(check bool) (r.label ^ ": wall clock and metrics") true
        (Dt_obs.Json.member "wall_ns" j <> None
        && r.metrics <> Dt_obs.Json.Null))
    corpus;
  (* left in the build tree, to be copied over the baseline when a
     verdict change is intended *)
  Dt_report.Ledger.save ~path:"ledger_current.jsonl" corpus;
  let baseline =
    match Dt_report.Ledger.load ~path:"../bench/ledger_baseline.jsonl" () with
    | Ok (records, 0) when records <> [] -> records
    | Ok (_, bad) ->
        Alcotest.failf
          "bench/ledger_baseline.jsonl is missing, empty or has %d bad lines" bad
    | Error e -> Alcotest.fail e
  in
  let report =
    Dt_report.Drift.detect ~check_latency:false ~baseline ~current:corpus ()
  in
  Alcotest.(check (list string)) "corpus: every run has a baseline" []
    report.Dt_report.Drift.unmatched;
  List.iter
    (fun (g : Dt_report.Drift.group) ->
      Alcotest.(check (list string))
        (g.label ^ ": verdicts match the baseline")
        []
        (List.map (fun (r : Dt_report.Drift.counter_row) -> r.metric) g.counters))
    report.Dt_report.Drift.groups

let qtest_drift_never_on_repeat =
  (* property at corpus scale: for arbitrary generated programs, two
     independent instrumented runs produce records that never drift *)
  let gen =
    QCheck.make
      (QCheck.Gen.map
         (fun seed ->
           let st = Random.State.make [| seed |] in
           Dt_workloads.Generator.program st
             { Dt_workloads.Generator.default with max_depth = 2; max_bound = 5 }
             ~stmts:3)
         QCheck.Gen.int)
  in
  qtest ~count:60 "repeated runs of a random program never drift" gen
    (fun prog ->
      let baseline = [ record_of prog ] in
      let current = [ record_of ~jobs:2 prog ] in
      not
        (Dt_report.Drift.has_drift
           (Dt_report.Drift.detect ~check_latency:false ~baseline ~current ())))

let test_drift_flipped_verdict () =
  (* a fault-injected run flips verdicts (pairs degrade conservatively);
     drift must fire and name the affected test kind *)
  let baseline = [ record_of small_prog ] in
  let current =
    Fun.protect ~finally:Dt_guard.Inject.disable (fun () ->
        Dt_guard.Inject.enable ~period:1 [ Dt_guard.Inject.Overflow ];
        [ record_of small_prog ])
  in
  let report =
    Dt_report.Drift.detect ~check_latency:false ~baseline ~current ()
  in
  Alcotest.(check bool) "injected run drifts" true
    (Dt_report.Drift.has_drift report);
  let rows =
    List.concat_map
      (fun (g : Dt_report.Drift.group) ->
        List.map
          (fun (r : Dt_report.Drift.counter_row) -> r.metric)
          g.counters)
      report.Dt_report.Drift.groups
  in
  let slugs =
    List.map Dt_obs.Test_kind.slug Dt_obs.Test_kind.all
  in
  Alcotest.(check bool) "a drifted row names a test kind" true
    (List.exists
       (fun m -> List.exists (fun s -> Astring_contains.contains m s) slugs)
       rows);
  Alcotest.(check bool) "degradation is reported" true
    (List.mem "degraded" rows)

let test_drift_unmatched_is_not_drift () =
  let current = [ record_of ~label:"brand-new" small_prog ] in
  let report =
    Dt_report.Drift.detect ~check_latency:false
      ~baseline:[ record_of small_prog ] ~current ()
  in
  Alcotest.(check bool) "no baseline -> reported, not drift" false
    (Dt_report.Drift.has_drift report);
  Alcotest.(check int) "unmatched run listed" 1
    (List.length report.Dt_report.Drift.unmatched)

(* the CLI gate's exit codes: 0 when every run matched a baseline and
   none drifted, 1 when no run has a baseline of its fingerprint, 2 on a
   missing baseline file. The binary runs in a child process (posix_spawn;
   this test binary has domains, so no fork). *)
let test_drift_cli_exit_codes () =
  let cli =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/deptest_cli.exe"
  in
  let base = "drift_cli_base.jsonl" and fresh = "drift_cli_fresh.jsonl" in
  Dt_report.Ledger.save ~path:base [ record_of small_prog ];
  Dt_report.Ledger.save ~path:fresh [ record_of ~label:"brand-new" small_prog ];
  let drift ~ledger ~baseline =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process cli
        [| cli; "report"; "drift"; "--ledger"; ledger; "--baseline"; baseline;
           "--no-latency" |]
        Unix.stdin null null
    in
    Unix.close null;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | _ -> -1
  in
  Alcotest.(check int) "a matched run without drift passes" 0
    (drift ~ledger:base ~baseline:base);
  Alcotest.(check int) "every run unmatched fails" 1
    (drift ~ledger:fresh ~baseline:base);
  Alcotest.(check int) "a missing baseline is a load error" 2
    (drift ~ledger:base ~baseline:"no_such_baseline.jsonl")

let test_drift_latency_threshold () =
  let r = record_of small_prog in
  let slow = { r with Dt_report.Record.pair_ns = r.Dt_report.Record.pair_ns * 100 + 10_000_000 } in
  let counters, latency =
    Dt_report.Drift.diff ~latency_threshold:0.5 ~min_ns:10_000. ~baseline:r
      ~current:slow ()
  in
  Alcotest.(check int) "verdicts agree" 0 (List.length counters);
  Alcotest.(check bool) "latency breach detected" true (latency <> None);
  let _, quiet =
    Dt_report.Drift.diff ~check_latency:false ~baseline:r ~current:slow ()
  in
  Alcotest.(check bool) "--no-latency silences it" true (quiet = None)

(* ------------------------------------------------------------------ *)
(* prometheus exposition                                               *)

let prom_of_run () =
  let metrics = Dt_obs.Metrics.create () in
  let cfg = Deptest.Analyze.Config.make ~jobs:1 ~cache:true ~metrics () in
  List.iter
    (fun p -> ignore (Deptest.Analyze.run cfg p))
    (Dt_workloads.Corpus.programs
       (Dt_workloads.Corpus.find_exn ~suite:"linpack" ~name:"dgefa"));
  (metrics, Dt_obs.Metrics.to_prometheus metrics)

(* the daemon's whole scrape: the driver families plus the serve ones,
   after a cold, a repeated and a failing analyze *)
let prom_of_daemon () =
  let e = Dt_serve.Engine.create ~jobs:1 () in
  let source =
    (Dt_workloads.Corpus.find_exn ~suite:"linpack" ~name:"dgefa")
      .Dt_workloads.Corpus.source
  in
  List.iter
    (fun source ->
      ignore
        (Dt_serve.Engine.handle e
           (Dt_serve.Protocol.Analyze
              { source; id = None; trace_id = None; deadline_ms = None })))
    [ source; source; "      PROGRAM BAD\n      DO = = =\n" ];
  let answer =
    Dt_serve.Engine.handle e (Dt_serve.Protocol.Metrics { prometheus = true })
  in
  let pairs =
    match
      Dt_serve.Engine.handle e (Dt_serve.Protocol.Metrics { prometheus = false })
      |> Dt_obs.Json.member "metrics"
      |> Fun.flip Option.bind (Dt_obs.Json.member "pairs")
      |> Fun.flip Option.bind (Dt_obs.Json.member "tested")
    with
    | Some (Dt_obs.Json.Int n) -> n
    | _ -> Alcotest.fail "metrics answer has no pairs.tested"
  in
  match Dt_obs.Json.member "prometheus" answer with
  | Some (Dt_obs.Json.String text) -> (pairs, text)
  | _ -> Alcotest.fail "metrics --prom answer has no prometheus text"

let expositions () =
  let metrics, text = prom_of_run () in
  let daemon_pairs, daemon_text = prom_of_daemon () in
  [ ("one-shot", Dt_obs.Metrics.pairs metrics, text);
    ("daemon", daemon_pairs, daemon_text) ]

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let parse_sample line =
  (* name{labels} value | name value — returns (series-name, value). Label
     values never hold spaces, so a sample has exactly one *)
  match String.split_on_char ' ' line with
  | [ series; v ] ->
      let name =
        match String.index_opt series '{' with
        | Some i -> String.sub series 0 i
        | None -> series
      in
      Option.map (fun f -> (name, f)) (float_of_string_opt v)
  | _ -> None

let types_of ls =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "#"; "TYPE"; name; typ ] -> Some (name, typ)
      | _ -> None)
    ls

let lint what text =
  let ls = lines text in
  Alcotest.(check bool) (what ^ ": non-empty exposition") true
    (List.length ls > 20);
  (* every line is a comment or a parsable sample *)
  List.iter
    (fun l ->
      if String.length l > 0 && l.[0] <> '#' then
        match parse_sample l with
        | Some (name, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "metric name %S is deptest-prefixed" name)
              true
              (Astring_contains.contains name "deptest_")
        | None -> Alcotest.failf "%s: unparsable sample line: %s" what l)
    ls;
  (* TYPE declared exactly once per family *)
  let types = List.map fst (types_of ls) in
  Alcotest.(check int) (what ^ ": no duplicate TYPE declarations")
    (List.length types)
    (List.length (List.sort_uniq compare types));
  (* every sample's family has a TYPE *)
  List.iter
    (fun l ->
      if String.length l > 0 && l.[0] <> '#' then
        match parse_sample l with
        | Some (name, _) ->
            let family =
              List.find_opt
                (fun t ->
                  name = t
                  || name = t ^ "_bucket"
                  || name = t ^ "_sum"
                  || name = t ^ "_count")
                types
            in
            if family = None then
              Alcotest.failf "%s: sample %S has no TYPE" what name
        | None -> ())
    ls

let test_prometheus_lint () =
  List.iter (fun (what, _, text) -> lint what text) (expositions ())

let rec monotone = function
  | a :: (b :: _ as tl) -> a <= b && monotone tl
  | _ -> true

(* every histogram series (one per label set besides [le]) has
   cumulative buckets whose +Inf bucket equals its _count *)
let check_histograms what ls =
  let series_of l =
    (* the label set without [le], as "{a=...,le=...}" -> "a=..." *)
    match (String.index_opt l '{', String.index_opt l '}') with
    | Some i, Some j ->
        String.split_on_char ',' (String.sub l (i + 1) (j - i - 1))
        |> List.filter (fun kv -> not (String.starts_with ~prefix:"le=" kv))
        |> String.concat ","
    | _ -> ""
  in
  List.iter
    (fun (family, typ) ->
      if typ = "histogram" then begin
        let samples suffix =
          List.filter_map
            (fun l ->
              match parse_sample l with
              | Some (n, v) when n = family ^ suffix -> Some (series_of l, v)
              | _ -> None)
            ls
        in
        let buckets = samples "_bucket" and counts = samples "_count" in
        Alcotest.(check bool) (what ^ ": " ^ family ^ " has series") true
          (counts <> []);
        List.iter
          (fun (series, count) ->
            let bs =
              List.filter_map
                (fun (s, v) -> if s = series then Some v else None)
                buckets
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s{%s} buckets are monotone" what family
                 series)
              true (monotone bs);
            Alcotest.(check (float 0.0001))
              (Printf.sprintf "%s: %s{%s} +Inf bucket equals _count" what
                 family series)
              (List.nth bs (List.length bs - 1))
              count)
          counts
      end)
    (types_of ls)

let test_prometheus_histogram () =
  List.iter
    (fun (what, pairs, text) ->
      let ls = lines text in
      check_histograms what ls;
      let buckets =
        List.filter_map
          (fun l ->
            match parse_sample l with
            | Some ("deptest_pair_latency_ns_bucket", v) -> Some v
            | _ -> None)
          ls
      in
      Alcotest.(check int)
        (what ^ ": one bucket per bound plus +Inf")
        (Array.length Dt_obs.Metrics.bucket_bounds_ns + 1)
        (List.length buckets);
      let count =
        List.find_map
          (fun l ->
            match parse_sample l with
            | Some ("deptest_pair_latency_ns_count", v) -> Some v
            | _ -> None)
          ls
      in
      Alcotest.(check (option (float 0.0001)))
        (what ^ ": _count equals observed pairs")
        (Some (float_of_int pairs))
        count)
    (expositions ())

let test_prometheus_stable () =
  let metrics, text = prom_of_run () in
  Alcotest.(check string) "exposition is deterministic per registry" text
    (Dt_obs.Metrics.to_prometheus metrics)

(* ------------------------------------------------------------------ *)
(* artifact atomicity                                                  *)

let test_artifact_with_success () =
  let path = tmp_path "artifact.txt" in
  Dt_obs.Artifact.write_atomic_with path (fun oc ->
      output_string oc "hello ";
      output_string oc "world");
  let ic = open_in_bin path in
  let got = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "streamed content lands" "hello world" got;
  Alcotest.(check bool) "no temp file left" false
    (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

exception Boom

let test_artifact_with_failure () =
  let path = tmp_path "artifact-fail.txt" in
  Dt_obs.Artifact.write_atomic path "original";
  (match
     Dt_obs.Artifact.write_atomic_with path (fun oc ->
         output_string oc "partial garbage";
         raise Boom)
   with
  | () -> Alcotest.fail "exception was swallowed"
  | exception Boom -> ());
  Alcotest.(check bool) "temp file removed on failure" false
    (Sys.file_exists (path ^ ".tmp"));
  let ic = open_in_bin path in
  let got = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "target untouched on failure" "original" got;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* memo eviction counters                                              *)

let test_memo_eviction () =
  let t = Dt_engine.Memo.create ~capacity:2 () in
  Dt_engine.Memo.add t "a" 1;
  Dt_engine.Memo.add t "b" 2;
  Alcotest.(check int) "under capacity: nothing evicted" 0
    (Dt_engine.Memo.evictions t);
  Dt_engine.Memo.add t "c" 3;
  Alcotest.(check int) "over capacity: oldest evicted" 1
    (Dt_engine.Memo.evictions t);
  Alcotest.(check int) "resident entries bounded" 2 (Dt_engine.Memo.length t);
  Alcotest.(check (option int)) "FIFO victim was the oldest" None
    (Dt_engine.Memo.find_opt t "a");
  Alcotest.(check (option int)) "newest survives" (Some 3)
    (Dt_engine.Memo.find_opt t "c")

let test_cache_usage_in_metrics () =
  let metrics = Dt_obs.Metrics.create () in
  let cfg =
    Deptest.Analyze.Config.make ~jobs:1 ~cache:true ~cache_capacity:1 ~metrics
      ()
  in
  List.iter
    (fun p -> ignore (Deptest.Analyze.run cfg p))
    (Dt_workloads.Corpus.programs
       (Dt_workloads.Corpus.find_exn ~suite:"linpack" ~name:"dgefa"));
  (match Deptest.Analyze.Config.cache_usage cfg with
  | None -> Alcotest.fail "cache_usage missing on a cached config"
  | Some (size, evictions) ->
      Alcotest.(check bool) "capacity bounds residency" true (size <= 1);
      Alcotest.(check bool) "evictions counted" true (evictions > 0);
      Alcotest.(check int) "metrics snapshot agrees (size)" size
        (Dt_obs.Metrics.cache_size metrics);
      Alcotest.(check int) "metrics snapshot agrees (evictions)" evictions
        (Dt_obs.Metrics.cache_evictions metrics));
  match Dt_obs.Json.member "cache" (Dt_obs.Metrics.to_json metrics) with
  | Some cache ->
      Alcotest.(check bool) "cache block exports size" true
        (Dt_obs.Json.member "size" cache <> None);
      Alcotest.(check bool) "cache block exports evictions" true
        (Dt_obs.Json.member "evictions" cache <> None)
  | None -> Alcotest.fail "metrics JSON lost its cache block"

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "record JSON round-trip" `Quick test_record_roundtrip;
    Alcotest.test_case "record parser rejects bad input" `Quick
      test_record_rejects;
    Alcotest.test_case "fingerprint ignores jobs, honors label/source" `Quick
      test_fingerprint_ignores_jobs;
    Alcotest.test_case "ledger save/load round-trip" `Quick
      test_ledger_roundtrip;
    Alcotest.test_case "missing ledger is empty" `Quick
      test_ledger_missing_is_empty;
    Alcotest.test_case "ledger tolerates corrupt lines" `Quick
      test_ledger_corrupt_lines;
    Alcotest.test_case "append compacts per fingerprint" `Quick
      test_ledger_compaction;
    Alcotest.test_case "compaction window defaults and overrides" `Quick
      test_ledger_window_default;
    Alcotest.test_case "merge deduplicates" `Quick test_ledger_merge_idempotent;
    Alcotest.test_case "identical runs never drift" `Quick
      test_drift_identical_runs;
    qtest_drift_never_on_repeat;
    Alcotest.test_case "flipped verdicts drift and name the kind" `Quick
      test_drift_flipped_verdict;
    Alcotest.test_case "unmatched fingerprints are not drift" `Quick
      test_drift_unmatched_is_not_drift;
    Alcotest.test_case "drift CLI exit codes" `Quick test_drift_cli_exit_codes;
    Alcotest.test_case "latency drift thresholds" `Quick
      test_drift_latency_threshold;
    Alcotest.test_case "prometheus exposition parses cleanly" `Quick
      test_prometheus_lint;
    Alcotest.test_case "prometheus histogram is cumulative" `Quick
      test_prometheus_histogram;
    Alcotest.test_case "prometheus exposition is stable" `Quick
      test_prometheus_stable;
    Alcotest.test_case "write_atomic_with streams and fsyncs" `Quick
      test_artifact_with_success;
    Alcotest.test_case "write_atomic_with cleans up on exception" `Quick
      test_artifact_with_failure;
    Alcotest.test_case "memo eviction counters" `Quick test_memo_eviction;
    Alcotest.test_case "cache usage lands in metrics" `Quick
      test_cache_usage_in_metrics;
  ]
