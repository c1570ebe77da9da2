(* The timeline span layer (Dt_obs.Span/Timeline/Diff/Artifact): buffer
   balance and nesting, deterministic multi-domain merge, the two
   exporters, trace timestamps, engine metrics, and regression diffing. *)

open Helpers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

module Span = Dt_obs.Span
module Timeline = Dt_obs.Timeline

(* --- buffer mechanics --------------------------------------------------- *)

let test_balance_and_nesting () =
  let p = Span.profiler () in
  let b = Span.buffer p ~domain:0 in
  Span.with_ (Some b) Span.Analyze (fun () ->
      Span.with_ (Some b) Span.Partition (fun () -> ());
      Span.with_ (Some b) Span.Merge (fun () -> ()));
  let spans = Span.spans p in
  check int "three closed spans" 3 (Array.length spans);
  let root = spans.(0) in
  check bool "root is analyze" true (root.Span.kind = Span.Analyze);
  check int "root has no parent" (-1) root.Span.parent;
  Array.iteri
    (fun i s ->
      if i > 0 then begin
        check int "child of root" 0 s.Span.parent;
        check bool "child window inside parent" true
          (s.Span.t0_ns >= root.Span.t0_ns && s.Span.t1_ns <= root.Span.t1_ns)
      end;
      check bool "non-negative duration" true (Span.dur_ns s >= 0L))
    spans

let test_exception_drops_open_span () =
  let p = Span.profiler () in
  let b = Span.buffer p ~domain:0 in
  (try
     Span.with_ (Some b) Span.Analyze (fun () ->
         ignore (Span.enter b Span.Delta);
         (* Delta is left open on purpose *)
         raise Exit)
   with Exit -> ());
  Span.with_ (Some b) Span.Merge (fun () -> ());
  let spans = Span.spans p in
  (* the unclosed Delta is dropped; Analyze closed via Fun.protect *)
  check int "open span dropped" 2 (Array.length spans);
  check bool "analyze survived" true
    (Array.exists (fun s -> s.Span.kind = Span.Analyze) spans);
  check bool "delta dropped" true
    (not (Array.exists (fun s -> s.Span.kind = Span.Delta) spans))

let test_record_parents_under_open_span () =
  let p = Span.profiler () in
  let b = Span.buffer p ~domain:0 in
  Span.with_ (Some b) Span.Pair (fun () ->
      Span.record b (Span.Test Dt_obs.Test_kind.Ziv_test) ~t0_ns:1L ~t1_ns:5L);
  let spans = Span.spans p in
  check int "two spans" 2 (Array.length spans);
  let leaf = spans.(1) in
  check bool "leaf is the ziv test" true
    (leaf.Span.kind = Span.Test Dt_obs.Test_kind.Ziv_test);
  check int "parented under pair" 0 leaf.Span.parent;
  check bool "recorded window kept" true
    (leaf.Span.t0_ns = 1L && leaf.Span.t1_ns = 5L)

let test_merge_is_deterministic () =
  let fill p =
    let b0 = Span.buffer p ~domain:0 and b1 = Span.buffer p ~domain:1 in
    Span.with_ (Some b1) Span.Worker (fun () ->
        Span.with_ (Some b1) Span.Task (fun () -> ()));
    Span.with_ (Some b0) Span.Analyze (fun () -> ());
    Span.spans p
  in
  let a = fill (Span.profiler ()) and b = fill (Span.profiler ()) in
  check int "same span count" (Array.length a) (Array.length b);
  Array.iteri
    (fun i s ->
      check string "same kind order"
        (Span.kind_name s.Span.kind)
        (Span.kind_name b.(i).Span.kind);
      check int "same domain" s.Span.domain b.(i).Span.domain;
      check int "same parent" s.Span.parent b.(i).Span.parent)
    a;
  (* buffers merge in domain-id order regardless of creation order *)
  check int "domain 0 first" 0 a.(0).Span.domain

(* --- the analyzer under the profiler ------------------------------------ *)

let wavefront =
  parse
    {|
      PROGRAM WAVE
      DO 20 I = 2, 50
        DO 10 J = 2, 50
          A(I,J) = A(I-1,J) + A(I,J-1)
          B(I,J) = B(I-1,J-1) + A(I,J)
   10   CONTINUE
   20 CONTINUE
      END
|}

let render cfg =
  let r = Deptest.Analyze.run cfg wavefront in
  Format.asprintf "%a|%a"
    (Format.pp_print_list (fun ppf d ->
         Format.fprintf ppf "%a;" Deptest.Dep.pp d))
    r.Deptest.Analyze.deps Deptest.Counters.pp r.Deptest.Analyze.counters

let profiled_spans jobs =
  let p = Span.profiler ~gc:true () in
  let cfg =
    Deptest.Analyze.Config.make ~jobs ~cache:false ~profiler:p ()
  in
  (* bind in order: the profiler must be dumped after the run *)
  let out = render cfg in
  (out, Span.spans p)

(* the engine-scheduling kinds: which domain runs which chunk — and
   whether any range gets stolen at all — varies run to run *)
let scheduling = function
  | Span.Worker | Span.Task | Span.Queue_wait | Span.Steal | Span.Shard ->
      true
  | _ -> false

let kind_multiset spans =
  List.sort compare
    (List.filter_map
       (fun s ->
         if scheduling s.Span.kind then None else Some (Span.kind_name s.Span.kind))
       (Array.to_list spans))

let test_profiled_run_matches_bare () =
  let bare =
    render (Deptest.Analyze.Config.make ~jobs:1 ~cache:false ())
  in
  let out1, spans1 = profiled_spans 1 in
  let out2, spans2 = profiled_spans 2 in
  check string "verdicts unchanged by profiling (jobs=1)" bare out1;
  check string "verdicts unchanged by profiling (jobs=2)" bare out2;
  (* every reference pair becomes exactly one Pair span at any jobs *)
  let pairs spans =
    Array.fold_left
      (fun n s -> if s.Span.kind = Span.Pair then n + 1 else n)
      0 spans
  in
  let sites = Array.length (Deptest.Analyze.sites wavefront) in
  check int "one pair span per site (jobs=1)" sites (pairs spans1);
  check int "one pair span per site (jobs=2)" sites (pairs spans2);
  (* the semantic span population is schedule-invariant *)
  check bool "same non-scheduling kinds at jobs 1 and 2" true
    (kind_multiset spans1 = kind_multiset spans2)

let test_profiled_structure () =
  let _, spans = profiled_spans 2 in
  check bool "nonempty" true (Array.length spans > 0);
  (* parents close over their children and stay on the same domain *)
  Array.iter
    (fun s ->
      check bool "duration non-negative" true (Span.dur_ns s >= 0L);
      if s.Span.parent >= 0 then begin
        let p = spans.(s.Span.parent) in
        check int "child on parent's domain" p.Span.domain s.Span.domain;
        check bool "child window inside parent" true
          (s.Span.t0_ns >= p.Span.t0_ns && s.Span.t1_ns <= p.Span.t1_ns)
      end)
    spans;
  (* per-domain t0 is monotone in merge order *)
  let last = Hashtbl.create 4 in
  Array.iter
    (fun s ->
      (match Hashtbl.find_opt last s.Span.domain with
      | Some t -> check bool "per-domain begin times monotone" true (s.Span.t0_ns >= t)
      | None -> ());
      Hashtbl.replace last s.Span.domain s.Span.t0_ns)
    spans;
  check bool "both domains appear at jobs=2" true
    (Array.exists (fun s -> s.Span.domain = 1) spans)

let test_off_path_allocates_nothing () =
  (* warm up, then measure: with_ None must not allocate *)
  let f () = 42 in
  ignore (Span.with_ None Span.Analyze f);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Span.with_ None Span.Analyze f)
  done;
  let w1 = Gc.minor_words () in
  check bool "with_ None allocation-free" true (w1 -. w0 < 100.)

(* --- exporters ---------------------------------------------------------- *)

(* one profiled whole-corpus pass through the parallel engine (2 workers,
   cache off), so the exports cover many routines over several domains *)
let corpus_spans =
  lazy
    (let p = Span.profiler ~gc:true () in
     let cfg = Deptest.Analyze.Config.make ~jobs:2 ~cache:false ~profiler:p () in
     List.iter
       (fun e ->
         List.iter
           (fun prog -> ignore (Deptest.Analyze.run cfg prog))
           (Dt_workloads.Corpus.programs e))
       Dt_workloads.Corpus.all;
     Span.spans p)

let check_chrome_export (what, spans) =
  let check c name = check c (what ^ ": " ^ name) in
  let j = Timeline.to_chrome spans in
  (* the export must be valid JSON (round-trips through our parser) *)
  (match Dt_obs.Json.of_string (Dt_obs.Json.to_string j) with
  | Ok j' -> check bool "valid JSON" true (Dt_obs.Json.equal j j')
  | Error e -> Alcotest.fail ("chrome export is not valid JSON: " ^ e));
  let evs =
    match Option.bind (Dt_obs.Json.member "traceEvents" j) Dt_obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents"
  in
  let xs =
    List.filter
      (fun e ->
        match Dt_obs.Json.member "ph" e with
        | Some ph -> Dt_obs.Json.to_str ph = Some "X"
        | None -> false)
      evs
  in
  check int "one X event per span" (Array.length spans) (List.length xs);
  (* timestamps are non-negative and monotone per tid *)
  let last = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let tid =
        match Option.bind (Dt_obs.Json.member "tid" e) Dt_obs.Json.to_int with
        | Some t -> t
        | None -> Alcotest.fail "X event without tid"
      in
      let ts =
        match Dt_obs.Json.member "ts" e with
        | Some (Dt_obs.Json.Float f) -> f
        | Some (Dt_obs.Json.Int i) -> float_of_int i
        | _ -> Alcotest.fail "X event without ts"
      in
      check bool "ts non-negative" true (ts >= 0.0);
      check bool "dur non-negative" true
        (match Dt_obs.Json.member "dur" e with
        | Some (Dt_obs.Json.Float f) -> f >= 0.0
        | Some (Dt_obs.Json.Int i) -> i >= 0
        | _ -> false);
      check (Alcotest.option string) "category" (Some "deptest")
        (Option.bind (Dt_obs.Json.member "cat" e) Dt_obs.Json.to_str);
      (match Hashtbl.find_opt last tid with
      | Some prev -> check bool "ts monotone per tid" true (ts >= prev)
      | None -> ());
      Hashtbl.replace last tid ts)
    xs;
  (* one thread_name metadata row per domain *)
  let metas =
    List.filter
      (fun e ->
        match Dt_obs.Json.member "name" e with
        | Some n -> Dt_obs.Json.to_str n = Some "thread_name"
        | None -> false)
      evs
  in
  let domains =
    List.sort_uniq compare
      (List.map (fun s -> s.Span.domain) (Array.to_list spans))
  in
  check int "one thread row per domain" (List.length domains)
    (List.length metas)

let test_chrome_export () =
  List.iter check_chrome_export
    [ ("wavefront", snd (profiled_spans 2)); ("corpus", Lazy.force corpus_spans) ]

let check_folded_export (what, spans) =
  let check c name = check c (what ^ ": " ^ name) in
  let folded = Timeline.to_folded spans in
  check bool "nonempty" true (String.length folded > 0);
  (* every line is "stack count" with a positive count; total self time
     equals the root spans' total duration (self times partition it) *)
  let total = ref 0L in
  List.iter
    (fun line ->
      if line <> "" then begin
        let i = String.rindex line ' ' in
        let count = Int64.of_string (String.sub line (i + 1) (String.length line - i - 1)) in
        check bool "positive self time" true (count > 0L);
        check bool "stack starts at a domain frame" true
          (String.length line > 6 && String.sub line 0 6 = "domain");
        total := Int64.add !total count
      end)
    (String.split_on_char '\n' folded);
  let root_ns =
    Array.fold_left
      (fun acc s ->
        if s.Span.parent = -1 then Int64.add acc (Span.dur_ns s) else acc)
      0L spans
  in
  check bool "self times sum to the root durations" true (!total = root_ns)

let test_folded_export_roundtrip () =
  List.iter check_folded_export
    [ ("wavefront", snd (profiled_spans 1)); ("corpus", Lazy.force corpus_spans) ]

(* --- trace timestamps (deptest-trace/2) --------------------------------- *)

let test_trace_timestamps () =
  let sink = Dt_obs.Trace.make () in
  (* the most recent event before [scope] becomes the scope opener and
     receives the scope's duration when it closes *)
  Dt_obs.Trace.emit sink (Dt_obs.Trace.Note "opener");
  ignore
    (Dt_obs.Trace.scope sink (fun () ->
         Dt_obs.Trace.emit sink (Dt_obs.Trace.Note "inner");
         ()));
  let timed = Dt_obs.Trace.events_timed sink in
  check int "two events" 2 (List.length timed);
  let ts = List.map (fun (_, t, _) -> t) timed in
  check bool "timestamps monotone" true (List.sort compare ts = ts);
  (match timed with
  | [ (_, t_open, d_open); (_, t_inner, d_inner) ] ->
      check bool "opener carries the scope duration" true
        (Int64.add t_open d_open >= t_inner);
      check bool "inner note has no duration" true (d_inner = 0L)
  | _ -> Alcotest.fail "expected two events");
  (* the JSONL schema: seq, depth, type, ts_ns, dur_ns on every line *)
  let jsonl = Dt_obs.Trace.to_jsonl sink in
  List.iter
    (fun line ->
      if line <> "" then
        match Dt_obs.Json.of_string line with
        | Ok j ->
            List.iter
              (fun field ->
                check bool (field ^ " present") true
                  (Dt_obs.Json.member field j <> None))
              [ "seq"; "depth"; "type"; "ts_ns"; "dur_ns" ]
        | Error e -> Alcotest.fail ("bad JSONL line: " ^ e))
    (String.split_on_char '\n' jsonl);
  (* ts_ns is normalized to the first event *)
  match String.split_on_char '\n' jsonl with
  | first :: _ -> (
      match Dt_obs.Json.of_string first with
      | Ok j ->
          check bool "first ts_ns is 0" true
            (Option.bind (Dt_obs.Json.member "ts_ns" j) Dt_obs.Json.to_int
            = Some 0)
      | Error _ -> Alcotest.fail "unparsable first line")
  | [] -> Alcotest.fail "empty JSONL"

(* --- engine metrics ----------------------------------------------------- *)

let test_engine_metrics_block () =
  let metrics = Dt_obs.Metrics.create () in
  let cfg =
    Deptest.Analyze.Config.make ~jobs:2 ~cache:false ~metrics ()
  in
  ignore (Deptest.Analyze.run cfg wavefront);
  check int "two worker registries merged" 2
    (Dt_obs.Metrics.engine_registries metrics);
  let rows = Dt_obs.Metrics.engine_rows metrics in
  check int "two domains" 2 (List.length rows);
  let total_tasks =
    List.fold_left (fun n (_, tasks, _, _, _) -> n + tasks) 0 rows
  in
  check bool "tasks were accounted" true (total_tasks > 0);
  (* the engine block lands in the JSON snapshot *)
  let j = Dt_obs.Metrics.to_json metrics in
  match Dt_obs.Json.member "engine" j with
  | None -> Alcotest.fail "no engine block in metrics JSON"
  | Some e ->
      check bool "registries in JSON" true
        (Option.bind (Dt_obs.Json.member "registries" e) Dt_obs.Json.to_int
        = Some 2)

let test_engine_metrics_merge () =
  let mk tasks ns =
    let m = Dt_obs.Metrics.create () in
    Dt_obs.Metrics.engine_registry m;
    for _ = 1 to tasks do
      Dt_obs.Metrics.engine_task m ~domain:0 ~ns
    done;
    Dt_obs.Metrics.engine_wait m ~domain:1 ~ns;
    m
  in
  let merged_ab = Dt_obs.Metrics.create ()
  and merged_ba = Dt_obs.Metrics.create () in
  Dt_obs.Metrics.merge_into merged_ab (mk 2 10L);
  Dt_obs.Metrics.merge_into merged_ab (mk 3 20L);
  Dt_obs.Metrics.merge_into merged_ba (mk 3 20L);
  Dt_obs.Metrics.merge_into merged_ba (mk 2 10L);
  check bool "merge commutative on the engine block" true
    (Dt_obs.Metrics.engine_rows merged_ab
    = Dt_obs.Metrics.engine_rows merged_ba);
  check int "registries sum" 2 (Dt_obs.Metrics.engine_registries merged_ab)

(* --- regression diffing ------------------------------------------------- *)

let snapshot tests pairs_ns =
  Dt_obs.Json.Obj
    [
      ("schema", Dt_obs.Json.String "deptest-metrics/1");
      ( "tests",
        Dt_obs.Json.List
          (List.map
             (fun (slug, applied, ns) ->
               Dt_obs.Json.Obj
                 [
                   ("kind", Dt_obs.Json.String slug);
                   ("applied", Dt_obs.Json.Int applied);
                   ("independent", Dt_obs.Json.Int 0);
                   ("total_ns", Dt_obs.Json.Int ns);
                 ])
             tests) );
      ( "phases",
        Dt_obs.Json.Obj [ ("test_ns", Dt_obs.Json.Int 1000) ] );
      ( "pairs",
        Dt_obs.Json.Obj
          [
            ("count", Dt_obs.Json.Int 4);
            ("total_ns", Dt_obs.Json.Int pairs_ns);
          ] );
    ]

let test_diff_clean_and_breach () =
  let base = snapshot [ ("ziv", 5, 100_000) ] 200_000 in
  (match Dt_obs.Diff.compare_json ~base ~cur:base () with
  | Ok r ->
      check bool "identical snapshots: no breach" false
        (Dt_obs.Diff.has_breach r)
  | Error e -> Alcotest.fail e);
  (* +50% and +50us on one row: past both thresholds *)
  let cur = snapshot [ ("ziv", 5, 150_000) ] 200_000 in
  (match Dt_obs.Diff.compare_json ~base ~cur () with
  | Ok r ->
      check bool "50% growth breaches" true (Dt_obs.Diff.has_breach r);
      let row =
        List.find (fun r -> r.Dt_obs.Diff.label = "test:ziv") r.Dt_obs.Diff.rows
      in
      check bool "the ziv row is flagged" true row.Dt_obs.Diff.breach
  | Error e -> Alcotest.fail e);
  (* large relative but tiny absolute growth: damped by min_ns *)
  let base_small = snapshot [ ("ziv", 5, 1_000) ] 200_000 in
  let cur_small = snapshot [ ("ziv", 5, 3_000) ] 200_000 in
  match Dt_obs.Diff.compare_json ~base:base_small ~cur:cur_small () with
  | Ok r -> check bool "jitter damped by min_ns" false (Dt_obs.Diff.has_breach r)
  | Error e -> Alcotest.fail e

let test_diff_schema_mismatch () =
  let bogus = Dt_obs.Json.Obj [ ("schema", Dt_obs.Json.String "nonsense/9") ] in
  match
    Dt_obs.Diff.compare_json ~base:bogus ~cur:(snapshot [] 0) ()
  with
  | Ok _ -> Alcotest.fail "schema mismatch must be an error"
  | Error _ -> ()

let test_diff_real_snapshots () =
  (* two real metrics snapshots from the analyzer compare cleanly *)
  let snap () =
    let metrics = Dt_obs.Metrics.create () in
    let cfg = Deptest.Analyze.Config.make ~jobs:1 ~cache:false ~metrics () in
    ignore (Deptest.Analyze.run cfg wavefront);
    Dt_obs.Metrics.to_json metrics
  in
  match Dt_obs.Diff.compare_json ~threshold:1e9 ~base:(snap ()) ~cur:(snap ()) () with
  | Ok r ->
      check bool "real snapshots diff without breach at a huge threshold"
        false
        (Dt_obs.Diff.has_breach r);
      check bool "rows extracted" true (r.Dt_obs.Diff.rows <> [])
  | Error e -> Alcotest.fail e

(* --- atomic artifact writes --------------------------------------------- *)

let test_atomic_write () =
  let path = Filename.temp_file "dt_span" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Dt_obs.Artifact.write_atomic path "first\n";
      Dt_obs.Artifact.write_atomic path "second\n";
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check string "atomic write replaces the file" "second\n" s;
      check bool "no temp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

let suite =
  [
    Alcotest.test_case "balance and nesting" `Quick test_balance_and_nesting;
    Alcotest.test_case "exception drops open span" `Quick
      test_exception_drops_open_span;
    Alcotest.test_case "record parents under open span" `Quick
      test_record_parents_under_open_span;
    Alcotest.test_case "merge deterministic" `Quick test_merge_is_deterministic;
    Alcotest.test_case "profiled run matches bare" `Quick
      test_profiled_run_matches_bare;
    Alcotest.test_case "profiled structure" `Quick test_profiled_structure;
    Alcotest.test_case "off path allocates nothing" `Quick
      test_off_path_allocates_nothing;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
    Alcotest.test_case "folded export round-trip" `Quick
      test_folded_export_roundtrip;
    Alcotest.test_case "trace timestamps" `Quick test_trace_timestamps;
    Alcotest.test_case "engine metrics block" `Quick test_engine_metrics_block;
    Alcotest.test_case "engine metrics merge" `Quick test_engine_metrics_merge;
    Alcotest.test_case "diff clean and breach" `Quick test_diff_clean_and_breach;
    Alcotest.test_case "diff schema mismatch" `Quick test_diff_schema_mismatch;
    Alcotest.test_case "diff real snapshots" `Quick test_diff_real_snapshots;
    Alcotest.test_case "atomic write" `Quick test_atomic_write;
  ]
