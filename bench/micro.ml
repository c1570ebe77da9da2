(* The paper's evaluation tables and the dependence-test timings.

   `dune exec bench/micro.exe` prints every table and figure of the
   paper's evaluation over the embedded corpus (Tables 1-4, the Figure 2
   geometry, the class-distribution histogram), then times the
   dependence tests with bechamel:

   - per-test microbenchmarks (ZIV, each SIV shape, RDIV, GCD, Banerjee,
     Delta) back the paper's efficiency claim that the special-case exact
     tests are cheap;
   - strategy benchmarks (partition-based vs subscript-by-subscript vs the
     Power test) reproduce the shape of the paper's §7 comparison: the
     Fourier-Motzkin-based exact test costs over an order of magnitude
     more than the practical suite (Triolet's 22-28x);
   - a whole-corpus analysis benchmark measures end-to-end throughput.

   It takes no arguments and writes no file. The timing gates live in
   bench/main.ml; the end-to-end benchmark is bench/e2e. *)

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
     cascade; the engine axes are bench/main.ml's jobs gate *)
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
  print_string (Dt_stats.Figures.class_histogram agg.Dt_stats.Profile.classes)

(* ------------------------------------------------------------------ *)

let is_infix ~affix s =
  let na = String.length affix and ns = String.length s in
  let rec go i = i + na <= ns && (String.sub s i na = affix || go (i + 1)) in
  na = 0 || go 0

let () =
  print_tables ();
  let _ = run_suite ~name:"per-test microbenchmarks (Tables 2-3 tests)" micro_tests in
  let strat = run_suite ~name:"strategy comparison (Table 4 / Triolet 22-28x)" strategy_tests in
  let _ = run_suite ~name:"Delta linearity in group size (section 5.4)" delta_scaling_tests in
  let _ = run_suite ~name:"whole-corpus analysis (Tables 1-3 workload)" corpus_tests in
  let _ = run_suite ~name:"frontend" frontend_tests in
  (* headline ratios: Power/FM vs the partition-based driver *)
  let ratio ~pair ~than fast slow =
    let find needle =
      List.find_opt (fun (k, _) -> is_infix ~affix:needle k) strat
    in
    match (find fast, find slow) with
    | Some (_, fast), Some (_, slow) when fast > 0.0 ->
        Printf.printf
          "%s exact multiple-subscript (FM) is %.1fx slower than %s\n" pair
          (slow /. fast) than
    | _ -> ()
  in
  print_newline ();
  ratio ~pair:"separable pair:" ~than:"the practical suite"
    "separable-partition-based" "separable-power-test-fm";
  ratio ~pair:"coupled pair:  " ~than:"the Delta test" "coupled-partition-based"
    "coupled-power-test-fm"
