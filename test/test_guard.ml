(* Dt_guard: overflow-checked arithmetic, fault containment, budgets,
   and deterministic fault injection.

   The oracle for the checked operations is split-word reference
   arithmetic — Int64 for sums (63+63-bit sums always fit), a
   sign-magnitude base-2^16 limb schoolbook product for multiplication —
   so the tests never rely on the very wrap-around behavior under test.
   The driver-level tests check the degradation contract: a fault never
   escapes [Pair_test.test], never produces a false independence, and is
   always recorded (meta, metrics guard block). *)

open Dt_ir
open Helpers
module Ops = Dt_guard.Ops
module Inject = Dt_guard.Inject

(* --- split-word oracles ------------------------------------------------ *)

let fits64 v = v >= Int64.of_int min_int && v <= Int64.of_int max_int

let oracle_add a b =
  let s = Int64.add (Int64.of_int a) (Int64.of_int b) in
  if fits64 s then Some (Int64.to_int s) else None

let oracle_sub a b =
  let s = Int64.sub (Int64.of_int a) (Int64.of_int b) in
  if fits64 s then Some (Int64.to_int s) else None

(* |a * b| via base-2^16 limbs: magnitudes (|min_int| = 2^62 included)
   are 4 limbs; the 8-limb schoolbook product is compared
   lexicographically against the limbs of the allowed magnitude
   (max_int, or 2^62 when the result is negative). Partial products and
   carries stay far below native-int range. *)
let oracle_mul a b =
  if a = 0 || b = 0 then Some 0
  else begin
    let negative = a < 0 <> (b < 0) in
    let ma = Int64.abs (Int64.of_int a) and mb = Int64.abs (Int64.of_int b) in
    let limbs m =
      Array.init 4 (fun k ->
          Int64.to_int
            (Int64.logand (Int64.shift_right_logical m (16 * k)) 0xFFFFL))
    in
    let la = limbs ma and lb = limbs mb in
    let prod = Array.make 8 0 in
    for i = 0 to 3 do
      for j = 0 to 3 do
        prod.(i + j) <- prod.(i + j) + (la.(i) * lb.(j))
      done
    done;
    let carry = ref 0 in
    for k = 0 to 7 do
      let v = prod.(k) + !carry in
      prod.(k) <- v land 0xFFFF;
      carry := v lsr 16
    done;
    assert (!carry = 0);
    let bound = if negative then Int64.neg (Int64.of_int min_int) else Int64.of_int max_int in
    let bl =
      Array.init 8 (fun k ->
          if k < 4 then
            Int64.to_int
              (Int64.logand (Int64.shift_right_logical bound (16 * k)) 0xFFFFL)
          else 0)
    in
    let rec cmp k =
      if k < 0 then 0
      else if prod.(k) <> bl.(k) then compare prod.(k) bl.(k)
      else cmp (k - 1)
    in
    if cmp 7 > 0 then None
    else
      (* the magnitude fits in 62 bits, so Int64 reconstruction is exact *)
      let m = Int64.mul ma mb in
      Some (Int64.to_int (if negative then Int64.neg m else m))
  end

(* --- checked ops: edge cases ------------------------------------------- *)

let raises_overflow f = match f () with _ -> false | exception Ops.Overflow -> true

let test_ops_edges () =
  Alcotest.(check int) "add exact" max_int (Ops.add max_int 0);
  Alcotest.(check int) "add mixed" (max_int - 1) (Ops.add max_int (-1));
  Alcotest.(check bool) "max_int+1" true (raises_overflow (fun () -> Ops.add max_int 1));
  Alcotest.(check bool) "min_int-1" true (raises_overflow (fun () -> Ops.add min_int (-1)));
  Alcotest.(check int) "sub exact" 0 (Ops.sub max_int max_int);
  Alcotest.(check bool) "min_int-1 via sub" true (raises_overflow (fun () -> Ops.sub min_int 1));
  Alcotest.(check bool) "0-min_int" true (raises_overflow (fun () -> Ops.sub 0 min_int));
  Alcotest.(check int) "neg" (-5) (Ops.neg 5);
  Alcotest.(check bool) "neg min_int" true (raises_overflow (fun () -> Ops.neg min_int));
  Alcotest.(check int) "mul by 0" 0 (Ops.mul min_int 0);
  Alcotest.(check int) "mul by 1" min_int (Ops.mul min_int 1);
  Alcotest.(check int) "mul by -1" (-max_int) (Ops.mul max_int (-1));
  Alcotest.(check bool) "min_int * -1" true (raises_overflow (fun () -> Ops.mul min_int (-1)));
  Alcotest.(check bool) "-1 * min_int" true (raises_overflow (fun () -> Ops.mul (-1) min_int));
  Alcotest.(check bool) "max_int * 2" true (raises_overflow (fun () -> Ops.mul max_int 2));
  Alcotest.(check int) "halves multiply" (max_int - 1) (Ops.mul ((max_int - 1) / 2) 2);
  Alcotest.(check int) "sum ok" 6 (Ops.sum [ 1; 2; 3 ]);
  Alcotest.(check bool) "sum overflows" true
    (raises_overflow (fun () -> Ops.sum [ max_int; 1; -2 ]));
  Alcotest.(check int) "sum_array ok" 0 (Ops.sum_array [| max_int; -max_int |]);
  Alcotest.(check (option int)) "add_opt none" None (Ops.add_opt max_int max_int);
  Alcotest.(check (option int)) "mul_opt some" (Some 42) (Ops.mul_opt 6 7)

(* --- checked ops vs the split-word oracle ------------------------------ *)

(* ints concentrated near the overflow frontier: the interesting cases
   all live within a few thousand of max_int / min_int or around square
   roots of the range. *)
let extreme_int_gen st =
  match Random.State.int st 6 with
  | 0 -> max_int - Random.State.int st 4096
  | 1 -> min_int + Random.State.int st 4096
  | 2 -> Random.State.int st 8192 - 4096
  | 3 ->
      (* near sqrt(max_int): products straddle the frontier *)
      let r = 3037000499 (* floor(sqrt(2^63)) *) in
      (if Random.State.bool st then 1 else -1)
      * (r + Random.State.int st 64 - 32)
  | 4 -> Random.State.full_int st max_int
  | _ -> -Random.State.full_int st max_int - 1

let extreme_pair =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
    (fun st -> (extreme_int_gen st, extreme_int_gen st))

let prop_add_oracle =
  qtest ~count:500 "checked add/sub agree with the Int64 oracle" extreme_pair
    (fun (a, b) ->
      Ops.add_opt a b = oracle_add a b
      && (match Ops.sub a b with
         | v -> Some v = oracle_sub a b
         | exception Ops.Overflow -> oracle_sub a b = None))

let prop_mul_oracle =
  qtest ~count:500 "checked mul agrees with the limb-schoolbook oracle"
    extreme_pair (fun (a, b) ->
      Ops.mul_opt a b = oracle_mul a b
      && Ops.mul_opt b a = oracle_mul a b)

(* --- interval bounds: total, positionally widening --------------------- *)

let bound_t =
  Alcotest.testable Dt_support.Interval.pp_bound (fun a b -> a = b)

let test_bound_add_widening () =
  let open Dt_support.Interval in
  Alcotest.check bound_t "lo: oo + -oo widens down" Neg_inf
    (bound_add_lo Neg_inf Pos_inf);
  Alcotest.check bound_t "hi: oo + -oo widens up" Pos_inf
    (bound_add_hi Pos_inf Neg_inf);
  Alcotest.check bound_t "legacy alias = hi" Pos_inf
    (bound_add Neg_inf Pos_inf);
  Alcotest.check bound_t "lo: finite overflow widens down" Neg_inf
    (bound_add_lo (Fin max_int) (Fin max_int));
  Alcotest.check bound_t "hi: finite overflow widens up" Pos_inf
    (bound_add_hi (Fin max_int) (Fin max_int));
  Alcotest.check bound_t "lo: negative overflow widens down" Neg_inf
    (bound_add_lo (Fin min_int) (Fin (-1)));
  Alcotest.check bound_t "exact finite sum" (Fin 5) (bound_add_lo (Fin 2) (Fin 3));
  Alcotest.check bound_t "inf absorbs finite" Pos_inf
    (bound_add_hi (Fin 7) Pos_inf)

(* --- pool containment -------------------------------------------------- *)

let pool_containment ~jobs () =
  let n = 32 in
  let results = Array.make n 0 in
  let failed = ref [] in
  let on_error (_w : int) i e =
    failed := (i, Printexc.to_string e) :: !failed;
    results.(i) <- -1
  in
  let body _w i =
    if i = 13 then failwith "boom";
    results.(i) <- i * 2
  in
  let _ =
    Dt_support.Pool.run
      (Dt_support.Pool.create ~jobs
         ~hooks:(Dt_support.Pool.hooks ~on_error ())
         ())
      ~n ~state:(fun w -> w) ~body
  in
  Alcotest.(check int) "exactly one failure" 1 (List.length !failed);
  Alcotest.(check int) "failing index captured" 13 (fst (List.hd !failed));
  Array.iteri
    (fun i v ->
      if i = 13 then Alcotest.(check int) "slot filled by handler" (-1) v
      else Alcotest.(check int) (Printf.sprintf "task %d completed" i) (i * 2) v)
    results

let test_pool_containment_seq () = pool_containment ~jobs:1 ()
let test_pool_containment_par () = pool_containment ~jobs:4 ()

let test_pool_strict_raises () =
  let raised =
    match
      Dt_support.Pool.run
        (Dt_support.Pool.create ~jobs:1 ())
        ~n:4 ~state:(fun w -> w)
        ~body:(fun _ i -> if i = 2 then failwith "boom")
    with
    | _ -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "without on_error the pool re-raises" true raised

(* --- driver degradation ------------------------------------------------ *)

let huge_siv_pair () =
  (* subscript difference (and SIV distance) overflows: c2 - c1 is far
     outside native range *)
  let w = Aref.linear "A" [ av ~c:(max_int - 1) i0 ] in
  let r = Aref.linear "A" [ av ~c:(min_int + 2) i0 ] in
  (w, r, loops1 ())

let miv_pair () =
  let w = Aref.linear "A" [ Affine.add (av i0) (av j1) ] in
  let r = Aref.linear "A" [ Affine.add_const (-1) (Affine.add (av i0) (av j1)) ] in
  (w, r, loops2 ())

let is_dependent = function `Dependent _ -> true | `Independent -> false

let full_dirvecs n = function
  | `Independent -> false
  | `Dependent { Deptest.Pair_test.dirvecs; _ } ->
      dirvecs = [ Deptest.Dirvec.full n ]

let test_overflow_degrades () =
  let w, r, loops = huge_siv_pair () in
  let m = Dt_obs.Metrics.create () in
  let res =
    Deptest.Pair_test.test ~metrics:m ~src:(w, loops) ~snk:(r, loops) ()
  in
  Alcotest.(check bool) "degraded with Overflow" true
    (res.Deptest.Pair_test.meta.Deptest.Pair_test.degraded
    = Some Dt_guard.Degrade.Overflow);
  Alcotest.(check bool) "verdict is conservative dependence" true
    (full_dirvecs 1 res.Deptest.Pair_test.result);
  Alcotest.(check int) "metrics guard: one degraded pair" 1
    (Dt_obs.Metrics.degraded_pairs m);
  Alcotest.(check int) "metrics guard: bucketed as overflow" 1
    (Dt_obs.Metrics.degraded_by m `Overflow)

let test_budget_degrades () =
  let w, r, loops = miv_pair () in
  let res =
    Deptest.Pair_test.test
      ~budget:(Dt_guard.Budget.make 0)
      ~src:(w, loops) ~snk:(r, loops) ()
  in
  Alcotest.(check bool) "degraded with Budget" true
    (res.Deptest.Pair_test.meta.Deptest.Pair_test.degraded
    = Some Dt_guard.Degrade.Budget);
  Alcotest.(check bool) "verdict is conservative dependence" true
    (full_dirvecs 2 res.Deptest.Pair_test.result);
  (* with fuel to spare, the same pair tests exactly *)
  let res' =
    Deptest.Pair_test.test
      ~budget:(Dt_guard.Budget.make 1_000_000)
      ~src:(w, loops) ~snk:(r, loops) ()
  in
  Alcotest.(check bool) "ample budget: not degraded" true
    (res'.Deptest.Pair_test.meta.Deptest.Pair_test.degraded = None);
  Alcotest.(check bool) "ample budget: dependent" true
    (is_dependent res'.Deptest.Pair_test.result)

let wave_prog =
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

let test_deadline_degrades () =
  let m = Dt_obs.Metrics.create () in
  let cfg = Deptest.Analyze.Config.make ~deadline_ms:0 ~cache:false ~metrics:m () in
  let res = Deptest.Analyze.run cfg wave_prog in
  Alcotest.(check bool) "pairs were enumerated" true (res.Deptest.Analyze.pairs <> []);
  List.iter
    (fun (p : Deptest.Analyze.pair_record) ->
      Alcotest.(check bool) "every pair degraded by the deadline" true
        (p.meta.Deptest.Pair_test.degraded = Some Dt_guard.Degrade.Budget);
      Alcotest.(check bool) "no false independence" false p.independent)
    res.Deptest.Analyze.pairs;
  Alcotest.(check int) "metrics guard counts them all"
    (List.length res.Deptest.Analyze.pairs)
    (Dt_obs.Metrics.degraded_by m `Budget);
  (* no deadline: same program analyzes cleanly *)
  let res' = Deptest.Analyze.run (Deptest.Analyze.Config.make ~cache:false ()) wave_prog in
  List.iter
    (fun (p : Deptest.Analyze.pair_record) ->
      Alcotest.(check bool) "clean run: nothing degraded" true
        (p.meta.Deptest.Pair_test.degraded = None))
    res'.Deptest.Analyze.pairs

(* --- fault injection coverage ------------------------------------------ *)

(* one driver invocation per site family; each returns a [Pair_test.t],
   so an escape would surface as an uncaught exception here *)
let battery () =
  let strong_siv () =
    let w = Aref.linear "A" [ av ~c:1 i0 ] and r = Aref.linear "A" [ av i0 ] in
    Deptest.Pair_test.test ~src:(w, loops1 ()) ~snk:(r, loops1 ()) ()
  in
  let general_siv () =
    let w = Aref.linear "A" [ av ~k:2 ~c:1 i0 ]
    and r = Aref.linear "A" [ av ~k:3 i0 ] in
    Deptest.Pair_test.test ~src:(w, loops1 ()) ~snk:(r, loops1 ()) ()
  in
  let rdiv () =
    let w = Aref.linear "A" [ av i0 ] and r = Aref.linear "A" [ av j1 ] in
    Deptest.Pair_test.test ~src:(w, loops2 ()) ~snk:(r, loops2 ()) ()
  in
  let miv () =
    let w, r, loops = miv_pair () in
    Deptest.Pair_test.test ~src:(w, loops) ~snk:(r, loops) ()
  in
  [ strong_siv (); general_siv (); rdiv (); miv () ]

let driver_sites =
  [ "pair.test"; "siv.test"; "rdiv.test"; "dio.solve"; "banerjee.node";
    "linform.corner" ]

let test_injection_sites_contained () =
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "site %s is registered" site)
        true
        (List.mem site (Inject.site_names ()));
      Fun.protect ~finally:Inject.disable (fun () ->
          Inject.enable ~period:1 ~only:site [ Inject.Exception ];
          let results = battery () in
          Alcotest.(check bool)
            (Printf.sprintf "site %s fired" site)
            true
            (Inject.injected_count () > 0);
          (* the injected fault must have degraded some pair, never
             produced an independence out of thin air *)
          let degraded =
            List.filter
              (fun (r : Deptest.Pair_test.t) ->
                r.meta.Deptest.Pair_test.degraded <> None)
              results
          in
          Alcotest.(check bool)
            (Printf.sprintf "site %s: some pair degraded" site)
            true (degraded <> []);
          List.iter
            (fun (r : Deptest.Pair_test.t) ->
              Alcotest.(check bool) "degraded pairs report dependence" true
                (is_dependent r.Deptest.Pair_test.result))
            degraded))
    driver_sites;
  (* the same contract over the whole corpus: a clean pass degrades
     nothing, and every-7th-hit overflow and exception injection
     degrades some pairs *)
  let corpus_degraded () =
    let m = Dt_obs.Metrics.create () in
    let cfg = Deptest.Analyze.Config.make ~jobs:1 ~cache:false ~metrics:m () in
    List.iter
      (fun e ->
        List.iter
          (fun p -> ignore (Deptest.Analyze.run cfg p))
          (Dt_workloads.Corpus.programs e))
      Dt_workloads.Corpus.all;
    Dt_obs.Metrics.degraded_pairs m
  in
  Alcotest.(check int) "clean corpus pass: nothing degraded" 0
    (corpus_degraded ());
  let injected =
    Fun.protect ~finally:Inject.disable (fun () ->
        Inject.enable ~period:7 [ Inject.Overflow; Inject.Exception ];
        corpus_degraded ())
  in
  Alcotest.(check bool) "injected corpus pass: some pairs degraded" true
    (injected > 0)

let test_injection_outside_driver () =
  (* a site hit outside the driver's containment (a direct utility call)
     propagates [Injected] to the caller — containment is a driver
     policy, not a global [with] handler *)
  Fun.protect ~finally:Inject.disable (fun () ->
      Inject.enable ~period:1 ~only:"iter_space.size" [ Inject.Exception ];
      let raised =
        match
          Iter_space.size ~loops:(loops1 ()) ~sym_env:(fun _ -> raise Not_found)
        with
        | _ -> false
        | exception Inject.Injected site -> site = "iter_space.size"
      in
      Alcotest.(check bool) "direct call raises Injected" true raised)

let test_injection_overflow_kind () =
  Fun.protect ~finally:Inject.disable (fun () ->
      Inject.enable ~period:1 [ Inject.Overflow ];
      let w = Aref.linear "A" [ av ~c:1 i0 ] and r = Aref.linear "A" [ av i0 ] in
      let res = Deptest.Pair_test.test ~src:(w, loops1 ()) ~snk:(r, loops1 ()) () in
      Alcotest.(check bool) "injected overflow degrades as Overflow" true
        (res.Deptest.Pair_test.meta.Deptest.Pair_test.degraded
        = Some Dt_guard.Degrade.Overflow))

let gen_pair =
  QCheck.make
    ~print:(fun (a, b, loops) ->
      Format.asprintf "%a vs %a under %a" Aref.pp a Aref.pp b
        (Format.pp_print_list Loop.pp)
        loops)
    (QCheck.Gen.map
       (fun seed ->
         let st = Random.State.make [| seed |] in
         Dt_workloads.Generator.ref_pair st Dt_workloads.Generator.default)
       QCheck.Gen.int)

let prop_injection_sound =
  qtest ~count:300
    "injected faults never turn a dependence into an independence" gen_pair
    (fun (src, snk, loops) ->
      let clean =
        Deptest.Pair_test.test ~src:(src, loops) ~snk:(snk, loops) ()
      in
      let injected =
        Fun.protect ~finally:Inject.disable (fun () ->
            Inject.enable ~period:3 [ Inject.Exception; Inject.Overflow ];
            Deptest.Pair_test.test ~src:(src, loops) ~snk:(snk, loops) ())
      in
      match injected.Deptest.Pair_test.result with
      | `Independent ->
          (* independence under injection is only ever the clean verdict *)
          not (is_dependent clean.Deptest.Pair_test.result)
      | `Dependent _ -> true)

(* --- huge-coefficient nests vs an exact Int64 oracle -------------------- *)

(* A(a*I + c1) written, A(a*I + c2) read over I in [1, hi]: dependence
   iff a | (c2 - c1) and |(c2 - c1) / a| <= hi - 1 — computed exactly in
   Int64 (c1, c2 are native ints, so the difference always fits). *)
let huge_siv_case =
  QCheck.make
    ~print:(fun (a, c1, c2, hi) -> Printf.sprintf "a=%d c1=%d c2=%d hi=%d" a c1 c2 hi)
    (fun st ->
      let a = 1 + Random.State.int st 4 in
      let big b = if b then extreme_int_gen st else Random.State.int st 20 - 10 in
      ( a,
        big (Random.State.bool st),
        big (Random.State.bool st),
        1 + Random.State.int st 50 ))

let prop_huge_constants_conservative =
  qtest ~count:400
    "guarded verdicts are a superset of the exact Int64 oracle on huge nests"
    huge_siv_case (fun (a, c1, c2, hi) ->
      let w = Aref.linear "A" [ av ~k:a ~c:c1 i0 ] in
      let r = Aref.linear "A" [ av ~k:a ~c:c2 i0 ] in
      let loops = loops1 ~hi () in
      let res = Deptest.Pair_test.test ~src:(w, loops) ~snk:(r, loops) () in
      let delta = Int64.sub (Int64.of_int c2) (Int64.of_int c1) in
      let a64 = Int64.of_int a in
      let dependent_oracle =
        Int64.rem delta a64 = 0L
        && Int64.abs (Int64.div delta a64) <= Int64.of_int (hi - 1)
      in
      match res.Deptest.Pair_test.result with
      | `Independent ->
          (* claiming independence is only sound when the oracle agrees,
             and never allowed on a degraded pair *)
          (not dependent_oracle)
          && res.Deptest.Pair_test.meta.Deptest.Pair_test.degraded = None
      | `Dependent _ -> true)

(* every containment point (partition, pair, whole driver, engine pool)
   names a contained exception through one mapping *)
let test_degrade_of_exn () =
  let reason =
    Alcotest.testable Dt_guard.Degrade.pp Dt_guard.Degrade.equal
  in
  List.iter
    (fun (name, e, want) ->
      Alcotest.check reason name want (Dt_guard.Degrade.of_exn e))
    [
      ("overflow", Ops.Overflow, Dt_guard.Degrade.Overflow);
      ("budget", Dt_guard.Budget.Exhausted, Dt_guard.Degrade.Budget);
      ( "injected fault",
        Inject.Injected "pair.test",
        Dt_guard.Degrade.Exception "injected fault at pair.test" );
      ( "stack overflow",
        Stack_overflow,
        Dt_guard.Degrade.Exception "Stack_overflow" );
      ( "any other exception",
        Failure "boom",
        Dt_guard.Degrade.Exception (Printexc.to_string (Failure "boom")) );
    ]

let suite =
  [
    Alcotest.test_case "ops: edge cases at the int frontier" `Quick test_ops_edges;
    prop_add_oracle;
    prop_mul_oracle;
    Alcotest.test_case "interval: bound sums widen positionally" `Quick
      test_bound_add_widening;
    Alcotest.test_case "pool: contained task failure (sequential)" `Quick
      test_pool_containment_seq;
    Alcotest.test_case "pool: contained task failure (4 workers)" `Quick
      test_pool_containment_par;
    Alcotest.test_case "pool: legacy fail-whole-run without on_error" `Quick
      test_pool_strict_raises;
    Alcotest.test_case "driver: overflow degrades conservatively" `Quick
      test_overflow_degrades;
    Alcotest.test_case "driver: exhausted budget degrades the pair" `Quick
      test_budget_degrades;
    Alcotest.test_case "engine: zero deadline degrades every pair" `Quick
      test_deadline_degrades;
    Alcotest.test_case "inject: every driver site fires and is contained"
      `Quick test_injection_sites_contained;
    Alcotest.test_case "inject: sites outside the driver propagate" `Quick
      test_injection_outside_driver;
    Alcotest.test_case "inject: overflow kind lands in the overflow bucket"
      `Quick test_injection_overflow_kind;
    prop_injection_sound;
    prop_huge_constants_conservative;
    Alcotest.test_case "degrade: one exception-to-reason mapping" `Quick
      test_degrade_of_exn;
  ]
