(* The Delta test (§5): intersection, propagation, multiple passes, RDIV
   coupling, and MIV fallback. *)

open Dt_ir
open Helpers

let check = Alcotest.check

let run ?hi:(h = 100) pairs =
  let loops = [ loop ~hi:h i0; loop ~hi:h j1; loop ~hi:h k2 ] in
  let assume, range = siv_ctx loops in
  let relevant = Index.Set.of_list [ i0; j1; k2 ] in
  Deptest.Delta.test assume range pairs ~relevant

let indep r = r.Deptest.Delta.verdict = `Independent

let test_intersection_contradiction () =
  (* A(I+1, I+2) vs A(I, I): distances 1 and 2 conflict *)
  let r = run [ spair (av ~c:1 i0) (av i0); spair (av ~c:2 i0) (av i0) ] in
  check Alcotest.bool "independent" true (indep r)

let test_consistent_distances () =
  let r = run [ spair (av ~c:1 i0) (av i0); spair (av ~c:1 i0) (av i0) ] in
  check Alcotest.bool "dependent" false (indep r)

let test_propagation_reduces_miv () =
  (* <I+1, I> gives dist 1; propagating into <I+J, I+J-1> leaves <J, J-1>?
     no: I+J with beta_i = alpha_i + 1 becomes J vs J' with distance 0.
     The important point: the MIV subscript is fully reduced and the
     result is exact. *)
  let miv =
    spair
      (Affine.add (av i0) (av j1))
      (Affine.add_const (-1) (Affine.add (av i0) (av j1)))
  in
  let r = run [ spair (av ~c:1 i0) (av i0); miv ] in
  check Alcotest.bool "dependent" false (indep r);
  check Alcotest.int "no leftover MIV" 0 r.Deptest.Delta.leftover_miv;
  match r.Deptest.Delta.verdict with
  | `Dependent [ Deptest.Presult.Indexwise deps ] ->
      let find ix =
        List.find (fun (d : Deptest.Outcome.index_dep) -> Index.equal d.index ix) deps
      in
      check Alcotest.bool "d_I = 1" true
        ((find i0).Deptest.Outcome.dist = Deptest.Outcome.Const 1);
      check Alcotest.bool "d_J = 0" true
        ((find j1).Deptest.Outcome.dist = Deptest.Outcome.Const 0)
  | _ -> Alcotest.fail "expected a single index-wise result"

let test_propagation_contradiction () =
  (* dist on I is 1; the MIV subscript <I+J, I+J> then needs d_J = -1...
     make it contradict a separate strong constraint d_J = 0: *)
  let r =
    run
      [
        spair (av ~c:1 i0) (av i0);
        (* d_I = 1 *)
        spair (av j1) (av j1);
        (* d_J = 0 *)
        spair (Affine.add (av i0) (av j1)) (Affine.add (av i0) (av j1))
        (* requires d_I + d_J = 0: contradiction *);
      ]
  in
  check Alcotest.bool "independent" true (indep r)

let test_multiple_passes () =
  (* chain: <I+1,I> fixes d_I; <I+J, I+J> reduces to d_J = -1; then
     <J+K, J+K> reduces to d_K = 1; all three resolved exactly. *)
  let r =
    run
      [
        spair (av ~c:1 i0) (av i0);
        spair (Affine.add (av i0) (av j1)) (Affine.add (av i0) (av j1));
        spair (Affine.add (av j1) (av k2)) (Affine.add (av j1) (av k2));
      ]
  in
  check Alcotest.bool "dependent" false (indep r);
  (match r.Deptest.Delta.verdict with
  | `Dependent [ Deptest.Presult.Indexwise deps ] ->
      let find ix =
        List.find (fun (d : Deptest.Outcome.index_dep) -> Index.equal d.index ix) deps
      in
      check Alcotest.bool "d_J = -1" true
        ((find j1).Deptest.Outcome.dist = Deptest.Outcome.Const (-1));
      check Alcotest.bool "d_K = 1" true
        ((find k2).Deptest.Outcome.dist = Deptest.Outcome.Const 1)
  | _ -> Alcotest.fail "single indexwise result expected");
  check Alcotest.bool "took multiple passes" true (r.Deptest.Delta.passes >= 2)

let test_point_propagation () =
  (* weak-zero fixes alpha_I = 5 and a strong SIV on I pins beta via
     intersection; then a coupled MIV involving I reduces *)
  let r =
    run ~hi:10
      [
        spair (av i0) (Affine.const 5);
        (* alpha_I = 5 *)
        spair (av ~c:1 i0) (av i0);
        (* beta_I = alpha_I + 1 = 6 *)
        spair (Affine.add (av i0) (av j1)) (Affine.add (av ~c:1 i0) (av j1))
        (* alpha_I + alpha_J = beta_I + 1 + beta_J: with the point it is
           5 + alpha_J = 7 + beta_J: d_J = -2 *);
      ]
  in
  check Alcotest.bool "dependent" false (indep r);
  match r.Deptest.Delta.verdict with
  | `Dependent [ Deptest.Presult.Indexwise deps ] ->
      let dj =
        List.find (fun (d : Deptest.Outcome.index_dep) -> Index.equal d.index j1) deps
      in
      check Alcotest.bool "d_J = -2" true
        (dj.Deptest.Outcome.dist = Deptest.Outcome.Const (-2))
  | _ -> Alcotest.fail "indexwise result expected"

let test_rdiv_coupling () =
  (* transpose: <I, J'> and <J, I'> *)
  let r = run [ spair (av i0) (av j1); spair (av j1) (av i0) ] in
  check Alcotest.bool "dependent" false (indep r);
  match r.Deptest.Delta.verdict with
  | `Dependent parts ->
      let vecs =
        List.concat_map
          (function
            | Deptest.Presult.Vectors (_, vs) -> vs
            | _ -> [])
          parts
      in
      check Alcotest.int "three joint vectors" 3 (List.length vecs);
      check Alcotest.bool "(<,>) present" true
        (List.mem [ Deptest.Direction.Lt; Deptest.Direction.Gt ] vecs);
      check Alcotest.bool "(=,=) present" true
        (List.mem [ Deptest.Direction.Eq; Deptest.Direction.Eq ] vecs);
      check Alcotest.bool "(<,<) absent" true
        (not (List.mem [ Deptest.Direction.Lt; Deptest.Direction.Lt ] vecs))
  | `Independent -> Alcotest.fail "dependent expected"

let test_rdiv_inconsistent () =
  (* <I, J'> twice with different constants: alpha_I = beta_J and
     alpha_I = beta_J + 3 cannot both hold *)
  let r = run [ spair (av i0) (av j1); spair (av i0) (av ~c:3 j1) ] in
  check Alcotest.bool "independent" true (indep r)

let test_ziv_in_group () =
  (* a ZIV subscript that fails inside a coupled group after reduction *)
  let r =
    run
      [
        spair (av ~c:1 i0) (av i0);
        (* forces beta = alpha + 1 *)
        spair (av i0) (av ~c:(-1) i0)
        (* alpha_I = beta_I - 1: consistent *);
      ]
  in
  check Alcotest.bool "still dependent" false (indep r);
  let r2 =
    run [ spair (av ~c:1 i0) (av i0); spair (av i0) (av i0) ] in
  check Alcotest.bool "contradiction found" true (indep r2)

let test_miv_fallback () =
  (* coupled group with an unreducible MIV pair: <I+2J, K'>-style; Delta
     falls back to Banerjee on the leftover *)
  let r =
    run
      [
        spair (Affine.add (av i0) (av ~k:2 j1)) (av k2);
        spair (Affine.add (av i0) (av j1)) (Affine.add (av j1) (av k2));
      ]
  in
  check Alcotest.bool "dependent (conservative)" false (indep r);
  check Alcotest.bool "leftovers recorded" true (r.Deptest.Delta.leftover_miv >= 1)

let test_trace () =
  let sink = Dt_obs.Trace.make () in
  let loops = loops1 ~hi:50 () in
  let assume, range = siv_ctx loops in
  let _ =
    Deptest.Delta.test ~obs:(Deptest.Dispatch.make ~sink ()) assume range
      [ spair (av ~c:1 i0) (av i0); spair (av ~c:2 i0) (av i0) ]
      ~relevant:(Index.Set.singleton i0)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "trace notes the contradiction" true
    (List.exists
       (function
         | Dt_obs.Trace.Note s -> contains s "contradiction" | _ -> false)
       (Dt_obs.Trace.events sink))

let suite =
  [
    Alcotest.test_case "intersection contradiction" `Quick
      test_intersection_contradiction;
    Alcotest.test_case "consistent distances" `Quick test_consistent_distances;
    Alcotest.test_case "MIV reduction by propagation" `Quick
      test_propagation_reduces_miv;
    Alcotest.test_case "propagation finds contradiction" `Quick
      test_propagation_contradiction;
    Alcotest.test_case "multiple passes" `Quick test_multiple_passes;
    Alcotest.test_case "point-style propagation" `Quick test_point_propagation;
    Alcotest.test_case "RDIV coupling vectors" `Quick test_rdiv_coupling;
    Alcotest.test_case "RDIV inconsistency" `Quick test_rdiv_inconsistent;
    Alcotest.test_case "reduction to ZIV" `Quick test_ziv_in_group;
    Alcotest.test_case "MIV fallback" `Quick test_miv_fallback;
    Alcotest.test_case "tracing" `Quick test_trace;
  ]
