(* A traced walk through the Delta test (the paper's Figure 3) on the
   worked examples from section 5.

   Run with:  dune exec examples/delta_walkthrough.exe *)

open Dt_ir

let walk ~title ~loops ~pairs =
  Printf.printf "=== %s ===\n" title;
  let assume = Deptest.Assume.add_loop_facts Deptest.Assume.empty loops in
  let range = Deptest.Range.compute loops in
  let relevant =
    List.fold_left
      (fun s (l : Loop.t) -> Index.Set.add l.Loop.index s)
      Index.Set.empty loops
  in
  List.iter (fun p -> Format.printf "subscript %a@." Spair.pp p) pairs;
  let sink = Dt_obs.Trace.make () in
  let obs = Deptest.Dispatch.make ~sink () in
  let r = Deptest.Delta.test ~obs assume range pairs ~relevant in
  Format.printf "%a" Dt_obs.Trace.pp_tree sink;
  (match r.Deptest.Delta.verdict with
  | `Independent -> print_endline "verdict: INDEPENDENT"
  | `Dependent parts ->
      print_endline "verdict: dependent";
      List.iter (fun p -> Format.printf "  %a@." Deptest.Presult.pp p) parts);
  Printf.printf "passes: %d, unreduced MIV subscripts: %d\n\n"
    r.Deptest.Delta.passes r.Deptest.Delta.leftover_miv

let () =
  let i = Index.make "I" ~depth:0 and j = Index.make "J" ~depth:1 in
  let ai ?(c = 0) ?(k = 1) () = Affine.add_const c (Affine.of_index ~coeff:k i) in
  let loops1 = [ Loop.make i ~lo:(Affine.const 1) ~hi:(Affine.const 100) ] in

  (* Example 1 (section 5.2): A(I+1, I+2) = A(I, I): the strong SIV
     constraints "distance 1" and "distance 2" intersect to bottom. *)
  walk ~title:"constraint intersection proves independence" ~loops:loops1
    ~pairs:
      [
        Spair.make (ai ~c:1 ()) (ai ());
        Spair.make (ai ~c:2 ()) (ai ());
      ];

  (* Example 2 (section 5.3.1): A(I+1, I+J) = A(I, I+J-1): the distance-1
     constraint on I propagates into the MIV subscript <I+J, I'+J'-1>,
     reducing it to a strong SIV subscript in J with distance 0. *)
  let loops2 =
    [
      Loop.make i ~lo:(Affine.const 1) ~hi:(Affine.of_sym "N");
      Loop.make j ~lo:(Affine.const 1) ~hi:(Affine.of_sym "N");
    ]
  in
  walk ~title:"SIV constraint propagation reduces MIV to SIV" ~loops:loops2
    ~pairs:
      [
        Spair.make (ai ~c:1 ()) (ai ());
        Spair.make
          (Affine.add (Affine.of_index i) (Affine.of_index j))
          (Affine.add_const (-1) (Affine.add (Affine.of_index i) (Affine.of_index j)));
      ];

  (* Example 3 (section 5.3.2): A(I,J) = A(J,I): coupled RDIV subscripts;
     the crossed relations force direction vectors (<,>), (=,=), (>,<). *)
  walk ~title:"restricted double-index (RDIV) coupling" ~loops:loops2
    ~pairs:
      [
        Spair.make (Affine.of_index i) (Affine.of_index j);
        Spair.make (Affine.of_index j) (Affine.of_index i);
      ];

  (* Example 4: the weak-zero + strong SIV interplay: A(I, N) = A(I, J). *)
  walk ~title:"weak-zero constraint in a coupled group" ~loops:loops2
    ~pairs:
      [
        Spair.make (Affine.of_index i) (Affine.of_index i);
        Spair.make (Affine.of_sym "N") (Affine.of_index j);
      ]
