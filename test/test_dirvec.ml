(* Direction vectors: refinement, expansion, merging, levels,
   orientation. *)

open Helpers

let check = Alcotest.check
module D = Deptest.Direction
module V = Deptest.Dirvec

let v_of l = Array.of_list l
let star = D.full_set
let lt = D.single D.Lt
let eq = D.single D.Eq
let gt = D.single D.Gt

let test_direction_sets () =
  check Alcotest.bool "full mem" true (D.mem D.Lt D.full_set);
  check Alcotest.int "cardinal" 3 (D.cardinal D.full_set);
  check dirset_t "union" (D.of_list [ D.Lt; D.Eq ]) (D.union lt eq);
  check dirset_t "inter" eq (D.inter (D.of_list [ D.Lt; D.Eq ]) (D.of_list [ D.Eq; D.Gt ]));
  check Alcotest.bool "subset" true (D.subset eq D.full_set);
  check Alcotest.bool "not subset" false (D.subset D.full_set eq);
  check dirset_t "negate swaps" (D.of_list [ D.Gt; D.Eq ]) (D.negate_set (D.of_list [ D.Lt; D.Eq ]));
  check Alcotest.string "pp star" "*" (Format.asprintf "%a" D.pp_set star);
  check Alcotest.string "pp le" "<=" (Format.asprintf "%a" D.pp_set (D.of_list [ D.Lt; D.Eq ]))

let test_refine () =
  let v = V.full 2 in
  (match V.refine v 0 lt with
  | Some v' ->
      check Alcotest.string "refined" "(<,*)" (V.to_string v');
      check Alcotest.string "original untouched" "(*,*)" (V.to_string v)
  | None -> Alcotest.fail "refinable");
  match V.refine (v_of [ lt; eq ]) 0 gt with
  | None -> ()
  | Some _ -> Alcotest.fail "empty refinement must fail"

let test_expand_concrete () =
  let v = v_of [ D.of_list [ D.Lt; D.Eq ]; eq ] in
  let ex = V.expand v in
  check Alcotest.int "two expansions" 2 (List.length ex);
  check Alcotest.bool "concrete some" true (V.concrete (v_of [ lt; eq ]) <> None);
  check Alcotest.bool "concrete none" true (V.concrete v = None)

let test_levels () =
  check (Alcotest.list Alcotest.int) "concrete <" [ 1 ] (V.levels (v_of [ lt; gt ]));
  check (Alcotest.list Alcotest.int) "eq then lt" [ 2 ] (V.levels (v_of [ eq; lt ]));
  check (Alcotest.list Alcotest.int) "all eq: loop independent (n+1)" [ 3 ]
    (V.levels (v_of [ eq; eq ]));
  check (Alcotest.list Alcotest.int) "star: all levels" [ 1; 2; 3 ]
    (V.levels (v_of [ star; star ]));
  check (Alcotest.option Alcotest.int) "level of (=,<)" (Some 2)
    (V.level (v_of [ eq; lt ]));
  check (Alcotest.option Alcotest.int) "level of (=,=)" None
    (V.level (v_of [ eq; eq ]))

let test_orientation () =
  check Alcotest.bool "forward <" true (V.is_forward [ D.Lt; D.Gt ]);
  check Alcotest.bool "forward = prefix" true (V.is_forward [ D.Eq; D.Lt ]);
  check Alcotest.bool "all eq forward" true (V.is_forward [ D.Eq; D.Eq ]);
  check Alcotest.bool "backward" true (V.is_backward [ D.Eq; D.Gt ]);
  check Alcotest.bool "not backward" false (V.is_backward [ D.Lt; D.Gt ]);
  check Alcotest.string "negate" "(>,<)" (V.to_string (V.negate (v_of [ lt; gt ])))

let test_merge () =
  (* merging star vectors intersects positionwise *)
  let m = V.merge [ [ v_of [ lt; star ] ]; [ v_of [ star; eq ] ] ] in
  check Alcotest.int "one vector" 1 (List.length m);
  check Alcotest.string "(<,=)" "(<,=)" (V.to_string (List.hd m));
  (* conflicting: {(<)} x {(>)} = {} *)
  check (Alcotest.list Alcotest.string) "conflict empty" []
    (List.map V.to_string (V.merge [ [ v_of [ lt ] ]; [ v_of [ gt ] ] ]));
  (* union on one side keeps both choices *)
  check Alcotest.int "two results" 2
    (List.length (V.merge [ [ v_of [ lt ]; v_of [ eq ] ]; [ v_of [ star ] ] ]));
  (* merge of nothing *)
  check (Alcotest.list Alcotest.string) "merge []" []
    (List.map V.to_string (V.merge []));
  (* dedup *)
  check Alcotest.int "dedup" 1
    (List.length (V.merge [ [ v_of [ lt ]; v_of [ lt ] ] ]))

let test_distance_vec () =
  let v = V.distances_to_vec [| Some 1; None; Some 0 |] in
  check Alcotest.string "(<,*,=)" "(<,*,=)" (V.to_string v)

(* --- merge and compare against the list-comparing reference ----------- *)

let all_sets =
  (* every set, the empty one first *)
  Array.init 8 (fun c ->
      { D.lt = c land 1 <> 0; eq = c land 2 <> 0; gt = c land 4 <> 0 })

(* a position: '*' half the time, so that partitions still intersect
   over many levels, else any non-empty set *)
let gen_level =
  QCheck.Gen.(
    frequency
      [ (1, return D.full_set); (1, map (fun c -> all_sets.(c)) (int_range 1 7)) ])

let gen_merge_input =
  QCheck.Gen.(
    int_range 0 25 >>= fun n ->
    list_size (int_range 1 4)
      (list_size (int_range 0 6) (array_size (return n) gen_level)))

let print_merge_input sets =
  String.concat " x "
    (List.map
       (fun set -> "{" ^ String.concat " " (List.map V.to_string set) ^ "}")
       sets)

let prop_merge_matches_reference =
  qtest ~count:2000 "merge == reference merge, order included"
    (QCheck.make ~print:print_merge_input gen_merge_input)
    (fun sets ->
      List.map V.to_string (V.merge sets)
      = List.map V.to_string (Dirvec_reference.merge sets))

let prop_compare_matches_reference =
  let gen_vec =
    QCheck.Gen.(
      array_size (int_range 0 5) (map (fun c -> all_sets.(c)) (int_range 0 7)))
  in
  qtest ~count:2000 "compare/equal == reference compare"
    (QCheck.make
       ~print:(fun (a, b) -> V.to_string a ^ " vs " ^ V.to_string b)
       (QCheck.Gen.pair gen_vec gen_vec))
    (fun (a, b) ->
      let sign x = Stdlib.compare x 0 in
      let want = Dirvec_reference.compare a b in
      sign (V.compare a b) = sign want && V.equal a b = (want = 0))

let suite =
  [
    Alcotest.test_case "direction sets" `Quick test_direction_sets;
    Alcotest.test_case "refine" `Quick test_refine;
    Alcotest.test_case "expand/concrete" `Quick test_expand_concrete;
    Alcotest.test_case "levels" `Quick test_levels;
    Alcotest.test_case "orientation" `Quick test_orientation;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "distance vectors" `Quick test_distance_vec;
    prop_merge_matches_reference;
    prop_compare_matches_reference;
  ]
