(* The MIV tests: GCD and Banerjee's inequalities with the direction
   vector hierarchy (§4.4), including triangular nests via index ranges. *)

open Dt_ir
open Helpers

let check = Alcotest.check

let test_gcd () =
  let t ?eq_indices src snk = Deptest.Gcd_test.test ?eq_indices (spair src snk) in
  (* 2I - 2J' = 5: gcd 2 does not divide 5 *)
  check Alcotest.bool "gcd disproves" true
    (t (av ~k:2 i0) (av ~k:2 ~c:5 j1) = `Independent);
  check Alcotest.bool "gcd allows" true
    (t (av ~k:2 i0) (av ~k:2 ~c:4 j1) = `Maybe);
  (* symbolic constant: 2I = 2J' + 2N + 1 is always odd-vs-even *)
  check Alcotest.bool "gcd symbolic disproves" true
    (t (av ~k:2 i0)
       (Affine.add (av ~k:2 ~c:1 j1) (Affine.of_sym ~coeff:2 "N"))
    = `Independent);
  (* symbolic coefficient not divisible: can't disprove *)
  check Alcotest.bool "gcd symbolic odd coeff" true
    (t (av ~k:2 i0) (Affine.add (av ~k:2 ~c:1 j1) (Affine.of_sym "N")) = `Maybe);
  (* '=' merge: <2I+1, 4I'> under = has coefficient 2-4=-2; c=-1: indep *)
  check Alcotest.bool "directed gcd" true
    (t
       ~eq_indices:(Index.Set.singleton i0)
       (av ~k:2 ~c:1 i0) (av ~k:4 i0)
    = `Independent)

let feasible ?(hi = 10) pair dirs =
  let loops = [ loop ~hi i0; loop ~hi j1 ] in
  let assume, range = siv_ctx loops in
  Deptest.Banerjee.feasible assume range pair ~dirs

let test_banerjee_bounds () =
  (* I + J' = 25 over [1,10]^2: max is 20: infeasible *)
  let p = spair (av i0) (av ~k:(-1) ~c:25 j1) in
  check Alcotest.bool "sum too large" false
    (feasible p [ (i0, None); (j1, None) ]);
  (* I + J' = 15 feasible *)
  let p2 = spair (av i0) (av ~k:(-1) ~c:15 j1) in
  check Alcotest.bool "sum reachable" true
    (feasible p2 [ (i0, None); (j1, None) ]);
  (* direction refinement: I - I' = 0 under '<' (alpha < beta) infeasible
     with coefficient 1/-1? I vs I': alpha_i = beta_i impossible if alpha < beta *)
  let p3 = spair (av i0) (av i0) in
  check Alcotest.bool "eq equation under <" false
    (feasible p3 [ (i0, Some Deptest.Direction.Lt) ]);
  check Alcotest.bool "eq equation under =" true
    (feasible p3 [ (i0, Some Deptest.Direction.Eq) ]);
  (* A(I+1) vs A(I): only '<'? beta = alpha + 1 > alpha *)
  let p4 = spair (av ~c:1 i0) (av i0) in
  check Alcotest.bool "dist 1 under >" false
    (feasible p4 [ (i0, Some Deptest.Direction.Gt) ]);
  check Alcotest.bool "dist 1 under <" true
    (feasible p4 [ (i0, Some Deptest.Direction.Lt) ])

let test_banerjee_vectors () =
  let loops = [ loop ~hi:10 i0; loop ~hi:10 j1 ] in
  let assume, range = siv_ctx loops in
  (* A(I+J) vs A(I+J-1): MIV; legal vectors include (=,Lt) and more. *)
  let p =
    spair
      (Affine.add (av i0) (av j1))
      (Affine.add_const (-1) (Affine.add (av i0) (av j1)))
  in
  match Deptest.Banerjee.vectors assume range [ p ] ~indices:[ i0; j1 ] with
  | `Independent -> Alcotest.fail "dependent expected"
  | `Vectors vecs ->
      let has v = List.mem v vecs in
      check Alcotest.bool "(=,<) legal" true
        (has [ Deptest.Direction.Eq; Deptest.Direction.Lt ]);
      check Alcotest.bool "(=,=) illegal" false
        (has [ Deptest.Direction.Eq; Deptest.Direction.Eq ]);
      check Alcotest.bool "(<,>) legal" true
        (has [ Deptest.Direction.Lt; Deptest.Direction.Gt ])

let test_banerjee_single_trip () =
  (* single-iteration loop: '<' direction impossible *)
  let loops = [ loop ~lo:3 ~hi:3 i0 ] in
  let assume, range = siv_ctx loops in
  check Alcotest.bool "region empty" false
    (Deptest.Banerjee.region_nonempty assume range i0 (Some Deptest.Direction.Lt));
  check Alcotest.bool "eq fine" true
    (Deptest.Banerjee.region_nonempty assume range i0 (Some Deptest.Direction.Eq))

let test_banerjee_triangular () =
  (* DO I = 1,10; DO J = 1, I-1: A(I) vs A(J'): J' <= I-1 <= 9, so
     A(I+?)... test <I, J' + 9>: alpha_i = beta_j + 9 needs alpha_i >= 10
     and beta_j <= 1... feasible only at i=10, j=1 *)
  let loops =
    [
      loop ~hi:10 i0;
      loop_aff j1 ~lo:(Affine.const 1)
        ~hi:(Affine.add_const (-1) (Affine.of_index i0));
    ]
  in
  let assume, range = siv_ctx loops in
  let p = spair (av i0) (av ~c:9 j1) in
  check Alcotest.bool "triangular feasible edge" true
    (Deptest.Banerjee.feasible assume range p ~dirs:[ (i0, None); (j1, None) ]);
  (* <I, J' + 10> infeasible: alpha <= 10 but beta_j + 10 >= 11 *)
  let p2 = spair (av i0) (av ~c:10 j1) in
  check Alcotest.bool "triangular infeasible" false
    (Deptest.Banerjee.feasible assume range p2 ~dirs:[ (i0, None); (j1, None) ])

let test_banerjee_symbolic () =
  (* A(I) vs A(I' + N) over [1,N]: h = alpha - beta = N needs alpha >= N+1 *)
  let n = Affine.of_sym "N" in
  let loops = [ loop_aff i0 ~lo:(Affine.const 1) ~hi:n ] in
  let assume, range = siv_ctx loops in
  let p = spair (av i0) (Affine.add (av i0) n) in
  check Alcotest.bool "symbolic Banerjee disproves" false
    (Deptest.Banerjee.feasible assume range p ~dirs:[ (i0, None) ]);
  (* A(I) vs A(I' + N - 1) is feasible (alpha = N, beta = 1) *)
  let p2 = spair (av i0) (Affine.add (av ~c:(-1) i0) n) in
  check Alcotest.bool "symbolic Banerjee allows" true
    (Deptest.Banerjee.feasible assume range p2 ~dirs:[ (i0, None) ])

(* soundness + exactness vs brute force over 2-index MIV subscripts *)
let test_banerjee_exhaustive () =
  let lo = 1 and hi = 5 in
  let dirs_of a b =
    if a < b then Deptest.Direction.Lt
    else if a = b then Deptest.Direction.Eq
    else Deptest.Direction.Gt
  in
  for a1 = -2 to 2 do
    for b1 = -2 to 2 do
      for c = -6 to 6 do
        (* src = a1*I + J, snk = b1*I' + J' + c : both indices on both sides *)
        let src = Affine.add (av ~k:a1 i0) (av j1) in
        let snk = Affine.add (av ~k:b1 ~c i0) (av j1) in
        let p = spair src snk in
        (* brute: enumerate (ai, aj, bi, bj) *)
        let observed = Hashtbl.create 16 in
        for ai = lo to hi do
          for aj = lo to hi do
            for bi = lo to hi do
              for bj = lo to hi do
                let f = (a1 * ai) + aj and g = (b1 * bi) + bj + c in
                if f = g then
                  Hashtbl.replace observed (dirs_of ai bi, dirs_of aj bj) ()
              done
            done
          done
        done;
        let loops = [ loop ~lo ~hi i0; loop ~lo ~hi j1 ] in
        let assume, range = siv_ctx loops in
        List.iter
          (fun di ->
            List.iter
              (fun dj ->
                let feas =
                  Deptest.Banerjee.feasible assume range p
                    ~dirs:[ (i0, Some di); (j1, Some dj) ]
                in
                let obs = Hashtbl.mem observed (di, dj) in
                if obs && not feas then
                  Alcotest.failf "UNSOUND: a1=%d b1=%d c=%d dir (%s,%s)" a1 b1 c
                    (Deptest.Direction.to_string di)
                    (Deptest.Direction.to_string dj))
              Deptest.Direction.all)
          Deptest.Direction.all
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Compiled incremental evaluator vs the from-scratch Reference: the
   verdicts must be identical on every query — random nests (constant,
   triangular, symbolic bounds), every direction assignment, and the
   whole corpus rendered byte-for-byte. *)

let gen_parity_case =
  QCheck.make
    ~print:(fun (p, loops) ->
      Format.asprintf "%a under %a" Spair.pp p
        (Format.pp_print_list Loop.pp)
        loops)
    (QCheck.Gen.map
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let ri lo hi = lo + Random.State.int st (hi - lo + 1) in
         let depth = ri 2 3 in
         let idxs = [ i0; j1; k2 ] in
         let rec mk_loops k outer =
           if k = depth then []
           else
             let i = List.nth idxs k in
             let lo = Affine.const (ri 1 2) in
             let hi =
               match ri 0 3 with
               | 2 when outer <> None ->
                   (* triangular: hi = outer - 1 *)
                   Affine.add_const (-1) (Affine.of_index (Option.get outer))
               | 3 -> Affine.of_sym "N"
               | _ -> Affine.const (ri 3 8)
             in
             loop_aff i ~lo ~hi :: mk_loops (k + 1) (Some i)
         in
         let loops = mk_loops 0 None in
         let side () =
           let base =
             List.fold_left
               (fun acc i -> Affine.add acc (av ~k:(ri (-3) 3) i))
               (Affine.const (ri (-9) 9))
               (List.filteri (fun k _ -> k < depth) idxs)
           in
           if ri 0 3 = 0 then
             Affine.add base (Affine.of_sym ~coeff:(ri (-2) 2) "N")
           else base
         in
         (spair (side ()) (side ()), loops))
       QCheck.Gen.int)

let all_dir_assignments indices =
  let opts =
    [
      None;
      Some Deptest.Direction.Lt;
      Some Deptest.Direction.Eq;
      Some Deptest.Direction.Gt;
    ]
  in
  List.fold_left
    (fun acc i ->
      List.concat_map (fun dirs -> List.map (fun d -> (i, d) :: dirs) opts) acc)
    [ [] ] indices

let prop_incremental_parity =
  qtest ~count:400 "incremental evaluator matches Reference everywhere"
    gen_parity_case (fun (p, loops) ->
      let assume, range = siv_ctx loops in
      let indices = List.map (fun (l : Loop.t) -> l.Loop.index) loops in
      Deptest.Banerjee.vectors assume range [ p ] ~indices
      = Deptest.Banerjee.Reference.vectors assume range [ p ] ~indices
      && List.for_all
           (fun dirs ->
             Deptest.Banerjee.feasible assume range p ~dirs
             = Deptest.Banerjee.Reference.feasible assume range p ~dirs)
           (all_dir_assignments indices))

(* Symbolic universes past [gen_parity_case]: N as a lower bound as well
   as an upper one, extra facts (an upper bound on N, several lower
   bounds, a fact mixing N with M, a contradictory pair L > U, a fact
   without N), a second symbol M in bounds and subscripts, and, in one
   case of six, magnitudes near [max_int]. The case records whether its
   universe is N alone with every fact on one symbol: only then does
   the one-symbol tier decide its nodes. *)
type sym_case = {
  sp : Spair.t;
  sloops : Loop.t list;
  facts : Affine.t list;  (* added to the loop facts *)
  one_symbol : bool;
  huge : bool;
}

let gen_symbolic_case =
  let n = Affine.of_sym "N" and m = Affine.of_sym "M" in
  QCheck.make
    ~print:(fun c ->
      Format.asprintf "%a under %a with %a" Spair.pp c.sp
        (Format.pp_print_list Loop.pp)
        c.sloops
        (Format.pp_print_list (fun ppf f -> Format.fprintf ppf "%a >= 0" Affine.pp f))
        c.facts)
    (QCheck.Gen.map
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let ri lo hi = lo + Random.State.int st (hi - lo + 1) in
         let huge = ri 0 5 = 0 in
         let uses_m = ref false in
         (* a magnitude: small, or within a factor 64 of max_int *)
         let mag lo hi =
           if huge && ri 0 3 = 0 then
             (if ri 0 1 = 0 then 1 else -1) * (max_int / ri 1 64)
           else ri lo hi
         in
         let sym_m () =
           uses_m := true;
           m
         in
         let depth = ri 1 3 in
         let idxs = [ i0; j1; k2 ] in
         let rec mk_loops k outer =
           if k = depth then []
           else
             let i = List.nth idxs k in
             let lo =
               match ri 0 4 with
               | 0 -> Affine.add_const (ri (-2) 1) n
               | 1 -> Affine.add_const (mag 1 2) (Affine.const 0)
               | _ -> Affine.const (ri 1 2)
             in
             let hi =
               match ri 0 6 with
               | 0 when outer <> None ->
                   Affine.add_const (-1) (Affine.of_index (Option.get outer))
               | 1 | 2 -> n
               | 3 -> Affine.add_const (ri 1 6) n
               | 4 when ri 0 3 = 0 -> sym_m ()
               | _ -> Affine.const (mag 3 8)
             in
             loop_aff i ~lo ~hi :: mk_loops (k + 1) (Some i)
         in
         let sloops = mk_loops 0 None in
         let side () =
           let base =
             List.fold_left
               (fun acc i -> Affine.add acc (av ~k:(mag (-3) 3) i))
               (Affine.const (mag (-9) 9))
               (List.filteri (fun k _ -> k < depth) idxs)
           in
           let base =
             if ri 0 2 = 0 then Affine.add base (Affine.scale (ri (-2) 2) n)
             else base
           in
           if ri 0 9 = 0 then Affine.add base (sym_m ()) else base
         in
         let sp = spair (side ()) (side ()) in
         let mixed = ref false in
         let fact () =
           match ri 0 7 with
           | 0 -> Affine.sub (Affine.const (ri 3 12)) (Affine.scale (ri 1 2) n)
           | 1 | 2 -> Affine.add_const (- ri 0 6) (Affine.scale (ri 1 3) n)
           | 3 ->
               mixed := true;
               Affine.sub n m
           | 4 -> Affine.add_const (-1) m
           | 5 -> Affine.add_const (mag (-3) 3) (Affine.scale (mag 1 3) n)
           | _ -> Affine.sub (Affine.const (mag 3 12)) n
         in
         let facts =
           List.init (ri 0 3) (fun _ -> fact ())
           @
           if ri 0 7 = 0 then
             (* L > U *)
             [ Affine.add_const (-10) n; Affine.sub (Affine.const 5) n ]
           else []
         in
         { sp; sloops; facts; one_symbol = not (!uses_m || !mixed); huge })
       QCheck.Gen.int)

let sym_ctx c extra =
  let assume, range = siv_ctx c.sloops in
  (List.fold_left Deptest.Assume.add_nonneg assume (c.facts @ extra), range)

(* a verdict, or [None] where the evaluator overflowed: the pair then
   degrades *)
let outcome f = match f () with v -> Some v | exception Dt_guard.Ops.Overflow -> None

(* Exactness of the one-symbol tier. Small cases must equal Reference.
   Near max_int, verdicts that both evaluators reach must agree, and the
   compiled evaluator must behave, overflow included, as its own
   enumeration does: a fact [N - Z >= 0] with Z fresh routes every node
   to the enumeration and cannot change what the oracle proves about a
   goal over N (eliminating N through it leaves [k + a*Z] with no fact
   to eliminate Z), and with every fact on one symbol, no proof takes
   more than one step, so the extra search depth it buys is never
   used. A case whose loop facts or ranges themselves overflow has no
   query to compare: the driver degrades its pairs before any test. *)
let prop_one_symbol_exact =
  qtest ~count:1000 "one-symbol tier equals Reference and enumeration"
    gen_symbolic_case (fun c ->
      match
        ( sym_ctx c [],
          fst (sym_ctx c [ Affine.sub (Affine.of_sym "N") (Affine.of_sym "Z") ]) )
      with
      | exception Dt_guard.Ops.Overflow -> true
      | (assume, range), forced ->
          let indices = List.map (fun (l : Loop.t) -> l.Loop.index) c.sloops in
          let agree x y =
            if c.huge then match (x, y) with Some a, Some b -> a = b | _ -> true
            else x = y
          in
          let check kernel reference =
            let k = outcome (kernel assume) in
            agree k (outcome reference)
            && ((not c.one_symbol) || k = outcome (kernel forced))
          in
          check
            (fun a () -> Deptest.Banerjee.vectors a range [ c.sp ] ~indices)
            (fun () -> Deptest.Banerjee.Reference.vectors assume range [ c.sp ] ~indices)
          && List.for_all
               (fun dirs ->
                 check
                   (fun a () -> Deptest.Banerjee.feasible a range c.sp ~dirs)
                   (fun () ->
                     Deptest.Banerjee.Reference.feasible assume range c.sp ~dirs))
               (all_dir_assignments indices))

let test_combo_cap () =
  (* seven coupled indices, all '*': 4^7 literal combinations exceed
     max_combos, so the evaluator assumes feasibility — now with a
     metrics counter and a trace note instead of a silent fallback *)
  let idxs = List.init 7 (fun k -> idx ~depth:k (Printf.sprintf "X%d" k)) in
  let loops = List.map (fun i -> loop ~hi:10 i) idxs in
  let assume, range = siv_ctx loops in
  let sum k0 c0 =
    List.fold_left
      (fun acc i -> Affine.add acc (av ~k:k0 i))
      (Affine.const c0) idxs
  in
  let p = spair (sum 1 0) (sum 2 1) in
  let dirs = List.map (fun i -> (i, None)) idxs in
  let m = Dt_obs.Metrics.create () in
  let s = Dt_obs.Trace.make () in
  check Alcotest.bool "cap assumes feasible" true
    (Deptest.Banerjee.feasible ~metrics:m ~sink:s assume range p ~dirs);
  check Alcotest.bool "Reference agrees" true
    (Deptest.Banerjee.Reference.feasible assume range p ~dirs);
  check Alcotest.int "cap fallback counted" 1 (Dt_obs.Metrics.banerjee_caps m);
  check Alcotest.int "kernel compilation counted" 1
    (Dt_obs.Metrics.banerjee_compilations m);
  check Alcotest.int "single query is a scratch node" 1
    (Dt_obs.Metrics.banerjee_scratch_nodes m);
  let contains ~affix s =
    let na = String.length affix and ns = String.length s in
    let rec go i = i + na <= ns && (String.sub s i na = affix || go (i + 1)) in
    na = 0 || go 0
  in
  check Alcotest.bool "trace note emitted" true
    (List.exists
       (function
         | Dt_obs.Trace.Note n -> contains ~affix:"capped" n
         | _ -> false)
       (Dt_obs.Trace.events s))

let test_below_cap_exact () =
  (* six coupled indices stay under the cap (4^6 = 4096 is not > cap):
     the bound check still runs and disproves an out-of-range constant *)
  let idxs = List.init 6 (fun k -> idx ~depth:k (Printf.sprintf "Y%d" k)) in
  let loops = List.map (fun i -> loop ~hi:10 i) idxs in
  let assume, range = siv_ctx loops in
  let sum c0 =
    List.fold_left (fun acc i -> Affine.add acc (av i)) (Affine.const c0) idxs
  in
  (* h = sum alpha - sum beta in [-54, 54] per index pair... max is 9*6 = 54 *)
  let p = spair (sum 0) (sum 55) in
  let dirs = List.map (fun i -> (i, None)) idxs in
  let m = Dt_obs.Metrics.create () in
  check Alcotest.bool "under-cap infeasible proven" false
    (Deptest.Banerjee.feasible ~metrics:m assume range p ~dirs);
  check Alcotest.int "no cap fallback" 0 (Dt_obs.Metrics.banerjee_caps m)

let render_corpus () =
  let cfg = Deptest.Analyze.Config.make ~jobs:1 ~cache:false () in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (e : Dt_workloads.Corpus.entry) ->
      List.iter
        (fun p ->
          let r = Deptest.Analyze.run cfg p in
          Buffer.add_string buf p.Nest.name;
          Buffer.add_char buf '\n';
          List.iter
            (fun d ->
              Buffer.add_string buf (Format.asprintf "%a@." Deptest.Dep.pp d))
            r.Deptest.Analyze.deps;
          Buffer.add_string buf
            (Format.asprintf "%a@." Deptest.Counters.pp
               r.Deptest.Analyze.counters))
        (Dt_workloads.Corpus.programs e))
    Dt_workloads.Corpus.all;
  Buffer.contents buf

(* MD5 of [render_corpus ()] recorded when the analyzer could still route
   every Banerjee query to [Reference]: at that commit the from-scratch,
   compiled and per-query-dispatched runs all rendered these bytes *)
let reference_corpus_md5 = "142b01a02357483d88166d3aaa96539d"

let test_corpus_byte_parity () =
  check Alcotest.string "corpus output matches the Reference rendering"
    reference_corpus_md5
    (Digest.to_hex (Digest.string (render_corpus ())))

let suite =
  [
    Alcotest.test_case "GCD test" `Quick test_gcd;
    Alcotest.test_case "Banerjee bounds" `Quick test_banerjee_bounds;
    Alcotest.test_case "Banerjee hierarchy vectors" `Quick test_banerjee_vectors;
    Alcotest.test_case "single-trip regions" `Quick test_banerjee_single_trip;
    Alcotest.test_case "triangular Banerjee" `Quick test_banerjee_triangular;
    Alcotest.test_case "symbolic Banerjee" `Quick test_banerjee_symbolic;
    Alcotest.test_case "Banerjee soundness exhaustive" `Slow test_banerjee_exhaustive;
    prop_incremental_parity;
    prop_one_symbol_exact;
    Alcotest.test_case "combo cap observable" `Quick test_combo_cap;
    Alcotest.test_case "below-cap bound check exact" `Quick test_below_cap_exact;
    Alcotest.test_case "corpus byte parity vs Reference" `Quick
      test_corpus_byte_parity;
  ]
