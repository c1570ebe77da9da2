(* Tests for the parallel pair-testing engine: the worker pool, the
   generic memo table, structural canonicalization keys, the pair-result
   cache (including cross-query rehydration and counter replay), and the
   merge laws the deterministic accumulator merge relies on. *)

open Dt_ir
open Helpers

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* --- Pool -------------------------------------------------------------- *)

let test_pool_covers_all () =
  let n = 1000 in
  let out = Array.make n 0 in
  let pool = Dt_support.Pool.create ~jobs:4 () in
  let states =
    Dt_support.Pool.run pool ~n
      ~state:(fun w -> (w, ref 0))
      ~body:(fun (_, acc) i ->
        out.(i) <- (i * i) + 1;
        acc := !acc + i)
  in
  check bool "every cell written exactly once" true
    (Array.for_all (fun v -> v > 0) (Array.mapi (fun i v -> Bool.to_int (v = (i * i) + 1)) out));
  let total = List.fold_left (fun a (_, r) -> a + !r) 0 states in
  check int "work partitioned without loss or overlap" (n * (n - 1) / 2) total;
  let ids = List.map fst states in
  check (Alcotest.list int) "states returned in worker-id order"
    (List.sort compare ids) ids

let test_pool_sequential () =
  let order = ref [] in
  let states =
    Dt_support.Pool.run
      (Dt_support.Pool.create ~jobs:1 ())
      ~n:5
      ~state:(fun w -> w)
      ~body:(fun _ i -> order := i :: !order)
  in
  check (Alcotest.list int) "jobs=1 runs in index order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order);
  check (Alcotest.list int) "jobs=1 uses one worker" [ 0 ] states

let test_pool_exception () =
  match
    Dt_support.Pool.run
      (Dt_support.Pool.create ~jobs:4 ())
      ~n:100
      ~state:(fun _ -> ())
      ~body:(fun () i -> if i = 57 then failwith "boom")
  with
  | exception Failure m -> check string "body exception propagates" "boom" m
  | _ -> Alcotest.fail "expected the body's exception to propagate"

let test_pool_empty () =
  check int "n=0 spawns nothing" 0
    (List.length
       (Dt_support.Pool.run
          (Dt_support.Pool.create ~jobs:4 ())
          ~n:0
          ~state:(fun w -> w)
          ~body:(fun _ _ -> ())))

(* an idle worker leaves as soon as every index is claimed, while a peer
   still runs its last leaf: with two workers seeded with one index each,
   index 0's body waits (5 s at most) for the other worker's
   [worker_stop]. A pool that waits for every leaf to finish before
   letting a worker go never fires it. The peer is whichever worker did
   not run index 0, should one have stolen the other's index. *)
let test_pool_idle_worker_leaves_early () =
  let stopped = Array.init 2 (fun _ -> Atomic.make false) in
  let probe =
    { Dt_support.Pool.no_probe with
      Dt_support.Pool.worker_stop = (fun w -> Atomic.set stopped.(w) true) }
  in
  let pool =
    Dt_support.Pool.create ~jobs:2 ~hooks:(Dt_support.Pool.hooks ~probe ()) ()
  in
  let left_early = Atomic.make false in
  let deadline = Int64.add (Dt_obs.Clock.now_ns ()) 5_000_000_000L in
  let states =
    Dt_support.Pool.run pool ~n:2
      ~state:(fun w -> w)
      ~body:(fun w i ->
        if i = 0 then begin
          let peer = stopped.(1 - w) in
          while
            (not (Atomic.get peer))
            && Int64.compare (Dt_obs.Clock.now_ns ()) deadline < 0
          do
            Domain.cpu_relax ()
          done;
          Atomic.set left_early (Atomic.get peer)
        end)
  in
  check (Alcotest.list int) "two workers ran" [ 0; 1 ] states;
  check bool "the idle worker stopped while index 0 still ran" true
    (Atomic.get left_early)

(* --- Deque ------------------------------------------------------------- *)

let test_deque_owner_lifo () =
  let d = Dt_support.Deque.create () in
  List.iter (Dt_support.Deque.push d) [ 1; 2; 3; 4; 5 ];
  check int "size counts pushes" 5 (Dt_support.Deque.size d);
  let popped = List.init 5 (fun _ -> Dt_support.Deque.pop d) in
  check
    (Alcotest.list (Alcotest.option int))
    "owner pops newest-first"
    [ Some 5; Some 4; Some 3; Some 2; Some 1 ]
    popped;
  check bool "then empty" true (Dt_support.Deque.pop d = None)

let test_deque_steal_fifo () =
  let d = Dt_support.Deque.create () in
  List.iter (Dt_support.Deque.push d) [ 1; 2; 3 ];
  (match Dt_support.Deque.steal d with
  | Dt_support.Deque.Stolen v -> check int "thief takes oldest" 1 v
  | _ -> Alcotest.fail "expected a successful steal");
  check bool "owner still pops newest" true (Dt_support.Deque.pop d = Some 3);
  (match Dt_support.Deque.steal d with
  | Dt_support.Deque.Stolen v -> check int "next-oldest next" 2 v
  | _ -> Alcotest.fail "expected a successful steal");
  check bool "then empty for the owner" true (Dt_support.Deque.pop d = None);
  check bool "and for thieves" true
    (Dt_support.Deque.steal d = Dt_support.Deque.Empty)

let test_deque_grows () =
  let d = Dt_support.Deque.create ~capacity:2 () in
  let n = 1000 in
  for i = 0 to n - 1 do
    Dt_support.Deque.push d i
  done;
  let sum = ref 0 and count = ref 0 in
  let rec drain () =
    match Dt_support.Deque.pop d with
    | Some v ->
        sum := !sum + v;
        incr count;
        drain ()
    | None -> ()
  in
  drain ();
  check int "growth loses nothing" n !count;
  check int "and duplicates nothing" (n * (n - 1) / 2) !sum

(* owner pops while three thieves steal: every pushed value must surface
   exactly once across the four parties *)
let test_deque_concurrent_steal () =
  let d = Dt_support.Deque.create ~capacity:16 () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Dt_support.Deque.push d i
  done;
  let thief () =
    let rec go acc =
      match Dt_support.Deque.steal d with
      | Dt_support.Deque.Stolen v -> go (v :: acc)
      | Dt_support.Deque.Retry ->
          Domain.cpu_relax ();
          go acc
      | Dt_support.Deque.Empty -> acc
    in
    go []
  in
  let thieves = List.init 3 (fun _ -> Domain.spawn thief) in
  let rec own acc =
    match Dt_support.Deque.pop d with Some v -> own (v :: acc) | None -> acc
  in
  let mine = own [] in
  let taken = List.concat_map Domain.join thieves @ mine in
  check int "no value lost" n (List.length taken);
  check
    (Alcotest.list int)
    "no value duplicated" (List.init n Fun.id)
    (List.sort compare taken)

(* --- Memo -------------------------------------------------------------- *)

let test_memo_basics () =
  let m = Dt_engine.Memo.create () in
  check bool "miss on empty" true (Dt_engine.Memo.find_opt m "k" = None);
  Dt_engine.Memo.add m "k" 42;
  check bool "hit after add" true (Dt_engine.Memo.find_opt m "k" = Some 42);
  check int "hits" 1 (Dt_engine.Memo.hits m);
  check int "misses" 1 (Dt_engine.Memo.misses m);
  check (Alcotest.float 1e-9) "hit rate" 0.5 (Dt_engine.Memo.hit_rate m);
  check int "length" 1 (Dt_engine.Memo.length m);
  Dt_engine.Memo.reset_stats m;
  check int "stats reset, entries kept" 0
    (Dt_engine.Memo.hits m + Dt_engine.Memo.misses m);
  check int "entries kept" 1 (Dt_engine.Memo.length m)

(* --- Key: structural canonicalization ---------------------------------- *)

let key_of ?(hi = 100) ?(facts = "") ?(tag = "P") ~w ~r i =
  let loops = [ loop ~hi i ] in
  Dt_engine.Key.make ~src:(w, loops) ~snk:(r, loops) ~facts ~tag

let test_key_isomorphic () =
  let mk i =
    key_of i
      ~w:(Aref.linear "A" [ av ~c:1 i ])
      ~r:(Aref.linear "A" [ av i ])
  in
  let ki = mk i0 and kk = mk (idx "K") in
  check string "isomorphic queries share a key" ki.Dt_engine.Key.key
    kk.Dt_engine.Key.key;
  check bool "but keep their own index mapping" true
    (List.map snd ki.Dt_engine.Key.actual_of_canon
     <> List.map snd kk.Dt_engine.Key.actual_of_canon)

let test_key_discriminates () =
  let base =
    key_of i0 ~w:(Aref.linear "A" [ av ~c:1 i0 ]) ~r:(Aref.linear "A" [ av i0 ])
  in
  let differs k = k.Dt_engine.Key.key <> base.Dt_engine.Key.key in
  check bool "coefficient change changes the key" true
    (differs
       (key_of i0
          ~w:(Aref.linear "A" [ av ~k:2 ~c:1 i0 ])
          ~r:(Aref.linear "A" [ av i0 ])));
  check bool "constant change changes the key" true
    (differs
       (key_of i0
          ~w:(Aref.linear "A" [ av ~c:2 i0 ])
          ~r:(Aref.linear "A" [ av i0 ])));
  check bool "loop bound change changes the key" true
    (differs
       (key_of ~hi:99 i0
          ~w:(Aref.linear "A" [ av ~c:1 i0 ])
          ~r:(Aref.linear "A" [ av i0 ])));
  check bool "assume facts change the key" true
    (differs
       (key_of ~facts:"N>=1" i0
          ~w:(Aref.linear "A" [ av ~c:1 i0 ])
          ~r:(Aref.linear "A" [ av i0 ])));
  check bool "strategy tag changes the key" true
    (differs
       (key_of ~tag:"S" i0
          ~w:(Aref.linear "A" [ av ~c:1 i0 ])
          ~r:(Aref.linear "A" [ av i0 ])));
  (* nesting depth participates in Index identity, so it must be kept *)
  check bool "index depth changes the key" true
    (differs
       (key_of j1
          ~w:(Aref.linear "A" [ av ~c:1 j1 ])
          ~r:(Aref.linear "A" [ av j1 ])))

let test_facts_digest_order_free () =
  let n = Affine.of_sym "N" and m = Affine.of_sym "M" in
  check string "facts digest is order-independent"
    (Dt_engine.Key.facts_digest [ n; m ])
    (Dt_engine.Key.facts_digest [ m; n ])

(* --- Key: parity with the string-building reference --------------------- *)

module Generator = Dt_workloads.Generator

(* Unit [i] of the miv-batch stream of the end-to-end benchmark
   (bench/e2e/units.ml, [fresh]) *)
let miv_source = E2e_units.fresh

let miv_unit ~seed i = Dt_frontend.Lower.parse_unit (miv_source ~seed i)

let corpus_units () =
  List.map Dt_workloads.Corpus.programs Dt_workloads.Corpus.all

let same_mapping (k : Dt_engine.Key.t) (r : Key_reference.t) =
  List.equal
    (fun (s, i) (s', i') -> String.equal s s' && Index.equal i i')
    k.Dt_engine.Key.actual_of_canon r.Key_reference.actual_of_canon

(* [(new key, reference key)] pairs induce the same classes: one new key
   never meets two reference keys, nor one reference key two new keys.
   Returns the number of classes, or [None] on a split or a merge. *)
let classes_agree pairs =
  let fwd = Hashtbl.create 1024 and bwd = Hashtbl.create 1024 in
  let bind tbl a b =
    match Hashtbl.find_opt tbl a with
    | Some b' -> String.equal b b'
    | None ->
        Hashtbl.add tbl a b;
        true
  in
  if List.for_all (fun (n, r) -> bind fwd n r && bind bwd r n) pairs then
    Some (Hashtbl.length fwd)
  else None

let both_keys ~facts ~tag (src, snk) =
  ( Dt_engine.Key.make ~src ~snk ~facts ~tag,
    Key_reference.make ~src ~snk ~facts ~tag )

let keys_agree keyed =
  List.for_all (fun (k, r) -> same_mapping k r) keyed
  && classes_agree
       (List.map
          (fun ((k : Dt_engine.Key.t), (r : Key_reference.t)) ->
            (k.Dt_engine.Key.key, r.Key_reference.key))
          keyed)
     <> None

(* a random query: Generator nests up to depth 4 (triangular, sometimes
   a symbolic bound), a sink nest that is the same, another draw, or the
   source's outer loops plus one of its own; subscripts over those
   indices and stray ones, with symbolic terms, nonlinear text and
   extreme coefficients *)
let gen_query st =
  let rand lo hi = lo + Random.State.int st (hi - lo + 1) in
  let cfg =
    { Generator.default with
      Generator.max_depth = 4;
      max_bound = 8;
      triangular = true;
      symbolic_hi = Random.State.bool st }
  in
  let src_loops = Generator.loops st cfg in
  let snk_loops =
    match Random.State.int st 3 with
    | 0 -> src_loops
    | 1 -> Generator.loops st cfg
    | _ ->
        let keep =
          Dt_support.Listx.take (rand 0 (List.length src_loops)) src_loops
        in
        keep
        @ [ Loop.make
              (Index.make "P" ~depth:(List.length keep))
              ~lo:(Affine.const 1)
              ~hi:(Affine.const (rand 2 8)) ]
  in
  (* now and then enough stray indices to pass ten canonical ids, and
     the precomputed canonical names *)
  let strays = if Random.State.int st 20 = 0 then rand 8 40 else rand 0 2 in
  let pool =
    Index.Set.elements
      (Index.Set.of_list
         (List.map (fun (l : Loop.t) -> l.Loop.index) (src_loops @ snk_loops)
         @ List.init strays (fun k ->
               Index.make ("S" ^ string_of_int k) ~depth:(rand 0 5))))
  in
  let coeff () =
    match Random.State.int st 16 with
    | 0 -> min_int
    | 1 -> max_int
    | _ -> rand (-3) 3
  in
  let nonlinear = [| "I*J"; "IDX(I)"; "\"|,]["; "N1:"; ""; "%0" |] in
  let sub () =
    if Random.State.int st 10 = 0 then
      Aref.Nonlinear nonlinear.(Random.State.int st (Array.length nonlinear))
    else
      let idx =
        List.filter_map
          (fun i -> if Random.State.int st 100 < 45 then Some (i, coeff ()) else None)
          pool
      in
      let sym =
        List.filter_map
          (fun s -> if Random.State.int st 4 = 0 then Some (s, coeff ()) else None)
          [ "M"; "N"; "N2" ]
      in
      Aref.Linear (Affine.make ~idx ~sym ~const:(coeff ()))
  in
  let rank = rand 1 3 in
  let aref () = Aref.make "A" (List.init rank (fun _ -> sub ())) in
  let src = aref () in
  ((src, src_loops), (aref (), snk_loops))

(* the same query under a fresh injective renaming of its indices
   (depths kept: depth is part of an index's identity) *)
let rename st ((src, src_loops), (snk, snk_loops)) =
  let names = Array.init 48 (fun k -> Printf.sprintf "%c%d" "IJKLPSTXYZ".[k mod 10] (k / 10)) in
  for k = Array.length names - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let t = names.(k) in
    names.(k) <- names.(j);
    names.(j) <- t
  done;
  let tbl = Hashtbl.create 16 and next = ref 0 in
  let ren i =
    match Hashtbl.find_opt tbl i with
    | Some i' -> i'
    | None ->
        let i' = Index.make names.(!next) ~depth:(Index.depth i) in
        incr next;
        Hashtbl.add tbl i i';
        i'
  in
  let aff a =
    Affine.make
      ~idx:(List.map (fun (i, c) -> (ren i, c)) (Affine.index_terms a))
      ~sym:(Affine.sym_terms a) ~const:(Affine.const_part a)
  in
  let aref (r : Aref.t) =
    Aref.make r.Aref.base
      (List.map
         (function
           | Aref.Linear a -> Aref.Linear (aff a) | Aref.Nonlinear s -> Aref.Nonlinear s)
         r.Aref.subs)
  in
  let loops =
    List.map (fun (l : Loop.t) ->
        Loop.make (ren l.Loop.index) ~lo:(aff l.Loop.lo) ~hi:(aff l.Loop.hi))
  in
  ((aref src, loops src_loops), (aref snk, loops snk_loops))

let gen_facts st =
  List.init (Random.State.int st 4) (fun _ ->
      Affine.make ~idx:[]
        ~sym:[ ([| "M"; "N"; "N2" |].(Random.State.int st 3), Random.State.int st 5 - 2) ]
        ~const:(Random.State.int st 21 - 10))

let prop_key_matches_reference =
  qtest ~count:500 "key classes == reference key classes (renamings)"
    (QCheck.make ~print:string_of_int QCheck.Gen.nat)
    (fun seed ->
      let st = Random.State.make [| seed; 0x4b |] in
      let facts_list = gen_facts st in
      let facts = Dt_engine.Key.facts_digest facts_list in
      let tag = if Random.State.bool st then "P" else "S" in
      let q1 = gen_query st and q2 = gen_query st in
      let queries = [ q1; rename st q1; rename st q1; q2; rename st q2 ] in
      String.equal facts (Key_reference.facts_digest facts_list)
      && keys_agree (List.map (both_keys ~facts ~tag) queries))

(* every reference pair the analyzer keys on the corpus and on 64 miv
   units, taken as one population: same classes, same index mappings *)
let test_key_sweep_matches_reference () =
  let units =
    corpus_units () @ List.init 64 (fun i -> miv_unit ~seed:1 i)
  in
  let keyed =
    List.concat_map
      (fun progs ->
        List.concat_map
          (fun prog ->
            Array.to_list (Deptest.Analyze.sites prog)
            |> List.map (fun (site : Deptest.Analyze.site) ->
                   let (a1 : Stmt.access), loops1 = site.Deptest.Analyze.left
                   and (a2 : Stmt.access), loops2 = site.Deptest.Analyze.right in
                   both_keys ~facts:"" ~tag:"P"
                     ((a1.Stmt.aref, loops1), (a2.Stmt.aref, loops2))))
          progs)
      units
  in
  check bool "every site keeps the reference index mapping" true
    (List.for_all (fun (k, r) -> same_mapping k r) keyed);
  check bool "the sweep is not trivial" true (List.length keyed > 10_000);
  match
    classes_agree
      (List.map
         (fun ((k : Dt_engine.Key.t), (r : Key_reference.t)) ->
           (k.Dt_engine.Key.key, r.Key_reference.key))
         keyed)
  with
  | Some classes ->
      check bool "classes are shared, not all singletons" true
        (classes < List.length keyed)
  | None -> Alcotest.fail "a new key splits or merges a reference class"

(* --- Per-unit bookkeeping: parity with the references ------------------ *)

(* the corpus sources and the 64 miv units' *)
let sweep_sources () =
  List.map (fun (e : Dt_workloads.Corpus.entry) -> e.Dt_workloads.Corpus.source)
    Dt_workloads.Corpus.all
  @ List.init 64 (fun i -> miv_source ~seed:1 i)

let sweep_sites () =
  List.concat_map
    (fun src ->
      List.concat_map
        (fun prog -> Array.to_list (Deptest.Analyze.sites prog))
        (Dt_frontend.Lower.parse_unit src))
    (sweep_sources ())

(* a sweep's disagreements, [(reference, new)], the first few kept *)
let disagreements () =
  let found = ref [] in
  let note want got =
    if want <> got && List.length !found < 5 then found := (want, got) :: !found
  in
  (note, fun () -> List.rev !found)

let no_disagreement what found =
  check (Alcotest.list (Alcotest.pair string string)) what [] found

(* every statement's text and every subexpression's, as [Lower] and
   [Ast.expr_to_string] write them, equals the [Format] text *)
let test_text_matches_reference () =
  let exprs = ref 0 and stmts = ref 0 in
  let note, found = disagreements () in
  let rec expr e =
    incr exprs;
    note (Text_reference.expr_to_string e) (Dt_frontend.Ast.expr_to_string e);
    match e with
    | Dt_frontend.Ast.Int _ | Dt_frontend.Ast.Var _ -> ()
    | Dt_frontend.Ast.Neg e -> expr e
    | Dt_frontend.Ast.Bin (_, a, b) -> expr a; expr b
    | Dt_frontend.Ast.Ref (_, args) -> List.iter expr args
  in
  let rec texts acc = function
    | Dt_frontend.Ast.Assign { lhs; rhs; _ } ->
        List.iter expr lhs.Dt_frontend.Ast.args;
        expr rhs;
        Text_reference.stmt_text lhs rhs :: acc
    | Dt_frontend.Ast.Do { lo; hi; step; body; _ } ->
        expr lo;
        expr hi;
        Option.iter expr step;
        List.fold_left texts acc body
    | Dt_frontend.Ast.Continue _ -> acc
  in
  List.iter
    (fun src ->
      List.iter
        (fun (ast : Dt_frontend.Ast.program) ->
          let want = List.rev (List.fold_left texts [] ast.Dt_frontend.Ast.body) in
          let got =
            List.map
              (fun ((s : Stmt.t), _) -> s.Stmt.text)
              (Nest.stmts_with_loops (Dt_frontend.Lower.program ast))
          in
          stmts := !stmts + List.length want;
          note (String.concat "\n" want) (String.concat "\n" got))
        (Dt_frontend.Parser.parse_unit src))
    (sweep_sources ());
  no_disagreement "expression and statement texts" (found ());
  check bool "the sweep is not trivial" true (!stmts > 2_000 && !exprs > 20_000)

let component_to_string ((level, v, o) : Deptest.Analyze.component) =
  Printf.sprintf "%s%s%s"
    (match level with None -> "-" | Some k -> string_of_int k)
    (Deptest.Dirvec.to_string v)
    (match o with `Forward -> "f" | `Backward -> "b")

(* every tested pair's components come out in the reference order *)
let test_components_match_reference () =
  let multi = ref 0 in
  let note, found = disagreements () in
  List.iter
    (fun (site : Deptest.Analyze.site) ->
      let (a1 : Stmt.access), loops1 = site.Deptest.Analyze.left
      and (a2 : Stmt.access), loops2 = site.Deptest.Analyze.right in
      match
        (Deptest.Pair_test.test ~src:(a1.Stmt.aref, loops1)
           ~snk:(a2.Stmt.aref, loops2) ())
          .Deptest.Pair_test.result
      with
      | `Independent -> ()
      | `Dependent { Deptest.Pair_test.dirvecs; _ } ->
          let want = Orient_reference.components dirvecs in
          if List.length want > 1 then incr multi;
          note
            (String.concat " " (List.map component_to_string want))
            (String.concat " "
               (List.map component_to_string
                  (Deptest.Analyze.components dirvecs))))
    (sweep_sites ());
  no_disagreement "components" (found ());
  check bool "many pairs have several components" true (!multi > 1_000)

(* the partition results of one site, as the partition-based driver
   computes them: per-subscript results, then each coupled group's *)
let partition_results (site : Deptest.Analyze.site) =
  let (a1 : Stmt.access), loops1 = site.Deptest.Analyze.left
  and (a2 : Stmt.access), loops2 = site.Deptest.Analyze.right in
  let common = Deptest.Pair_test.common_loops loops1 loops2 in
  let loop_indices = List.map (fun (l : Loop.t) -> l.Loop.index) common in
  let all_loops =
    loops1 @ List.filteri (fun k _ -> k >= List.length common) loops2
  in
  let assume = assume_of all_loops and range = range_of all_loops in
  let relevant =
    Index.Set.of_list (List.map (fun (l : Loop.t) -> l.Loop.index) all_loops)
  in
  let spairs =
    if List.length a1.Stmt.aref.Aref.subs <> List.length a2.Stmt.aref.Aref.subs
    then []
    else
      List.concat
        (List.map2
           (fun s1 s2 ->
             match (s1, s2) with
             | Aref.Linear a, Aref.Linear b -> [ Spair.make a b ]
             | _ -> [])
           a1.Stmt.aref.Aref.subs a2.Stmt.aref.Aref.subs)
  in
  let parts =
    try
      let separable =
        match
          Deptest.Subscript_wise.test assume range spairs ~common:loop_indices
        with
        | `Independent _ -> []
        | `Dependent ps -> ps
      in
      let arr = Array.of_list spairs in
      let coupled =
        List.concat_map
          (fun (g : Deptest.Classify.group) ->
            if List.length g.Deptest.Classify.positions < 2 then []
            else
              match
                (Deptest.Delta.test ~loops:all_loops assume range
                   (List.map (fun k -> arr.(k)) g.Deptest.Classify.positions)
                   ~relevant)
                  .Deptest.Delta.verdict
              with
              | `Independent -> []
              | `Dependent ps -> ps)
          (Deptest.Classify.partition ~relevant spairs)
      in
      separable @ coupled
    with Dt_guard.Ops.Overflow -> []
  in
  (loop_indices, parts)

let test_to_dirvecs_matches_reference () =
  let vectors = ref 0 in
  let note, found = disagreements () in
  let text vs = String.concat " " (List.map Deptest.Dirvec.to_string vs) in
  List.iter
    (fun site ->
      let loop_indices, parts = partition_results site in
      List.iter
        (fun (p : Deptest.Presult.t) ->
          (match p with Deptest.Presult.Vectors _ -> incr vectors | _ -> ());
          note
            (text (Presult_reference.to_dirvecs ~loop_indices p))
            (text (Deptest.Presult.to_dirvecs ~loop_indices p)))
        parts)
    (sweep_sites ());
  no_disagreement "to_dirvecs" (found ());
  check bool "many results are joint vectors" true (!vectors > 1_000)

(* the monomorphic comparator orders components as [Stdlib.compare]
   does: random triples of both orientations, vectors of length 0-4
   over all 8 direction sets, the second often one field away from the
   first *)
let prop_compare_component_is_stdlib =
  let sets =
    Array.init 8 (fun r ->
        { Deptest.Direction.lt = r land 4 <> 0; eq = r land 2 <> 0; gt = r land 1 <> 0 })
  in
  qtest ~count:2000 "compare_component == Stdlib.compare"
    (QCheck.make ~print:string_of_int QCheck.Gen.nat)
    (fun seed ->
      let st = Random.State.make [| seed; 0x6f |] in
      let level () =
        if Random.State.int st 4 = 0 then None else Some (Random.State.int st 5)
      in
      let vec () =
        Array.init (Random.State.int st 5) (fun _ -> sets.(Random.State.int st 8))
      in
      let orient () = if Random.State.bool st then `Forward else `Backward in
      let a = (level (), vec (), orient ()) in
      let b =
        let l, v, o = a in
        match Random.State.int st 5 with
        | 0 -> (level (), Array.copy v, o)
        | 1 when Array.length v > 0 ->
            let v = Array.copy v in
            v.(Random.State.int st (Array.length v)) <- sets.(Random.State.int st 8);
            (l, v, o)
        | 2 -> (l, Array.copy v, orient ())
        | _ -> (level (), vec (), orient ())
      in
      let sign c = Int.compare c 0 in
      sign (Deptest.Analyze.compare_component a b) = sign (Stdlib.compare a b)
      && sign (Deptest.Analyze.compare_component b a) = sign (Stdlib.compare b a))

(* --- Counters/Metrics merge laws --------------------------------------- *)

let sample_counters spec =
  let c = Deptest.Counters.create () in
  List.iter
    (fun (k, applied, indep) ->
      for _ = 1 to applied do
        Deptest.Counters.record c k ~indep:false
      done;
      for _ = 1 to indep do
        Deptest.Counters.record c k ~indep:true
      done)
    spec;
  c

let test_counters_merge_laws () =
  let a = sample_counters [ (Deptest.Counters.Ziv_test, 3, 1) ]
  and b = sample_counters [ (Deptest.Counters.Strong_siv, 2, 2) ]
  and c = sample_counters [ (Deptest.Counters.Ziv_test, 1, 0); (Deptest.Counters.Gcd_miv, 5, 1) ] in
  let ( + ) = Deptest.Counters.merge in
  check bool "commutative" true (Deptest.Counters.equal (a + b) (b + a));
  check bool "associative" true
    (Deptest.Counters.equal (a + (b + c)) (a + b + c));
  let zero = Deptest.Counters.create () in
  check bool "identity" true (Deptest.Counters.equal (a + zero) a)

(* sequential accumulation equals any split of the same bumps across
   workers merged in any order — the property the parallel driver's
   deterministic merge rests on *)
let prop_counters_split_merge =
  qtest ~count:200 "sequential counting == split-and-merge"
    (QCheck.make
       (QCheck.Gen.list_size (QCheck.Gen.return 24)
          (QCheck.Gen.pair (QCheck.Gen.int_bound 7) QCheck.Gen.bool)))
    (fun events ->
      let kinds =
        [|
          Deptest.Counters.Ziv_test; Deptest.Counters.Strong_siv;
          Deptest.Counters.Weak_zero_siv; Deptest.Counters.Weak_crossing_siv;
          Deptest.Counters.Exact_siv; Deptest.Counters.Rdiv_test;
          Deptest.Counters.Gcd_miv; Deptest.Counters.Banerjee_miv;
        |]
      in
      let seq = Deptest.Counters.create () in
      List.iter (fun (k, i) -> Deptest.Counters.record seq kinds.(k) ~indep:i) events;
      (* deal the same events round-robin onto 3 workers, merge 2,0,1 *)
      let ws = Array.init 3 (fun _ -> Deptest.Counters.create ()) in
      List.iteri
        (fun n (k, i) -> Deptest.Counters.record ws.(n mod 3) kinds.(k) ~indep:i)
        events;
      let merged =
        Deptest.Counters.merge ws.(2) (Deptest.Counters.merge ws.(0) ws.(1))
      in
      Deptest.Counters.equal seq merged)

let test_metrics_merge () =
  let a = Dt_obs.Metrics.create () and b = Dt_obs.Metrics.create () in
  Dt_obs.Metrics.record a Deptest.Counters.Ziv_test ~indep:true ~ns:100L;
  Dt_obs.Metrics.record b Deptest.Counters.Ziv_test ~indep:false ~ns:50L;
  Dt_obs.Metrics.cache_hit a;
  Dt_obs.Metrics.cache_miss b;
  Dt_obs.Metrics.observe_pair a ~ns:10L;
  let m = Dt_obs.Metrics.merge a b in
  check int "applied summed" 2 (Dt_obs.Metrics.applied m Deptest.Counters.Ziv_test);
  check int "indep summed" 1 (Dt_obs.Metrics.proved_indep m Deptest.Counters.Ziv_test);
  check bool "kind time summed" true
    (Dt_obs.Metrics.kind_ns m Deptest.Counters.Ziv_test = 150L);
  check int "cache hits summed" 1 (Dt_obs.Metrics.cache_hits m);
  check int "cache misses summed" 1 (Dt_obs.Metrics.cache_misses m);
  check int "pairs summed" 1 (Dt_obs.Metrics.pairs m)

(* --- Pair_cache: rehydration correctness ------------------------------- *)

let render_pair (t : Deptest.Pair_test.t) =
  match t.Deptest.Pair_test.result with
  | `Independent -> "independent"
  | `Dependent info ->
      Format.asprintf "%a |%a"
        (Format.pp_print_list Deptest.Dirvec.pp)
        info.Deptest.Pair_test.dirvecs
        (Format.pp_print_list (fun ppf (ix, d) ->
             Format.fprintf ppf " %s@%d:%a" ix.Index.name ix.Index.depth
               Deptest.Outcome.pp_dist d))
        info.Deptest.Pair_test.distances

(* a cache hit on an isomorphic (renamed-index) query must yield exactly
   what a fresh computation on that query yields, counters included *)
let test_cache_rehydration () =
  let query i =
    let loops = [ loop ~hi:100 i ] in
    ( (Aref.linear "A" [ av ~c:2 i ], loops),
      (Aref.linear "A" [ av i ], loops) )
  in
  let cache = Deptest.Pair_cache.create () in
  (* producer: index I *)
  let (src_i, snk_i) = query i0 in
  let k_i = Dt_engine.Key.make ~src:src_i ~snk:snk_i ~facts:"" ~tag:"P" in
  let prod_counters = Deptest.Counters.create () in
  let t_i = Deptest.Pair_test.test ~counters:prod_counters ~src:src_i ~snk:snk_i () in
  Deptest.Pair_cache.store cache k_i ~counters:prod_counters t_i;
  (* consumer: same shape under index K *)
  let (src_k, snk_k) = query (idx "K") in
  let k_k = Dt_engine.Key.make ~src:src_k ~snk:snk_k ~facts:"" ~tag:"P" in
  check string "isomorphic query hits the same slot" k_i.Dt_engine.Key.key
    k_k.Dt_engine.Key.key;
  let hit_counters = Deptest.Counters.create () in
  (match Deptest.Pair_cache.find cache k_k ~counters:hit_counters with
  | None -> Alcotest.fail "expected a cache hit"
  | Some cached ->
      let fresh_counters = Deptest.Counters.create () in
      let fresh =
        Deptest.Pair_test.test ~counters:fresh_counters ~src:src_k ~snk:snk_k ()
      in
      check string "hit equals fresh computation (indices rehydrated)"
        (render_pair fresh) (render_pair cached);
      check bool "replayed counters equal fresh counters" true
        (Deptest.Counters.equal fresh_counters hit_counters));
  check int "one hit recorded" 1 (Deptest.Pair_cache.hits cache)

(* a run-level assume fact can change the verdict, so it must change the
   key: A(I+N) vs A(I) with N bound large is independent, unknown N is not *)
let test_cache_facts_invalidate () =
  let loops = [ loop ~hi:10 i0 ] in
  let w = Aref.linear "A" [ Affine.add (av i0) (Affine.of_sym "N") ] in
  let r = Aref.linear "A" [ av i0 ] in
  let digest_none = Dt_engine.Key.facts_digest [] in
  let digest_n =
    Dt_engine.Key.facts_digest [ Affine.add_const (-100) (Affine.of_sym "N") ]
  in
  check bool "fact digests differ" true (digest_none <> digest_n);
  let k1 =
    Dt_engine.Key.make ~src:(w, loops) ~snk:(r, loops) ~facts:digest_none
      ~tag:"P"
  and k2 =
    Dt_engine.Key.make ~src:(w, loops) ~snk:(r, loops) ~facts:digest_n ~tag:"P"
  in
  check bool "assume facts partition the cache" true
    (k1.Dt_engine.Key.key <> k2.Dt_engine.Key.key)

(* --- Analyze: engine configuration ------------------------------------- *)

let render_result cfg prog =
  let r = Deptest.Analyze.run cfg prog in
  Format.asprintf "%a|%a"
    (Format.pp_print_list (fun ppf d -> Format.fprintf ppf "%a;" Deptest.Dep.pp d))
    r.Deptest.Analyze.deps Deptest.Counters.pp r.Deptest.Analyze.counters

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

(* s statements over one array in a 2-deep nest, ~1.5*s^2 coupled
   reference pairs: at s = 64 (6176 pairs) large enough to cross the
   engine's sequential-fallback grain *)
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
          ~text:
            (Printf.sprintf "A(I+%d,I+J-%d) = A(I+%d,I+J-%d+1)" (k mod 5) k
               ((k + 2) mod 5) k)
          ())
  in
  Nest.program ~name:(Printf.sprintf "synthetic-%d" s)
    [ Nest.Loop (li, [ Nest.Loop (lj, List.map (fun st -> Nest.Stmt st) stmts) ]) ]

(* the wavefront nest, the whole corpus and the 64-statement synthetic
   nest, one configuration per setting over each whole input, so a
   cache-on setting shares its memo across the corpus routines. The
   synthetic nest, at ~50 ms a setting, runs the two cache-off settings
   with more than one worker. *)
let test_analyze_jobs_parity () =
  let render cfg progs = String.concat "" (List.map (render_result cfg) progs) in
  List.iter
    (fun (name, progs, settings) ->
      let base =
        render (Deptest.Analyze.Config.make ~jobs:1 ~cache:false ()) progs
      in
      List.iter
        (fun (jobs, cache) ->
          check string
            (Printf.sprintf "%s: jobs=%d cache=%b matches sequential" name jobs
               cache)
            base
            (render (Deptest.Analyze.Config.make ~jobs ~cache ()) progs))
        settings)
    [
      ( "wavefront",
        [ wavefront ],
        [ (2, false); (4, false); (1, true); (4, true); (0, true) ] );
      ( "corpus",
        List.concat (corpus_units ()),
        [ (2, false); (4, false); (1, true); (2, true); (4, true) ] );
      ("synthetic-64", [ synthetic_nest 64 ], [ (2, false); (4, false) ]);
    ]

let test_analyze_cache_hits () =
  let cfg = Deptest.Analyze.Config.make ~jobs:1 () in
  let first = render_result cfg wavefront in
  let stats0 = Deptest.Analyze.Config.cache_stats cfg in
  check bool "stats exposed when the cache is on" true (stats0 <> None);
  let second = render_result cfg wavefront in
  check string "warm-cache rerun identical" first second;
  (match Deptest.Analyze.Config.cache_stats cfg with
  | Some (hits, _) ->
      check bool "second pass hit the cache" true (hits > 0);
      (match Deptest.Analyze.Config.cache_hit_rate cfg with
      | Some rate -> check bool "hit rate positive" true (rate > 0.0)
      | None -> Alcotest.fail "hit rate should be available")
  | None -> Alcotest.fail "cache stats should be available");
  check bool "cache-off config exposes no stats" true
    (Deptest.Analyze.Config.cache_stats
       (Deptest.Analyze.Config.make ~cache:false ())
    = None)

let test_analyze_metrics_cache_counts () =
  let metrics = Dt_obs.Metrics.create () in
  let cfg = Deptest.Analyze.Config.make ~jobs:1 ~metrics () in
  ignore (Deptest.Analyze.run cfg wavefront);
  ignore (Deptest.Analyze.run cfg wavefront);
  let total = Dt_obs.Metrics.cache_hits metrics + Dt_obs.Metrics.cache_misses metrics in
  check bool "every lookup counted" true (total > 0);
  check bool "warm pass counted as hits" true (Dt_obs.Metrics.cache_hits metrics > 0);
  (* the JSON snapshot carries the cache block *)
  match Dt_obs.Json.member "cache" (Dt_obs.Metrics.to_json metrics) with
  | Some obj ->
      check bool "cache.hits in JSON" true
        (Option.bind (Dt_obs.Json.member "hits" obj) Dt_obs.Json.to_int
        = Some (Dt_obs.Metrics.cache_hits metrics))
  | None -> Alcotest.fail "metrics JSON should include the cache block"

let test_run_all_matches_run () =
  (* routine sharding is an engine concern: [run_all] must agree with
     mapping [run] over the batch, per-routine counters included *)
  let progs = [ wavefront; wavefront; wavefront; wavefront ] in
  let cfg jobs = Deptest.Analyze.Config.make ~jobs ~cache:false () in
  let seq = List.map (Deptest.Analyze.run (cfg 1)) progs in
  let sharded = Deptest.Analyze.run_all (cfg 3) progs in
  check int "one result per routine" (List.length seq) (List.length sharded);
  List.iter2
    (fun (a : Deptest.Analyze.result) (b : Deptest.Analyze.result) ->
      check bool "same deps" true (a.deps = b.deps);
      check bool "same pair records" true (a.pairs = b.pairs);
      check bool "same counters" true (Deptest.Counters.equal a.counters b.counters))
    seq sharded

(* byte-parity over a generated thousand-routine corpus: every jobs
   setting must render the identical analysis. Seeded generation, half
   the routines with a symbolic outer bound. Two inputs:
   - 3 statements per routine, rendering deps, pair records and
     counters. [golden] is the jobs=1 digest recorded when the analyzer
     could still route Banerjee queries to [Reference]: at that commit
     the from-scratch, compiled and per-query-dispatched runs all matched
     it at jobs 1, 2 and 4.
   - 4 statements per routine, named, rendering each name, its deps and
     its counters: the corpus bench/main.ml's jobs gate times. Its
     golden is the digest the bench recorded at jobs 1 and checked at
     jobs 2 and 4 before this check moved here; all three are pinned. *)
let thousand_routines ~stmts =
  let routines = 1000 in
  let st = Random.State.make [| 0xD09; routines |] in
  let sym =
    { Dt_workloads.Generator.default with
      Dt_workloads.Generator.symbolic_hi = true }
  in
  List.init routines (fun k ->
      let gcfg = if k mod 2 = 0 then Dt_workloads.Generator.default else sym in
      let p = Dt_workloads.Generator.program st gcfg ~stmts in
      { p with Nest.name = Printf.sprintf "gen-%04d" k })

let test_corpus_jobs_parity () =
  let golden = "e700f6e2bb1a8f17ac9e609d48dba99a" in
  let progs = thousand_routines ~stmts:3 in
  let render ~jobs ~cache =
    let cfg = Deptest.Analyze.Config.make ~jobs ~cache () in
    let buf = Buffer.create (1 lsl 16) in
    List.iter
      (fun (r : Deptest.Analyze.result) ->
        List.iter
          (fun d ->
            Buffer.add_string buf (Format.asprintf "%a@." Deptest.Dep.pp d))
          r.Deptest.Analyze.deps;
        List.iter
          (fun (p : Deptest.Analyze.pair_record) ->
            Buffer.add_string buf
              (Printf.sprintf "%s %d %d %b\n" p.Deptest.Analyze.array
                 p.Deptest.Analyze.src_stmt p.Deptest.Analyze.snk_stmt
                 p.Deptest.Analyze.independent))
          r.Deptest.Analyze.pairs;
        Buffer.add_string buf
          (Format.asprintf "%a@." Deptest.Counters.pp
             r.Deptest.Analyze.counters))
      (Deptest.Analyze.run_all cfg progs);
    (Digest.to_hex (Digest.string (Buffer.contents buf)),
     Deptest.Analyze.Config.cache_stats cfg)
  in
  List.iter
    (fun (jobs, cache) ->
      let digest, stats = render ~jobs ~cache in
      check string
        (Printf.sprintf "jobs=%d cache=%b renders the golden bytes" jobs cache)
        golden digest;
      (* the memo hits of a sequential run are a pure function of the
         keys: pinned so that a key change cannot quietly lose them *)
      if jobs = 1 && cache then
        check int "jobs=1 memo hits" 191 (Option.fold ~none:(-1) ~some:fst stats))
    [ (1, false); (2, false); (4, false); (1, true); (2, true); (4, true) ];
  let progs4 = thousand_routines ~stmts:4 in
  List.iter
    (fun jobs ->
      let buf = Buffer.create (1 lsl 16) in
      List.iter2
        (fun (p : Nest.program) (r : Deptest.Analyze.result) ->
          Buffer.add_string buf (p.Nest.name ^ "\n");
          List.iter
            (fun d ->
              Buffer.add_string buf (Format.asprintf "%a@." Deptest.Dep.pp d))
            r.Deptest.Analyze.deps;
          Buffer.add_string buf
            (Format.asprintf "%a@." Deptest.Counters.pp
               r.Deptest.Analyze.counters))
        progs4
        (Deptest.Analyze.run_all
           (Deptest.Analyze.Config.make ~jobs ~cache:false ())
           progs4);
      check string
        (Printf.sprintf "4 statements, jobs=%d: renders the golden bytes" jobs)
        "21309830e26d29150dea20f308a3dbcd"
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [ 1; 2; 4 ]

(* cache reuse over whole workloads through one cache-on configuration
   at jobs 1: the hit and miss counts are exact, so a key that splits or
   merges a class moves them *)
let check_reuse name units ~hits ~misses =
  let cfg = Deptest.Analyze.Config.make ~jobs:1 ~cache:true () in
  List.iter (fun progs -> ignore (Deptest.Analyze.run_all cfg progs)) units;
  check (Alcotest.option (Alcotest.pair int int))
    (name ^ ": memo hits and misses")
    (Some (hits, misses))
    (Deptest.Analyze.Config.cache_stats cfg)

let test_reuse_corpus () =
  check_reuse "corpus units" (corpus_units ()) ~hits:238 ~misses:241

let test_reuse_miv () =
  check_reuse "seed-1 miv units"
    (List.init 64 (fun i -> miv_unit ~seed:1 i))
    ~hits:247 ~misses:14_733

(* --- Explain parity -------------------------------------------------------- *)

(* the [--explain] tree over the corpus and the 64 seed-1 miv units, at
   jobs 1 with the cache off, pinned byte for byte except for the
   inconclusive GCD lines: the digest predates tracing those outside the
   Delta test *)
let gcd_inconclusive line =
  let l = String.trim line in
  String.starts_with ~prefix:"GCD " l
  && Astring_contains.contains l ": inconclusive — "

let explain_text () =
  let out = Buffer.create (1 lsl 20) and dropped = ref 0 in
  List.iter
    (List.iter (fun prog ->
         let sink = Dt_obs.Trace.make () in
         let cfg = Deptest.Analyze.Config.make ~jobs:1 ~cache:false ~sink () in
         ignore (Deptest.Analyze.run cfg prog);
         let text = Format.asprintf "%a" Dt_obs.Trace.pp_tree sink in
         List.iter
           (fun line ->
             if gcd_inconclusive line then incr dropped
             else if line <> "" then begin
               Buffer.add_string out line;
               Buffer.add_char out '\n'
             end)
           (String.split_on_char '\n' text)))
    (corpus_units () @ List.init 64 (fun i -> miv_unit ~seed:1 i));
  (Buffer.contents out, !dropped)

let test_explain_golden () =
  let text, _ = explain_text () in
  check string "explain tree MD5 without inconclusive GCD lines"
    "b738c5f5c4e596af4fa5ab4fbb584d80" (Digest.to_hex (Digest.string text))

let suite =
  [
    Alcotest.test_case "pool covers every index once" `Quick test_pool_covers_all;
    Alcotest.test_case "pool sequential fallback" `Quick test_pool_sequential;
    Alcotest.test_case "pool propagates body exceptions" `Quick test_pool_exception;
    Alcotest.test_case "pool empty range" `Quick test_pool_empty;
    Alcotest.test_case "deque: owner pops LIFO" `Quick test_deque_owner_lifo;
    Alcotest.test_case "deque: thieves steal FIFO" `Quick test_deque_steal_fifo;
    Alcotest.test_case "deque: ring growth is lossless" `Quick test_deque_grows;
    Alcotest.test_case "deque: concurrent steal, no loss or dup" `Quick
      test_deque_concurrent_steal;
    Alcotest.test_case "memo table basics" `Quick test_memo_basics;
    Alcotest.test_case "key: isomorphic queries coincide" `Quick test_key_isomorphic;
    Alcotest.test_case "key: structural changes discriminate" `Quick test_key_discriminates;
    Alcotest.test_case "key: facts digest order-free" `Quick test_facts_digest_order_free;
    prop_key_matches_reference;
    Alcotest.test_case "key: corpus and miv sites match the reference" `Quick
      test_key_sweep_matches_reference;
    Alcotest.test_case "counters merge laws" `Quick test_counters_merge_laws;
    prop_counters_split_merge;
    Alcotest.test_case "metrics merge + cache counters" `Quick test_metrics_merge;
    Alcotest.test_case "cache hit == fresh compute (rehydrated)" `Quick
      test_cache_rehydration;
    Alcotest.test_case "assume facts invalidate the key" `Quick
      test_cache_facts_invalidate;
    Alcotest.test_case "jobs/cache parity on a wavefront nest" `Quick
      test_analyze_jobs_parity;
    Alcotest.test_case "config cache statistics" `Quick test_analyze_cache_hits;
    Alcotest.test_case "metrics count cache traffic" `Quick
      test_analyze_metrics_cache_counts;
    Alcotest.test_case "run_all agrees with run" `Quick test_run_all_matches_run;
    Alcotest.test_case "thousand-routine jobs byte parity" `Slow
      test_corpus_jobs_parity;
    Alcotest.test_case "cache reuse: corpus 238 hits / 241 misses" `Quick
      test_reuse_corpus;
    Alcotest.test_case "cache reuse: miv 247 hits / 14733 misses" `Quick
      test_reuse_miv;
    Alcotest.test_case "pool idle worker leaves once all is claimed" `Quick
      test_pool_idle_worker_leaves_early;
    Alcotest.test_case "statement text == Format reference" `Quick
      test_text_matches_reference;
    Alcotest.test_case "orient components == Stdlib.compare dedup" `Quick
      test_components_match_reference;
    Alcotest.test_case "to_dirvecs == List.nth reference" `Quick
      test_to_dirvecs_matches_reference;
    prop_compare_component_is_stdlib;
    Alcotest.test_case "explain tree golden: corpus and miv units" `Quick
      test_explain_golden;
  ]
