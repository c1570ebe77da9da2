open Dt_ir

module Memo = Dt_engine.Memo

type entry = {
  result : Pair_test.t;
  counters : Counters.t;  (* the producing run's increments, replayed on hit *)
  producer : (string * Index.t) list;  (* canonical name -> producer index *)
}

type t = entry Memo.t

let create ?capacity () = Memo.create ?capacity ()

(* ------------------------------------------------------------------ *)
(* rehydration: translate the producer's result into the consumer's
   index space through the shared canonical form                       *)

(* The driver tick-renames sink-side indices that collide with source
   ones (I -> I'); those derived names are canonical-name + quotes, so we
   translate them by stripping the quotes, mapping the base, and
   re-applying them. *)
let split_quotes name =
  let n = String.length name in
  let rec base i = if i > 0 && name.[i - 1] = '\'' then base (i - 1) else i in
  let b = base n in
  (String.sub name 0 b, n - b)

let translator ~(producer : (string * Index.t) list)
    ~(consumer : (string * Index.t) list) =
  (* both lists come from the same key, so the canonical names align
     positionally *)
  let tbl = Hashtbl.create 8 in
  let identity = ref true in
  List.iter2
    (fun (_, p) (_, c) ->
      if not (Index.equal p c) then identity := false;
      Hashtbl.replace tbl p c)
    producer consumer;
  if !identity then None
  else
    Some
      (fun (i : Index.t) ->
        match Hashtbl.find_opt tbl i with
        | Some j -> j
        | None -> (
            let base, quotes = split_quotes (Index.name i) in
            if quotes = 0 then i
            else
              match
                Hashtbl.find_opt tbl (Index.make base ~depth:(Index.depth i))
              with
              | Some j ->
                  Index.make
                    (Index.name j ^ String.make quotes '\'')
                    ~depth:(Index.depth j)
              | None -> i))

let tr_affine tr a =
  Affine.make
    ~idx:(List.map (fun (i, c) -> (tr i, c)) (Affine.index_terms a))
    ~sym:(Affine.sym_terms a) ~const:(Affine.const_part a)

let tr_dist tr = function
  | Outcome.Const _ as d -> d
  | Outcome.Unknown as d -> d
  | Outcome.Sym a -> Outcome.Sym (tr_affine tr a)

let tr_class tr = function
  | Classify.Ziv -> Classify.Ziv
  | Classify.Siv { index; kind } -> Classify.Siv { index = tr index; kind }
  | Classify.Rdiv { src_index; snk_index } ->
      Classify.Rdiv { src_index = tr src_index; snk_index = tr snk_index }
  | Classify.Miv s -> Classify.Miv (Index.Set.map tr s)

let tr_result tr (r : Pair_test.t) : Pair_test.t =
  let result =
    match r.Pair_test.result with
    | `Independent -> `Independent
    | `Dependent { Pair_test.dirvecs; distances } ->
        `Dependent
          {
            (* direction vectors are positional over the common loops:
               copy (they are mutable arrays), no renaming needed *)
            Pair_test.dirvecs = List.map Array.copy dirvecs;
            distances =
              List.map (fun (i, d) -> (tr i, tr_dist tr d)) distances;
          }
  in
  let meta =
    { r.Pair_test.meta with
      Pair_test.classes = List.map (tr_class tr) r.Pair_test.meta.Pair_test.classes
    }
  in
  { Pair_test.result; meta }

(* copy without renaming: never hand out the cached mutable arrays *)
let copy_result (r : Pair_test.t) : Pair_test.t =
  match r.Pair_test.result with
  | `Independent -> r
  | `Dependent ({ Pair_test.dirvecs; _ } as info) ->
      {
        r with
        Pair_test.result =
          `Dependent { info with Pair_test.dirvecs = List.map Array.copy dirvecs };
      }

(* ------------------------------------------------------------------ *)

let rehydrate e (key : Dt_engine.Key.t) ~counters =
  Counters.merge_into counters e.counters;
  match
    translator ~producer:e.producer ~consumer:key.Dt_engine.Key.actual_of_canon
  with
  | None -> copy_result e.result
  | Some tr -> tr_result tr e.result

let find t (key : Dt_engine.Key.t) ~counters =
  Option.map
    (fun e -> rehydrate e key ~counters)
    (Memo.find_opt t key.Dt_engine.Key.key)

let store t (key : Dt_engine.Key.t) ~counters result =
  Memo.add t key.Dt_engine.Key.key
    { result; counters; producer = key.Dt_engine.Key.actual_of_canon }

let hits = Memo.hits
let misses = Memo.misses
let hit_rate = Memo.hit_rate
let length = Memo.length
let evictions = Memo.evictions
