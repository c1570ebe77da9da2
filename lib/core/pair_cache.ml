open Dt_ir

module Memo = Dt_engine.Memo
module Store = Dt_engine.Store
module Json = Dt_obs.Json

type entry = {
  result : Pair_test.t;
  counters : Counters.t;  (* the producing run's increments, replayed on hit *)
  producer : (string * Index.t) list;  (* canonical name -> producer index *)
}

type t = {
  memo : entry Memo.t;
  disk : Store.t option;  (* cross-run tier under the in-process memo *)
}

let create ?capacity ?disk () = { memo = Memo.create ?capacity (); disk }

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
(* JSON codec for the disk tier. Encoding is total on non-degraded
   entries; decoding validates every field and refuses anything it does
   not recognize — a corrupt or foreign value is reported invalid and
   re-derived cold, never trusted. *)

exception Bad

let enc_index i =
  Json.List [ Json.String (Index.name i); Json.Int (Index.depth i) ]

let dec_index = function
  | Json.List [ Json.String name; Json.Int depth ] -> Index.make name ~depth
  | _ -> raise Bad

let enc_affine a =
  Json.Obj
    [
      ( "idx",
        Json.List
          (List.map
             (fun (i, c) -> Json.List [ enc_index i; Json.Int c ])
             (Affine.index_terms a)) );
      ( "sym",
        Json.List
          (List.map
             (fun (s, c) -> Json.List [ Json.String s; Json.Int c ])
             (Affine.sym_terms a)) );
      ("const", Json.Int (Affine.const_part a));
    ]

let dec_list f = function Json.List l -> List.map f l | _ -> raise Bad

let dec_affine json =
  match
    (Json.member "idx" json, Json.member "sym" json, Json.member "const" json)
  with
  | Some idx, Some sym, Some (Json.Int const) ->
      let idx =
        dec_list
          (function
            | Json.List [ i; Json.Int c ] -> (dec_index i, c) | _ -> raise Bad)
          idx
      in
      let sym =
        dec_list
          (function
            | Json.List [ Json.String s; Json.Int c ] -> (s, c)
            | _ -> raise Bad)
          sym
      in
      Affine.make ~idx ~sym ~const
  | _ -> raise Bad

let enc_dirs (s : Direction.set) =
  let buf = Buffer.create 3 in
  List.iter
    (fun d ->
      Buffer.add_string buf
        (match d with Direction.Lt -> "<" | Direction.Eq -> "=" | Direction.Gt -> ">"))
    (Direction.elements s);
  Json.String (Buffer.contents buf)

let dec_dirs = function
  | Json.String s ->
      Direction.of_list
        (List.init (String.length s) (fun i ->
             match s.[i] with
             | '<' -> Direction.Lt
             | '=' -> Direction.Eq
             | '>' -> Direction.Gt
             | _ -> raise Bad))
  | _ -> raise Bad

let enc_dist = function
  | Outcome.Const c -> Json.Obj [ ("const", Json.Int c) ]
  | Outcome.Sym a -> Json.Obj [ ("sym", enc_affine a) ]
  | Outcome.Unknown -> Json.String "unknown"

let dec_dist = function
  | Json.String "unknown" -> Outcome.Unknown
  | Json.Obj [ ("const", Json.Int c) ] -> Outcome.Const c
  | Json.Obj [ ("sym", a) ] -> Outcome.Sym (dec_affine a)
  | _ -> raise Bad

let siv_kind_slug = function
  | Classify.Strong -> "strong"
  | Classify.Weak_zero -> "weak_zero"
  | Classify.Weak_crossing -> "weak_crossing"
  | Classify.General -> "general"

let siv_kind_of_slug = function
  | "strong" -> Classify.Strong
  | "weak_zero" -> Classify.Weak_zero
  | "weak_crossing" -> Classify.Weak_crossing
  | "general" -> Classify.General
  | _ -> raise Bad

let enc_class = function
  | Classify.Ziv -> Json.String "ziv"
  | Classify.Siv { index; kind } ->
      Json.Obj
        [
          ( "siv",
            Json.Obj
              [
                ("index", enc_index index);
                ("kind", Json.String (siv_kind_slug kind));
              ] );
        ]
  | Classify.Rdiv { src_index; snk_index } ->
      Json.Obj
        [
          ( "rdiv",
            Json.Obj
              [ ("src", enc_index src_index); ("snk", enc_index snk_index) ] );
        ]
  | Classify.Miv s ->
      Json.Obj
        [ ("miv", Json.List (List.map enc_index (Index.Set.elements s))) ]

let dec_class = function
  | Json.String "ziv" -> Classify.Ziv
  | Json.Obj [ ("siv", fields) ] -> (
      match (Json.member "index" fields, Json.member "kind" fields) with
      | Some i, Some (Json.String k) ->
          Classify.Siv { index = dec_index i; kind = siv_kind_of_slug k }
      | _ -> raise Bad)
  | Json.Obj [ ("rdiv", fields) ] -> (
      match (Json.member "src" fields, Json.member "snk" fields) with
      | Some s, Some k ->
          Classify.Rdiv { src_index = dec_index s; snk_index = dec_index k }
      | _ -> raise Bad)
  | Json.Obj [ ("miv", ixs) ] ->
      Classify.Miv (Index.Set.of_list (dec_list dec_index ixs))
  | _ -> raise Bad

let enc_result (r : Pair_test.t) =
  match r.Pair_test.result with
  | `Independent -> Json.String "indep"
  | `Dependent { Pair_test.dirvecs; distances } ->
      Json.Obj
        [
          ( "dirvecs",
            Json.List
              (List.map
                 (fun dv ->
                   Json.List (Array.to_list (Array.map enc_dirs dv)))
                 dirvecs) );
          ( "distances",
            Json.List
              (List.map
                 (fun (i, d) -> Json.List [ enc_index i; enc_dist d ])
                 distances) );
        ]

let dec_result = function
  | Json.String "indep" -> `Independent
  | json -> (
      match (Json.member "dirvecs" json, Json.member "distances" json) with
      | Some dvs, Some dists ->
          `Dependent
            {
              Pair_test.dirvecs =
                dec_list
                  (function
                    | Json.List sets ->
                        Array.of_list (List.map dec_dirs sets)
                    | _ -> raise Bad)
                  dvs;
              distances =
                dec_list
                  (function
                    | Json.List [ i; d ] -> (dec_index i, dec_dist d)
                    | _ -> raise Bad)
                  dists;
            }
      | _ -> raise Bad)

let enc_meta (m : Pair_test.meta) =
  Json.Obj
    [
      ("dims", Json.Int m.Pair_test.dims);
      ("nonlinear", Json.Int m.Pair_test.nonlinear);
      ("separable", Json.Int m.Pair_test.separable);
      ("coupled_groups", Json.Int m.Pair_test.coupled_groups);
      ("coupled_positions", Json.Int m.Pair_test.coupled_positions);
      ("classes", Json.List (List.map enc_class m.Pair_test.classes));
      ("delta_passes", Json.Int m.Pair_test.delta_passes);
      ("delta_leftover_miv", Json.Int m.Pair_test.delta_leftover_miv);
      ( "proved_by",
        match m.Pair_test.proved_by with
        | None -> Json.Null
        | Some k -> Json.String (Dt_obs.Test_kind.slug k) );
    ]

let dec_int json name =
  match Json.member name json with Some (Json.Int i) -> i | _ -> raise Bad

let dec_meta json : Pair_test.meta =
  let classes =
    match Json.member "classes" json with
    | Some l -> dec_list dec_class l
    | None -> raise Bad
  in
  let proved_by =
    match Json.member "proved_by" json with
    | Some Json.Null -> None
    | Some (Json.String s) -> (
        match Dt_obs.Test_kind.of_slug s with
        | Some k -> Some k
        | None -> raise Bad)
    | _ -> raise Bad
  in
  {
    Pair_test.dims = dec_int json "dims";
    nonlinear = dec_int json "nonlinear";
    separable = dec_int json "separable";
    coupled_groups = dec_int json "coupled_groups";
    coupled_positions = dec_int json "coupled_positions";
    classes;
    delta_passes = dec_int json "delta_passes";
    delta_leftover_miv = dec_int json "delta_leftover_miv";
    proved_by;
    (* degraded results are filtered before encoding; anything decoded
       is by construction non-degraded *)
    degraded = None;
  }

let enc_counters c =
  Json.List
    (List.filter_map
       (fun k ->
         let applied = Counters.applied c k in
         if applied = 0 then None
         else
           Some
             (Json.List
                [
                  Json.String (Dt_obs.Test_kind.slug k);
                  Json.Int applied;
                  Json.Int (Counters.proved_indep c k);
                ]))
       Counters.all_kinds)

let dec_counters json =
  let c = Counters.create () in
  List.iter
    (function
      | Json.List [ Json.String slug; Json.Int applied; Json.Int indep ] -> (
          match Dt_obs.Test_kind.of_slug slug with
          | Some k when 0 <= indep && indep <= applied ->
              for _ = 1 to indep do
                Counters.record c k ~indep:true
              done;
              for _ = 1 to applied - indep do
                Counters.record c k ~indep:false
              done
          | _ -> raise Bad)
      | _ -> raise Bad)
    (match json with Json.List l -> l | _ -> raise Bad);
  c

let encode_entry e =
  Json.Obj
    [
      ("result", enc_result e.result);
      ("meta", enc_meta e.result.Pair_test.meta);
      ("counters", enc_counters e.counters);
      ( "producer",
        Json.List
          (List.map
             (fun (canon, i) -> Json.List [ Json.String canon; enc_index i ])
             e.producer) );
    ]

let decode_entry json =
  match
    ( Json.member "result" json,
      Json.member "meta" json,
      Json.member "counters" json,
      Json.member "producer" json )
  with
  | Some result, Some meta, Some counters, Some producer -> (
      try
        Some
          {
            result =
              { Pair_test.result = dec_result result; meta = dec_meta meta };
            counters = dec_counters counters;
            producer =
              dec_list
                (function
                  | Json.List [ Json.String canon; i ] -> (canon, dec_index i)
                  | _ -> raise Bad)
                producer;
          }
      with Bad -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)

let disk_key (key : Dt_engine.Key.t) = "p:" ^ key.Dt_engine.Key.key

let rehydrate e (key : Dt_engine.Key.t) ~counters =
  Counters.merge_into counters e.counters;
  match
    translator ~producer:e.producer ~consumer:key.Dt_engine.Key.actual_of_canon
  with
  | None -> copy_result e.result
  | Some tr -> tr_result tr e.result

let find t (key : Dt_engine.Key.t) ~counters =
  match Memo.find_opt t.memo key.Dt_engine.Key.key with
  | Some e -> Some (rehydrate e key ~counters)
  | None -> (
      match t.disk with
      | None -> None
      | Some store -> (
          match Store.find store (disk_key key) with
          | None -> None
          | Some text -> (
              let decoded =
                match Json.of_string text with
                | Ok json -> decode_entry json
                | Error _ -> None
              in
              match decoded with
              | Some e ->
                  (* promote to the memo tier so later hits skip the
                     decode; producer mapping carries over verbatim *)
                  Memo.add t.memo key.Dt_engine.Key.key e;
                  Some (rehydrate e key ~counters)
              | None ->
                  (* undecodable payload: count it, drop it, recompute —
                     never trust a value that fails validation *)
                  Store.note_invalid store;
                  Store.remove store (disk_key key);
                  None)))

let store t (key : Dt_engine.Key.t) ~counters result =
  let e = { result; counters; producer = key.Dt_engine.Key.actual_of_canon } in
  Memo.add t.memo key.Dt_engine.Key.key e;
  match t.disk with
  | None -> ()
  | Some store ->
      (* belt and braces: the engine already refuses to cache degraded
         results, but the persistent tier re-checks — a degraded verdict
         must never outlive the run that produced it *)
      if result.Pair_test.meta.Pair_test.degraded = None then
        Store.add store (disk_key key) (Json.to_string (encode_entry e))

let hits t = Memo.hits t.memo
let misses t = Memo.misses t.memo
let hit_rate t = Memo.hit_rate t.memo
let length t = Memo.length t.memo
let evictions t = Memo.evictions t.memo

let disk_hits t = match t.disk with None -> 0 | Some s -> Store.hits s
let disk_misses t = match t.disk with None -> 0 | Some s -> Store.misses s
let disk_invalid t = match t.disk with None -> 0 | Some s -> Store.invalid s
let flush t = match t.disk with None -> 0 | Some s -> Store.flush s
