open Dt_ir
open Dt_support
module Ops = Dt_guard.Ops

let inject_node = Dt_guard.Inject.register "banerjee.node"

(* ------------------------------------------------------------------ *)
(* Vertex enumeration, shared by the compiled evaluator and the
   from-scratch Reference implementation.

   One corner-selector table serves every direction: `L/`H are the range
   endpoints, `L1/`H1 the endpoints shifted by one (the open sides of the
   '<' / '>' triangles). The Eq case with a = b short-circuits to the
   single zero vertex so the combo count stays 1. *)

let corner_points = function
  | Some Direction.Eq -> [ (`L, `L); (`H, `H) ]
  | Some Direction.Lt -> [ (`L, `L1); (`L, `H); (`H1, `H) ]
  | Some Direction.Gt -> [ (`L1, `L); (`H, `L); (`H, `H1) ]
  | None -> [ (`L, `L); (`L, `H); (`H, `L); (`H, `H) ]

(* Candidate extremal values for one index's contribution a*alpha - b*beta
   under a direction constraint: the vertex values of the feasible region.
   [`Unbounded] when a needed range endpoint is unknown. *)
let contributions ~a ~b ~(range : Range.range) dir =
  if a = 0 && b = 0 then `Vertices [ Affine.zero ]
  else
    match (range.Range.lo, range.Range.hi) with
    | Some lo, Some hi ->
        if dir = Some Direction.Eq && a = b then `Vertices [ Affine.zero ]
        else
          let lo1 = Affine.add_const 1 lo (* lo + 1 *)
          and him1 = Affine.add_const (-1) hi in
          let pt = function `L -> lo | `L1 -> lo1 | `H -> hi | `H1 -> him1 in
          let v (x, y) =
            Affine.sub (Affine.scale a (pt x)) (Affine.scale b (pt y))
          in
          `Vertices (List.map v (corner_points dir))
    | _ -> `Unbounded

let region_nonempty assume range i dir =
  match dir with
  | Some Direction.Lt | Some Direction.Gt -> (
      (* needs at least two iterations: hi - lo >= 1 *)
      match Range.trip_minus_one range i with
      | None -> true
      | Some d -> not (Assume.prove_nonpos assume d) || Assume.prove_pos assume d)
  | _ -> true

let max_combos = 4096

(* ------------------------------------------------------------------ *)
(* per-worker scratch arena: the compiled evaluator's per-pair state
   needs a proof memo table, a sum accumulator and four bound-compilation
   buffers per occurring index. Renting them from a per-domain arena
   replaces those per-pair allocations with pointer swaps once the arena
   is warm; the arena is single-domain by construction (each engine
   worker owns one), so no synchronization. *)

module Scratch = struct
  type t = {
    mutable tables : (Linform.vec, bool * bool) Hashtbl.t list;
    mutable vecs : Linform.vec list;  (* free list, mixed lengths *)
  }

  let create () = { tables = []; vecs = [] }

  let rent_table t =
    match t.tables with
    | tbl :: rest ->
        t.tables <- rest;
        Hashtbl.reset tbl;
        tbl
    | [] -> Hashtbl.create 64

  let return_table t tbl = t.tables <- tbl :: t.tables

  (* first free vector of the right length; universes within one pair
     share a length, so the scan terminates in a step or two *)
  let rent_vec t len =
    let rec go acc = function
      | v :: rest when Array.length v = len ->
          t.vecs <- List.rev_append acc rest;
          v
      | v :: rest -> go (v :: acc) rest
      | [] -> Array.make len 0
    in
    go [] t.vecs

  let return_vec t v = t.vecs <- v :: t.vecs
end

(* ------------------------------------------------------------------ *)
(* Reference implementation: the pre-kernel evaluator that recombines
   the full vertex cross product at every query. Kept verbatim as the
   byte-identity oracle for the compiled evaluator (tests, bench); the
   analyzer never calls it. *)

module Reference = struct
  let feasible ?metrics ?budget assume range (p : Spair.t) ~dirs =
    Dt_guard.Inject.hit inject_node;
    Dt_guard.Budget.charge budget 1;
    (match metrics with
    | Some m -> Dt_obs.Metrics.banerjee_node m ~incremental:false
    | None -> ());
    let eq_indices =
      List.fold_left
        (fun s (i, d) ->
          if d = Some Direction.Eq then Index.Set.add i s else s)
        Index.Set.empty dirs
    in
    match Gcd_test.test ~eq_indices p with
    | `Independent -> false
    | `Maybe -> (
        let c = Spair.diff_const p in
        let occurring = Spair.indices p in
        (* indices of the pair not mentioned in [dirs] are unconstrained *)
        let dir_of i =
          match List.find_opt (fun (j, _) -> Index.equal i j) dirs with
          | Some (_, d) -> d
          | None -> None
        in
        let per_index =
          Index.Set.fold
            (fun i acc ->
              match acc with
              | `Unbounded -> `Unbounded
              | `Lists ls -> (
                  let a = Affine.coeff p.src i and b = Affine.coeff p.snk i in
                  match
                    contributions ~a ~b ~range:(Range.find range i) (dir_of i)
                  with
                  | `Unbounded -> `Unbounded
                  | `Vertices vs -> `Lists (vs :: ls)))
            occurring (`Lists [])
        in
        match per_index with
        | `Unbounded -> true
        | `Lists lists ->
            let n_combos =
              List.fold_left (fun acc l -> Ops.mul acc (List.length l)) 1 lists
            in
            if n_combos > max_combos then true
            else
              let combos = Dt_support.Listx.cartesian lists in
              let sums =
                List.map (List.fold_left Affine.add Affine.zero) combos
              in
              let all_below =
                (* c > max: for every vertex value v, c - v > 0 *)
                List.for_all
                  (fun v -> Assume.prove_pos assume (Affine.sub c v))
                  sums
              in
              let all_above =
                List.for_all
                  (fun v -> Assume.prove_pos assume (Affine.sub v c))
                  sums
              in
              not (all_below || all_above))

  let vectors ?metrics ?budget assume range pairs ~indices =
    let results = ref [] in
    let feasible_all assignment =
      List.for_all
        (fun p -> feasible ?metrics ?budget assume range p ~dirs:assignment)
        pairs
    in
    (* depth-first refinement of the '*' hierarchy, outermost index first *)
    let rec refine fixed rest =
      let assignment =
        List.rev_append fixed (List.map (fun i -> (i, None)) rest)
      in
      if feasible_all assignment then
        match rest with
        | [] -> results := List.rev_map snd fixed :: !results
        | i :: rest' ->
            List.iter
              (fun d ->
                if region_nonempty assume range i (Some d) then
                  refine ((i, Some d) :: fixed) rest')
              Direction.all
    in
    refine [] indices;
    let vecs =
      List.rev_map
        (fun ds -> List.map (function Some d -> d | None -> assert false) ds)
        !results
    in
    if vecs = [] then `Independent else `Vectors vecs
end

(* ------------------------------------------------------------------ *)
(* Compiled incremental evaluator.

   Per (pair, vectors-call) we build a [state]: the pair's compiled
   kernel, a symbol universe covering diff_const and every occurring
   range endpoint, and — per (index slot, direction) — the compiled
   vertex set with its literal combo count and, when every vertex is
   constant, its [min, max] interval. The hierarchy DFS then maintains
   running lower/upper bound sums (and a symbolic-slot count) and swaps
   one slot's contribution in and out as a direction is refined, instead
   of recombining all cross products at every node.

   Two evaluation tiers, both provably byte-identical to Reference:
   - all-constant tier: when every selected vertex set is constant and
     diff_const is symbol-free, [Assume.prove_pos] on a symbol-free goal
     is exactly a sign check on its constant, so the full cross-product
     conjunction collapses to [lo_sum <= c <= hi_sum];
   - symbolic tier: enumerate the (per-slot deduplicated) cross product
     with in-place vector sums, proving each distinct sum once through a
     memo table. Deduplication cannot change a universally quantified
     conjunction, and the sign oracle is pure. *)

let code_of_dir = function
  | None -> 0
  | Some Direction.Eq -> 1
  | Some Direction.Lt -> 2
  | Some Direction.Gt -> 3

type vinfo = {
  count : int;  (* literal vertex-list length, for the combo cap *)
  vecs : Linform.vec array;  (* deduplicated compiled vertices *)
  cmin : int;  (* interval, valid when [const_only] *)
  cmax : int;
  const_only : bool;
}

type state = {
  kp : Linform.pair;
  u : Linform.universe;
  c_is_const : bool;
  vert : vinfo array array;  (* slot -> dircode -> info; [||] if unbounded *)
  dir : int array;  (* current dircode per slot; 0 = '*' *)
  unbounded : bool;  (* some occurring index has an unknown endpoint *)
  mutable lo_sum : int;  (* over slots whose current set is constant *)
  mutable hi_sum : int;
  mutable n_sym : int;  (* slots whose current vertex set is symbolic *)
  mutable combos : int;  (* product of current literal counts *)
  scratch : Linform.vec;  (* in-place sum accumulator, symbolic tier *)
  prove_memo : (Linform.vec, bool * bool) Hashtbl.t;
      (* distinct vertex sum -> (c > sum provable, sum > c provable) *)
}

let mk_vinfo ~a ~b ~lov ~hiv ~lo1v ~him1v code =
  if code = 1 && a = b then
    (* Eq with a = b: the single zero vertex *)
    {
      count = 1;
      vecs = [| Array.make (Array.length lov) 0 |];
      cmin = 0;
      cmax = 0;
      const_only = true;
    }
  else
    let corners =
      match code with
      | 1 -> [ (lov, lov); (hiv, hiv) ]
      | 2 -> [ (lov, lo1v); (lov, hiv); (him1v, hiv) ]
      | 3 -> [ (lo1v, lov); (hiv, lov); (hiv, him1v) ]
      | _ -> [ (lov, lov); (lov, hiv); (hiv, lov); (hiv, hiv) ]
    in
    let vs = List.map (fun (x, y) -> Linform.corner ~a ~b x y) corners in
    let count = List.length vs in
    let vecs = Array.of_list (List.sort_uniq compare vs) in
    let const_only = Array.for_all Linform.is_const_vec vecs in
    if const_only then
      let consts = Array.map Linform.const_of_vec vecs in
      {
        count;
        vecs;
        cmin = Array.fold_left min consts.(0) consts;
        cmax = Array.fold_left max consts.(0) consts;
        const_only;
      }
    else { count; vecs; cmin = 0; cmax = 0; const_only }

let build_state ?metrics ?scratch range (p : Spair.t) =
  let kp = Spair.kernel p in
  (match metrics with
  | Some m -> Dt_obs.Metrics.banerjee_compile m
  | None -> ());
  let bounds =
    Array.map
      (fun i ->
        let r = Range.find range i in
        (r.Range.lo, r.Range.hi))
      kp.Linform.indices
  in
  let syms = ref (Affine.syms kp.Linform.c) in
  let add_syms e = syms := List.rev_append (Affine.syms e) !syms in
  Array.iter
    (fun (lo, hi) ->
      Option.iter add_syms lo;
      Option.iter add_syms hi)
    bounds;
  let u = Linform.universe !syms in
  let vlen = Linform.universe_size u + 1 in
  let rent () =
    match scratch with
    | Some s -> Scratch.rent_vec s vlen
    | None -> Array.make vlen 0
  in
  let return_v v =
    match scratch with Some s -> Scratch.return_vec s v | None -> ()
  in
  let unbounded = ref false in
  let vert =
    Array.mapi
      (fun k bnd ->
        match bnd with
        | Some lo, Some hi ->
            (* the four bound vectors are pure compilation temporaries:
               [mk_vinfo] derives fresh corner vectors from them, so they
               go straight back to the arena *)
            let lov = rent () and hiv = rent () in
            Linform.compile_into u lo lov;
            Linform.compile_into u hi hiv;
            let lo1v = rent () and him1v = rent () in
            Array.blit lov 0 lo1v 0 vlen;
            Array.blit hiv 0 him1v 0 vlen;
            Linform.add_const_into 1 lo1v;
            Linform.add_const_into (-1) him1v;
            let a = kp.Linform.a.(k) and b = kp.Linform.b.(k) in
            let tbl = Array.init 4 (mk_vinfo ~a ~b ~lov ~hiv ~lo1v ~him1v) in
            return_v lov;
            return_v hiv;
            return_v lo1v;
            return_v him1v;
            tbl
        | _ ->
            unbounded := true;
            [||])
      bounds
  in
  let st =
    {
      kp;
      u;
      c_is_const = Affine.is_const kp.Linform.c;
      vert;
      dir = Array.make (Array.length kp.Linform.indices) 0;
      unbounded = !unbounded;
      lo_sum = 0;
      hi_sum = 0;
      n_sym = 0;
      combos = 1;
      scratch = rent ();
      prove_memo =
        (match scratch with
        | Some s -> Scratch.rent_table s
        | None -> Hashtbl.create 64);
    }
  in
  Array.iter
    (fun tbl ->
      if Array.length tbl > 0 then begin
        let vi = tbl.(0) in
        st.combos <- Ops.mul st.combos vi.count;
        if vi.const_only then begin
          st.lo_sum <- Ops.add st.lo_sum vi.cmin;
          st.hi_sum <- Ops.add st.hi_sum vi.cmax
        end
        else st.n_sym <- st.n_sym + 1
      end)
    vert;
  st

(* The incremental step: swap slot [k]'s contribution from its current
   direction to [code] by subtracting the old interval / symbolic mark
   and adding the new one. O(1), no allocation. *)
let set_dir st k code =
  if st.dir.(k) <> code then
    if Array.length st.vert.(k) = 0 then st.dir.(k) <- code
    else begin
      let old = st.vert.(k).(st.dir.(k)) in
      let nw = st.vert.(k).(code) in
      st.combos <- Ops.mul (st.combos / old.count) nw.count;
      (if old.const_only then begin
         st.lo_sum <- Ops.sub st.lo_sum old.cmin;
         st.hi_sum <- Ops.sub st.hi_sum old.cmax
       end
       else st.n_sym <- st.n_sym - 1);
      (if nw.const_only then begin
         st.lo_sum <- Ops.add st.lo_sum nw.cmin;
         st.hi_sum <- Ops.add st.hi_sum nw.cmax
       end
       else st.n_sym <- st.n_sym + 1);
      st.dir.(k) <- code
    end

(* gcd has no inverse, so the directed GCD is re-folded per node over the
   precomputed per-slot values — an allocation-free int loop. *)
let directed_gcd st =
  let kp = st.kp in
  let g = ref 0 in
  for k = 0 to Array.length kp.Linform.indices - 1 do
    g :=
      Int_ops.gcd !g
        (if st.dir.(k) = 1 then kp.Linform.diff_eq.(k)
         else kp.Linform.gcd_star.(k))
  done;
  Int_ops.gcd !g kp.Linform.c_sym_gcd

let symbolic_feasible assume st =
  let all_below = ref true and all_above = ref true in
  let n = Array.length st.kp.Linform.indices in
  Array.fill st.scratch 0 (Array.length st.scratch) 0;
  let exception Early in
  let check () =
    let below, above =
      match Hashtbl.find_opt st.prove_memo st.scratch with
      | Some r -> r
      | None ->
          let s = Linform.to_affine st.u st.scratch in
          let c = st.kp.Linform.c in
          let r =
            ( Assume.prove_pos assume (Affine.sub c s),
              Assume.prove_pos assume (Affine.sub s c) )
          in
          Hashtbl.add st.prove_memo (Array.copy st.scratch) r;
          r
    in
    if not below then all_below := false;
    if not above then all_above := false;
    if not (!all_below || !all_above) then raise Early
  in
  let rec go k =
    if k = n then check ()
    else
      Array.iter
        (fun v ->
          Linform.add_into st.scratch v;
          go (k + 1);
          Linform.sub_into st.scratch v)
        st.vert.(k).(st.dir.(k)).vecs
  in
  (try go 0 with Early -> ());
  not (!all_below || !all_above)

let eval_state ?metrics ?sink ?budget ~from_scratch assume st =
  Dt_guard.Inject.hit inject_node;
  Dt_guard.Budget.charge budget 1;
  (match metrics with
  | Some m -> Dt_obs.Metrics.banerjee_node m ~incremental:(not from_scratch)
  | None -> ());
  let g = directed_gcd st in
  if not (Int_ops.divides g st.kp.Linform.c_const) then false
  else if st.unbounded then true
  else if st.combos > max_combos then begin
    (match metrics with
    | Some m -> Dt_obs.Metrics.banerjee_cap m
    | None -> ());
    (match sink with
    | Some s ->
        Dt_obs.Trace.emit s
          (Dt_obs.Trace.Note
             (Printf.sprintf
                "Banerjee vertex cross product capped (%d > %d combinations); \
                 assuming feasible"
                st.combos max_combos))
    | None -> ());
    true
  end
  else if st.n_sym = 0 && st.c_is_const then
    (* all-constant tier: the bracket is a concrete interval *)
    let c = st.kp.Linform.c_const in
    c >= st.lo_sum && c <= st.hi_sum
  else symbolic_feasible assume st

(* hand a state's rented buffers back to the arena (no-op without one) *)
let release_state scratch st =
  match scratch with
  | None -> ()
  | Some s ->
      Scratch.return_vec s st.scratch;
      Scratch.return_table s st.prove_memo

let feasible ?scratch ?metrics ?sink ?budget assume range (p : Spair.t) ~dirs =
  let st = build_state ?metrics ?scratch range p in
  Fun.protect ~finally:(fun () -> release_state scratch st) @@ fun () ->
  (* the first binding of an index wins, as List.find_opt did *)
  let seen = ref [] in
  List.iter
    (fun (i, d) ->
      if not (List.exists (Index.equal i) !seen) then begin
        seen := i :: !seen;
        match Linform.slot st.kp i with
        | Some k -> set_dir st k (code_of_dir d)
        | None -> ()
      end)
    dirs;
  eval_state ?metrics ?sink ?budget ~from_scratch:true assume st

let vectors ?scratch ?metrics ?sink ?spans ?budget assume range pairs ~indices =
  Dt_obs.Span.with_ spans Dt_obs.Span.Banerjee @@ fun () ->
  let states =
    List.map
      (fun p ->
        let st = build_state ?metrics ?scratch range p in
        let slots = Array.of_list (List.map (Linform.slot st.kp) indices) in
        (st, slots))
      pairs
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (st, _) -> release_state scratch st) states)
  @@ fun () ->
  let idxs = Array.of_list indices in
  let n = Array.length idxs in
  (* region_nonempty depends only on (index, dir): memoize per call *)
  let region_memo = Array.make_matrix n 3 None in
  let region_ok k d =
    let j = match d with Direction.Lt -> 0 | Eq -> 1 | Gt -> 2 in
    match region_memo.(k).(j) with
    | Some r -> r
    | None ->
        let r = region_nonempty assume range idxs.(k) (Some d) in
        region_memo.(k).(j) <- Some r;
        r
  in
  let feasible_all () =
    List.for_all
      (fun (st, _) ->
        eval_state ?metrics ?sink ?budget ~from_scratch:false assume st)
      states
  in
  let set_all k code =
    List.iter
      (fun (st, slots) ->
        match slots.(k) with Some sl -> set_dir st sl code | None -> ())
      states
  in
  let cur = Array.make n Direction.Eq in
  let results = ref [] in
  (* depth-first refinement of the '*' hierarchy, outermost index first;
     entries at positions >= k are '*' *)
  let rec refine k =
    if feasible_all () then
      if k = n then results := Array.to_list (Array.copy cur) :: !results
      else begin
        List.iter
          (fun d ->
            if region_ok k d then begin
              cur.(k) <- d;
              set_all k (code_of_dir (Some d));
              refine (k + 1)
            end)
          Direction.all;
        set_all k 0 (* restore '*' for the caller *)
      end
  in
  refine 0;
  let vecs = List.rev !results in
  if vecs = [] then `Independent else `Vectors vecs

let explain = function
  | `Independent ->
      "no direction vector satisfies the Banerjee bounds (with directed GCD)"
  | `Vectors vecs ->
      Format.asprintf "%d direction vector(s) feasible:%t" (List.length vecs)
        (fun ppf ->
          List.iter (fun v -> Format.fprintf ppf " %a" Dirvec.pp_concrete v) vecs)
