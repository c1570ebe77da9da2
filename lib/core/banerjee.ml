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
(* per-worker scratch arena: the symbolic tier's enumeration needs a
   proof memo table and a sum accumulator per pair. Renting them from a
   per-domain arena replaces those per-pair allocations with pointer
   swaps once the arena is warm; the arena is single-domain by
   construction (each engine worker owns one), so no synchronization. *)

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
   of recombining all cross products at every node. A direction's vertex
   set is compiled when the DFS first refines a slot to it.

   Three evaluation tiers, all provably byte-identical to Reference:
   - all-constant tier: when every selected vertex set is constant and
     diff_const is symbol-free, [Assume.prove_pos] on a symbol-free goal
     is exactly a sign check on its constant, so the full cross-product
     conjunction collapses to [lo_sum <= c <= hi_sum];
   - one-symbol tier: when the pair's universe is one symbol N and the
     facts bound N alone, the oracle's verdict on [a*N + k] is a
     conjunction of at most three half-planes in (a, k), so the
     conjunction over the cross product is decided by per-slot maxima
     and minima of those linear forms (see [hull] below);
   - symbolic tier: enumerate the (per-slot deduplicated) cross product
     with in-place vector sums, proving each distinct sum once through a
     memo table. Deduplication cannot change a universally quantified
     conjunction, and the sign oracle is pure. *)

let code_of_dir = function
  | None -> 0
  | Some Direction.Eq -> 1
  | Some Direction.Lt -> 2
  | Some Direction.Gt -> 3

(* [corner_points] per dircode, as positions in a slot's bound vectors
   [| lo; hi; lo + 1; hi - 1 |] *)
let corner_slots =
  let pos = function `L -> 0 | `H -> 1 | `L1 -> 2 | `H1 -> 3 in
  Array.map
    (fun d ->
      Array.of_list (List.map (fun (x, y) -> (pos x, pos y)) (corner_points d)))
    [| None; Some Direction.Eq; Some Direction.Lt; Some Direction.Gt |]

type vinfo = {
  count : int;  (* literal vertex-list length, for the combo cap *)
  vecs : Linform.vec array;  (* deduplicated compiled vertices, sorted *)
  cmin : int;  (* interval, valid when [const_only] *)
  cmax : int;
  const_only : bool;
}

(* a direction whose vertex set the DFS has not visited yet *)
let unbuilt = { count = 0; vecs = [||]; cmin = 0; cmax = 0; const_only = false }

(* The one-symbol tier. In a universe of one symbol N where every fact
   that mentions N mentions only N ([alpha*N + beta >= 0]),
   [Assume.prove_nonneg (a*N + k)] takes one elimination step: it holds
   iff [k >= 0] when [a = 0], and otherwise iff some fact with alpha of
   a's sign gives [|alpha|*k - |a|*beta >= 0]. With the tightest lower
   fact (alpha > 0, L = -beta/alpha) and upper fact (alpha < 0,
   U = beta/|alpha|) that reads [k + a*L >= 0] for [a > 0] and
   [k + a*U >= 0] for [a < 0], and fails outright on a side with no
   fact. Where L <= U the goal is provable iff (a, k) lies in every
   half-plane [p*a + q*k >= 0] of [hull_forms]; a missing side becomes
   a sign constraint on a. A half-plane holds for [c - s - 1] at every
   vertex sum s iff the sum of the per-slot maxima of [p*a + q*k] over
   the vertex sets stays within [p*c_N + q*(c_0 - 1)], and [s - c - 1]
   holds everywhere iff the per-slot minima reach [p*c_N + q*(c_0 + 1)].
   [ext] holds those extremes, [below] and [above] the two thresholds. *)
type hull = {
  forms : (int * int) array;  (* half-plane j = (p, q): p*a + q*k >= 0 *)
  ext : int array;  (* ((slot * 4 + dircode) * nf + j) * 2: max; + 1: min *)
  below : int array;  (* per half-plane *)
  above : int array;
}

type state = {
  kp : Linform.pair;
  u : Linform.universe;
  c_is_const : bool;
  bv : Linform.vec array;  (* slot k's [| lo; hi; lo + 1; hi - 1 |] at 4k *)
  vert : vinfo array array;  (* slot -> dircode -> info; [||] if unbounded *)
  dir : int array;  (* current dircode per slot; 0 = '*' *)
  unbounded : bool;  (* some occurring index has an unknown endpoint *)
  mutable lo_sum : int;  (* over slots whose current set is constant *)
  mutable hi_sum : int;
  mutable n_sym : int;  (* slots whose current vertex set is symbolic *)
  mutable combos : int;  (* product of current literal counts *)
  hull : hull option;  (* the one-symbol tier applies *)
  mutable enum : (Linform.vec * (Linform.vec, bool * bool) Hashtbl.t) option;
      (* the symbolic tier's in-place sum accumulator and its memo of
         distinct vertex sum -> (c > sum provable, sum > c provable),
         rented on the tier's first node *)
}

(* polymorphic [compare]'s order on equal-length int vectors *)
let compare_vec (x : Linform.vec) (y : Linform.vec) =
  let n = Array.length x in
  let rec go j =
    if j = n then 0
    else
      let c = Int.compare x.(j) y.(j) in
      if c <> 0 then c else go (j + 1)
  in
  go 0

(* slot [k]'s vertex set under [code]: the corners sorted and
   deduplicated in place, in [List.sort_uniq compare]'s order *)
let mk_vinfo st k code =
  let a = st.kp.Linform.a.(k) and b = st.kp.Linform.b.(k) in
  if code = 1 && a = b then
    (* Eq with a = b: the single zero vertex *)
    {
      count = 1;
      vecs = [| Linform.zero_vec st.u |];
      cmin = 0;
      cmax = 0;
      const_only = true;
    }
  else
    let corners = corner_slots.(code) in
    let count = Array.length corners in
    let vs =
      Array.map
        (fun (x, y) -> Linform.corner ~a ~b st.bv.((4 * k) + x) st.bv.((4 * k) + y))
        corners
    in
    (* insertion sort: at most four corners, and no closure to allocate *)
    for i = 1 to count - 1 do
      let v = vs.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && compare_vec vs.(!j) v > 0 do
        vs.(!j + 1) <- vs.(!j);
        decr j
      done;
      vs.(!j + 1) <- v
    done;
    let n = ref 1 in
    for i = 1 to count - 1 do
      if compare_vec vs.(i) vs.(!n - 1) <> 0 then begin
        vs.(!n) <- vs.(i);
        incr n
      end
    done;
    let vecs = if !n = count then vs else Array.sub vs 0 !n in
    if Array.for_all Linform.is_const_vec vecs then begin
      let c0 = Linform.const_of_vec vecs.(0) in
      let cmin = ref c0 and cmax = ref c0 in
      Array.iter
        (fun v ->
          let c = Linform.const_of_vec v in
          if c < !cmin then cmin := c;
          if c > !cmax then cmax := c)
        vecs;
      { count; vecs; cmin = !cmin; cmax = !cmax; const_only = true }
    end
    else { count; vecs; cmin = 0; cmax = 0; const_only = false }

(* slot [k]'s table for [code], compiled on first use along with its
   one-symbol extremes *)
let table st k code =
  let vi = st.vert.(k).(code) in
  if vi != unbuilt then vi
  else begin
    let vi = mk_vinfo st k code in
    st.vert.(k).(code) <- vi;
    (match st.hull with
    | None -> ()
    | Some h ->
        let nf = Array.length h.forms in
        Array.iteri
          (fun j (p, q) ->
            let psi v = Ops.add (Ops.mul p v.(0)) (Ops.mul q v.(1)) in
            let o = ((((k * 4) + code) * nf) + j) * 2 in
            let first = psi vi.vecs.(0) in
            h.ext.(o) <- first;
            h.ext.(o + 1) <- first;
            Array.iter
              (fun v ->
                let x = psi v in
                if x > h.ext.(o) then h.ext.(o) <- x;
                if x < h.ext.(o + 1) then h.ext.(o + 1) <- x)
              vi.vecs)
          h.forms);
    vi
  end

let abs_checked x = if x < 0 then Ops.neg x else x

(* The tightest lower and upper facts on [sym], each as (alpha, beta),
   and the largest coefficient magnitude over every fact on [sym]; [None]
   when a fact mixes [sym] with another symbol. Raises [Ops.Overflow]
   when two facts cannot be compared exactly. *)
let one_symbol_facts assume sym =
  let exception Mixed in
  let step ((lo, hi, m) as acc) f =
    let al = Affine.sym_coeff f sym in
    if al = 0 then acc
    else
      match Affine.sym_terms f with
      | [ _ ] ->
          let be = Affine.const_part f in
          let m = max m (max (abs_checked al) (abs_checked be)) in
          if al > 0 then
            (* N >= -be/al: keep the larger bound *)
            match lo with
            | Some (a', b') when Ops.mul b' al <= Ops.mul be a' -> (lo, hi, m)
            | _ -> (Some (al, be), hi, m)
          else (
            (* N <= be/|al|: keep the smaller bound *)
            match hi with
            | Some (a', b') when Ops.mul b' (-al) <= Ops.mul be (-a') ->
                (lo, hi, m)
            | _ -> (lo, Some (al, be), m))
      | _ -> raise Mixed
  in
  match List.fold_left step (None, None, 1) (Assume.facts assume) with
  | r -> Some r
  | exception Mixed -> None

(* The half-planes [p*a + q*k >= 0] whose conjunction is "a*N + k is
   provably non-negative", given L <= U where both exist. *)
let hull_forms lo hi =
  let lower = match lo with Some (al, be) -> (Ops.neg be, al) | None -> (-1, 0)
  and upper = match hi with Some (al, be) -> (be, Ops.neg al) | None -> (1, 0) in
  if lo = None && hi = None then [| lower; upper; (0, 1) |] else [| lower; upper |]

(* The one-symbol tier's half-planes and thresholds, or [None] where the
   enumeration must decide: another universe or fact shape, or L > U.
   [reach] sums, over the slots, a bound on each slot's vertex
   components; S adds |c| + 1 to it. The guard: with M the largest
   coefficient of a fact on N, every sum this tier forms and every goal
   the enumeration would hand to the oracle stays within 4*M*S. Where
   that product is representable
   neither side can overflow, so an overflow degrades exactly as the
   enumeration does. *)
let build_hull assume u (kp : Linform.pair) ~nslots ~reach =
  match Linform.universe_syms u with
  | [ sym ] -> (
      let cn = Affine.sym_coeff kp.Linform.c sym
      and c0 = Affine.const_part kp.Linform.c in
      match
        match one_symbol_facts assume sym with
        | None -> None
        | Some (lo, hi, m) ->
            let s = Ops.add reach (Ops.add (max (abs_checked cn) (abs_checked c0)) 1) in
            ignore (Ops.mul 4 (Ops.mul m s));
            let ordered =
              match (lo, hi) with
              | Some (la, lb), Some (ua, ub) ->
                  (* -lb/la <= ub/|ua| *)
                  Ops.add (Ops.mul ub la) (Ops.mul lb (Ops.neg ua)) >= 0
              | _ -> true
            in
            if ordered then Some (hull_forms lo hi) else None
      with
      | None | (exception Ops.Overflow) -> None
      | Some forms ->
          let at k = Array.map (fun (p, q) -> (p * cn) + (q * k)) forms in
          Some
            {
              forms;
              ext = Array.make (nslots * 4 * Array.length forms * 2) 0;
              below = at (c0 - 1);
              above = at (c0 + 1);
            })
  | _ -> None

let build_state ?metrics assume range (p : Spair.t) =
  let kp = Spair.kernel p in
  (match metrics with
  | Some m -> Dt_obs.Metrics.banerjee_compile m
  | None -> ());
  let n = Array.length kp.Linform.indices in
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
  let unbounded = ref false in
  let bv = Array.make (4 * n) [||] in
  Array.iteri
    (fun k bnd ->
      match bnd with
      | Some lo, Some hi ->
          let lov = Linform.compile u lo and hiv = Linform.compile u hi in
          bv.(4 * k) <- lov;
          bv.((4 * k) + 1) <- hiv;
          bv.((4 * k) + 2) <- Linform.add_const_vec 1 lov;
          bv.((4 * k) + 3) <- Linform.add_const_vec (-1) hiv
      | _ -> unbounded := true)
    bounds;
  (* [reach] bounds |a*x - b*y| over every corner of every bounded slot:
     where it is representable no corner can overflow, so compiling a
     direction on first use raises nowhere the eager compilation of all
     four would not have *)
  let reach =
    let r = ref 0 in
    match
      for k = 0 to n - 1 do
        if Array.length bv.(4 * k) > 0 then begin
          let mag = ref 0 in
          for j = 0 to vlen - 1 do
            mag := max !mag (abs_checked bv.(4 * k).(j));
            mag := max !mag (abs_checked bv.((4 * k) + 1).(j))
          done;
          let a = abs_checked kp.Linform.a.(k) and b = abs_checked kp.Linform.b.(k) in
          r := Ops.add !r (Ops.mul (Ops.add a b) (Ops.add !mag 1))
        end
      done
    with
    | () -> Some !r
    | exception Ops.Overflow -> None
  in
  let st =
    {
      kp;
      u;
      c_is_const = Affine.is_const kp.Linform.c;
      bv;
      vert =
        Array.init n (fun k ->
            if Array.length bv.(4 * k) = 0 then [||] else Array.make 4 unbuilt);
      dir = Array.make n 0;
      unbounded = !unbounded;
      lo_sum = 0;
      hi_sum = 0;
      n_sym = 0;
      combos = 1;
      hull =
        (match reach with
        | Some reach when not !unbounded ->
            build_hull assume u kp ~nslots:n ~reach
        | _ -> None);
      enum = None;
    }
  in
  (* past that bound, compile every direction now: that is where an
     overflow was always raised *)
  if reach = None then
    Array.iteri
      (fun k tbl -> Array.iteri (fun code _ -> ignore (table st k code)) tbl)
      st.vert;
  Array.iteri
    (fun k tbl ->
      if Array.length tbl > 0 then begin
        let vi = table st k 0 in
        st.combos <- Ops.mul st.combos vi.count;
        if vi.const_only then begin
          st.lo_sum <- Ops.add st.lo_sum vi.cmin;
          st.hi_sum <- Ops.add st.hi_sum vi.cmax
        end
        else st.n_sym <- st.n_sym + 1
      end)
    st.vert;
  st

(* The incremental step: swap slot [k]'s contribution from its current
   direction to [code] by subtracting the old interval / symbolic mark
   and adding the new one. O(1), no allocation once the direction is
   compiled. *)
let set_dir st k code =
  if st.dir.(k) <> code then
    if Array.length st.vert.(k) = 0 then st.dir.(k) <- code
    else begin
      let old = st.vert.(k).(st.dir.(k)) in
      let nw = table st k code in
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
   precomputed per-slot values — an allocation-free int loop, which stops
   once the gcd is 1. Every gcd divides 0. *)
let directed_gcd_divides st =
  let kp = st.kp in
  let c = kp.Linform.c_const in
  c = 0
  ||
  let n = Array.length kp.Linform.indices in
  let g = ref kp.Linform.c_sym_gcd and k = ref 0 in
  while !g <> 1 && !k < n do
    g :=
      Int_ops.gcd !g
        (if st.dir.(!k) = 1 then kp.Linform.diff_eq.(!k)
         else kp.Linform.gcd_star.(!k));
    incr k
  done;
  Int_ops.divides !g c

(* The one-symbol tier: O(slots) integer adds per half-plane, no
   enumeration and no oracle call. *)
let hull_feasible h st =
  let n = Array.length st.dir and nf = Array.length h.forms in
  let below = ref true and above = ref true and j = ref 0 in
  while (!below || !above) && !j < nf do
    let smax = ref 0 and smin = ref 0 in
    for k = 0 to n - 1 do
      let o = ((((k * 4) + st.dir.(k)) * nf) + !j) * 2 in
      smax := Ops.add !smax h.ext.(o);
      smin := Ops.add !smin h.ext.(o + 1)
    done;
    if !smax > h.below.(!j) then below := false;
    if !smin < h.above.(!j) then above := false;
    incr j
  done;
  not (!below || !above)

let symbolic_feasible ?scratch assume st =
  let sum, memo =
    match st.enum with
    | Some e -> e
    | None ->
        let len = Linform.universe_size st.u + 1 in
        let e =
          match scratch with
          | Some s -> (Scratch.rent_vec s len, Scratch.rent_table s)
          | None -> (Array.make len 0, Hashtbl.create 64)
        in
        st.enum <- Some e;
        e
  in
  let all_below = ref true and all_above = ref true in
  let n = Array.length st.kp.Linform.indices in
  Array.fill sum 0 (Array.length sum) 0;
  let exception Early in
  let check () =
    let below, above =
      match Hashtbl.find_opt memo sum with
      | Some r -> r
      | None ->
          let s = Linform.to_affine st.u sum in
          let c = st.kp.Linform.c in
          let r =
            ( Assume.prove_pos assume (Affine.sub c s),
              Assume.prove_pos assume (Affine.sub s c) )
          in
          Hashtbl.add memo (Array.copy sum) r;
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
          Linform.add_into sum v;
          go (k + 1);
          Linform.sub_into sum v)
        st.vert.(k).(st.dir.(k)).vecs
  in
  (try go 0 with Early -> ());
  not (!all_below || !all_above)

let eval_state ?scratch ?metrics ?sink ?budget ~from_scratch assume st =
  Dt_guard.Inject.hit inject_node;
  Dt_guard.Budget.charge budget 1;
  (match metrics with
  | Some m -> Dt_obs.Metrics.banerjee_node m ~incremental:(not from_scratch)
  | None -> ());
  if not (directed_gcd_divides st) then false
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
  else
    match st.hull with
    | Some h -> hull_feasible h st
    | None -> symbolic_feasible ?scratch assume st

(* hand a state's rented buffers back to the arena (no-op without one) *)
let release_state scratch st =
  match (scratch, st.enum) with
  | Some s, Some (sum, memo) ->
      Scratch.return_vec s sum;
      Scratch.return_table s memo
  | _ -> ()

let feasible ?scratch ?metrics ?sink ?budget assume range (p : Spair.t) ~dirs =
  let st = build_state ?metrics assume range p in
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
  eval_state ?scratch ?metrics ?sink ?budget ~from_scratch:true assume st

let vectors ?scratch ?metrics ?sink ?spans ?budget assume range pairs ~indices =
  Dt_obs.Span.with_ spans Dt_obs.Span.Banerjee @@ fun () ->
  let states =
    List.map
      (fun p ->
        let st = build_state ?metrics assume range p in
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
        eval_state ?scratch ?metrics ?sink ?budget ~from_scratch:false assume
          st)
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
