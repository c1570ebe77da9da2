(* Compiled linear forms: dense int-array mirrors of (index-free) Affine
   values over a per-pair symbol universe, plus the per-pair coefficient
   kernel the Banerjee/GCD hot path runs on.

   All slot arithmetic is overflow-checked (Dt_guard.Ops): a wrapped
   kernel slot or vertex coordinate would silently corrupt the Banerjee
   bounds, so the exact-or-raise ops are used even in the in-place hot
   loops and the pair degrades conservatively when one raises. *)

module Ops = Dt_guard.Ops

let inject_corner = Dt_guard.Inject.register "linform.corner"

type universe = { syms : string array (* sorted, unique *) }

let universe syms =
  { syms = Array.of_list (List.sort_uniq String.compare syms) }

let universe_size u = Array.length u.syms
let universe_syms u = Array.to_list u.syms

let sym_slot u s =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare s u.syms.(mid) in
      if c = 0 then Some mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length u.syms)

(* A vector has one slot per universe symbol plus a trailing constant
   slot, so vector arithmetic is a single flat loop. *)
type vec = int array

let zero_vec u = Array.make (Array.length u.syms + 1) 0

let compile u (e : Affine.t) =
  if Affine.index_terms e <> [] then
    invalid_arg "Linform.compile: affine has index terms";
  let v = zero_vec u in
  List.iter
    (fun (s, k) ->
      match sym_slot u s with
      | Some j -> v.(j) <- k
      | None -> invalid_arg ("Linform.compile: symbol outside universe: " ^ s))
    (Affine.sym_terms e);
  v.(Array.length u.syms) <- Affine.const_part e;
  v

let to_affine u (v : vec) =
  let n = Array.length u.syms in
  let sym = ref [] in
  for j = n - 1 downto 0 do
    if v.(j) <> 0 then sym := (u.syms.(j), v.(j)) :: !sym
  done;
  Affine.make ~idx:[] ~sym:!sym ~const:v.(n)

let add_into (dst : vec) (v : vec) =
  for j = 0 to Array.length dst - 1 do
    dst.(j) <- Ops.add dst.(j) v.(j)
  done

let sub_into (dst : vec) (v : vec) =
  for j = 0 to Array.length dst - 1 do
    dst.(j) <- Ops.sub dst.(j) v.(j)
  done

let corner ~a ~b (x : vec) (y : vec) =
  Dt_guard.Inject.hit inject_corner;
  Array.init (Array.length x) (fun j -> Ops.sub (Ops.mul a x.(j)) (Ops.mul b y.(j)))

let add_const_vec k (v : vec) =
  let w = Array.copy v in
  let last = Array.length w - 1 in
  w.(last) <- Ops.add w.(last) k;
  w

let is_const_vec (v : vec) =
  let n = Array.length v - 1 in
  let rec go j = j >= n || (v.(j) = 0 && go (j + 1)) in
  go 0

let const_of_vec (v : vec) = v.(Array.length v - 1)

(* ------------------------------------------------------------------ *)
(* per-pair kernel                                                     *)

type pair = {
  indices : Index.t array;  (* occurring indices, Index.Set order *)
  a : int array;  (* source coefficient per slot *)
  b : int array;  (* sink coefficient per slot *)
  gcd_star : int array;  (* gcd (a_k, b_k) *)
  diff_eq : int array;  (* a_k - b_k *)
  c : Affine.t;  (* diff_const: symbolic + constant part of snk - src *)
  c_sym_gcd : int;  (* gcd of [c]'s symbolic coefficients *)
  c_const : int;  (* [c]'s integer part *)
}

let compile_pair ~src ~snk =
  let occ = Index.Set.union (Affine.indices src) (Affine.indices snk) in
  let indices = Array.of_list (Index.Set.elements occ) in
  let n = Array.length indices in
  let a = Array.make n 0
  and b = Array.make n 0
  and gcd_star = Array.make n 0
  and diff_eq = Array.make n 0 in
  Array.iteri
    (fun k i ->
      let ak = Affine.coeff src i and bk = Affine.coeff snk i in
      a.(k) <- ak;
      b.(k) <- bk;
      gcd_star.(k) <- Dt_support.Int_ops.gcd ak bk;
      diff_eq.(k) <- Ops.sub ak bk)
    indices;
  let d = Affine.sub snk src in
  let sym = Affine.sym_terms d in
  let const = Affine.const_part d in
  {
    indices;
    a;
    b;
    gcd_star;
    diff_eq;
    c = Affine.make ~idx:[] ~sym ~const;
    c_sym_gcd = Dt_support.Int_ops.gcd_list (List.map snd sym);
    c_const = const;
  }

let slot kp i =
  (* pairs have a handful of indices; a linear scan wins here *)
  let n = Array.length kp.indices in
  let rec go k =
    if k >= n then None
    else if Index.equal kp.indices.(k) i then Some k
    else go (k + 1)
  in
  go 0

let coeffs kp i =
  match slot kp i with Some k -> (kp.a.(k), kp.b.(k)) | None -> (0, 0)
