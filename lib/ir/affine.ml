(* Coefficient arithmetic goes through the overflow-checked ops: a
   silently wrapped coefficient or constant would corrupt every
   downstream bound check (SIV distances, Banerjee sums), so a form
   whose exact value is not representable raises [Dt_guard.Ops.Overflow]
   instead — the driver catches it at the pair boundary and degrades
   conservatively. *)
module Ops = Dt_guard.Ops

type t = { idx : int Index.Map.t; sym : int Smap.t; const : int }

let norm_idx m = Index.Map.filter (fun _ c -> c <> 0) m
let norm_sym m = Smap.filter (fun _ c -> c <> 0) m

let zero = { idx = Index.Map.empty; sym = Smap.empty; const = 0 }
let const c = { zero with const = c }

let of_index ?(coeff = 1) i =
  { zero with idx = norm_idx (Index.Map.singleton i coeff) }

let of_sym ?(coeff = 1) s = { zero with sym = norm_sym (Smap.singleton s coeff) }

let make ~idx ~sym ~const =
  let add_idx m (i, c) =
    Index.Map.update i (fun v -> Some (Ops.add (Option.value v ~default:0) c)) m
  in
  let add_sym m (s, c) =
    Smap.update s (fun v -> Some (Ops.add (Option.value v ~default:0) c)) m
  in
  {
    idx = norm_idx (List.fold_left add_idx Index.Map.empty idx);
    sym = norm_sym (List.fold_left add_sym Smap.empty sym);
    const;
  }

let merge_idx f a b =
  norm_idx
    (Index.Map.merge
       (fun _ x y -> Some (f (Option.value x ~default:0) (Option.value y ~default:0)))
       a b)

let merge_sym f a b =
  norm_sym
    (Smap.merge
       (fun _ x y -> Some (f (Option.value x ~default:0) (Option.value y ~default:0)))
       a b)

let add a b =
  { idx = merge_idx Ops.add a.idx b.idx;
    sym = merge_sym Ops.add a.sym b.sym;
    const = Ops.add a.const b.const }

let sub a b =
  { idx = merge_idx Ops.sub a.idx b.idx;
    sym = merge_sym Ops.sub a.sym b.sym;
    const = Ops.sub a.const b.const }

let neg a = sub zero a

let scale k a =
  if k = 0 then zero
  else
    { idx = Index.Map.map (fun c -> Ops.mul k c) a.idx;
      sym = Smap.map (fun c -> Ops.mul k c) a.sym;
      const = Ops.mul k a.const }

let add_const c a = { a with const = Ops.add a.const c }

let content a =
  let g = Dt_support.Int_ops.gcd_list (List.map snd (Index.Map.bindings a.idx)) in
  let g = Dt_support.Int_ops.gcd g (Dt_support.Int_ops.gcd_list (List.map snd (Smap.bindings a.sym))) in
  Dt_support.Int_ops.gcd g a.const

let div_exact a k =
  if k = 0 then None
  else if
    Index.Map.for_all (fun _ c -> c mod k = 0) a.idx
    && Smap.for_all (fun _ c -> c mod k = 0) a.sym
    && a.const mod k = 0
  then
    (* k = -1 is the one quotient that can overflow (min_int / -1) *)
    let div c = if k = -1 then Ops.neg c else c / k in
    Some
      {
        idx = Index.Map.map div a.idx;
        sym = Smap.map div a.sym;
        const = div a.const;
      }
  else None
let coeff a i = Option.value (Index.Map.find_opt i a.idx) ~default:0
let sym_coeff a s = Option.value (Smap.find_opt s a.sym) ~default:0
let const_part a = a.const

let set_coeff a i c =
  { a with idx = norm_idx (Index.Map.add i c a.idx) }

let indices a = Index.Map.fold (fun i _ s -> Index.Set.add i s) a.idx Index.Set.empty
let syms a = Smap.fold (fun s _ acc -> s :: acc) a.sym [] |> List.rev
let index_terms a = Index.Map.bindings a.idx
let sym_terms a = Smap.bindings a.sym
let is_const a = Index.Map.is_empty a.idx && Smap.is_empty a.sym
let as_const a = if is_const a then Some a.const else None
let is_sym_free a = Smap.is_empty a.sym
let drop_index a i = { a with idx = Index.Map.remove i a.idx }

let subst_index a i e =
  let c = coeff a i in
  if c = 0 then a else add (drop_index a i) (scale c e)

let eval a ~index_env ~sym_env =
  Ops.add
    (Index.Map.fold
       (fun i c acc -> Ops.add acc (Ops.mul c (index_env i)))
       a.idx a.const)
    (Smap.fold (fun s c acc -> Ops.add acc (Ops.mul c (sym_env s))) a.sym 0)

let eval_syms a ~sym_env =
  Smap.fold
    (fun s c acc ->
      match sym_env s with
      | Some v -> add_const (Ops.mul c v) { acc with sym = Smap.remove s acc.sym }
      | None -> acc)
    a.sym a

let equal a b =
  a.const = b.const
  && Index.Map.equal Int.equal a.idx b.idx
  && Smap.equal Int.equal a.sym b.sym

let compare a b =
  let c = Index.Map.compare Int.compare a.idx b.idx in
  if c <> 0 then c
  else
    let c = Smap.compare Int.compare a.sym b.sym in
    if c <> 0 then c else Int.compare a.const b.const

let to_buffer buf a =
  let first = ref true in
  let term c name =
    if !first then (
      first := false;
      if c < 0 then Buffer.add_char buf '-')
    else Buffer.add_string buf (if c < 0 then " - " else " + ");
    let c = abs c in
    if c <> 1 then (
      Buffer.add_string buf (string_of_int c);
      Buffer.add_char buf '*');
    Buffer.add_string buf name
  in
  Index.Map.iter (fun i c -> term c (Index.name i)) a.idx;
  Smap.iter (fun s c -> term c s) a.sym;
  if !first then Buffer.add_string buf (string_of_int a.const)
  else if a.const <> 0 then (
    Buffer.add_string buf (if a.const > 0 then " + " else " - ");
    Buffer.add_string buf (string_of_int (abs a.const)))

let to_string a =
  let buf = Buffer.create 16 in
  to_buffer buf a;
  Buffer.contents buf

let pp ppf a = Format.pp_print_string ppf (to_string a)
