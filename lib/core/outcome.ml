open Dt_ir

type dist = Const of int | Sym of Affine.t | Unknown
type index_dep = { index : Index.t; dirs : Direction.set; dist : dist }
type t = Independent | Dependent of index_dep list

let dependent_star indices =
  Dependent
    (List.map
       (fun index -> { index; dirs = Direction.full_set; dist = Unknown })
       indices)

let dep1 index dirs dist = Dependent [ { index; dirs; dist } ]

let equal_dist a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Sym x, Sym y -> Affine.equal x y
  | Unknown, Unknown -> true
  | Const x, Sym y | Sym y, Const x -> Affine.equal y (Affine.const x)
  | _ -> false

let meet_dist a b =
  match (a, b) with
  | Unknown, d | d, Unknown -> d
  | a, b -> if equal_dist a b then a else a (* conflicting exact distances:
      callers detect emptiness via direction sets; keep the first. *)

let and_outcomes a b =
  match (a, b) with
  | Independent, _ | _, Independent -> Independent
  | Dependent xs, Dependent ys ->
      let merged =
        List.fold_left
          (fun acc (y : index_dep) ->
            let rec ins = function
              | [] -> [ y ]
              | (x : index_dep) :: rest when Index.equal x.index y.index ->
                  {
                    index = x.index;
                    dirs = Direction.inter x.dirs y.dirs;
                    dist = meet_dist x.dist y.dist;
                  }
                  :: rest
              | x :: rest -> x :: ins rest
            in
            ins acc)
          xs ys
      in
      if List.exists (fun (d : index_dep) -> Direction.is_empty d.dirs) merged
      then Independent
      else Dependent merged

let dist_of_affine e =
  match Affine.as_const e with Some c -> Const c | None -> Sym e

let dirs_of_dist assume = function
  | Const d -> Direction.single (Direction.of_distance d)
  | Unknown -> Direction.full_set
  | Sym e -> (
      match Assume.sign assume e with
      | `Zero -> Direction.single Eq
      | `Pos -> Direction.single Lt
      | `Neg -> Direction.single Gt
      | `Nonneg -> Direction.of_list [ Lt; Eq ]
      | `Nonpos -> Direction.of_list [ Gt; Eq ]
      | `Unknown -> Direction.full_set)

let dist_to_buffer buf = function
  | Const d -> Buffer.add_string buf (string_of_int d)
  | Sym e -> Affine.to_buffer buf e
  | Unknown -> Buffer.add_char buf '?'

let dist_to_string d =
  let buf = Buffer.create 16 in
  dist_to_buffer buf d;
  Buffer.contents buf

let pp_dist ppf d = Format.pp_print_string ppf (dist_to_string d)

let pp ppf = function
  | Independent -> Format.pp_print_string ppf "independent"
  | Dependent deps ->
      Format.fprintf ppf "dependent:";
      List.iter
        (fun d ->
          Format.fprintf ppf " %a:%a" Index.pp d.index Direction.pp_set d.dirs;
          match d.dist with
          | Unknown -> ()
          | _ -> Format.fprintf ppf "(d=%a)" pp_dist d.dist)
        deps
