(* [Presult.to_dirvecs] as it was before its [Vectors] case resolved the
   loop positions once per result: a [List.nth] and a linear [pos_of]
   for every position of every vector. The production function must
   return the same vectors in the same order. *)

open Dt_ir
open Deptest
open Presult

let pos_of loop_indices i =
  let rec go k = function
    | [] -> None
    | j :: rest -> if Index.equal i j then Some k else go (k + 1) rest
  in
  go 0 loop_indices

let to_dirvecs ~loop_indices t =
  let n = List.length loop_indices in
  match t with
  | Independent -> []
  | Degraded _ -> [ Dirvec.full n ]
  | Indexwise deps ->
      let v = Dirvec.full n in
      let v =
        List.fold_left
          (fun v (d : Outcome.index_dep) ->
            match pos_of loop_indices d.index with
            | Some k ->
                let v' = Array.copy v in
                v'.(k) <- Direction.inter v'.(k) d.dirs;
                v'
            | None -> v)
          v deps
      in
      if Array.exists Direction.is_empty v then [] else [ v ]
  | Vectors (indices, vecs) ->
      List.filter_map
        (fun vec ->
          let v = Dirvec.full n in
          let ok = ref true in
          List.iteri
            (fun j d ->
              match pos_of loop_indices (List.nth indices j) with
              | Some k ->
                  let s = Direction.inter v.(k) (Direction.single d) in
                  if Direction.is_empty s then ok := false else v.(k) <- s
              | None -> ())
            vec;
          if !ok then Some v else None)
        vecs
