open Dt_ir

type t =
  | Independent
  | Indexwise of Outcome.index_dep list
  | Vectors of Index.t list * Direction.t list list
  | Degraded of Dt_guard.Degrade.reason

let of_outcome = function
  | Outcome.Independent -> Independent
  | Outcome.Dependent deps -> Indexwise deps

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
      (* each vector position's loop position, resolved once *)
      let pos = Array.of_list (List.map (pos_of loop_indices) indices) in
      List.filter_map
        (fun vec ->
          let v = Dirvec.full n in
          let ok = ref true in
          List.iteri
            (fun j d ->
              match pos.(j) with
              | Some k ->
                  let s = Direction.inter v.(k) (Direction.single d) in
                  if Direction.is_empty s then ok := false else v.(k) <- s
              | None -> ())
            vec;
          if !ok then Some v else None)
        vecs

let distances = function
  | Independent | Vectors _ | Degraded _ -> []
  | Indexwise deps ->
      List.filter_map
        (fun (d : Outcome.index_dep) ->
          match d.dist with
          | Outcome.Unknown -> None
          | dist -> Some (d.index, dist))
        deps

let is_independent = function
  | Independent -> true
  | Degraded _ -> false
  | Indexwise deps ->
      List.exists (fun (d : Outcome.index_dep) -> Direction.is_empty d.dirs) deps
  | Vectors (_, vecs) -> vecs = []

let pp ppf = function
  | Independent -> Format.pp_print_string ppf "independent"
  | Degraded r ->
      Format.fprintf ppf "degraded (%a): all directions assumed"
        Dt_guard.Degrade.pp r
  | Indexwise deps -> Outcome.pp ppf (Outcome.Dependent deps)
  | Vectors (indices, vecs) ->
      Format.fprintf ppf "vectors over (%a): "
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Index.pp)
        indices;
      List.iter (fun v -> Dirvec.pp_concrete ppf v) vecs
