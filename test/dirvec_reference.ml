(* The list-comparing direction-vector merge, kept as the oracle for
   [Deptest.Dirvec.merge] and [Dirvec.compare]: fold the cartesian
   product of position-wise intersections, then sort and dedup with a
   comparator that maps every position to its [Direction.elements]
   list. The production merge must return this list, order included. *)

module D = Deptest.Direction

let inter a b =
  let n = Array.length a in
  assert (n = Array.length b);
  let out = Array.make n D.empty_set in
  let ok = ref true in
  for k = 0 to n - 1 do
    let s = D.inter a.(k) b.(k) in
    if D.is_empty s then ok := false;
    out.(k) <- s
  done;
  if !ok then Some out else None

let compare a b =
  Stdlib.compare (Array.map (fun s -> D.elements s) a)
    (Array.map (fun s -> D.elements s) b)

let merge sets =
  match sets with
  | [] -> []
  | first :: rest ->
      let step acc set =
        List.concat_map
          (fun v -> List.filter_map (fun w -> inter v w) set)
          acc
      in
      List.fold_left step first rest |> Dt_support.Listx.dedup ~compare
