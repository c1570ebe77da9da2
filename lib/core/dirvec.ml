type t = Direction.set array

let full n = Array.make n Direction.full_set

let refine t k s =
  let s' = Direction.inter t.(k) s in
  if Direction.is_empty s' then None
  else begin
    let t' = Array.copy t in
    t'.(k) <- s';
    Some t'
  end

let expand t =
  let choices = Array.to_list (Array.map Direction.elements t) in
  List.map
    (fun dirs -> Array.of_list (List.map Direction.single dirs))
    (Dt_support.Listx.cartesian choices)

let concrete t =
  let exception Not_single in
  try
    Some
      (Array.to_list
         (Array.map
            (fun s ->
              match Direction.elements s with
              | [ d ] -> d
              | _ -> raise Not_single)
            t))
  with Not_single -> None

let of_dirs dirs = Array.of_list (List.map Direction.single dirs)

let level t =
  match concrete t with
  | None -> None
  | Some dirs ->
      let rec go k = function
        | [] -> None (* all '=' : loop-independent *)
        | Direction.Eq :: rest -> go (k + 1) rest
        | _ -> Some k
      in
      go 1 dirs

let levels t =
  let n = Array.length t in
  let acc = ref [] in
  let add l = if not (List.mem l !acc) then acc := l :: !acc in
  let rec go k =
    (* positions before k are '='; position k (0-based) carries *)
    if k >= n then add (n + 1)
    else begin
      if t.(k).Direction.lt || t.(k).Direction.gt then add (k + 1);
      if t.(k).Direction.eq then go (k + 1)
    end
  in
  go 0;
  List.sort compare !acc

let is_forward dirs =
  let rec go = function
    | [] -> true
    | Direction.Eq :: rest -> go rest
    | Direction.Lt :: _ -> true
    | Direction.Gt :: _ -> false
  in
  go dirs

let is_backward dirs =
  let rec go = function
    | [] -> false
    | Direction.Eq :: rest -> go rest
    | Direction.Lt :: _ -> false
    | Direction.Gt :: _ -> true
  in
  go dirs

let negate t = Array.map Direction.negate_set t

let inter a b =
  let n = Array.length a in
  assert (n = Array.length b);
  let out = Array.make n Direction.empty_set in
  let ok = ref true in
  for k = 0 to n - 1 do
    let s = Direction.inter a.(k) b.(k) in
    if Direction.is_empty s then ok := false;
    out.(k) <- s
  done;
  if !ok then Some out else None

let compare a b =
  Stdlib.compare (Array.map (fun s -> Direction.elements s) a)
    (Array.map (fun s -> Direction.elements s) b)

let equal a b = compare a b = 0

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

let to_buffer buf t =
  Buffer.add_char buf '(';
  Array.iteri
    (fun k s ->
      if k > 0 then Buffer.add_char buf ',';
      Direction.set_to_buffer buf s)
    t;
  Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 16 in
  to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

let pp_concrete ppf dirs =
  Format.pp_print_string ppf "(";
  List.iteri
    (fun k d ->
      if k > 0 then Format.pp_print_string ppf ",";
      Direction.pp ppf d)
    dirs;
  Format.pp_print_string ppf ")"

let distances_to_vec dists =
  Array.map
    (function
      | Some d -> Direction.single (Direction.of_distance d)
      | None -> Direction.full_set)
    dists
