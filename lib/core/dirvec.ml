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

(* A set's rank is its place among the [Direction.elements] lists in
   [Stdlib.compare]'s order: [] < [<] < [<;=] < [<;=;>] < [<;>] < [=] <
   [=;>] < [>]. [merge]'s output order, which the explain text and the
   persisted verdicts show, follows it. A set's code is the bit set
   lt = 1, eq = 2, gt = 4. *)
let set_of_rank =
  Direction.
    [|
      empty_set;
      of_list [ Lt ];
      of_list [ Lt; Eq ];
      full_set;
      of_list [ Lt; Gt ];
      of_list [ Eq ];
      of_list [ Eq; Gt ];
      of_list [ Gt ];
    |]

let code (s : Direction.set) =
  Bool.to_int s.lt lor (Bool.to_int s.eq lsl 1) lor (Bool.to_int s.gt lsl 2)

let rank_of_code =
  let t = Array.make 8 0 in
  Array.iteri (fun r s -> t.(code s) <- r) set_of_rank;
  t

let rank s = rank_of_code.(code s)

(* rank of the intersection of ranks [a] and [b], at [a * 8 + b] *)
let inter_rank =
  String.init 64 (fun k ->
      Char.chr
        (rank_of_code.(code set_of_rank.(k lsr 3) land code set_of_rank.(k land 7))))

let compare a b =
  let n = Array.length a in
  let rec go k =
    if k = n then 0
    else
      match Int.compare (rank a.(k)) (rank b.(k)) with
      | 0 -> go (k + 1)
      | c -> c
  in
  match Int.compare n (Array.length b) with 0 -> go 0 | c -> c

let equal a b = compare a b = 0

(* The merge works on encodings: one rank byte per level, so that
   [compare_enc] is [compare] and an intersection is a table lookup per
   byte. Vectors are decoded once, at the end. *)
let encode t = String.init (Array.length t) (fun k -> Char.unsafe_chr (rank t.(k)))
let decode s = Array.init (String.length s) (fun k -> set_of_rank.(Char.code s.[k]))

let compare_enc a b =
  match Int.compare (String.length a) (String.length b) with
  | 0 -> String.compare a b
  | c -> c

(* level [k] of the position-wise intersection *)
let inter_at v w k = inter_rank.[(Char.code v.[k] lsl 3) lor Char.code w.[k]]

let rec meets v w n k =
  k = n || (inter_at v w k <> '\000' && meets v w n (k + 1))

(* the position-wise intersection, [None] when some level is empty *)
let inter_enc v w =
  let n = String.length v in
  assert (n = String.length w);
  if meets v w n 0 then begin
    let out = Bytes.create n in
    for k = 0 to n - 1 do
      Bytes.set out k (inter_at v w k)
    done;
    Some (Bytes.unsafe_to_string out)
  end
  else None

let merge sets =
  match sets with
  | [] -> []
  | first :: rest ->
      let encode_set set = List.sort_uniq compare_enc (List.map encode set) in
      let step acc set =
        let set = encode_set set in
        List.concat_map (fun v -> List.filter_map (inter_enc v) set) acc
        |> List.sort_uniq compare_enc
      in
      List.fold_left step (encode_set first) rest |> List.map decode

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
