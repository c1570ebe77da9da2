type t = Lt | Eq | Gt

let all = [ Lt; Eq; Gt ]
let negate = function Lt -> Gt | Eq -> Eq | Gt -> Lt
let of_distance d = if d > 0 then Lt else if d < 0 then Gt else Eq
let to_string = function Lt -> "<" | Eq -> "=" | Gt -> ">"
let pp ppf t = Format.pp_print_string ppf (to_string t)
let compare = compare

type set = { lt : bool; eq : bool; gt : bool }

let empty_set = { lt = false; eq = false; gt = false }
let full_set = { lt = true; eq = true; gt = true }

let single = function
  | Lt -> { empty_set with lt = true }
  | Eq -> { empty_set with eq = true }
  | Gt -> { empty_set with gt = true }

let mem d s = match d with Lt -> s.lt | Eq -> s.eq | Gt -> s.gt

let of_list l =
  List.fold_left
    (fun s d ->
      match d with
      | Lt -> { s with lt = true }
      | Eq -> { s with eq = true }
      | Gt -> { s with gt = true })
    empty_set l

let union a b = { lt = a.lt || b.lt; eq = a.eq || b.eq; gt = a.gt || b.gt }
let inter a b = { lt = a.lt && b.lt; eq = a.eq && b.eq; gt = a.gt && b.gt }
let is_empty s = not (s.lt || s.eq || s.gt)
let is_full s = s.lt && s.eq && s.gt
let elements s = List.filter (fun d -> mem d s) all
let subset a b = (not a.lt || b.lt) && (not a.eq || b.eq) && (not a.gt || b.gt)
let negate_set s = { s with lt = s.gt; gt = s.lt }

let cardinal s =
  (if s.lt then 1 else 0) + (if s.eq then 1 else 0) + if s.gt then 1 else 0

let set_compare a b = compare a b
let set_equal a b = a = b

let set_to_buffer buf s =
  if is_full s then Buffer.add_char buf '*'
  else if is_empty s then Buffer.add_char buf '0'
  else
    List.iter (fun d -> if mem d s then Buffer.add_string buf (to_string d)) all

let set_to_string s =
  let buf = Buffer.create 3 in
  set_to_buffer buf s;
  Buffer.contents buf

let pp_set ppf s = Format.pp_print_string ppf (set_to_string s)
