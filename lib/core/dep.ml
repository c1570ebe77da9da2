open Dt_ir

type kind = Flow | Anti | Output | Input

type t = {
  src_stmt : int;
  snk_stmt : int;
  array : string;
  kind : kind;
  dirvec : Dirvec.t;
  level : int option;
  distances : (Index.t * Outcome.dist) list;
}

let kind_name = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"
  | Input -> "input"

let is_carried_at t k = t.level = Some k

let to_buffer buf t =
  let add = Buffer.add_string buf in
  let int n = add (string_of_int n) in
  add "S";
  int t.src_stmt;
  add " -";
  add (kind_name t.kind);
  add "-> S";
  int t.snk_stmt;
  add " ";
  add t.array;
  add " ";
  Dirvec.to_buffer buf t.dirvec;
  (match t.level with
  | Some k ->
      add " carried level ";
      int k
  | None -> add " loop-independent");
  List.iter
    (fun (i, d) ->
      add " d_";
      add (Index.name i);
      add "=";
      Outcome.dist_to_buffer buf d)
    t.distances

let to_string t =
  let buf = Buffer.create 64 in
  to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

let compare = Stdlib.compare
