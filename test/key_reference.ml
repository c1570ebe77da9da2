(* The string-building structural key, kept as the oracle for
   [Dt_engine.Key]: a fresh hash table of ["%n"] names per call,
   [string_of_int] per integer, and a polymorphic sort of every affine
   form's terms. The production key must put two queries in the same
   class exactly when this one does, with the same [actual_of_canon]. *)

open Dt_ir

type t = {
  key : string;
  actual_of_canon : (string * Index.t) list;
}

(* symbol-only canonical rendering: sorted symbolic terms + constant *)
let render_sym_affine buf a =
  List.iter
    (fun (s, c) ->
      Buffer.add_string buf (string_of_int c);
      Buffer.add_char buf '*';
      Buffer.add_string buf s;
      Buffer.add_char buf '+')
    (List.sort compare (Affine.sym_terms a));
  Buffer.add_string buf (string_of_int (Affine.const_part a))

let facts_digest facts =
  let one a =
    let buf = Buffer.create 32 in
    render_sym_affine buf a;
    Buffer.contents buf
  in
  String.concat ";" (List.sort compare (List.map one facts))

let make ~src:(src_ref, src_loops) ~snk:(snk_ref, snk_loops) ~facts ~tag =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  let count = ref 0 in
  let name_of i =
    match Hashtbl.find_opt tbl i with
    | Some s -> s
    | None ->
        let s = "%" ^ string_of_int !count in
        incr count;
        Hashtbl.add tbl i s;
        order := (s, i) :: !order;
        s
  in
  List.iter (fun (l : Loop.t) -> ignore (name_of l.Loop.index)) src_loops;
  List.iter (fun (l : Loop.t) -> ignore (name_of l.Loop.index)) snk_loops;
  let buf = Buffer.create 256 in
  let render_affine a =
    let terms =
      List.sort compare
        (List.map (fun (i, c) -> (name_of i, c)) (Affine.index_terms a))
    in
    List.iter
      (fun (s, c) ->
        Buffer.add_string buf (string_of_int c);
        Buffer.add_char buf '*';
        Buffer.add_string buf s;
        Buffer.add_char buf '+')
      terms;
    render_sym_affine buf a
  in
  let render_sub = function
    | Aref.Linear a ->
        Buffer.add_string buf "L:";
        render_affine a
    | Aref.Nonlinear s ->
        Buffer.add_char buf 'N';
        Buffer.add_string buf (string_of_int (String.length s));
        Buffer.add_char buf ':';
        Buffer.add_string buf s
  in
  let render_subs subs =
    Buffer.add_char buf '[';
    List.iter
      (fun s ->
        render_sub s;
        Buffer.add_char buf ',')
      subs;
    Buffer.add_char buf ']'
  in
  let render_loop (l : Loop.t) =
    Buffer.add_char buf '(';
    Buffer.add_string buf (name_of l.Loop.index);
    Buffer.add_char buf '@';
    Buffer.add_string buf (string_of_int (Index.depth l.Loop.index));
    Buffer.add_char buf ' ';
    render_affine l.Loop.lo;
    Buffer.add_string buf "..";
    render_affine l.Loop.hi;
    Buffer.add_char buf ')'
  in
  Buffer.add_string buf tag;
  Buffer.add_char buf '|';
  Buffer.add_string buf facts;
  Buffer.add_string buf "|s";
  render_subs src_ref.Aref.subs;
  List.iter render_loop src_loops;
  Buffer.add_string buf "|t";
  render_subs snk_ref.Aref.subs;
  List.iter render_loop snk_loops;
  { key = Buffer.contents buf; actual_of_canon = List.rev !order }
