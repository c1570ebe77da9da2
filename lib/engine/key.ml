open Dt_ir

type t = {
  key : string;
  actual_of_canon : (string * Index.t) list;
}

(* the names of the first canonical ids, shared by every key *)
let canon_names = Array.init 32 (fun n -> "%" ^ string_of_int n)

let canon_name n =
  if n < Array.length canon_names then canon_names.(n)
  else "%" ^ string_of_int n

(* the digits of [n <= 0], sign left out: working on the negative side
   covers [min_int] *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* [string_of_int n]'s text, written in place *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let add_term buf c name =
  add_int buf c;
  Buffer.add_char buf '*';
  Buffer.add_string buf name;
  Buffer.add_char buf '+'

(* symbol-only canonical rendering: symbolic terms in the map's own
   [String.compare] order, then the constant *)
let add_sym_part buf (a : Affine.t) =
  Smap.iter (fun s c -> add_term buf c s) a.Affine.sym;
  add_int buf a.Affine.const

let facts_digest facts =
  let one a =
    let buf = Buffer.create 32 in
    add_sym_part buf a;
    Buffer.contents buf
  in
  String.concat ";" (List.sort String.compare (List.map one facts))

(* per-domain scratch: [make] runs on pool workers *)
type scratch = {
  buf : Buffer.t;
  mutable ids : Index.t array;  (* canonical id -> index; [count] live *)
  mutable count : int;
  mutable term_ids : int array;
  mutable term_coeffs : int array;
      (* one affine form's index terms, insertion-sorted by id *)
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        buf = Buffer.create 256;
        ids = [||];
        count = 0;
        term_ids = [||];
        term_coeffs = [||];
      })

(* [a], or a copy with room for slot [n] *)
let ensure a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 8 (2 * n)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let rec find_same ids n i k =
  if k = n then -1 else if ids.(k) == i then k else find_same ids n i (k + 1)

let rec find_equal ids n i k =
  if k = n then -1
  else if Index.equal ids.(k) i then k
  else find_equal ids n i (k + 1)

(* the canonical id of [i], assigned on first sight: physical equality
   finds the shared index values first, [Index.equal] the copies *)
let id_of sc i =
  match find_same sc.ids sc.count i 0 with
  | -1 -> (
      match find_equal sc.ids sc.count i 0 with
      | -1 ->
          let k = sc.count in
          sc.ids <- ensure sc.ids k i;
          sc.ids.(k) <- i;
          sc.count <- k + 1;
          k
      | k -> k)
  | k -> k

(* ids are taken in [Index.compare] order, the map's own, which fixes
   how stray subscript indices are numbered; the terms are written in id
   order, so isomorphic queries render identically whatever the order of
   their actual indices *)
let add_affine sc (a : Affine.t) =
  let n =
    Index.Map.fold
      (fun i c n ->
        let id = id_of sc i in
        sc.term_ids <- ensure sc.term_ids n 0;
        sc.term_coeffs <- ensure sc.term_coeffs n 0;
        let ids = sc.term_ids and coeffs = sc.term_coeffs in
        let p = ref n in
        while !p > 0 && ids.(!p - 1) > id do
          ids.(!p) <- ids.(!p - 1);
          coeffs.(!p) <- coeffs.(!p - 1);
          decr p
        done;
        ids.(!p) <- id;
        coeffs.(!p) <- c;
        n + 1)
      a.Affine.idx 0
  in
  for k = 0 to n - 1 do
    add_term sc.buf sc.term_coeffs.(k) (canon_name sc.term_ids.(k))
  done;
  add_sym_part sc.buf a

let add_subs sc subs =
  let buf = sc.buf in
  Buffer.add_char buf '[';
  List.iter
    (fun s ->
      (match s with
      | Aref.Linear a ->
          Buffer.add_string buf "L:";
          add_affine sc a
      | Aref.Nonlinear s ->
          (* length-prefixed: the source text is arbitrary *)
          Buffer.add_char buf 'N';
          add_int buf (String.length s);
          Buffer.add_char buf ':';
          Buffer.add_string buf s);
      Buffer.add_char buf ',')
    subs;
  Buffer.add_char buf ']'

let add_loop sc (l : Loop.t) =
  let buf = sc.buf in
  Buffer.add_char buf '(';
  Buffer.add_string buf (canon_name (id_of sc l.Loop.index));
  Buffer.add_char buf '@';
  add_int buf (Index.depth l.Loop.index);
  Buffer.add_char buf ' ';
  add_affine sc l.Loop.lo;
  Buffer.add_string buf "..";
  add_affine sc l.Loop.hi;
  Buffer.add_char buf ')'

let make ~src:(src_ref, src_loops) ~snk:(snk_ref, snk_loops) ~facts ~tag =
  let sc = Domain.DLS.get scratch in
  let buf = sc.buf in
  Buffer.clear buf;
  sc.count <- 0;
  (* canonical ids in loop order first: the loops carry the nesting
     structure, and bounds may only reference outer indices *)
  List.iter (fun (l : Loop.t) -> ignore (id_of sc l.Loop.index)) src_loops;
  List.iter (fun (l : Loop.t) -> ignore (id_of sc l.Loop.index)) snk_loops;
  Buffer.add_string buf tag;
  Buffer.add_char buf '|';
  Buffer.add_string buf facts;
  Buffer.add_string buf "|s";
  add_subs sc src_ref.Aref.subs;
  List.iter (add_loop sc) src_loops;
  Buffer.add_string buf "|t";
  add_subs sc snk_ref.Aref.subs;
  List.iter (add_loop sc) snk_loops;
  let rec mapping k acc =
    if k < 0 then acc else mapping (k - 1) ((canon_name k, sc.ids.(k)) :: acc)
  in
  { key = Buffer.contents buf; actual_of_canon = mapping (sc.count - 1) [] }
