type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing                                                            *)

(* The escape for each byte value, or "" for a byte copied as is, and
   the class table that flags the bytes with an escape. *)
let escapes =
  Array.init 256 (fun i ->
      match Char.chr i with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | '\b' -> "\\b"
      | '\012' -> "\\f"
      | _ when i < 0x20 -> Printf.sprintf "\\u%04x" i
      | _ -> "")

let escaped = String.init 256 (fun i -> if escapes.(i) = "" then '0' else '1')

module type SINK = sig
  type t

  val add_char : t -> char -> unit
  val add_string : t -> string -> unit
  val add_substring : t -> string -> int -> int -> unit
end

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.17g" f in
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short else s

module Printer (S : SINK) = struct
  (* copies each run of safe bytes with one blit, writing the escapes
     between runs; the quotes are the caller's *)
  let escape_body out s =
    let start = ref 0 in
    for i = 0 to String.length s - 1 do
      let c = Char.code (String.unsafe_get s i) in
      if String.unsafe_get escaped c = '1' then begin
        S.add_substring out s !start (i - !start);
        S.add_string out (Array.unsafe_get escapes c);
        start := i + 1
      end
    done;
    S.add_substring out s !start (String.length s - !start)

  let string out s =
    S.add_char out '"';
    escape_body out s;
    S.add_char out '"'

  let rec value out = function
    | Null -> S.add_string out "null"
    | Bool b -> S.add_string out (if b then "true" else "false")
    | Int i -> S.add_string out (string_of_int i)
    | Float f -> S.add_string out (float_repr f)
    | String s -> string out s
    | List xs ->
        S.add_char out '[';
        List.iteri
          (fun i x ->
            if i > 0 then S.add_char out ',';
            value out x)
          xs;
        S.add_char out ']'
    | Obj fields ->
        S.add_char out '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then S.add_char out ',';
            string out k;
            S.add_char out ':';
            value out v)
          fields;
        S.add_char out '}'
end

module To_buffer = Printer (Buffer)

(* sized by a first pass, so the only allocation is the result *)
let escape s =
  let width c = match escapes.(Char.code c) with "" -> 1 | e -> String.length e in
  let b = Bytes.create (String.fold_left (fun n c -> n + width c) 0 s) in
  let put j c =
    match escapes.(Char.code c) with
    | "" -> Bytes.unsafe_set b j c; j + 1
    | e -> Bytes.blit_string e 0 b j (String.length e); j + String.length e
  in
  ignore (String.fold_left put 0 s);
  Bytes.unsafe_to_string b

let to_string v =
  let buf = Buffer.create 256 in
  To_buffer.value buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parsing: recursive descent                                          *)

exception Parse_error of int * string

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* the code of the four hex digits at [p], as a [\\u] escape takes them;
   short input is an error at [p], a non-hex digit at [p + 4] *)
let hex4 s p =
  if p + 4 > String.length s then raise (Parse_error (p, "truncated \\u escape"));
  let d i = hex_digit s.[p + i] in
  let d0 = d 0 and d1 = d 1 and d2 = d 2 and d3 = d 3 in
  if d0 lor d1 lor d2 lor d3 < 0 then raise (Parse_error (p + 4, "invalid \\u escape"));
  (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3

(* The has-less-than test on the eight bytes of a word,
   [(x - 0x0101..*k) land lnot x land 0x8080..]: nonzero when some byte
   of [x] is below [k]. It is exact at the lowest such byte, so after a
   failed word test the byte loop meets a special byte within eight. *)
let[@inline] any_below x k =
  Int64.(logand (logand (sub x k) (lognot x)) 0x8080808080808080L) <> 0L

(* whether none of the eight bytes at [i] is a control byte (below
   0x20), '"' or '\\' *)
let[@inline] plain8 s i =
  let w = String.get_int64_le s i in
  not
    (any_below w 0x2020202020202020L
    || any_below (Int64.logxor w 0x2222222222222222L) 0x0101010101010101L
    || any_below (Int64.logxor w 0x5c5c5c5c5c5c5c5cL) 0x0101010101010101L)

(* One scan of a string body from [i] to its closing quote, eight plain
   bytes at a time: the quote's index and the bytes its escapes drop (a
   two-byte escape decodes to one byte, a six-byte [\\u] escape to at
   most three). A [\\u] escape's four hex digits are checked here, so
   the count never covers bytes that are not there. A raw control byte
   is an error (RFC 8259 §7). *)
let rec scan_string s i drop =
  if i + 8 <= String.length s && plain8 s i then scan_string s (i + 8) drop
  else scan_bytes s i drop

and scan_bytes s i drop =
  let n = String.length s in
  if i >= n then raise (Parse_error (n, "unterminated string"))
  else
    match String.unsafe_get s i with
    | '"' -> (i, drop)
    | '\\' ->
        if i + 1 >= n then raise (Parse_error (n, "unterminated escape"))
        else if String.unsafe_get s (i + 1) = 'u' then begin
          ignore (hex4 s (i + 2));
          scan_string s (i + 6) (drop + 3)
        end
        else scan_string s (i + 2) (drop + 1)
    | c when c < ' ' ->
        raise
          (Parse_error
             (i, Printf.sprintf "raw control byte 0x%02x in string" (Char.code c)))
    | _ -> scan_bytes s (i + 1) drop

(* the first index in [i, q) holding '\\', or [q] *)
let next_backslash s i q =
  let k = ref i in
  while
    !k + 8 <= q
    && not
         (any_below
            (Int64.logxor (String.get_int64_le s !k) 0x5c5c5c5c5c5c5c5cL)
            0x0101010101010101L)
  do
    k := !k + 8
  done;
  while !k < q && String.unsafe_get s !k <> '\\' do
    incr k
  done;
  !k

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let at c = !pos < n && s.[!pos] = c in
  let eat c = at c && (incr pos; true) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    let l = String.length word in
    let rec same i = i = l || (s.[!pos + i] = word.[i] && same (i + 1)) in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  (* write byte [c] at [j] of the decoded string, return the next index *)
  let put b j c = Bytes.set b j (Char.unsafe_chr c); j + 1 in
  let utf8_of_code b j c =
    (* encode one Unicode scalar (or lone surrogate, passed through) *)
    if c < 0x80 then put b j c
    else if c < 0x800 then
      put b (put b j (0xc0 lor (c lsr 6))) (0x80 lor (c land 0x3f))
    else if c < 0x10000 then
      let j = put b j (0xe0 lor (c lsr 12)) in
      put b (put b j (0x80 lor ((c lsr 6) land 0x3f))) (0x80 lor (c land 0x3f))
    else
      let j = put b j (0xf0 lor (c lsr 18)) in
      let j = put b j (0x80 lor ((c lsr 12) land 0x3f)) in
      put b (put b j (0x80 lor ((c lsr 6) land 0x3f))) (0x80 lor (c land 0x3f))
  in
  let next_hex4 () =
    let p = !pos in
    pos := p + 4;
    hex4 s p
  in
  (* one escape, [!pos] just past its backslash, decoded at [j] of [b] *)
  let unescape b j =
    let c = s.[!pos] in
    incr pos;
    match c with
    | '"' | '\\' | '/' -> put b j (Char.code c)
    | 'n' -> put b j 0x0a
    | 'r' -> put b j 0x0d
    | 't' -> put b j 0x09
    | 'b' -> put b j 0x08
    | 'f' -> put b j 0x0c
    | 'u' ->
        let c1 = next_hex4 () in
        if c1 >= 0xd800 && c1 <= 0xdbff && !pos + 6 <= n
           && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
        then begin
          pos := !pos + 2;
          let c2 = next_hex4 () in
          if c2 >= 0xdc00 && c2 <= 0xdfff then
            utf8_of_code b j (0x10000 + ((c1 - 0xd800) lsl 10) + (c2 - 0xdc00))
          else utf8_of_code b (utf8_of_code b j c1) c2
        end
        else utf8_of_code b j c1
    | _ -> fail "invalid escape"
  in
  (* The decoded string is written into one allocation, sized by the
     scan; one without escapes is one [String.sub]. Only a [\\u]
     escape can decode shorter than the scan allowed for, and then the
     result is trimmed. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let q, drop = scan_string s start 0 in
    let len = q - start - drop in
    if drop = 0 then begin
      pos := q + 1;
      String.sub s start len
    end
    else begin
      let b = Bytes.create len in
      (* copy the run up to the next escape, decode the escape, repeat *)
      let rec go i j =
        let k = next_backslash s i q in
        Bytes.blit_string s i b j (k - i);
        let j = j + (k - i) in
        if k >= q then j
        else begin
          pos := k + 1;
          let j = unescape b j in
          go !pos j
        end
      in
      let j = go start 0 in
      pos := q + 1;
      if j = len then Bytes.unsafe_to_string b else Bytes.sub_string b 0 j
    end
  in
  let is_digit c = c >= '0' && c <= '9' in
  let is_float_char = function
    | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
    | _ -> false
  in
  (* A number token is an optional '-' then a run of digits and
     [.eE+-]. Plain integers of up to 18 digits are accumulated in
     place; any other token is cut out and converted. *)
  let parse_number () =
    let start = !pos in
    let neg = eat '-' in
    let digits = !pos in
    let acc = ref 0 in
    while !pos < n && is_digit s.[!pos] do
      acc := (10 * !acc) + (Char.code s.[!pos] - 48);
      incr pos
    done;
    let ndigits = !pos - digits in
    if !pos < n && is_float_char s.[!pos] then begin
      while !pos < n && is_float_char s.[!pos] do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Float f
      | None -> fail "invalid number"
    end
    else if ndigits = 0 then fail "invalid number"
    else if ndigits <= 18 then Int (if neg then - !acc else !acc)
    else
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "invalid number")
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip_ws ();
        if eat '}' then Obj []
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            if eat ',' then fields_loop ()
            else if not (eat '}') then fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | '[' ->
        incr pos;
        skip_ws ();
        if eat ']' then List []
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            if eat ',' then items_loop ()
            else if not (eat ']') then fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

(* ------------------------------------------------------------------ *)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b
  | String a, String b -> a = b
  | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
      List.length a = List.length b
      && List.for_all2 (fun (k, v) (k', v') -> k = k' && equal v v') a b
  | _ -> false

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
let to_list = function List xs -> Some xs | _ -> None
let to_str = function String s -> Some s | _ -> None
