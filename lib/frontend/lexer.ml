exception Error of string * int

let is_digit c = c >= '0' && c <= '9'

let is_alpha c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_alnum c = is_alpha c || is_digit c

(* The line rules, on the bytes [i, e) of [src] so that Split can apply
   them to a whole unit without copying a line: Split cuts units into
   routines with these, so a new line rule goes here, not in
   [logical_lines]. *)

let comment_line src i e =
  e > i && (src.[i] = 'C' || src.[i] = 'c' || src.[i] = '*')

(* columns 1-5 blank, column 6 neither blank nor '0' *)
let continuation_line src i e =
  e - i >= 6
  && src.[i] = ' ' && src.[i + 1] = ' ' && src.[i + 2] = ' '
  && src.[i + 3] = ' ' && src.[i + 4] = ' '
  && src.[i + 5] <> ' ' && src.[i + 5] <> '0'

(* String.trim's blanks *)
let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n' || c = '\012'

let rec last_kept src i e =
  if e > i && is_space src.[e - 1] then last_kept src i (e - 1) else e - 1

(* Pre-process: drop comment lines, handle '&' continuations and the
   classic column-6 continuation convention, strip '!' comments. Each
   logical line carries the number of its first physical line. *)
let logical_lines src =
  let raw = String.split_on_char '\n' src in
  let strip_inline_comment line =
    match String.index_opt line '!' with
    | Some k -> String.sub line 0 k
    | None -> line
  in
  let rec go acc lineno = function
    | [] -> List.rev acc
    | line :: rest ->
        if comment_line line 0 (String.length line) then go acc (lineno + 1) rest
        else
          let line = strip_inline_comment line in
          let n = String.length line in
          if last_kept line 0 n < 0 then go acc (lineno + 1) rest
          else if continuation_line line 0 n then
            match acc with
            | (prev_no, prev) :: acc' ->
                (* a continued statement may go on with a trailing '&' *)
                statement acc' prev_no
                  (String.trim (prev ^ " " ^ String.sub line 6 (n - 6)))
                  (lineno + 1) rest
            | [] -> raise (Error ("continuation with no previous line", lineno))
          else statement acc lineno (String.trim line) (lineno + 1) rest
  (* [text], begun on line [first], is a statement: a trailing '&'
     splices the next physical line [next_no] into it, and the joined
     text stays a statement (never re-read as a comment line) *)
  and statement acc first text next_no rest =
    let n = String.length text in
    if n > 0 && text.[n - 1] = '&' then
      match rest with
      | next :: rest' ->
          let joined =
            String.sub text 0 (n - 1) ^ " " ^ strip_inline_comment next
          in
          statement acc first (String.trim joined) (next_no + 1) rest'
      | [] -> raise (Error ("dangling '&'", first))
    else if n = 0 then go acc next_no rest
    else go ((first, text) :: acc) next_no rest
  in
  go [] 1 raw

let tokenize src =
  let out = ref [] in
  let emit tok line = out := { Token.tok; loc = { Token.line } } :: !out in
  let lex_line (lineno, line) =
    let n = String.length line in
    let pos = ref 0 in
    while !pos < n do
      let c = line.[!pos] in
      if c = ' ' || c = '\t' || c = '\r' then incr pos
      else if is_digit c then begin
        let start = !pos in
        while !pos < n && is_digit line.[!pos] do
          incr pos
        done;
        emit (Token.INT (int_of_string (String.sub line start (!pos - start)))) lineno
      end
      else if is_alpha c then begin
        let start = !pos in
        while !pos < n && is_alnum line.[!pos] do
          incr pos
        done;
        emit
          (Token.IDENT (String.uppercase_ascii (String.sub line start (!pos - start))))
          lineno
      end
      else begin
        (match c with
        | '(' -> emit Token.LPAREN lineno
        | ')' -> emit Token.RPAREN lineno
        | ',' -> emit Token.COMMA lineno
        | '=' -> emit Token.EQUALS lineno
        | '+' -> emit Token.PLUS lineno
        | '-' -> emit Token.MINUS lineno
        | '*' -> emit Token.STAR lineno
        | '/' -> emit Token.SLASH lineno
        | '.' ->
            (* skip real-literal fraction / logical operators crudely: treat
               the rest of a ".XY." operator or fraction digits as skipped *)
            raise (Error ("unsupported '.' syntax", lineno))
        | _ -> raise (Error (Printf.sprintf "illegal character %c" c, lineno)));
        incr pos
      end
    done;
    emit Token.NEWLINE lineno
  in
  List.iter lex_line (logical_lines src);
  emit Token.EOF
    (match !out with t :: _ -> t.Token.loc.Token.line | [] -> 1);
  List.rev !out
