(* One pass over the source by offsets: no line is copied and no token
   is built, so the cost is a byte scan plus the result array. Lines are
   classified by the lexer's own line rules; [is_end] mirrors the END
   case of Parser.parse_raw_stmt. *)

exception Unsure

(* What one pass over a line learns besides its end, kept in one record
   per scan so that no line allocates: the line's first '!' (the end of
   its statement part), and whether any line so far holds '[' or '{' —
   C needs one (Cfront.looks_like_c) and the Fortran lexer rejects
   both. *)
type scan = { mutable bang : int; mutable brackets : bool }

(* the index of the newline ending the line that [i] is on, or [n] *)
let rec line_end st src n i =
  if i >= n then i
  else
    match String.unsafe_get src i with
    | '\n' -> i
    | '!' ->
        if st.bang < 0 then st.bang <- i;
        line_end st src n (i + 1)
    | '[' | '{' ->
        st.brackets <- true;
        line_end st src n (i + 1)
    | _ -> line_end st src n (i + 1)

let rec skip_blanks src i e =
  if i < e && (src.[i] = ' ' || src.[i] = '\t' || src.[i] = '\r') then
    skip_blanks src (i + 1) e
  else i

let rec skip_digits src i e =
  if i < e && src.[i] >= '0' && src.[i] <= '9' then skip_digits src (i + 1) e
  else i

let rec word_end src j e =
  if j < e && Lexer.is_alnum src.[j] then word_end src (j + 1) e else j

(* the statement [i, e) is an END: an optional label, then the word END *)
let is_end src i e =
  let p = skip_blanks src i e in
  let q = skip_digits src p e in
  let w = if q > p then skip_blanks src q e else p in
  w + 3 <= e
  && word_end src w e = w + 3
  && Char.uppercase_ascii src.[w] = 'E'
  && Char.uppercase_ascii src.[w + 1] = 'N'
  && Char.uppercase_ascii src.[w + 2] = 'D'

let cuts st src =
  let n = String.length src in
  (* [ends]: the byte after each END line, newest first; [open_]: a
     statement follows the last of them *)
  let rec go i ends open_ =
    if i >= n then if open_ then n :: ends else ends
    else begin
      st.bang <- -1;
      let e = line_end st src n i in
      let next = e + 1 in
      if Lexer.comment_line src i e then go next ends open_
      else
        let s = if st.bang < 0 then e else st.bang in
        let last = Lexer.last_kept src i s in
        if last < i then go next ends open_
        else if src.[last] = '&' || Lexer.continuation_line src i s then
          raise Unsure
        else if is_end src i s then go next (min next n :: ends) false
        else go next ends true
    end
  in
  go 0 [] false

let routines src =
  let n = String.length src in
  let whole = [| 0; n |] in
  let st = { bang = -1; brackets = false } in
  match cuts st src with
  | exception Unsure -> whole
  | [] | [ _ ] -> whole
  | _ :: _ when st.brackets && Cfront.looks_like_c src -> whole
  | _ :: ends ->
      (* lines with no statement after the last END stay with the last
         routine *)
      Array.of_list (0 :: List.rev (n :: ends))
