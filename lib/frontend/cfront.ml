exception Error of string * int

(* ------------------------------------------------------------------ *)
(* lexer                                                               *)

type tok =
  | INT of int
  | ID of string
  | LP | RP | LB | RB | LBRACE | RBRACE
  | SEMI | COMMA | ASSIGN
  | PLUS | MINUS | STAR | SLASH
  | LT | LE | PLUSPLUS | PLUSEQ
  | EOF

type st = { toks : (tok * int) array; mutable pos : int }

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let tokenize src =
  let out = ref [] in
  let line = ref 1 in
  let n = String.length src in
  let pos = ref 0 in
  let emit t = out := (t, !line) :: !out in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then begin
      incr line;
      incr pos
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if c = '/' && !pos + 1 < n && src.[!pos + 1] = '/' then begin
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if c = '/' && !pos + 1 < n && src.[!pos + 1] = '*' then begin
      pos := !pos + 2;
      while
        !pos + 1 < n && not (src.[!pos] = '*' && src.[!pos + 1] = '/')
      do
        if src.[!pos] = '\n' then incr line;
        incr pos
      done;
      pos := min n (!pos + 2)
    end
    else if is_digit c then begin
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        incr pos
      done;
      emit (INT (int_of_string (String.sub src start (!pos - start))))
    end
    else if is_alpha c then begin
      let start = !pos in
      while !pos < n && is_alnum src.[!pos] do
        incr pos
      done;
      emit (ID (String.uppercase_ascii (String.sub src start (!pos - start))))
    end
    else begin
      (match c with
      | '(' -> emit LP
      | ')' -> emit RP
      | '[' -> emit LB
      | ']' -> emit RB
      | '{' -> emit LBRACE
      | '}' -> emit RBRACE
      | ';' -> emit SEMI
      | ',' -> emit COMMA
      | '*' -> emit STAR
      | '/' -> emit SLASH
      | '-' -> emit MINUS
      | '+' ->
          if !pos + 1 < n && src.[!pos + 1] = '+' then begin
            incr pos;
            emit PLUSPLUS
          end
          else if !pos + 1 < n && src.[!pos + 1] = '=' then begin
            incr pos;
            emit PLUSEQ
          end
          else emit PLUS
      | '<' ->
          if !pos + 1 < n && src.[!pos + 1] = '=' then begin
            incr pos;
            emit LE
          end
          else emit LT
      | '=' -> emit ASSIGN
      | _ -> raise (Error (Printf.sprintf "illegal character %c" c, !line)));
      incr pos
    end
  done;
  emit EOF;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* parser                                                              *)

let peek st = fst st.toks.(st.pos)
let line st = snd st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let expect st t msg =
  if peek st = t then advance st
  else raise (Error ("expected " ^ msg, line st))

let rec parse_expr st =
  let lhs = parse_term st in
  let rec go lhs =
    match peek st with
    | PLUS ->
        advance st;
        go (Ast.Bin (Ast.Add, lhs, parse_term st))
    | MINUS ->
        advance st;
        go (Ast.Bin (Ast.Sub, lhs, parse_term st))
    | _ -> lhs
  in
  go lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec go lhs =
    match peek st with
    | STAR ->
        advance st;
        go (Ast.Bin (Ast.Mul, lhs, parse_factor st))
    | SLASH ->
        advance st;
        go (Ast.Bin (Ast.Div, lhs, parse_factor st))
    | _ -> lhs
  in
  go lhs

and parse_factor st =
  match peek st with
  | INT n ->
      advance st;
      Ast.Int n
  | MINUS ->
      advance st;
      Ast.Neg (parse_factor st)
  | PLUS ->
      advance st;
      parse_factor st
  | LP ->
      advance st;
      let e = parse_expr st in
      expect st RP ")";
      e
  | ID name -> (
      advance st;
      match peek st with
      | LP ->
          (* function call *)
          advance st;
          let args = parse_args st in
          expect st RP ")";
          Ast.Ref (name, args)
      | LB -> Ast.Ref (name, parse_indices st)
      | _ -> Ast.Var name)
  | _ -> raise (Error ("expected expression", line st))

and parse_args st =
  if peek st = RP then []
  else
    let rec go acc =
      let e = parse_expr st in
      if peek st = COMMA then begin
        advance st;
        go (e :: acc)
      end
      else List.rev (e :: acc)
    in
    go []

and parse_indices st =
  let rec go acc =
    if peek st = LB then begin
      advance st;
      let e = parse_expr st in
      expect st RB "]";
      go (e :: acc)
    end
    else List.rev acc
  in
  go []

let rec parse_stmt st : Ast.stmt list =
  match peek st with
  | ID "FOR" -> (
      let ln = line st in
      advance st;
      expect st LP "(";
      let var =
        match peek st with
        | ID v ->
            advance st;
            v
        | _ -> raise (Error ("expected loop variable", line st))
      in
      expect st ASSIGN "=";
      let lo = parse_expr st in
      expect st SEMI ";";
      (* condition: var <= e or var < e *)
      (match peek st with
      | ID v when v = var -> advance st
      | _ -> raise (Error ("expected condition on " ^ var, line st)));
      let strict =
        match peek st with
        | LE ->
            advance st;
            false
        | LT ->
            advance st;
            true
        | _ -> raise (Error ("expected < or <=", line st))
      in
      let hi_raw = parse_expr st in
      let hi =
        if strict then Ast.Bin (Ast.Sub, hi_raw, Ast.Int 1) else hi_raw
      in
      expect st SEMI ";";
      (* increment: var++ / ++var / var += k / var = var + k *)
      let step =
        match peek st with
        | PLUSPLUS ->
            advance st;
            (match peek st with
            | ID v when v = var -> advance st
            | _ -> raise (Error ("expected ++" ^ var, line st)));
            None
        | ID v when v = var -> (
            advance st;
            match peek st with
            | PLUSPLUS ->
                advance st;
                None
            | PLUSEQ ->
                advance st;
                Some (parse_expr st)
            | ASSIGN -> (
                advance st;
                (* var = var + k *)
                match parse_expr st with
                | Ast.Bin (Ast.Add, Ast.Var v', k) when v' = var -> Some k
                | _ -> raise (Error ("unsupported loop increment", line st)))
            | _ -> raise (Error ("unsupported loop increment", line st)))
        | _ -> raise (Error ("unsupported loop increment", line st))
      in
      expect st RP ")";
      let body = parse_block st in
      [ Ast.Do { label = None; terminal = None; var; lo; hi; step; body; line = ln } ])
  | LBRACE -> parse_block st
  | SEMI ->
      advance st;
      []
  | ID _ -> (
      let ln = line st in
      match parse_factor st with
      | Ast.Var base ->
          expect st ASSIGN "=";
          let rhs = parse_expr st in
          expect st SEMI ";";
          [ Ast.Assign { label = None; lhs = { Ast.base; args = [] }; rhs; line = ln } ]
      | Ast.Ref (base, args) ->
          expect st ASSIGN "=";
          let rhs = parse_expr st in
          expect st SEMI ";";
          [ Ast.Assign { label = None; lhs = { Ast.base; args }; rhs; line = ln } ]
      | _ -> raise (Error ("expected assignment", ln)))
  | EOF -> []
  | _ -> raise (Error ("unexpected token", line st))

and parse_block st : Ast.stmt list =
  if peek st = LBRACE then begin
    advance st;
    let rec go acc =
      if peek st = RBRACE then begin
        advance st;
        List.rev acc
      end
      else if peek st = EOF then raise (Error ("missing }", line st))
      else go (List.rev_append (parse_stmt st) acc)
    in
    go []
  end
  else parse_stmt st

let parse src =
  let st = { toks = tokenize src; pos = 0 } in
  let rec go acc =
    if peek st = EOF then List.rev acc
    else go (List.rev_append (parse_stmt st) acc)
  in
  let body = go [] in
  let lines = Array.fold_left (fun acc (_, l) -> max acc l) 1 st.toks in
  { Ast.name = "MAIN"; body; lines }

let parse_and_lower ?name src =
  let ast = parse src in
  let ast = match name with Some n -> { ast with Ast.name = n } | None -> ast in
  Lower.program ast

let looks_like_c src =
  let has sub =
    let ns = String.length sub and n = String.length src in
    (* compared in place from each occurrence of the first byte: a
       [String.sub] per position allocated as many strings as the
       source has bytes *)
    let rec at i j = j = ns || (src.[i + j] = sub.[j] && at i (j + 1)) in
    let rec go i =
      match String.index_from src i sub.[0] with
      | j -> (j + ns <= n && at j 0) || go (j + 1)
      | exception Not_found -> false
    in
    go 0
  in
  has "for" && (has "(" && (has "[" || has "{"))
