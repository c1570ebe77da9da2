exception Error of string * int

type state = { toks : Token.spanned array; mutable pos : int }

let peek st = st.toks.(st.pos).Token.tok
let line st = st.toks.(st.pos).Token.loc.Token.line
let advance st = st.pos <- st.pos + 1

let expect st tok =
  if peek st = tok then advance st
  else
    raise
      (Error
         ( Printf.sprintf "expected %s, found %s" (Token.to_string tok)
             (Token.to_string (peek st)),
           line st ))

let skip_newlines st =
  while peek st = Token.NEWLINE do
    advance st
  done

(* ------------------------------------------------------------------ *)
(* expressions                                                         *)

let rec parse_expr st =
  let lhs = parse_term st in
  let rec go lhs =
    match peek st with
    | Token.PLUS ->
        advance st;
        go (Ast.Bin (Ast.Add, lhs, parse_term st))
    | Token.MINUS ->
        advance st;
        go (Ast.Bin (Ast.Sub, lhs, parse_term st))
    | _ -> lhs
  in
  go lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec go lhs =
    match peek st with
    | Token.STAR ->
        advance st;
        go (Ast.Bin (Ast.Mul, lhs, parse_factor st))
    | Token.SLASH ->
        advance st;
        go (Ast.Bin (Ast.Div, lhs, parse_factor st))
    | _ -> lhs
  in
  go lhs

and parse_factor st =
  match peek st with
  | Token.INT n ->
      advance st;
      Ast.Int n
  | Token.MINUS ->
      advance st;
      Ast.Neg (parse_factor st)
  | Token.PLUS ->
      advance st;
      parse_factor st
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | Token.IDENT name -> (
      advance st;
      match peek st with
      | Token.LPAREN ->
          advance st;
          let args = parse_args st in
          expect st Token.RPAREN;
          Ast.Ref (name, args)
      | _ -> Ast.Var name)
  | t -> raise (Error ("unexpected token " ^ Token.to_string t, line st))

and parse_args st =
  let first = parse_expr st in
  let rec go acc =
    match peek st with
    | Token.COMMA ->
        advance st;
        go (parse_expr st :: acc)
    | _ -> List.rev acc
  in
  go [ first ]

(* ------------------------------------------------------------------ *)
(* pass 1: flat statements                                             *)

type raw =
  | Rdo of {
      label : int option;
      terminal : int option;
      var : string;
      lo : Ast.expr;
      hi : Ast.expr;
      step : Ast.expr option;
      line : int;
    }
  | Rassign of { label : int option; lhs : Ast.lvalue; rhs : Ast.expr; line : int }
  | Rcontinue of { label : int option; line : int }
  | Renddo of { line : int }

let parse_raw_stmt st : raw option =
  skip_newlines st;
  match peek st with
  | Token.EOF -> None
  | _ -> (
      let label =
        match peek st with
        | Token.INT n ->
            advance st;
            Some n
        | _ -> None
      in
      let ln = line st in
      match peek st with
      | Token.IDENT "DO" -> (
          advance st;
          let terminal =
            match peek st with
            | Token.INT n ->
                advance st;
                Some n
            | _ -> None
          in
          match peek st with
          | Token.IDENT var ->
              advance st;
              expect st Token.EQUALS;
              let lo = parse_expr st in
              expect st Token.COMMA;
              let hi = parse_expr st in
              let step =
                match peek st with
                | Token.COMMA ->
                    advance st;
                    Some (parse_expr st)
                | _ -> None
              in
              expect st Token.NEWLINE;
              Some (Rdo { label; terminal; var; lo; hi; step; line = ln })
          | t ->
              raise
                (Error ("expected loop variable, found " ^ Token.to_string t, ln))
          )
      | Token.IDENT "ENDDO" | Token.IDENT "END_DO" ->
          advance st;
          expect st Token.NEWLINE;
          Some (Renddo { line = ln })
      | Token.IDENT "CONTINUE" ->
          advance st;
          expect st Token.NEWLINE;
          Some (Rcontinue { label; line = ln })
      | Token.IDENT "END" ->
          advance st;
          (* swallow END / END PROGRAM etc. Split.is_end reads the same
             rule off the raw line (a label, then the word END) to cut a
             unit into routines: change both together *)
          while peek st <> Token.NEWLINE && peek st <> Token.EOF do
            advance st
          done;
          if peek st = Token.NEWLINE then advance st;
          None
      | Token.IDENT name -> (
          advance st;
          let args =
            match peek st with
            | Token.LPAREN ->
                advance st;
                let a = parse_args st in
                expect st Token.RPAREN;
                a
            | _ -> []
          in
          match peek st with
          | Token.EQUALS ->
              advance st;
              let rhs = parse_expr st in
              expect st Token.NEWLINE;
              Some
                (Rassign { label; lhs = { Ast.base = name; args }; rhs; line = ln })
          | t ->
              raise
                (Error
                   ( Printf.sprintf "expected '=' after %s, found %s" name
                       (Token.to_string t),
                     ln )))
      | t -> raise (Error ("unexpected token " ^ Token.to_string t, ln)))

(* ------------------------------------------------------------------ *)
(* pass 2: nesting                                                     *)

type frame = {
  fdo : raw;  (* always an Rdo *)
  mutable acc : Ast.stmt list;  (* reversed *)
}

let build raws =
  let stack : frame list ref = ref [] in
  let top_body : Ast.stmt list ref = ref [] in
  let append stmt =
    match !stack with
    | f :: _ -> f.acc <- stmt :: f.acc
    | [] -> top_body := stmt :: !top_body
  in
  let close_frame f =
    match f.fdo with
    | Rdo { label; terminal; var; lo; hi; step; line } ->
        Ast.Do
          { label; terminal; var; lo; hi; step; body = List.rev f.acc; line }
    | _ -> assert false
  in
  let rec close_labelled lbl =
    match !stack with
    | f :: rest -> (
        match f.fdo with
        | Rdo { terminal = Some t; _ } when t = lbl ->
            stack := rest;
            append (close_frame f);
            close_labelled lbl
        | _ -> ())
    | [] -> ()
  in
  List.iter
    (fun raw ->
      match raw with
      | Rdo _ -> stack := { fdo = raw; acc = [] } :: !stack
      | Renddo { line } -> (
          match !stack with
          | f :: rest ->
              stack := rest;
              append (close_frame f)
          | [] -> raise (Error ("ENDDO without DO", line)))
      | Rassign { label; lhs; rhs; line } -> (
          append (Ast.Assign { label; lhs; rhs; line });
          match label with Some l -> close_labelled l | None -> ())
      | Rcontinue { label; line } -> (
          append (Ast.Continue { label; line });
          match label with Some l -> close_labelled l | None -> ()))
    raws;
  (match !stack with
  | { fdo = Rdo { line; _ }; _ } :: _ ->
      raise (Error ("unterminated DO loop", line))
  | _ :: _ -> assert false
  | [] -> ());
  List.rev !top_body

let parse_header st =
  let toks = st.toks in
  match
    (peek st, toks.(min (st.pos + 1) (Array.length toks - 1)).Token.tok)
  with
  | Token.IDENT ("PROGRAM" | "SUBROUTINE" | "FUNCTION"), Token.IDENT n ->
      advance st;
      advance st;
      (* optional parameter list *)
      (if peek st = Token.LPAREN then
         let depth = ref 0 in
         let continue = ref true in
         while !continue do
           (match peek st with
           | Token.LPAREN -> incr depth
           | Token.RPAREN -> decr depth
           | Token.NEWLINE | Token.EOF ->
               raise (Error ("unterminated parameter list", line st))
           | _ -> ());
           advance st;
           if !depth = 0 then continue := false
         done);
      expect st Token.NEWLINE;
      Some n
  | _ -> None

let parse_one st =
  skip_newlines st;
  if peek st = Token.EOF then None
  else begin
    let start_line = line st in
    let name = Option.value (parse_header st) ~default:"MAIN" in
    let raws = ref [] in
    let rec go () =
      match parse_raw_stmt st with
      | Some r ->
          raws := r :: !raws;
          go ()
      | None -> () (* END or EOF terminates the unit *)
    in
    go ();
    let end_line =
      if st.pos > 0 then st.toks.(st.pos - 1).Token.loc.Token.line
      else start_line
    in
    let body = build (List.rev !raws) in
    Some { Ast.name; body; lines = end_line - start_line + 1 }
  end

let parse_unit src =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0 } in
  let rec go acc =
    match parse_one st with Some p -> go (p :: acc) | None -> List.rev acc
  in
  go []

let parse src =
  match parse_unit src with
  | p :: _ -> p
  | [] -> raise (Error ("empty program unit", 1))
