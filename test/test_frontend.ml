(* The mini-Fortran frontend: lexer, parser, loop nesting, lowering and
   normalization. *)

open Dt_ir
open Helpers

let check = Alcotest.check

let test_lexer () =
  let toks = Dt_frontend.Lexer.tokenize "DO 10 i = 1, n\n" in
  let kinds = List.map (fun t -> t.Dt_frontend.Token.tok) toks in
  check Alcotest.int "token count" 9 (List.length kinds);
  check Alcotest.bool "uppercased" true
    (List.mem (Dt_frontend.Token.IDENT "N") kinds);
  (* comments and blank lines vanish *)
  let toks2 = Dt_frontend.Lexer.tokenize "C comment line\n\n* another\nX = 1 ! tail\n" in
  check Alcotest.bool "comment stripped" true
    (not
       (List.exists
          (fun t -> t.Dt_frontend.Token.tok = Dt_frontend.Token.IDENT "COMMENT")
          toks2));
  check Alcotest.bool "inline comment stripped" true
    (not
       (List.exists
          (fun t -> t.Dt_frontend.Token.tok = Dt_frontend.Token.IDENT "TAIL")
          toks2))

let test_lexer_continuation () =
  let src = "      X = A(I) +\n     & B(I)\n" in
  let toks = Dt_frontend.Lexer.tokenize src in
  check Alcotest.int "one newline" 1
    (List.length
       (List.filter (fun t -> t.Dt_frontend.Token.tok = Dt_frontend.Token.NEWLINE) toks))

(* a unit's answer from the one-shot path, as `deptest analyze` prints it *)
let one_shot source =
  let progs = Dt_frontend.Lower.parse_unit source in
  fst
    (Dt_serve.Render.unit_ progs
       (Deptest.Analyze.run_all (Deptest.Analyze.Config.make ~jobs:1 ()) progs))

(* A statement joined by a trailing '&' is a statement, whatever its
   first letter: [C(I) = &] must not read as a comment line once joined.
   The joined and the one-line forms give the same answer, one-shot and
   through the daemon's engine. *)
let test_ampersand_statement () =
  let unit_ body =
    "      PROGRAM P\n      DO 10 I = 1, 10\n" ^ body ^ "   10 CONTINUE\n      END\n"
  in
  let joined = unit_ "      C(I) = &\n      C(I+1)\n"
  and one_line = unit_ "      C(I) = C(I+1)\n" in
  let want = one_shot one_line in
  check Alcotest.bool "the one-line form finds the carried anti dependence" true
    (Astring_contains.contains want "S0 -anti-> S0 C (<) carried level 1 d_I=1");
  check Alcotest.string "joined = one line, one-shot" want (one_shot joined);
  match Dt_serve.Engine.analyze_source (Dt_serve.Engine.create ~jobs:1 ()) joined with
  | Ok (out, _) -> check Alcotest.string "joined = one line, engine" want out
  | Error msg -> Alcotest.fail msg

(* A joined statement keeps its first line's number, and the lines after
   it keep their physical numbers. *)
let test_ampersand_line_numbers () =
  let src =
    "      PROGRAM P\n      DO 10 I = 1, 10\n      A(I) = &\n      A(I+1)\n\
    \      X = = 1\n   10 CONTINUE\n      END\n"
  in
  let line_of ident =
    (List.find
       (fun t -> t.Dt_frontend.Token.tok = Dt_frontend.Token.IDENT ident)
       (Dt_frontend.Lexer.tokenize src))
      .Dt_frontend.Token.loc.Dt_frontend.Token.line
  in
  check Alcotest.int "the joined statement is on its first line" 3 (line_of "A");
  check Alcotest.int "the next statement keeps its line" 5 (line_of "X");
  check Alcotest.int "and so does the error" 5
    (match Dt_frontend.Lower.parse_unit src with
    | _ -> Alcotest.fail "source parsed"
    | exception Dt_frontend.Parser.Error (_, line) -> line);
  match Dt_serve.Engine.analyze_source (Dt_serve.Engine.create ~jobs:1 ()) src with
  | Ok _ -> Alcotest.fail "source parsed"
  | Error msg ->
      check Alcotest.bool "the engine names line 5" true
        (String.starts_with ~prefix:"line 5: syntax error" msg)

let test_lexer_errors () =
  check Alcotest.bool "illegal char" true
    (try
       ignore (Dt_frontend.Lexer.tokenize "X = @\n");
       false
     with Dt_frontend.Lexer.Error _ -> true)

let test_parser_structure () =
  let ast = Dt_frontend.Parser.parse {|
      PROGRAM T
      DO 10 I = 1, 10
        A(I) = B(I)
   10 CONTINUE
      END
|} in
  check Alcotest.string "program name" "T" ast.Dt_frontend.Ast.name;
  match ast.Dt_frontend.Ast.body with
  | [ Dt_frontend.Ast.Do { var = "I"; body = [ _assign; _cont ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected one DO with assignment + continue"

let test_shared_terminal () =
  (* DO 10 twice: the labelled CONTINUE closes both *)
  let prog = parse {|
      DO 10 I = 1, 5
      DO 10 J = 1, 5
        A(I,J) = 0
   10 CONTINUE
|} in
  check Alcotest.int "depth 2" 2 (Nest.max_depth prog);
  check Alcotest.int "one stmt" 1 (List.length (Nest.all_stmts prog))

let test_terminal_assignment () =
  (* the terminal statement may itself be the loop body *)
  let prog = parse {|
      DO 10 I = 1, 5
   10 A(I) = A(I-1)
|} in
  check Alcotest.int "stmt inside loop" 1 (List.length (Nest.all_stmts prog));
  check Alcotest.int "depth 1" 1 (Nest.max_depth prog)

let test_enddo () =
  let prog = parse {|
      DO I = 1, 5
        A(I) = 0
      ENDDO
|} in
  check Alcotest.int "enddo form" 1 (List.length (Nest.all_stmts prog))

let test_parser_errors () =
  let bad s =
    try
      ignore (Dt_frontend.Parser.parse s);
      false
    with Dt_frontend.Parser.Error _ -> true
  in
  check Alcotest.bool "unterminated DO" true (bad "DO 10 I = 1, 5\nA(I) = 0\n");
  check Alcotest.bool "ENDDO without DO" true (bad "ENDDO\n");
  check Alcotest.bool "missing =" true (bad "A(I) 3\n")

let test_lowering_subscripts () =
  let prog = parse {|
      DO 10 I = 1, 100
        A(2*I+3) = A(I*2) + A(I/1) + A((I+1)*2)
   10 CONTINUE
|} in
  let s = List.hd (Nest.all_stmts prog) in
  let subs =
    List.concat_map (fun (r : Aref.t) -> r.Aref.subs) (s.Stmt.writes @ s.Stmt.reads)
  in
  check Alcotest.int "four refs" 4 (List.length subs);
  check Alcotest.bool "all linear" true
    (List.for_all (function Aref.Linear _ -> true | _ -> false) subs)

let test_lowering_nonlinear () =
  let prog = parse {|
      DO 10 I = 1, 100
        A(I*I) = A(IX(I)) + A(I/2)
   10 CONTINUE
|} in
  let s = List.hd (Nest.all_stmts prog) in
  let count_nl (r : Aref.t) =
    List.length
      (List.filter (function Aref.Nonlinear _ -> true | _ -> false) r.Aref.subs)
  in
  check Alcotest.int "I*I nonlinear" 1 (count_nl (List.hd s.Stmt.writes));
  (* reads: IX(I) is itself a linear read; A(IX(I)) has a nonlinear sub;
     A(I/2) nonlinear *)
  check Alcotest.bool "indirection nonlinear" true
    (List.exists (fun r -> count_nl r > 0) s.Stmt.reads);
  check Alcotest.bool "IX(I) collected as read" true
    (List.exists (fun (r : Aref.t) -> r.Aref.base = "IX") s.Stmt.reads)

let test_step_normalization () =
  (* DO I = 1, 20, 2 becomes I' in [1, 10]; A(I) becomes A(2I'-1) *)
  let prog = parse {|
      DO 10 I = 1, 20, 2
        A(I) = A(I+2)
   10 CONTINUE
|} in
  let loops = Nest.all_loops prog in
  check Alcotest.int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check (Alcotest.option Alcotest.int) "trip 10" (Some 10) (Loop.trip_const l);
  let s = List.hd (Nest.all_stmts prog) in
  (match (List.hd s.Stmt.writes).Aref.subs with
  | [ Aref.Linear a ] ->
      check Alcotest.int "coeff 2" 2 (Affine.coeff a l.Loop.index);
      check Alcotest.int "const -1" (-1) (Affine.const_part a)
  | _ -> Alcotest.fail "linear expected");
  (* dependences survive normalization: A(I) vs A(I+2) with step 2 is a
     distance-1 dependence on the normalized loop *)
  let deps = deps_of_prog prog in
  check Alcotest.int "one dep" 1 (List.length deps);
  check (Alcotest.option Alcotest.int) "carried level 1" (Some 1)
    (List.hd deps).Deptest.Dep.level

let test_negative_step () =
  let prog = parse {|
      DO 10 I = 10, 1, -1
        A(I) = A(I+1)
   10 CONTINUE
|} in
  let l = List.hd (Nest.all_loops prog) in
  check (Alcotest.option Alcotest.int) "trip 10" (Some 10) (Loop.trip_const l);
  let deps = deps_of_prog prog in
  (* reversed iteration turns the read-ahead into a loop-carried flow *)
  check Alcotest.bool "dependence exists" true (deps <> [])

let test_index_uniquification () =
  let prog = parse {|
      DO 10 I = 1, 5
        A(I) = 0
   10 CONTINUE
      DO 20 I = 6, 9
        B(I) = A(I)
   20 CONTINUE
|} in
  let loops = Nest.all_loops prog in
  check Alcotest.int "two loops" 2 (List.length loops);
  let i1 = (List.nth loops 0).Loop.index and i2 = (List.nth loops 1).Loop.index in
  check Alcotest.bool "distinct indices" false (Index.equal i1 i2);
  (* A written over [1,5], read over [6,9]: independent *)
  let deps = deps_of_prog prog in
  check (Alcotest.list Alcotest.int) "no cross dependence" []
    (List.filter_map
       (fun d -> if d.Deptest.Dep.array = "A" then Some 1 else None)
       deps)

let test_written_scalar_in_subscript () =
  (* K is written in the loop: subscripts using K must be nonlinear *)
  let prog = parse {|
      DO 10 I = 1, 5
        K = K + 1
        A(K) = 0
   10 CONTINUE
|} in
  let stmts = Nest.all_stmts prog in
  let a_write =
    List.concat_map (fun s -> s.Stmt.writes) stmts
    |> List.find (fun (r : Aref.t) -> r.Aref.base = "A")
  in
  check Alcotest.bool "K subscript nonlinear" true (not (Aref.is_linear a_write))

let test_symbolic_bounds () =
  let prog = parse {|
      DO 10 I = 1, N
        A(I) = A(I-1)
   10 CONTINUE
|} in
  let l = List.hd (Nest.all_loops prog) in
  check (Alcotest.list Alcotest.string) "symbolics" [ "N" ]
    (Nest.symbolics prog);
  check Alcotest.bool "upper bound symbolic" true
    (not (Affine.is_const l.Loop.hi))

(* --- layout invariance --------------------------------------------------- *)

(* A statement's tokens, as the lexer cuts them: runs of word bytes and
   single punctuation bytes, blanks dropped. *)
let tokens text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else if text.[i] = ' ' then go (i + 1) acc
    else if Dt_frontend.Lexer.is_alnum text.[i] then begin
      let j = ref i in
      while !j < n && Dt_frontend.Lexer.is_alnum text.[!j] do incr j done;
      go !j (String.sub text i (!j - i) :: acc)
    end
    else go (i + 1) (String.make 1 text.[i] :: acc)
  in
  go 0 []

let pick st a = a.(Random.State.int st (Array.length a))

(* lines that carry no statement: blank, comment and '!' lines, two of
   them holding END where it is a comment *)
let filler =
  [| ""; "   "; "C comment"; "c lower comment"; "* star"; "! bang";
     "    ! indented bang"; "C     END"; "! END" |]

(* One statement re-laid at random: lowercased or not, cut between
   tokens by a trailing '&' (the next line is the statement's text,
   indented anyhow, even from column one) or by a column-6
   continuation (comment and blank lines may come before it), either
   kind of cut after the other, each line with or without a '!'
   comment. The first line is indented off
   column six, and off column one when the statement starts with a
   comment letter. *)
let relay_statement st buf text =
  let toks =
    List.map
      (if Random.State.int st 4 = 0 then String.lowercase_ascii else Fun.id)
      (tokens text)
  in
  let line = Buffer.create 80 in
  let bang () = if Random.State.int st 4 = 0 then " ! note" else "" in
  let end_line tail =
    Buffer.add_buffer buf line;
    Buffer.add_string buf tail;
    Buffer.add_char buf '\n';
    Buffer.clear line
  in
  let word s = s <> "" && Dt_frontend.Lexer.is_alnum s.[0] in
  let first = List.hd toks in
  let indents =
    match first.[0] with
    | 'C' | 'c' | '*' -> [| 1; 2; 4; 6; 7; 9 |]
    | _ -> [| 0; 1; 2; 4; 6; 7; 9 |]
  in
  Buffer.add_string line (String.make (pick st indents) ' ');
  Buffer.add_string line first;
  ignore
    (List.fold_left
       (fun prev tok ->
         (match Random.State.int st 8 with
         | 0 ->
             end_line ((if Random.State.bool st then " &" else "&") ^ bang ());
             Buffer.add_string line (String.make (Random.State.int st 9) ' ')
         | 1 ->
             end_line (bang ());
             for _ = 1 to Random.State.int st 3 do
               Buffer.add_string buf (pick st filler ^ "\n")
             done;
             Buffer.add_string line "     ";
             Buffer.add_char line (pick st [| '+'; '&'; '1'; '*'; 'C'; '$' |]);
             Buffer.add_string line (String.make (Random.State.int st 3) ' ')
         | _ ->
             Buffer.add_string line
               (if word prev && word tok then " "
                else if Random.State.bool st then " " else ""));
         Buffer.add_string line tok;
         tok)
       first (List.tl toks));
  end_line (bang ())

(* [relay] over a whole source. With [~break:i], line [i] of the source
   (an assignment) is also broken by a second '=' after its first: the
   result then comes with the physical line that statement starts on. *)
let relay ?(break = -1) st source =
  let buf = Buffer.create (2 * String.length source) in
  let broken = ref 0 in
  List.iteri
    (fun i text ->
      if Random.State.int st 3 = 0 then
        Buffer.add_string buf (pick st filler ^ "\n");
      if String.trim text <> "" then begin
        let text =
          if i <> break then text
          else begin
            broken :=
              1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0
                    (Buffer.contents buf);
            let eq = String.index text '=' in
            String.sub text 0 eq ^ "= " ^ String.sub text eq (String.length text - eq)
          end
        in
        relay_statement st buf text
      end)
    (String.split_on_char '\n' source);
  (Buffer.contents buf, !broken)

let rec unlined = function
  | Dt_frontend.Ast.Assign a -> Dt_frontend.Ast.Assign { a with line = 0 }
  | Dt_frontend.Ast.Continue c -> Dt_frontend.Ast.Continue { c with line = 0 }
  | Dt_frontend.Ast.Do d ->
      Dt_frontend.Ast.Do { d with line = 0; body = List.map unlined d.body }

let ast_of source =
  List.map
    (fun (p : Dt_frontend.Ast.program) ->
      { p with Dt_frontend.Ast.lines = 0; body = List.map unlined p.body })
    (Dt_frontend.Parser.parse_unit source)

(* the source's assignment lines: an '=' and no DO *)
let assignments source =
  List.concat
    (List.mapi
       (fun i text ->
         let t = String.trim text in
         if String.contains t '=' && not (String.starts_with ~prefix:"DO " t)
         then [ i ]
         else [])
       (String.split_on_char '\n' source))

(* Generated eight-routine units (the benchmark's generator settings;
   odd units have a symbolic outer bound), printed by Emit and re-laid
   four times each on a fixed seed schedule: every layout parses to
   the printed unit's AST up to line numbers, and gets its answer byte
   for byte, one-shot and through the daemon's engine. Each layout is
   then laid again with one assignment, picked at random, broken: the
   syntax error names that statement's first physical line, one-shot
   and through the engine. *)
let test_layout_invariance () =
  List.iter
    (fun seed ->
      for u = 0 to 5 do
        let source = E2e_units.fresh ~seed u in
        let ast = ast_of source and want = one_shot source in
        let engine = Dt_serve.Engine.create ~jobs:1 () in
        for k = 0 to 3 do
          let laid = fst (relay (Random.State.make [| seed; u; k |]) source) in
          let label = Printf.sprintf "seed %d unit %d layout %d" seed u k in
          check Alcotest.bool (label ^ ": same AST") true
            (match ast_of laid with
            | a -> a = ast
            | exception (Dt_frontend.Lexer.Error (m, l) | Dt_frontend.Parser.Error (m, l)) ->
                Alcotest.failf "%s: line %d: %s\n%s" label l m laid);
          check Alcotest.string (label ^ ": one-shot") want (one_shot laid);
          (match Dt_serve.Engine.analyze_source engine laid with
          | Ok (out, _) -> check Alcotest.string (label ^ ": engine") want out
          | Error msg -> Alcotest.failf "%s: %s" label msg);
          let st = Random.State.make [| seed; u; k; 1 |] in
          let break = pick st (Array.of_list (assignments source)) in
          let bad, line = relay ~break st source in
          let label = Printf.sprintf "%s, line %d broken" label line in
          check Alcotest.int (label ^ ": one-shot error line") line
            (match Dt_frontend.Lower.parse_unit bad with
            | _ -> Alcotest.failf "%s: parsed\n%s" label bad
            | exception Dt_frontend.Parser.Error (_, l) -> l);
          match Dt_serve.Engine.analyze_source engine bad with
          | Ok _ -> Alcotest.failf "%s: the engine parsed it" label
          | Error msg ->
              check Alcotest.bool (label ^ ": engine error line") true
                (String.starts_with
                   ~prefix:(Printf.sprintf "line %d: syntax error" line)
                   msg)
        done
      done)
    [ 1; 61 ]

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer;
    Alcotest.test_case "continuation lines" `Quick test_lexer_continuation;
    Alcotest.test_case "'&' statement is never a comment" `Quick
      test_ampersand_statement;
    Alcotest.test_case "line numbers after '&'" `Quick test_ampersand_line_numbers;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser structure" `Quick test_parser_structure;
    Alcotest.test_case "shared DO terminals" `Quick test_shared_terminal;
    Alcotest.test_case "terminal assignment" `Quick test_terminal_assignment;
    Alcotest.test_case "ENDDO form" `Quick test_enddo;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "subscript lowering" `Quick test_lowering_subscripts;
    Alcotest.test_case "nonlinear detection" `Quick test_lowering_nonlinear;
    Alcotest.test_case "step normalization" `Quick test_step_normalization;
    Alcotest.test_case "negative step" `Quick test_negative_step;
    Alcotest.test_case "index uniquification" `Quick test_index_uniquification;
    Alcotest.test_case "written scalars" `Quick test_written_scalar_in_subscript;
    Alcotest.test_case "symbolic bounds" `Quick test_symbolic_bounds;
    Alcotest.test_case "layout invariance" `Quick test_layout_invariance;
  ]
