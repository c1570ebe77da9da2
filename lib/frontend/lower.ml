open Dt_ir

exception Error of string * int

let intrinsics =
  [
    "MAX"; "MIN"; "MOD"; "ABS"; "IABS"; "SQRT"; "EXP"; "LOG"; "SIN"; "COS";
    "TAN"; "MAX0"; "MIN0"; "AMAX1"; "AMIN1"; "FLOAT"; "REAL"; "DBLE"; "INT";
    "SIGN"; "ATAN";
  ]

let is_intrinsic name = List.mem name intrinsics

(* scalar names written anywhere in the program (treated as memory, and
   banned from linear subscripts) *)
let written_scalars (prog : Ast.program) =
  let acc = ref [] in
  let rec stmt = function
    | Ast.Assign { lhs = { base; args = [] }; _ } -> acc := base :: !acc
    | Ast.Assign _ -> ()
    | Ast.Do { body; _ } -> List.iter stmt body
    | Ast.Continue _ -> ()
  in
  List.iter stmt prog.Ast.body;
  Dt_support.Listx.dedup ~compare:String.compare !acc

type env = {
  scope : (string * Index.t) list;  (** DO variables in scope *)
  written : string list;
  mutable used : (string * int) list;  (** (name, depth) already taken *)
  mutable fresh_syms : int;
}

let lookup env v = List.assoc_opt v env.scope

let rec to_affine env line (e : Ast.expr) : (Affine.t, string) result =
  match e with
  | Ast.Int n -> Ok (Affine.const n)
  | Ast.Var v -> (
      match lookup env v with
      | Some i -> Ok (Affine.of_index i)
      | None ->
          if List.mem v env.written then
            Result.Error (Printf.sprintf "written scalar %s in subscript" v)
          else Ok (Affine.of_sym v))
  | Ast.Neg e -> Result.map Affine.neg (to_affine env line e)
  | Ast.Bin (Ast.Add, a, b) -> map2 env line Affine.add a b
  | Ast.Bin (Ast.Sub, a, b) -> map2 env line Affine.sub a b
  | Ast.Bin (Ast.Mul, a, b) -> (
      match (to_affine env line a, to_affine env line b) with
      | Ok a', Ok b' -> (
          match (Affine.as_const a', Affine.as_const b') with
          | Some k, _ -> Ok (Affine.scale k b')
          | _, Some k -> Ok (Affine.scale k a')
          | None, None -> Result.Error "product of variables")
      | (Result.Error _ as e), _ | _, (Result.Error _ as e) -> e)
  | Ast.Bin (Ast.Div, a, b) -> (
      match (to_affine env line a, to_affine env line b) with
      | Ok a', Ok b' -> (
          match Affine.as_const b' with
          | Some k when k <> 0 -> (
              match Affine.div_exact a' k with
              | Some q -> Ok q
              | None -> Result.Error "inexact division")
          | _ -> Result.Error "division by non-constant")
      | (Result.Error _ as e), _ | _, (Result.Error _ as e) -> e)
  | Ast.Ref (f, _) -> Result.Error (Printf.sprintf "call to %s in subscript" f)

and map2 env line f a b =
  match (to_affine env line a, to_affine env line b) with
  | Ok a', Ok b' -> Ok (f a' b')
  | (Result.Error _ as e), _ | _, (Result.Error _ as e) -> e

let to_subscript env line e =
  match to_affine env line e with
  | Ok a -> Aref.Linear a
  | Result.Error _ -> Aref.Nonlinear (Ast.expr_to_string e)

(* collect array and scalar reads of an expression *)
let rec reads env (e : Ast.expr) acc =
  match e with
  | Ast.Int _ -> acc
  | Ast.Var v ->
      if lookup env v <> None then acc
      else if List.mem v env.written then Aref.make v [] :: acc
      else acc
  | Ast.Neg e -> reads env e acc
  | Ast.Bin (_, a, b) -> reads env a (reads env b acc)
  | Ast.Ref (f, args) ->
      let acc = List.fold_left (fun acc a -> reads env a acc) acc args in
      if is_intrinsic f then acc
      else Aref.make f (List.map (to_subscript env 0) args) :: acc

let fresh_index env name ~depth =
  let rec go candidate k =
    if List.mem (candidate, depth) env.used then
      go (Printf.sprintf "%s_%d" name k) (k + 1)
    else candidate
  in
  let chosen = go name 2 in
  env.used <- (chosen, depth) :: env.used;
  Index.make chosen ~depth

let fresh_sym env prefix =
  env.fresh_syms <- env.fresh_syms + 1;
  Printf.sprintf "%s%d" prefix env.fresh_syms

let program (prog : Ast.program) =
  let env =
    { scope = []; written = written_scalars prog; used = []; fresh_syms = 0 }
  in
  let next_id = ref 0 in
  (* one buffer for every statement's source text *)
  let text_buf = Buffer.create 128 in
  let rec stmt env depth (s : Ast.stmt) : Nest.node list =
    match s with
    | Ast.Continue _ -> []
    | Ast.Assign { lhs; rhs; line; _ } ->
        let writes =
          [ Aref.make lhs.Ast.base (List.map (to_subscript env line) lhs.Ast.args) ]
        in
        (* subscripts of the written reference are themselves reads; the
           [reads] accumulator builds left-to-right order directly *)
        let sub_reads =
          List.fold_left (fun acc a -> reads env a acc) [] lhs.Ast.args
        in
        let all_reads = reads env rhs [] @ sub_reads in
        let id = !next_id in
        incr next_id;
        Buffer.clear text_buf;
        (match lhs.Ast.args with
        | [] -> Buffer.add_string text_buf lhs.Ast.base
        | args -> Ast.expr_to_buffer text_buf (Ast.Ref (lhs.Ast.base, args)));
        Buffer.add_string text_buf " = ";
        Ast.expr_to_buffer text_buf rhs;
        let text = Buffer.contents text_buf in
        [ Nest.Stmt (Stmt.make ~id ~writes ~reads:all_reads ~text ()) ]
    | Ast.Do { var; lo; hi; step; body; line; _ } ->
        let step_val =
          match step with
          | None -> 1
          | Some e -> (
              match to_affine env line e with
              | Ok a -> (
                  match Affine.as_const a with
                  | Some k when k <> 0 -> k
                  | _ -> raise (Error ("non-constant or zero loop step", line)))
              | Result.Error m -> raise (Error ("bad loop step: " ^ m, line)))
        in
        let lo_aff =
          match to_affine env line lo with
          | Ok a -> a
          | Result.Error m -> raise (Error ("bad loop bound: " ^ m, line))
        in
        let hi_aff =
          match to_affine env line hi with
          | Ok a -> a
          | Result.Error m -> raise (Error ("bad loop bound: " ^ m, line))
        in
        let index = fresh_index env var ~depth in
        if step_val = 1 then begin
          let env' = { env with scope = (var, index) :: env.scope } in
          let body_nodes = List.concat_map (stmt env' (depth + 1)) body in
          [ Nest.Loop (Loop.make index ~lo:lo_aff ~hi:hi_aff, body_nodes) ]
        end
        else begin
          (* normalize: i = lo + (i' - 1) * step, i' in [1, trip] *)
          let diff =
            if step_val > 0 then Affine.sub hi_aff lo_aff
            else Affine.sub lo_aff hi_aff
          in
          let trip =
            match Affine.div_exact diff (abs step_val) with
            | Some q -> Affine.add_const 1 q
            | None -> (
                match Affine.as_const diff with
                | Some d ->
                    Affine.const
                      (Dt_support.Int_ops.floor_div d (abs step_val) + 1)
                | None -> Affine.of_sym (fresh_sym env "_TRIP"))
          in
          let env' = { env with scope = (var, index) :: env.scope } in
          let body_nodes = List.concat_map (stmt env' (depth + 1)) body in
          (* substitute i -> lo + (i'-1)*step in every affine of the body *)
          let replacement =
            Affine.add lo_aff
              (Affine.add_const (-step_val) (Affine.of_index ~coeff:step_val index))
          in
          let subst_affine a = Affine.subst_index a index replacement in
          let subst_aref (r : Aref.t) =
            Aref.make r.Aref.base
              (List.map
                 (function
                   | Aref.Linear a -> Aref.Linear (subst_affine a)
                   | Aref.Nonlinear _ as s -> s)
                 r.Aref.subs)
          in
          let rec subst_node = function
            | Nest.Stmt s ->
                Nest.Stmt
                  (Stmt.make ~id:s.Stmt.id
                     ~writes:(List.map subst_aref s.Stmt.writes)
                     ~reads:(List.map subst_aref s.Stmt.reads)
                     ~text:s.Stmt.text ())
            | Nest.Loop (l, body) ->
                Nest.Loop
                  ( Loop.make l.Loop.index ~lo:(subst_affine l.Loop.lo)
                      ~hi:(subst_affine l.Loop.hi),
                    List.map subst_node body )
          in
          let body_nodes = List.map subst_node body_nodes in
          [
            Nest.Loop
              (Loop.make index ~lo:(Affine.const 1) ~hi:trip, body_nodes);
          ]
        end
  in
  let body = List.concat_map (stmt env 0) prog.Ast.body in
  Nest.program ~name:prog.Ast.name ~source_lines:prog.Ast.lines
    ~routine:prog.Ast.name body

let parse ?name src =
  let ast = Parser.parse src in
  let ast = match name with Some n -> { ast with Ast.name = n } | None -> ast in
  program ast

let parse_unit ?name src =
  List.map
    (fun (ast : Ast.program) ->
      let ast =
        match name with
        | Some n -> { ast with Ast.name = n ^ "." ^ ast.Ast.name }
        | None -> ast
      in
      program ast)
    (Parser.parse_unit src)
