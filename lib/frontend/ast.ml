type expr =
  | Int of int
  | Var of string
  | Neg of expr
  | Bin of binop * expr * expr
  | Ref of string * expr list

and binop = Add | Sub | Mul | Div

type stmt =
  | Assign of { label : int option; lhs : lvalue; rhs : expr; line : int }
  | Do of {
      label : int option;
      terminal : int option;
      var : string;
      lo : expr;
      hi : expr;
      step : expr option;
      body : stmt list;
      line : int;
    }
  | Continue of { label : int option; line : int }

and lvalue = { base : string; args : expr list }

type program = { name : string; body : stmt list; lines : int }

let binop_str = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

(* source text of an expression: binary operands that are themselves
   binary are parenthesised, arguments are comma-separated *)
let rec expr_to_buffer buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Var v -> Buffer.add_string buf v
  | Neg e ->
      Buffer.add_char buf '-';
      atom_to_buffer buf e
  | Bin (op, a, b) ->
      atom_to_buffer buf a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (binop_str op);
      Buffer.add_char buf ' ';
      atom_to_buffer buf b
  | Ref (f, args) ->
      Buffer.add_string buf f;
      Buffer.add_char buf '(';
      List.iteri
        (fun k a ->
          if k > 0 then Buffer.add_char buf ',';
          expr_to_buffer buf a)
        args;
      Buffer.add_char buf ')'

and atom_to_buffer buf e =
  match e with
  | Bin _ ->
      Buffer.add_char buf '(';
      expr_to_buffer buf e;
      Buffer.add_char buf ')'
  | _ -> expr_to_buffer buf e

let expr_to_string e =
  let buf = Buffer.create 32 in
  expr_to_buffer buf e;
  Buffer.contents buf
