(* The [Format]-based statement text, kept as the oracle for
   [Dt_frontend.Ast.expr_to_buffer] and the text [Lower.program] gives
   each statement: two [Format.asprintf] passes per assignment. The
   production text must equal this one byte for byte. *)

open Dt_frontend.Ast

let binop_str = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec pp_expr ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Var v -> Format.pp_print_string ppf v
  | Neg e -> Format.fprintf ppf "-%a" pp_atom e
  | Bin (op, a, b) ->
      Format.fprintf ppf "%a %s %a" pp_atom a (binop_str op) pp_atom b
  | Ref (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           pp_expr)
        args

and pp_atom ppf e =
  match e with
  | Bin _ -> Format.fprintf ppf "(%a)" pp_expr e
  | _ -> pp_expr ppf e

let expr_to_string e = Format.asprintf "%a" pp_expr e

let stmt_text (lhs : lvalue) rhs =
  let text =
    Format.asprintf "%a = %a" pp_expr (Ref (lhs.base, lhs.args)) pp_expr rhs
  in
  if lhs.args = [] then Format.asprintf "%s = %a" lhs.base pp_expr rhs
  else text
