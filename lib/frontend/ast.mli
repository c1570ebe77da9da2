(** Abstract syntax of the mini-Fortran dialect. *)

type expr =
  | Int of int
  | Var of string
  | Neg of expr
  | Bin of binop * expr * expr
  | Ref of string * expr list
      (** array element or intrinsic call — disambiguated during lowering *)

and binop = Add | Sub | Mul | Div

type stmt =
  | Assign of { label : int option; lhs : lvalue; rhs : expr; line : int }
  | Do of {
      label : int option;  (** label on the DO statement itself *)
      terminal : int option;  (** label terminating the loop (DO 10 I = ...) *)
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

val expr_to_buffer : Buffer.t -> expr -> unit
(** Append an expression's source text: binary operands that are
    themselves binary are parenthesised, call arguments are separated by
    [","] with no space, e.g. ["A(I + 1,(J - 1) * 2)"]. *)

val expr_to_string : expr -> string
