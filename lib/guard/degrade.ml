(* Why a reference pair's verdict was degraded to the conservative
   full-direction-vector dependence instead of crashing the analysis. *)

type reason = Overflow | Exception of string | Budget

let label = function
  | Overflow -> "overflow"
  | Exception _ -> "exception"
  | Budget -> "budget"

let tag = function
  | Overflow -> `Overflow
  | Exception _ -> `Exception
  | Budget -> `Budget

let to_string = function
  | Overflow -> "overflow"
  | Exception msg -> "exception: " ^ msg
  | Budget -> "budget"

let of_exn = function
  | Ops.Overflow -> Overflow
  | Budget.Exhausted -> Budget
  | Inject.Injected site -> Exception ("injected fault at " ^ site)
  | Stack_overflow -> Exception "Stack_overflow"
  | e -> Exception (Printexc.to_string e)

let pp ppf r = Format.pp_print_string ppf (to_string r)

let equal a b =
  match (a, b) with
  | Overflow, Overflow | Budget, Budget -> true
  | Exception x, Exception y -> String.equal x y
  | _ -> false
