(* The kind enumeration lives in Dt_obs.Test_kind so the trace/metrics
   layer and this module share one type; the equation below re-exports the
   constructors under their historical names. *)
type kind = Dt_obs.Test_kind.t =
  | Ziv_test
  | Strong_siv
  | Weak_zero_siv
  | Weak_crossing_siv
  | Exact_siv
  | Rdiv_test
  | Gcd_miv
  | Banerjee_miv
  | Delta_test
  | Symbolic_ziv

let all_kinds = Dt_obs.Test_kind.all
let kind_name = Dt_obs.Test_kind.name
let n_kinds = Dt_obs.Test_kind.count

(* direct pattern match (Dt_obs.Test_kind.id): this runs on every recorded
   event, so no list scan *)
let kind_id = Dt_obs.Test_kind.id

type t = { applied : int array; indep : int array }

let create () = { applied = Array.make n_kinds 0; indep = Array.make n_kinds 0 }

let record t k ~indep =
  let i = kind_id k in
  t.applied.(i) <- t.applied.(i) + 1;
  if indep then t.indep.(i) <- t.indep.(i) + 1

let applied t k = t.applied.(kind_id k)
let proved_indep t k = t.indep.(kind_id k)

let merge_into acc extra =
  Array.iteri (fun i v -> acc.applied.(i) <- acc.applied.(i) + v) extra.applied;
  Array.iteri (fun i v -> acc.indep.(i) <- acc.indep.(i) + v) extra.indep

let merge a b =
  let t = create () in
  merge_into t a;
  merge_into t b;
  t

let equal a b = a.applied = b.applied && a.indep = b.indep

let to_buffer buf t =
  List.iter
    (fun k ->
      let a = applied t k in
      if a > 0 then
        Printf.bprintf buf "%-18s applied %5d  indep %5d\n" (kind_name k) a
          (proved_indep t k))
    all_kinds

let to_string t =
  let buf = Buffer.create 256 in
  to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
