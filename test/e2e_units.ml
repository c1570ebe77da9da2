(* The end-to-end benchmark's seeded inputs, drawn exactly as
   bench/e2e/units.ml draws them, so tests can pin figures on the same
   sources the benchmark sends: eight routines of six statements in
   deep, triangular nests with coupled subscripts, routine [r] of nest
   depth [1 + r mod 4], odd units with a symbolic outer bound. *)

module Generator = Dt_workloads.Generator

let config ~symbolic =
  {
    Generator.default with
    Generator.max_depth = 4;
    max_bound = 8;
    triangular = true;
    symbolic_hi = symbolic;
  }

let routine st ~symbolic u r =
  let rec draw () =
    let p = Generator.program st (config ~symbolic) ~stmts:6 in
    if Dt_ir.Nest.max_depth p = 1 + (r mod 4) then p else draw ()
  in
  Dt_frontend.Emit.program
    { (draw ()) with Dt_ir.Nest.name = Printf.sprintf "U%dR%d" u r }

let source routines = String.concat "" (Array.to_list routines)

(* unit [i] of the miv-batch stream *)
let fresh ~seed i =
  let st = Random.State.make [| seed; 6; i |] in
  source (Array.init 8 (fun r -> routine st ~symbolic:(i mod 2 = 1) i r))

(* the serve workloads' base units, kept split by routine *)
let base ~seed ~units =
  let st = Random.State.make [| seed; 1 |] in
  Array.init units (fun u ->
      Array.init 8 (fun r -> routine st ~symbolic:(u mod 2 = 1) u r))

(* serve-edit request [i]: a base unit with one routine regenerated *)
let edit ~seed (units : string array array) i =
  let st = Random.State.make [| seed; 2; i |] in
  let u = Random.State.int st (Array.length units) in
  let r = Random.State.int st 8 in
  let routines = Array.copy units.(u) in
  routines.(r) <- routine st ~symbolic:(u mod 2 = 1) u r;
  source routines
