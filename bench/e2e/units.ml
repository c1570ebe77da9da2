(* The benchmark's inputs. Everything here is a pure function of the
   seed, so the same seed gives the same sources; the program under test
   only ever sees the source text. *)

module Generator = Dt_workloads.Generator

let corpus () =
  Array.of_list
    (List.map
       (fun (e : Dt_workloads.Corpus.entry) -> e.Dt_workloads.Corpus.source)
       Dt_workloads.Corpus.all)

(* Deep, triangular nests with coupled multi-index subscripts: the shape
   where Delta, Banerjee and the merge phase carry the cost. Odd units
   also get a symbolic outer bound. *)
let miv_config ~symbolic =
  {
    Generator.default with
    Generator.max_depth = 4;
    max_bound = 8;
    triangular = true;
    symbolic_hi = symbolic;
  }

let miv_routines = 8
let miv_stmts = 6

(* Routine [r] of a unit has nest depth [1 + r mod 4], drawn by
   rejection from the generator. Nest depth drives the cost of the
   Banerjee hierarchy, so fixing it per position (stratified sampling)
   keeps the cost of a unit, and so every run's numbers, from swinging
   with the seed, while the rest of each routine stays random. *)
let routine st ~symbolic u r =
  let rec draw () =
    let p = Generator.program st (miv_config ~symbolic) ~stmts:miv_stmts in
    if Dt_ir.Nest.max_depth p = 1 + (r mod 4) then p else draw ()
  in
  Dt_frontend.Emit.program
    { (draw ()) with Dt_ir.Nest.name = Printf.sprintf "U%dR%d" u r }

(* [units] compilation units of [miv_routines] routines each, kept split
   by routine so serve-edit can swap one out *)
let miv ~seed ~units =
  let st = Random.State.make [| seed; 1 |] in
  Array.init units (fun u ->
      Array.init miv_routines (fun r -> routine st ~symbolic:(u mod 2 = 1) u r))

let source routines = String.concat "" (Array.to_list routines)

(* Unit [i] of the stream miv-batch times, shaped like the units of
   [miv] and drawn from the seed and [i] alone *)
let fresh ~seed i =
  let st = Random.State.make [| seed; 6; i |] in
  source (Array.init miv_routines (fun r -> routine st ~symbolic:(i mod 2 = 1) i r))

(* Request [i] of serve-edit: a miv unit with one routine replaced by a
   routine freshly generated from the request's own seed, as an editor
   recompiling one changed function would send. *)
let edit ~seed (units : string array array) i =
  let st = Random.State.make [| seed; 2; i |] in
  let u = Random.State.int st (Array.length units) in
  let r = Random.State.int st miv_routines in
  let routines = Array.copy units.(u) in
  routines.(r) <- routine st ~symbolic:(u mod 2 = 1) u r;
  source routines

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
