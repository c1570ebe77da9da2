(* A unit's answer is written straight into one buffer: each dependence,
   direction vector, distance and counter row appends its own text
   (Dep.to_buffer and friends), so no line goes through a formatter of
   its own. Only the program listing still goes through Format, once per
   routine, because Nest.pp owns that text. The bytes are the ones the
   one-shot CLI has always printed. *)

let add_header buf ~many name =
  if many then begin
    Buffer.add_string buf "===== ";
    Buffer.add_string buf name;
    Buffer.add_string buf " =====\n"
  end

let add_verdicts buf prog (r : Deptest.Analyze.result) =
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%a@." Dt_ir.Nest.pp prog;
  match r.Deptest.Analyze.deps with
  | [] -> Buffer.add_string buf "no dependences\n"
  | deps ->
      List.iter
        (fun d ->
          Deptest.Dep.to_buffer buf d;
          Buffer.add_char buf '\n')
        deps

(* the conservative-degradation warnings; returns how many pairs degraded *)
let add_warnings buf (r : Deptest.Analyze.result) =
  List.fold_left
    (fun n (p : Deptest.Analyze.pair_record) ->
      match p.Deptest.Analyze.meta.Deptest.Pair_test.degraded with
      | Some reason ->
          Printf.bprintf buf
            "warning: %s S%d/S%d degraded conservatively (%s)\n"
            p.Deptest.Analyze.array p.Deptest.Analyze.src_stmt
            p.Deptest.Analyze.snk_stmt
            (Dt_guard.Degrade.to_string reason);
          n + 1
      | None -> n)
    0 r.Deptest.Analyze.pairs

let add_counters buf (r : Deptest.Analyze.result) =
  Buffer.add_string buf "\n-- tests applied --\n";
  Deptest.Counters.to_buffer buf r.Deptest.Analyze.counters

let add_routine buf ~many (prog : Dt_ir.Nest.program) r =
  add_header buf ~many prog.Dt_ir.Nest.name;
  add_verdicts buf prog r;
  let degraded = add_warnings buf r in
  add_counters buf r;
  degraded

let rendered size f =
  let buf = Buffer.create size in
  let x = f buf in
  (Buffer.contents buf, x)

let header ~many name = fst (rendered 64 (fun b -> add_header b ~many name))
let verdicts prog r = fst (rendered 1024 (fun b -> add_verdicts b prog r))
let warnings r = rendered 64 (fun b -> add_warnings b r)
let counters r = fst (rendered 256 (fun b -> add_counters b r))
let routine ~many prog r = rendered 1024 (fun b -> add_routine b ~many prog r)

(* A dependence line is about 50 bytes and a routine's listing and
   counter table a few hundred, so the buffer is sized from the
   dependence count once instead of doubling up from a fixed guess. *)
let routines ~many progs results =
  let size =
    List.fold_left
      (fun n (r : Deptest.Analyze.result) ->
        n + 512 + (64 * List.length r.Deptest.Analyze.deps))
      0 results
  in
  rendered size (fun buf ->
      List.fold_left2
        (fun n p r -> n + add_routine buf ~many p r)
        0 progs results)

let unit_ progs results = routines ~many:(List.length progs > 1) progs results
