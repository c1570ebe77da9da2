(* One unit through exactly what `deptest analyze FILE` does: parse
   (dialect sniffed like the daemon does), a fresh default configuration,
   run_all over the unit's routines, then the shared renderer. *)

module Analyze = Deptest.Analyze
module Metrics = Dt_obs.Metrics

let now = Dt_obs.Clock.now_ns
let since t0 = Int64.to_int (Int64.sub (now ()) t0)

let parse src =
  if Dt_frontend.Cfront.looks_like_c src then
    [ Dt_frontend.Cfront.parse_and_lower src ]
  else Dt_frontend.Lower.parse_unit src

(* the rendered text and its degraded-pair count *)
let run src =
  let progs = parse src in
  Dt_serve.Render.unit_ progs
    (Analyze.run_all (Analyze.Config.make ()) progs)

(* Per-layer totals over traced ops, in nanoseconds. [parse] through
   [render] are the contiguous steps of the op; [lex] and [sites] are
   timed by {!extras}, outside the op. *)
type acc = {
  metrics : Metrics.t;  (* every op's registry, merged *)
  mutable ops : int;
  mutable parse : int;
  mutable lower : int;
  mutable config : int;
  mutable run_all : int;
  mutable render : int;
  mutable lex : int;
  mutable tokens : int;
  mutable sites : int;
  mutable pairs : int;
  mutable memo_size : int;
}

let acc () =
  {
    metrics = Metrics.create ();
    ops = 0;
    parse = 0;
    lower = 0;
    config = 0;
    run_all = 0;
    render = 0;
    lex = 0;
    tokens = 0;
    sites = 0;
    pairs = 0;
    memo_size = 0;
  }

let layers_ns a = a.parse + a.lower + a.config + a.run_all + a.render

(* [run] with the clock read between layers and a metrics registry on
   the configuration: the same text, plus what {!extras} needs *)
let run_traced a src =
  let t0 = now () in
  let asts =
    if Dt_frontend.Cfront.looks_like_c src then [ Dt_frontend.Cfront.parse src ]
    else Dt_frontend.Parser.parse_unit src
  in
  let t1 = now () in
  let progs = List.map Dt_frontend.Lower.program asts in
  let t2 = now () in
  let m = Metrics.create () in
  let cfg = Analyze.Config.make ~metrics:m () in
  let t3 = now () in
  let results = Analyze.run_all cfg progs in
  let t4 = now () in
  let out = Dt_serve.Render.unit_ progs results in
  let t5 = now () in
  let d a b = Int64.to_int (Int64.sub b a) in
  a.ops <- a.ops + 1;
  a.parse <- a.parse + d t0 t1;
  a.lower <- a.lower + d t1 t2;
  a.config <- a.config + d t2 t3;
  a.run_all <- a.run_all + d t3 t4;
  a.render <- a.render + d t4 t5;
  (out, (progs, m))

(* The work a traced op leaves for after its clock stops: merging its
   registry, and timing the lexer and the pair enumeration on their own
   (the parser lexes, and run_all enumerates, inside the op). *)
let extras a src (progs, m) =
  a.memo_size <- a.memo_size + Metrics.cache_size m;
  Metrics.merge_into a.metrics m;
  if not (Dt_frontend.Cfront.looks_like_c src) then begin
    let t = now () in
    a.tokens <- a.tokens + List.length (Dt_frontend.Lexer.tokenize src);
    a.lex <- a.lex + since t
  end;
  let t = now () in
  List.iter (fun p -> a.pairs <- a.pairs + Array.length (Analyze.sites p)) progs;
  a.sites <- a.sites + since t

let run_traced_all a src =
  let out, x = run_traced a src in
  extras a src x;
  out
