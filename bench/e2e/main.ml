(* deptest end-to-end benchmark.

   Four seeded closed-loop workloads through the shipped defaults: the
   one-shot pipeline in-process (corpus-oneshot, miv-batch) and a real
   `deptest serve` subprocess over its unix socket (serve-warm,
   serve-edit). Every op's output is checked. An untraced run prints the
   end-to-end metrics, every time in them brought to the speed of a
   reference machine by probes taken between slices of the run
   (speed.ml); a traced run (--traced, or --trace 1) times the calls
   into each layer from outside and prints the per-layer table. See
   README.md for the workloads, metrics and the layer mapping.

     main.exe --deptest PATH [--workload NAME|all] [--seed N]
              [--seconds S] [--traced | --trace 0|1] [--smoke]
              [--json FILE] [--expected FILE]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Exit 1 on any wrong
   output, digest mismatch, unsound verdict or failed attribution check;
   exit 2 on a usage error. *)

module Json = Dt_obs.Json
module Protocol = Dt_serve.Protocol

let now = Oneshot.now
let fatal = Daemon.fatal
let secs_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9
let ns_of_s s = Int64.of_float (s *. 1e9)
let per a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* sizes (frozen: changing one changes the benchmark) *)

let miv_units = 64  (* base miv units, 8 routines x 6 statements *)

(* The base miv units are one fixed generated set, as the corpus is a
   fixed set: they come from generator seed [base_seed] whatever --seed
   is. serve-warm's cost follows the size of their answers, and drawing
   them from --seed moved it by 13% from seed to seed. --seed draws
   the rest: miv-batch's fresh units, the requests of serve-warm, the
   edits of serve-edit, the shuffles and the oracle's picks. *)
let base_seed = 1
let conns = 2  (* serve connections, one request outstanding on each *)
let full_check_every = 16  (* miv-batch ops and serve-edit requests checked in full *)
let digest_requests = 8  (* of those, the ones the digest covers *)
let edit_pool_per_s = 250  (* serve-edit sources pre-generated per second *)
let oracle_units = 8
let oracle_n = 8  (* value of a symbolic bound for the brute-force oracle *)
let oracle_max_pairs = 200_000
let windows = 10  (* ops_per_s is the median over this many windows *)

(* peak_rss_mb is read once this many timed ops have completed: the
   serve daemon keeps every answer, so its memory grows with the ops it
   served, and a fixed op count keeps a faster build from reading as a
   memory regression *)
let rss_after_ops = 500

(* set-up repetitions behind setup_s: batch warm-up passes (at least
   [setup_passes] and [setup_min_s] of them) and daemon launches, each
   after [setup_probes] speed probes *)
let setup_passes = 3
let setup_min_s = 1.
let launches = 5
let setup_probes = 3

let workloads = [ "corpus-oneshot"; "miv-batch"; "serve-warm"; "serve-edit" ]

(* ------------------------------------------------------------------ *)
(* options *)

type opts = {
  deptest : string;
  seed : int;
  names : string list;
  seconds : float;
  traced : bool;
  smoke : bool;
  json : string option;
  expected : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --deptest PATH [--workload NAME|all] [--seed N] \
     [--seconds S] [--traced | --trace 0|1] [--smoke] [--json FILE] \
     [--expected FILE]";
  exit 2

let parse_args () =
  let o =
    ref
      {
        deptest = "";
        seed = 1;
        names = workloads;
        seconds = 10.;
        traced = false;
        smoke = false;
        json = None;
        expected = "bench/e2e/expected.json";
      }
  in
  let num f v = match f v with Some x -> x | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--deptest" :: v :: r -> o := { !o with deptest = v }; go r
    | "--seed" :: v :: r -> o := { !o with seed = num int_of_string_opt v }; go r
    | "--seconds" :: v :: r ->
        o := { !o with seconds = num float_of_string_opt v }; go r
    | "--workload" :: "all" :: r -> o := { !o with names = workloads }; go r
    | "--workload" :: v :: r when List.mem v workloads ->
        o := { !o with names = [ v ] }; go r
    | "--traced" :: r -> o := { !o with traced = true }; go r
    | "--trace" :: ("0" | "1" as v) :: r -> o := { !o with traced = v = "1" }; go r
    | "--smoke" :: r -> o := { !o with smoke = true }; go r
    | "--json" :: v :: r -> o := { !o with json = Some v }; go r
    | "--expected" :: v :: r -> o := { !o with expected = v }; go r
    | a :: _ ->
        prerr_endline ("main.exe: bad argument " ^ a);
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let o = !o in
  if o.seconds <= 0. then usage ();
  if o.deptest = "" then usage ();
  (match Unix.access o.deptest [ Unix.X_OK ] with
  | () -> ()
  | exception Unix.Unix_error _ ->
      prerr_endline ("main.exe: --deptest " ^ o.deptest ^ " is not executable");
      exit 2);
  (* a smoke run keeps every check and caps each timed phase at 0.5 s *)
  if o.smoke then { o with seconds = Float.min o.seconds 0.5 } else o

(* ------------------------------------------------------------------ *)
(* samples *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let append t u =
    for i = 0 to u.n - 1 do
      add t u.a.(i)
    done
end

(* nearest rank *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median l = quantile (let a = Array.of_list l in Array.sort Float.compare a; a) 0.5

(* ------------------------------------------------------------------ *)
(* one timed phase *)

(* A timed phase runs in slices of about [slice_s] of workload, each
   followed by a speed probe (speed.ml). Every time the phase reports is
   brought to reference speed by the factor of the slice it was
   measured in. *)
let slice_s = 0.05

type phase = {
  attempted : int;
  failed : int;
  elapsed : float;  (* s of workload, probes excluded *)
  lat : Samples.t;  (* per-op wall, ns *)
  norm : Samples.t;  (* the same at reference speed *)
  rates : (int * float) list;  (* per slice: ops, and its s at reference speed *)
  cpu : float;  (* s of the analyzing process, at reference speed *)
  hwm : float;  (* MB, VmHWM of that process after [rss_after_ops] ops *)
  probes : float list;  (* ns per reference unit *)
}

type slice = { wall : float; cpu_s : float; ops : int; first : int; last : int }

(* Runs [slice deadline], which runs whole ops until the clock passes
   [deadline], alternately with speed probes until [seconds] of slices
   have run; [between ()] runs before each slice, off the clock.
   [attempted] counts the ops, [lat] gets one sample per answered op,
   [cpu ()] reads the CPU seconds of the analyzing process and [hwm ()]
   its peak RSS at the end. *)
let sliced ~probe ~seconds ~attempted ~failed ~lat ~cpu ~hwm ?(between = ignore) slice =
  let probes = ref [ probe () ] and rows = ref [] and spent = ref 0. in
  while !spent < seconds do
    between ();
    let first = lat.Samples.n and ops = !attempted and c0 = cpu () and t0 = now () in
    slice (Int64.add t0 (ns_of_s (Float.min slice_s (seconds -. !spent))));
    let wall = secs_since t0 in
    let cpu_s = cpu () -. c0 in
    spent := !spent +. wall;
    rows := { wall; cpu_s; ops = !attempted - ops; first; last = lat.Samples.n } :: !rows;
    probes := probe () :: !probes
  done;
  let rows = Array.of_list (List.rev !rows) and probes = List.rev !probes in
  let f = Speed.factors (Array.of_list probes) in
  let norm = Samples.create () in
  Array.iteri
    (fun j r ->
      for i = r.first to r.last - 1 do
        Samples.add norm (lat.Samples.a.(i) *. f.(j))
      done)
    rows;
  {
    attempted = !attempted;
    failed = !failed;
    elapsed = !spent;
    lat;
    norm;
    rates = Array.to_list (Array.mapi (fun j r -> (r.ops, r.wall *. f.(j))) rows);
    cpu = Array.fold_left ( +. ) 0. (Array.mapi (fun j r -> r.cpu_s *. f.(j)) rows);
    hwm = hwm ();
    probes;
  }

(* Set-up repetitions, each after [setup_probes] speed probes, while
   [more count] holds; [step ()] runs one and returns its seconds.
   Returns them at reference speed, by the median probe. The probes go
   before a repetition, not after: probes taken just after a daemon
   launch read up to 70% slower than the ones before it. *)
let at_speed ~probe ~more step =
  let probes = ref [] and times = ref [] in
  while more (List.length !times) do
    for _ = 1 to setup_probes do
      probes := probe () :: !probes
    done;
    times := step () :: !times
  done;
  let f = Speed.nominal_ns /. median !probes in
  List.map (fun t -> t *. f) !times

(* throughput at reference speed, as the median over equal windows of
   slices, so a short burst of interference from outside moves it less
   than it moves the mean *)
let ops_per_s ph =
  let r = Array.of_list ph.rates in
  let n = Array.length r in
  let window lo hi =
    let ops = ref 0 and s = ref 0. in
    for j = lo to hi - 1 do
      ops := !ops + fst r.(j);
      s := !s +. snd r.(j)
    done;
    per (float !ops) !s
  in
  if n < windows then window 0 n
  else median (List.init windows (fun w -> window (w * n / windows) ((w + 1) * n / windows)))

let mean_ns ph = per (Samples.sum ph.lat) (float ph.lat.Samples.n)
let rate ph = per (float ph.attempted) ph.elapsed

(* a merged phase only feeds rates and mean latencies: its RSS reading
   stays the first segment's *)
let merge a b =
  Samples.append a.lat b.lat;
  Samples.append a.norm b.norm;
  {
    a with
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    elapsed = a.elapsed +. b.elapsed;
    rates = a.rates @ b.rates;
    cpu = a.cpu +. b.cpu;
    probes = a.probes @ b.probes;
  }

(* A traced run alternates untraced and traced segments of equal length,
   so drift in the machine's speed lands on both sides of
   trace.overhead_ratio alike. Returns the merged untraced and traced
   phases. *)
let rounds = 4

let alternate ~seconds ~plain ~traced =
  let seg = seconds /. float (2 * rounds) in
  let rec go k (p, t) =
    if k = rounds then (p, t) else go (k + 1) (merge p (plain seg), merge t (traced seg))
  in
  go 1 (plain seg, traced seg)

(* [f ()], with the garbage collection it caused added to [minor] (words)
   and [major] (collections) *)
let gc_counted (minor, major) f =
  let g0 = Gc.quick_stat () in
  let x = f () in
  let g1 = Gc.quick_stat () in
  minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
  major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
  x

(* Where the ops of a batch workload come from. [next ()] gives the
   next op's key and source, or [None] to end the slice early; [check
   key out] judges an undegraded output; [between ()] runs between
   slices, off the clock; [close ()], after timing, returns the wrong
   outputs its full checks found and the outputs the digest covers. *)
type feed = {
  next : unit -> (int * string) option;
  check : int -> string -> bool;
  between : unit -> unit;
  close : unit -> int * string list;
}

(* corpus-oneshot: the units [srcs] in a seeded shuffle per pass, each
   output compared byte for byte with [expected] *)
let cycle ~seed srcs expected =
  let st = Random.State.make [| seed; 4 |] in
  let n = Array.length srcs in
  let order = Array.init n Fun.id and k = ref n in
  {
    next =
      (fun () ->
        if !k = n then begin
          Units.shuffle st order;
          k := 0
        end;
        incr k;
        Some (order.(!k - 1), srcs.(order.(!k - 1))));
    check = (fun i out -> String.equal out expected.(i));
    between = ignore;
    close = (fun () -> (0, Array.to_list expected));
  }

(* miv-batch: a stream of fresh units, none repeated, so the latency
   tail is spread over many units rather than set by the few heaviest of
   a fixed set of 64, which moved p99 by about 25% from seed to seed.
   Units are generated between slices. Every 16th output is kept and
   recomputed after timing; the rest must be non-empty. *)
let stream ~seed =
  let q = Queue.create () and made = ref 0 and taken = ref 0 in
  let saved = Hashtbl.create 256 in
  {
    next =
      (fun () ->
        let x = Queue.take_opt q in
        if x <> None then incr taken;
        x);
    check =
      (fun i out ->
        if i mod full_check_every = 0 then Hashtbl.replace saved i out;
        out <> "");
    between =
      (fun () ->
        (* enough for the next slice: twice what the last one took *)
        let want = 2 * max 4 !taken in
        taken := 0;
        while Queue.length q < want do
          Queue.push (!made, Units.fresh ~seed !made) q;
          incr made
        done);
    close =
      (fun () ->
        let again i = Oneshot.run (Units.fresh ~seed i) in
        let wrong =
          Hashtbl.fold
            (fun i out wrong ->
              match again i with o, 0 when String.equal o out -> wrong | _ -> wrong + 1)
            saved 0
        in
        ( wrong,
          List.init digest_requests (fun k ->
              let i = k * full_check_every in
              match Hashtbl.find_opt saved i with Some out -> out | None -> fst (again i)) ));
  }

(* In-process ops from [feed] for [seconds] *)
let batch_phase ~probe ~seconds (feed : feed) ~op ~after =
  let lat = Samples.create () in
  let attempted = ref 0 and failed = ref 0 in
  let pid = Unix.getpid () and hwm = ref 0. in
  let rec slice deadline =
    if Int64.compare (now ()) deadline < 0 then
      match feed.next () with
      | None -> ()
      | Some (key, src) ->
          let s = now () in
          let r = try Some (op src) with Out_of_memory as e -> raise e | _ -> None in
          let e = now () in
          incr attempted;
          if !attempted = rss_after_ops then hwm := Daemon.hwm_mb pid;
          Samples.add lat (Int64.to_float (Int64.sub e s));
          (match r with
          | Some ((out, 0), x) when feed.check key out -> after src x
          | _ -> incr failed);
          slice deadline
  in
  sliced ~probe ~seconds ~attempted ~failed ~lat ~cpu:Daemon.self_cpu_s
    ~hwm:(fun () -> if !hwm > 0. then !hwm else Daemon.hwm_mb pid)
    ~between:feed.between slice

(* Requests against daemon [d] for [seconds], on [conns] connections
   kept open across slices: [next ()] picks the next request (the index
   handed back to [check] and its frame); [check i payload] judges the
   answer. *)
let serve_phase ~seconds (d : Daemon.t) ~next ~check =
  let lat = Samples.create () in
  let attempted = ref 0 and failed = ref 0 in
  let hwm = ref 0. and replies = ref 0 in
  let reply i r rtt =
    incr replies;
    if !replies = rss_after_ops then hwm := Daemon.hwm_mb d.pid;
    match r with
    | Error _ -> incr failed
    | Ok payload ->
        Samples.add lat (float rtt);
        if not (check i payload) then incr failed
  in
  let fds = Daemon.connections d.socket conns in
  let slice deadline =
    Daemon.drive fds
      ~next:(fun () ->
        if Int64.compare (now ()) deadline >= 0 then None
        else begin
          incr attempted;
          Some (next ())
        end)
      ~reply
  in
  let ph =
    sliced ~probe:Speed.probe ~seconds ~attempted ~failed ~lat
      ~cpu:(fun () -> Daemon.cpu_s d.pid)
      ~hwm:(fun () -> if !hwm > 0. then !hwm else Daemon.hwm_mb d.pid)
      slice
  in
  Daemon.close_all fds;
  ph

(* ------------------------------------------------------------------ *)
(* answers *)

let decode payload =
  match Json.of_string payload with
  | Error _ -> None
  | Ok j -> (
      match
        (Json.member "ok" j, Json.member "output" j, Json.member "degraded" j)
      with
      | Some (Json.Bool true), Some (Json.String out), Some (Json.Int deg) ->
          Some (out, deg)
      | _ -> None)

(* The daemon's answer to a source starts with these exact bytes (its
   fields are ok, output, degraded, then the trace id), so the hot check
   is a prefix compare; anything else falls back to a full decode. *)
let answer_prefix output =
  let s =
    Json.to_string
      (Json.Obj
         [ ("ok", Json.Bool true); ("output", Json.String output); ("degraded", Json.Int 0) ])
  in
  String.sub s 0 (String.length s - 1) ^ ","

let matches ~prefix ~output payload =
  String.starts_with ~prefix payload
  || match decode payload with Some (o, 0) -> String.equal o output | _ -> false

(* client-side codec cost of the traced requests *)
type codec = { mutable enc : int; mutable dec : int; mutable n : int }

let codec () = { enc = 0; dec = 0; n = 0 }

let encode_timed c source =
  let t = now () in
  let f = Daemon.encode source in
  c.enc <- c.enc + Oneshot.since t;
  f

let decode_timed c payload =
  let t = now () in
  let r = decode payload in
  c.dec <- c.dec + Oneshot.since t;
  c.n <- c.n + 1;
  r

(* ------------------------------------------------------------------ *)
(* results *)

let digest outputs = Digest.to_hex (Digest.string (String.concat "\x00" outputs))

(* every time here is at reference speed *)
let e2e ~ph ~setup =
  let sorted = Samples.sorted ph.norm in
  [
    ("ops_per_s", ops_per_s ph, "1/s");
    ("latency_p50_ms", quantile sorted 0.5 /. 1e6, "ms");
    ("latency_p99_ms", quantile sorted 0.99 /. 1e6, "ms");
    ("cpu_ms_per_op", per (ph.cpu *. 1e3) (float ph.attempted), "ms");
    ("peak_rss_mb", ph.hwm, "MB");
    ("setup_s", median setup, "s");
  ]

(* ------------------------------------------------------------------ *)
(* per-layer metrics *)

(* What the traced run gathers. [one] covers the in-process layers on
   the one-shot pipeline: the traced ops of a batch workload, or the
   reference pass of a serve workload. [sv] covers the daemon layers:
   the traced requests of a serve workload, or, for a batch workload, a
   pass of its units through a fresh daemon that also checks the daemon
   answers them byte for byte as the one-shot pipeline does. *)
type served = {
  c : codec;
  rtt : float;  (* mean ns *)
  delta : string -> float;  (* daemon registry, change over the pass *)
  after : string -> float;  (* daemon registry, at the end *)
  flush_ms : float;
  open_ms : float;
  entries : float;
  requests : float;
}

type traced = {
  one : Oneshot.acc;
  sv : served;
  cache : string -> float;  (* memo and guard: the timed phase's registry *)
  ops : float;  (* traced timed ops *)
  gc_minor : float;  (* minor words over the traced phase *)
  gc_major : float;
  overhead : float;
}

(* what one workload run produced *)
type outcome = {
  ph : phase;  (* the untraced timed phase *)
  e2e : (string * float * string) list;  (* name, value, unit *)
  setup_n : int;  (* set-up repetitions behind setup_s *)
  digest : string;
  wrong : int;  (* failures outside the timed ops: full checks, degraded set-up *)
  oracle : int * int;  (* checked, unsound *)
  layers : (phase * traced) option;  (* a traced run's traced phase *)
  notes : string list;
}

let groups =
  (* layer, metrics it should move, on which workload, where not *)
  [
    ("frontend", "ops_per_s latency_p50_ms", "corpus-oneshot", "serve-warm");
    ("analyze", "ops_per_s latency_p99_ms", "miv-batch", "corpus-oneshot");
    ("tier", "ops_per_s; counts must not move", "corpus-oneshot (SIV), miv-batch (Delta/Banerjee)", "-");
    ("banerjee", "ops_per_s latency_p99_ms", "miv-batch", "serve-warm");
    ("pool", "ops_per_s cpu_ms_per_op", "miv-batch", "corpus-oneshot (shards = 0)");
    ("memo", "latency_p50_ms peak_rss_mb", "serve-edit", "miv-batch");
    ("store", "setup_s peak_rss_mb", "serve-warm (reads), serve-edit (writes)", "batch");
    ("render", "ops_per_s", "corpus-oneshot miv-batch", "serve-warm");
    ("protocol", "latency_p50_ms", "serve-warm", "serve-edit");
    ("engine", "latency_p50_ms latency_p99_ms", "serve-warm (response), serve-edit (memo/cold)", "batch");
    ("server", "latency_p50_ms", "serve-warm", "batch");
    ("guard", "cpu_ms_per_op; degraded pairs must stay 0", "all", "-");
    ("gc", "cpu_ms_per_op", "all", "-");
    ("trace", "(untraced / traced ops_per_s)", "all", "-");
    ("oracle", "(soundness spot-check)", "miv-batch", "-");
  ]

type row = {
  metric : string;
  value : float;
  unit_ : string;
  base : [ `One | `Served | `Plain ];
      (* what a per-op time is a share of: the one-shot op wall, the
         request round trip, or nothing *)
}

let layer_rows ~oracle t =
  let a = t.one and sv = t.sv in
  let ops1 = float a.Oneshot.ops in
  let reg = Daemon.flatten (Dt_obs.Metrics.to_json a.Oneshot.metrics) in
  let g k = Option.value ~default:0. (Hashtbl.find_opt reg k) in
  let one metric value unit_ = { metric; value; unit_; base = `One }
  and served metric value unit_ = { metric; value; unit_; base = `Served }
  and plain metric value unit_ = { metric; value; unit_; base = `Plain } in
  let us ns = per ns ops1 /. 1e3 and ms ns = per ns ops1 /. 1e6 in
  let per_op x = per x ops1 in
  let tiers =
    List.concat_map
      (fun k ->
        let s = "tier." ^ Dt_obs.Test_kind.slug k in
        let key f = g ("tests." ^ Dt_obs.Test_kind.slug k ^ "." ^ f) in
        [
          plain (s ^ ".applied") (per_op (key "applied")) "count/op";
          plain (s ^ ".independent") (per_op (key "independent")) "count/op";
        ]
        @
        (* ZIV decided symbolically is still the ZIV test: its time is
           folded into tier.ziv.ms, so every tier time is measured on
           every workload *)
        if k = Dt_obs.Test_kind.Symbolic_ziv then []
        else
          let ns =
            key "total_ns"
            +. if k = Dt_obs.Test_kind.Ziv_test then g "tests.symbolic_ziv.total_ns" else 0.
          in
          [ one (s ^ ".ms") (ms ns) "ms" ])
      Dt_obs.Test_kind.all
  in
  let nodes = g "banerjee.incremental_nodes" +. g "banerjee.scratch_nodes" in
  let busy = g "engine.busy_ns" and wait = g "engine.queue_wait_ns" in
  let memo_h = t.cache "cache.hits" and memo_m = t.cache "cache.misses" in
  let st_h = sv.delta "cache.disk_hits" and st_m = sv.delta "cache.disk_misses" in
  let analyzed = sv.delta "serve.endpoints.analyze.requests" in
  let service = per (sv.delta "serve.endpoints.analyze.total_ns") analyzed in
  let enc = per (float sv.c.enc) (float sv.c.n)
  and dec = per (float sv.c.dec) (float sv.c.n) in
  let answered tier =
    plain ("engine.answered." ^ tier) (per (sv.delta ("serve.answered." ^ tier)) analyzed) "ratio"
  in
  List.concat
    [
      [
        one "frontend.lex_us" (us (float a.lex)) "us";
        one "frontend.parse_us" (us (float a.parse)) "us";
        one "frontend.lower_us" (us (float a.lower)) "us";
        plain "frontend.tokens_per_s" (per (float a.tokens) (float a.lex /. 1e9)) "1/s";
        one "analyze.sites_us" (us (float a.sites)) "us";
        plain "analyze.pairs_per_op" (per_op (float a.pairs)) "count/op";
        one "analyze.run_all_us" (us (float a.run_all)) "us";
        one "analyze.partition_ms" (ms (g "phases.partition_ns")) "ms";
        one "analyze.test_ms" (ms (g "phases.test_ns")) "ms";
        one "analyze.merge_ms" (ms (g "phases.merge_ns")) "ms";
      ];
      tiers;
      [
        plain "banerjee.nodes" (per_op nodes) "count/op";
        plain "banerjee.ns_per_node" (per (g "tests.banerjee_miv.total_ns") nodes) "ns";
        plain "banerjee.kernel_compilations" (per_op (g "banerjee.kernel_compilations")) "count/op";
        plain "banerjee.cap_fallbacks" (per_op (g "banerjee.combo_cap_fallbacks")) "count/op";
        one "pool.busy_ms" (ms busy) "ms";
        plain "pool.wait_share" (per wait (busy +. wait)) "ratio";
        plain "pool.steals" (per_op (g "engine.steals")) "count/op";
        plain "pool.shards" (per_op (g "engine.shards")) "count/op";
        plain "pool.efficiency"
          (per busy (float a.run_all *. float (Dt_support.Pool.recommended_jobs ())))
          "ratio";
        plain "memo.hits" (per memo_h t.ops) "count/op";
        plain "memo.misses" (per memo_m t.ops) "count/op";
        plain "memo.hit_ratio" (per memo_h (memo_h +. memo_m)) "ratio";
        plain "memo.size" (t.cache "cache.size") "count";
        plain "store.hits" (per st_h sv.requests) "count/op";
        plain "store.misses" (per st_m sv.requests) "count/op";
        plain "store.hit_ratio" (per st_h (st_h +. st_m)) "ratio";
        plain "store.invalid" (sv.after "cache.disk_invalid") "count";
        plain "store.entries" sv.entries "count";
        plain "store.open_ms" sv.open_ms "ms";
        plain "store.flush_ms" sv.flush_ms "ms";
        one "render.us" (us (float a.render)) "us";
        served "protocol.encode_us" (enc /. 1e3) "us";
        served "protocol.decode_us" (dec /. 1e3) "us";
        served "engine.service_us" (service /. 1e3) "us";
        answered "response";
        answered "disk";
        answered "memo";
        answered "cold";
        served "server.transport_us" ((sv.rtt -. service -. enc -. dec) /. 1e3) "us";
        plain "guard.degraded_pairs" (t.cache "guard.degraded") "count";
        plain "gc.minor_mwords_per_op" (per t.gc_minor t.ops /. 1e6) "Mwords";
        plain "gc.major_collections" t.gc_major "count";
        plain "trace.overhead_ratio" t.overhead "ratio";
        plain "oracle.checked" (float (fst oracle)) "count";
        plain "oracle.unsound" (float (snd oracle)) "count";
      ];
    ]

let group_of metric = String.sub metric 0 (String.index metric '.')

let print_layers ~name t rows =
  let one_wall = per (float (Oneshot.layers_ns t.one)) (float t.one.Oneshot.ops) in
  Printf.printf
    "\n  per-layer (%s): one-shot op wall %.1f us over %d ops (%s); request \
     round trip %.1f us over %.0f requests (%s)\n"
    name (one_wall /. 1e3) t.one.Oneshot.ops
    (if String.starts_with ~prefix:"serve" name then "reference pass" else "timed ops")
    (t.sv.rtt /. 1e3) t.sv.requests
    (if String.starts_with ~prefix:"serve" name then "timed requests"
     else "daemon cross-check pass");
  let last = ref "" in
  List.iter
    (fun r ->
      let grp = group_of r.metric in
      if grp <> !last then begin
        last := grp;
        let _, moves, on, not_on = List.find (fun (g, _, _, _) -> g = grp) groups in
        Printf.printf "  [%s] moves %s; on %s; not on %s\n" grp moves on not_on
      end;
      let ns = match r.unit_ with "us" -> r.value *. 1e3 | "ms" -> r.value *. 1e6 | _ -> 0. in
      let share =
        match r.base with
        | `One when one_wall > 0. -> Printf.sprintf "%5.1f%%" (100. *. ns /. one_wall)
        | `Served when t.sv.rtt > 0. -> Printf.sprintf "%5.1f%%" (100. *. ns /. t.sv.rtt)
        | _ -> ""
      in
      Printf.printf "    %-32s %14.4f %-9s %s\n" r.metric r.value r.unit_ share)
    rows

(* ------------------------------------------------------------------ *)
(* the daemon side *)

let cache_dir dir = Filename.concat dir "cache"

(* One pass of [srcs] through daemon [d], one request at a time,
   traced: each answer is checked against [expected]. Returns the codec
   cost, the mean round trip in ns and the number of wrong answers. *)
let served_pass (d : Daemon.t) srcs expected =
  let c = codec () in
  let rtt = ref 0 and failed = ref 0 and k = ref 0 in
  let fds = Daemon.connections d.socket 1 in
  Daemon.drive fds
    ~next:(fun () ->
      if !k = Array.length srcs then None
      else begin
        incr k;
        Some (!k - 1, encode_timed c srcs.(!k - 1))
      end)
    ~reply:(fun i r ns ->
      rtt := !rtt + ns;
      match r with
      | Ok p -> (
          match decode_timed c p with
          | Some (out, 0) when String.equal out expected.(i) -> ()
          | _ -> incr failed)
      | Error _ -> incr failed);
  Daemon.close_all fds;
  (c, float !rtt /. float (max 1 !k), !failed)

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

(* [f ()], with the change it caused in daemon [d]'s registry added to
   [acc] *)
let registry_delta (d : Daemon.t) acc f =
  let r0 = Daemon.registry d in
  let x = f () in
  Hashtbl.iter
    (fun k v -> Hashtbl.replace acc k (get acc k +. v -. get r0 k))
    (Daemon.registry d);
  x

(* the daemon-layer figures that close a traced pass: the registry
   change [delta] over the traced requests, a timed flush, the store
   size, then a timed in-process open of the flushed store (the load
   every launch pays) *)
let close_served (d : Daemon.t) ~dir ~c ~rtt ~delta ~requests ~open_ms =
  let reg1 = Daemon.registry d in
  let t = now () in
  ignore (Daemon.call d Protocol.Flush);
  let flush_ms = secs_since t *. 1e3 in
  let entries =
    match Json.member "disk" (Daemon.call d Protocol.Health) with
    | Some disk -> (
        match Json.member "resident" disk with Some (Json.Int n) -> float n | _ -> 0.)
    | None -> 0.
  in
  let open_ms =
    match open_ms with
    | Some ms -> ms
    | None ->
        let t = now () in
        ignore (Dt_serve.Engine.create ~cache_dir:(cache_dir dir) ());
        secs_since t *. 1e3
  in
  {
    c;
    rtt;
    delta = get delta;
    after = get reg1;
    flush_ms;
    open_ms;
    entries;
    requests;
  }

(* ------------------------------------------------------------------ *)
(* the one-shot workloads *)

let oracle ~seed units =
  let st = Random.State.make [| seed; 5 |] in
  let picks = Array.init (Array.length units) Fun.id in
  Units.shuffle st picks;
  let checked = ref 0 and unsound = ref 0 in
  Array.iter
    (fun u ->
      List.iter
        (fun prog ->
          let sites = Deptest.Analyze.sites prog in
          let r = Deptest.Analyze.run (Deptest.Analyze.Config.make ()) prog in
          List.iteri
            (fun i (p : Deptest.Analyze.pair_record) ->
              if p.independent then begin
                let (a1 : Dt_ir.Stmt.access), l1 = sites.(i).Deptest.Analyze.left
                and (a2 : Dt_ir.Stmt.access), l2 = sites.(i).Deptest.Analyze.right in
                match
                  Dt_exact.Brute.test ~sym_env:(fun _ -> oracle_n)
                    ~max_pairs:oracle_max_pairs ~src:(a1.Dt_ir.Stmt.aref, l1)
                    ~snk:(a2.Dt_ir.Stmt.aref, l2) ()
                with
                | None -> ()
                | Some rep ->
                    incr checked;
                    if rep.Dt_exact.Brute.dependent then incr unsound
              end)
            r.Deptest.Analyze.pairs)
        (Oneshot.parse units.(u)))
    (Array.sub picks 0 (min oracle_units (Array.length picks)));
  (!checked, !unsound)

let batch o ~name ~fresh ~probe srcs =
  (* set-up: warm-up passes over [srcs] (for miv-batch the base units;
     its timed ops are fresh ones), at least [setup_passes] and at least
     [setup_min_s] of them, so a short pass still gives a steady median;
     the first records the expected outputs and the others must
     reproduce them *)
  let expected = ref [||] in
  let start = now () in
  let setup =
    at_speed ~probe
      ~more:(fun n ->
        n < (if o.smoke then 1 else setup_passes)
        || ((not o.smoke) && secs_since start < setup_min_s))
      (fun () ->
        let t = now () in
        let outs = Array.map Oneshot.run srcs in
        let s = secs_since t in
        if !expected = [||] then expected := outs
        else if outs <> !expected then fatal "%s: a warm-up pass changed its outputs" name;
        s)
  in
  let degraded = Array.fold_left (fun n (_, d) -> n + d) 0 !expected in
  let expected = Array.map fst !expected in
  let feed = if fresh then stream ~seed:o.seed else cycle ~seed:o.seed srcs expected in
  let plain s = (Oneshot.run s, ()) in
  let phase op after seconds = batch_phase ~probe ~seconds feed ~op ~after in
  let one = Oneshot.acc () and gc = (ref 0., ref 0) in
  let ph, traced =
    if not o.traced then (phase plain (fun _ () -> ()) o.seconds, None)
    else
      let ph, tp =
        alternate ~seconds:o.seconds ~plain:(phase plain (fun _ () -> ()))
          ~traced:(fun seg ->
            gc_counted gc (fun () ->
                phase (Oneshot.run_traced one)
                  (fun src x -> Oneshot.extras one src x)
                  seg))
      in
      (ph, Some tp)
  in
  let wrong, checked = feed.close () in
  let oracle = if fresh then oracle ~seed:o.seed srcs else (0, 0) in
  let traced =
    Option.map
      (fun tp ->
        let layers = float (Oneshot.layers_ns one) /. float one.Oneshot.ops
        and wall = mean_ns tp in
        if Float.abs (layers -. wall) > 0.05 *. wall then
          fatal "%s: parse+lower+config+run_all+render is %.0f ns/op, op wall %.0f ns/op"
            name layers wall;
        (* the daemon layers, from one pass of the units through a fresh
           daemon that must answer them as the one-shot pipeline did *)
        let dir = Daemon.fresh_dir name in
        let d, _ = Daemon.launch ~deptest:o.deptest ~dir ~cache_dir:(cache_dir dir) in
        let delta = Hashtbl.create 256 in
        let c, rtt, failed = registry_delta d delta (fun () -> served_pass d srcs expected) in
        if failed > 0 then fatal "%s: %d daemon answers differ from one-shot" name failed;
        let sv =
          close_served d ~dir ~c ~rtt ~delta ~requests:(float (Array.length srcs))
            ~open_ms:None
        in
        Daemon.stop d;
        let reg = Daemon.flatten (Dt_obs.Metrics.to_json one.Oneshot.metrics) in
        ( tp,
          {
            one;
            sv;
            cache =
              (fun k ->
                (* each op owns its memo: report its mean size at op end *)
                if k = "cache.size" then
                  per (float one.Oneshot.memo_size) (float one.Oneshot.ops)
                else get reg k);
            ops = float tp.attempted;
            gc_minor = !(fst gc);
            gc_major = float !(snd gc);
            overhead = per (rate ph) (rate tp);
          } ))
      traced
  in
  {
    ph;
    e2e = e2e ~ph ~setup;
    setup_n = List.length setup;
    digest = digest (if fresh then Array.to_list expected @ checked else checked);
    wrong = degraded + wrong;
    oracle;
    layers = traced;
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* the serve workloads *)

(* The seeded-restart set-up both serve workloads share: one daemon
   incarnation analyzes every base unit cold (each answer checked),
   flushes and stops; the daemon is then launched on that store
   [launches] times, each launch timed from spawn until health answers
   and brought to reference speed, and the last one is kept for the
   timed phase. A traced run also times an in-process open of the
   seeded store. *)
let seeded o ~name ~base ~expected =
  let dir = Daemon.fresh_dir name in
  let d, _ = Daemon.launch ~deptest:o.deptest ~dir ~cache_dir:(cache_dir dir) in
  let _, _, failed = served_pass d base expected in
  if failed > 0 then fatal "%s: %d daemon answers differ from one-shot" name failed;
  ignore (Daemon.call d Protocol.Flush);
  Daemon.stop d;
  let open_ms =
    if not o.traced then 0.
    else begin
      let t = now () in
      ignore (Dt_serve.Engine.create ~cache_dir:(cache_dir dir) ());
      secs_since t *. 1e3
    end
  in
  let launches = if o.smoke then 1 else launches in
  let last = ref None in
  let setup =
    at_speed ~probe:Speed.probe
      ~more:(fun n -> n < launches)
      (fun () ->
        Option.iter Daemon.stop !last;
        let d, s = Daemon.launch ~deptest:o.deptest ~dir ~cache_dir:(cache_dir dir) in
        last := Some d;
        s)
  in
  (dir, Option.get !last, setup, open_ms)

(* The timed phase of a serve workload, plain then (for a traced run)
   traced. [plain ()] and [traced c] give the request stream: the next
   request's key and frame, and the answer check. *)
let serve_timed o ~name ~dir (d : Daemon.t) ~open_ms ~one ~plain ~traced =
  let phase (next, check) seconds = serve_phase ~seconds d ~next ~check in
  let tr =
    if not o.traced then (phase plain o.seconds, None)
    else begin
      let c = codec () and delta = Hashtbl.create 256 and gc = (ref 0., ref 0) in
      let ph, tp =
        alternate ~seconds:o.seconds ~plain:(phase plain)
          ~traced:(fun seg ->
            registry_delta d delta (fun () ->
                gc_counted gc (fun () -> phase (traced c) seg)))
      in
      let sv =
        close_served d ~dir ~c ~rtt:(mean_ns tp) ~delta
          ~requests:(float tp.attempted) ~open_ms:(Some open_ms)
      in
      let service =
        per (sv.delta "serve.endpoints.analyze.total_ns")
          (sv.delta "serve.endpoints.analyze.requests")
      in
      let codec_ns = per (float c.enc +. float c.dec) (float c.n) in
      if sv.rtt -. service -. codec_ns < 0. then
        fatal "%s: round trip %.0f ns < service %.0f ns + codec %.0f ns" name
          sv.rtt service codec_ns;
      ( ph,
        Some
          ( tp,
            {
              one;
              sv;
              cache = (fun k -> if k = "cache.size" then sv.after k else sv.delta k);
              ops = float tp.attempted;
              gc_minor = !(fst gc);
              gc_major = float !(snd gc);
              overhead = per (rate ph) (rate tp);
            } ) )
    end
  in
  Daemon.stop d;
  tr

let serve_warm o ~base ~expected ~one =
  let name = "serve-warm" in
  let dir, d, setup, open_ms = seeded o ~name ~base ~expected in
  let frames = Array.map Daemon.encode base in
  let prefixes = Array.map answer_prefix expected in
  let st = Random.State.make [| o.seed; 3 |] in
  let pick () = Random.State.int st (Array.length base) in
  let plain =
    ( (fun () ->
        let u = pick () in
        (u, frames.(u))),
      fun u p -> matches ~prefix:prefixes.(u) ~output:expected.(u) p )
  in
  let traced (c : codec) =
    ( (fun () ->
        let u = pick () in
        (u, encode_timed c base.(u))),
      fun u p ->
        match decode_timed c p with
        | Some (out, 0) -> String.equal out expected.(u)
        | _ -> false )
  in
  let ph, tr = serve_timed o ~name ~dir d ~open_ms ~one ~plain ~traced in
  {
    ph;
    e2e = e2e ~ph ~setup;
    setup_n = List.length setup;
    digest = digest (Array.to_list expected);
    wrong = 0;
    oracle = (0, 0);
    layers = tr;
    notes = [];
  }

let serve_edit o ~base ~expected ~miv ~one =
  let name = "serve-edit" in
  let dir, d, setup, open_ms = seeded o ~name ~base ~expected in
  let n = max 256 (int_of_float (o.seconds *. float edit_pool_per_s)) in
  let pool = Array.init n (Units.edit ~seed:o.seed miv) in
  let frames = Array.map Daemon.encode pool in
  (* past the pre-generated pool a request is generated as it is sent,
     so that no request repeats, however fast the daemon answers *)
  let source i = if i < n then pool.(i) else Units.edit ~seed:o.seed miv i in
  let frame i = if i < n then frames.(i) else Daemon.encode (source i) in
  let count = ref 0 and saved = Hashtbl.create 256 in
  let next frame () =
    let i = !count in
    incr count;
    (i, frame i)
  in
  (* every 16th answer is kept for a full check after timing; the rest
     must be ok, non-empty and undegraded *)
  let check decode i p =
    match decode p with
    | Some (out, 0) when out <> "" ->
        if i mod full_check_every = 0 then Hashtbl.replace saved i out;
        true
    | _ -> false
  in
  let plain = (next frame, check decode) in
  let traced c = (next (fun i -> encode_timed c (source i)), check (decode_timed c)) in
  let ph, tr = serve_timed o ~name ~dir d ~open_ms ~one ~plain ~traced in
  let run = if o.traced then fun s -> (Oneshot.run_traced_all one s, ()) else fun s -> (Oneshot.run s, ()) in
  let wrong =
    Hashtbl.fold
      (fun i out wrong ->
        match run (source i) with
        | (o, 0), () when String.equal o out -> wrong
        | _ -> wrong + 1)
      saved 0
  in
  let outs =
    List.init digest_requests (fun k ->
        match Hashtbl.find_opt saved (k * full_check_every) with
        | Some out -> out
        | None -> fst (Oneshot.run pool.(k * full_check_every)))
  in
  let notes =
    if !count > n then
      [ Printf.sprintf "%d requests past the pre-generated %d were generated while timed" (!count - n) n ]
    else []
  in
  {
    ph;
    e2e = e2e ~ph ~setup;
    setup_n = List.length setup;
    digest = digest outs;
    wrong;
    oracle = (0, 0);
    layers = tr;
    notes;
  }

(* ------------------------------------------------------------------ *)
(* entry point *)

let run_workload o name =
  let miv () = Units.miv ~seed:base_seed ~units:miv_units in
  match name with
  (* corpus-oneshot's routines are below the pool's grain and run on one
     core, so it is probed on that core alone; the other workloads keep
     both cores busy and are probed on both *)
  | "corpus-oneshot" -> batch o ~name ~fresh:false ~probe:Speed.probe_here (Units.corpus ())
  | "miv-batch" -> batch o ~name ~fresh:true ~probe:Speed.probe (Array.map Units.source (miv ()))
  | _ ->
      (* the base units every serve daemon is seeded with, and their
         expected answers from the one-shot pipeline; on serve-warm this
         is also the reference pass behind its in-process layer figures *)
      let miv = miv () in
      let base = Array.append (Units.corpus ()) (Array.map Units.source miv) in
      let one = Oneshot.acc () in
      let reference =
        if o.traced && name = "serve-warm" then Oneshot.run_traced_all one
        else Oneshot.run
      in
      let expected =
        Array.map
          (fun s ->
            match reference s with
            | out, 0 -> out
            | _ -> fatal "%s: a base unit degraded in the one-shot pipeline" name)
          base
      in
      if name = "serve-warm" then serve_warm o ~base ~expected ~one
      else serve_edit o ~base ~expected ~miv ~one

let committed_digest o name =
  if o.seed <> 1 || not (Sys.file_exists o.expected) then None
  else
    match Json.of_string (In_channel.with_open_bin o.expected In_channel.input_all) with
    | Error e -> fatal "%s: %s" o.expected e
    | Ok j ->
        Option.bind (Json.member "digests" j) (fun d ->
            Option.bind (Json.member name d) Json.to_str)

let metric_json (name, value, unit_) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])

(* print one workload's section; returns its counts, whether its
   non-op checks passed, its contract metrics and its report entry *)
let report o name (r : outcome) =
  let attempted, failed =
    match r.layers with
    | None -> (r.ph.attempted, r.ph.failed + r.wrong)
    | Some (tp, _) -> (r.ph.attempted + tp.attempted, r.ph.failed + tp.failed + r.wrong)
  in
  let committed = committed_digest o name in
  let digest_ok = Option.fold ~none:true ~some:(String.equal r.digest) committed in
  let checked, unsound = r.oracle in
  Printf.printf "\n== %s: seed %d, %g s timed, %d cores, %s ==\n" name o.seed
    o.seconds (Dt_support.Pool.recommended_jobs ())
    (if o.traced then "traced (half untraced, half traced)" else "untraced");
  Printf.printf "  ops attempted %d, failed %d (fail_ratio %g)\n" attempted failed
    (per (float failed) (float attempted));
  Printf.printf "  output digest %s (%s)\n" r.digest
    (match committed with
    | Some d when d = r.digest -> "matches " ^ o.expected
    | Some d -> "MISMATCH: " ^ o.expected ^ " has " ^ d
    | None when o.seed <> 1 -> "not compared: the committed digests are for seed 1"
    | None -> "not compared: no committed digest in " ^ o.expected);
  if checked > 0 then
    Printf.printf "  oracle: %d independent verdicts checked by brute force, %d unsound\n"
      checked unsound;
  let probe = median r.ph.probes in
  let raw = Samples.sorted r.ph.lat in
  Printf.printf
    "  speed probe: median %.0f ns per reference unit over %d probes; times below are at %.0f ns\n\
    \  (unscaled: %.1f ops/s, p50 %.4f ms, p99 %.4f ms)\n"
    probe (List.length r.ph.probes) Speed.nominal_ns (rate r.ph) (quantile raw 0.5 /. 1e6)
    (quantile raw 0.99 /. 1e6);
  List.iter (Printf.printf "  note: %s\n") r.notes;
  if failed > 0 || (not digest_ok) || unsound > 0 then
    Printf.eprintf "e2e: %s FAILED: %d of %d ops wrong, digest %s, %d unsound verdicts\n%!"
      name failed attempted
      (if digest_ok then "ok" else "mismatch")
      unsound;
  let metrics =
    match r.layers with
    | None ->
        let samples = function
          | "ops_per_s" ->
              Printf.sprintf "median of %d windows of %d slices, %d ops" windows
                (List.length r.ph.rates) r.ph.attempted
          | "setup_s" -> Printf.sprintf "median of %d" r.setup_n
          | "peak_rss_mb" ->
              Printf.sprintf "VmHWM after %d ops" (min rss_after_ops r.ph.attempted)
          | _ -> Printf.sprintf "%d samples" r.ph.lat.Samples.n
        in
        List.iter
          (fun (m, v, u) -> Printf.printf "    %-16s %14.4f %-4s %s\n" m v u (samples m))
          r.e2e;
        r.e2e
    | Some (_, t) ->
        let rows = layer_rows ~oracle:r.oracle t in
        print_layers ~name t rows;
        List.map (fun row -> (row.metric, row.value, row.unit_)) rows
  in
  let entry =
    Json.Obj
      [
        ("workload", Json.String name);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("samples", Json.Int r.ph.lat.Samples.n);
        ("probe_ns", Json.Float probe);
        ("digest", Json.String r.digest);
        ("digest_match", Option.fold ~none:Json.Null ~some:(fun _ -> Json.Bool digest_ok) committed);
        ("notes", Json.List (List.map (fun s -> Json.String s) r.notes));
        ("metrics", Json.Obj (List.map metric_json metrics));
      ]
  in
  (attempted, failed, digest_ok && unsound = 0, metrics, entry)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = Speed.helper_flag then Speed.serve_helper ();
  let o = parse_args () in
  Daemon.install_signals ();
  let results =
    List.map (fun name -> (name, report o name (run_workload o name))) o.names
  in
  let attempted = List.fold_left (fun n (_, (a, _, _, _, _)) -> n + a) 0 results
  and failed = List.fold_left (fun n (_, (_, f, _, _, _)) -> n + f) 0 results
  and checks = List.for_all (fun (_, (_, _, ok, _, _)) -> ok) results in
  let metrics =
    match results with
    | [ (_, (_, _, _, m, _)) ] -> m
    | _ ->
        List.concat_map
          (fun (name, (_, _, _, m, _)) ->
            List.map (fun (k, v, u) -> (name ^ "." ^ k, v, u)) m)
          results
  in
  let correct = failed = 0 && checks in
  Option.iter
    (fun path ->
      Dt_obs.Artifact.write_atomic path
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.String "deptest-e2e/1");
                ("seed", Json.Int o.seed);
                ("seconds", Json.Float o.seconds);
                ("traced", Json.Bool o.traced);
                ("smoke", Json.Bool o.smoke);
                ("cores", Json.Int (Dt_support.Pool.recommended_jobs ()));
                ( "sizes",
                  Json.Obj
                    [
                      ("miv_units", Json.Int miv_units);
                      ("miv_base_seed", Json.Int base_seed);
                      ("miv_routines", Json.Int Units.miv_routines);
                      ("miv_stmts", Json.Int Units.miv_stmts);
                      ("connections", Json.Int conns);
                      ("edit_pool_per_s", Json.Int edit_pool_per_s);
                      ("oracle_units", Json.Int oracle_units);
                      ("full_check_every", Json.Int full_check_every);
                      ("slice_s", Json.Float slice_s);
                      ("probe_nominal_ns", Json.Float Speed.nominal_ns);
                      ("setup_passes", Json.Int setup_passes);
                      ("setup_probes", Json.Int setup_probes);
                      ("launches", Json.Int launches);
                    ] );
                ("correct", Json.Bool correct);
                ("workloads", Json.List (List.map (fun (_, (_, _, _, _, e)) -> e) results));
              ])
        ^ "\n"))
    o.json;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric_json metrics));
          ]));
  exit (if correct then 0 else 1)
