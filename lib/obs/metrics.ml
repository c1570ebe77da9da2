type phase = Parse | Partition | Test | Merge

let phases = [ Parse; Partition; Test; Merge ]
let phase_id = function Parse -> 0 | Partition -> 1 | Test -> 2 | Merge -> 3

let phase_name = function
  | Parse -> "parse"
  | Partition -> "partition"
  | Test -> "test"
  | Merge -> "merge"

(* ------------------------------------------------------------------ *)
(* the registry: named families of counters, gauges and histograms.
   A family's declaration is shared by every registry; each registry
   owns the family's series (label value + cells). Recorders write the
   cells through handles resolved when the registry is created, so the
   hot path is an array index. *)

type kind = Counter | Gauge | Histogram of int array  (* bucket bounds, ns *)

(* how [merge_into] combines one series: increments sum; snapshots of
   state shared between registries (the memo table, the disk store)
   keep the larger value, since summing registries that observed the
   same table would double-count it *)
type rule = Sum | Max

type decl = {
  id : int;  (* position among the built-in families; -1 for the rest *)
  name : string;
  help : string;
  kind : kind;
  rule : rule;
  label : string option;
  fixed : string list;
      (* series pre-registered at creation, exported in this order;
         series added later are exported sorted by label value *)
  optional : bool;  (* left out of the exposition while it has no series *)
}

type family = {
  decl : decl;
  mutable keys : string array;  (* label value per series *)
  mutable cells : int array;  (* [width] cells per series *)
  mutable n : int;
}

(* a histogram series is its buckets (the bounds plus an overflow
   bucket), then the sum of observations, then their count *)
let width d = match d.kind with Histogram b -> Array.length b + 3 | _ -> 1

let add_series f key =
  let w = width f.decl in
  if f.n = Array.length f.keys then begin
    let cap = max 4 (2 * f.n) in
    f.keys <- Array.append f.keys (Array.make (cap - f.n) "");
    f.cells <- Array.append f.cells (Array.make ((cap - f.n) * w) 0)
  end;
  f.keys.(f.n) <- key;
  f.n <- f.n + 1;
  f.n - 1

(* the series labelled [key], added at zero when new. Label values are
   few per family (test kinds, endpoints, domains), so a scan with
   string equality beats hashing *)
let series f key =
  let rec go i =
    if i >= f.n then add_series f key
    else if String.equal f.keys.(i) key then i
    else go (i + 1)
  in
  go 0

let instantiate d =
  let keys = match d.label with None -> [ "" ] | Some _ -> d.fixed in
  let n = List.length keys in
  { decl = d; keys = Array.of_list keys; cells = Array.make (n * width d) 0; n }

let bump f i v = f.cells.(i) <- f.cells.(i) + v

let bucket_of bounds v =
  let rec go i =
    if i >= Array.length bounds || v <= bounds.(i) then i else go (i + 1)
  in
  go 0

let observe f s v =
  match f.decl.kind with
  | Histogram bounds ->
      let base = s * width f.decl and nb = Array.length bounds + 1 in
      bump f (base + bucket_of bounds v) 1;
      bump f (base + nb) v;
      bump f (base + nb + 1) 1
  | Counter | Gauge -> bump f s v

(* (label value, series index), in export order *)
let rows f =
  let l = List.init f.n (fun i -> (f.keys.(i), i)) in
  if f.decl.fixed <> [] then l
  else
    let key k =
      match int_of_string_opt k with Some n -> Either.Left n | None -> Right k
    in
    List.stable_sort (fun (a, _) (b, _) -> compare (key a) (key b)) l

let pair_bounds = [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]

(* whole-request daemon latency: warm round trips sit in the tens of
   microseconds, cold analyses in the tens of milliseconds, so the
   request buckets run two decades above the per-pair ones. The top
   decade exists for saturation: with admission control a queued-then-
   admitted request can legitimately take seconds, and a histogram
   capped at 1s could not tell bounded queueing from a hang *)
let request_bounds =
  [| 100_000; 1_000_000; 10_000_000; 100_000_000; 1_000_000_000;
     10_000_000_000 |]

let bucket_bounds_ns = Array.map Int64.of_int pair_bounds
let declared = ref []

(* a built-in family: every registry holds one instance, at [id] *)
let declare ?label ?(fixed = []) ?(rule = Sum) ?(optional = false) kind name
    help =
  let id = List.length !declared in
  let d = { id; name; help; kind; rule; label; fixed; optional } in
  declared := d :: !declared;
  d

let per_kind =
  declare ~label:"kind" ~fixed:(List.map Test_kind.slug Test_kind.all) Counter

let per_domain = declare ~label:"domain" Counter

(* the built-in families, in exposition order *)
module F = struct
  let applied = per_kind "deptest_tests_applied_total"
      "Dependence-test applications by test kind."
  let indep = per_kind "deptest_tests_independent_total"
      "Independence proofs by test kind."
  let kind_ns = per_kind "deptest_test_ns_total"
      "Wall-clock nanoseconds inside each test kind."
  let phase_ns = declare ~label:"phase" ~fixed:(List.map phase_name phases)
      Counter "deptest_phase_ns_total"
      "Wall-clock nanoseconds per analysis phase."
  let pairs = declare Counter "deptest_pairs_tested_total"
      "Reference pairs that completed the driver."
  let pair_latency = declare (Histogram pair_bounds) "deptest_pair_latency_ns"
      "Per-reference-pair driver latency in nanoseconds."
  let cache_hits = declare Counter "deptest_cache_hits_total"
      "Pair verdicts served by the structural memo cache."
  let cache_misses = declare Counter "deptest_cache_misses_total"
      "Memo-cache lookup misses."
  let cache_entries = declare ~rule:Max Gauge "deptest_cache_entries"
      "Resident memo-cache entries after the run."
  let cache_evictions = declare ~rule:Max Counter
      "deptest_cache_evictions_total"
      "Memo-cache entries dropped by capacity eviction."
  let disk_hits = declare ~rule:Max Counter "deptest_disk_cache_hits_total"
      "Routine answers served by the disk-backed cross-run store."
  let disk_misses = declare ~rule:Max Counter "deptest_disk_cache_misses_total"
      "Disk-store lookup misses."
  let disk_invalid = declare ~rule:Max Counter
      "deptest_disk_cache_invalid_total"
      "Invalid disk-cache objects skipped (corrupt or stale segments, tmp \
       leftovers)."
  let bj_compile = declare Counter "deptest_banerjee_kernel_compilations_total"
      "Subscript pairs compiled into the linear-form kernel."
  let bj_nodes = declare ~label:"path" ~fixed:[ "incremental"; "scratch" ]
      Counter "deptest_banerjee_nodes_total"
      "Banerjee hierarchy-node evaluations by path."
  let bj_caps = declare Counter "deptest_banerjee_combo_cap_fallbacks_total"
      "Vertex cross products past the combination cap."
  let degraded = declare ~label:"reason"
      ~fixed:[ "overflow"; "exception"; "budget" ] Counter
      "deptest_degraded_pairs_total"
      "Pairs degraded to the conservative verdict, by guard reason."
  let registries = declare Counter "deptest_engine_registries_total"
      "Worker metrics registries merged into this snapshot."
  let shards = declare Counter "deptest_engine_shards_total"
      "Routine-grain shards dispatched to the work-stealing pool."
  let eng_tasks = per_domain "deptest_engine_tasks_total"
      "Engine work leaves executed, by worker domain."
  let eng_steals = per_domain "deptest_engine_steals_total"
      "Ranges stolen from another worker's deque, by thief domain."
  let eng_busy = per_domain "deptest_engine_busy_ns_total"
      "Nanoseconds inside leaf bodies, by worker domain."
  let eng_wait = per_domain "deptest_engine_queue_wait_ns_total"
      "Nanoseconds acquiring work (pop, steal, backoff), by worker domain."

  (* the serve families stay out of the exposition (and the JSON) until
     the daemon registers its endpoints and tiers, so batch-run
     snapshots match pre-daemon ones *)
  let requests = declare ~optional:true ~label:"endpoint"
      (Histogram request_bounds) "deptest_serve_request_duration_ns"
      "Whole-request daemon latency in nanoseconds, by protocol endpoint."
  let answered = declare ~optional:true ~label:"tier" Counter
      "deptest_serve_answered_total"
      "Analyze requests answered, by cache tier (response / memo / cold) or \
       none for non-analyze and failed requests."
end

let builtins = Array.of_list (List.rev !declared)

type t = {
  fams : family array;  (* the built-in families, by [id] *)
  mutable extra : family list;  (* caller-registered, newest first *)
  mutable domains : int array;  (* domain id -> engine series + 1; 0 = none *)
}

let create () =
  { fams = Array.map instantiate builtins; extra = []; domains = [||] }

let fam t d = t.fams.(d.id)
let inc t d i v = bump (fam t d) i v
let read t d i = (fam t d).cells.(i)

(* ------------------------------------------------------------------ *)
(* unlabelled families registered by a caller (the daemon's own
   counters and gauges), exported after the built-in ones *)

type cell = family

let register t kind rule name ~help =
  let d =
    { id = -1; name; help; kind; rule; label = None; fixed = [];
      optional = false }
  in
  let f = instantiate d in
  t.extra <- f :: t.extra;
  f

let counter t name ~help = register t Counter Sum name ~help
let gauge t name ~help = register t Gauge Max name ~help
let add c v = bump c 0 v
let set c v = c.cells.(0) <- v
let get c = c.cells.(0)

(* ------------------------------------------------------------------ *)
(* recorders and accessors *)

let record t k ~indep ~ns =
  let i = Test_kind.id k in
  inc t F.applied i 1;
  if indep then inc t F.indep i 1;
  inc t F.kind_ns i (Int64.to_int ns)

let add_phase_ns t p ns = inc t F.phase_ns (phase_id p) (Int64.to_int ns)

let timed m p f =
  match m with
  | None -> f ()
  | Some t ->
      let t0 = Clock.now_ns () in
      Fun.protect
        ~finally:(fun () -> add_phase_ns t p (Int64.sub (Clock.now_ns ()) t0))
        f

let observe_pair t ~ns =
  inc t F.pairs 0 1;
  observe (fam t F.pair_latency) 0 (Int64.to_int ns)

let cache_hit t = inc t F.cache_hits 0 1
let cache_miss t = inc t F.cache_misses 0 1
let cache_hits t = read t F.cache_hits 0
let cache_misses t = read t F.cache_misses 0

let set_cache_usage t ~size ~evictions =
  set (fam t F.cache_entries) size;
  set (fam t F.cache_evictions) evictions

let cache_size t = read t F.cache_entries 0
let cache_evictions t = read t F.cache_evictions 0

let set_disk_cache t ~hits ~misses ~invalid =
  set (fam t F.disk_hits) hits;
  set (fam t F.disk_misses) misses;
  set (fam t F.disk_invalid) invalid

let disk_hits t = read t F.disk_hits 0
let disk_misses t = read t F.disk_misses 0
let disk_invalid t = read t F.disk_invalid 0
let banerjee_compile t = inc t F.bj_compile 0 1

let banerjee_node t ~incremental =
  inc t F.bj_nodes (if incremental then 0 else 1) 1

let banerjee_cap t = inc t F.bj_caps 0 1
let banerjee_compilations t = read t F.bj_compile 0
let banerjee_incremental_nodes t = read t F.bj_nodes 0
let banerjee_scratch_nodes t = read t F.bj_nodes 1
let banerjee_caps t = read t F.bj_caps 0
let reason_id = function `Overflow -> 0 | `Exception -> 1 | `Budget -> 2
let degraded t reason = inc t F.degraded (reason_id reason) 1
let degraded_by t reason = read t F.degraded (reason_id reason)

let degraded_pairs t =
  degraded_by t `Overflow + degraded_by t `Exception + degraded_by t `Budget

(* the four per-domain families always gain a domain together, so one
   series index addresses all four *)
let domain_series t d =
  if d < Array.length t.domains && t.domains.(d) > 0 then t.domains.(d) - 1
  else begin
    let key = string_of_int d in
    let s = series (fam t F.eng_tasks) key in
    List.iter
      (fun f -> ignore (series (fam t f) key))
      [ F.eng_steals; F.eng_busy; F.eng_wait ];
    if d >= Array.length t.domains then
      t.domains <-
        Array.append t.domains (Array.make (d + 1 - Array.length t.domains) 0);
    t.domains.(d) <- s + 1;
    s
  end

let engine_task t ~domain ~ns =
  let s = domain_series t domain in
  inc t F.eng_tasks s 1;
  inc t F.eng_busy s (Int64.to_int ns)

let engine_wait t ~domain ~ns =
  inc t F.eng_wait (domain_series t domain) (Int64.to_int ns)

let engine_steal t ~domain = inc t F.eng_steals (domain_series t domain) 1
let engine_registry t = inc t F.registries 0 1
let engine_registries t = read t F.registries 0
let engine_shards t ~n = inc t F.shards 0 n
let shards t = read t F.shards 0

let engine_rows t =
  List.map
    (fun (k, s) ->
      ( int_of_string k,
        read t F.eng_tasks s,
        read t F.eng_steals s,
        Int64.of_int (read t F.eng_busy s),
        Int64.of_int (read t F.eng_wait s) ))
    (rows (fam t F.eng_tasks))

let serve_endpoint t ~endpoint = ignore (series (fam t F.requests) endpoint)

let serve_request t ~endpoint ~ns =
  let f = fam t F.requests in
  observe f (series f endpoint) (Int64.to_int ns)

let serve_tier t ~tier = ignore (series (fam t F.answered) tier)

let serve_answered t ~tier =
  let f = fam t F.answered in
  bump f (series f tier) 1

let applied t k = read t F.applied (Test_kind.id k)
let proved_indep t k = read t F.indep (Test_kind.id k)
let kind_ns t k = Int64.of_int (read t F.kind_ns (Test_kind.id k))
let phase_ns t p = Int64.of_int (read t F.phase_ns (phase_id p))
let pairs t = read t F.pairs 0
let n_pair_buckets = Array.length pair_bounds + 1
let pair_ns_total t = Int64.of_int (read t F.pair_latency n_pair_buckets)
let latency_hist t = Array.sub (fam t F.pair_latency).cells 0 n_pair_buckets

(* ------------------------------------------------------------------ *)
(* merge, derived from the declarations *)

let merge_family acc (ef : family) =
  let w = width ef.decl in
  let combine = match ef.decl.rule with Sum -> ( + ) | Max -> max in
  for s = 0 to ef.n - 1 do
    let key = ef.keys.(s) in
    let d =
      if s < acc.n && String.equal acc.keys.(s) key then s else series acc key
    in
    for c = 0 to w - 1 do
      acc.cells.((d * w) + c) <-
        combine acc.cells.((d * w) + c) ef.cells.((s * w) + c)
    done
  done

(* built-in families pair up by id, caller-registered ones by name *)
let merge_into acc extra =
  Array.iteri (fun i f -> merge_family acc.fams.(i) f) extra.fams;
  List.iter
    (fun ef ->
      let name = ef.decl.name in
      match List.find_opt (fun f -> f.decl.name = name) acc.extra with
      | Some af -> merge_family af ef
      | None ->
          let af = { ef with keys = [||]; cells = [||]; n = 0 } in
          acc.extra <- af :: acc.extra;
          merge_family af ef)
    (List.rev extra.extra)

let merge a b =
  let t = create () in
  merge_into t a;
  merge_into t b;
  t

(* ------------------------------------------------------------------ *)
(* export *)

let bucket_label bounds i =
  let unit b =
    if b < 1_000_000 then Printf.sprintf "%dus" (b / 1_000)
    else if b < 1_000_000_000 then Printf.sprintf "%dms" (b / 1_000_000)
    else Printf.sprintf "%ds" (b / 1_000_000_000)
  in
  if i < Array.length bounds then "<=" ^ unit bounds.(i)
  else ">" ^ unit bounds.(Array.length bounds - 1)

let hist_json f s =
  let bounds = match f.decl.kind with Histogram b -> b | _ -> [||] in
  let base = s * width f.decl in
  Json.List
    (List.init
       (Array.length bounds + 1)
       (fun i ->
         Json.Obj
           [
             ( "le_ns",
               if i < Array.length bounds then Json.Int bounds.(i) else Json.Null
             );
             ("label", Json.String (bucket_label bounds i));
             ("count", Json.Int f.cells.(base + i));
           ]))

(* (endpoint, requests, total_ns, series) sorted by endpoint *)
let request_rows t =
  let nb = Array.length request_bounds + 1 and w = width F.requests in
  List.map
    (fun (ep, s) ->
      let total = read t F.requests ((s * w) + nb) in
      (ep, read t F.requests ((s * w) + nb + 1), total, s))
    (rows (fam t F.requests))

let tier_rows t =
  List.map
    (fun (tier, s) -> (tier, read t F.answered s))
    (rows (fam t F.answered))

(* the serve block appears only once the daemon reported, so batch-run
   snapshots (analyze --metrics-out, records, the drift ledger) are
   byte-identical to pre-serve ones *)
let serve_json t =
  if (fam t F.requests).n = 0 && (fam t F.answered).n = 0 then []
  else
    [
      ( "serve",
        Json.Obj
          [
            ( "endpoints",
              Json.List
                (List.map
                   (fun (ep, count, sum, s) ->
                     Json.Obj
                       [
                         ("endpoint", Json.String ep);
                         ("requests", Json.Int count);
                         ("total_ns", Json.Int sum);
                         ("latency_hist", hist_json (fam t F.requests) s);
                       ])
                   (request_rows t)) );
            ( "answered",
              Json.Obj
                (List.map (fun (tier, n) -> (tier, Json.Int n)) (tier_rows t))
            );
          ] );
    ]

let to_json t =
  let tests =
    List.map
      (fun k ->
        Json.Obj
          [
            ("kind", Json.String (Test_kind.slug k));
            ("name", Json.String (Test_kind.name k));
            ("applied", Json.Int (applied t k));
            ("independent", Json.Int (proved_indep t k));
            ("total_ns", Json.Int (Int64.to_int (kind_ns t k)));
          ])
      Test_kind.all
  in
  let phases_json =
    List.map
      (fun p -> (phase_name p ^ "_ns", Json.Int (Int64.to_int (phase_ns t p))))
      phases
  in
  Json.Obj
    ([
      (* /2: the cache block gained size and evictions *)
      ("schema", Json.String "deptest-metrics/2");
      ("tests", Json.List tests);
      ("phases", Json.Obj phases_json);
      ( "pairs",
        Json.Obj
          [
            ("tested", Json.Int (pairs t));
            ("total_ns", Json.Int (Int64.to_int (pair_ns_total t)));
            ("latency_hist", hist_json (fam t F.pair_latency) 0);
          ] );
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int (cache_hits t));
            ("misses", Json.Int (cache_misses t));
            ( "hit_rate",
              let n = cache_hits t + cache_misses t in
              Json.Float
                (if n = 0 then 0.
                 else float_of_int (cache_hits t) /. float_of_int n) );
            ("size", Json.Int (cache_size t));
            ("evictions", Json.Int (cache_evictions t));
            ("disk_hits", Json.Int (disk_hits t));
            ("disk_misses", Json.Int (disk_misses t));
            ("disk_invalid", Json.Int (disk_invalid t));
          ] );
      ( "banerjee",
        Json.Obj
          [
            ("kernel_compilations", Json.Int (banerjee_compilations t));
            ("incremental_nodes", Json.Int (banerjee_incremental_nodes t));
            ("scratch_nodes", Json.Int (banerjee_scratch_nodes t));
            ("combo_cap_fallbacks", Json.Int (banerjee_caps t));
          ] );
      ( "guard",
        Json.Obj
          [
            ("degraded", Json.Int (degraded_pairs t));
            ( "by_reason",
              Json.Obj
                [
                  ("overflow", Json.Int (degraded_by t `Overflow));
                  ("exception", Json.Int (degraded_by t `Exception));
                  ("budget", Json.Int (degraded_by t `Budget));
                ] );
          ] );
      ( "engine",
        let rows = engine_rows t in
        let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
        Json.Obj
          [
            ("registries", Json.Int (engine_registries t));
            ("shards", Json.Int (shards t));
            ( "domains",
              Json.List
                (List.map
                   (fun (d, tasks, steals, busy, wait) ->
                     Json.Obj
                       [
                         ("domain", Json.Int d);
                         ("tasks", Json.Int tasks);
                         ("steals", Json.Int steals);
                         ("busy_ns", Json.Int (Int64.to_int busy));
                         ("queue_wait_ns", Json.Int (Int64.to_int wait));
                       ])
                   rows) );
            ("tasks", Json.Int (sum (fun (_, n, _, _, _) -> n)));
            ("steals", Json.Int (sum (fun (_, _, s, _, _) -> s)));
            ("busy_ns", Json.Int (sum (fun (_, _, _, b, _) -> Int64.to_int b)));
            ( "queue_wait_ns",
              Json.Int (sum (fun (_, _, _, _, w) -> Int64.to_int w)) );
          ] );
    ]
    @ serve_json t)

let us ns = Int64.to_float ns /. 1_000.0

let pp ppf t =
  Format.fprintf ppf "%-18s %9s %9s %12s %10s@." "test" "applied" "indep"
    "total(us)" "avg(ns)";
  List.iter
    (fun k ->
      let a = applied t k in
      if a > 0 then
        Format.fprintf ppf "%-18s %9d %9d %12.1f %10.0f@." (Test_kind.name k)
          a (proved_indep t k)
          (us (kind_ns t k))
          (Int64.to_float (kind_ns t k) /. float_of_int a))
    Test_kind.all;
  Format.fprintf ppf "@.%-18s %12s@." "phase" "wall(us)";
  List.iter
    (fun p -> Format.fprintf ppf "%-18s %12.1f@." (phase_name p) (us (phase_ns t p)))
    phases;
  Format.fprintf ppf "@.pairs tested %d, total %.1f us@." (pairs t)
    (us (pair_ns_total t));
  (let hits = cache_hits t and size = cache_size t in
   let n = hits + cache_misses t in
   if n > 0 then
     Format.fprintf ppf
       "memo cache: %d hits / %d lookups (%.1f%%), %d entr%s resident, %d \
        evicted@."
       hits n
       (100. *. float_of_int hits /. float_of_int n)
       size
       (if size = 1 then "y" else "ies")
       (cache_evictions t));
  if disk_hits t + disk_misses t + disk_invalid t > 0 then
    Format.fprintf ppf
      "disk cache: %d hits / %d lookups, %d invalid object(s)@." (disk_hits t)
      (disk_hits t + disk_misses t)
      (disk_invalid t);
  (let c = banerjee_compilations t and i = banerjee_incremental_nodes t in
   let s = banerjee_scratch_nodes t and caps = banerjee_caps t in
   if c + i + s + caps > 0 then
     Format.fprintf ppf
       "banerjee kernel: %d compiled, %d incremental / %d scratch nodes, %d \
        cap fallback(s)@."
       c i s caps);
  if degraded_pairs t > 0 then
    Format.fprintf ppf
      "guard: %d pair(s) degraded conservatively (%d overflow, %d \
       exception, %d budget)@."
      (degraded_pairs t) (degraded_by t `Overflow) (degraded_by t `Exception)
      (degraded_by t `Budget);
  (let rows = engine_rows t and regs = engine_registries t in
   if rows <> [] then begin
     Format.fprintf ppf "engine: %d worker registr%s merged%t@." regs
       (if regs = 1 then "y" else "ies")
       (fun ppf ->
         if shards t > 0 then
           Format.fprintf ppf ", %d routine shard(s)" (shards t));
     List.iter
       (fun (d, tasks, steals, busy, wait) ->
         Format.fprintf ppf
           "  domain %d: %d task(s), %d steal(s), busy %.1f us, queue wait \
            %.1f us@."
           d tasks steals (us busy) (us wait))
       rows
   end);
  (let rows = request_rows t in
   if rows <> [] then begin
     List.iter
       (fun (ep, count, sum, _) ->
         Format.fprintf ppf
           "serve %-10s %d request(s), total %.1f us, avg %.0f ns@." ep count
           (us (Int64.of_int sum))
           (if count = 0 then 0. else float_of_int sum /. float_of_int count))
       rows;
     match tier_rows t with
     | [] -> ()
     | tiers ->
         Format.fprintf ppf "serve answered:";
         List.iter (fun (tier, n) -> Format.fprintf ppf " %s:%d" tier n) tiers;
         Format.fprintf ppf "@."
   end);
  Format.fprintf ppf "pair latency:";
  Array.iteri
    (fun i c ->
      if c > 0 then Format.fprintf ppf " %s:%d" (bucket_label pair_bounds i) c)
    (latency_hist t);
  Format.fprintf ppf "@."

(* ------------------------------------------------------------------ *)
(* Prometheus text-format exposition, derived from the declarations:
   families in registration order, fixed series in declaration order
   (every per-kind series even at zero, so scrapes never lose one). *)

let prom_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let type_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram _ -> "histogram"

let to_prometheus ?(build = []) t =
  let buf = Buffer.create 4096 in
  let header name typ help =
    Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" name help name typ
  in
  let sample name labels v =
    Buffer.add_string buf name;
    if labels <> [] then begin
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "%s=\"%s\"" k (prom_escape v))
        labels;
      Buffer.add_char buf '}'
    end;
    Printf.bprintf buf " %d\n" v
  in
  (* identity first: scrapes correlate drift with deploys by joining on
     these labels (label values must stay space-free for text-format
     consumers that split on whitespace) *)
  header "deptest_build_info" "gauge"
    "Build and schema identity of this process (value is always 1).";
  sample "deptest_build_info"
    ([
       ("git", Build_id.git);
       ("metrics_schema", "deptest-metrics/2");
       ("trace_schema", "deptest-trace/2");
     ]
    @ build)
    1;
  List.iter
    (fun f ->
      let d = f.decl in
      if not (d.optional && f.n = 0) then begin
        header d.name (type_name d.kind) d.help;
        List.iter
          (fun (key, s) ->
            let labels =
              match d.label with None -> [] | Some l -> [ (l, key) ]
            in
            match d.kind with
            | Counter | Gauge -> sample d.name labels f.cells.(s)
            | Histogram bounds ->
                let base = s * width d and nb = Array.length bounds + 1 in
                let cum = ref 0 in
                for i = 0 to nb - 1 do
                  cum := !cum + f.cells.(base + i);
                  let le =
                    if i < Array.length bounds then string_of_int bounds.(i)
                    else "+Inf"
                  in
                  sample (d.name ^ "_bucket") (labels @ [ ("le", le) ]) !cum
                done;
                sample (d.name ^ "_sum") labels f.cells.(base + nb);
                sample (d.name ^ "_count") labels f.cells.(base + nb + 1))
          (rows f)
      end)
    (Array.to_list t.fams @ List.rev t.extra);
  Buffer.contents buf
