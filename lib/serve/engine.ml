module Json = Dt_obs.Json
module Store = Dt_engine.Store
module Record = Dt_report.Record
module Reqtrace = Dt_obs.Reqtrace
module Metrics = Dt_obs.Metrics

(* the daemon's own families, registered on its metrics registry after
   the built-in ones, in exposition order *)
type cells = {
  requests : Metrics.cell;
  analyses : Metrics.cell;  (* analyze requests answered by running tests *)
  response_hits : Metrics.cell;  (* routines answered from the response tier *)
  response_misses : Metrics.cell;  (* routines it missed: parsed and analyzed *)
  errors : Metrics.cell;
  protocol_errors : Metrics.cell;  (* bad frames / JSON / unsupported version *)
  connections : Metrics.cell;  (* connections ever accepted *)
  in_flight : Metrics.cell;  (* requests currently being handled *)
  uptime : Metrics.cell;  (* set when the metrics are read *)
  traced : Metrics.cell;  (* set when the metrics are read *)
  shed : Metrics.cell;  (* analyze requests answered `overloaded` *)
  deadline_exceeded : Metrics.cell;  (* shed: the request budget was spent *)
  restarts_total : Metrics.cell;  (* set when the metrics are read *)
  injected_faults : Metrics.cell;  (* chaos faults the server performed *)
  queue_depth : Metrics.cell;  (* requests waiting, set by the server *)
}

let register_cells m =
  let c name help = Metrics.counter m ("deptest_serve_" ^ name) ~help
  and g name help = Metrics.gauge m ("deptest_serve_" ^ name) ~help in
  let requests = c "requests_total" "Requests handled by the daemon." in
  let analyses =
    c "analyses_total" "Analyze requests that ran the test cascade." in
  let response_hits = c "response_hits_total"
      "Routines answered from the response cache." in
  let response_misses = c "response_misses_total"
      "Routines the response cache missed, analyzed and rendered." in
  let errors = c "errors_total" "Requests answered with an error." in
  let protocol_errors = c "protocol_errors_total"
      "Connections dropped on a framing, JSON, or version error." in
  let connections = c "connections_total" "Client connections ever accepted." in
  let in_flight = g "in_flight" "Requests currently being handled." in
  let uptime = g "uptime_ns" "Nanoseconds since the daemon started." in
  let traced = c "traced_requests_total"
      "Requests recorded in the slow-request ring ledger." in
  let shed = c "shed_total"
      "Analyze requests shed with a structured overloaded response." in
  let deadline_exceeded = c "deadline_exceeded_total"
      "Analyze requests shed because their own deadline budget was spent \
       queueing." in
  let restarts_total = c "restarts_total"
      "Supervised daemon restarts before this incarnation." in
  let injected_faults = c "injected_faults_total"
      "Chaos-harness faults the server performed (accept drops, mid-frame \
       closes, response delays)." in
  let queue_depth =
    g "queue_depth" "Requests waiting in the server's select queue." in
  { requests; analyses; response_hits; response_misses; errors;
    protocol_errors; connections; in_flight; uptime; traced; shed;
    deadline_exceeded; restarts_total; injected_faults; queue_depth }

type t = {
  jobs : int;  (* the worker ceiling, as [health] reports it *)
  config : Deptest.Analyze.Config.t;  (* shared: one memo cache for all *)
  store : Store.t option;
  metrics : Metrics.t;
  c : cells;
  sampler : Reqtrace.Sampler.t;
  ring : Reqtrace.Ring.t;
  started_ns : int64;  (* monotonic, for uptime *)
  max_inflight : int;  (* admission budget; 0 = unbounded *)
  queue_deadline_ms : int;  (* max queue wait before shedding; 0 = none *)
  restarts : int;  (* supervised restarts before this incarnation *)
  mutable ewma_analyze_ns : int64;  (* smoothed analyze wall, for retry_after *)
}

let bump c = Metrics.add c 1

(* What the server's select loop knows about a request when it hands it
   over: how many other requests are waiting behind it, and how long it
   sat in the queue before service started. *)
type admission = { depth : int; waited_ns : int64 }

let no_admission = { depth = 0; waited_ns = 0L }

(* The response tier's key for the piece [start, stop) of a source (see
   Dt_frontend.Split): the MD5 of the piece's text, under "r1:" when the
   piece is the whole unit and "rn:" when it is one routine of several —
   whether the unit has more than one routine decides the
   "===== name =====" header, and nothing else outside a routine's own
   text changes its answer. *)
let response_key ~many source start stop =
  (if many then "rn:" else "r1:")
  ^ Digest.to_hex (Digest.substring source start (stop - start))

(* The store fingerprint covers the serve configuration's semantics
   (strategy, input pairs, cache, budget, deadline — not jobs), the cache
   schema version and the build, so a config, schema or code change
   invalidates every persisted segment instead of replaying stale
   verdicts or another build's rendered text. *)
let store_fingerprint ~build =
  Record.fingerprint ~label:"serve"
    ~config:(Record.config_of Deptest.Analyze.Config.default)
    ~source:(Record.source_of (Store.schema_version ^ "\x00" ^ build))

let create ?(jobs = 0) ?cache_dir ?cache_capacity ?(sample_period = 1)
    ?(slow_threshold_ns = 0L) ?(ledger_recent = 64) ?(ledger_top = 16)
    ?(max_inflight = 0) ?(queue_deadline_ms = 0) ?(restarts = 0) () =
  (* auto (0) stays auto in the analysis configuration, so work too
     small to pay for a worker domain (an edited routine, a unit of a
     few small routines) runs on the calling domain, exactly as one-shot
     [analyze] runs it; an explicit count is capped at the core count *)
  let jobs =
    if jobs <= 0 then 0 else min jobs (Dt_support.Pool.recommended_jobs ())
  in
  let metrics = Metrics.create () in
  (* pre-register every endpoint and tier series so a scrape's series
     set never depends on what traffic arrived first *)
  List.iter (fun endpoint -> Metrics.serve_endpoint metrics ~endpoint)
    Protocol.endpoints;
  List.iter
    (fun tier -> Metrics.serve_tier metrics ~tier:(Reqtrace.tier_name tier))
    Reqtrace.tiers;
  let fingerprint = store_fingerprint ~build:Dt_obs.Build_id.git in
  let store =
    Option.map
      (fun dir -> Store.open_ ~dir ~fingerprint ?capacity:cache_capacity ())
      cache_dir
  in
  let config =
    Deptest.Analyze.Config.make ~jobs ?cache_capacity ~metrics ()
  in
  {
    jobs = Dt_support.Pool.workers jobs;
    config;
    store;
    metrics;
    c = register_cells metrics;
    sampler = Reqtrace.Sampler.create ~period:sample_period
        ~threshold_ns:slow_threshold_ns ();
    ring = Reqtrace.Ring.create ~recent:ledger_recent ~top:ledger_top ();
    started_ns = Dt_obs.Clock.now_ns ();
    max_inflight = max 0 max_inflight;
    queue_deadline_ms = max 0 queue_deadline_ms;
    restarts = max 0 restarts;
    ewma_analyze_ns = 0L;
  }

let jobs t = t.jobs
let store t = t.store
let restarts t = t.restarts
let shed_total t = Metrics.get t.c.shed
let deadline_exceeded_total t = Metrics.get t.c.deadline_exceeded
let note_connection t = bump t.c.connections
let note_injected_fault t = bump t.c.injected_faults
let set_queue_depth t depth = Metrics.set t.c.queue_depth (max 0 depth)

let note_protocol_error t =
  bump t.c.protocol_errors;
  bump t.c.errors

let parse source =
  match
    if Dt_frontend.Cfront.looks_like_c source then
      [ Dt_frontend.Cfront.parse_and_lower source ]
    else Dt_frontend.Lower.parse_unit source
  with
  | [] -> Error "empty compilation unit"
  | progs -> Ok progs
  | exception Dt_frontend.Cfront.Error (msg, line) ->
      Error (Printf.sprintf "line %d: syntax error: %s" line msg)
  | exception Dt_frontend.Lexer.Error (msg, line) ->
      Error (Printf.sprintf "line %d: lexical error: %s" line msg)
  | exception Dt_frontend.Parser.Error (msg, line) ->
      Error (Printf.sprintf "line %d: syntax error: %s" line msg)
  | exception Dt_frontend.Lower.Error (msg, line) ->
      Error (Printf.sprintf "line %d: %s" line msg)

(* A request's pieces (Dt_frontend.Split) and what the response tier
   holds for each: [found.(i)] is piece [i]'s rendered text, JSON-escaped
   (the bytes an answer carries between the quotes of its "output"),
   filled in by [complete] for the pieces it computes. *)
type pieces = {
  cuts : int array;
  keys : string array;
  found : string option array;
}

let find_response t key =
  match t.store with
  | None -> None
  | Some store ->
      let hit = Store.find store key in
      bump
        (if Option.is_some hit then t.c.response_hits
         else t.c.response_misses);
      hit

(* The warm path: split, key and look up each piece. A stored text is
   the rendered routine's wire bytes, and only undegraded routines are
   stored, so a hit decodes and escapes nothing; on-disk damage is the
   segment checksum's to catch. *)
let lookup t source =
  let cuts = Dt_frontend.Split.routines source in
  let many = Array.length cuts > 2 in
  let keys =
    Array.init (Array.length cuts - 1) (fun i ->
        response_key ~many source cuts.(i) cuts.(i + 1))
  in
  { cuts; keys; found = Array.map (find_response t) keys }

let missing p =
  List.filter
    (fun i -> Option.is_none p.found.(i))
    (List.init (Array.length p.keys) Fun.id)

let rec parse_pieces source cuts = function
  | [] -> Ok []
  | i :: rest -> (
      match parse (String.sub source cuts.(i) (cuts.(i + 1) - cuts.(i))) with
      | Error _ as e -> e
      | Ok progs ->
          Result.map
            (fun tl -> (i, progs) :: tl)
            (parse_pieces source cuts rest))

(* the first [n] elements of [l], and the rest *)
let rec split_at n l =
  match l with
  | x :: tl when n > 0 ->
      let a, b = split_at (n - 1) tl in
      (x :: a, b)
  | _ -> ([], l)

(* Parse, analyze (one run_all over every missed routine) and render
   the pieces the response tier missed, persisting each undegraded one:
   a degraded routine reflects this run's faults or budget, not the
   program. [config] differs from [t.config] at most by a span profiler
   and a deadline (same memo cache, same store), so caching behaves the
   same with tracing on or off. *)
let compute t config source p =
  match parse_pieces source p.cuts (missing p) with
  | Error _ as e -> e
  | Ok parsed ->
      let results =
        Deptest.Analyze.run_all config (List.concat_map snd parsed)
      in
      let many = Array.length p.keys > 1 in
      let _, degraded =
        List.fold_left
          (fun (results, degraded) (i, progs) ->
            let mine, rest = split_at (List.length progs) results in
            let text, d =
              Render.routines ~many:(many || List.length progs > 1) progs mine
            in
            (* escaped once, here: the store and the wire hold this form *)
            let text = Json.escape text in
            (match t.store with
            | Some store when d = 0 -> Store.add store p.keys.(i) text
            | _ -> ());
            p.found.(i) <- Some text;
            (rest, degraded + d))
          (results, 0) parsed
      in
      Ok (Array.map Option.get p.found, degraded)

(* [Ok (parts, degraded)], the answer's escaped text being the
   concatenation of [parts], or [Error message]. A piece that does not
   parse sends the whole unit through again as one piece, so the error
   is the one-shot parse's, line numbers and all, and no piece of an
   erroring request is answered. *)
let complete t config source p =
  match compute t config source p with
  | Error _ when Array.length p.keys > 1 ->
      let n = String.length source in
      compute t config source
        {
          cuts = [| 0; n |];
          keys = [| response_key ~many:false source 0 n |];
          found = [| None |];
        }
  | r -> r

let analyze_parts t source = complete t t.config source (lookup t source)

let analyze_source t source =
  Result.map
    (fun (parts, degraded) -> (Protocol.text_of_parts parts, degraded))
    (analyze_parts t source)

let warm t ?suite () =
  let entries =
    match suite with
    | None -> Dt_workloads.Corpus.all
    | Some s -> Dt_workloads.Corpus.by_suite s
  in
  List.fold_left
    (fun n (e : Dt_workloads.Corpus.entry) ->
      match analyze_parts t e.Dt_workloads.Corpus.source with
      | Ok _ -> n + 1
      | Error _ -> n)
    0 entries

let flush t = match t.store with None -> 0 | Some s -> Store.flush s

let sync_disk_metrics t =
  match t.store with
  | None -> ()
  | Some s ->
      Metrics.set_disk_cache t.metrics ~hits:(Store.hits s)
        ~misses:(Store.misses s) ~invalid:(Store.invalid s)

let uptime_ns t = Int64.to_int (Int64.sub (Dt_obs.Clock.now_ns ()) t.started_ns)

let saturation_json t =
  let get = Metrics.get in
  Json.Obj
    [
      ("in_flight", Json.Int (get t.c.in_flight));
      ("queue_depth", Json.Int (get t.c.queue_depth));
      ("max_inflight", Json.Int t.max_inflight);
      ("queue_deadline_ms", Json.Int t.queue_deadline_ms);
      ("shed", Json.Int (get t.c.shed));
      ("deadline_exceeded", Json.Int (get t.c.deadline_exceeded));
      ("injected_faults", Json.Int (get t.c.injected_faults));
      ("restarts", Json.Int t.restarts);
    ]

let serve_json t =
  let get = Metrics.get in
  Json.Obj
    [
      ("requests", Json.Int (get t.c.requests));
      ("analyses", Json.Int (get t.c.analyses));
      ("response_hits", Json.Int (get t.c.response_hits));
      ("response_misses", Json.Int (get t.c.response_misses));
      ("errors", Json.Int (get t.c.errors));
      ("protocol_errors", Json.Int (get t.c.protocol_errors));
      ("connections", Json.Int (get t.c.connections));
      ("in_flight", Json.Int (get t.c.in_flight));
      ("traced", Json.Int (Reqtrace.Ring.total t.ring));
      ("saturation", saturation_json t);
    ]

(* ------------------------------------------------------------------ *)
(* the analyze path, wrapped in request-scoped tracing. The profiler is
   attached only when the sampler arms, and worker 0 runs on the calling
   domain, so the whole analysis nests under the Request span on the
   domain-0 buffer. *)

(* the smoothed analyze wall time feeds the retry_after_ms estimate: a
   shed client should come back roughly when the queue ahead of it has
   drained *)
let note_analyze_wall t wall_ns =
  t.ewma_analyze_ns <-
    (if t.ewma_analyze_ns = 0L then wall_ns
     else
       Int64.div
         (Int64.add (Int64.mul 3L t.ewma_analyze_ns) wall_ns)
         4L)

let retry_after_ms t ~depth =
  let per_request_ms =
    max 1L (Int64.div t.ewma_analyze_ns 1_000_000L)
  in
  let ms = Int64.mul (Int64.of_int (max 1 depth)) per_request_ms in
  Int64.to_int (min 5_000L ms)

let handle_analyze t ~source ~id ~trace_id ~deadline_ms =
  let trace_id =
    match trace_id with
    | Some i when Reqtrace.is_id i -> i
    | _ -> Reqtrace.gen_id ()
  in
  let armed = Reqtrace.Sampler.arm t.sampler in
  let ts_ms = int_of_float (Unix.gettimeofday () *. 1000.) in
  let t0 = Dt_obs.Clock.now_ns () in
  let pieces = lookup t source in
  let result, tier, wall_ns, spans =
    match missing pieces with
    | [] ->
        (* the warm path: every routine hit. No profiler, no buffers —
           an armed capture is one synthesized Request span, so
           always-on sampling costs nothing where latency matters most *)
        let wall_ns = Int64.sub (Dt_obs.Clock.now_ns ()) t0 in
        let spans =
          if armed && Reqtrace.Sampler.retain t.sampler ~wall_ns then
            [|
              {
                Dt_obs.Span.kind = Dt_obs.Span.Request;
                domain = 0;
                parent = -1;
                t0_ns = t0;
                t1_ns = Int64.add t0 wall_ns;
                minor_words = 0.;
                major_words = 0.;
              };
            |]
          else [||]
        in
        (Ok (Array.map Option.get pieces.found, 0), Reqtrace.Response,
         wall_ns, spans)
    | _ :: _ ->
        let had_memo = Metrics.cache_hits t.metrics in
        let profiler =
          if armed then Some (Dt_obs.Span.profiler ()) else None
        in
        let config =
          match profiler with
          | None -> t.config
          | Some _ -> Deptest.Analyze.Config.with_profiler profiler t.config
        in
        (* the remaining request budget becomes this run's analysis
           deadline: pairs that cannot finish inside it degrade
           conservatively (never cached) instead of blowing the
           client's latency budget *)
        let config =
          match deadline_ms with
          | None -> config
          | Some ms ->
              Deptest.Analyze.Config.with_deadline_ms (Some ms) config
        in
        let opened =
          Option.map
            (fun p ->
              let b = Dt_obs.Span.buffer p ~domain:0 in
              (b, Dt_obs.Span.enter b Dt_obs.Span.Request))
            profiler
        in
        let result = complete t config source pieces in
        let wall_ns = Int64.sub (Dt_obs.Clock.now_ns ()) t0 in
        note_analyze_wall t wall_ns;
        Option.iter (fun (b, slot) -> Dt_obs.Span.exit_ b slot) opened;
        (* whether the memo contributed to the routines computed,
           detected by the hit counter's delta around [complete]
           (requests are handled one at a time, so the delta is this
           request's) *)
        let tier =
          match result with
          | Error _ -> Reqtrace.None_
          | Ok _ when Metrics.cache_hits t.metrics > had_memo -> Reqtrace.Memo
          | Ok _ -> Reqtrace.Cold
        in
        let spans =
          match profiler with
          | Some p when Reqtrace.Sampler.retain t.sampler ~wall_ns ->
              Dt_obs.Span.spans p
          | _ -> [||]
        in
        (result, tier, wall_ns, spans)
  in
  let degraded = match result with Ok (_, d) -> d | Error _ -> 0 in
  Reqtrace.Ring.add t.ring
    {
      trace_id;
      endpoint = "analyze";
      (* the ledger names the source by its MD5, hashed only if the
         entry is read: the lookup above already hashed each piece *)
      source_digest = lazy (Digest.to_hex (Digest.string source));
      tier;
      degraded;
      error = Result.is_error result;
      wall_ns;
      ts_ms;
      spans;
    };
  Metrics.serve_answered t.metrics ~tier:(Reqtrace.tier_name tier);
  match result with
  | Ok (output, degraded) ->
      if tier <> Reqtrace.Response then bump t.c.analyses;
      Protocol.Answer
        {
          output;
          fields =
            ("degraded", Json.Int degraded)
            :: ("trace_id", Json.String trace_id)
            ::
            (match id with
            | None -> []
            | Some i -> [ ("id", Json.String i) ]);
        }
  | Error msg ->
      bump t.c.errors;
      Protocol.Reply (Protocol.error msg)

let entries_response t entries =
  Protocol.ok
    [
      ("total", Json.Int (Reqtrace.Ring.total t.ring));
      ("entries", Json.List (List.map Reqtrace.entry_to_json entries));
    ]

(* Admission control, applied to analyze only — the introspection ops
   (health, metrics, shutdown...) are cheap and must keep answering
   precisely when the daemon is saturated. Sheds are structured
   responses on a healthy connection, never dropped connections, and
   never counted as errors: overload is load management, not failure. *)
let admit t admission ~deadline_ms =
  let waited_ms = Int64.to_int (Int64.div admission.waited_ns 1_000_000L) in
  let remaining_ms = Option.map (fun d -> d - waited_ms) deadline_ms in
  match remaining_ms with
  | Some r when r <= 0 ->
      bump t.c.shed;
      bump t.c.deadline_exceeded;
      Error (Protocol.deadline_exceeded ~waited_ms)
  | _ ->
      if
        (t.max_inflight > 0 && admission.depth > t.max_inflight)
        || (t.queue_deadline_ms > 0 && waited_ms > t.queue_deadline_ms)
      then begin
        bump t.c.shed;
        Error
          (Protocol.overloaded
             ~retry_after_ms:(retry_after_ms t ~depth:admission.depth))
      end
      else Ok remaining_ms

let reply json = Protocol.Reply json

let handle_op t admission req =
  match req with
  | Protocol.Analyze { source; id; trace_id; deadline_ms } -> (
      match admit t admission ~deadline_ms with
      | Error shed_response -> Protocol.Reply shed_response
      | Ok deadline_ms -> handle_analyze t ~source ~id ~trace_id ~deadline_ms)
  | Protocol.Metrics { prometheus } ->
      sync_disk_metrics t;
      reply @@
      if prometheus then begin
        Metrics.set t.c.uptime (uptime_ns t);
        Metrics.set t.c.traced (Reqtrace.Ring.total t.ring);
        Metrics.set t.c.restarts_total t.restarts;
        Protocol.ok
          [
            ( "prometheus",
              Json.String
                (Metrics.to_prometheus
                   ~build:[ ("store_schema", Store.schema_version) ]
                   t.metrics) );
          ]
      end
      else
        Protocol.ok
          [
            ("metrics", Metrics.to_json t.metrics);
            ("serve", serve_json t);
          ]
  | Protocol.Health ->
      reply @@ Protocol.ok
        [
          ("status", Json.String "ok");
          ("jobs", Json.Int t.jobs);
          ("uptime_ns", Json.Int (uptime_ns t));
          ("requests", Json.Int (Metrics.get t.c.requests));
          ("in_flight", Json.Int (Metrics.get t.c.in_flight));
          ("connections", Json.Int (Metrics.get t.c.connections));
          ("errors", Json.Int (Metrics.get t.c.errors));
          ("protocol_errors", Json.Int (Metrics.get t.c.protocol_errors));
          ("pid", Json.Int (Unix.getpid ()));
          ("saturation", saturation_json t);
          ( "trace",
            Json.Obj
              [
                ("sample_period", Json.Int (Reqtrace.Sampler.period t.sampler));
                ( "slow_threshold_ns",
                  Json.Int
                    (Int64.to_int (Reqtrace.Sampler.threshold_ns t.sampler)) );
                ("ledger_total", Json.Int (Reqtrace.Ring.total t.ring));
              ] );
          ( "cache",
            Json.Obj
              [
                ("memo_hits", Json.Int (Metrics.cache_hits t.metrics));
                ( "memo_misses",
                  Json.Int (Metrics.cache_misses t.metrics) );
                ("memo_entries", Json.Int (Metrics.cache_size t.metrics));
              ] );
          ( "disk",
            match t.store with
            | None -> Json.Bool false
            | Some s ->
                Json.Obj
                  [
                    ("dir", Json.String (Store.dir s));
                    ("resident", Json.Int (Store.length s));
                    ("resident_bytes", Json.Int (Store.resident_bytes s));
                    ("segments", Json.Int (Store.segments s));
                  ] );
        ]
  | Protocol.Slow { n } ->
      reply (entries_response t (Reqtrace.Ring.recent ?n t.ring))
  | Protocol.Top { n } ->
      reply (entries_response t (Reqtrace.Ring.top ?n t.ring))
  | Protocol.Trace_last { trace_id } -> (
      reply @@
      let entry =
        match trace_id with
        | Some id -> Reqtrace.Ring.find t.ring id
        | None -> Reqtrace.Ring.last_capture t.ring
      in
      match entry with
      | None -> Protocol.error "no captured request trace in the ledger"
      | Some e when Array.length e.spans = 0 ->
          Protocol.error
            (Printf.sprintf
               "request %s is in the ledger but its span capture was not \
                retained (sampling period or threshold)"
               e.trace_id)
      | Some e ->
          Protocol.ok
            [
              ("trace_id", Json.String e.trace_id);
              ("entry", Reqtrace.entry_to_json e);
              ( "chrome_trace",
                Dt_obs.Timeline.to_chrome ~process:("deptest req " ^ e.trace_id)
                  e.spans );
            ])
  | Protocol.Flush ->
      reply (Protocol.ok [ ("persisted", Json.Int (flush t)) ])
  | Protocol.Shutdown -> reply (Protocol.ok [])

let respond ?(admission = no_admission) t req =
  bump t.c.requests;
  bump t.c.in_flight;
  let t0 = Dt_obs.Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.add t.c.in_flight (-1);
      Metrics.serve_request t.metrics
        ~endpoint:(Protocol.endpoint_of req)
        ~ns:(Int64.sub (Dt_obs.Clock.now_ns ()) t0))
    (fun () ->
      try handle_op t admission req
      with e ->
        bump t.c.errors;
        Protocol.Reply (Protocol.error (Printexc.to_string e)))

let handle ?admission t req = Protocol.response_json (respond ?admission t req)
