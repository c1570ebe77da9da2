(* Tests for Dt_obs.Reqtrace: trace-id generation, the arm/retain
   sampler, and the fixed-capacity slow-request ring ledger. *)

module Reqtrace = Dt_obs.Reqtrace
module Span = Dt_obs.Span

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let entry ?(trace_id = Reqtrace.gen_id ()) ?(spans = [||]) ?(wall_ns = 0L) ()
    =
  {
    Reqtrace.trace_id;
    endpoint = "analyze";
    source_digest = lazy "d41d8cd98f00b204e9800998ecf8427e";
    tier = Reqtrace.Cold;
    degraded = 0;
    error = false;
    wall_ns;
    ts_ms = 1234;
    spans;
  }

let some_spans () =
  let p = Span.profiler () in
  let b0 = Span.buffer p ~domain:0 in
  let slot = Span.enter b0 Span.Request in
  Span.exit_ b0 slot;
  Span.spans p

let test_gen_id () =
  let ids = List.init 1000 (fun _ -> Reqtrace.gen_id ()) in
  List.iter
    (fun id ->
      check bool (Printf.sprintf "%S is a well-formed id" id) true
        (Reqtrace.is_id id))
    ids;
  check int "1000 draws, 1000 distinct ids" 1000
    (List.length (List.sort_uniq compare ids));
  check bool "wrong length rejected" false (Reqtrace.is_id "abc");
  check bool "uppercase rejected" false (Reqtrace.is_id "0123456789ABCDEF");
  check bool "non-hex rejected" false (Reqtrace.is_id "0123456789abcdeg")

let test_sampler_period () =
  let s = Reqtrace.Sampler.create ~period:3 () in
  let armed = List.init 9 (fun _ -> Reqtrace.Sampler.arm s) in
  check (Alcotest.list bool) "every 3rd request arms"
    [ true; false; false; true; false; false; true; false; false ]
    armed;
  (* period 0: never arm *)
  let never = Reqtrace.Sampler.create ~period:0 () in
  check bool "period 0 never arms" false
    (List.exists Fun.id (List.init 10 (fun _ -> Reqtrace.Sampler.arm never)));
  (* default period 1: always arm *)
  let always = Reqtrace.Sampler.create () in
  check bool "period 1 always arms" true
    (List.for_all Fun.id (List.init 10 (fun _ -> Reqtrace.Sampler.arm always)))

let test_sampler_threshold () =
  let s = Reqtrace.Sampler.create ~threshold_ns:1_000L () in
  check bool "below threshold dropped" false
    (Reqtrace.Sampler.retain s ~wall_ns:999L);
  check bool "at threshold retained" true
    (Reqtrace.Sampler.retain s ~wall_ns:1_000L);
  check bool "above threshold retained" true
    (Reqtrace.Sampler.retain s ~wall_ns:5_000L);
  let zero = Reqtrace.Sampler.create () in
  check bool "default threshold retains everything" true
    (Reqtrace.Sampler.retain zero ~wall_ns:0L)

let test_ring_recent () =
  let r = Reqtrace.Ring.create ~recent:3 ~top:2 () in
  let ids = [ "a"; "b"; "c"; "d"; "e" ] in
  List.iteri
    (fun i id ->
      Reqtrace.Ring.add r
        (entry ~trace_id:(String.make 16 id.[0])
           ~wall_ns:(Int64.of_int ((i + 1) * 100))
           ()))
    ids;
  check int "total counts every add" 5 (Reqtrace.Ring.total r);
  let recent_ids =
    List.map
      (fun (e : Reqtrace.entry) -> e.Reqtrace.trace_id.[0])
      (Reqtrace.Ring.recent r)
  in
  check (Alcotest.list Alcotest.char) "newest first, capacity 3"
    [ 'e'; 'd'; 'c' ] recent_ids;
  check int "recent ?n truncates" 2
    (List.length (Reqtrace.Ring.recent ~n:2 r))

let test_ring_top () =
  let r = Reqtrace.Ring.create ~recent:8 ~top:3 () in
  let walls = [ 50L; 900L; 10L; 700L; 300L; 800L ] in
  List.iteri
    (fun i w ->
      Reqtrace.Ring.add r
        (entry
           ~trace_id:(Printf.sprintf "%016x" i)
           ~wall_ns:w ()))
    walls;
  let top_walls =
    List.map
      (fun (e : Reqtrace.entry) -> e.Reqtrace.wall_ns)
      (Reqtrace.Ring.top r)
  in
  check (Alcotest.list Alcotest.int64) "slowest first, capacity 3"
    [ 900L; 800L; 700L ] top_walls;
  check int "top ?n truncates" 1 (List.length (Reqtrace.Ring.top ~n:1 r))

let test_ring_capture_and_find () =
  let r = Reqtrace.Ring.create ~recent:2 ~top:2 () in
  check bool "no capture yet" true (Reqtrace.Ring.last_capture r = None);
  let spans = some_spans () in
  check bool "fixture produced spans" true (Array.length spans > 0);
  let captured = entry ~trace_id:(String.make 16 'c') ~spans ~wall_ns:999L () in
  Reqtrace.Ring.add r captured;
  Reqtrace.Ring.add r (entry ~trace_id:(String.make 16 'x') ~wall_ns:1L ());
  (match Reqtrace.Ring.last_capture r with
  | Some e ->
      check bool "capture kept, summary-only add does not replace it" true
        (e.Reqtrace.trace_id = captured.Reqtrace.trace_id)
  | None -> Alcotest.fail "capture lost");
  (* find prefers the span-carrying copy even after the recent ring
     evicted it *)
  Reqtrace.Ring.add r (entry ~trace_id:(String.make 16 'y') ~wall_ns:2L ());
  Reqtrace.Ring.add r (entry ~trace_id:(String.make 16 'z') ~wall_ns:3L ());
  (match Reqtrace.Ring.find r captured.Reqtrace.trace_id with
  | Some e ->
      check bool "found via the retained capture" true
        (Array.length e.Reqtrace.spans > 0)
  | None -> Alcotest.fail "captured entry not findable");
  check bool "unknown id is None" true
    (Reqtrace.Ring.find r (String.make 16 '0') = None)

let test_entry_json () =
  let spans = some_spans () in
  let e = entry ~trace_id:(String.make 16 'a') ~spans ~wall_ns:42L () in
  let json = Reqtrace.entry_to_json e in
  let get k = Dt_obs.Json.member k json in
  check bool "trace_id" true
    (get "trace_id" = Some (Dt_obs.Json.String (String.make 16 'a')));
  check bool "endpoint" true
    (get "endpoint" = Some (Dt_obs.Json.String "analyze"));
  check bool "tier slug" true (get "tier" = Some (Dt_obs.Json.String "cold"));
  check bool "wall_ns" true (get "wall_ns" = Some (Dt_obs.Json.Int 42));
  check bool "captured flag reflects spans" true
    (get "captured" = Some (Dt_obs.Json.Bool true));
  check bool "summary never embeds the spans" true (get "spans" = None);
  let bare = entry ~wall_ns:1L () in
  check bool "uncaptured entry says so" true
    (Dt_obs.Json.member "captured" (Reqtrace.entry_to_json bare)
    = Some (Dt_obs.Json.Bool false))

let test_tier_names () =
  let names = List.map Reqtrace.tier_name Reqtrace.tiers in
  check (Alcotest.list Alcotest.string) "stable tier slugs"
    [ "response"; "memo"; "cold"; "none" ]
    names;
  check int "slugs are distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let suite =
  [
    ("trace id generation", `Quick, test_gen_id);
    ("sampler period", `Quick, test_sampler_period);
    ("sampler threshold", `Quick, test_sampler_threshold);
    ("ring recent order and capacity", `Quick, test_ring_recent);
    ("ring top board", `Quick, test_ring_top);
    ("ring capture and find", `Quick, test_ring_capture_and_find);
    ("entry summary JSON", `Quick, test_entry_json);
    ("tier slugs", `Quick, test_tier_names);
  ]
