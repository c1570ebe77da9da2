(* The observability layer (Dt_obs): test-kind ids, JSON round-trips,
   the metrics registry, and the trace tree emitted by the driver. *)

open Dt_ir
open Helpers

let check = Alcotest.check

(* --- Test_kind --------------------------------------------------------- *)

let test_kind_ids () =
  List.iteri
    (fun i k -> check Alcotest.int (Dt_obs.Test_kind.slug k) i
        (Dt_obs.Test_kind.id k))
    Dt_obs.Test_kind.all;
  check Alcotest.int "count" (List.length Dt_obs.Test_kind.all)
    Dt_obs.Test_kind.count

let test_kind_slugs () =
  List.iter
    (fun k ->
      match Dt_obs.Test_kind.of_slug (Dt_obs.Test_kind.slug k) with
      | Some k' ->
          check Alcotest.int "slug round-trip" (Dt_obs.Test_kind.id k)
            (Dt_obs.Test_kind.id k')
      | None -> Alcotest.fail "of_slug failed")
    Dt_obs.Test_kind.all;
  check Alcotest.bool "unknown slug" true
    (Dt_obs.Test_kind.of_slug "nonsense" = None)

(* counters re-exports the same kind type; kind_id must stay aligned *)
let test_counters_kind_id () =
  List.iteri
    (fun i k -> check Alcotest.int (Deptest.Counters.kind_name k) i
        (Deptest.Counters.kind_id k))
    Deptest.Counters.all_kinds

(* --- Json -------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Dt_obs.Json.(
      Obj
        [
          ("null", Null);
          ("t", Bool true);
          ("n", Int (-42));
          ("x", Float 2.5);
          ("s", String "a \"quoted\"\nline\twith \\ and unicode \xc3\xa9");
          ("l", List [ Int 1; Int 2; Obj [ ("k", String "v") ] ]);
          ("empty", Obj []);
        ])
  in
  let s = Dt_obs.Json.to_string v in
  match Dt_obs.Json.of_string s with
  | Ok v' ->
      check Alcotest.bool "round-trip equal" true (Dt_obs.Json.equal v v')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_parse_escapes () =
  match Dt_obs.Json.of_string {|{"a": "xéA", "b": [1, 2.5, -3]}|} with
  | Ok v ->
      check Alcotest.bool "unicode escape" true
        (Dt_obs.Json.member "a" v = Some (Dt_obs.Json.String "x\xc3\xa9A"));
      check Alcotest.bool "mixed numbers" true
        (Dt_obs.Json.member "b" v
        = Some
            Dt_obs.Json.(List [ Int 1; Float 2.5; Int (-3) ]))
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_rejects_garbage () =
  let bad s =
    match Dt_obs.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "trailing" true (bad "{} x");
  check Alcotest.bool "unterminated" true (bad {|{"a": "b|});
  check Alcotest.bool "bare word" true (bad "flase")

(* Codec parity. [oracle_escape] is the original one-byte-at-a-time
   escaper, kept here as the reference: the run-scanning [to_string]
   must reproduce it byte for byte. *)
let oracle_escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* an exact rendering of a parsed value: ints and floats stay distinct,
   floats are printed in hex so -0. and 0. differ *)
let rec json_repr (j : Dt_obs.Json.t) =
  match j with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> "I" ^ string_of_int i
  | Float f -> Printf.sprintf "F%h" f
  | String s -> Printf.sprintf "%S" s
  | List l -> "[" ^ String.concat ";" (List.map json_repr l) ^ "]"
  | Obj fs ->
      "{"
      ^ String.concat ";"
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_repr v)) fs)
      ^ "}"

(* input, and the exact [of_string] result: the value's [json_repr] or
   the error string, offset included *)
let json_table =
  [
    ("\"\\/\"", "\"/\"");
    ("\"\\b\\f\"", "\"\\b\\012\"");
    ("\"a\\\"b\\\\c\\n\\r\\t\"", "\"a\\\"b\\\\c\\n\\r\\t\"");
    ("\"\\ud83d\\ude00\"", "\"\\240\\159\\152\\128\"");
    ("\"\\uD83D\\uDE00\"", "\"\\240\\159\\152\\128\"");
    ("\"\240\159\152\128\"", "\"\\240\\159\\152\\128\"");
    ("\"\\ud83d\\ud83d\"", "\"\\237\\160\\189\\237\\160\\189\"");
    ("\"\\ud83dA\"", "\"\\237\\160\\189A\"");
    ("\"\\ud83d\\uzzzz\"", "JSON parse error at offset 13: invalid \\u escape");
    ("\"\\ud83d\"", "\"\\237\\160\\189\"");
    ("\"\\ude00\"", "\"\\237\\184\\128\"");
    ("\"\\ud83dx\"", "\"\\237\\160\\189x\"");
    ("\"\\ud83d\\u00\"", "JSON parse error at offset 9: truncated \\u escape");
    ("\"\195\169\226\130\172\"", "\"\\195\\169\\226\\130\\172\"");
    ("\"\\u0000\"", "\"\\000\"");
    (* RFC 8259 §7: a raw control byte is an error; its escape parses *)
    ("\"a\nb\"", "JSON parse error at offset 2: raw control byte 0x0a in string");
    ("\"a\\nb\"", "\"a\\nb\"");
    ("\"a\tb\"", "JSON parse error at offset 2: raw control byte 0x09 in string");
    ("\"a\\tb\"", "\"a\\tb\"");
    ("\"\000\"", "JSON parse error at offset 1: raw control byte 0x00 in string");
    ("\"\\u0000\\u001f\"", "\"\\000\\031\"");
    ("\"abcdefgh\031\"", "JSON parse error at offset 9: raw control byte 0x1f in string");
    ("{\"k\n\":1}", "JSON parse error at offset 3: raw control byte 0x0a in string");
    ("\"\127\"", "\"\\127\"");
    ("\"\255\254\"", "\"\\255\\254\"");
    ("\"\\u12\"", "JSON parse error at offset 3: truncated \\u escape");
    (* a [\u] cut short by the closing quote: the scan that sizes the
       decoded string must not count bytes that are not there *)
    ("\"\\u\"", "JSON parse error at offset 3: truncated \\u escape");
    ("\"ab\\u\"", "JSON parse error at offset 5: truncated \\u escape");
    ("{\"op\":\"\\u\"}", "JSON parse error at offset 9: truncated \\u escape");
    ("[\"\\u\",\"abcd\"]", "JSON parse error at offset 8: invalid \\u escape");
    ("\"\\u12G4\"", "JSON parse error at offset 7: invalid \\u escape");
    (* exactly four hex digits: [int_of_string] would accept the [_] *)
    ("\"\\u1_23\"", "JSON parse error at offset 7: invalid \\u escape");
    ("\"\\u+123\"", "JSON parse error at offset 7: invalid \\u escape");
    ("\"\\u-123\"", "JSON parse error at offset 7: invalid \\u escape");
    ("\"\\u 123\"", "JSON parse error at offset 7: invalid \\u escape");
    ("\"\\x\"", "JSON parse error at offset 3: invalid escape");
    ("\"abcdef\\q\"", "JSON parse error at offset 9: invalid escape");
    ("\"ab\\u0041cd\\\"e\\\\\"", "\"abAcd\\\"e\\\\\"");
    ("\"\\u00e9\\u20ac\"", "\"\\195\\169\\226\\130\\172\"");
    ("\"abc", "JSON parse error at offset 4: unterminated string");
    ("\"ab\\", "JSON parse error at offset 4: unterminated escape");
    ("-0", "I0");
    ("-0.0", "F-0x0p+0");
    ("007", "I7");
    ("-007", "I-7");
    ("00", "I0");
    ("0x10", "JSON parse error at offset 1: trailing characters");
    ("123456789012345678", "I123456789012345678");
    ("-123456789012345678", "I-123456789012345678");
    ("1234567890123456789", "I1234567890123456789");
    ("4611686018427387903", "I4611686018427387903");
    ("4611686018427387904", "F0x1p+62");
    ("-4611686018427387904", "I-4611686018427387904");
    ("-4611686018427387905", "F-0x1p+62");
    ("9999999999999999999", "F0x1.158e460913dp+63");
    ("99999999999999999999999", "F0x1.52d02c7e14af6p+76");
    ("-9999999999999999999", "F-0x1.158e460913dp+63");
    ("1.", "F0x1p+0");
    ("1e5", "F0x1.86ap+16");
    ("1E+5", "F0x1.86ap+16");
    ("1e-5", "F0x1.4f8b588e368f1p-17");
    ("1.5", "F0x1.8p+0");
    ("-.5", "F-0x1p-1");
    (".5", "F0x1p-1");
    ("+1", "F0x1p+0");
    ("1e", "JSON parse error at offset 2: invalid number");
    ("1.5.3", "JSON parse error at offset 5: invalid number");
    ("-1-2", "JSON parse error at offset 4: invalid number");
    ("1e400", "Finfinity");
    ("-", "JSON parse error at offset 1: invalid number");
    ("--1", "JSON parse error at offset 3: invalid number");
    ("x", "JSON parse error at offset 0: invalid number");
    ("e5", "JSON parse error at offset 2: invalid number");
    ("tru", "JSON parse error at offset 0: expected true");
    ("trux", "JSON parse error at offset 0: expected true");
    ("true", "true");
    ("false", "false");
    ("fals", "JSON parse error at offset 0: expected false");
    ("null", "null");
    ("nul", "JSON parse error at offset 0: expected null");
    ("nulll", "JSON parse error at offset 4: trailing characters");
    ("{} x", "JSON parse error at offset 3: trailing characters");
    ("[1] ]", "JSON parse error at offset 4: trailing characters");
    ("1 2", "JSON parse error at offset 2: trailing characters");
    ("", "JSON parse error at offset 0: unexpected end of input");
    ("   ", "JSON parse error at offset 3: unexpected end of input");
    (" \t\n\r[ 1 , 2 ] ", "[I1;I2]");
    ("{\"a\":1,}", "JSON parse error at offset 7: expected '\"'");
    ("{\"a\" 1}", "JSON parse error at offset 5: expected ':'");
    ("[1 2]", "JSON parse error at offset 3: expected ',' or ']'");
    ("[1,]", "JSON parse error at offset 3: invalid number");
    ("{\"a\":1 \"b\":2}", "JSON parse error at offset 7: expected ',' or '}'");
    ("{", "JSON parse error at offset 1: expected '\"'");
    ("[", "JSON parse error at offset 1: unexpected end of input");
    ("[1,", "JSON parse error at offset 3: unexpected end of input");
    ("{\"a\":", "JSON parse error at offset 5: unexpected end of input");
    ("{\"a\":1,\"a\":2}", "{\"a\":I1;\"a\":I2}");
    ("{\"k\":[{\"x\":[]},{}],\"s\":\"A\\n\"}", "{\"k\":[{\"x\":[]};{}];\"s\":\"A\\n\"}");
    ("[null,true,false,-1,2.25,\"z\"]", "[null;true;false;I-1;F0x1.2p+1;\"z\"]");
  ]

let test_json_table () =
  List.iter
    (fun (input, expected) ->
      let got =
        match Dt_obs.Json.of_string input with
        | Ok v -> json_repr v
        | Error e -> e
      in
      check Alcotest.string (Printf.sprintf "%S" input) expected got)
    json_table

(* strings over all 256 byte values, weighted toward the bytes the
   codec escapes and toward multi-byte UTF-8 *)
let gen_json_string =
  let open QCheck.Gen in
  let utf8 code =
    let b = Buffer.create 4 in
    Buffer.add_utf_8_uchar b (Uchar.of_int code);
    Buffer.contents b
  in
  let piece =
    frequency
      [
        ( 3,
          map (String.make 1)
            (oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\012'; '/' ]) );
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f));
        ( 2,
          map utf8
            (oneof [ int_range 0x80 0xd7ff; int_range 0xe000 0x10ffff ]) );
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 255));
        (3, string_size ~gen:printable (int_range 1 12));
      ]
  in
  map (String.concat "") (list_size (int_range 0 24) piece)

let gen_json_value =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, map (fun s -> Dt_obs.Json.String s) gen_json_string);
        (1, map (fun i -> Dt_obs.Json.Int i) int);
        ( 1,
          map (fun f -> Dt_obs.Json.Float f)
            (map (fun f -> if Float.is_finite f then f else 0.5) float) );
        (1, map (fun b -> Dt_obs.Json.Bool b) bool);
        (1, return Dt_obs.Json.Null);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Dt_obs.Json.List l)
                   (list_size (int_range 0 4) (self (n / 4))) );
               ( 1,
                 map (fun l -> Dt_obs.Json.Obj l)
                   (list_size (int_range 0 4)
                      (pair gen_json_string (self (n / 4)))) );
             ])

let prop_json_escape_oracle =
  qtest ~count:1000 "json escaping matches the byte-at-a-time oracle"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_json_string)
    (fun s ->
      Dt_obs.Json.to_string (Dt_obs.Json.String s) = oracle_escape s
      && Dt_obs.Json.to_string (Dt_obs.Json.Obj [ (s, Dt_obs.Json.Null) ])
         = "{" ^ oracle_escape s ^ ":null}")

let prop_json_roundtrip =
  qtest ~count:500 "json of_string (to_string v) = v"
    (QCheck.make ~print:json_repr gen_json_value)
    (fun v ->
      match Dt_obs.Json.of_string (Dt_obs.Json.to_string v) with
      | Ok v' -> json_repr v' = json_repr v
      | Error _ -> false)

(* Inputs cut from the bytes the string scanner treats specially: a
   quote, a backslash, [\u] with too few hex digits, control bytes and
   structure. [of_string] must return, Ok or Error, never raise. *)
let prop_json_total =
  let gen =
    let open QCheck.Gen in
    let piece =
      oneofl
        [ "\""; "\\"; "\\u"; "\\u0"; "\\u00e"; "\\ud83d"; "\\n"; "u"; "0";
          "a"; "F"; "G"; "{"; "}"; "["; "]"; ":"; ","; "\n"; "\000";
          "\195\169"; "1"; "-"; "true" ]
    in
    map2
      (fun quoted l -> (if quoted then "\"" else "") ^ String.concat "" l)
      bool
      (list_size (int_range 0 16) piece)
  in
  qtest ~count:2000 "json of_string returns on any input, never raises"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s ->
      match Dt_obs.Json.of_string s with Ok _ | Error _ -> true)

(* --- Metrics ----------------------------------------------------------- *)

let test_metrics_record () =
  let m = Dt_obs.Metrics.create () in
  Dt_obs.Metrics.record m Dt_obs.Test_kind.Strong_siv ~indep:true ~ns:5_000L;
  Dt_obs.Metrics.record m Dt_obs.Test_kind.Strong_siv ~indep:false ~ns:3_000L;
  Dt_obs.Metrics.record m Dt_obs.Test_kind.Gcd_miv ~indep:false ~ns:100L;
  check Alcotest.int "applied" 2
    (Dt_obs.Metrics.applied m Dt_obs.Test_kind.Strong_siv);
  check Alcotest.int "indep" 1
    (Dt_obs.Metrics.proved_indep m Dt_obs.Test_kind.Strong_siv);
  check Alcotest.bool "kind_ns" true
    (Dt_obs.Metrics.kind_ns m Dt_obs.Test_kind.Strong_siv = 8_000L);
  check Alcotest.int "other applied" 1
    (Dt_obs.Metrics.applied m Dt_obs.Test_kind.Gcd_miv)

let test_metrics_latency_hist () =
  let m = Dt_obs.Metrics.create () in
  (* one per bucket: bounds are 1us 10us 100us 1ms 10ms, then overflow *)
  List.iter
    (fun ns -> Dt_obs.Metrics.observe_pair m ~ns)
    [ 500L; 5_000L; 50_000L; 500_000L; 5_000_000L; 50_000_000L ];
  check Alcotest.int "pairs" 6 (Dt_obs.Metrics.pairs m);
  check
    Alcotest.(array int)
    "one per bucket"
    [| 1; 1; 1; 1; 1; 1 |]
    (Dt_obs.Metrics.latency_hist m)

let test_metrics_merge () =
  let a = Dt_obs.Metrics.create () and b = Dt_obs.Metrics.create () in
  Dt_obs.Metrics.record a Dt_obs.Test_kind.Ziv_test ~indep:true ~ns:10L;
  Dt_obs.Metrics.record b Dt_obs.Test_kind.Ziv_test ~indep:false ~ns:20L;
  Dt_obs.Metrics.add_phase_ns b Dt_obs.Metrics.Test 1_000L;
  Dt_obs.Metrics.observe_pair b ~ns:42L;
  Dt_obs.Metrics.merge_into a b;
  check Alcotest.int "applied" 2
    (Dt_obs.Metrics.applied a Dt_obs.Test_kind.Ziv_test);
  check Alcotest.bool "ns summed" true
    (Dt_obs.Metrics.kind_ns a Dt_obs.Test_kind.Ziv_test = 30L);
  check Alcotest.bool "phase merged" true
    (Dt_obs.Metrics.phase_ns a Dt_obs.Metrics.Test = 1_000L);
  check Alcotest.int "pairs merged" 1 (Dt_obs.Metrics.pairs a)

let test_metrics_banerjee_counters () =
  let a = Dt_obs.Metrics.create () and b = Dt_obs.Metrics.create () in
  Dt_obs.Metrics.banerjee_compile a;
  Dt_obs.Metrics.banerjee_node a ~incremental:true;
  Dt_obs.Metrics.banerjee_node a ~incremental:true;
  Dt_obs.Metrics.banerjee_node b ~incremental:false;
  Dt_obs.Metrics.banerjee_cap b;
  Dt_obs.Metrics.merge_into a b;
  check Alcotest.int "compilations" 1 (Dt_obs.Metrics.banerjee_compilations a);
  check Alcotest.int "incremental nodes" 2
    (Dt_obs.Metrics.banerjee_incremental_nodes a);
  check Alcotest.int "scratch nodes merged" 1
    (Dt_obs.Metrics.banerjee_scratch_nodes a);
  check Alcotest.int "caps merged" 1 (Dt_obs.Metrics.banerjee_caps a);
  (* surfaced in the profile --json snapshot *)
  match Dt_obs.Json.member "banerjee" (Dt_obs.Metrics.to_json a) with
  | None -> Alcotest.fail "banerjee block missing from metrics JSON"
  | Some blk ->
      check Alcotest.bool "kernel_compilations" true
        (Dt_obs.Json.member "kernel_compilations" blk
        = Some (Dt_obs.Json.Int 1));
      check Alcotest.bool "incremental_nodes" true
        (Dt_obs.Json.member "incremental_nodes" blk = Some (Dt_obs.Json.Int 2));
      check Alcotest.bool "scratch_nodes" true
        (Dt_obs.Json.member "scratch_nodes" blk = Some (Dt_obs.Json.Int 1));
      check Alcotest.bool "combo_cap_fallbacks" true
        (Dt_obs.Json.member "combo_cap_fallbacks" blk
        = Some (Dt_obs.Json.Int 1))

let test_metrics_json_roundtrip () =
  let m = Dt_obs.Metrics.create () in
  Dt_obs.Metrics.record m Dt_obs.Test_kind.Strong_siv ~indep:true ~ns:4_000L;
  Dt_obs.Metrics.record m Dt_obs.Test_kind.Delta_test ~indep:false ~ns:9_000L;
  Dt_obs.Metrics.add_phase_ns m Dt_obs.Metrics.Partition 1_500L;
  Dt_obs.Metrics.observe_pair m ~ns:13_000L;
  let j = Dt_obs.Metrics.to_json m in
  match Dt_obs.Json.of_string (Dt_obs.Json.to_string j) with
  | Error e -> Alcotest.fail ("snapshot did not parse back: " ^ e)
  | Ok j' ->
      check Alcotest.bool "round-trip equal" true (Dt_obs.Json.equal j j');
      check Alcotest.bool "schema" true
        (Dt_obs.Json.member "schema" j'
        = Some (Dt_obs.Json.String "deptest-metrics/2"));
      let tests =
        match Dt_obs.Json.member "tests" j' with
        | Some l -> Option.value ~default:[] (Dt_obs.Json.to_list l)
        | None -> []
      in
      check Alcotest.int "one entry per kind" Dt_obs.Test_kind.count
        (List.length tests);
      let strong =
        List.find
          (fun t ->
            Dt_obs.Json.member "kind" t
            = Some (Dt_obs.Json.String "strong_siv"))
          tests
      in
      check Alcotest.bool "applied count" true
        (Dt_obs.Json.member "applied" strong = Some (Dt_obs.Json.Int 1))

(* --- Output parity ----------------------------------------------------- *)

(* Every recorder, split across two registries and merged, so the pinned
   strings cover both merge rules: counters sum, the memo and disk
   snapshots keep the larger value. *)
let parity_registry () =
  let module M = Dt_obs.Metrics in
  let module K = Dt_obs.Test_kind in
  let a = M.create () and b = M.create () in
  M.record a K.Ziv_test ~indep:true ~ns:120L;
  M.record a K.Strong_siv ~indep:false ~ns:2_500L;
  M.record a K.Strong_siv ~indep:true ~ns:1_500L;
  M.record b K.Strong_siv ~indep:false ~ns:4_000L;
  M.record b K.Delta_test ~indep:true ~ns:9_000L;
  M.record b K.Gcd_miv ~indep:false ~ns:700L;
  List.iteri
    (fun i p ->
      M.add_phase_ns a p (Int64.of_int (1_000 * (i + 1)));
      M.add_phase_ns b p (Int64.of_int (100 * (i + 1))))
    M.phases;
  List.iter
    (fun ns -> M.observe_pair a ~ns)
    [ 500L; 5_000L; 50_000L; 500_000L; 5_000_000L; 50_000_000L ];
  List.iter (fun ns -> M.observe_pair b ~ns) [ 800L; 20_000L; 20_000L ];
  M.cache_hit a;
  M.cache_hit a;
  M.cache_miss a;
  M.cache_hit b;
  M.cache_miss b;
  M.set_cache_usage a ~size:7 ~evictions:1;
  M.set_cache_usage b ~size:5 ~evictions:3;
  M.set_disk_cache a ~hits:4 ~misses:2 ~invalid:0;
  M.set_disk_cache b ~hits:3 ~misses:6 ~invalid:1;
  M.banerjee_compile a;
  M.banerjee_compile b;
  M.banerjee_node a ~incremental:true;
  M.banerjee_node a ~incremental:true;
  M.banerjee_node b ~incremental:false;
  M.banerjee_cap b;
  M.degraded a `Overflow;
  M.degraded b `Exception;
  M.degraded b `Budget;
  M.degraded b `Budget;
  M.engine_registry a;
  M.engine_registry b;
  M.engine_shards a ~n:3;
  M.engine_task a ~domain:0 ~ns:10_000L;
  M.engine_task a ~domain:0 ~ns:5_000L;
  M.engine_wait a ~domain:0 ~ns:300L;
  M.engine_task b ~domain:1 ~ns:8_000L;
  M.engine_steal b ~domain:1;
  M.engine_wait b ~domain:1 ~ns:900L;
  M.serve_endpoint a ~endpoint:"health";
  M.serve_request a ~endpoint:"analyze" ~ns:250_000L;
  M.serve_request b ~endpoint:"analyze" ~ns:20_000_000_000L;
  M.serve_request b ~endpoint:"metrics" ~ns:50_000L;
  M.serve_tier a ~tier:"memo";
  M.serve_answered a ~tier:"cold";
  M.serve_answered b ~tier:"cold";
  M.serve_answered b ~tier:"response";
  M.merge_into a b;
  a

(* the build-info sample carries the git label, which moves per commit *)
let strip_build_info text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         not (String.length l > 18 && String.sub l 0 19 = "deptest_build_info{"))
  |> String.concat "\n"

(* Expected outputs, recorded from the registry as it stood before the
   metrics layer became a family registry; the registry must reproduce
   them byte for byte. *)

let expected_parity_json =
  {parity|{"schema":"deptest-metrics/2","tests":[{"kind":"ziv","name":"ZIV","applied":1,"independent":1,"total_ns":120},{"kind":"strong_siv","name":"strong SIV","applied":3,"independent":1,"total_ns":8000},{"kind":"weak_zero_siv","name":"weak-zero SIV","applied":0,"independent":0,"total_ns":0},{"kind":"weak_crossing_siv","name":"weak-crossing SIV","applied":0,"independent":0,"total_ns":0},{"kind":"exact_siv","name":"exact SIV","applied":0,"independent":0,"total_ns":0},{"kind":"rdiv","name":"RDIV","applied":0,"independent":0,"total_ns":0},{"kind":"gcd_miv","name":"GCD","applied":1,"independent":0,"total_ns":700},{"kind":"banerjee_miv","name":"Banerjee","applied":0,"independent":0,"total_ns":0},{"kind":"delta","name":"Delta","applied":1,"independent":1,"total_ns":9000},{"kind":"symbolic_ziv","name":"symbolic ZIV","applied":0,"independent":0,"total_ns":0}],"phases":{"parse_ns":1100,"partition_ns":2200,"test_ns":3300,"merge_ns":4400},"pairs":{"tested":9,"total_ns":55596300,"latency_hist":[{"le_ns":1000,"label":"<=1us","count":2},{"le_ns":10000,"label":"<=10us","count":1},{"le_ns":100000,"label":"<=100us","count":3},{"le_ns":1000000,"label":"<=1ms","count":1},{"le_ns":10000000,"label":"<=10ms","count":1},{"le_ns":null,"label":">10ms","count":1}]},"cache":{"hits":3,"misses":2,"hit_rate":0.6,"size":7,"evictions":3,"disk_hits":4,"disk_misses":6,"disk_invalid":1},"banerjee":{"kernel_compilations":2,"incremental_nodes":2,"scratch_nodes":1,"combo_cap_fallbacks":1},"guard":{"degraded":4,"by_reason":{"overflow":1,"exception":1,"budget":2}},"engine":{"registries":2,"shards":3,"domains":[{"domain":0,"tasks":2,"steals":0,"busy_ns":15000,"queue_wait_ns":300},{"domain":1,"tasks":1,"steals":1,"busy_ns":8000,"queue_wait_ns":900}],"tasks":3,"steals":1,"busy_ns":23000,"queue_wait_ns":1200},"serve":{"endpoints":[{"endpoint":"analyze","requests":2,"total_ns":20000250000,"latency_hist":[{"le_ns":100000,"label":"<=100us","count":0},{"le_ns":1000000,"label":"<=1ms","count":1},{"le_ns":10000000,"label":"<=10ms","count":0},{"le_ns":100000000,"label":"<=100ms","count":0},{"le_ns":1000000000,"label":"<=1s","count":0},{"le_ns":10000000000,"label":"<=10s","count":0},{"le_ns":null,"label":">10s","count":1}]},{"endpoint":"health","requests":0,"total_ns":0,"latency_hist":[{"le_ns":100000,"label":"<=100us","count":0},{"le_ns":1000000,"label":"<=1ms","count":0},{"le_ns":10000000,"label":"<=10ms","count":0},{"le_ns":100000000,"label":"<=100ms","count":0},{"le_ns":1000000000,"label":"<=1s","count":0},{"le_ns":10000000000,"label":"<=10s","count":0},{"le_ns":null,"label":">10s","count":0}]},{"endpoint":"metrics","requests":1,"total_ns":50000,"latency_hist":[{"le_ns":100000,"label":"<=100us","count":1},{"le_ns":1000000,"label":"<=1ms","count":0},{"le_ns":10000000,"label":"<=10ms","count":0},{"le_ns":100000000,"label":"<=100ms","count":0},{"le_ns":1000000000,"label":"<=1s","count":0},{"le_ns":10000000000,"label":"<=10s","count":0},{"le_ns":null,"label":">10s","count":0}]}],"answered":{"cold":2,"memo":0,"response":1}}}|parity}

let expected_parity_pp =
  {parity|test                 applied     indep    total(us)    avg(ns)
ZIV                        1         1          0.1        120
strong SIV                 3         1          8.0       2667
GCD                        1         0          0.7        700
Delta                      1         1          9.0       9000

phase                  wall(us)
parse                       1.1
partition                   2.2
test                        3.3
merge                       4.4

pairs tested 9, total 55596.3 us
memo cache: 3 hits / 5 lookups (60.0%), 7 entries resident, 3 evicted
disk cache: 4 hits / 10 lookups, 1 invalid object(s)
banerjee kernel: 2 compiled, 2 incremental / 1 scratch nodes, 1 cap fallback(s)
guard: 4 pair(s) degraded conservatively (1 overflow, 1 exception, 2 budget)
engine: 2 worker registries merged, 3 routine shard(s)
  domain 0: 2 task(s), 0 steal(s), busy 15.0 us, queue wait 0.3 us
  domain 1: 1 task(s), 1 steal(s), busy 8.0 us, queue wait 0.9 us
serve analyze    2 request(s), total 20000250.0 us, avg 10000125000 ns
serve health     0 request(s), total 0.0 us, avg 0 ns
serve metrics    1 request(s), total 50.0 us, avg 50000 ns
serve answered: cold:2 memo:0 response:1
pair latency: <=1us:2 <=10us:1 <=100us:3 <=1ms:1 <=10ms:1 >10ms:1
|parity}

let expected_parity_prom =
  {parity|# HELP deptest_build_info Build and schema identity of this process (value is always 1).
# TYPE deptest_build_info gauge
# HELP deptest_tests_applied_total Dependence-test applications by test kind.
# TYPE deptest_tests_applied_total counter
deptest_tests_applied_total{kind="ziv"} 1
deptest_tests_applied_total{kind="strong_siv"} 3
deptest_tests_applied_total{kind="weak_zero_siv"} 0
deptest_tests_applied_total{kind="weak_crossing_siv"} 0
deptest_tests_applied_total{kind="exact_siv"} 0
deptest_tests_applied_total{kind="rdiv"} 0
deptest_tests_applied_total{kind="gcd_miv"} 1
deptest_tests_applied_total{kind="banerjee_miv"} 0
deptest_tests_applied_total{kind="delta"} 1
deptest_tests_applied_total{kind="symbolic_ziv"} 0
# HELP deptest_tests_independent_total Independence proofs by test kind.
# TYPE deptest_tests_independent_total counter
deptest_tests_independent_total{kind="ziv"} 1
deptest_tests_independent_total{kind="strong_siv"} 1
deptest_tests_independent_total{kind="weak_zero_siv"} 0
deptest_tests_independent_total{kind="weak_crossing_siv"} 0
deptest_tests_independent_total{kind="exact_siv"} 0
deptest_tests_independent_total{kind="rdiv"} 0
deptest_tests_independent_total{kind="gcd_miv"} 0
deptest_tests_independent_total{kind="banerjee_miv"} 0
deptest_tests_independent_total{kind="delta"} 1
deptest_tests_independent_total{kind="symbolic_ziv"} 0
# HELP deptest_test_ns_total Wall-clock nanoseconds inside each test kind.
# TYPE deptest_test_ns_total counter
deptest_test_ns_total{kind="ziv"} 120
deptest_test_ns_total{kind="strong_siv"} 8000
deptest_test_ns_total{kind="weak_zero_siv"} 0
deptest_test_ns_total{kind="weak_crossing_siv"} 0
deptest_test_ns_total{kind="exact_siv"} 0
deptest_test_ns_total{kind="rdiv"} 0
deptest_test_ns_total{kind="gcd_miv"} 700
deptest_test_ns_total{kind="banerjee_miv"} 0
deptest_test_ns_total{kind="delta"} 9000
deptest_test_ns_total{kind="symbolic_ziv"} 0
# HELP deptest_phase_ns_total Wall-clock nanoseconds per analysis phase.
# TYPE deptest_phase_ns_total counter
deptest_phase_ns_total{phase="parse"} 1100
deptest_phase_ns_total{phase="partition"} 2200
deptest_phase_ns_total{phase="test"} 3300
deptest_phase_ns_total{phase="merge"} 4400
# HELP deptest_pairs_tested_total Reference pairs that completed the driver.
# TYPE deptest_pairs_tested_total counter
deptest_pairs_tested_total 9
# HELP deptest_pair_latency_ns Per-reference-pair driver latency in nanoseconds.
# TYPE deptest_pair_latency_ns histogram
deptest_pair_latency_ns_bucket{le="1000"} 2
deptest_pair_latency_ns_bucket{le="10000"} 3
deptest_pair_latency_ns_bucket{le="100000"} 6
deptest_pair_latency_ns_bucket{le="1000000"} 7
deptest_pair_latency_ns_bucket{le="10000000"} 8
deptest_pair_latency_ns_bucket{le="+Inf"} 9
deptest_pair_latency_ns_sum 55596300
deptest_pair_latency_ns_count 9
# HELP deptest_cache_hits_total Pair verdicts served by the structural memo cache.
# TYPE deptest_cache_hits_total counter
deptest_cache_hits_total 3
# HELP deptest_cache_misses_total Memo-cache lookup misses.
# TYPE deptest_cache_misses_total counter
deptest_cache_misses_total 2
# HELP deptest_cache_entries Resident memo-cache entries after the run.
# TYPE deptest_cache_entries gauge
deptest_cache_entries 7
# HELP deptest_cache_evictions_total Memo-cache entries dropped by capacity eviction.
# TYPE deptest_cache_evictions_total counter
deptest_cache_evictions_total 3
# HELP deptest_disk_cache_hits_total Routine answers served by the disk-backed cross-run store.
# TYPE deptest_disk_cache_hits_total counter
deptest_disk_cache_hits_total 4
# HELP deptest_disk_cache_misses_total Disk-store lookup misses.
# TYPE deptest_disk_cache_misses_total counter
deptest_disk_cache_misses_total 6
# HELP deptest_disk_cache_invalid_total Invalid disk-cache objects skipped (corrupt or stale segments, tmp leftovers).
# TYPE deptest_disk_cache_invalid_total counter
deptest_disk_cache_invalid_total 1
# HELP deptest_banerjee_kernel_compilations_total Subscript pairs compiled into the linear-form kernel.
# TYPE deptest_banerjee_kernel_compilations_total counter
deptest_banerjee_kernel_compilations_total 2
# HELP deptest_banerjee_nodes_total Banerjee hierarchy-node evaluations by path.
# TYPE deptest_banerjee_nodes_total counter
deptest_banerjee_nodes_total{path="incremental"} 2
deptest_banerjee_nodes_total{path="scratch"} 1
# HELP deptest_banerjee_combo_cap_fallbacks_total Vertex cross products past the combination cap.
# TYPE deptest_banerjee_combo_cap_fallbacks_total counter
deptest_banerjee_combo_cap_fallbacks_total 1
# HELP deptest_degraded_pairs_total Pairs degraded to the conservative verdict, by guard reason.
# TYPE deptest_degraded_pairs_total counter
deptest_degraded_pairs_total{reason="overflow"} 1
deptest_degraded_pairs_total{reason="exception"} 1
deptest_degraded_pairs_total{reason="budget"} 2
# HELP deptest_engine_registries_total Worker metrics registries merged into this snapshot.
# TYPE deptest_engine_registries_total counter
deptest_engine_registries_total 2
# HELP deptest_engine_shards_total Routine-grain shards dispatched to the work-stealing pool.
# TYPE deptest_engine_shards_total counter
deptest_engine_shards_total 3
# HELP deptest_engine_tasks_total Engine work leaves executed, by worker domain.
# TYPE deptest_engine_tasks_total counter
deptest_engine_tasks_total{domain="0"} 2
deptest_engine_tasks_total{domain="1"} 1
# HELP deptest_engine_steals_total Ranges stolen from another worker's deque, by thief domain.
# TYPE deptest_engine_steals_total counter
deptest_engine_steals_total{domain="0"} 0
deptest_engine_steals_total{domain="1"} 1
# HELP deptest_engine_busy_ns_total Nanoseconds inside leaf bodies, by worker domain.
# TYPE deptest_engine_busy_ns_total counter
deptest_engine_busy_ns_total{domain="0"} 15000
deptest_engine_busy_ns_total{domain="1"} 8000
# HELP deptest_engine_queue_wait_ns_total Nanoseconds acquiring work (pop, steal, backoff), by worker domain.
# TYPE deptest_engine_queue_wait_ns_total counter
deptest_engine_queue_wait_ns_total{domain="0"} 300
deptest_engine_queue_wait_ns_total{domain="1"} 900
# HELP deptest_serve_request_duration_ns Whole-request daemon latency in nanoseconds, by protocol endpoint.
# TYPE deptest_serve_request_duration_ns histogram
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="100000"} 0
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="1000000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="10000000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="100000000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="1000000000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="10000000000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="+Inf"} 2
deptest_serve_request_duration_ns_sum{endpoint="analyze"} 20000250000
deptest_serve_request_duration_ns_count{endpoint="analyze"} 2
deptest_serve_request_duration_ns_bucket{endpoint="health",le="100000"} 0
deptest_serve_request_duration_ns_bucket{endpoint="health",le="1000000"} 0
deptest_serve_request_duration_ns_bucket{endpoint="health",le="10000000"} 0
deptest_serve_request_duration_ns_bucket{endpoint="health",le="100000000"} 0
deptest_serve_request_duration_ns_bucket{endpoint="health",le="1000000000"} 0
deptest_serve_request_duration_ns_bucket{endpoint="health",le="10000000000"} 0
deptest_serve_request_duration_ns_bucket{endpoint="health",le="+Inf"} 0
deptest_serve_request_duration_ns_sum{endpoint="health"} 0
deptest_serve_request_duration_ns_count{endpoint="health"} 0
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="100000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="1000000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="10000000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="100000000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="1000000000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="10000000000"} 1
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="+Inf"} 1
deptest_serve_request_duration_ns_sum{endpoint="metrics"} 50000
deptest_serve_request_duration_ns_count{endpoint="metrics"} 1
# HELP deptest_serve_answered_total Analyze requests answered, by cache tier (response / memo / cold) or none for non-analyze and failed requests.
# TYPE deptest_serve_answered_total counter
deptest_serve_answered_total{tier="cold"} 2
deptest_serve_answered_total{tier="memo"} 0
deptest_serve_answered_total{tier="response"} 1
|parity}

let expected_daemon_health =
  {parity|{"ok":true,"status":"ok","jobs":1,"uptime_ns":"*","requests":6,"in_flight":1,"connections":2,"errors":2,"protocol_errors":1,"pid":"*","saturation":{"in_flight":1,"queue_depth":2,"max_inflight":0,"queue_deadline_ms":0,"shed":1,"deadline_exceeded":1,"injected_faults":1,"restarts":0},"trace":{"sample_period":1,"slow_threshold_ns":"*","ledger_total":4},"cache":{"memo_hits":2,"memo_misses":4,"memo_entries":4},"disk":{"dir":"*","resident":2,"resident_bytes":540,"segments":0}}|parity}

let expected_daemon_json =
  {parity|{"ok":true,"metrics":{"schema":"deptest-metrics/2","tests":[{"kind":"ziv","name":"ZIV","applied":0,"independent":0,"total_ns":"*"},{"kind":"strong_siv","name":"strong SIV","applied":6,"independent":0,"total_ns":"*"},{"kind":"weak_zero_siv","name":"weak-zero SIV","applied":0,"independent":0,"total_ns":"*"},{"kind":"weak_crossing_siv","name":"weak-crossing SIV","applied":0,"independent":0,"total_ns":"*"},{"kind":"exact_siv","name":"exact SIV","applied":0,"independent":0,"total_ns":"*"},{"kind":"rdiv","name":"RDIV","applied":0,"independent":0,"total_ns":"*"},{"kind":"gcd_miv","name":"GCD","applied":0,"independent":0,"total_ns":"*"},{"kind":"banerjee_miv","name":"Banerjee","applied":0,"independent":0,"total_ns":"*"},{"kind":"delta","name":"Delta","applied":2,"independent":1,"total_ns":"*"},{"kind":"symbolic_ziv","name":"symbolic ZIV","applied":0,"independent":0,"total_ns":"*"}],"phases":{"parse_ns":"*","partition_ns":"*","test_ns":"*","merge_ns":"*"},"pairs":{"tested":6,"total_ns":"*","latency_hist":[{"le_ns":"*","label":"<=1us","count":"*"},{"le_ns":"*","label":"<=10us","count":"*"},{"le_ns":"*","label":"<=100us","count":"*"},{"le_ns":"*","label":"<=1ms","count":"*"},{"le_ns":"*","label":"<=10ms","count":"*"},{"le_ns":"*","label":">10ms","count":"*"}]},"cache":{"hits":2,"misses":4,"hit_rate":0.33333333333333331,"size":4,"evictions":0,"disk_hits":1,"disk_misses":3,"disk_invalid":0},"banerjee":{"kernel_compilations":0,"incremental_nodes":0,"scratch_nodes":0,"combo_cap_fallbacks":0},"guard":{"degraded":0,"by_reason":{"overflow":0,"exception":0,"budget":0}},"engine":{"registries":2,"shards":0,"domains":[{"domain":0,"tasks":2,"steals":0,"busy_ns":"*","queue_wait_ns":"*"}],"tasks":2,"steals":0,"busy_ns":"*","queue_wait_ns":"*"},"serve":{"endpoints":[{"endpoint":"analyze","requests":5,"total_ns":"*","latency_hist":[{"le_ns":"*","label":"<=100us","count":"*"},{"le_ns":"*","label":"<=1ms","count":"*"},{"le_ns":"*","label":"<=10ms","count":"*"},{"le_ns":"*","label":"<=100ms","count":"*"},{"le_ns":"*","label":"<=1s","count":"*"},{"le_ns":"*","label":"<=10s","count":"*"},{"le_ns":"*","label":">10s","count":"*"}]},{"endpoint":"flush","requests":0,"total_ns":"*","latency_hist":[{"le_ns":"*","label":"<=100us","count":"*"},{"le_ns":"*","label":"<=1ms","count":"*"},{"le_ns":"*","label":"<=10ms","count":"*"},{"le_ns":"*","label":"<=100ms","count":"*"},{"le_ns":"*","label":"<=1s","count":"*"},{"le_ns":"*","label":"<=10s","count":"*"},{"le_ns":"*","label":">10s","count":"*"}]},{"endpoint":"health","requests":1,"total_ns":"*","latency_hist":[{"le_ns":"*","label":"<=100us","count":"*"},{"le_ns":"*","label":"<=1ms","count":"*"},{"le_ns":"*","label":"<=10ms","count":"*"},{"le_ns":"*","label":"<=100ms","count":"*"},{"le_ns":"*","label":"<=1s","count":"*"},{"le_ns":"*","label":"<=10s","count":"*"},{"le_ns":"*","label":">10s","count":"*"}]},{"endpoint":"metrics","requests":0,"total_ns":"*","latency_hist":[{"le_ns":"*","label":"<=100us","count":"*"},{"le_ns":"*","label":"<=1ms","count":"*"},{"le_ns":"*","label":"<=10ms","count":"*"},{"le_ns":"*","label":"<=100ms","count":"*"},{"le_ns":"*","label":"<=1s","count":"*"},{"le_ns":"*","label":"<=10s","count":"*"},{"le_ns":"*","label":">10s","count":"*"}]},{"endpoint":"shutdown","requests":0,"total_ns":"*","latency_hist":[{"le_ns":"*","label":"<=100us","count":"*"},{"le_ns":"*","label":"<=1ms","count":"*"},{"le_ns":"*","label":"<=10ms","count":"*"},{"le_ns":"*","label":"<=100ms","count":"*"},{"le_ns":"*","label":"<=1s","count":"*"},{"le_ns":"*","label":"<=10s","count":"*"},{"le_ns":"*","label":">10s","count":"*"}]},{"endpoint":"slow","requests":0,"total_ns":"*","latency_hist":[{"le_ns":"*","label":"<=100us","count":"*"},{"le_ns":"*","label":"<=1ms","count":"*"},{"le_ns":"*","label":"<=10ms","count":"*"},{"le_ns":"*","label":"<=100ms","count":"*"},{"le_ns":"*","label":"<=1s","count":"*"},{"le_ns":"*","label":"<=10s","count":"*"},{"le_ns":"*","label":">10s","count":"*"}]},{"endpoint":"top","requests":0,"total_ns":"*","latency_hist":[{"le_ns":"*","label":"<=100us","count":"*"},{"le_ns":"*","label":"<=1ms","count":"*"},{"le_ns":"*","label":"<=10ms","count":"*"},{"le_ns":"*","label":"<=100ms","count":"*"},{"le_ns":"*","label":"<=1s","count":"*"},{"le_ns":"*","label":"<=10s","count":"*"},{"le_ns":"*","label":">10s","count":"*"}]},{"endpoint":"trace-last","requests":0,"total_ns":"*","latency_hist":[{"le_ns":"*","label":"<=100us","count":"*"},{"le_ns":"*","label":"<=1ms","count":"*"},{"le_ns":"*","label":"<=10ms","count":"*"},{"le_ns":"*","label":"<=100ms","count":"*"},{"le_ns":"*","label":"<=1s","count":"*"},{"le_ns":"*","label":"<=10s","count":"*"},{"le_ns":"*","label":">10s","count":"*"}]}],"answered":{"cold":1,"memo":1,"none":1,"response":1}}},"serve":{"requests":7,"analyses":2,"response_hits":1,"response_misses":3,"errors":2,"protocol_errors":1,"connections":2,"in_flight":1,"traced":4,"saturation":{"in_flight":1,"queue_depth":2,"max_inflight":0,"queue_deadline_ms":0,"shed":1,"deadline_exceeded":1,"injected_faults":1,"restarts":0}}}|parity}

let expected_daemon_prom =
  {parity|# HELP deptest_build_info Build and schema identity of this process (value is always 1).
# TYPE deptest_build_info gauge
# HELP deptest_tests_applied_total Dependence-test applications by test kind.
# TYPE deptest_tests_applied_total counter
deptest_tests_applied_total{kind="ziv"} 0
deptest_tests_applied_total{kind="strong_siv"} 6
deptest_tests_applied_total{kind="weak_zero_siv"} 0
deptest_tests_applied_total{kind="weak_crossing_siv"} 0
deptest_tests_applied_total{kind="exact_siv"} 0
deptest_tests_applied_total{kind="rdiv"} 0
deptest_tests_applied_total{kind="gcd_miv"} 0
deptest_tests_applied_total{kind="banerjee_miv"} 0
deptest_tests_applied_total{kind="delta"} 2
deptest_tests_applied_total{kind="symbolic_ziv"} 0
# HELP deptest_tests_independent_total Independence proofs by test kind.
# TYPE deptest_tests_independent_total counter
deptest_tests_independent_total{kind="ziv"} 0
deptest_tests_independent_total{kind="strong_siv"} 0
deptest_tests_independent_total{kind="weak_zero_siv"} 0
deptest_tests_independent_total{kind="weak_crossing_siv"} 0
deptest_tests_independent_total{kind="exact_siv"} 0
deptest_tests_independent_total{kind="rdiv"} 0
deptest_tests_independent_total{kind="gcd_miv"} 0
deptest_tests_independent_total{kind="banerjee_miv"} 0
deptest_tests_independent_total{kind="delta"} 1
deptest_tests_independent_total{kind="symbolic_ziv"} 0
# HELP deptest_test_ns_total Wall-clock nanoseconds inside each test kind.
# TYPE deptest_test_ns_total counter
deptest_test_ns_total{kind="ziv"} *
deptest_test_ns_total{kind="strong_siv"} *
deptest_test_ns_total{kind="weak_zero_siv"} *
deptest_test_ns_total{kind="weak_crossing_siv"} *
deptest_test_ns_total{kind="exact_siv"} *
deptest_test_ns_total{kind="rdiv"} *
deptest_test_ns_total{kind="gcd_miv"} *
deptest_test_ns_total{kind="banerjee_miv"} *
deptest_test_ns_total{kind="delta"} *
deptest_test_ns_total{kind="symbolic_ziv"} *
# HELP deptest_phase_ns_total Wall-clock nanoseconds per analysis phase.
# TYPE deptest_phase_ns_total counter
deptest_phase_ns_total{phase="parse"} *
deptest_phase_ns_total{phase="partition"} *
deptest_phase_ns_total{phase="test"} *
deptest_phase_ns_total{phase="merge"} *
# HELP deptest_pairs_tested_total Reference pairs that completed the driver.
# TYPE deptest_pairs_tested_total counter
deptest_pairs_tested_total 6
# HELP deptest_pair_latency_ns Per-reference-pair driver latency in nanoseconds.
# TYPE deptest_pair_latency_ns histogram
deptest_pair_latency_ns_bucket{le="1000"} *
deptest_pair_latency_ns_bucket{le="10000"} *
deptest_pair_latency_ns_bucket{le="100000"} *
deptest_pair_latency_ns_bucket{le="1000000"} *
deptest_pair_latency_ns_bucket{le="10000000"} *
deptest_pair_latency_ns_bucket{le="+Inf"} *
deptest_pair_latency_ns_sum *
deptest_pair_latency_ns_count *
# HELP deptest_cache_hits_total Pair verdicts served by the structural memo cache.
# TYPE deptest_cache_hits_total counter
deptest_cache_hits_total 2
# HELP deptest_cache_misses_total Memo-cache lookup misses.
# TYPE deptest_cache_misses_total counter
deptest_cache_misses_total 4
# HELP deptest_cache_entries Resident memo-cache entries after the run.
# TYPE deptest_cache_entries gauge
deptest_cache_entries 4
# HELP deptest_cache_evictions_total Memo-cache entries dropped by capacity eviction.
# TYPE deptest_cache_evictions_total counter
deptest_cache_evictions_total 0
# HELP deptest_disk_cache_hits_total Routine answers served by the disk-backed cross-run store.
# TYPE deptest_disk_cache_hits_total counter
deptest_disk_cache_hits_total 1
# HELP deptest_disk_cache_misses_total Disk-store lookup misses.
# TYPE deptest_disk_cache_misses_total counter
deptest_disk_cache_misses_total 3
# HELP deptest_disk_cache_invalid_total Invalid disk-cache objects skipped (corrupt or stale segments, tmp leftovers).
# TYPE deptest_disk_cache_invalid_total counter
deptest_disk_cache_invalid_total 0
# HELP deptest_banerjee_kernel_compilations_total Subscript pairs compiled into the linear-form kernel.
# TYPE deptest_banerjee_kernel_compilations_total counter
deptest_banerjee_kernel_compilations_total 0
# HELP deptest_banerjee_nodes_total Banerjee hierarchy-node evaluations by path.
# TYPE deptest_banerjee_nodes_total counter
deptest_banerjee_nodes_total{path="incremental"} 0
deptest_banerjee_nodes_total{path="scratch"} 0
# HELP deptest_banerjee_combo_cap_fallbacks_total Vertex cross products past the combination cap.
# TYPE deptest_banerjee_combo_cap_fallbacks_total counter
deptest_banerjee_combo_cap_fallbacks_total 0
# HELP deptest_degraded_pairs_total Pairs degraded to the conservative verdict, by guard reason.
# TYPE deptest_degraded_pairs_total counter
deptest_degraded_pairs_total{reason="overflow"} 0
deptest_degraded_pairs_total{reason="exception"} 0
deptest_degraded_pairs_total{reason="budget"} 0
# HELP deptest_engine_registries_total Worker metrics registries merged into this snapshot.
# TYPE deptest_engine_registries_total counter
deptest_engine_registries_total 2
# HELP deptest_engine_shards_total Routine-grain shards dispatched to the work-stealing pool.
# TYPE deptest_engine_shards_total counter
deptest_engine_shards_total 0
# HELP deptest_engine_tasks_total Engine work leaves executed, by worker domain.
# TYPE deptest_engine_tasks_total counter
deptest_engine_tasks_total{domain="0"} 2
# HELP deptest_engine_steals_total Ranges stolen from another worker's deque, by thief domain.
# TYPE deptest_engine_steals_total counter
deptest_engine_steals_total{domain="0"} 0
# HELP deptest_engine_busy_ns_total Nanoseconds inside leaf bodies, by worker domain.
# TYPE deptest_engine_busy_ns_total counter
deptest_engine_busy_ns_total{domain="0"} *
# HELP deptest_engine_queue_wait_ns_total Nanoseconds acquiring work (pop, steal, backoff), by worker domain.
# TYPE deptest_engine_queue_wait_ns_total counter
deptest_engine_queue_wait_ns_total{domain="0"} *
# HELP deptest_serve_request_duration_ns Whole-request daemon latency in nanoseconds, by protocol endpoint.
# TYPE deptest_serve_request_duration_ns histogram
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="100000"} *
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="1000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="10000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="100000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="1000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="10000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="analyze",le="+Inf"} *
deptest_serve_request_duration_ns_sum{endpoint="analyze"} *
deptest_serve_request_duration_ns_count{endpoint="analyze"} *
deptest_serve_request_duration_ns_bucket{endpoint="flush",le="100000"} *
deptest_serve_request_duration_ns_bucket{endpoint="flush",le="1000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="flush",le="10000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="flush",le="100000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="flush",le="1000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="flush",le="10000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="flush",le="+Inf"} *
deptest_serve_request_duration_ns_sum{endpoint="flush"} *
deptest_serve_request_duration_ns_count{endpoint="flush"} *
deptest_serve_request_duration_ns_bucket{endpoint="health",le="100000"} *
deptest_serve_request_duration_ns_bucket{endpoint="health",le="1000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="health",le="10000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="health",le="100000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="health",le="1000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="health",le="10000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="health",le="+Inf"} *
deptest_serve_request_duration_ns_sum{endpoint="health"} *
deptest_serve_request_duration_ns_count{endpoint="health"} *
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="100000"} *
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="1000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="10000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="100000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="1000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="10000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="metrics",le="+Inf"} *
deptest_serve_request_duration_ns_sum{endpoint="metrics"} *
deptest_serve_request_duration_ns_count{endpoint="metrics"} *
deptest_serve_request_duration_ns_bucket{endpoint="shutdown",le="100000"} *
deptest_serve_request_duration_ns_bucket{endpoint="shutdown",le="1000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="shutdown",le="10000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="shutdown",le="100000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="shutdown",le="1000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="shutdown",le="10000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="shutdown",le="+Inf"} *
deptest_serve_request_duration_ns_sum{endpoint="shutdown"} *
deptest_serve_request_duration_ns_count{endpoint="shutdown"} *
deptest_serve_request_duration_ns_bucket{endpoint="slow",le="100000"} *
deptest_serve_request_duration_ns_bucket{endpoint="slow",le="1000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="slow",le="10000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="slow",le="100000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="slow",le="1000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="slow",le="10000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="slow",le="+Inf"} *
deptest_serve_request_duration_ns_sum{endpoint="slow"} *
deptest_serve_request_duration_ns_count{endpoint="slow"} *
deptest_serve_request_duration_ns_bucket{endpoint="top",le="100000"} *
deptest_serve_request_duration_ns_bucket{endpoint="top",le="1000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="top",le="10000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="top",le="100000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="top",le="1000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="top",le="10000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="top",le="+Inf"} *
deptest_serve_request_duration_ns_sum{endpoint="top"} *
deptest_serve_request_duration_ns_count{endpoint="top"} *
deptest_serve_request_duration_ns_bucket{endpoint="trace-last",le="100000"} *
deptest_serve_request_duration_ns_bucket{endpoint="trace-last",le="1000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="trace-last",le="10000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="trace-last",le="100000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="trace-last",le="1000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="trace-last",le="10000000000"} *
deptest_serve_request_duration_ns_bucket{endpoint="trace-last",le="+Inf"} *
deptest_serve_request_duration_ns_sum{endpoint="trace-last"} *
deptest_serve_request_duration_ns_count{endpoint="trace-last"} *
# HELP deptest_serve_answered_total Analyze requests answered, by cache tier (response / memo / cold) or none for non-analyze and failed requests.
# TYPE deptest_serve_answered_total counter
deptest_serve_answered_total{tier="cold"} 1
deptest_serve_answered_total{tier="memo"} 1
deptest_serve_answered_total{tier="none"} 1
deptest_serve_answered_total{tier="response"} 1
# HELP deptest_serve_requests_total Requests handled by the daemon.
# TYPE deptest_serve_requests_total counter
deptest_serve_requests_total 8
# HELP deptest_serve_analyses_total Analyze requests that ran the test cascade.
# TYPE deptest_serve_analyses_total counter
deptest_serve_analyses_total 2
# HELP deptest_serve_response_hits_total Routines answered from the response cache.
# TYPE deptest_serve_response_hits_total counter
deptest_serve_response_hits_total 1
# HELP deptest_serve_response_misses_total Routines the response cache missed, analyzed and rendered.
# TYPE deptest_serve_response_misses_total counter
deptest_serve_response_misses_total 3
# HELP deptest_serve_errors_total Requests answered with an error.
# TYPE deptest_serve_errors_total counter
deptest_serve_errors_total 2
# HELP deptest_serve_protocol_errors_total Connections dropped on a framing, JSON, or version error.
# TYPE deptest_serve_protocol_errors_total counter
deptest_serve_protocol_errors_total 1
# HELP deptest_serve_connections_total Client connections ever accepted.
# TYPE deptest_serve_connections_total counter
deptest_serve_connections_total 2
# HELP deptest_serve_in_flight Requests currently being handled.
# TYPE deptest_serve_in_flight gauge
deptest_serve_in_flight 1
# HELP deptest_serve_uptime_ns Nanoseconds since the daemon started.
# TYPE deptest_serve_uptime_ns gauge
deptest_serve_uptime_ns *
# HELP deptest_serve_traced_requests_total Requests recorded in the slow-request ring ledger.
# TYPE deptest_serve_traced_requests_total counter
deptest_serve_traced_requests_total 4
# HELP deptest_serve_shed_total Analyze requests shed with a structured overloaded response.
# TYPE deptest_serve_shed_total counter
deptest_serve_shed_total 1
# HELP deptest_serve_deadline_exceeded_total Analyze requests shed because their own deadline budget was spent queueing.
# TYPE deptest_serve_deadline_exceeded_total counter
deptest_serve_deadline_exceeded_total 1
# HELP deptest_serve_restarts_total Supervised daemon restarts before this incarnation.
# TYPE deptest_serve_restarts_total counter
deptest_serve_restarts_total 0
# HELP deptest_serve_injected_faults_total Chaos-harness faults the server performed (accept drops, mid-frame closes, response delays).
# TYPE deptest_serve_injected_faults_total counter
deptest_serve_injected_faults_total 1
# HELP deptest_serve_queue_depth Requests waiting in the server's select queue.
# TYPE deptest_serve_queue_depth gauge
deptest_serve_queue_depth 2
|parity}

let test_metrics_output_parity () =
  let m = parity_registry () in
  check Alcotest.string "to_json" expected_parity_json
    (Dt_obs.Json.to_string (Dt_obs.Metrics.to_json m));
  check Alcotest.string "pp" expected_parity_pp
    (Format.asprintf "%a" Dt_obs.Metrics.pp m);
  check Alcotest.string "to_prometheus" expected_parity_prom
    (strip_build_info (Dt_obs.Metrics.to_prometheus m))

(* wall-clock and process-specific values in the daemon's answers *)
let rec mask_json ?(hist = false) (j : Dt_obs.Json.t) : Dt_obs.Json.t =
  let ends_ns k =
    let n = String.length k in
    n >= 3 && String.sub k (n - 3) 3 = "_ns"
  in
  match j with
  | Dt_obs.Json.Obj fields ->
      Dt_obs.Json.Obj
        (List.map
           (fun (k, v) ->
             if ends_ns k || k = "pid" || k = "dir" || (hist && k = "count")
             then (k, Dt_obs.Json.String "*")
             else (k, mask_json ~hist:(k = "latency_hist") v))
           fields)
  | Dt_obs.Json.List l -> Dt_obs.Json.List (List.map (mask_json ~hist) l)
  | v -> v

let mask_prom text =
  String.split_on_char '\n' (strip_build_info text)
  |> List.map (fun l ->
         if l = "" || l.[0] = '#' then l
         else
           let name_end =
             match String.index_opt l '{' with
             | Some i -> i
             | None -> String.index l ' '
           in
           if Astring_contains.contains (String.sub l 0 name_end) "_ns" then
             String.sub l 0 (String.rindex l ' ') ^ " *"
           else l)
  |> String.concat "\n"

let parity_daemon () =
  let module E = Dt_serve.Engine in
  let module P = Dt_serve.Protocol in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dt_obs_parity_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let e = E.create ~jobs:1 ~cache_dir:dir () in
  let src body =
    "      PROGRAM PPAR\n      DO 10 I = 1, 100\n" ^ body
    ^ "   10 CONTINUE\n      END\n"
  in
  let analyze ?deadline_ms ?admission source =
    ignore
      (E.handle ?admission e
         (P.Analyze { source; id = None; trace_id = None; deadline_ms }))
  in
  let a = src "        A(I+1,I+2) = A(I,I) + B(I)\n" in
  E.note_connection e;
  E.note_connection e;
  analyze a;
  analyze a;
  analyze (src "        A(I+1,I+2) = A(I,I) + B(I)\n        C(I) = C(I-1)\n");
  analyze "      PROGRAM BAD\n      DO = = =\n";
  analyze ~deadline_ms:1
    ~admission:{ E.depth = 1; waited_ns = 5_000_000L }
    a;
  E.note_protocol_error e;
  E.note_injected_fault e;
  E.set_queue_depth e 2;
  let health = E.handle e P.Health in
  let json = E.handle e (P.Metrics { prometheus = false }) in
  let prom =
    match Dt_obs.Json.member "prometheus" (E.handle e (P.Metrics { prometheus = true })) with
    | Some (Dt_obs.Json.String s) -> s
    | _ -> Alcotest.fail "metrics --prom answer has no prometheus text"
  in
  ( Dt_obs.Json.to_string (mask_json health),
    Dt_obs.Json.to_string (mask_json json),
    mask_prom prom )

let test_daemon_output_parity () =
  let health, json, prom = parity_daemon () in
  check Alcotest.string "health" expected_daemon_health health;
  check Alcotest.string "metrics json" expected_daemon_json json;
  check Alcotest.string "metrics prometheus" expected_daemon_prom prom

(* --- Trace ------------------------------------------------------------- *)

let test_trace_scope_depth () =
  let sk = Dt_obs.Trace.make () in
  Dt_obs.Trace.emit sk (Dt_obs.Trace.Note "root");
  Dt_obs.Trace.scope sk (fun () ->
      Dt_obs.Trace.emit sk (Dt_obs.Trace.Note "child");
      Dt_obs.Trace.scope sk (fun () ->
          Dt_obs.Trace.emit sk (Dt_obs.Trace.Note "grandchild")));
  Dt_obs.Trace.emit sk (Dt_obs.Trace.Note "root2");
  check
    Alcotest.(list int)
    "depths" [ 0; 1; 2; 0 ]
    (List.map fst (Dt_obs.Trace.events_with_depth sk));
  match Dt_obs.Trace.tree sk with
  | [ r1; r2 ] ->
      check Alcotest.int "r1 children" 1 (List.length r1.Dt_obs.Trace.children);
      check Alcotest.int "r2 children" 0 (List.length r2.Dt_obs.Trace.children)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 roots, got %d" (List.length l))

let test_trace_scope_exception_safe () =
  let sk = Dt_obs.Trace.make () in
  (try
     Dt_obs.Trace.scope sk (fun () ->
         Dt_obs.Trace.emit sk (Dt_obs.Trace.Note "in");
         failwith "boom")
   with Failure _ -> ());
  Dt_obs.Trace.emit sk (Dt_obs.Trace.Note "after");
  check
    Alcotest.(list int)
    "depth restored" [ 1; 0 ]
    (List.map fst (Dt_obs.Trace.events_with_depth sk))

(* a strong-SIV pair must produce exactly one Strong_siv test event with
   the explain-why reason *)
let strong_siv_events ~src_c =
  let sink = Dt_obs.Trace.make () in
  let loops = loops1 ~hi:100 () in
  let src = Aref.linear "A" [ av ~c:src_c i0 ] in
  let snk = Aref.linear "A" [ av i0 ] in
  let r =
    Deptest.Pair_test.test ~sink ~src:(src, loops) ~snk:(snk, loops) ()
  in
  (r, Dt_obs.Trace.events sink)

let test_trace_strong_siv_independent () =
  let r, events = strong_siv_events ~src_c:200 in
  check Alcotest.bool "independent" true
    (r.Deptest.Pair_test.result = `Independent);
  check Alcotest.bool "proved by strong SIV" true
    (r.Deptest.Pair_test.meta.Deptest.Pair_test.proved_by
    = Some Dt_obs.Test_kind.Strong_siv);
  let tests =
    List.filter_map
      (function
        | Dt_obs.Trace.Test { kind = Dt_obs.Test_kind.Strong_siv; _ } as e ->
            Some e
        | _ -> None)
      events
  in
  match tests with
  | [ Dt_obs.Trace.Test { verdict; reason; _ } ] ->
      check Alcotest.bool "verdict independent" true
        (verdict = Dt_obs.Trace.Independent);
      check Alcotest.string "reason" "distance 200 > U-L = 99" reason
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected exactly 1 Strong_siv event, got %d"
           (List.length l))

let test_trace_strong_siv_dependent () =
  let r, events = strong_siv_events ~src_c:4 in
  check Alcotest.bool "dependent" true
    (r.Deptest.Pair_test.result <> `Independent);
  let tests =
    List.filter
      (function
        | Dt_obs.Trace.Test { kind = Dt_obs.Test_kind.Strong_siv; _ } -> true
        | _ -> false)
      events
  in
  check Alcotest.int "exactly one Strong_siv event" 1 (List.length tests)

let test_trace_delta_group_nested () =
  (* A(I+1, I+2) vs A(I, I): coupled group, Delta proves independence via
     contradictory distance constraints *)
  let sink = Dt_obs.Trace.make () in
  let loops = loops1 ~hi:100 () in
  let src = Aref.linear "A" [ av ~c:1 i0; av ~c:2 i0 ] in
  let snk = Aref.linear "A" [ av i0; av i0 ] in
  let r =
    Deptest.Pair_test.test ~sink ~src:(src, loops) ~snk:(snk, loops) ()
  in
  check Alcotest.bool "independent" true
    (r.Deptest.Pair_test.result = `Independent);
  check Alcotest.bool "proved by Delta" true
    (r.Deptest.Pair_test.meta.Deptest.Pair_test.proved_by
    = Some Dt_obs.Test_kind.Delta_test);
  let events = Dt_obs.Trace.events_with_depth sink in
  check Alcotest.bool "has a coupled Group_start" true
    (List.exists
       (function _, Dt_obs.Trace.Group_start _ -> true | _ -> false)
       events);
  (* delta-internal events sit strictly deeper than the group marker *)
  let group_depth =
    List.find_map
      (function d, Dt_obs.Trace.Group_start _ -> Some d | _ -> None)
      events
  in
  let pass_depth =
    List.find_map
      (function d, Dt_obs.Trace.Pass _ -> Some d | _ -> None)
      events
  in
  match (group_depth, pass_depth) with
  | Some g, Some p -> check Alcotest.bool "pass nested under group" true (p > g)
  | _ -> Alcotest.fail "missing Group_start or Pass event"

let test_trace_jsonl_parses () =
  let sink = Dt_obs.Trace.make () in
  let loops = loops1 ~hi:100 () in
  let src = Aref.linear "A" [ av ~c:1 i0; av ~c:2 i0 ] in
  let snk = Aref.linear "A" [ av i0; av i0 ] in
  ignore (Deptest.Pair_test.test ~sink ~src:(src, loops) ~snk:(snk, loops) ());
  let lines =
    String.split_on_char '\n' (Dt_obs.Trace.to_jsonl sink)
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.bool "nonempty" true (lines <> []);
  List.iteri
    (fun i line ->
      match Dt_obs.Json.of_string line with
      | Error e -> Alcotest.fail ("line did not parse: " ^ e)
      | Ok v ->
          check Alcotest.bool "seq" true
            (Dt_obs.Json.member "seq" v = Some (Dt_obs.Json.Int i));
          check Alcotest.bool "has type" true
            (Dt_obs.Json.member "type" v <> None);
          check Alcotest.bool "has depth" true
            (Dt_obs.Json.member "depth" v <> None))
    lines

(* the analyze layer wraps each pair in Pair_start .. Verdict *)
let test_trace_analyze_verdicts () =
  let prog =
    match
      Dt_frontend.Lower.parse_unit
        {|
      PROGRAM POBS
      DO 10 I = 1, 100
        A(I+1) = A(I) + B(I)
   10 CONTINUE
      END
|}
    with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected one routine"
  in
  let sink = Dt_obs.Trace.make () in
  let metrics = Dt_obs.Metrics.create () in
  (* cache off: the assertions below want the full test narrative, not
     a memo-cache note *)
  let r =
    Deptest.Analyze.run
      (Deptest.Analyze.Config.make ~metrics ~sink ~cache:false ())
      prog
  in
  let events = Dt_obs.Trace.events sink in
  let count f = List.length (List.filter f events) in
  let pairs = List.length r.Deptest.Analyze.pairs in
  check Alcotest.bool "tested some pairs" true (pairs > 0);
  check Alcotest.int "one Pair_start per pair" pairs
    (count (function Dt_obs.Trace.Pair_start _ -> true | _ -> false));
  check Alcotest.int "one Verdict per pair" pairs
    (count (function Dt_obs.Trace.Verdict _ -> true | _ -> false));
  check Alcotest.int "pair latency observed" pairs (Dt_obs.Metrics.pairs metrics);
  (* counters and metrics agree on applied counts *)
  List.iter
    (fun k ->
      check Alcotest.int
        ("applied agrees: " ^ Deptest.Counters.kind_name k)
        (Deptest.Counters.applied r.Deptest.Analyze.counters k)
        (Dt_obs.Metrics.applied metrics k))
    Deptest.Counters.all_kinds;
  (* ... and the trace agrees with both, cache off: one [Test] event per
     test applied, one [Group_start] per Delta application, on the
     corpus under both strategies *)
  List.iter
    (fun (name, strategy) ->
      let sink = Dt_obs.Trace.make () in
      let cfg =
        Deptest.Analyze.Config.make ~strategy ~sink ~cache:false ()
      in
      let counters = Deptest.Counters.create () in
      List.iter
        (fun (e : Dt_workloads.Corpus.entry) ->
          List.iter
            (fun (r : Deptest.Analyze.result) ->
              Deptest.Counters.merge_into counters r.Deptest.Analyze.counters)
            (Deptest.Analyze.run_all cfg (Dt_workloads.Corpus.programs e)))
        Dt_workloads.Corpus.all;
      let events = Dt_obs.Trace.events sink in
      let count f = List.length (List.filter f events) in
      List.iter
        (fun k ->
          let traced =
            match k with
            | Deptest.Counters.Delta_test ->
                count (function Dt_obs.Trace.Group_start _ -> true | _ -> false)
            | k ->
                count (function
                  | Dt_obs.Trace.Test { kind; _ } -> kind = k
                  | _ -> false)
          in
          check Alcotest.int
            (Printf.sprintf "%s: traced agrees: %s" name
               (Deptest.Counters.kind_name k))
            (Deptest.Counters.applied counters k)
            traced)
        Deptest.Counters.all_kinds)
    [ ("partition", Deptest.Pair_test.Partition_based);
      ("subscript-wise", Deptest.Pair_test.Subscript_by_subscript) ]

let suite =
  [
    Alcotest.test_case "test-kind ids are positional" `Quick test_kind_ids;
    Alcotest.test_case "test-kind slug round-trip" `Quick test_kind_slugs;
    Alcotest.test_case "counters kind_id matches" `Quick test_counters_kind_id;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json escape parsing" `Quick test_json_parse_escapes;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json codec table" `Quick test_json_table;
    prop_json_escape_oracle;
    prop_json_roundtrip;
    Alcotest.test_case "metrics record/applied" `Quick test_metrics_record;
    Alcotest.test_case "metrics latency histogram" `Quick
      test_metrics_latency_hist;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "metrics banerjee counters" `Quick
      test_metrics_banerjee_counters;
    Alcotest.test_case "metrics json round-trip" `Quick
      test_metrics_json_roundtrip;
    Alcotest.test_case "metrics output parity" `Quick
      test_metrics_output_parity;
    Alcotest.test_case "daemon metrics output parity" `Quick
      test_daemon_output_parity;
    Alcotest.test_case "trace scope depths and tree" `Quick
      test_trace_scope_depth;
    Alcotest.test_case "trace scope exception-safe" `Quick
      test_trace_scope_exception_safe;
    Alcotest.test_case "strong SIV independent: one event, reason" `Quick
      test_trace_strong_siv_independent;
    Alcotest.test_case "strong SIV dependent: one event" `Quick
      test_trace_strong_siv_dependent;
    Alcotest.test_case "delta group events nest" `Quick
      test_trace_delta_group_nested;
    Alcotest.test_case "jsonl export parses line by line" `Quick
      test_trace_jsonl_parses;
    Alcotest.test_case "analyze emits pair spans; metrics agree" `Quick
      test_trace_analyze_verdicts;
    prop_json_total;
  ]
