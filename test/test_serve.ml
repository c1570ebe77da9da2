(* Tests for the serve stack: length-prefixed framing, the disk-backed
   store of rendered routines (round-trip, eviction, the
   corruption-tolerance matrix), the never-persist-degraded guarantee,
   the wire protocol, and an in-process daemon end-to-end — including
   the byte-identity of daemon answers vs in-process analysis, cold and
   warm. *)

module Json = Dt_obs.Json
module Store = Dt_engine.Store
module Frame = Dt_support.Frame

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let tmpdir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dt_serve_test_%d_%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let src =
  "      PROGRAM TSERVE\n\
  \      DO 20 I = 2, N\n\
  \        DO 10 J = 2, N\n\
  \          A(I,J) = A(I-1,J) + A(I,J-1)\n\
  \   10   CONTINUE\n\
  \   20 CONTINUE\n\
  \      END\n"

let in_process_output () =
  let progs = Dt_frontend.Lower.parse_unit src in
  let cfg = Deptest.Analyze.Config.make () in
  let results = Deptest.Analyze.run_all cfg progs in
  fst (Dt_serve.Render.unit_ progs results)

(* --- Frame ------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payloads = [ ""; "x"; String.make 70_000 'q'; "{\"op\":\"health\"}" ] in
  List.iter (fun p -> Frame.write a p) payloads;
  List.iter
    (fun expected ->
      match Frame.read b with
      | Some got -> check string "frame payload" expected got
      | None -> Alcotest.fail "unexpected EOF")
    payloads;
  Unix.close a;
  check bool "clean EOF at frame boundary" true (Frame.read b = None);
  Unix.close b

let test_frame_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a length prefix promising more bytes than ever arrive *)
  let buf = Bytes.create 4 in
  Bytes.set_int32_be buf 0 99l;
  ignore (Unix.write a buf 0 4);
  ignore (Unix.write_substring a "short" 0 5);
  Unix.close a;
  check bool "truncated frame raises" true
    (match Frame.read b with
    | exception Failure _ -> true
    | _ -> false);
  Unix.close b

let test_frame_read_r () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Frame.write a "payload";
  check bool "read_r round-trips" true (Frame.read_r b = Ok (Some "payload"));
  (* an oversized length prefix is an Error carrying the length, without
     reading (or waiting for) the promised bytes *)
  let buf = Bytes.create 4 in
  Bytes.set_int32_be buf 0 (Int32.of_int (Frame.max_frame + 1));
  ignore (Unix.write a buf 0 4);
  check bool "oversize is typed" true
    (Frame.read_r b = Error (Frame.Oversize (Frame.max_frame + 1)));
  Unix.close a;
  check bool "EOF after error is clean" true (Frame.read_r b = Ok None);
  Unix.close b

(* --- Store ------------------------------------------------------------ *)

let fp = "test-fingerprint"

(* an independent writer of the segment format: schema line,
   fingerprint line, MD5 hex of the body, then per entry
   "KLEN VLEN\n" KEY VALUE *)
let segment_text ~schema ~fingerprint entries =
  let body =
    String.concat ""
      (List.map
         (fun (k, v) ->
           Printf.sprintf "%d %d\n%s%s" (String.length k) (String.length v) k v)
         entries)
  in
  String.concat "\n"
    [ schema; fingerprint; Digest.to_hex (Digest.string body); body ]

(* the offset of the first [sub] in [s] *)
let index_of s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then
      Alcotest.failf "%S not found in the segment" sub
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

let test_store_roundtrip () =
  let dir = tmpdir () in
  let s = Store.open_ ~dir ~fingerprint:fp () in
  Store.add s "a" "1";
  Store.add s "b" "two";
  check bool "find hit" true (Store.find s "a" = Some "1");
  check bool "find miss" true (Store.find s "nope" = None);
  check int "one hit" 1 (Store.hits s);
  check int "one miss" 1 (Store.misses s);
  check int "resident bytes" 6 (Store.resident_bytes s);
  check int "persisted" 2 (Store.flush s);
  check int "one segment after compacting flush" 1 (Store.segments s);
  check string "segment bytes"
    (segment_text ~schema:Store.schema_version ~fingerprint:fp
       [ ("a", "1"); ("b", "two") ])
    (read_file (Filename.concat dir "seg-0.bin"));
  (* unchanged store: flush is a no-op, same segment count *)
  ignore (Store.flush s);
  check int "still one segment" 1 (Store.segments s);
  let s2 = Store.open_ ~dir ~fingerprint:fp () in
  check int "reloaded entries" 2 (Store.length s2);
  check bool "value survives" true (Store.find s2 "b" = Some "two");
  check int "nothing invalid" 0 (Store.invalid s2);
  check int "resident bytes after reopen" 6 (Store.resident_bytes s2);
  (* fold respects insertion order *)
  let keys = Store.fold s2 ~init:[] ~f:(fun acc k _ -> k :: acc) in
  check (Alcotest.list string) "insertion order" [ "a"; "b" ] (List.rev keys)

let test_store_eviction () =
  let dir = tmpdir () in
  let s = Store.open_ ~dir ~fingerprint:fp ~capacity:2 () in
  Store.add s "a" "1";
  Store.add s "b" "2";
  Store.add s "c" "3";
  check int "capacity held" 2 (Store.length s);
  check int "one eviction" 1 (Store.evictions s);
  check bool "oldest gone" true (Store.find s "a" = None);
  check int "evicted bytes released" 4 (Store.resident_bytes s);
  ignore (Store.flush s);
  let s2 = Store.open_ ~dir ~fingerprint:fp ~capacity:2 () in
  check int "eviction durable" 2 (Store.length s2);
  check bool "newest kept" true (Store.find s2 "c" = Some "3")

(* The bytes round-trip: random add / replace / remove / flush / reopen
   sequences, under a random FIFO capacity, against a model list in
   insertion order. Keys and values hold the bytes a framing bug would
   trip on; the model is also what the last flush made durable. *)
type store_op =
  | Add of string * string
  | Remove of string
  | Flush
  | Reopen  (* without a flush: back to the last flushed state *)

let big_value =
  String.init ((1 lsl 20) + 3) (fun i -> "\n \"\\\000ab".[i mod 7])

let awkward = [ ""; "\n"; " "; "\""; "\\"; "\000"; "1 2\n"; "a\nb c\"d\\e\000f" ]

let gen_bytes =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl awkward);
        ( 2,
          string_size
            ~gen:(oneofl [ '\n'; ' '; '"'; '\\'; '\000'; 'a'; '7' ])
            (int_range 0 12) );
      ])

let gen_store_case =
  let open QCheck.Gen in
  let key = frequency [ (4, oneofl (awkward @ [ "p:x"; "r:y" ])); (1, gen_bytes) ] in
  let value = frequency [ (1, return big_value); (60, gen_bytes) ] in
  let op =
    frequency
      [
        (6, map2 (fun k v -> Add (k, v)) key value);
        (2, map (fun k -> Remove k) key);
        (1, return Flush);
        (1, return Reopen);
      ]
  in
  pair (opt (int_range 1 6)) (list_size (int_range 0 30) op)

let print_store_case (capacity, ops) =
  let b s =
    if String.length s > 40 then Printf.sprintf "<%d bytes>" (String.length s)
    else Printf.sprintf "%S" s
  in
  Printf.sprintf "capacity %s: %s"
    (match capacity with None -> "none" | Some c -> string_of_int c)
    (String.concat "; "
       (List.map
          (function
            | Add (k, v) -> Printf.sprintf "add %s %s" (b k) (b v)
            | Remove k -> "remove " ^ b k
            | Flush -> "flush"
            | Reopen -> "reopen")
          ops))

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let store_bytes_law (capacity, ops) =
  let dir = tmpdir () in
  let open_ () = Store.open_ ~dir ~fingerprint:fp ?capacity () in
  let s = ref (open_ ()) in
  let model = ref [] and flushed = ref [] in
  let add k v =
    if List.mem_assoc k !model then
      model := List.map (fun (k', v') -> (k', if k' = k then v else v')) !model
    else begin
      model := !model @ [ (k, v) ];
      match capacity with
      | Some c when List.length !model > c -> model := List.tl !model
      | _ -> ()
    end
  in
  let agrees () =
    let bytes =
      List.fold_left
        (fun n (k, v) -> n + String.length k + String.length v)
        0 !model
    in
    List.rev (Store.fold !s ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
    = !model
    && List.for_all (fun (k, v) -> Store.find !s k = Some v) !model
    && List.for_all
         (fun k -> List.mem_assoc k !model || Store.find !s k = None)
         awkward
    && Store.length !s = List.length !model
    && Store.resident_bytes !s = bytes
    && Store.invalid !s = 0
  in
  let ok =
    List.for_all
      (fun op ->
        (match op with
        | Add (k, v) ->
            Store.add !s k v;
            add k v
        | Remove k ->
            Store.remove !s k;
            model := List.remove_assoc k !model
        | Flush ->
            ignore (Store.flush !s);
            flushed := !model
        | Reopen ->
            s := open_ ();
            model := !flushed);
        agrees ())
      ops
  in
  rm_rf dir;
  ok

let prop_store_bytes =
  Helpers.qtest ~count:100 "store bytes round-trip"
    (QCheck.make ~print:print_store_case gen_store_case)
    store_bytes_law

(* the same law on a pinned sequence, so every run holds a value of at
   least 1 MB across a replace, an eviction, a flush and a reopen *)
let test_store_big_value () =
  check bool "1 MB value round-trips" true
    (store_bytes_law
       ( Some 2,
         [
           Add ("\n", big_value);
           Add ("", "\000");
           Flush;
           Reopen;
           Add ("\n", "short");
           Add ("\n", big_value);
           Remove "";
           Add ("a b", "\"\\");
           Flush;
           Reopen;
           Add ("c", "");
           Flush;
           Reopen;
         ] ))

(* the corruption matrix: each case must load as a cold start with the
   damage counted, never a wrong value *)
let corrupt_case name damage =
  let dir = tmpdir () in
  let s = Store.open_ ~dir ~fingerprint:fp () in
  Store.add s "k" "v";
  ignore (Store.flush s);
  let seg = Filename.concat dir "seg-0.bin" in
  damage dir seg;
  let s2 = Store.open_ ~dir ~fingerprint:fp () in
  check int (name ^ ": cold start") 0 (Store.length s2);
  check bool (name ^ ": invalid counted") true (Store.invalid s2 >= 1);
  (* the store stays usable after degrading *)
  Store.add s2 "k2" "7";
  ignore (Store.flush s2);
  let s3 = Store.open_ ~dir ~fingerprint:fp () in
  check bool (name ^ ": rebuilt clean") true
    (Store.find s3 "k2" = Some "7" && Store.invalid s3 = 0)

let test_store_truncated () =
  corrupt_case "truncated" (fun _dir seg ->
      let full = read_file seg in
      write_file seg (String.sub full 0 (String.length full / 2)))

let test_store_garbage () =
  corrupt_case "garbage" (fun _dir seg -> write_file seg "not json at all {")

let test_store_wrong_schema () =
  (* a future schema, and an older one, each in an otherwise well-formed
     segment *)
  List.iter
    (fun schema ->
      corrupt_case ("wrong schema " ^ schema) (fun _dir seg ->
          write_file seg
            (segment_text ~schema ~fingerprint:fp [ ("k", "v") ])))
    [ "deptest-diskcache/999"; "deptest-diskcache/1" ];
  (* a version-2 JSON segment left by the previous format: counted
     invalid and removed, never read *)
  let v2 = ref "" in
  corrupt_case "version-2 JSON segment" (fun dir seg ->
      Sys.remove seg;
      v2 := Filename.concat dir "seg-0.json";
      write_file !v2
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.String "deptest-diskcache/2");
                ("fingerprint", Json.String fp);
                ( "entries",
                  Json.List [ Json.List [ Json.String "k"; Json.String "v" ] ]
                );
              ])));
  check bool "version-2 segment removed" false (Sys.file_exists !v2)

let test_store_wrong_fingerprint () =
  let dir = tmpdir () in
  let s = Store.open_ ~dir ~fingerprint:"config-A" () in
  Store.add s "k" "v";
  ignore (Store.flush s);
  (* a different config fingerprint must not see config-A's verdicts *)
  let s2 = Store.open_ ~dir ~fingerprint:"config-B" () in
  check int "stale segment rejected" 0 (Store.length s2);
  check int "counted invalid" 1 (Store.invalid s2)

let test_store_tmp_leftover () =
  corrupt_case "tmp leftover" (fun dir seg ->
      (* crashed mid-write: an orphan temp next to a segment that was
         deleted before the rename landed *)
      Sys.remove seg;
      write_file (Filename.concat dir "seg-1.bin.tmp") "partial")

(* A stored routine's distance changed on disk in place, same length,
   so only the checksum can see it: the damaged segment is counted and
   dropped, and the answer is the cold one, never the changed distance. *)
let test_store_flipped_verdict () =
  let dir = tmpdir () in
  let baseline = in_process_output () in
  let e = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  (match Dt_serve.Engine.analyze_source e src with
  | Ok (out, _) -> check string "cold through the store = in-process" baseline out
  | Error msg -> Alcotest.fail msg);
  check int "one routine flushed" 1 (Dt_serve.Engine.flush e);
  let seg = Filename.concat dir "seg-0.bin" in
  let text = read_file seg in
  let d1 = "d_I=1" in
  let at = index_of text d1 in
  write_file seg
    (String.sub text 0 at ^ "d_I=3"
    ^ String.sub text (at + String.length d1)
        (String.length text - at - String.length d1));
  let e2 = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  let store2 = Option.get (Dt_serve.Engine.store e2) in
  check int "damaged segment counted invalid" 1 (Store.invalid store2);
  check int "store starts cold" 0 (Store.length store2);
  match Dt_serve.Engine.analyze_source e2 src with
  | Ok (out, _) -> check string "warm answer = cold answer" baseline out
  | Error msg -> Alcotest.fail msg

(* Cross-run counts over the 87 corpus units through the daemon's engine
   (one job, so the counts are deterministic): one entry per routine —
   89, since solver_pipeline has three routines and every other unit
   one. *)
let test_store_corpus_cross_run () =
  let dir = tmpdir () in
  let run e =
    List.map
      (fun (u : Dt_workloads.Corpus.entry) ->
        match Dt_serve.Engine.analyze_source e u.Dt_workloads.Corpus.source with
        | Ok (out, _) -> out
        | Error msg -> Alcotest.fail msg)
      Dt_workloads.Corpus.all
  in
  let e = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  let cold = run e in
  let s = Option.get (Dt_serve.Engine.store e) in
  check int "corpus units" 87 (List.length cold);
  (* the corpus answers' digest, recorded by the serve bench before this
     check moved here: any change to a corpus verdict or to rendering
     moves it *)
  check string "corpus answers digest" "b4c35e5b36a48b13f511cebc1ee49251"
    (Digest.to_hex (Digest.string (String.concat "\x00" cold)));
  check int "cold run: disk hits" 0 (Store.hits s);
  check int "cold run: disk misses" 89 (Store.misses s);
  check int "cold run: entries" 89 (Store.length s);
  check int "flushed" 89 (Dt_serve.Engine.flush e);
  let e2 = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  let s2 = Option.get (Dt_serve.Engine.store e2) in
  check int "reopened entries" 89 (Store.length s2);
  check int "reopened resident bytes" (Store.resident_bytes s)
    (Store.resident_bytes s2);
  let warm = run e2 in
  check int "reopened: response hits" 89 (Store.hits s2);
  check int "reopened: misses" 0 (Store.misses s2);
  check int "nothing invalid" 0 (Store.invalid s2);
  check (Alcotest.list string) "answers byte-identical across the reopen"
    cold warm

let one_shot source =
  let progs = Dt_frontend.Lower.parse_unit source in
  fst
    (Dt_serve.Render.unit_ progs
       (Deptest.Analyze.run_all (Deptest.Analyze.Config.make ~jobs:1 ()) progs))

let rec json_path keys j =
  match keys with
  | [] -> j
  | k :: rest -> (
      match Json.member k j with
      | Some v -> json_path rest v
      | None -> Alcotest.failf "no %s in the answer" k)

let int_at e op keys =
  match json_path keys (Dt_serve.Engine.handle e op) with
  | Json.Int n -> n
  | _ -> Alcotest.failf "%s is not an int" (String.concat "." keys)

let serve_count e k = int_at e (Dt_serve.Protocol.Metrics { prometheus = false }) [ "serve"; k ]

let answered e tier =
  int_at e (Dt_serve.Protocol.Metrics { prometheus = false })
    [ "metrics"; "serve"; "answered"; tier ]

let memo e k = int_at e Dt_serve.Protocol.Health [ "cache"; k ]

let test_degraded_never_persisted () =
  (* deadline 0 deterministically degrades every pair: none reaches the
     memo, so the same memo then answers as if cold *)
  let progs = Dt_frontend.Lower.parse_unit src in
  let cfg = Deptest.Analyze.Config.make ~jobs:1 () in
  let results =
    Deptest.Analyze.run_all (Deptest.Analyze.Config.with_deadline_ms (Some 0) cfg) progs
  in
  let _, degraded = Dt_serve.Render.unit_ progs results in
  check bool "run did degrade" true (degraded > 0);
  check (Alcotest.option (Alcotest.pair int int)) "no degraded entry reached the memo"
    (Some (0, 0)) (Deptest.Analyze.Config.cache_usage cfg);
  check string "the same memo then answers as one-shot" (in_process_output ())
    (fst (Dt_serve.Render.unit_ progs (Deptest.Analyze.run_all cfg progs)));
  (* through the engine, on a unit of two routines: injected faults
     degrade TSERVE's pairs, and QUIET has no statement to pair (jobs 1:
     the inject harness is single-domain only) *)
  let quiet = "      SUBROUTINE QUIET\n   10 CONTINUE\n      END\n" in
  let unit_ = src ^ quiet in
  let e = Dt_serve.Engine.create ~jobs:1 ~cache_dir:(tmpdir ()) () in
  let store = Option.get (Dt_serve.Engine.store e) in
  Dt_guard.Inject.enable ~period:2 [ Dt_guard.Inject.Exception ];
  Fun.protect ~finally:Dt_guard.Inject.disable (fun () ->
      match Dt_serve.Engine.analyze_source e unit_ with
      | Ok (_, degraded) ->
          check bool "the engine run degraded" true (degraded > 0)
      | Error msg -> Alcotest.fail msg);
  check (Alcotest.list string) "only the undegraded routine is stored"
    [ "rn:" ^ Digest.to_hex (Digest.string quiet) ]
    (Store.fold store ~init:[] ~f:(fun acc k _ -> k :: acc));
  let misses = serve_count e "response_misses" in
  (match Dt_serve.Engine.analyze_source e unit_ with
  | Ok (out, degraded) ->
      check int "the next request degrades nothing" 0 degraded;
      check string "and answers as one-shot" (one_shot unit_) out
  | Error msg -> Alcotest.fail msg);
  check int "it recomputes only the degraded routine" (misses + 1)
    (serve_count e "response_misses");
  check int "and hits its sibling" 1 (serve_count e "response_hits")

let test_injected_fault_never_persisted () =
  let dir = tmpdir () in
  let baseline = in_process_output () in
  (* sequential: the inject harness is single-domain only *)
  let e = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  Dt_guard.Inject.enable ~period:2 [ Dt_guard.Inject.Exception ];
  Fun.protect ~finally:Dt_guard.Inject.disable (fun () ->
      match Dt_serve.Engine.analyze_source e src with
      | Ok (_, degraded) ->
          check bool "faults fired and degraded pairs" true (degraded > 0)
      | Error msg -> Alcotest.fail msg);
  check int "flush persists nothing" 0 (Dt_serve.Engine.flush e);
  (* a persisted degraded routine would replay into this warm run and
     poison it; byte-equality with the clean baseline proves the fault
     run persisted nothing degraded *)
  let e2 = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  match Dt_serve.Engine.analyze_source e2 src with
  | Ok (warm, degraded) ->
      check int "the reopened run degrades nothing" 0 degraded;
      check string "warm run after fault run = clean baseline" baseline warm
  | Error msg -> Alcotest.fail msg

(* --- protocol --------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let reqs =
    [
      Dt_serve.Protocol.Analyze
        { source = src; id = Some "req-1"; trace_id = Some "0123456789abcdef"; deadline_ms = None };
      Dt_serve.Protocol.Analyze { source = ""; id = None; trace_id = None; deadline_ms = None };
      Dt_serve.Protocol.Metrics { prometheus = true };
      Dt_serve.Protocol.Metrics { prometheus = false };
      Dt_serve.Protocol.Health;
      Dt_serve.Protocol.Slow { n = Some 5 };
      Dt_serve.Protocol.Slow { n = None };
      Dt_serve.Protocol.Top { n = Some 3 };
      Dt_serve.Protocol.Trace_last { trace_id = Some "0123456789abcdef" };
      Dt_serve.Protocol.Trace_last { trace_id = None };
      Dt_serve.Protocol.Flush;
      Dt_serve.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match
        Dt_serve.Protocol.request_of_json (Dt_serve.Protocol.request_to_json r)
      with
      | Ok r' -> check bool "request round-trips" true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  check bool "unknown op rejected" true
    (Result.is_error
       (Dt_serve.Protocol.request_of_json
          (Json.Obj [ ("op", Json.String "frobnicate") ])))

let test_protocol_version () =
  (* absent "v" reads as v1 — the PR 8 wire format keeps working *)
  check bool "v1 (no v field) accepted" true
    (Dt_serve.Protocol.request_of_json (Json.Obj [ ("op", Json.String "health") ])
    = Ok Dt_serve.Protocol.Health);
  (* a v1 analyze has no trace id *)
  (match
     Dt_serve.Protocol.request_of_json
       (Json.Obj
          [ ("op", Json.String "analyze"); ("source", Json.String "X") ])
   with
  | Ok (Dt_serve.Protocol.Analyze { trace_id = None; _ }) -> ()
  | other ->
      Alcotest.failf "v1 analyze misparsed: %s"
        (match other with Ok _ -> "some other request" | Error e -> e));
  (* a future version is refused loudly, never misread *)
  match
    Dt_serve.Protocol.request_of_json
      (Json.Obj [ ("op", Json.String "health"); ("v", Json.Int 99) ])
  with
  | Error e ->
      check bool "refusal names the version" true
        (Astring_contains.contains e "version")
  | Ok _ -> Alcotest.fail "future protocol version accepted"

(* --- engine ----------------------------------------------------------- *)

let test_engine_response_cache () =
  let dir = tmpdir () in
  let e = Dt_serve.Engine.create ~cache_dir:dir () in
  let baseline = in_process_output () in
  (match Dt_serve.Engine.analyze_source e src with
  | Ok (out, degraded) ->
      check string "engine = in-process" baseline out;
      check int "nothing degraded" 0 degraded
  | Error msg -> Alcotest.fail msg);
  let store = Option.get (Dt_serve.Engine.store e) in
  let hits0 = Store.hits store in
  (match Dt_serve.Engine.analyze_source e src with
  | Ok (out, _) -> check string "second pass identical" baseline out
  | Error msg -> Alcotest.fail msg);
  check bool "second pass hit the response tier" true (Store.hits store > hits0);
  (* parse errors become Error, not exceptions *)
  check bool "bad source is an error" true
    (Result.is_error (Dt_serve.Engine.analyze_source e "DO 10 WAT"))

(* Answer [src] on an engine over [dir], flush, and flip one byte inside
   the stored answer in the segment: a damaged answer in an otherwise
   well-formed segment, which only the checksum can see. *)
let damage_stored_answer dir baseline =
  let e = Dt_serve.Engine.create ~cache_dir:dir () in
  (match Dt_serve.Engine.analyze_source e src with
  | Ok (out, _) -> check string "first answer = in-process" baseline out
  | Error msg -> Alcotest.fail msg);
  ignore (Dt_serve.Engine.flush e);
  let seg = Filename.concat dir "seg-0.bin" in
  let text = Bytes.of_string (read_file seg) in
  let stored = Json.escape baseline in
  let at = index_of (Bytes.to_string text) stored + (String.length stored / 2) in
  Bytes.set text at (Char.chr (Char.code (Bytes.get text at) lxor 1));
  write_file seg (Bytes.to_string text)

let test_engine_invalid_response_entry () =
  let dir = tmpdir () in
  let baseline = in_process_output () in
  damage_stored_answer dir baseline;
  (* the reopened engine must count the damage, start cold and answer
     with identical output *)
  let e = Dt_serve.Engine.create ~cache_dir:dir () in
  let store = Option.get (Dt_serve.Engine.store e) in
  check int "segment counted invalid" 1 (Store.invalid store);
  check int "store starts cold" 0 (Store.length store);
  (match Dt_serve.Engine.analyze_source e src with
  | Ok (out, _) -> check string "fallback output identical" baseline out
  | Error msg -> Alcotest.fail msg);
  (* the recomputed answer was persisted again *)
  let hits = Store.hits store in
  (match Dt_serve.Engine.analyze_source e src with
  | Ok (out, _) -> check string "re-persisted output identical" baseline out
  | Error msg -> Alcotest.fail msg);
  check bool "next request hits the response tier" true
    (Store.hits store > hits);
  check int "nothing more counted invalid" 1 (Store.invalid store)

(* on the daemon path too, a damaged stored answer is counted, never
   served, and replaced by the recomputed answer *)
let test_engine_invalid_response_repersisted () =
  let analyze e =
    match
      Dt_serve.Engine.handle e
        (Dt_serve.Protocol.Analyze
           { source = src; id = None; trace_id = None; deadline_ms = None })
    with
    | Json.Obj _ as resp when Json.member "ok" resp = Some (Json.Bool true) ->
        Json.member "output" resp
    | _ -> Alcotest.fail "analyze failed"
  in
  let response_hits e =
    match
      Json.member "serve"
        (Dt_serve.Engine.handle e
           (Dt_serve.Protocol.Metrics { prometheus = false }))
    with
    | Some serve -> (
        match Json.member "response_hits" serve with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.fail "no response_hits")
    | None -> Alcotest.fail "no serve block"
  in
  let dir = tmpdir () in
  let baseline = in_process_output () in
  damage_stored_answer dir baseline;
  let e = Dt_serve.Engine.create ~cache_dir:dir () in
  let store = Option.get (Dt_serve.Engine.store e) in
  check int "the reopen counts the segment invalid" 1 (Store.invalid store);
  check bool "first answer = baseline" true
    (analyze e = Some (Json.String baseline));
  check int "first request is not a response hit" 0 (response_hits e);
  check bool "second answer = baseline" true
    (analyze e = Some (Json.String baseline));
  check int "second request is a response hit" 1 (response_hits e);
  check int "nothing more counted invalid" 1 (Store.invalid store)

(* the build label is part of the store fingerprint: a store flushed by
   one build reads as invalid, and empty, under another *)
let test_store_fingerprint_build () =
  let fp_a = Dt_serve.Engine.store_fingerprint ~build:"v1.0-3-gabc" in
  let fp_b = Dt_serve.Engine.store_fingerprint ~build:"v1.0-4-gdef" in
  check bool "two builds, two fingerprints" true (fp_a <> fp_b);
  check string "the fingerprint is a function of the label" fp_a
    (Dt_serve.Engine.store_fingerprint ~build:"v1.0-3-gabc");
  let dir = tmpdir () in
  let s = Store.open_ ~dir ~fingerprint:fp_a () in
  Store.add s "r:x" "old build's text";
  ignore (Store.flush s);
  let s2 = Store.open_ ~dir ~fingerprint:fp_b () in
  check int "other build starts empty" 0 (Store.length s2);
  check int "other build counts the segment invalid" 1 (Store.invalid s2)

(* --- jobs ------------------------------------------------------------- *)

(* the daemon resolves jobs as one-shot analyze does: auto stays auto
   and reports the core count as its ceiling, an explicit count is kept
   up to the core count and capped above it *)
let test_clamp_auto () =
  let r = Dt_support.Pool.recommended_jobs () in
  let jobs ?jobs () = Dt_serve.Engine.jobs (Dt_serve.Engine.create ?jobs ()) in
  check int "auto reports the core count" r (jobs ());
  check int "negative is auto" r (jobs ~jobs:(-3) ());
  check int "explicit 1 kept" 1 (jobs ~jobs:1 ());
  check int "engine never oversubscribes" r (jobs ~jobs:(r + 16) ());
  check int "health reports the ceiling" r
    (int_at (Dt_serve.Engine.create ()) Dt_serve.Protocol.Health [ "jobs" ])

(* auto mode keeps a one-routine unit below Analyze's site threshold on
   the calling domain: one worker registry, work on domain 0 only. An
   explicit jobs 2 still fans the same unit out to two workers. *)
let test_auto_jobs_small_unit () =
  let engine_after e =
    (match Dt_serve.Engine.analyze_source e src with
    | Ok (out, _) -> check string "answer = one-shot" (one_shot src) out
    | Error msg -> Alcotest.fail msg);
    let m =
      json_path [ "metrics"; "engine" ]
        (Dt_serve.Engine.handle e (Dt_serve.Protocol.Metrics { prometheus = false }))
    in
    let domains =
      match json_path [ "domains" ] m with
      | Json.List ds ->
          List.map (fun d ->
              match json_path [ "domain" ] d with
              | Json.Int w -> w
              | _ -> Alcotest.fail "domain is not an int") ds
      | _ -> Alcotest.fail "domains is not a list"
    in
    (json_path [ "registries" ] m, domains)
  in
  check bool "the unit is below the site threshold" true
    (Array.length (Deptest.Analyze.sites (List.hd (Dt_frontend.Lower.parse_unit src)))
     < Deptest.Analyze.min_parallel_sites);
  let registries, domains = engine_after (Dt_serve.Engine.create ()) in
  check bool "auto: one worker registry" true (registries = Json.Int 1);
  check (Alcotest.list int) "auto: work on domain 0 only" [ 0 ] domains;
  if Dt_support.Pool.recommended_jobs () >= 2 then begin
    let registries, _ = engine_after (Dt_serve.Engine.create ~jobs:2 ()) in
    check bool "jobs 2: two worker registries" true (registries = Json.Int 2)
  end

(* --- server end-to-end ------------------------------------------------ *)

let wait_for_socket path =
  let rec go n =
    if n = 0 then Alcotest.fail "server socket never appeared"
    else if Sys.file_exists path then ()
    else begin
      Unix.sleepf 0.02;
      go (n - 1)
    end
  in
  go 250

let client_analyze sock =
  let c = Dt_serve.Client.connect ~socket:sock in
  Fun.protect
    ~finally:(fun () -> Dt_serve.Client.close c)
    (fun () ->
      let resp =
        Dt_serve.Client.request c
          (Dt_serve.Protocol.Analyze { source = src; id = None; trace_id = None; deadline_ms = None })
      in
      match
        (Json.member "ok" resp, Json.member "output" resp)
      with
      | Some (Json.Bool true), Some (Json.String out) -> out
      | _ -> Alcotest.fail ("bad analyze response: " ^ Json.to_string resp))

let test_server_end_to_end () =
  let dir = tmpdir () in
  let sock = Filename.concat (tmpdir ()) "serve.sock" in
  let baseline = in_process_output () in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Dt_serve.Server.run ~socket:sock ~cache_dir:dir ~stop ())
  in
  wait_for_socket sock;
  let out1 = client_analyze sock in
  let out2 = client_analyze sock in
  check string "cold daemon = in-process" baseline out1;
  check string "warm daemon = in-process" baseline out2;
  (* metrics over the wire show the disk tier working *)
  let c = Dt_serve.Client.connect ~socket:sock in
  let m =
    Dt_serve.Client.request c (Dt_serve.Protocol.Metrics { prometheus = false })
  in
  (match Json.member "metrics" m with
  | Some metrics -> (
      match Json.member "cache" metrics with
      | Some cache ->
          check bool "disk hits > 0 on second pass" true
            (match Json.member "disk_hits" cache with
            | Some (Json.Int h) -> h > 0
            | _ -> false)
      | None -> Alcotest.fail "metrics response missing cache block")
  | None -> Alcotest.fail "metrics response missing metrics");
  ignore (Dt_serve.Client.request c Dt_serve.Protocol.Shutdown);
  Dt_serve.Client.close c;
  check int "clean shutdown" 0 (Domain.join d);
  check bool "socket removed" false (Sys.file_exists sock);
  (* restart on the same cache dir: the first answer comes from disk *)
  let stop2 = Atomic.make false in
  let d2 =
    Domain.spawn (fun () ->
        Dt_serve.Server.run ~socket:sock ~cache_dir:dir ~stop:stop2 ())
  in
  wait_for_socket sock;
  let out3 = client_analyze sock in
  check string "disk-warm restart = in-process" baseline out3;
  let c2 = Dt_serve.Client.connect ~socket:sock in
  ignore (Dt_serve.Client.request c2 Dt_serve.Protocol.Shutdown);
  Dt_serve.Client.close c2;
  check int "clean second shutdown" 0 (Domain.join d2)

(* --- request tracing -------------------------------------------------- *)

(* raw frame-level client: lets a test hold several connections open and
   interleave requests across them, which Client.request (strict
   round-trips) cannot express *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let raw_send fd req =
  Frame.write fd (Json.to_string (Dt_serve.Protocol.request_to_json req))

let raw_recv fd =
  match Frame.read fd with
  | None -> Alcotest.fail "server closed the connection"
  | Some payload -> (
      match Json.of_string payload with
      | Ok json -> json
      | Error e -> Alcotest.fail ("bad response JSON: " ^ e))

let output_of resp =
  match (Json.member "ok" resp, Json.member "output" resp) with
  | Some (Json.Bool true), Some (Json.String out) -> out
  | _ -> Alcotest.fail ("bad analyze response: " ^ Json.to_string resp)

let entry_ids resp =
  match Json.member "entries" resp with
  | Some (Json.List es) ->
      List.filter_map
        (fun e ->
          match Json.member "trace_id" e with
          | Some (Json.String i) -> Some i
          | _ -> None)
        es
  | _ -> Alcotest.fail ("no entries in: " ^ Json.to_string resp)

let with_server ?(jobs = 1) ?cache_dir ?sample_period ?slow_threshold_ns f =
  let sock = Filename.concat (tmpdir ()) "serve.sock" in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Dt_serve.Server.run ~socket:sock ~jobs ?cache_dir ?sample_period
          ?slow_threshold_ns ~stop ())
  in
  wait_for_socket sock;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      check int "clean shutdown" 0 (Domain.join d))
    (fun () -> f sock)

(* a traced analysis must answer byte-identically to an untraced one:
   the profiler is the only difference between the configs *)
let test_tracing_byte_parity () =
  let baseline = in_process_output () in
  let ask engine =
    match
      Json.member "output"
        (Dt_serve.Engine.handle engine
           (Dt_serve.Protocol.Analyze
              { source = src; id = None; trace_id = None; deadline_ms = None }))
    with
    | Some (Json.String out) -> out
    | _ -> Alcotest.fail "no output"
  in
  let traced = Dt_serve.Engine.create ~jobs:1 ~sample_period:1 () in
  let untraced = Dt_serve.Engine.create ~jobs:1 ~sample_period:0 () in
  check string "tracing on = in-process" baseline (ask traced);
  check string "tracing off = in-process" baseline (ask untraced)

(* the acceptance e2e: a slow analyze (injected delay) must land in the
   slow ledger under its client-chosen trace id, and trace-last must
   export its span capture as a Chrome trace rooted in a request span *)
let test_slow_ledger_end_to_end () =
  let baseline = in_process_output () in
  with_server ~jobs:1 ~sample_period:1 ~slow_threshold_ns:0L @@ fun sock ->
  let trace_id = "feedfacecafe0123" in
  let fd = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* jobs 1: the inject harness is global and single-domain only, so the
     delay must fire on the daemon's own domain *)
  Dt_guard.Inject.enable ~period:1 [ Dt_guard.Inject.Delay ];
  let resp =
    Fun.protect ~finally:Dt_guard.Inject.disable (fun () ->
        raw_send fd
          (Dt_serve.Protocol.Analyze
             { source = src; id = None; trace_id = Some trace_id; deadline_ms = None });
        raw_recv fd)
  in
  (* an injected delay slows the run without changing any verdict *)
  check string "delayed analyze still byte-correct" baseline (output_of resp);
  check bool "response echoes the trace id" true
    (Json.member "trace_id" resp = Some (Json.String trace_id));
  (* the slow ledger has it, newest first *)
  raw_send fd (Dt_serve.Protocol.Slow { n = None });
  let slow = raw_recv fd in
  check bool "slow ledger lists the trace id" true
    (List.mem trace_id (entry_ids slow));
  raw_send fd (Dt_serve.Protocol.Top { n = None });
  check bool "top board lists the trace id" true
    (List.mem trace_id (entry_ids (raw_recv fd)));
  (* its capture exports as a Chrome trace rooted in a request span *)
  raw_send fd (Dt_serve.Protocol.Trace_last { trace_id = Some trace_id });
  let tl = raw_recv fd in
  (match Json.member "chrome_trace" tl with
  | Some chrome -> (
      match Json.member "traceEvents" chrome with
      | Some (Json.List events) ->
          check bool "trace has events" true (events <> []);
          check bool "trace carries the request span" true
            (List.exists
               (fun e ->
                 Json.member "name" e = Some (Json.String "request"))
               events)
      | _ -> Alcotest.fail "chrome trace has no traceEvents")
  | None -> Alcotest.fail ("no chrome_trace in: " ^ Json.to_string tl));
  (* the ledger entry records endpoint and tier *)
  match Json.member "entries" slow with
  | Some (Json.List (e :: _)) ->
      check bool "entry has endpoint analyze" true
        (Json.member "endpoint" e = Some (Json.String "analyze"));
      (* the ledger names the source by its MD5 *)
      check bool "entry has the source digest" true
        (Json.member "source_digest" e
        = Some (Json.String (Digest.to_hex (Digest.string src))));
      check bool "entry has a tier" true
        (match Json.member "tier" e with
        | Some (Json.String t) ->
            List.mem t [ "response"; "disk"; "memo"; "cold"; "none" ]
        | _ -> false);
      check bool "entry was captured" true
        (Json.member "captured" e = Some (Json.Bool true))
  | _ -> Alcotest.fail "slow returned no entries"

(* two clients holding connections open concurrently: the second to
   connect is answered first (impossible under the old serial accept
   loop), both byte-correct, both trace ids in the ledger *)
let test_concurrent_clients () =
  let baseline = in_process_output () in
  with_server ~jobs:1 @@ fun sock ->
  let t1 = "1111111111111111" and t2 = "2222222222222222" in
  let c1 = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close c1) @@ fun () ->
  let c2 = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close c2) @@ fun () ->
  (* c1 connected first but stays silent; c2 must be served regardless *)
  raw_send c2
    (Dt_serve.Protocol.Analyze { source = src; id = None; trace_id = Some t2; deadline_ms = None });
  check string "second connection answered while first is open" baseline
    (output_of (raw_recv c2));
  raw_send c1
    (Dt_serve.Protocol.Analyze { source = src; id = None; trace_id = Some t1; deadline_ms = None });
  check string "first connection answered after" baseline
    (output_of (raw_recv c1));
  raw_send c1 (Dt_serve.Protocol.Slow { n = None });
  let ids = entry_ids (raw_recv c1) in
  check bool "both trace ids in the ledger" true
    (List.mem t1 ids && List.mem t2 ids);
  check bool "trace ids are distinct" true (t1 <> t2)

(* an oversized frame gets a counted protocol error response and a clean
   close of that connection only — the daemon keeps serving others *)
let test_oversize_frame_connection () =
  with_server ~jobs:1 @@ fun sock ->
  let evil = raw_connect sock in
  let buf = Bytes.create 4 in
  Bytes.set_int32_be buf 0 (Int32.of_int (Frame.max_frame + 1));
  ignore (Unix.write evil buf 0 4);
  (* the daemon answers in-protocol before closing *)
  (match Frame.read evil with
  | Some payload ->
      let resp = Result.get_ok (Json.of_string payload) in
      check bool "error response" true
        (Json.member "ok" resp = Some (Json.Bool false));
      check bool "names the protocol error" true
        (match Json.member "error" resp with
        | Some (Json.String e) -> Astring_contains.contains e "protocol error"
        | _ -> false)
  | None -> Alcotest.fail "no protocol error response before close");
  check bool "connection closed after the error" true (Frame.read evil = None);
  Unix.close evil;
  (* the daemon is unharmed and counted the error *)
  let fd = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  raw_send fd
    (Dt_serve.Protocol.Analyze { source = src; id = None; trace_id = None; deadline_ms = None });
  check string "daemon still serves" (in_process_output ())
    (output_of (raw_recv fd));
  raw_send fd Dt_serve.Protocol.Health;
  let health = raw_recv fd in
  check bool "protocol error counted in health" true
    (match Json.member "protocol_errors" health with
    | Some (Json.Int n) -> n >= 1
    | _ -> false)

(* a request whose source carries a raw newline is not JSON (RFC 8259
   §7): the daemon answers with a structured error, counts it as a
   protocol error, and the connection keeps serving *)
let test_raw_control_byte_request () =
  with_server ~jobs:1 @@ fun sock ->
  let fd = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* the request's JSON with the source written in raw: it has no
     quote or backslash, only the newlines an escape would carry *)
  let raw =
    Printf.sprintf {|{"op":"analyze","v":%d,"source":"%s"}|}
      Dt_serve.Protocol.version src
  in
  check bool "the frame carries raw newlines" true (String.contains raw '\n');
  Frame.write fd raw;
  let resp = raw_recv fd in
  check bool "error response" true (Json.member "ok" resp = Some (Json.Bool false));
  check bool "names the raw control byte" true
    (match Json.member "error" resp with
    | Some (Json.String e) ->
        Astring_contains.contains e "bad JSON"
        && Astring_contains.contains e "raw control byte 0x0a"
    | _ -> false);
  raw_send fd
    (Dt_serve.Protocol.Analyze { source = src; id = None; trace_id = None; deadline_ms = None });
  check string "the escaped request still answers" (in_process_output ())
    (output_of (raw_recv fd));
  raw_send fd Dt_serve.Protocol.Health;
  let health = raw_recv fd in
  check bool "one protocol error counted in health" true
    (Json.member "protocol_errors" health = Some (Json.Int 1))

(* a [\u] escape cut short before the closing quote is bad JSON: the
   daemon answers each such frame with a structured error, counts it,
   and keeps serving the connection *)
let test_truncated_unicode_escape_request () =
  with_server ~jobs:1 @@ fun sock ->
  let fd = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* a daemon killed by the frame never answers: fail, do not hang *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  List.iter
    (fun (frame, why) ->
      Frame.write fd frame;
      let resp = raw_recv fd in
      check bool (frame ^ ": error response") true
        (Json.member "ok" resp = Some (Json.Bool false));
      check bool (frame ^ ": names the escape") true
        (match Json.member "error" resp with
        | Some (Json.String e) ->
            Astring_contains.contains e "bad JSON"
            && Astring_contains.contains e why
        | _ -> false))
    [
      ({|{"op":"\u"}|}, "truncated \\u escape");
      ({|{"op":"ab\u"}|}, "truncated \\u escape");
      ({|{"op":"\u12"}|}, "invalid \\u escape");
    ];
  raw_send fd
    (Dt_serve.Protocol.Analyze { source = src; id = None; trace_id = None; deadline_ms = None });
  check string "the daemon still answers" (in_process_output ())
    (output_of (raw_recv fd));
  raw_send fd Dt_serve.Protocol.Health;
  check bool "three protocol errors counted in health" true
    (Json.member "protocol_errors" (raw_recv fd) = Some (Json.Int 3))

(* --- render parity oracle --------------------------------------------- *)

(* The answer text as the Format-based printers produced it, kept here
   as the reference: Render must emit exactly these bytes. *)
module Oracle = struct
  open Dt_ir

  let affine ppf (a : Affine.t) =
    let first = ref true in
    let term ppf c name =
      let sep =
        if !first then (
          first := false;
          if c < 0 then "-" else "")
        else if c < 0 then " - "
        else " + "
      in
      let c = abs c in
      if c = 1 then Format.fprintf ppf "%s%s" sep name
      else Format.fprintf ppf "%s%d*%s" sep c name
    in
    List.iter (fun (i, c) -> term ppf c (Index.name i)) (Affine.index_terms a);
    List.iter (fun (s, c) -> term ppf c s) (Affine.sym_terms a);
    let k = Affine.const_part a in
    if !first then Format.pp_print_int ppf k
    else if k > 0 then Format.fprintf ppf " + %d" k
    else if k < 0 then Format.fprintf ppf " - %d" (-k)

  let dir_set ppf (s : Deptest.Direction.set) =
    let module D = Deptest.Direction in
    if D.is_full s then Format.pp_print_string ppf "*"
    else if D.is_empty s then Format.pp_print_string ppf "0"
    else
      List.iter
        (fun d -> Format.pp_print_string ppf (D.to_string d))
        (D.elements s)

  let dirvec ppf (t : Deptest.Dirvec.t) =
    Format.pp_print_string ppf "(";
    Array.iteri
      (fun k s ->
        if k > 0 then Format.pp_print_string ppf ",";
        dir_set ppf s)
      t;
    Format.pp_print_string ppf ")"

  let dist ppf = function
    | Deptest.Outcome.Const d -> Format.pp_print_int ppf d
    | Deptest.Outcome.Sym e -> affine ppf e
    | Deptest.Outcome.Unknown -> Format.pp_print_string ppf "?"

  let dep ppf (t : Deptest.Dep.t) =
    Format.fprintf ppf "S%d -%s-> S%d %s %a" t.src_stmt
      (Deptest.Dep.kind_name t.kind) t.snk_stmt t.array dirvec t.dirvec;
    (match t.level with
    | Some k -> Format.fprintf ppf " carried level %d" k
    | None -> Format.fprintf ppf " loop-independent");
    List.iter
      (fun (i, d) -> Format.fprintf ppf " d_%s=%a" (Index.name i) dist d)
      t.distances

  let aref ppf (t : Aref.t) =
    let sub ppf = function
      | Aref.Linear a -> affine ppf a
      | Aref.Nonlinear s -> Format.fprintf ppf "<%s>" s
    in
    if t.subs = [] then Format.pp_print_string ppf t.base
    else
      Format.fprintf ppf "%s(%a)" t.base
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           sub)
        t.subs

  let stmt ppf (t : Stmt.t) =
    if t.text <> "" then Format.pp_print_string ppf t.text
    else
      Format.fprintf ppf "S%d: %a = f(%a)" t.id
        (Format.pp_print_list ~pp_sep:Format.pp_print_space aref)
        t.writes
        (Format.pp_print_list ~pp_sep:Format.pp_print_space aref)
        t.reads

  let nest ppf (prog : Nest.program) =
    let rec node indent ppf n =
      let pad = String.make indent ' ' in
      match n with
      | Nest.Stmt s -> Format.fprintf ppf "%s%a@." pad stmt s
      | Nest.Loop (l, body) ->
          Format.fprintf ppf "%sDO %s = %a, %a@." pad
            (Index.name l.Loop.index) affine l.Loop.lo affine l.Loop.hi;
          List.iter (node (indent + 2) ppf) body;
          Format.fprintf ppf "%sENDDO@." pad
    in
    Format.fprintf ppf "PROGRAM %s@." prog.name;
    List.iter (node 2 ppf) prog.body

  let counters ppf c =
    List.iter
      (fun k ->
        let a = Deptest.Counters.applied c k in
        if a > 0 then
          Format.fprintf ppf "%-18s applied %5d  indep %5d@."
            (Deptest.Counters.kind_name k) a
            (Deptest.Counters.proved_indep c k))
      Deptest.Counters.all_kinds

  let routine ~many (prog : Nest.program) (r : Deptest.Analyze.result) =
    let buf = Buffer.create 512 in
    if many then
      Buffer.add_string buf (Printf.sprintf "===== %s =====\n" prog.name);
    Buffer.add_string buf (Format.asprintf "%a@." nest prog);
    if r.deps = [] then Buffer.add_string buf "no dependences\n"
    else
      List.iter
        (fun d -> Buffer.add_string buf (Format.asprintf "%a@." dep d))
        r.deps;
    let degraded = ref 0 in
    List.iter
      (fun (p : Deptest.Analyze.pair_record) ->
        match p.meta.Deptest.Pair_test.degraded with
        | Some reason ->
            incr degraded;
            Buffer.add_string buf
              (Format.asprintf
                 "warning: %s S%d/S%d degraded conservatively (%s)@." p.array
                 p.src_stmt p.snk_stmt
                 (Dt_guard.Degrade.to_string reason))
        | None -> ())
      r.pairs;
    Buffer.add_string buf
      (Format.asprintf "@.-- tests applied --@.%a" counters r.counters);
    (Buffer.contents buf, !degraded)

  let unit_ progs results =
    let many = List.length progs > 1 in
    List.fold_left2
      (fun (text, degraded) p r ->
        let t, d = routine ~many p r in
        (text ^ t, degraded + d))
      ("", 0) progs results
end

(* Units shaped like the benchmark's miv workload: eight routines of six
   statements in deep triangular nests, every other unit with a symbolic
   outer bound, emitted and re-parsed as a client would send them. *)
let miv_units n =
  let st = Random.State.make [| 15 |] in
  List.init n (fun u ->
      let config =
        {
          Dt_workloads.Generator.default with
          Dt_workloads.Generator.max_depth = 4;
          max_bound = 8;
          triangular = true;
          symbolic_hi = u mod 2 = 1;
        }
      in
      String.concat ""
        (List.init 8 (fun r ->
             Dt_frontend.Emit.program
               {
                 (Dt_workloads.Generator.program st config ~stmts:6) with
                 Dt_ir.Nest.name = Printf.sprintf "U%dR%d" u r;
               })))

(* MD5 of every unit the parity test renders, concatenated in order *)
let render_golden = "a172901b10855f714e5ed7e7c047500a"

let test_render_parity () =
  let all = Buffer.create (1 lsl 20) in
  let compare_unit ?budget label source =
    let progs = Dt_frontend.Lower.parse_unit source in
    let cfg = Deptest.Analyze.Config.make ?budget () in
    let results = Deptest.Analyze.run_all cfg progs in
    let text, degraded = Dt_serve.Render.unit_ progs results in
    let want_text, want_degraded = Oracle.unit_ progs results in
    check string (label ^ " bytes") want_text text;
    check int (label ^ " degraded") want_degraded degraded;
    Buffer.add_string all text;
    degraded
  in
  List.iter
    (fun (e : Dt_workloads.Corpus.entry) ->
      ignore
        (compare_unit e.Dt_workloads.Corpus.name e.Dt_workloads.Corpus.source))
    Dt_workloads.Corpus.all;
  let units = miv_units 32 in
  List.iteri
    (fun i s -> ignore (compare_unit (Printf.sprintf "miv unit %d" i) s))
    units;
  let degraded = compare_unit ~budget:0 "budget 0" (List.hd units) in
  check bool "budget 0 degrades pairs" true (degraded > 0);
  check string "render golden digest" render_golden
    (Digest.to_hex (Digest.string (Buffer.contents all)))

(* random dependences over every printed case: each kind, empty,
   singleton and full direction sets, loop-independent, constant
   distances of each sign, symbolic distances with unit and larger
   coefficients of each sign, unknown distances *)
let gen_dep =
  let open QCheck.Gen in
  let index =
    map2
      (fun n d -> Dt_ir.Index.make n ~depth:d)
      (oneofl [ "I"; "J"; "K2" ])
      (int_range 1 4)
  in
  let coeff =
    oneof [ oneofl [ -1; 1; 0 ]; int_range (-9) 9; oneofl [ max_int; -max_int ] ]
  in
  (* each name at most once, so no two terms overflow when summed *)
  let terms names =
    map
      (List.filter_map Fun.id)
      (flatten_l
         (List.map
            (fun n ->
              frequency [ (1, return None); (1, map (fun c -> Some (n, c)) coeff) ])
            names))
  in
  let dist =
    frequency
      [
        ( 2,
          map
            (fun d -> Deptest.Outcome.Const d)
            (oneof [ int_range (-20) 20; oneofl [ 0; max_int; min_int ] ]) );
        ( 3,
          map3
            (fun idx sym const ->
              Deptest.Outcome.Sym (Dt_ir.Affine.make ~idx ~sym ~const))
            (terms [ Dt_ir.Index.make "I" ~depth:1; Dt_ir.Index.make "J" ~depth:2 ])
            (terms [ "N"; "M"; "LDA" ])
            (int_range (-12) 12) );
        (1, return Deptest.Outcome.Unknown);
      ]
  in
  let set =
    map3 (fun lt eq gt -> { Deptest.Direction.lt; eq; gt }) bool bool bool
  in
  map
    (fun ((src_stmt, snk_stmt, kind), (dirvec, level, distances)) ->
      { Deptest.Dep.src_stmt; snk_stmt; array = "A"; kind; dirvec; level;
        distances })
    (pair
       (triple (int_range 0 40) (int_range 0 40)
          (oneofl Deptest.Dep.[ Flow; Anti; Output; Input ]))
       (triple
          (array_size (int_range 0 4) set)
          (opt (int_range 1 5))
          (list_size (int_range 0 3) (pair index dist))))

let prop_dep_printer =
  Helpers.qtest ~count:500 "Dep printer matches the Format oracle"
    (QCheck.make gen_dep) (fun d ->
      let want = Format.asprintf "%a" Oracle.dep d in
      let buf = Buffer.create 8 in
      Buffer.add_string buf "x";
      Deptest.Dep.to_buffer buf d;
      Buffer.contents buf = "x" ^ want
      && Format.asprintf "%a" Deptest.Dep.pp d = want)


(* --- routine-granular response tier ------------------------------------ *)

module Split = Dt_frontend.Split
module Ast = Dt_frontend.Ast

let rec shift_stmt d = function
  | Ast.Assign a -> Ast.Assign { a with line = a.line + d }
  | Ast.Continue c -> Ast.Continue { c with line = c.line + d }
  | Ast.Do x ->
      Ast.Do { x with line = x.line + d; body = List.map (shift_stmt d) x.body }

let shift d (p : Ast.program) = { p with Ast.body = List.map (shift_stmt d) p.Ast.body }

let lines_before s stop =
  let n = ref 0 in
  for i = 0 to stop - 1 do
    if s.[i] = '\n' then incr n
  done;
  !n

let pieces src =
  let cuts = Split.routines src in
  List.init (Array.length cuts - 1) (fun i ->
      (cuts.(i), String.sub src cuts.(i) (cuts.(i + 1) - cuts.(i))))

(* Each piece parses on its own to the routines the whole unit's parse
   gives, line numbers offset by the piece's first line; a split piece
   holds one routine. Returns the number of pieces. *)
let check_split label src =
  let cuts = Split.routines src in
  check int (label ^ ": cuts span the unit") (String.length src)
    cuts.(Array.length cuts - 1);
  let ps = pieces src in
  let parsed =
    List.map
      (fun (start, text) ->
        List.map (shift (lines_before src start)) (Dt_frontend.Parser.parse_unit text))
      ps
  in
  if List.length ps > 1 then
    List.iter
      (fun progs -> check int (label ^ ": one routine per piece") 1 (List.length progs))
      parsed;
  check bool (label ^ ": pieces parse to the unit's routines") true
    (List.concat parsed = Dt_frontend.Parser.parse_unit src);
  List.length ps

let base_units = lazy (E2e_units.base ~seed:1 ~units:64)
let base_sources () = Array.map E2e_units.source (Lazy.force base_units)

let test_split_partition () =
  List.iter
    (fun (e : Dt_workloads.Corpus.entry) ->
      ignore (check_split e.Dt_workloads.Corpus.name e.Dt_workloads.Corpus.source))
    Dt_workloads.Corpus.all;
  Array.iteri
    (fun i s ->
      check int (Printf.sprintf "base unit %d: 8 pieces" i) 8
        (check_split (Printf.sprintf "base unit %d" i) s))
    (base_sources ());
  for i = 0 to 199 do
    let s = E2e_units.edit ~seed:1 (Lazy.force base_units) i in
    check int (Printf.sprintf "edit %d: 8 pieces" i) 8
      (check_split (Printf.sprintf "edit %d" i) s)
  done

let routine_b = "      PROGRAM B\n      Y(1) = 0\n      END\n"

(* [(label, source, pieces)]: sources the scanner must cut as the parser
   does, and sources it cannot vouch for (one piece though the unit has
   several routines) *)
let split_cases =
  [
    ("lowercase end", "      program a\n      x = 1\n      end\n" ^ routine_b, 2);
    ( "END DO ends the routine, ENDDO and END_DO do not",
      "      PROGRAM A\n      DO I = 1, 10\n        X(I) = 0\n      ENDDO\n\
      \      DO J = 1, 10\n        X(J) = 1\n      END_DO\n      END DO\n"
      ^ routine_b,
      2 );
    ( "END PROGRAM X",
      "      PROGRAM X\n      A(1) = 0\n      END PROGRAM X\n\
      \      SUBROUTINE S(N)\n      B(1) = 0\n      End Subroutine S\n",
      2 );
    ("labelled END", "      PROGRAM A\n      X = 1\n   99 END\n" ^ routine_b, 2);
    ("label glued to END", "      PROGRAM A\n      X = 1\n99END\n" ^ routine_b, 2);
    ( "comment lines naming END",
      "      PROGRAM A\nC     END\nc end\n*     END\n      ! END\n      X = 1\n\
      \      END ! of A\n" ^ routine_b,
      2 );
    ( "blank and comment lines between and after routines",
      "\nC leading\n      PROGRAM A\n      X = 1\n      END\n\n   \nC between\n\
      \      PROGRAM B\n      Y(1) = 0\n      END\n\nC trailing\n  ! trailing\n\n",
      2 );
    ("headerless MAIN first", "      X = 1\n      END\n" ^ routine_b, 2);
    ( "headerless MAIN after the last END",
      "      PROGRAM A\n      X = 1\n      END\n      Y = 2\n",
      2 );
    ("one routine", "      PROGRAM A\n      X = 1\n      END\n", 1);
    ("an END-like word", "      PROGRAM A\n      ENDX = 1\n      END\n" ^ routine_b, 2);
    ( "& continuation",
      "      PROGRAM A\n      X = 1 + &\n      2\n      END\n" ^ routine_b,
      1 );
    ( "column-6 continuation",
      "      PROGRAM A\n      X = 1 +\n     1  2\n      END\n" ^ routine_b,
      1 );
    ( "C source, with lines a Fortran scan would cut after",
      "void f(int n, double a[], int end) {\n  for (int i = 0; i < n; i++) {\n\
      \    end = i;\n    a[i] = a[end] + 1;\n    end = 0;\n  }\n}\n",
      1 );
  ]

let test_split_hand_cases () =
  List.iter
    (fun (label, src, want) ->
      check int (label ^ ": pieces") want (List.length (pieces src));
      if not (Dt_frontend.Cfront.looks_like_c src) then ignore (check_split label src))
    split_cases;
  (* the unsure cases do have several routines: one piece is the
     fallback, not the unit's shape *)
  List.iter
    (fun label ->
      let _, src, _ = List.find (fun (l, _, _) -> l = label) split_cases in
      check int (label ^ ": two routines") 2
        (List.length (Dt_frontend.Parser.parse_unit src)))
    [ "& continuation"; "column-6 continuation" ];
  (* the scan allocates its result and nothing per line: a unit with
     thousands more lines and as many routines allocates as much *)
  let words src =
    let before = Gc.minor_words () in
    ignore (Split.routines src);
    Gc.minor_words () -. before
  in
  let short = "      PROGRAM A\n      X = 1\n      END\n" ^ routine_b in
  let long =
    "      PROGRAM A\n"
    ^ String.concat ""
        (List.init 6000 (fun i ->
             if i mod 3 = 0 then "C     A COMMENT\n" else "      X = 1 ! set\n"))
    ^ "      END\n" ^ routine_b
  in
  check (Alcotest.float 0.) "no allocation per line" (words short) (words long)

(* the one-shot CLI's load error text (bin/deptest_cli.ml, [load_unit]),
   without the file name *)
let one_shot_error source =
  match Dt_frontend.Lower.parse_unit source with
  | _ -> Alcotest.fail "source parsed"
  | exception Dt_frontend.Lexer.Error (msg, line) ->
      Printf.sprintf "line %d: lexical error: %s" line msg
  | exception Dt_frontend.Parser.Error (msg, line) ->
      Printf.sprintf "line %d: syntax error: %s" line msg
  | exception Dt_frontend.Lower.Error (msg, line) ->
      Printf.sprintf "line %d: %s" line msg

let analyze_request source =
  Dt_serve.Protocol.Analyze { source; id = None; trace_id = None; deadline_ms = None }

(* an error in routine k of an eight-routine unit whose other routines
   the response tier holds: the daemon names the one-shot error, with
   the line counted from the start of the unit, and answers nothing *)
let test_error_parity () =
  let routines = (Lazy.force base_units).(0) in
  let dir = tmpdir () in
  let e = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  let store = Option.get (Dt_serve.Engine.store e) in
  ignore (Dt_serve.Engine.analyze_source e (E2e_units.source routines));
  let with_lines edits =
    E2e_units.source
      (Array.mapi
         (fun r text ->
           match List.assoc_opt (r + 1) edits with
           | None -> text
           | Some bad ->
               (* after the routine's header line *)
               let nl = String.index text '\n' in
               String.sub text 0 (nl + 1) ^ bad
               ^ String.sub text (nl + 1) (String.length text - nl - 1))
         routines)
  in
  let lexical = "      X = 1 $ 2\n"
  and syntax = "      X = = 1\n"
  and lowering = "      DO I = 1, 10, N\n      ENDDO\n" in
  let cases =
    List.concat_map
      (fun k ->
        [
          (Printf.sprintf "lexical error in routine %d" k, [ (k, lexical) ]);
          (Printf.sprintf "syntax error in routine %d" k, [ (k, syntax) ]);
          (Printf.sprintf "lowering error in routine %d" k, [ (k, lowering) ]);
        ])
      [ 1; 4; 8 ]
    @ [
        (* the one-shot path lexes the whole unit before parsing any of it *)
        ("syntax error in 1, lexical error in 8", [ (1, syntax); (8, lexical) ]);
        ("lowering error in 1, syntax error in 4", [ (1, lowering); (4, syntax) ]);
      ]
  in
  List.iter
    (fun (label, edits) ->
      let source = with_lines edits in
      let entries = Store.length store in
      let resp = Dt_serve.Engine.handle e (analyze_request source) in
      check bool (label ^ ": an error response") true
        (Json.member "ok" resp = Some (Json.Bool false)
        && Json.member "output" resp = None);
      check string (label ^ ": the one-shot error text") (one_shot_error source)
        (match Json.member "error" resp with
        | Some (Json.String m) -> m
        | _ -> Alcotest.fail "no error message");
      check int (label ^ ": nothing stored") entries (Store.length store))
    cases

let output_of_handle e source =
  match Json.member "output" (Dt_serve.Engine.handle e (analyze_request source)) with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail "analyze failed"

(* every base routine's one-shot render, under the response tier's key
   for it ("rn:" and the MD5 of its piece: a base unit has 8 routines) *)
let base_renders () =
  let renders = Hashtbl.create 512 in
  Array.iter
    (fun source ->
      let progs = Dt_frontend.Lower.parse_unit source in
      let results =
        Deptest.Analyze.run_all (Deptest.Analyze.Config.make ~jobs:1 ()) progs
      in
      List.iteri
        (fun i (_, piece) ->
          Hashtbl.replace renders
            ("rn:" ^ Digest.to_hex (Digest.string piece))
            (fst (Dt_serve.Render.routine ~many:true (List.nth progs i)
                    (List.nth results i))))
        (pieces source))
    (base_sources ());
  renders

(* A fixed edit sequence at one job: the store seeded with the 64 base
   units, a restart, then 32 seed-1 serve-edit requests and the 64 base
   units again. Each edit misses the one routine it changed and hits the
   other seven; each repeat hits all eight. *)
let test_pinned_edit_counts () =
  let dir = tmpdir () in
  let bases = base_sources () in
  let seed = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  Array.iter (fun s -> ignore (Dt_serve.Engine.analyze_source seed s)) bases;
  check int "seeded: 512 routines missed" 512 (serve_count seed "response_misses");
  ignore (Dt_serve.Engine.flush seed);
  let e = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  let store = Option.get (Dt_serve.Engine.store e) in
  let seeded = Store.length store in
  (* one rendered text per base routine, and nothing else, each stored
     as the body of a JSON string that reads back as the one-shot text.
     Json.of_string lets raw control bytes through, so the value is also
     checked to be the escaped text itself: a raw newline on the wire is
     not JSON. *)
  check int "seeded store entries" 512 seeded;
  let renders = base_renders () in
  Store.fold store ~init:() ~f:(fun () key value ->
      let render =
        Option.value (Hashtbl.find_opt renders key) ~default:"(no routine)"
      in
      (match Json.of_string ("\"" ^ value ^ "\"") with
      | Ok (Json.String text) ->
          check string (key ^ ": stored = one-shot render") render text
      | _ -> Alcotest.failf "%s: not a JSON string body" key);
      check string (key ^ ": stored escaped") (Json.escape render) value);
  let edits = List.init 32 (E2e_units.edit ~seed:1 (Lazy.force base_units)) in
  List.iteri
    (fun i s ->
      check string (Printf.sprintf "edit %d = one-shot" i) (one_shot s)
        (output_of_handle e s))
    edits;
  check int "edits: routine hits" (32 * 7) (serve_count e "response_hits");
  check int "edits: routine misses" 32 (serve_count e "response_misses");
  (* only the 32 changed routines reach the memo *)
  check int "edits: memo hits" 4 (memo e "memo_hits");
  check int "edits: memo misses" 932 (memo e "memo_misses");
  check int "edits: new store entries (32 routines)" 32
    (Store.length store - seeded);
  Array.iteri
    (fun i s ->
      check string (Printf.sprintf "base unit %d = one-shot" i) (one_shot s)
        (output_of_handle e s))
    bases;
  check int "repeats: routine hits" ((32 * 7) + 512) (serve_count e "response_hits");
  check int "repeats: routine misses" 32 (serve_count e "response_misses");
  check int "every repeat answered on the response tier" 64 (answered e "response");
  check int "repeats: no memo hit" 4 (memo e "memo_hits");
  check int "repeats: no memo miss" 932 (memo e "memo_misses");
  check int "repeats: no new entry" (seeded + 32) (Store.length store)

(* the routine [text] without its assignments numbered in [ks] (from 0,
   in text order) *)
let drop_assignments ks text =
  let n = ref (-1) in
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         let t = String.trim l in
         let assignment =
           String.contains t '=' && not (String.starts_with ~prefix:"DO " t)
         in
         if assignment then incr n;
         not (assignment && List.mem !n ks))
  |> String.concat "\n"

(* the reference pairs routine [r] of [source] tests, one-shot *)
let pair_count source r =
  let progs = Dt_frontend.Lower.parse_unit source in
  let results =
    Deptest.Analyze.run_all (Deptest.Analyze.Config.make ~jobs:1 ~cache:false ()) progs
  in
  List.length (List.nth results r).Deptest.Analyze.pairs

(* What the memo is for once routines are cached: an edit of one
   statement. After a restart on the seeded store, deleting one
   assignment from a routine misses the memo on every pair of that
   routine; deleting a second one from the same routine tests no pair
   the first edit did not, so every pair hits. *)
let test_pinned_statement_edits () =
  let dir = tmpdir () in
  let units = Lazy.force base_units in
  let seed = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  Array.iter (fun s -> ignore (Dt_serve.Engine.analyze_source seed s)) (base_sources ());
  ignore (Dt_serve.Engine.flush seed);
  let e = Dt_serve.Engine.create ~jobs:1 ~cache_dir:dir () in
  (* unit 0, routine 3: a depth-4 nest *)
  let edit ks =
    E2e_units.source
      (Array.mapi (fun i t -> if i = 3 then drop_assignments ks t else t) units.(0))
  in
  let first = edit [ 2 ] and second = edit [ 2; 4 ] in
  check string "first edit = one-shot" (one_shot first) (output_of_handle e first);
  check int "first edit: one routine missed" 1 (serve_count e "response_misses");
  check int "first edit: pairs of the routine" 19 (pair_count first 3);
  check int "first edit: memo misses = the routine's pairs" (pair_count first 3)
    (memo e "memo_misses");
  check int "first edit: no memo hit" 0 (memo e "memo_hits");
  check string "second edit = one-shot" (one_shot second) (output_of_handle e second);
  check int "second edit: one routine missed" 2 (serve_count e "response_misses");
  check int "second edit: pairs of the routine" 12 (pair_count second 3);
  check int "second edit: no new memo miss" (pair_count first 3) (memo e "memo_misses");
  check int "second edit: every pair hits the memo" (pair_count second 3)
    (memo e "memo_hits")

(* stores of earlier schemas must read as invalid and the engine answer
   as if cold: a diskcache/3 store, written by the unit-keyed response
   tier, a diskcache/4 one, which held pair verdicts ("p:") beside the
   routines, and a diskcache/5 one, whose routine texts are raw, not the
   escaped wire bytes (sent as they are, these would not be JSON) *)
let test_older_schema_stores () =
  let baseline = in_process_output () in
  let fingerprint = Dt_serve.Engine.store_fingerprint ~build:Dt_obs.Build_id.git in
  let digest = Digest.to_hex (Digest.string src) in
  List.iter
    (fun (schema, entries) ->
      let dir = tmpdir () in
      write_file (Filename.concat dir "seg-0.bin")
        (segment_text ~schema ~fingerprint entries);
      let e = Dt_serve.Engine.create ~cache_dir:dir () in
      let store = Option.get (Dt_serve.Engine.store e) in
      check int (schema ^ ": opens cold") 0 (Store.length store);
      check int (schema ^ ": counted invalid") 1 (Store.invalid store);
      check int (schema ^ ": disk_invalid") 1
        (int_at e (Dt_serve.Protocol.Metrics { prometheus = false })
           [ "metrics"; "cache"; "disk_invalid" ]);
      check string (schema ^ ": answers byte-identically") baseline
        (output_of_handle e src))
    [
      ("deptest-diskcache/3", [ ("r:" ^ digest, "a stale answer\n") ]);
      ( "deptest-diskcache/4",
        [
          ("r1:" ^ digest, "a stale answer\n");
          ( "p:0|A(%0+1)|A(%0)",
            {|{"result":"indep","meta":{},"counters":[],"producer":[]}|} );
        ] );
      ( "deptest-diskcache/5",
        [
          ("r1:" ^ digest, "a \"stale\" answer\\\n");
          ("rn:" ^ digest, "line one\nline \"two\" \\ end\n");
        ] );
    ]

(* the bytes a frame carries on the wire, written to a file *)
let frame_bytes write =
  let path = Filename.concat (tmpdir ()) "frame" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let raised =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        match write fd with () -> false | exception Invalid_argument _ -> true)
  in
  let bytes = read_file path in
  Sys.remove path;
  (bytes, raised)

(* the reusable response frame sends exactly what Frame.write of the
   response's JSON text sends, answers split into parts included: an
   answer's parts are escaped texts, as the response tier stores them *)
let test_response_frame () =
  let out = Frame.Out.create () in
  let answer parts =
    Dt_serve.Protocol.Answer
      {
        output = Array.map Json.escape parts;
        fields = [ ("degraded", Json.Int 0); ("trace_id", Json.String "0123456789abcdef") ];
      }
  in
  let awkward_mb =
    String.init (1 lsl 20) (fun i ->
        match i mod 97 with 0 -> '\n' | 1 -> '"' | 2 -> '\\' | 3 -> '\001' | _ -> 'a')
  in
  let same label ?(truncated = false) r =
    let text = Json.to_string (Dt_serve.Protocol.response_json r) in
    let want =
      frame_bytes (fun fd ->
          if truncated then Frame.write_truncated fd text else Frame.write fd text)
    in
    let got =
      frame_bytes (fun fd ->
          Dt_serve.Protocol.write_response out r;
          if truncated then Frame.Out.send_truncated fd out else Frame.Out.send fd out)
    in
    check bool (label ^ ": same refusal") (snd want) (snd got);
    check string (label ^ ": same bytes") (fst want) (fst got)
  in
  same "small reply" (Dt_serve.Protocol.Reply (Dt_serve.Protocol.ok []));
  same "small answer" (answer [| "PROGRAM A\n"; ""; "no dependences\n" |]);
  same "1 MB answer in parts"
    (answer [| String.sub awkward_mb 0 1000; String.sub awkward_mb 1000 ((1 lsl 20) - 1000) |]);
  same "1 MB reply" (Dt_serve.Protocol.Reply (Dt_serve.Protocol.ok [ ("output", Json.String awkward_mb) ]));
  same "truncated (frame_close)" ~truncated:true (answer [| awkward_mb |]);
  same "small answer after a large one" (answer [| "x"; "y\n" |]);
  let over = answer (Array.make 17 (String.make (1 lsl 20) 'a')) in
  same "over the 16 MiB cap: refused" over;
  check bool "refused, nothing sent" true (frame_bytes (fun fd ->
      Dt_serve.Protocol.write_response out over; Frame.Out.send fd out) = ("", true));
  same "small answer after a refused one" (answer [| "z" |])

let suite =
  [
    ("frame round-trip", `Quick, test_frame_roundtrip);
    ("frame truncated", `Quick, test_frame_truncated);
    ("frame read_r oversize", `Quick, test_frame_read_r);
    ("store round-trip", `Quick, test_store_roundtrip);
    ("store eviction durable", `Quick, test_store_eviction);
    ("store corruption: truncated segment", `Quick, test_store_truncated);
    ("store corruption: garbage JSON", `Quick, test_store_garbage);
    ("store corruption: wrong schema", `Quick, test_store_wrong_schema);
    ( "store corruption: wrong fingerprint",
      `Quick,
      test_store_wrong_fingerprint );
    ("store corruption: tmp leftover", `Quick, test_store_tmp_leftover);
    ( "store corruption: flipped verdict",
      `Quick,
      test_store_flipped_verdict );
    prop_store_bytes;
    ("store bytes round-trip: 1 MB value", `Quick, test_store_big_value);
    ( "store cross-run counts over the corpus",
      `Quick,
      test_store_corpus_cross_run );
    ("degraded never persisted (deadline)", `Quick,
      test_degraded_never_persisted);
    ( "degraded never persisted (injected fault)",
      `Quick,
      test_injected_fault_never_persisted );
    ("protocol round-trip", `Quick, test_protocol_roundtrip);
    ("protocol versioning", `Quick, test_protocol_version);
    ("engine response cache", `Quick, test_engine_response_cache);
    ( "engine invalid response entry",
      `Quick,
      test_engine_invalid_response_entry );
    ( "engine re-persists after an invalid entry",
      `Quick,
      test_engine_invalid_response_repersisted );
    ( "store fingerprint covers the build",
      `Quick,
      test_store_fingerprint_build );
    ("jobs clamp", `Quick, test_clamp_auto);
    ("auto jobs: a small unit stays on domain 0", `Quick, test_auto_jobs_small_unit);
    ("server end-to-end", `Quick, test_server_end_to_end);
    ("tracing byte parity", `Quick, test_tracing_byte_parity);
    ("slow ledger end-to-end", `Quick, test_slow_ledger_end_to_end);
    ("concurrent clients", `Quick, test_concurrent_clients);
    ("oversize frame connection", `Quick, test_oversize_frame_connection);
    ("raw control byte in a request", `Quick, test_raw_control_byte_request);
    ("render parity vs Format oracle", `Quick, test_render_parity);
    prop_dep_printer;
    ("split equals the parser's partition", `Quick, test_split_partition);
    ("split hand cases", `Quick, test_split_hand_cases);
    ("error parity across routines", `Quick, test_error_parity);
    ("pinned counts on a fixed edit sequence", `Quick, test_pinned_edit_counts);
    ("pinned memo counts on one-statement edits", `Quick, test_pinned_statement_edits);
    ("diskcache/3, /4 and /5 open cold", `Quick, test_older_schema_stores);
    ("response frame bytes = Frame.write", `Quick, test_response_frame);
    ( "truncated \\u escape in a request",
      `Quick,
      test_truncated_unicode_escape_request );
  ]
