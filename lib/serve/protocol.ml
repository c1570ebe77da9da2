module Json = Dt_obs.Json

(* Wire version. v1 (PR 8) had no "v" field and no trace ids; v2 added
   both plus the introspection ops; v3 adds the optional analyze
   deadline and the structured overload response. Absent "v" is read as
   1 so old clients keep working; a version above [version] is refused
   so an old daemon fails loud instead of misreading a future frame. *)
let version = 3

type request =
  | Analyze of {
      source : string;
      id : string option;
      trace_id : string option;
      deadline_ms : int option;
    }
  | Metrics of { prometheus : bool }
  | Health
  | Slow of { n : int option }
  | Top of { n : int option }
  | Trace_last of { trace_id : string option }
  | Flush
  | Shutdown

let opt_field k = function None -> [] | Some v -> [ (k, Json.String v) ]
let opt_int k = function None -> [] | Some v -> [ (k, Json.Int v) ]

let request_to_json req =
  let v = ("v", Json.Int version) in
  match req with
  | Analyze { source; id; trace_id; deadline_ms } ->
      Json.Obj
        (("op", Json.String "analyze")
         :: v
         :: ("source", Json.String source)
         :: (opt_field "id" id @ opt_field "trace_id" trace_id
             @ opt_int "deadline_ms" deadline_ms))
  | Metrics { prometheus } ->
      Json.Obj
        [
          ("op", Json.String "metrics");
          v;
          ("format", Json.String (if prometheus then "prometheus" else "json"));
        ]
  | Health -> Json.Obj [ ("op", Json.String "health"); v ]
  | Slow { n } -> Json.Obj (("op", Json.String "slow") :: v :: opt_int "n" n)
  | Top { n } -> Json.Obj (("op", Json.String "top") :: v :: opt_int "n" n)
  | Trace_last { trace_id } ->
      Json.Obj
        (("op", Json.String "trace-last") :: v :: opt_field "trace_id" trace_id)
  | Flush -> Json.Obj [ ("op", Json.String "flush"); v ]
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown"); v ]

let str_member k json =
  match Json.member k json with Some (Json.String s) -> Some s | _ -> None

let int_member k json =
  match Json.member k json with Some (Json.Int n) -> Some n | _ -> None

let request_of_json json =
  match int_member "v" json with
  | Some v when v > version ->
      Error
        (Printf.sprintf
           "protocol version %d not supported (this daemon speaks <= %d)" v
           version)
  | _ -> (
      match Json.member "op" json with
      | Some (Json.String "analyze") -> (
          match str_member "source" json with
          | Some source ->
              Ok
                (Analyze
                   {
                     source;
                     id = str_member "id" json;
                     trace_id = str_member "trace_id" json;
                     deadline_ms = int_member "deadline_ms" json;
                   })
          | None -> Error "analyze: missing string field \"source\"")
      | Some (Json.String "metrics") ->
          Ok (Metrics { prometheus = str_member "format" json
                                     = Some "prometheus" })
      | Some (Json.String "health") -> Ok Health
      | Some (Json.String "slow") -> Ok (Slow { n = int_member "n" json })
      | Some (Json.String "top") -> Ok (Top { n = int_member "n" json })
      | Some (Json.String "trace-last") ->
          Ok (Trace_last { trace_id = str_member "trace_id" json })
      | Some (Json.String "flush") -> Ok Flush
      | Some (Json.String "shutdown") -> Ok Shutdown
      | Some (Json.String op) -> Error (Printf.sprintf "unknown op %S" op)
      | _ -> Error "request is not an object with a string \"op\"")

let endpoint_of = function
  | Analyze _ -> "analyze"
  | Metrics _ -> "metrics"
  | Health -> "health"
  | Slow _ -> "slow"
  | Top _ -> "top"
  | Trace_last _ -> "trace-last"
  | Flush -> "flush"
  | Shutdown -> "shutdown"

let endpoints =
  [ "analyze"; "metrics"; "health"; "slow"; "top"; "trace-last"; "flush";
    "shutdown" ]

let error msg =
  Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

type response =
  | Reply of Json.t
  | Answer of { output : string array; fields : (string * Json.t) list }

(* each byte escapes on its own, so the escaped parts concatenate to
   the escaped whole *)
let text_of_parts output =
  let quoted = String.concat "" (("\"" :: Array.to_list output) @ [ "\"" ]) in
  match Json.of_string quoted with
  | Ok (Json.String text) -> text
  | _ -> invalid_arg "Protocol.text_of_parts: not an escaped string body"

let response_json = function
  | Reply json -> json
  | Answer { output; fields } ->
      ok (("output", Json.String (text_of_parts output)) :: fields)

module Out = Dt_support.Frame.Out
module Wire = Json.Printer (Out)

(* the bytes of [Json.to_string (response_json r)]: an answer's output
   parts are already escaped, so each is one blit *)
let write_response out r =
  Out.clear out;
  match r with
  | Reply json -> Wire.value out json
  | Answer { output; fields } ->
      Out.add_string out {|{"ok":true,"output":"|};
      Array.iter (Out.add_string out) output;
      Out.add_char out '"';
      List.iter
        (fun (k, v) ->
          Out.add_char out ',';
          Wire.string out k;
          Out.add_char out ':';
          Wire.value out v)
        fields;
      Out.add_char out '}'

let overloaded ~retry_after_ms =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("error", Json.String "overloaded");
      ("overloaded", Json.Bool true);
      ("retry_after_ms", Json.Int (max 1 retry_after_ms));
    ]

let deadline_exceeded ~waited_ms =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.String
          (Printf.sprintf
             "deadline exceeded: request budget spent after %d ms in queue"
             waited_ms) );
      ("deadline_exceeded", Json.Bool true);
    ]

let retry_after_of json =
  match Json.member "overloaded" json with
  | Some (Json.Bool true) -> (
      match int_member "retry_after_ms" json with
      | Some ms -> Some (max 1 ms)
      | None -> Some 1)
  | _ -> None

let is_deadline_exceeded json =
  match Json.member "deadline_exceeded" json with
  | Some (Json.Bool true) -> true
  | _ -> false
