module Json = Dt_obs.Json

let schema_version = "deptest-diskcache/2"

type t = {
  dir : string;
  fingerprint : string;
  capacity : int option;
  tbl : (string, Json.t) Hashtbl.t;
  queue : string Queue.t;  (* insertion order, for FIFO eviction *)
  mutable segs : int list;  (* segment numbers on disk, ascending *)
  mutable next_seg : int;
  mutable dirty : bool;  (* resident set changed since the last flush *)
  mutable hits : int;
  mutable misses : int;
  mutable invalid : int;
  mutable evictions : int;
  mutex : Mutex.t;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let seg_path dir n = Filename.concat dir (Printf.sprintf "seg-%d.json" n)

let seg_number name =
  if String.length name > 8 && String.sub name 0 4 = "seg-"
     && Filename.check_suffix name ".json"
  then int_of_string_opt (String.sub name 4 (String.length name - 9))
  else None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* validating segment parse: None means the segment must not be trusted *)
let segment_entries ~fingerprint json =
  match json with
  | Json.Obj _ -> (
      match
        ( Json.member "schema" json,
          Json.member "fingerprint" json,
          Json.member "entries" json )
      with
      | Some (Json.String s), Some (Json.String fp), Some (Json.List es)
        when s = schema_version && fp = fingerprint -> (
          let entry = function
            | Json.List [ Json.String k; v ] -> Some (k, v)
            | _ -> None
          in
          let decoded = List.map entry es in
          if List.for_all Option.is_some decoded then
            Some (List.map Option.get decoded)
          else None)
      | _ -> None)
  | _ -> None

(* insert without statistics, evicting FIFO past capacity *)
let insert t k v =
  if not (Hashtbl.mem t.tbl k) then Queue.add k t.queue;
  Hashtbl.replace t.tbl k v;
  t.dirty <- true;
  match t.capacity with
  | None -> ()
  | Some cap ->
      while Hashtbl.length t.tbl > cap && not (Queue.is_empty t.queue) do
        let oldest = Queue.pop t.queue in
        if Hashtbl.mem t.tbl oldest then begin
          Hashtbl.remove t.tbl oldest;
          t.evictions <- t.evictions + 1
        end
      done

let load t =
  let names = try Sys.readdir t.dir with Sys_error _ -> [||] in
  (* a *.tmp next to the segments is a crashed mid-write: the rename
     never happened, so the bytes are untrusted — remove and count *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then begin
        (try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ());
        t.invalid <- t.invalid + 1
      end)
    names;
  let numbers =
    Array.to_list names |> List.filter_map seg_number |> List.sort compare
  in
  List.iter
    (fun n ->
      let path = seg_path t.dir n in
      let ok =
        match Json.of_string (read_file path) with
        | Error _ | (exception Sys_error _) -> false
        | Ok json -> (
            match segment_entries ~fingerprint:t.fingerprint json with
            | None -> false
            | Some entries ->
                List.iter (fun (k, v) -> insert t k v) entries;
                t.segs <- t.segs @ [ n ];
                true)
      in
      if not ok then begin
        (* invalid segment: count it, drop it — the store degrades to a
           cold start rather than ever serving an untrusted entry *)
        t.invalid <- t.invalid + 1;
        try Sys.remove path with Sys_error _ -> ()
      end)
    numbers;
  t.next_seg <- (match List.rev t.segs with n :: _ -> n + 1 | [] -> 0);
  t.dirty <- false

let open_ ~dir ~fingerprint ?capacity () =
  mkdir_p dir;
  let t =
    {
      dir;
      fingerprint;
      capacity;
      tbl = Hashtbl.create 256;
      queue = Queue.create ();
      segs = [];
      next_seg = 0;
      dirty = false;
      hits = 0;
      misses = 0;
      invalid = 0;
      evictions = 0;
      mutex = Mutex.create ();
    }
  in
  load t;
  t

let dir t = t.dir
let fingerprint t = t.fingerprint

let find t k =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl k with
  | Some v ->
      t.hits <- t.hits + 1;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      None

let add t k v = locked t @@ fun () -> insert t k v

let remove t k =
  locked t @@ fun () ->
  if Hashtbl.mem t.tbl k then begin
    Hashtbl.remove t.tbl k;
    t.dirty <- true
  end

let note_invalid t = locked t @@ fun () -> t.invalid <- t.invalid + 1

let resident_json t =
  (* queue order = insertion order; skip evicted/removed keys *)
  let seen = Hashtbl.create (Hashtbl.length t.tbl) in
  let entries =
    Queue.fold
      (fun acc k ->
        if Hashtbl.mem seen k then acc
        else begin
          Hashtbl.replace seen k ();
          match Hashtbl.find_opt t.tbl k with
          | Some v -> Json.List [ Json.String k; v ] :: acc
          | None -> acc
        end)
      [] t.queue
  in
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("fingerprint", Json.String t.fingerprint);
      ("entries", Json.List (List.rev entries));
    ]

let flush t =
  locked t @@ fun () ->
  let n = Hashtbl.length t.tbl in
  if t.dirty then begin
    (* compacting flush: one fresh segment holds the whole resident set,
       then the superseded segments go away — eviction becomes durable
       and the directory holds one live segment plus nothing stale *)
    let seg = t.next_seg in
    Dt_obs.Artifact.write_atomic (seg_path t.dir seg)
      (Json.to_string (resident_json t) ^ "\n");
    t.next_seg <- seg + 1;
    List.iter
      (fun old -> try Sys.remove (seg_path t.dir old) with Sys_error _ -> ())
      t.segs;
    t.segs <- [ seg ];
    t.dirty <- false
  end;
  n

let length t = locked t @@ fun () -> Hashtbl.length t.tbl
let hits t = t.hits
let misses t = t.misses
let invalid t = t.invalid
let evictions t = t.evictions
let segments t = locked t @@ fun () -> List.length t.segs

let fold t ~init ~f =
  locked t @@ fun () ->
  let seen = Hashtbl.create (Hashtbl.length t.tbl) in
  Queue.fold
    (fun acc k ->
      if Hashtbl.mem seen k then acc
      else begin
        Hashtbl.replace seen k ();
        match Hashtbl.find_opt t.tbl k with
        | Some v -> f acc k v
        | None -> acc
      end)
    init t.queue
