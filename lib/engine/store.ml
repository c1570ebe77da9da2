let schema_version = "deptest-diskcache/6"

(* a resident value and the insertion that made it resident: a queue
   slot whose [seq] no longer matches is stale (its key was removed,
   and perhaps added again later) *)
type entry = { value : string; seq : int }

type t = {
  dir : string;
  fingerprint : string;
  capacity : int option;
  tbl : (string, entry) Hashtbl.t;
  queue : (string * int) Queue.t;  (* insertion order, for FIFO eviction *)
  mutable next_seq : int;
  mutable resident_bytes : int;  (* key and value lengths of [tbl] *)
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

let seg_path dir n = Filename.concat dir (Printf.sprintf "seg-%d.bin" n)

(* [seg-N<ext>] -> Some N *)
let seg_number ~ext name =
  let n = String.length name and e = String.length ext in
  if n > 4 + e && String.sub name 0 4 = "seg-" && Filename.check_suffix name ext
  then int_of_string_opt (String.sub name 4 (n - 4 - e))
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

(* A segment is three header lines — schema, fingerprint, MD5 hex of
   the body — then the body: per entry, ["KLEN VLEN\n" KEY VALUE]. *)

exception Bad

(* the line starting at [pos], and the position after its newline *)
let line s pos =
  match String.index_from_opt s pos '\n' with
  | Some nl -> (String.sub s pos (nl - pos), nl + 1)
  | None -> raise Bad

(* a decimal length as [flush] writes it, digits only, ended by
   [stop]: the length and the position after [stop] *)
let length_field s pos stop =
  let rec go n p =
    if p >= String.length s || p - pos > 18 then raise Bad
    else
      match s.[p] with
      | '0' .. '9' as c -> go ((n * 10) + Char.code c - Char.code '0') (p + 1)
      | c when c = stop && p > pos -> (n, p + 1)
      | _ -> raise Bad
  in
  go 0 pos

(* validating segment parse: the entries in file order, or [Bad] for a
   segment that must not be trusted *)
let segment_entries ~fingerprint s =
  let schema, pos = line s 0 in
  let fp, pos = line s pos in
  let md5, body = line s pos in
  let len = String.length s in
  if schema <> schema_version || fp <> fingerprint
     || md5 <> Digest.to_hex (Digest.substring s body (len - body))
  then raise Bad;
  let rec records acc pos =
    if pos = len then List.rev acc
    else
      let klen, pos = length_field s pos ' ' in
      let vlen, k = length_field s pos '\n' in
      if klen > len - k || vlen > len - k - klen then raise Bad;
      records
        ((String.sub s k klen, String.sub s (k + klen) vlen) :: acc)
        (k + klen + vlen)
  in
  records [] body

let drop t k e =
  Hashtbl.remove t.tbl k;
  t.resident_bytes <- t.resident_bytes - String.length k - String.length e.value;
  t.dirty <- true

(* insert without statistics, evicting FIFO past capacity *)
let insert t k v =
  (match Hashtbl.find_opt t.tbl k with
  | Some e ->
      (* replace in place: the entry keeps its queue position *)
      t.resident_bytes <- t.resident_bytes - String.length e.value;
      Hashtbl.replace t.tbl k { e with value = v }
  | None ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Queue.add (k, seq) t.queue;
      t.resident_bytes <- t.resident_bytes + String.length k;
      Hashtbl.replace t.tbl k { value = v; seq });
  t.resident_bytes <- t.resident_bytes + String.length v;
  t.dirty <- true;
  match t.capacity with
  | None -> ()
  | Some cap ->
      while Hashtbl.length t.tbl > cap && not (Queue.is_empty t.queue) do
        let oldest, seq = Queue.pop t.queue in
        match Hashtbl.find_opt t.tbl oldest with
        | Some e when e.seq = seq ->
            drop t oldest e;
            t.evictions <- t.evictions + 1
        | _ -> ()
      done

let load t =
  let names = try Sys.readdir t.dir with Sys_error _ -> [||] in
  (* a *.tmp next to the segments is a crashed mid-write: the rename
     never happened, so the bytes are untrusted; a seg-N.json is a
     version-2 segment no current key reaches — remove and count both *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".tmp"
         || seg_number ~ext:".json" name <> None
      then begin
        (try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ());
        t.invalid <- t.invalid + 1
      end)
    names;
  let numbers =
    Array.to_list names
    |> List.filter_map (seg_number ~ext:".bin")
    |> List.sort compare
  in
  List.iter
    (fun n ->
      let path = seg_path t.dir n in
      match segment_entries ~fingerprint:t.fingerprint (read_file path) with
      | entries ->
          List.iter (fun (k, v) -> insert t k v) entries;
          t.segs <- t.segs @ [ n ]
      | exception (Bad | Sys_error _) ->
          (* invalid segment: count it, drop it — the store degrades to a
             cold start rather than ever serving an untrusted entry *)
          t.invalid <- t.invalid + 1;
          (try Sys.remove path with Sys_error _ -> ()))
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
      next_seq = 0;
      resident_bytes = 0;
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
  | Some e ->
      t.hits <- t.hits + 1;
      Some e.value
  | None ->
      t.misses <- t.misses + 1;
      None

let add t k v = locked t @@ fun () -> insert t k v

let remove t k =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl k with
  | Some e -> drop t k e
  | None -> ()

(* the live entries in insertion order: queue slots whose entry is
   still the one they inserted *)
let fold_live t ~init ~f =
  Queue.fold
    (fun acc (k, seq) ->
      match Hashtbl.find_opt t.tbl k with
      | Some e when e.seq = seq -> f acc k e.value
      | _ -> acc)
    init t.queue

let segment_bytes t =
  let body = Buffer.create (t.resident_bytes + (16 * Hashtbl.length t.tbl)) in
  fold_live t ~init:() ~f:(fun () k v ->
      Printf.bprintf body "%d %d\n" (String.length k) (String.length v);
      Buffer.add_string body k;
      Buffer.add_string body v);
  let body = Buffer.contents body in
  let header =
    String.concat "\n"
      [ schema_version; t.fingerprint; Digest.to_hex (Digest.string body); "" ]
  in
  (header, body)

let flush t =
  locked t @@ fun () ->
  let n = Hashtbl.length t.tbl in
  if t.dirty then begin
    (* compacting flush: one fresh segment holds the whole resident set,
       then the superseded segments go away — eviction becomes durable
       and the directory holds one live segment plus nothing stale *)
    let seg = t.next_seg in
    let header, body = segment_bytes t in
    Dt_obs.Artifact.write_atomic_with (seg_path t.dir seg) (fun oc ->
        output_string oc header;
        output_string oc body);
    t.next_seg <- seg + 1;
    List.iter
      (fun old -> try Sys.remove (seg_path t.dir old) with Sys_error _ -> ())
      t.segs;
    t.segs <- [ seg ];
    t.dirty <- false
  end;
  n

let length t = locked t @@ fun () -> Hashtbl.length t.tbl
let resident_bytes t = locked t @@ fun () -> t.resident_bytes
let hits t = t.hits
let misses t = t.misses
let invalid t = t.invalid
let evictions t = t.evictions
let segments t = locked t @@ fun () -> List.length t.segs
let fold t ~init ~f = locked t @@ fun () -> fold_live t ~init ~f
