(* ------------------------------------------------------------------ *)
(* trace ids: 64 bits as 16 lowercase hex chars. Uniqueness needs no
   coordination: a process-wide counter breaks ties within a process,
   the monotonic clock across restarts, the pid across processes, and
   splitmix64's finalizer spreads the bits. *)

let counter = Atomic.make 0

let splitmix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let gen_id () =
  let c = Atomic.fetch_and_add counter 1 in
  let seed =
    Int64.add
      (Int64.add (Clock.now_ns ()) (Int64.of_int (c * 0x9e3779b9)))
      (Int64.mul (Int64.of_int (Unix.getpid ())) 0x100000001b3L)
  in
  Printf.sprintf "%016Lx" (splitmix64 seed)

let is_id s =
  String.length s = 16
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* ------------------------------------------------------------------ *)

type tier = Response | Memo | Cold | None_

let tier_name = function
  | Response -> "response"
  | Memo -> "memo"
  | Cold -> "cold"
  | None_ -> "none"

let tiers = [ Response; Memo; Cold; None_ ]

type entry = {
  trace_id : string;
  endpoint : string;
  source_digest : string Lazy.t;
  tier : tier;
  degraded : int;
  error : bool;
  wall_ns : int64;
  ts_ms : int;
  spans : Span.span array;
}

let entry_to_json e =
  Json.Obj
    [
      ("trace_id", Json.String e.trace_id);
      ("endpoint", Json.String e.endpoint);
      ("source_digest", Json.String (Lazy.force e.source_digest));
      ("tier", Json.String (tier_name e.tier));
      ("degraded", Json.Int e.degraded);
      ("error", Json.Bool e.error);
      ("wall_ns", Json.Int (Int64.to_int e.wall_ns));
      ("ts_ms", Json.Int e.ts_ms);
      ("captured", Json.Bool (Array.length e.spans > 0));
    ]

(* ------------------------------------------------------------------ *)

module Sampler = struct
  type t = { period : int; threshold_ns : int64; mutable tick : int }

  let create ?(period = 1) ?(threshold_ns = 0L) () =
    { period = max 0 period; threshold_ns; tick = 0 }

  let period t = t.period
  let threshold_ns t = t.threshold_ns

  let arm t =
    if t.period <= 0 then false
    else begin
      let hit = t.tick mod t.period = 0 in
      t.tick <- t.tick + 1;
      hit
    end

  let retain t ~wall_ns = Int64.compare wall_ns t.threshold_ns >= 0
end

(* ------------------------------------------------------------------ *)

module Ring = struct
  type t = {
    recent_cap : int;
    top_cap : int;
    recent : entry option array;  (* circular, [head] = next write slot *)
    mutable head : int;
    mutable top : entry list;  (* slowest first, length <= top_cap *)
    mutable last_capture : entry option;
    mutable total : int;
  }

  let create ?(recent = 64) ?(top = 16) () =
    let recent_cap = max 1 recent and top_cap = max 1 top in
    {
      recent_cap;
      top_cap;
      recent = Array.make recent_cap None;
      head = 0;
      top = [];
      last_capture = None;
      total = 0;
    }

  (* the top board stays sorted slowest-first; ties keep the earlier
     entry ahead so the board is stable under equal latencies *)
  let insert_top t e =
    let rec go n = function
      | [] -> if n < t.top_cap then [ e ] else []
      | x :: tl when Int64.compare e.wall_ns x.wall_ns > 0 ->
          (* e displaces x; keep the rest, truncated to capacity *)
          let rec take k l =
            if k = 0 then []
            else match l with [] -> [] | y :: ys -> y :: take (k - 1) ys
          in
          e :: take (t.top_cap - n - 1) (x :: tl)
      | x :: tl -> x :: go (n + 1) tl
    in
    t.top <- go 0 t.top

  let add t e =
    t.total <- t.total + 1;
    t.recent.(t.head) <- Some e;
    t.head <- (t.head + 1) mod t.recent_cap;
    insert_top t e;
    if Array.length e.spans > 0 then t.last_capture <- Some e

  let recent ?n t =
    let n = match n with None -> t.recent_cap | Some n -> max 0 n in
    let rec go i acc =
      if List.length acc >= n || i >= t.recent_cap then List.rev acc
      else
        let slot = (t.head - 1 - i + (2 * t.recent_cap)) mod t.recent_cap in
        match t.recent.(slot) with
        | None -> List.rev acc
        | Some e -> go (i + 1) (e :: acc)
    in
    go 0 []

  let top ?n t =
    match n with
    | None -> t.top
    | Some n ->
        let rec take k l =
          if k <= 0 then []
          else match l with [] -> [] | x :: xs -> x :: take (k - 1) xs
        in
        take n t.top

  let last_capture t = t.last_capture

  let find t id =
    let matches e = e.trace_id = id in
    let candidates =
      Option.to_list (Option.bind t.last_capture (fun e ->
          if matches e then Some e else None))
      @ List.filter matches (recent t)
      @ List.filter matches t.top
    in
    (* prefer a copy that still carries its spans *)
    match List.find_opt (fun e -> Array.length e.spans > 0) candidates with
    | Some e -> Some e
    | None -> ( match candidates with [] -> None | e :: _ -> Some e)

  let total t = t.total
end
