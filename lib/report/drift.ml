type counter_row = { metric : string; baseline : int; current : int }

type latency_row = {
  baseline_ns : float;
  current_ns : float;
  threshold : float;
}

type group = {
  fingerprint : string;
  label : string;
  samples : int;
  counters : counter_row list;
  latency : latency_row option;
}

type t = { groups : group list; unmatched : string list; window : int }

let group_drifted g = g.counters <> [] || g.latency <> None
let has_drift t = List.exists group_drifted t.groups

(* ------------------------------------------------------------------ *)

let mean_pair_ns (r : Record.t) =
  if r.verdicts.pairs = 0 then 0.
  else float_of_int r.pair_ns /. float_of_int r.verdicts.pairs

let counter_rows (b : Record.t) (c : Record.t) =
  let top =
    [
      ("pairs", b.verdicts.pairs, c.verdicts.pairs);
      ("independent", b.verdicts.independent, c.verdicts.independent);
      ("dependent", b.verdicts.dependent, c.verdicts.dependent);
      ("degraded", b.verdicts.degraded, c.verdicts.degraded);
    ]
  in
  let lookup rows kind =
    match
      List.find_opt (fun (r : Record.kind_row) -> r.kind = kind) rows
    with
    | Some r -> (r.applied, r.independent)
    | None -> (0, 0)
  in
  let kinds =
    List.sort_uniq compare
      (List.map
         (fun (r : Record.kind_row) -> r.kind)
         (b.verdicts.by_kind @ c.verdicts.by_kind))
  in
  let kind_rows =
    List.concat_map
      (fun kind ->
        let ba, bi = lookup b.verdicts.by_kind kind in
        let ca, ci = lookup c.verdicts.by_kind kind in
        [ (kind ^ " applied", ba, ca); (kind ^ " independent", bi, ci) ])
      kinds
  in
  List.filter_map
    (fun (metric, baseline, current) ->
      if baseline <> current then Some { metric; baseline; current } else None)
    (top @ kind_rows)

let diff ?(latency_threshold = 0.5) ?(min_ns = 10_000.) ?(check_latency = true)
    ~baseline ~current () =
  let counters = counter_rows baseline current in
  let latency =
    if not check_latency then None
    else
      let baseline_ns = mean_pair_ns baseline in
      let current_ns = mean_pair_ns current in
      if
        Dt_obs.Diff.breach ~threshold:latency_threshold ~min_ns
          ~base:baseline_ns ~cur:current_ns
      then Some { baseline_ns; current_ns; threshold = latency_threshold }
      else None
  in
  (counters, latency)

(* ------------------------------------------------------------------ *)

let latest_per_fingerprint records =
  let order = ref [] in
  let latest = Hashtbl.create 8 in
  List.iter
    (fun (r : Record.t) ->
      if not (Hashtbl.mem latest r.fingerprint) then
        order := r.fingerprint :: !order;
      Hashtbl.replace latest r.fingerprint r)
    records;
  List.rev_map (fun fp -> Hashtbl.find latest fp) !order

let last_n n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let detect ?(window = 5) ?(latency_threshold = 0.5) ?(min_ns = 10_000.)
    ?(check_latency = true) ~baseline ~current () =
  let groups, unmatched =
    List.fold_left
      (fun (groups, unmatched) (cur : Record.t) ->
        let matching =
          List.filter
            (fun (b : Record.t) -> b.fingerprint = cur.fingerprint)
            baseline
        in
        match last_n window matching with
        | [] ->
            let name =
              if cur.label <> "" then cur.label
              else String.sub cur.fingerprint 0 12
            in
            (groups, name :: unmatched)
        | recent ->
            let newest = List.nth recent (List.length recent - 1) in
            let counters = counter_rows newest cur in
            let latency =
              if not check_latency then None
              else
                let baseline_ns =
                  List.fold_left (fun acc r -> acc +. mean_pair_ns r) 0. recent
                  /. float_of_int (List.length recent)
                in
                let current_ns = mean_pair_ns cur in
                if
                  Dt_obs.Diff.breach ~threshold:latency_threshold ~min_ns
                    ~base:baseline_ns ~cur:current_ns
                then
                  Some
                    { baseline_ns; current_ns; threshold = latency_threshold }
                else None
            in
            ( {
                fingerprint = cur.fingerprint;
                label = cur.label;
                samples = List.length recent;
                counters;
                latency;
              }
              :: groups,
              unmatched ))
      ([], [])
      (latest_per_fingerprint current)
  in
  { groups = List.rev groups; unmatched = List.rev unmatched; window }

(* ------------------------------------------------------------------ *)

let pp_group ppf g =
  let short =
    if String.length g.fingerprint > 12 then String.sub g.fingerprint 0 12
    else g.fingerprint
  in
  if not (group_drifted g) then
    Format.fprintf ppf "[%s] %S: ok (%d baseline sample%s)" short g.label
      g.samples
      (if g.samples = 1 then "" else "s")
  else begin
    Format.fprintf ppf "@[<v 2>[%s] %S: DRIFT" short g.label;
    List.iter
      (fun r ->
        Format.fprintf ppf "@,%s: %d -> %d" r.metric r.baseline r.current)
      g.counters;
    (match g.latency with
    | None -> ()
    | Some l ->
        Format.fprintf ppf
          "@,mean pair latency: %.0f ns -> %.0f ns (+%.1f%%, threshold %.0f%%)"
          l.baseline_ns l.current_ns
          ((l.current_ns /. Float.max l.baseline_ns 1e-9 -. 1.) *. 100.)
          (l.threshold *. 100.));
    Format.fprintf ppf "@]"
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>drift over last %d matching run%s per fingerprint:"
    t.window
    (if t.window = 1 then "" else "s");
  if t.groups = [] && t.unmatched = [] then
    Format.fprintf ppf "@,(no runs to compare)";
  List.iter (fun g -> Format.fprintf ppf "@,%a" pp_group g) t.groups;
  List.iter
    (fun name -> Format.fprintf ppf "@,%S: no baseline with this fingerprint" name)
    t.unmatched;
  Format.fprintf ppf "@]"
