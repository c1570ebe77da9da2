type row = {
  label : string;
  base_count : int;
  cur_count : int;
  base_ns : float;
  cur_ns : float;
  breach : bool;
}

type report = { rows : row list; threshold : float; min_ns : float }

(* both snapshot generations diff cleanly: /2 only added cache fields,
   which the extraction below never reads *)
let schemas = [ "deptest-metrics/1"; "deptest-metrics/2" ]

(* ------------------------------------------------------------------ *)
(* extraction: one (label, count, ns) triple per test kind, per phase,
   plus the pair total, from a deptest-metrics snapshot *)

let field name j = Json.member name j

let int_field ?(default = 0) name j =
  match Option.bind (field name j) Json.to_int with
  | Some n -> n
  | None -> default

let extract j =
  match Option.bind (field "schema" j) Json.to_str with
  | Some s when List.mem s schemas ->
      let tests =
        match Option.bind (field "tests" j) Json.to_list with
        | None -> []
        | Some rows ->
            List.filter_map
              (fun r ->
                Option.map
                  (fun kind ->
                    ( "test:" ^ kind,
                      int_field "applied" r,
                      int_field "total_ns" r ))
                  (Option.bind (field "kind" r) Json.to_str))
              rows
      in
      let phases =
        match field "phases" j with
        | Some (Json.Obj fields) ->
            List.filter_map
              (fun (name, v) ->
                match (Filename.check_suffix name "_ns", Json.to_int v) with
                | true, Some ns ->
                    Some
                      ( "phase:" ^ Filename.chop_suffix name "_ns",
                        0,
                        ns )
                | _ -> None)
              fields
        | _ -> []
      in
      let pairs =
        match field "pairs" j with
        | Some p ->
            [ ("pairs", int_field "tested" p, int_field "total_ns" p) ]
        | None -> []
      in
      Ok (tests @ phases @ pairs)
  | Some s ->
      Error
        (Printf.sprintf "expected schema %s, got %S"
           (String.concat " or " (List.map (Printf.sprintf "%S") schemas))
           s)
  | None -> Error "not a deptest-metrics snapshot (no schema field)"

(* ------------------------------------------------------------------ *)

(* a breach needs both a relative regression past the threshold and an
   absolute growth past [min_ns] — tiny values jitter by large factors
   without meaning anything *)
let breach ~threshold ~min_ns ~base ~cur =
  cur > base *. (1. +. threshold) && cur -. base >= min_ns

let compare_json ?(threshold = 0.25) ?(min_ns = 10_000.) ~base ~cur () =
  match (extract base, extract cur) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("current: " ^ e)
  | Ok b, Ok c ->
      let labels =
        List.map (fun (l, _, _) -> l) b
        @ List.filter_map
            (fun (l, _, _) ->
              if List.exists (fun (l', _, _) -> l' = l) b then None else Some l)
            c
      in
      let find l rows =
        match List.find_opt (fun (l', _, _) -> l' = l) rows with
        | Some (_, count, ns) -> (count, float_of_int ns)
        | None -> (0, 0.)
      in
      let rows =
        List.map
          (fun l ->
            let base_count, base_ns = find l b in
            let cur_count, cur_ns = find l c in
            let breach = breach ~threshold ~min_ns ~base:base_ns ~cur:cur_ns in
            { label = l; base_count; cur_count; base_ns; cur_ns; breach })
          labels
      in
      Ok { rows; threshold; min_ns }

let has_breach r = List.exists (fun row -> row.breach) r.rows

let pp ppf r =
  Format.fprintf ppf "%-24s %9s %9s %12s %12s %8s@." "metric" "base#" "cur#"
    "base(us)" "cur(us)" "delta";
  List.iter
    (fun row ->
      if row.base_ns <> 0. || row.cur_ns <> 0. || row.base_count <> 0
         || row.cur_count <> 0
      then begin
        let delta =
          if row.base_ns = 0. then (if row.cur_ns = 0. then 0. else infinity)
          else 100. *. (row.cur_ns -. row.base_ns) /. row.base_ns
        in
        Format.fprintf ppf "%-24s %9d %9d %12.1f %12.1f %+7.1f%%%s@."
          row.label row.base_count row.cur_count (row.base_ns /. 1e3)
          (row.cur_ns /. 1e3) delta
          (if row.breach then "  REGRESSION" else "")
      end)
    r.rows;
  if has_breach r then
    Format.fprintf ppf
      "regression: at least one metric grew past +%.0f%% (and +%.0fus \
       absolute)@."
      (100. *. r.threshold) (r.min_ns /. 1e3)
  else
    Format.fprintf ppf "no regression past +%.0f%% (min +%.0fus absolute)@."
      (100. *. r.threshold) (r.min_ns /. 1e3)
