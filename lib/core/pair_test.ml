open Dt_ir

let inject_pair = Dt_guard.Inject.register "pair.test"

type strategy = Partition_based | Subscript_by_subscript

type meta = {
  dims : int;
  nonlinear : int;
  separable : int;
  coupled_groups : int;
  coupled_positions : int;
  classes : Classify.t list;
  delta_passes : int;
  delta_leftover_miv : int;
  proved_by : Counters.kind option;
  degraded : Dt_guard.Degrade.reason option;
}

type dependence_info = {
  dirvecs : Dirvec.t list;
  distances : (Index.t * Outcome.dist) list;
}

type t = { result : [ `Independent | `Dependent of dependence_info ]; meta : meta }

let common_loops = Nest.common_loops

(* Rename sink-side loops beyond the common prefix whose indices collide
   with source-side indices: they are distinct loop variables. *)
let rename_snk ~src_loops ~common (snk_loops : Loop.t list)
    (snk_subs : Aref.subscript list) =
  let n_common = List.length common in
  let suffix = List.filteri (fun k _ -> k >= n_common) snk_loops in
  let src_indices =
    List.fold_left
      (fun s (l : Loop.t) -> Index.Set.add l.index s)
      Index.Set.empty src_loops
  in
  let taken = ref src_indices in
  let subst = ref [] in
  let fresh (i : Index.t) =
    let rec go name =
      let cand = Index.make name ~depth:(Index.depth i) in
      if Index.Set.mem cand !taken then go (name ^ "'") else cand
    in
    let j = go (Index.name i ^ "'") in
    taken := Index.Set.add j !taken;
    j
  in
  let rename_affine a =
    List.fold_left
      (fun a (i, j) -> Affine.subst_index a i (Affine.of_index j))
      a !subst
  in
  let suffix' =
    List.map
      (fun (l : Loop.t) ->
        let lo = rename_affine l.lo and hi = rename_affine l.hi in
        if Index.Set.mem l.index src_indices then begin
          let j = fresh l.index in
          subst := (l.index, j) :: !subst;
          Loop.make j ~lo ~hi
        end
        else begin
          taken := Index.Set.add l.index !taken;
          Loop.make l.index ~lo ~hi
        end)
      suffix
  in
  let subs' =
    List.map
      (function
        | Aref.Linear a -> Aref.Linear (rename_affine a)
        | Aref.Nonlinear _ as s -> s)
      snk_subs
  in
  (suffix', subs')

(* The driver proper. May raise: a checked-arithmetic overflow during
   renaming / range computation / classification — before the per-pair
   backstop below is even reachable — escapes this function. [test]
   wraps it so the exported entry point never raises. *)
let test_exn obs ~metrics ~spans ~strategy ~assume
    ~src:(src_ref, src_loops) ~snk:(snk_ref, snk_loops) =
  let common = common_loops src_loops snk_loops in
  let snk_suffix, snk_subs =
    rename_snk ~src_loops ~common snk_loops snk_ref.Aref.subs
  in
  let all_loops = src_loops @ snk_suffix in
  let assume = Assume.add_loop_facts assume all_loops in
  let range = Range.compute all_loops in
  let common_indices = List.map (fun (l : Loop.t) -> l.Loop.index) common in
  let n = List.length common_indices in
  let relevant =
    List.fold_left
      (fun s (l : Loop.t) -> Index.Set.add l.index s)
      Index.Set.empty all_loops
  in
  (* pair up subscript positions *)
  let src_subs = src_ref.Aref.subs in
  let rank_mismatch = List.length src_subs <> List.length snk_subs in
  let spairs, nonlinear =
    if rank_mismatch then ([], max (List.length src_subs) (List.length snk_subs))
    else
      List.fold_right2
        (fun s1 s2 (ps, nl) ->
          match (s1, s2) with
          | Aref.Linear a, Aref.Linear b -> (Spair.make a b :: ps, nl)
          | _ -> (ps, nl + 1))
        src_subs snk_subs ([], 0)
  in
  let classes, groups =
    Dt_obs.Span.with_ spans Dt_obs.Span.Partition (fun () ->
        Dt_obs.Metrics.timed metrics Dt_obs.Metrics.Partition (fun () ->
            ( List.map (fun p -> Classify.classify ~relevant p) spairs,
              Classify.partition ~relevant spairs )))
  in
  let delta_passes = ref 0 and delta_leftover = ref 0 in
  let exception Indep of Counters.kind option in
  (* fault containment: the first degradation reason per pair, recorded
     whether the fault is contained at the partition or the pair level *)
  let degraded = ref None in
  let note_degraded r = if !degraded = None then degraded := Some r in
  (* partition-level guard: an overflow (or injected fault) inside one
     partition's test widens that partition to "all directions" and lets
     the rest of the pair proceed. [Indep] and budget exhaustion pass
     through: an independence proof from another partition is still
     valid, while a spent budget must stop the whole pair. *)
  let contain ~widen f =
    match f () with
    | r -> r
    | exception ((Dt_guard.Ops.Overflow | Dt_guard.Inject.Injected _) as e) ->
        let r = Dt_guard.Degrade.of_exn e in
        note_degraded r;
        widen r
  in
  let test_separable p =
    match Classify.classify ~relevant p with
    | Classify.Miv _ -> (
        let occurring = Spair.indices p in
        let indices =
          List.filter (fun i -> Index.Set.mem i occurring) common_indices
        in
        match Dispatch.miv obs assume range p ~indices with
        | Dispatch.Independent k -> raise (Indep (Some k))
        | Dispatch.Dependent r -> r)
    | cls -> (
        match Dispatch.separable obs assume range p cls with
        | Dispatch.Independent k -> raise (Indep (Some k))
        | Dispatch.Dependent s -> Presult.of_outcome (Dispatch.outcome s))
  in
  let spairs_arr = Array.of_list spairs in
  let separable, coupled =
    List.partition (fun g -> List.length g.Classify.positions = 1) groups
  in
  Dispatch.emit obs
    (Dt_obs.Trace.Partitioned
       {
         dims = List.length spairs + nonlinear;
         nonlinear;
         separable = List.length separable;
         coupled_groups = List.length coupled;
       });
  let run () =
    Dt_guard.Inject.hit inject_pair;
    let parts =
      Dt_obs.Metrics.timed metrics Dt_obs.Metrics.Test (fun () ->
          match strategy with
          | Subscript_by_subscript -> (
              match
                Subscript_wise.test ~obs assume range spairs
                  ~common:common_indices
              with
              | `Independent k -> raise (Indep (Some k))
              | `Dependent parts -> parts)
          | Partition_based ->
              let sep_parts =
                List.map
                  (fun g ->
                    contain
                      ~widen:(fun r -> Presult.Degraded r)
                      (fun () ->
                        test_separable spairs_arr.(List.hd g.Classify.positions)))
                  separable
              in
              let coup_parts =
                List.concat_map
                  (fun g ->
                    let group_pairs =
                      List.map (fun k -> spairs_arr.(k)) g.Classify.positions
                    in
                    Dispatch.emit obs
                      (Dt_obs.Trace.Group_start
                         { positions = g.Classify.positions });
                    contain
                      ~widen:(fun r -> [ Presult.Degraded r ])
                      (fun () ->
                        let r =
                          Dispatch.scoped obs (fun () ->
                              Delta.test ~obs ~loops:all_loops assume range
                                group_pairs ~relevant)
                        in
                        delta_passes := max !delta_passes r.Delta.passes;
                        delta_leftover :=
                          !delta_leftover + r.Delta.leftover_miv;
                        match r.Delta.verdict with
                        | `Independent ->
                            raise (Indep (Some Counters.Delta_test))
                        | `Dependent parts -> parts))
                  coupled
              in
              sep_parts @ coup_parts)
    in
    Dt_obs.Span.with_ spans Dt_obs.Span.Merge @@ fun () ->
    Dt_obs.Metrics.timed metrics Dt_obs.Metrics.Merge (fun () ->
        if List.exists Presult.is_independent parts then raise (Indep None);
        let vec_sets =
          List.map (Presult.to_dirvecs ~loop_indices:common_indices) parts
        in
        if List.exists (fun s -> s = []) vec_sets then raise (Indep None);
        let dirvecs =
          match vec_sets with
          | [] -> [ Dirvec.full n ]
          | _ -> Dirvec.merge vec_sets
        in
        if dirvecs = [] then raise (Indep None);
        let distances =
          List.concat_map Presult.distances parts
          |> List.filter (fun (i, _) ->
                 List.exists (Index.equal i) common_indices)
        in
        `Dependent { dirvecs; distances })
  in
  (* pair-level backstop: whatever escapes the partition guard (budget
     exhaustion, a fault inside the merge, an unexpected exception from
     a buggy test) widens the whole pair, never the whole run. Only
     [Out_of_memory] stays fatal. *)
  let conservative reason =
    note_degraded reason;
    `Dependent { dirvecs = [ Dirvec.full n ]; distances = [] }
  in
  let result, proved_by =
    match run () with
    | r -> (r, None)
    | exception Indep k -> (`Independent, k)
    | exception Out_of_memory -> raise Out_of_memory
    | exception e -> (conservative (Dt_guard.Degrade.of_exn e), None)
  in
  Option.iter (Dispatch.degraded obs) !degraded;
  let meta =
    {
      dims = List.length spairs + nonlinear;
      nonlinear;
      separable = List.length separable;
      coupled_groups = List.length coupled;
      coupled_positions =
        Dt_support.Listx.sum_by
          (fun g -> List.length g.Classify.positions)
          coupled;
      classes;
      delta_passes = !delta_passes;
      delta_leftover_miv = !delta_leftover;
      proved_by;
      degraded = !degraded;
    }
  in
  { result; meta }

let degraded_result ~src:((_ : Aref.t), src_loops) ~snk:((_ : Aref.t), snk_loops)
    reason =
  let n = List.length (common_loops src_loops snk_loops) in
  {
    result = `Dependent { dirvecs = [ Dirvec.full n ]; distances = [] };
    meta =
      {
        dims = 0;
        nonlinear = 0;
        separable = 0;
        coupled_groups = 0;
        coupled_positions = 0;
        classes = [];
        delta_passes = 0;
        delta_leftover_miv = 0;
        proved_by = None;
        degraded = Some reason;
      };
  }

(* Whole-function backstop: [test_exn] can fault before its own pair-level
   guard is in place (huge constants overflow checked arithmetic inside
   [Range.compute] or kernel compilation at classification time). The
   exported driver therefore never raises — any fault yields the
   conservative full direction-vector verdict, with the reason recorded
   in metrics and on the trace. [Out_of_memory] stays fatal. *)
let test ?counters ?metrics ?sink ?spans ?budget ?scratch
    ?(strategy = Partition_based) ?(assume = Assume.empty) ~src ~snk () =
  if (fst src).Aref.base <> (fst snk).Aref.base then
    invalid_arg "Pair_test.test: references to different arrays";
  let obs =
    Dispatch.make ?counters ?metrics ?sink ?spans ?budget ?scratch ()
  in
  match test_exn obs ~metrics ~spans ~strategy ~assume ~src ~snk with
  | r -> r
  | exception Out_of_memory -> raise Out_of_memory
  | exception e ->
      let reason = Dt_guard.Degrade.of_exn e in
      Dispatch.degraded obs reason;
      degraded_result ~src ~snk reason
