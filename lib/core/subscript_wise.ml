open Dt_ir

let test ?counters ?metrics ?sink ?spans ?budget ?scratch assume
    range pairs ~common =
  let instrumented = metrics <> None || spans <> None in
  let record ?(t0 = 0L) ?(span = true) k ~indep =
    (match counters with Some c -> Counters.record c k ~indep | None -> ());
    if instrumented then begin
      let t1 = Dt_obs.Clock.now_ns () in
      (match metrics with
      | Some m -> Dt_obs.Metrics.record m k ~indep ~ns:(Int64.sub t1 t0)
      | None -> ());
      match spans with
      | Some b when span ->
          Dt_obs.Span.record b (Dt_obs.Span.Test k) ~t0_ns:t0 ~t1_ns:t1
      | _ -> ()
    end
  in
  let tick () = if instrumented then Dt_obs.Clock.now_ns () else 0L in
  let emit_test kind p verdict reason =
    match sink with
    | Some s ->
        Dt_obs.Trace.emit s
          (Dt_obs.Trace.Test
             { kind; subscript = Spair.to_string p; verdict; reason })
    | None -> ()
  in
  let exception Indep of Counters.kind in
  try
    let parts =
      List.map
        (fun p ->
          let t0 = tick () in
          (match Gcd_test.test p with
          | `Independent ->
              record ~t0 Counters.Gcd_miv ~indep:true;
              emit_test Counters.Gcd_miv p Dt_obs.Trace.Independent
                "coefficient gcd does not divide the constant difference";
              raise (Indep Counters.Gcd_miv)
          | `Maybe -> record ~t0 Counters.Gcd_miv ~indep:false);
          let occurring = Spair.indices p in
          let indices =
            List.filter (fun i -> Index.Set.mem i occurring) common
          in
          let t1 = tick () in
          match
            Banerjee.vectors ?scratch ?metrics ?sink ?spans ?budget
              assume range [ p ] ~indices
          with
          | `Independent as v ->
              record ~t0:t1 ~span:false Counters.Banerjee_miv ~indep:true;
              emit_test Counters.Banerjee_miv p Dt_obs.Trace.Independent
                (Banerjee.explain v);
              raise (Indep Counters.Banerjee_miv)
          | `Vectors vecs as v ->
              record ~t0:t1 ~span:false Counters.Banerjee_miv ~indep:false;
              emit_test Counters.Banerjee_miv p Dt_obs.Trace.Dependent
                (Banerjee.explain v);
              Presult.Vectors (indices, vecs))
        pairs
    in
    `Dependent parts
  with Indep k -> `Independent k
