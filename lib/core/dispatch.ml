open Dt_ir

type t = {
  counters : Counters.t option;
  metrics : Dt_obs.Metrics.t option;
  sink : Dt_obs.Trace.sink option;
  spans : Dt_obs.Span.t option;
  budget : Dt_guard.Budget.t option;
  scratch : Banerjee.Scratch.t option;
  instrumented : bool;  (* metrics or spans: the clock is read *)
}

let make ?counters ?metrics ?sink ?spans ?budget ?scratch () =
  {
    counters;
    metrics;
    sink;
    spans;
    budget;
    scratch;
    instrumented = metrics <> None || spans <> None;
  }

let none = make ()
let tick t = if t.instrumented then Dt_obs.Clock.now_ns () else 0L

let record t ?(span = true) ~t0 k ~indep =
  (match t.counters with Some c -> Counters.record c k ~indep | None -> ());
  if t.instrumented then begin
    let t1 = Dt_obs.Clock.now_ns () in
    (match t.metrics with
    | Some m -> Dt_obs.Metrics.record m k ~indep ~ns:(Int64.sub t1 t0)
    | None -> ());
    match t.spans with
    | Some b when span ->
        Dt_obs.Span.record b (Dt_obs.Span.Test k) ~t0_ns:t0 ~t1_ns:t1
    | _ -> ()
  end

let span t kind f = Dt_obs.Span.with_ t.spans kind f
let tracing t = t.sink <> None

let emit t ev =
  match t.sink with Some sk -> Dt_obs.Trace.emit sk ev | None -> ()

let note t s = emit t (Dt_obs.Trace.Note s)

let scoped t f =
  match t.sink with Some sk -> Dt_obs.Trace.scope sk f | None -> f ()

(* callers build a non-constant [reason] only under [tracing] *)
let trace_test t kind p verdict reason =
  match t.sink with
  | Some sk ->
      Dt_obs.Trace.emit sk
        (Dt_obs.Trace.Test
           { kind; subscript = Spair.to_string p; verdict; reason })
  | None -> ()

type 'a applied = Independent of Counters.kind | Dependent of 'a

type separable =
  | Ziv of Outcome.t
  | Siv of Index.t * Siv.result
  | Rdiv of Rdiv.result

let outcome = function
  | Ziv o -> o
  | Siv (_, r) -> r.Siv.outcome
  | Rdiv r -> r.Rdiv.outcome

let siv_kind = function
  | Classify.Strong -> Counters.Strong_siv
  | Classify.Weak_zero -> Counters.Weak_zero_siv
  | Classify.Weak_crossing -> Counters.Weak_crossing_siv
  | Classify.General -> Counters.Exact_siv

let separable t assume range p cls =
  let t0 = tick t in
  let k, s =
    match (cls : Classify.t) with
    | Classify.Ziv ->
        let o = Ziv.test assume p in
        let d = Affine.sub p.Spair.snk p.Spair.src in
        ( (if Affine.is_const d then Counters.Ziv_test
           else Counters.Symbolic_ziv),
          Ziv o )
    | Classify.Siv { index; kind } ->
        (siv_kind kind, Siv (index, Siv.test assume range p index))
    | Classify.Rdiv { src_index; snk_index } ->
        ( Counters.Rdiv_test,
          Rdiv (Rdiv.test assume range p ~src:src_index ~snk:snk_index) )
    | Classify.Miv _ -> invalid_arg "Dispatch.separable: MIV subscript"
  in
  let indep = outcome s = Outcome.Independent in
  record t ~t0 k ~indep;
  if tracing t then
    trace_test t k p
      (if indep then Dt_obs.Trace.Independent
       else
         match s with
         | Ziv _ -> Dt_obs.Trace.Inconclusive
         | Siv _ | Rdiv _ -> Dt_obs.Trace.Dependent)
      (match s with
      | Ziv _ ->
          Format.asprintf
            (if indep then "subscript difference %a is never zero"
             else "subscript difference %a may vanish")
            Affine.pp
            (Affine.sub p.Spair.snk p.Spair.src)
      | Siv (index, r) -> Siv.explain range p index r
      | Rdiv r -> Rdiv.explain r);
  if indep then Independent k else Dependent s

let miv t assume range p ~indices =
  let t0 = tick t in
  match Gcd_test.test p with
  | `Independent ->
      record t ~t0 Counters.Gcd_miv ~indep:true;
      trace_test t Counters.Gcd_miv p Dt_obs.Trace.Independent
        "coefficient gcd does not divide the constant difference";
      Independent Counters.Gcd_miv
  | `Maybe -> (
      record t ~t0 Counters.Gcd_miv ~indep:false;
      trace_test t Counters.Gcd_miv p Dt_obs.Trace.Inconclusive
        "coefficient gcd divides the constant difference";
      let t1 = tick t in
      let v =
        Banerjee.vectors ?scratch:t.scratch ?metrics:t.metrics ?sink:t.sink
          ?spans:t.spans ?budget:t.budget assume range [ p ] ~indices
      in
      let indep = v = `Independent in
      record t ~t0:t1 ~span:false Counters.Banerjee_miv ~indep;
      if tracing t then
        trace_test t Counters.Banerjee_miv p
          (if indep then Dt_obs.Trace.Independent else Dt_obs.Trace.Dependent)
          (Banerjee.explain v);
      match v with
      | `Independent -> Independent Counters.Banerjee_miv
      | `Vectors vecs -> Dependent (Presult.Vectors (indices, vecs)))

let degraded t reason =
  (match t.metrics with
  | Some m -> Dt_obs.Metrics.degraded m (Dt_guard.Degrade.tag reason)
  | None -> ());
  if tracing t then
    note t
      (Printf.sprintf "pair degraded conservatively (%s)"
         (Dt_guard.Degrade.to_string reason))
