open Dt_ir

let test ?(obs = Dispatch.none) assume range pairs ~common =
  let exception Indep of Counters.kind in
  try
    let parts =
      List.map
        (fun p ->
          let occurring = Spair.indices p in
          let indices =
            List.filter (fun i -> Index.Set.mem i occurring) common
          in
          match Dispatch.miv obs assume range p ~indices with
          | Dispatch.Independent k -> raise (Indep k)
          | Dispatch.Dependent r -> r)
        pairs
    in
    `Dependent parts
  with Indep k -> `Independent k
