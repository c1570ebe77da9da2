(* The orientation pass's dedup before [Analyze.compare_component]:
   every component of a pair's vectors, sorted and deduplicated with the
   polymorphic [Stdlib.compare]. [Analyze.components] must return this
   list, order included. *)

let components dirvecs =
  Dt_support.Listx.dedup ~compare:Stdlib.compare
    (List.concat_map Deptest.Analyze.decompose dirvecs)
