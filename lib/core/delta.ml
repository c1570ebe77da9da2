open Dt_ir

type result = {
  verdict : [ `Independent | `Dependent of Presult.t list ];
  passes : int;
  leftover_miv : int;
}

exception Proved_independent

(* substitute beta_i = alpha_i + e into the pair: the sink occurrence
   a2*beta_i becomes a2*alpha_i + a2*e; the alpha term moves to the source
   side as a coefficient merge (see DESIGN.md). *)
let apply_dist (p : Spair.t) i e =
  let a1, a2 = Spair.coeffs p i (* compiled-kernel coefficient lookup *) in
  if a2 = 0 then None
  else
    let src = Affine.set_coeff p.src i (a1 - a2) in
    let snk = Affine.add (Affine.drop_index p.snk i) (Affine.scale a2 e) in
    Some (Spair.make src snk)

let apply_point (p : Spair.t) i ~x ~y =
  let a1, a2 = Spair.coeffs p i in
  if a1 = 0 && a2 = 0 then None
  else
    Some
      (Spair.make
         (Affine.subst_index p.src i x)
         (Affine.subst_index p.snk i y))

let apply_constraint (p : Spair.t) i constr =
  match (constr : Constr.t) with
  | Constr.Dist d -> apply_dist p i (Affine.const d)
  | Constr.Sym_dist e -> apply_dist p i e
  | Constr.Point { x; y } ->
      apply_point p i ~x:(Affine.const x) ~y:(Affine.const y)
  | Constr.Line { a = 1; b = 0; c } ->
      if fst (Spair.coeffs p i) = 0 then None
      else Some (Spair.make (Affine.subst_index p.src i c) p.snk)
  | Constr.Line { a = 0; b = 1; c } ->
      if snd (Spair.coeffs p i) = 0 then None
      else Some (Spair.make p.src (Affine.subst_index p.snk i c))
  | _ -> None

(* joint direction vectors for crossed RDIV relations:
   alpha_i = beta_j + c1 and alpha_j = beta_i + c2 imply
   d_i + d_j = -(c1 + c2) for the two dependence distances. *)
let crossed_vectors s =
  let feas (si, sj) =
    match (si, sj) with
    | Direction.Eq, Direction.Eq -> s = 0
    | Direction.Eq, Direction.Lt -> s >= 1
    | Direction.Eq, Direction.Gt -> s <= -1
    | Direction.Lt, Direction.Eq -> s >= 1
    | Direction.Gt, Direction.Eq -> s <= -1
    | Direction.Lt, Direction.Lt -> s >= 2
    | Direction.Gt, Direction.Gt -> s <= -2
    | Direction.Lt, Direction.Gt | Direction.Gt, Direction.Lt -> true
  in
  List.concat_map
    (fun si ->
      List.filter_map
        (fun sj -> if feas (si, sj) then Some [ si; sj ] else None)
        Direction.all)
    Direction.all

(* Symbolic-FM check for one candidate direction vector of a crossed RDIV
   group: variables (alpha_i, alpha_j, beta_i, beta_j); constraints are
   the two relations, the loop bounds of i and j applied to both iteration
   vectors (triangular bounds referencing the partner index included), and
   the candidate's direction constraints. *)
let crossed_rdiv_infeasible assume loops ~i ~j ~c1 ~c2 ~di ~dj =
  let var_a ix =
    if Index.equal ix i then Some 0
    else if Index.equal ix j then Some 1
    else None
  in
  let var_b ix =
    if Index.equal ix i then Some 2
    else if Index.equal ix j then Some 3
    else None
  in
  let cs = ref [] in
  let push c = cs := c :: !cs in
  (* relations: alpha_i - beta_j = c1; alpha_j - beta_i = c2 *)
  List.iter push (Symfm.eq [| 1; 0; 0; -1 |] c1);
  List.iter push (Symfm.eq [| 0; 1; -1; 0 |] c2);
  (* loop bounds, for the alpha and beta instances separately *)
  let bound_of ~var_map v (bound : Affine.t) ~is_lo =
    (* is_lo: bound <= x_v; else x_v <= bound. Index terms of the bound
       must map into our variable set, else skip (conservative). *)
    let ok = ref true in
    let coeffs = Array.make 4 0 in
    List.iter
      (fun (ix, k) ->
        match var_map ix with
        | Some w -> coeffs.(w) <- coeffs.(w) + (if is_lo then k else -k)
        | None -> ok := false)
      (Affine.index_terms bound);
    if !ok then begin
      let sym_part =
        Affine.make ~idx:[] ~sym:(Affine.sym_terms bound)
          ~const:(Affine.const_part bound)
      in
      if is_lo then begin
        (* bound_idx_terms + sym <= x_v :  coeffs - e_v <= -sym *)
        coeffs.(v) <- coeffs.(v) - 1;
        push (Symfm.le coeffs (Affine.neg sym_part))
      end
      else begin
        (* x_v <= bound: e_v - bound_idx_terms <= sym *)
        coeffs.(v) <- coeffs.(v) + 1;
        push (Symfm.le coeffs sym_part)
      end
    end
  in
  List.iter
    (fun (l : Loop.t) ->
      let handle var_map =
        match var_map l.index with
        | Some v ->
            bound_of ~var_map v l.lo ~is_lo:true;
            bound_of ~var_map v l.hi ~is_lo:false
        | None -> ()
      in
      handle var_a;
      handle var_b)
    loops;
  (* direction constraints: alpha vs beta of the same index *)
  let dir_constraints v_a v_b d =
    let e k =
      Array.init 4 (fun w -> if w = v_a then k else if w = v_b then -k else 0)
    in
    match (d : Direction.t) with
    | Direction.Lt -> [ Symfm.le (e 1) (Affine.const (-1)) ]
    | Direction.Gt -> [ Symfm.le (e (-1)) (Affine.const (-1)) ]
    | Direction.Eq -> Symfm.eq (e 1) Affine.zero
  in
  List.iter push (dir_constraints 0 2 di);
  List.iter push (dir_constraints 1 3 dj);
  Symfm.infeasible assume ~nvars:4 !cs

(* Is the relation [x_i = x_j + e] (both variables on the same side)
   impossible within the nest bounds? Sound: [true] requires a bound
   violated for every value after index terms cancel, e.g. the triangular
   bound DO J = I+1, N refutes x_j = x_i + e for e <= 0. *)
let relation_infeasible loops assume ~ivar ~jvar ~e =
  let xi_as_j = Affine.add (Affine.of_index jvar) e in
  let xj_as_i = Affine.sub (Affine.of_index ivar) e in
  List.exists
    (fun (l : Loop.t) ->
      let refuted expr bound ~ge =
        (* requires expr >= bound (ge) or expr <= bound *)
        let d = if ge then Affine.sub expr bound else Affine.sub bound expr in
        Index.Set.is_empty (Affine.indices d) && Assume.prove_neg assume d
      in
      if Index.equal l.index ivar then
        refuted xi_as_j l.lo ~ge:true || refuted xi_as_j l.hi ~ge:false
      else if Index.equal l.index jvar then
        refuted xj_as_i l.lo ~ge:true || refuted xj_as_i l.hi ~ge:false
      else false)
    loops

let test ?(obs = Dispatch.none) ?(loops = []) assume range pairs ~relevant =
  Dispatch.span obs Dt_obs.Span.Delta @@ fun () ->
  let t_start = Dispatch.tick obs in
  (* [tracing] is checked before any trace string is built, so a run
     without a sink allocates nothing for tracing *)
  let tracing = Dispatch.tracing obs in
  let note = Dispatch.note obs in
  let pairs = Array.of_list pairs in
  let n = Array.length pairs in
  let pending = Array.make n true in
  let constraints = ref Index.Map.empty in
  let relations = ref [] in
  let extra_results = ref [] in
  let passes = ref 0 in
  let get_constr i =
    Option.value (Index.Map.find_opt i !constraints) ~default:Constr.Any
  in
  let changed = ref false in
  let add_constr i c =
    let old = get_constr i in
    let c' = Constr.intersect assume old c in
    if tracing then begin
      Dispatch.emit obs
        (Dt_obs.Trace.Constraint
           {
             index = Format.asprintf "%a" Index.pp i;
             constr = Constr.to_string c';
             note = Format.asprintf "%a /\\ %a" Constr.pp old Constr.pp c;
           })
    end;
    if Constr.is_empty c' then begin
      if tracing then note "  -> contradiction: independent";
      raise Proved_independent
    end;
    if not (Constr.equal old c') then begin
      constraints := Index.Map.add i c' !constraints;
      changed := true
    end
  in
  let test_one k =
    let p = pairs.(k) in
    match Classify.classify ~relevant p with
    | Classify.Miv _ -> () (* handled by propagation / fallback *)
    | cls -> (
        pending.(k) <- false;
        match Dispatch.separable obs assume range p cls with
        | Dispatch.Independent _ -> raise Proved_independent
        | Dispatch.Dependent (Dispatch.Ziv _) -> ()
        | Dispatch.Dependent (Dispatch.Siv (index, r)) ->
            add_constr index r.Siv.constr
        | Dispatch.Dependent (Dispatch.Rdiv r) -> (
            match r.Rdiv.relation with
            | Some rel ->
                relations := rel :: !relations;
                changed := true
            | None -> ()))
  in
  let propagate () =
    for k = 0 to n - 1 do
      if pending.(k) then begin
        let p = ref pairs.(k) in
        let occurring = Index.Set.inter (Spair.indices !p) relevant in
        Index.Set.iter
          (fun i ->
            match apply_constraint !p i (get_constr i) with
            | Some p' ->
                if tracing then
                  note
                    (Format.asprintf "  propagate %a into %a -> %a" Constr.pp
                       (get_constr i) Spair.pp !p Spair.pp p');
                p := p';
                changed := true
            | None -> ())
          occurring;
        pairs.(k) <- !p
      end
    done
  in
  (* Group-level relational refinement: encode every RDIV relation, every
     per-index constraint, and the loop bounds of the group's indices into
     one symbolic-FM system over (alpha_k, beta_k) variables. Proves
     independence for chained relations under triangular bounds (e.g.
     A(I,K) vs A(K,J) in dgefa-style elimination) and sharpens per-index
     direction sets. *)
  let relational_refine () =
    if !relations <> [] then begin
      let idxs =
        let s =
          List.fold_left
            (fun s (r : Rdiv.relation) ->
              Index.Set.add r.Rdiv.src_index
                (Index.Set.add r.Rdiv.snk_index s))
            Index.Set.empty !relations
        in
        Index.Map.fold (fun i _ s -> Index.Set.add i s) !constraints s
        |> Index.Set.elements
        |> List.sort (fun a b -> compare (Index.depth a) (Index.depth b))
      in
      let n = List.length idxs in
      if n >= 1 && n <= 4 then begin
        let nvars = 2 * n in
        let pos ix =
          let rec go k = function
            | [] -> None
            | x :: rest -> if Index.equal x ix then Some k else go (k + 1) rest
          in
          go 0 idxs
        in
        let var_a ix = Option.map (fun k -> 2 * k) (pos ix) in
        let var_b ix = Option.map (fun k -> (2 * k) + 1) (pos ix) in
        let base = ref [] in
        let push c = base := c :: !base in
        let unit v k = Array.init nvars (fun w -> if w = v then k else 0) in
        let pair v1 k1 v2 k2 =
          Array.init nvars (fun w ->
              if w = v1 then k1 else if w = v2 then k2 else 0)
        in
        (* relations *)
        List.iter
          (fun (r : Rdiv.relation) ->
            match (var_a r.Rdiv.src_index, var_b r.Rdiv.snk_index) with
            | Some va, Some vb ->
                List.iter push (Symfm.eq (pair va r.Rdiv.a vb r.Rdiv.b) r.Rdiv.c)
            | _ -> ())
          !relations;
        (* per-index constraints *)
        List.iter
          (fun ix ->
            match (var_a ix, var_b ix) with
            | Some va, Some vb -> (
                match get_constr ix with
                | Constr.Dist d ->
                    List.iter push
                      (Symfm.eq (pair vb 1 va (-1)) (Affine.const d))
                | Constr.Sym_dist e ->
                    List.iter push (Symfm.eq (pair vb 1 va (-1)) e)
                | Constr.Point { x; y } ->
                    List.iter push (Symfm.eq (unit va 1) (Affine.const x));
                    List.iter push (Symfm.eq (unit vb 1) (Affine.const y))
                | Constr.Line { a; b; c } ->
                    List.iter push (Symfm.eq (pair va a vb b) c)
                | Constr.Any | Constr.Empty -> ())
            | _ -> ())
          idxs;
        (* loop bounds for both instances *)
        let bound_of ~var_map v (bound : Affine.t) ~is_lo =
          let ok = ref true in
          let coeffs = Array.make nvars 0 in
          List.iter
            (fun (ix, k) ->
              match var_map ix with
              | Some w -> coeffs.(w) <- coeffs.(w) + (if is_lo then k else -k)
              | None -> ok := false)
            (Affine.index_terms bound);
          if !ok then begin
            let sym_part =
              Affine.make ~idx:[] ~sym:(Affine.sym_terms bound)
                ~const:(Affine.const_part bound)
            in
            if is_lo then begin
              coeffs.(v) <- coeffs.(v) - 1;
              push (Symfm.le coeffs (Affine.neg sym_part))
            end
            else begin
              coeffs.(v) <- coeffs.(v) + 1;
              push (Symfm.le coeffs sym_part)
            end
          end
        in
        List.iter
          (fun (l : Loop.t) ->
            let handle var_map =
              match var_map l.Loop.index with
              | Some v ->
                  bound_of ~var_map v l.Loop.lo ~is_lo:true;
                  bound_of ~var_map v l.Loop.hi ~is_lo:false
              | None -> ()
            in
            handle var_a;
            handle var_b)
          loops;
        if Symfm.infeasible assume ~nvars !base then begin
          if tracing then note "  relational system infeasible: independent";
          raise Proved_independent
        end;
        (* per-index direction refinement *)
        List.iter
          (fun ix ->
            match (var_a ix, var_b ix) with
            | Some va, Some vb ->
                let dir_ok (d : Direction.t) =
                  let extra =
                    match d with
                    | Direction.Lt ->
                        [ Symfm.le (pair va 1 vb (-1)) (Affine.const (-1)) ]
                    | Direction.Gt ->
                        [ Symfm.le (pair vb 1 va (-1)) (Affine.const (-1)) ]
                    | Direction.Eq -> Symfm.eq (pair va 1 vb (-1)) Affine.zero
                  in
                  not (Symfm.infeasible assume ~nvars (extra @ !base))
                in
                let dirs = Direction.of_list (List.filter dir_ok Direction.all) in
                if Direction.is_empty dirs then begin
                  if tracing then
                    note "  relational direction refinement: independent";
                  raise Proved_independent
                end
                else if not (Direction.is_full dirs) then
                  extra_results :=
                    Presult.Indexwise
                      [ { Outcome.index = ix; dirs; dist = Outcome.Unknown } ]
                    :: !extra_results
            | _ -> ())
          idxs
      end
    end
  in
  let refine_rdiv () =
    (* pairwise joint reasoning over normalized (alpha = beta + c) relations *)
    let norm (r : Rdiv.relation) =
      if r.Rdiv.a = 1 && r.Rdiv.b = -1 then Some (r.Rdiv.src_index, r.Rdiv.snk_index, r.Rdiv.c)
      else if r.Rdiv.a = -1 && r.Rdiv.b = 1 then
        Some (r.Rdiv.src_index, r.Rdiv.snk_index, Affine.neg r.Rdiv.c)
      else None
    in
    let normed = List.filter_map norm !relations in
    (* interaction of relations with per-index constraints (§5.3.2):
       alpha_i = beta_j + c combines with
       - Dist d on i (beta_i = alpha_i + d): beta_i = beta_j + (c + d),
         a sink-side relation checkable against triangular bounds;
       - Dist d on j (beta_j = alpha_j + d): alpha_i = alpha_j + (c + d),
         the source-side analogue;
       - Point / fixed-iteration constraints: the relation pins the other
         index. *)
    List.iter
      (fun (i, j, c) ->
        (match get_constr i with
        | Constr.Dist d ->
            let e = Affine.add_const d c in
            if relation_infeasible loops assume ~ivar:i ~jvar:j ~e then begin
              if tracing then
                note
                  (Format.asprintf
                     "  RDIV relation beta_%a = beta_%a + %a violates bounds: \
                      independent"
                     Index.pp i Index.pp j Affine.pp e);
              raise Proved_independent
            end
        | Constr.Sym_dist ds ->
            let e = Affine.add ds c in
            if relation_infeasible loops assume ~ivar:i ~jvar:j ~e then begin
              if tracing then
                note "  symbolic RDIV relation violates bounds: independent";
              raise Proved_independent
            end
        | Constr.Point { x; _ } ->
            (* alpha_i = x: beta_j = x - c *)
            add_constr j
              (Constr.line ~a:0 ~b:1 ~c:(Affine.add_const x (Affine.neg c)))
        | Constr.Line { a = 1; b = 0; c = v } ->
            add_constr j (Constr.line ~a:0 ~b:1 ~c:(Affine.sub v c))
        | _ -> ());
        match get_constr j with
        | Constr.Dist d ->
            let e = Affine.add_const d c in
            if relation_infeasible loops assume ~ivar:i ~jvar:j ~e then begin
              if tracing then
                note
                  (Format.asprintf
                     "  RDIV relation alpha_%a = alpha_%a + %a violates \
                      bounds: independent"
                     Index.pp i Index.pp j Affine.pp e);
              raise Proved_independent
            end
        | Constr.Sym_dist ds ->
            let e = Affine.add ds c in
            if relation_infeasible loops assume ~ivar:i ~jvar:j ~e then
              raise Proved_independent
        | Constr.Point { y; _ } ->
            (* beta_j = y: alpha_i = y + c *)
            add_constr i (Constr.line ~a:1 ~b:0 ~c:(Affine.add_const y c))
        | Constr.Line { a = 0; b = 1; c = v } ->
            add_constr i (Constr.line ~a:1 ~b:0 ~c:(Affine.add v c))
        | _ -> ())
      normed;
    List.iteri
      (fun idx1 (i1, j1, c1) ->
        List.iteri
          (fun idx2 (i2, j2, c2) ->
            if idx2 > idx1 then
              if Index.equal i1 j2 && Index.equal j1 i2 && not (Index.equal i1 j1)
              then begin
                (* crossed: alpha_{i1} = beta_{j1} + c1, alpha_{j1} = beta_{i1} + c2.
                   Two filters on the joint direction vectors over (i1, j1):
                   - arithmetic: d_i + d_j = -(c1 + c2) constrains the sign
                     combination (when the sum is constant);
                   - relational: a 4-variable symbolic Fourier-Motzkin
                     system built from the relations, both loops' bounds
                     (triangular bounds included), and the candidate's
                     direction constraints. *)
                let arith =
                  match Affine.as_const (Affine.add c1 c2) with
                  | Some sum ->
                      let s = -sum in
                      if tracing then
                        note
                          (Format.asprintf
                             "  RDIV coupling on (%a,%a): d_%a + d_%a = %d"
                             Index.pp i1 Index.pp j1 Index.pp i1 Index.pp j1 s);
                      crossed_vectors s
                  | None ->
                      List.concat_map
                        (fun a -> List.map (fun b -> [ a; b ]) Direction.all)
                        Direction.all
                in
                let vecs =
                  List.filter
                    (fun vec ->
                      match vec with
                      | [ di; dj ] ->
                          not
                            (crossed_rdiv_infeasible assume loops ~i:i1 ~j:j1
                               ~c1 ~c2 ~di ~dj)
                      | _ -> assert false)
                    arith
                in
                if tracing && List.length vecs < List.length arith then
                  note
                    (Format.asprintf
                       "  relational RDIV filter kept %d of %d vectors"
                       (List.length vecs) (List.length arith));
                if vecs = [] then raise Proved_independent
                else
                  extra_results :=
                    Presult.Vectors ([ i1; j1 ], vecs) :: !extra_results
              end
              else if Index.equal i1 i2 && Index.equal j1 j2 then begin
                (* same orientation: alpha_i = beta_j + c1 = beta_j + c2 *)
                match Assume.sign assume (Affine.sub c1 c2) with
                | `Pos | `Neg ->
                    if tracing then
                      note "  inconsistent RDIV relations: independent";
                    raise Proved_independent
                | _ -> ()
              end)
          normed)
      normed
  in
  let run () =
    (* initial pass over non-MIV subscripts, then propagate/retest cycles *)
    let continue = ref true in
    while !continue && !passes < (3 * n) + 3 do
      incr passes;
      Dispatch.emit obs (Dt_obs.Trace.Pass !passes);
      Dispatch.span obs Dt_obs.Span.Delta_pass (fun () ->
          changed := false;
          for k = 0 to n - 1 do
            if pending.(k) then test_one k
          done;
          propagate ());
      continue := !changed
    done;
    refine_rdiv ();
    relational_refine ();
    (* final interpretation *)
    let indexwise =
      Index.Map.fold
        (fun i c acc ->
          match Constr.to_outcome assume range i c with
          | Outcome.Independent ->
              if tracing then
                note
                  (Format.asprintf
                     "  final constraint on %a out of bounds: independent"
                     Index.pp i);
              raise Proved_independent
          | Outcome.Dependent deps -> deps @ acc)
        !constraints []
    in
    let leftovers = ref 0 in
    let miv_results = ref [] in
    for k = 0 to n - 1 do
      if pending.(k) then begin
        let p = pairs.(k) in
        let occurring = Index.Set.inter (Spair.indices p) relevant in
        if not (Index.Set.is_empty occurring) then begin
          incr leftovers;
          let indices =
            Index.Set.elements occurring
            |> List.sort (fun a b -> compare (Index.depth a) (Index.depth b))
          in
          match Dispatch.miv obs assume range p ~indices with
          | Dispatch.Independent _ -> raise Proved_independent
          | Dispatch.Dependent r -> miv_results := r :: !miv_results
        end
      end
    done;
    let parts =
      (if indexwise = [] then [] else [ Presult.Indexwise indexwise ])
      @ !extra_results @ !miv_results
    in
    let parts = if parts = [] then [ Presult.Indexwise [] ] else parts in
    { verdict = `Dependent parts; passes = !passes; leftover_miv = !leftovers }
  in
  let res =
    try run ()
    with Proved_independent ->
      { verdict = `Independent; passes = !passes; leftover_miv = 0 }
  in
  Dispatch.record obs ~t0:t_start ~span:false Counters.Delta_test
    ~indep:(res.verdict = `Independent);
  res
