(** Structural canonicalization of a reference-pair dependence query.

    Two queries get the same key exactly when they are identical up to a
    renaming of their loop index variables: same subscript pair shapes
    (normalized coefficients, symbolic terms and constants), same loop
    bounds and nesting depths, same extra assume facts, same driver
    configuration tag. The LINPACK/EISPACK/Livermore corpus repeats such
    shapes thousands of times, so keying the per-pair driver on this form
    is what makes the structural memo cache pay.

    Canonical index names are ["%0"], ["%1"], ... assigned in first-
    occurrence order over the source loops, then the sink loops, then any
    stray subscript index — a deterministic ordering, so isomorphic
    queries canonicalize identically. ['%'] cannot appear in a source
    identifier, so canonical names never collide with real ones. Loop
    depths are preserved verbatim in the key: depth participates in
    {!Dt_ir.Index.t} identity and hence in driver behavior.

    The mapping between canonical names and the query's actual indices is
    returned alongside the key so a cached result can be rehydrated into
    a different (isomorphic) query's index space.

    {b Encoding.} The key is
    [tag|facts|s[subs](loop)...|t[subs](loop)...]. A linear subscript is
    [L:] and its affine form: index terms [c*%n+] in canonical-id order,
    symbolic terms [c*N+] in [String.compare] order, then the constant. A
    nonlinear subscript is [N], the length of its source text, [:], and
    the text. A loop is [(%n@depth lo..hi)]. Integers are written in
    decimal, exactly as [string_of_int] would.

    {b Cost.} [make] writes into one buffer per domain
    ([Domain.DLS]: it runs on pool workers) and allocates only the key
    string and the mapping. Canonical ids come from a scan of a small
    index array (physical equality first, then {!Dt_ir.Index.equal}),
    each affine form's terms are insertion-sorted by id, and the names
    ["%0"], ["%1"], ... come from a precomputed table. *)

open Dt_ir

type t = {
  key : string;  (** the hash key: canonical rendering of the query *)
  actual_of_canon : (string * Index.t) list;
      (** canonical name -> this query's index, in assignment order *)
}

val make :
  src:Aref.t * Loop.t list ->
  snk:Aref.t * Loop.t list ->
  facts:string ->
  tag:string ->
  t
(** [facts] is a pre-rendered digest of the run-level assume facts (they
    are index-free, hence shared by every pair of a run — render once with
    {!facts_digest}); [tag] encodes remaining configuration that affects
    the verdict (e.g. the testing strategy). *)

val facts_digest : Affine.t list -> string
(** Order-independent rendering of symbol-only affine facts. *)
