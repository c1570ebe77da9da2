(** Cross-run regression diffing of {!Metrics} snapshots.

    Two [deptest-metrics/1] or [/2] JSON snapshots (as printed by
    [deptest profile --json] or written by the bench harness) compare
    row-wise: one row per test kind ([test:<slug>], count = applied,
    ns = total), per phase ([phase:<name>]), plus the [pairs] total.
    Bench baselines, CI, and the [profile --diff] subcommand all consume
    this one report. *)

type row = {
  label : string;
  base_count : int;
  cur_count : int;
  base_ns : float;
  cur_ns : float;
  breach : bool;  (** this row regressed past the thresholds *)
}

type report = { rows : row list; threshold : float; min_ns : float }

val breach : threshold:float -> min_ns:float -> base:float -> cur:float -> bool
(** The one threshold-and-floor rule: [cur] regressed past [base] when it
    grew by more than the relative [threshold] {e and} by at least
    [min_ns] absolute. {!compare_json} and the ledger's drift check
    both apply it. *)

val compare_json :
  ?threshold:float ->
  ?min_ns:float ->
  base:Json.t ->
  cur:Json.t ->
  unit ->
  (report, string) result
(** [threshold] (default [0.25]) is the relative ns growth that flags a
    regression; [min_ns] (default [10_000.]) is the absolute growth
    floor a row must also exceed — both must hold, so microsecond-scale
    rows don't flag on jitter. Labels missing on either side diff
    against zero. [Error] on a schema mismatch. *)

val has_breach : report -> bool

val pp : Format.formatter -> report -> unit
(** Per-row table (rows that are zero on both sides are elided) followed
    by a one-line verdict. *)
