(** The canonical plain-text rendering of an analysis result.

    One definition of the verdict text, shared by [deptest analyze]'s
    plain path and the serve daemon: the daemon answers with exactly the
    bytes the one-shot CLI would print, so cached responses are
    byte-identical to cold in-process runs by construction.

    {!unit_} writes a whole compilation unit into one buffer through the
    printers' buffer writers ({!Deptest.Dep.to_buffer},
    {!Deptest.Counters.to_buffer}); the per-fragment functions below
    render the same text piecewise for the CLI, which interleaves its
    [--explain] output between them. *)

val header : many:bool -> string -> string
(** ["===== name =====\n"] when the unit has several routines. *)

val verdicts : Dt_ir.Nest.program -> Deptest.Analyze.result -> string
(** The program listing followed by its dependences (or
    ["no dependences"]). *)

val warnings : Deptest.Analyze.result -> string * int
(** The conservative-degradation warnings and how many pairs degraded. *)

val counters : Deptest.Analyze.result -> string
(** The ["-- tests applied --"] footer with the §6 counter table. *)

val routine :
  many:bool -> Dt_ir.Nest.program -> Deptest.Analyze.result -> string * int
(** Full plain-path rendering of one routine: header, verdicts,
    warnings, counters. Returns the text and the degraded-pair count. *)

val routines :
  many:bool ->
  Dt_ir.Nest.program list ->
  Deptest.Analyze.result list ->
  string * int
(** {!routine} over consecutive routines of a unit, written into one
    buffer sized from the dependence count. The serve daemon renders
    each routine it recomputes this way, [many] being whether the
    whole unit has more than one routine. *)

val unit_ :
  Dt_ir.Nest.program list -> Deptest.Analyze.result list -> string * int
(** {!routines} over a whole compilation unit, [many] inferred. *)
