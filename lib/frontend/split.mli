(** Routine boundaries of a compilation unit, found without lexing.

    A line scanner that cuts a mini-Fortran unit after each [END]
    statement, so that parsing each piece on its own gives the routines
    {!Parser.parse_unit} gives for the whole unit (line numbers counted
    from the start of the piece). It classifies lines with the lexer's
    own line rules ({!Lexer.comment_line}, {!Lexer.last_kept},
    {!Lexer.continuation_line}): a comment line has ['C'], ['c'] or
    ['*'] in column one, text from a ['!'] on is dropped, and a line
    that is blank after that carries no statement. A statement line ends its
    routine when its first word, after at most one numeric label, is
    [END] in any case: [END], [END DO], [END PROGRAM X] and [10 END]
    do, [ENDDO] and [END_DO] do not — the parser reads the same words
    the same way.

    Where a statement may span lines — a trailing ['&'] or a column-6
    continuation — or the unit is C ({!Cfront.looks_like_c}), the
    scanner cannot vouch for its cut and returns the whole unit as one
    piece. Lines with no statement before a routine belong to it, and
    lines with no statement after the last [END] to the last routine.
    A piece that fails to parse says nothing about the split: only the
    whole unit's parse names the error the one-shot path reports. *)

val routines : string -> int array
(** The cut points [b] of a unit of [n] bytes: [b.(0) = 0],
    [b.(k) = n], and piece [i] is the bytes [b.(i)] to [b.(i+1) - 1].
    [k = 1] when the scanner cannot vouch for a split, or when the unit
    has at most one routine. Allocates the result only. *)
