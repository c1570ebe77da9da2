(** Hand-written lexer for the mini-Fortran dialect.

    Line-oriented: statements end at newlines (which are tokens). Comment
    lines start with 'C', 'c' or '*' in column one, or '!' anywhere
    (to end of line). Identifiers are case-insensitive and uppercased.
    Continuation lines (a non-blank character in column six after five
    blanks, or an '&' at the end of the previous line) splice lines; a
    spliced statement is numbered by its first line, and is a statement
    whatever its first letter. *)

exception Error of string * int  (** message, line *)

(** {1 Line rules}

    What {!tokenize} does with one raw line, given as the bytes [i] to
    [e - 1] of a string (no newline among them). {!Split} scans a whole
    unit with the same rules. *)

val comment_line : string -> int -> int -> bool
(** ['C'], ['c'] or ['*'] in column one: the line is dropped. *)

val continuation_line : string -> int -> int -> bool
(** Columns one to five blank, column six neither blank nor ['0']: the
    line continues the previous statement. *)

val last_kept : string -> int -> int -> int
(** The index of the last byte that [String.trim] keeps, or [i - 1]
    when the line is blank. A statement line whose last kept byte is
    ['&'] is joined with the next line. *)

(** {1 Tokens} *)

val is_alnum : char -> bool
(** A byte of a word: an identifier (uppercased) or an integer. *)

val tokenize : string -> Token.spanned list
(** Always ends with an EOF token. Raises {!Error} on illegal input. *)
