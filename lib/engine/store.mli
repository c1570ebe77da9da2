(** A disk-backed, versioned key-value store of bytes.

    String keys mapped to string values, held resident in one hash
    table and persisted as numbered segment files [seg-N.bin] under a
    cache directory. The store never looks inside a value. Its one user
    is the serve daemon's response tier, which stores each routine's
    rendered answer as the JSON-escaped bytes its reply carries, so a
    hit decodes and escapes nothing.

    {b Segment format.} Three header lines, then the body:
    {v
    deptest-diskcache/6\n
    FINGERPRINT\n
    MD5-HEX-OF-BODY\n
    KLEN VLEN\n KEY VALUE   (one record per entry, insertion order)
    v}
    [KLEN] and [VLEN] are decimal byte counts, so keys and values may
    hold any bytes, newlines and NULs included. Opening a store parses
    no JSON and builds no tree: loading checks the schema line, the
    owning configuration's fingerprint (see
    {!Dt_report.Record.fingerprint}), the MD5 of the body, and that the
    framing ends exactly at end of file. A segment that fails any check
    is counted invalid, deleted, and contributes nothing, so a corrupt,
    damaged or stale cache degrades to a cold start and can never supply
    a wrong value. Leftover [*.tmp] files from a crashed mid-write, and
    version-2 [seg-N.json] segments, are likewise removed and counted.

    Writes are atomic ({!Dt_obs.Artifact}: temp file, fsync, rename);
    {!flush} compacts the whole resident table into a single new segment
    and unlinks the older ones, so eviction is durable and the directory
    never accumulates garbage. [capacity] bounds resident entries with
    FIFO eviction over insertion order, mirroring {!Memo}.

    All operations are mutex-guarded: the parallel engine's worker
    domains and a serve daemon's request loop may share one store. *)

type t

val schema_version : string
(** ["deptest-diskcache/6"]: the length-framed, checksummed byte
    segments above. Versions 4 to 6 changed no framing, only what the
    store holds: version 4 keyed the serve daemon's responses by
    routine, not unit, version 5 drops the pair verdicts
    (["p:"] entries) that version 4 held beside them, and version 6
    holds each routine's text JSON-escaped where version 5 held it raw
    (a raw text sent as wire bytes is not valid JSON). An older segment
    loads as invalid and the store starts empty, as do version-2 JSON
    segments ([seg-N.json]) of decoded trees. *)

val open_ : dir:string -> fingerprint:string -> ?capacity:int -> unit -> t
(** Open (creating [dir] if needed) and load every valid segment.
    [capacity] bounds resident entries (FIFO eviction past it); omitted
    means unbounded. Invalid segments are deleted after being counted —
    the next {!flush} rebuilds a clean directory. [fingerprint] is one
    line (the store writes it as the segment's second line). Raises
    [Sys_error] / [Unix.Unix_error] only for a directory that cannot be
    created. *)

val dir : t -> string
val fingerprint : t -> string

val find : t -> string -> string option
(** The bytes last added under the key. Bumps the hit or miss counter. *)

val add : t -> string -> string -> unit
(** Insert or replace, evicting FIFO past capacity. A replaced entry
    keeps its place in the insertion order. The entry is resident
    immediately and durable after the next {!flush}. *)

val remove : t -> string -> unit
(** Drop a resident entry. Does not count as an eviction. *)

val flush : t -> int
(** Persist: write all resident entries as one new segment and unlink
    the previous segments. Returns the number of entries written. A
    store whose resident set is unchanged since the last flush is a
    no-op returning the resident count. *)

val length : t -> int

val resident_bytes : t -> int
(** The summed key and value lengths of the resident entries, kept
    current on insert, replace, remove and eviction. *)

val hits : t -> int
val misses : t -> int

val invalid : t -> int
(** Invalid segments, and tmp and version-2 leftovers, seen when
    opening. *)

val evictions : t -> int
val segments : t -> int
(** Segment files currently on disk. *)

val fold : t -> init:'a -> f:('a -> string -> string -> 'a) -> 'a
(** Over the resident entries in insertion order (oldest first). *)
