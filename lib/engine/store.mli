(** A disk-backed, versioned key-value store for structural verdicts.

    This is the persistence tier under the in-process memo cache: entries
    keyed by the {!Key} canonical form (or any other string key) with
    JSON values, held resident in one hash table and persisted as
    numbered segment files under a cache directory. A segment carries the
    store's schema version and the owning configuration's fingerprint
    (see {!Dt_report.Record.fingerprint}); loading skips — and counts as
    invalid — any segment that fails to parse, declares a different
    schema, or was written under a different fingerprint, so a corrupt or
    stale cache degrades to a cold start and can never supply a wrong
    verdict. Leftover [*.tmp] files from a crashed mid-write are likewise
    removed and counted.

    Writes are atomic ({!Dt_obs.Artifact}: temp file, fsync, rename);
    {!flush} compacts the whole resident table into a single new segment
    and unlinks the older ones, so eviction is durable and the directory
    never accumulates garbage. [capacity] bounds resident entries with
    FIFO eviction over insertion order, mirroring {!Memo}.

    All operations are mutex-guarded: the parallel engine's worker
    domains and a serve daemon's request loop may share one store. *)

type t

val schema_version : string
(** ["deptest-diskcache/2"]. Version 2 is the {!Key} text that writes
    index terms in canonical-id order; a version-1 segment loads as
    invalid and the store starts empty. *)

val open_ : dir:string -> fingerprint:string -> ?capacity:int -> unit -> t
(** Open (creating [dir] if needed) and load every valid segment.
    [capacity] bounds resident entries (FIFO eviction past it); omitted
    means unbounded. Invalid segments are deleted after being counted —
    the next {!flush} rebuilds a clean directory. Raises [Sys_error] /
    [Unix.Unix_error] only for a directory that cannot be created. *)

val dir : t -> string
val fingerprint : t -> string

val find : t -> string -> Dt_obs.Json.t option
(** Bumps the hit or miss counter. *)

val add : t -> string -> Dt_obs.Json.t -> unit
(** Insert or replace, evicting FIFO past capacity. The entry is
    resident immediately and durable after the next {!flush}. *)

val remove : t -> string -> unit
(** Drop a resident entry (e.g. one whose value failed to decode).
    Does not count as an eviction. *)

val note_invalid : t -> unit
(** Count an invalid cache object found outside segment loading — a
    resident entry whose payload failed validating decode. *)

val flush : t -> int
(** Persist: write all resident entries as one new segment and unlink
    the previous segments. Returns the number of entries written. A
    store whose resident set is unchanged since the last flush is a
    no-op returning the resident count. *)

val length : t -> int
val hits : t -> int
val misses : t -> int

val invalid : t -> int
(** Invalid segments, tmp leftovers, and undecodable entries seen. *)

val evictions : t -> int
val segments : t -> int
(** Segment files currently on disk. *)

val fold : t -> init:'a -> f:('a -> string -> Dt_obs.Json.t -> 'a) -> 'a
(** Over the resident entries in insertion order (oldest first). *)
