(** The registry store: a persistent, append-friendly corpus of checked
    schemas, content-addressed by canonical digest ({!Canon.digest}).

    Layout under the store directory:

    - [index.ndjson] — one JSON record per ingest, appended with a single
      [O_APPEND] write so concurrent workers interleave whole lines: a
      full record for a new digest (digest, schema name, verdict, pattern
      bitmap, diagnostic count), or a tiny [{"dup":…}] marker when the
      digest was already present.  The in-memory covering index is a
      replay of this log; {!refresh} consumes whatever other workers have
      appended since the last read, so every worker answers queries over
      the whole corpus.
    - [entries/<2 hex>/<digest>.json] — the full per-entry record: the
      canonical schema text plus the stored verdict body (diagnostics,
      pattern bitmap), written atomically (temp + rename) before the index
      line that references it.

    In memory the covering index is columnar: entries are dense ids into
    a few growable arrays (the digest packed into 16 bytes, name, verdict,
    pattern bitmap, diagnostic count), an open-addressing table maps a
    digest to its id,
    the pattern and verdict posting lists hold ids, and verdict and name
    strings are interned per store.

    Every record carries the cache-key format version; records written by
    a build with a different {!Cache_key.format_version} are skipped on
    replay, so a format bump invalidates the registry in the same breath
    as the LRU and disk cache tiers. *)

type entry = {
  digest : string;
  name : string;  (** schema name of the first ingest of this digest *)
  verdict : string;  (** ["unsat"] or ["clean"] *)
  patterns : int;  (** bitmap: bit [n] set iff pattern [n] fired *)
  diagnostics : int;
}

type t

val create : format_version:int -> dir:string -> t
(** Opens (creating directories as needed) and replays the index. *)

val dir : t -> string

val refresh : t -> unit
(** Replays index records appended since the last read (by this or any
    other worker).  Cheap when nothing changed: one [stat]. *)

val find : t -> string -> entry option
(** Covering-index lookup by digest (no [refresh] implied); [None] for a
    string that is not a canonical digest. *)

val ingest :
  t ->
  digest:string ->
  name:string ->
  verdict:string ->
  patterns:int ->
  diagnostics:int ->
  entry_body:Orm_json.t ->
  [ `New | `Dup ]
(** Records one checked schema.  A digest already present (here or in
    another worker's appended records — {!refresh} runs first) is counted
    as a duplicate and its entry left untouched; otherwise the entry file
    is written and the index line appended.  Counters are derived from the
    log replay only, so they agree across workers.

    @raise Invalid_argument if [digest] is not a canonical digest
    ({!Canon.digest}: 32 lowercase hex digits); replay likewise skips an
    index record whose digest is not canonical. *)

val size : t -> int
(** Distinct digests in the covering index. *)

val ingested : t -> int
(** New-entry records replayed from the log (cluster-wide). *)

val duplicates : t -> int
(** Duplicate ingests replayed from the log (cluster-wide). *)

val query : t -> ?limit:int -> string -> (entry list * int, string) result
(** [query t q] evaluates the conjunctive query [q] over the covering
    index without re-checking anything: whitespace-separated terms
    [pattern:N] (pattern [N] fired) and [verdict:unsat]/[verdict:clean].
    Returns the first [limit] matches (default 50, ordered by digest) and
    the total match count; no terms match every entry.  Only the [limit]
    smallest digests are kept while matching, and a query with one
    distinct term takes its total from that term's posting list.  [Error]
    on a malformed term. *)

val load_entry : t -> string -> Orm_json.t option
(** The full stored record for a digest ([None] if missing/corrupt). *)

val stats : t -> Orm_json.t
(** Aggregates: entry/ingest/duplicate counts, dedup ratio, verdict
    counts, and the per-pattern leaderboard. *)

val pattern_bit : int -> int
(** [pattern_bit n] is the bitmap bit for pattern [n]. *)

val patterns_of_bitmap : int -> int list
(** Ascending pattern numbers set in a bitmap. *)

val bitmap_of_patterns : int list -> int
