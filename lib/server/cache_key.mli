(** The one format-version constant shared by every persistent tier.

    Three stores outlive a process: the in-memory LRU snapshots nothing,
    but the disk cache ([lib/server/disk_cache]) and the registry store
    ([lib/registry/store]) both persist results, and the LRU's keys must
    agree with the disk tier's so promotion works.  All three derive their
    versioning from {!format_version}: the LRU and disk tiers fold it into
    every key via {!render}, and the registry stamps it on every index
    record and skips foreign records on replay.  Bumping the constant
    therefore invalidates all three tiers in the same breath — there is no
    way to bump one and forget another. *)

val format_version : int
(** Bump whenever the [.orm] schema format, the meaning of a serialized
    result, or the canonical form computed by [Orm_registry.Canon]
    changes.
    v2: unified JSON core — shortest-round-trip float printing and the
    sharded disk-cache layout.
    v3: canonical cache tier and registry — keys gain a structural
    subject, and canonicalization now defines result identity.
    v4: canonical form chosen by the smallest integer leaf certificate —
    canonical texts and digests changed. *)

val render :
  format_version:int ->
  subject:string ->
  meth:string ->
  settings_key:string ->
  budget:int ->
  sat_budget:int ->
  backend:string ->
  string
(** The shared key syntax: [v<fv>:<subject>:<meth>:<settings>:b<n>:sb<n>:<backend>].
    The [subject] is a hex digest of the request's schema payload — the
    byte digest for the byte-addressed tier, or the canonical digest
    (prefixed [c-]) for the structural tier — and must not contain [':']
    ambiguity-inducing content (hex and [c-] prefixes are safe). *)
