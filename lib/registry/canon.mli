(** Structural canonicalization of ORM schemas.

    Two schemas that differ only in the names of their object types, fact
    types and constraint identifiers (and in the declaration order of fact
    types and constraints, or the member order of set-like constraint
    arguments) describe the same conceptual structure; the paper's
    satisfiability notions are invariant under such renamings.  This module
    computes a canonical representative of that equivalence class:

    - object types become [T0], [T1], … and fact types [F0], [F1], …, the
      indices chosen by integer partition refinement over the schema's
      structure (subtype edges, role players, readings, constraint
      incidences), residual symmetry broken by backtracking
      individualization that skips twins (nodes whose swap is an
      automorphism) and keeps the leaf with the smallest integer
      certificate; only that leaf is built;
    - the schema name becomes [S0] and constraints are numbered [c0], … in
      certificate order; set-like constraint arguments (disjunctive
      mandatory, external uniqueness, exclusions, total-subtype lists) are
      listed in canonical order;
    - repeated subterms of the canonical schema are hash-consed: every
      occurrence of a canonical name, role or role sequence is physically
      shared.

    Readings, value sets, frequency ranges and ring kinds are content, not
    names: they are preserved
    verbatim and participate in the digest, so schemas that differ in them
    do not collide.  {!digest} of the canonical serialization is the
    content address used by the server's canonical cache tier and by the
    registry store. *)

type rename = {
  schema_name : string * string;  (** canonical name, original name *)
  types : (string * string) list;  (** canonical -> original, per object type *)
  facts : (string * string) list;
  constraint_ids : (string * string) list;
}
(** The bijection back from canonical names to the input schema's names.
    [types] and [facts] are sorted by canonical name; [constraint_ids] run
    [c0], [c1], … in numeric order. *)

type result = {
  schema : Orm.Schema.t;  (** the canonical representative *)
  text : string;  (** its DSL serialization (parseable) *)
  digest : string;  (** hex MD5 of [text] — the content address *)
  rename : rename;
}

val canonicalize : Orm.Schema.t -> result
(** Canonical form of a validated schema.  Invariant under bijective
    renaming of types/facts/constraint ids and under permutation of fact
    and constraint declarations (guaranteed within {!val-work_budget}
    refinement steps; beyond it, tie-breaking degrades to a greedy choice
    that is still sound — equal digests still imply isomorphic schemas —
    but may miss sharing between extremely symmetric schemas). *)

val digest : Orm.Schema.t -> string
(** [digest s] = [(canonicalize s).digest]. *)

val work_budget : int
(** Cap on partition-refinement rounds spent breaking symmetry per schema. *)

val rename_value : rename -> Orm_json.t -> Orm_json.t
(** [rename_value r v] rewrites every canonical name occurring in the
    string leaves of [v] back to the original name, on identifier-token
    boundaries ([A-Za-z0-9_] runs), leaving object keys untouched.  This is
    how the server serves a response body computed on the canonical schema
    to the client that sent the original names: diagnostics messages, role
    references like ["F2.1"], culprit lists and type lists all read as if
    the check had run on the client's schema.  (A string {e value literal}
    that happens to equal a canonical name token, e.g. a value ["T0"]
    quoted inside a diagnostic message, is renamed too — the one known
    caveat of the textual mapping.) *)
