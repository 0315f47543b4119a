(* The registry subsystem: structural canonicalization (digest invariance
   under renaming and declaration-order permutation, verdict soundness,
   hash-consed sharing) and the persistent corpus store (ingest/dedup,
   covering-index queries, log replay across handles). *)

open Orm
module Engine = Orm_patterns.Engine
module Canon = Orm_registry.Canon
module Store = Orm_registry.Store
module Gen = Orm_generator.Gen
module Faults = Orm_generator.Faults

let settings = Orm_patterns.Settings.(with_extensions default)

(* ---- isomorphic clones ------------------------------------------------- *)

let shuffle st l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let bijection st prefix names =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i n -> Hashtbl.replace tbl n (Printf.sprintf "%s%d_x" prefix i))
    (shuffle st names);
  Hashtbl.find tbl

(* Rebuild with the constraint declarations in a random order, then apply a
   random bijective renaming of types, facts and constraint ids: an
   isomorphic clone that shares no byte of naming with the original. *)
let clone ~seed schema =
  let st = Random.State.make [| seed |] in
  let base = Schema.empty (Schema.name schema) in
  let base =
    List.fold_left
      (fun s t -> Schema.add_object_type t s)
      base (Schema.object_types schema)
  in
  let base =
    List.fold_left
      (fun s (sub, super) -> Schema.add_subtype ~sub ~super s)
      base
      (Subtype_graph.edges (Schema.graph schema))
  in
  let base =
    List.fold_left
      (fun s ft -> Schema.add_fact ft s)
      base (Schema.fact_types schema)
  in
  let permuted =
    List.fold_left
      (fun s c -> Schema.add_constraint c s)
      base
      (shuffle st (Schema.constraints schema))
  in
  Schema.rename ~schema_name:"Clone"
    ~object_type:(bijection st "Qt" (Schema.object_types permuted))
    ~fact_type:
      (bijection st "Qf"
         (List.map
            (fun (ft : Fact_type.t) -> ft.name)
            (Schema.fact_types permuted)))
    ~constraint_id:
      (bijection st "qc"
         (List.map
            (fun (c : Constraints.t) -> c.id)
            (Schema.constraints permuted)))
    permuted

let bitmap report =
  List.fold_left
    (fun bm d ->
      match Orm_patterns.Diagnostic.pattern_number d with
      | Some n -> bm lor (1 lsl n)
      | None -> bm)
    0 report.Engine.diagnostics

let corpus_schema seed =
  (* a mix of clean and faulted schemas of varying size *)
  let size = 2 + (seed mod 5) in
  let base = Gen.clean ~config:(Gen.sized size) ~seed () in
  if seed mod 3 = 0 then base
  else
    let p = 1 + (seed mod 9) in
    (Faults.inject ~seed p base).Faults.schema

(* ---- canonicalization -------------------------------------------------- *)

let test_figures_invariant () =
  List.iter
    (fun (e : Figures.expectation) ->
      let d = Canon.digest e.schema in
      List.iter
        (fun seed ->
          Alcotest.(check string)
            (Printf.sprintf "fig %s clone %d" e.figure seed)
            d
            (Canon.digest (clone ~seed e.schema)))
        [ 1; 2; 3 ])
    Figures.all

let qcheck_invariance =
  QCheck.Test.make ~count:120
    ~name:"digest invariant under renaming + permutation"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let schema = corpus_schema seed in
      Canon.digest schema = Canon.digest (clone ~seed:(seed + 7) schema))

let qcheck_distinct =
  (* different structure must not collide: adding one constraint to a
     schema changes its digest *)
  QCheck.Test.make ~count:60 ~name:"digest separates non-isomorphic schemas"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let schema = Gen.clean ~config:(Gen.sized 3) ~seed () in
      match Schema.fact_types schema with
      | [] -> QCheck.assume_fail ()
      | ft :: _ ->
          let grown =
            Schema.add (Constraints.Mandatory (Ids.second ft.name)) schema
          in
          let changed = Canon.digest grown <> Canon.digest schema in
          changed
          || Schema.constraints grown = Schema.constraints schema)

let test_soundness_corpus () =
  for seed = 0 to 199 do
    let schema = corpus_schema seed in
    let direct = Engine.check ~settings schema in
    let canon = Canon.canonicalize schema in
    let canonical = Engine.check ~settings canon.schema in
    Alcotest.(check bool)
      (Printf.sprintf "verdict %d" seed)
      (direct.Engine.diagnostics = [])
      (canonical.Engine.diagnostics = []);
    Alcotest.(check int)
      (Printf.sprintf "bitmap %d" seed)
      (bitmap direct) (bitmap canonical);
    Alcotest.(check int)
      (Printf.sprintf "unsat types %d" seed)
      (Ids.String_set.cardinal direct.Engine.unsat_types)
      (Ids.String_set.cardinal canonical.Engine.unsat_types);
    Alcotest.(check int)
      (Printf.sprintf "unsat roles %d" seed)
      (Ids.Role_set.cardinal direct.Engine.unsat_roles)
      (Ids.Role_set.cardinal canonical.Engine.unsat_roles)
  done

let test_canonical_fixpoint () =
  (* the canonical text re-parses to a schema whose canonical form is
     itself *)
  List.iteri
    (fun i seed ->
      let c = Canon.canonicalize (corpus_schema seed) in
      match Orm_dsl.Parser.parse c.text with
      | Error msg -> Alcotest.failf "canonical text %d does not parse: %s" i msg
      | Ok reparsed ->
          Alcotest.(check string)
            (Printf.sprintf "fixpoint %d" i)
            c.digest (Canon.digest reparsed))
    [ 1; 5; 17; 42; 99 ]

let test_hash_consing () =
  let schema =
    Schema.empty "Consing"
    |> Schema.add_fact (Fact_type.make "works" "Person" "Company")
    |> Schema.add_fact (Fact_type.make "leads" "Person" "Company")
    |> Schema.add (Constraints.Mandatory (Ids.first "works"))
    |> Schema.add (Constraints.Uniqueness (Ids.Single (Ids.first "works")))
    |> Schema.add
         (Constraints.Role_exclusion
            [ Ids.Single (Ids.first "works"); Ids.Single (Ids.first "leads") ])
  in
  let c = Canon.canonicalize schema in
  let roles =
    List.concat_map
      (fun (cstr : Constraints.t) -> Constraints.roles_of cstr.body)
      (Schema.constraints c.schema)
  in
  (* every pair of structurally equal roles is one physical value *)
  List.iter
    (fun (a : Ids.role) ->
      List.iter
        (fun (b : Ids.role) ->
          if Ids.equal_role a b then
            Alcotest.(check bool) "equal roles shared" true (a == b))
        roles)
    roles;
  (* player strings are physically the declared object-type strings *)
  let types = Schema.object_types c.schema in
  List.iter
    (fun (ft : Fact_type.t) ->
      Alcotest.(check bool) "player1 shared" true (List.memq ft.player1 types);
      Alcotest.(check bool) "player2 shared" true (List.memq ft.player2 types))
    (Schema.fact_types c.schema);
  (* role fact names are physically the declared fact-type name strings *)
  let fact_names =
    List.map (fun (ft : Fact_type.t) -> ft.name) (Schema.fact_types c.schema)
  in
  List.iter
    (fun (r : Ids.role) ->
      Alcotest.(check bool) "role fact shared" true (List.memq r.Ids.fact fact_names))
    roles

let test_rename_back () =
  (* a report computed on the canonical schema, renamed back through the
     bijection, names exactly the elements a direct check names *)
  List.iter
    (fun seed ->
      let schema = corpus_schema seed in
      let direct = Engine.check ~settings schema in
      let c = Canon.canonicalize schema in
      let canonical = Engine.check ~settings c.schema in
      let renamed =
        Canon.rename_value c.rename (Orm_export.Json.report_value canonical)
      in
      let strings_member name v =
        match Orm_json.list_member name v with
        | Some items ->
            List.filter_map Orm_json.to_string_opt items
            |> List.sort String.compare
        | None -> []
      in
      Alcotest.(check (list string))
        (Printf.sprintf "unsat types %d" seed)
        (List.sort String.compare
           (Ids.String_set.elements direct.Engine.unsat_types))
        (strings_member "unsat_types" renamed))
    [ 1; 2; 4; 8; 10; 13; 25; 31 ]

(* ---- canonicalization at production size ------------------------------ *)

(* Clone invariance and the text fixpoint, on one schema. *)
let check_canon label schema =
  let c = Canon.canonicalize schema in
  List.iter
    (fun seed ->
      Alcotest.(check string)
        (Printf.sprintf "%s: clone %d" label seed)
        c.digest
        (Canon.digest (clone ~seed schema)))
    [ 1; 2 ];
  match Orm_dsl.Parser.parse c.text with
  | Error msg -> Alcotest.failf "%s: canonical text does not parse: %s" label msg
  | Ok reparsed ->
      Alcotest.(check string) (label ^ ": fixpoint") c.digest (Canon.digest reparsed)

let test_canon_production_size () =
  for i = 0 to 23 do
    let size = 20 + (i * 7 mod 21) in
    let seed = 3000 + i in
    let base = Gen.clean ~config:(Gen.sized size) ~seed () in
    let schema = (Faults.inject ~seed (1 + (i mod 9)) base).Faults.schema in
    check_canon (Printf.sprintf "size %d seed %d" size seed) schema
  done

(* k object types that nothing mentions: every permutation of them is an
   automorphism, the case twin pruning exists for *)
let with_unconnected k schema =
  List.fold_left
    (fun s i -> Schema.add_object_type (Printf.sprintf "Loose%d" i) s)
    schema (List.init k Fun.id)

(* k facts over the same players, each with its own mandatory constraint,
   all under one constraint built by [wrap] *)
let same_player_facts k wrap =
  let facts = List.init k (Printf.sprintf "f%d") in
  let s =
    List.fold_left
      (fun s f -> Schema.add_fact (Fact_type.make f "A" "B") s)
      (Schema.empty "Twins") facts
  in
  let s =
    List.fold_left (fun s f -> Schema.add (Constraints.Mandatory (Ids.second f)) s) s facts
  in
  Schema.add (wrap (List.map Ids.first facts)) s

let test_canon_twins () =
  let base =
    (Faults.inject ~seed:11 3 (Gen.clean ~config:(Gen.sized 20) ~seed:11 ())).Faults.schema
  in
  List.iter
    (fun k ->
      check_canon (Printf.sprintf "%d unconnected types" k) (with_unconnected k base);
      check_canon
        (Printf.sprintf "%d facts under an exclusion" k)
        (same_player_facts k (fun rs ->
             Constraints.Role_exclusion (List.map (fun r -> Ids.Single r) rs)));
      check_canon
        (Printf.sprintf "%d facts under a disjunctive mandatory" k)
        (same_player_facts k (fun rs -> Constraints.Disjunctive_mandatory rs)))
    [ 2; 3; 5; 7 ];
  (* twins are interchangeable, not invisible: their number is structure *)
  Alcotest.(check bool)
    "3 and 4 unconnected types differ" true
    (Canon.digest (with_unconnected 3 base) <> Canon.digest (with_unconnected 4 base))

(* Directed subtype cycles: every type has one supertype and one subtype,
   so refinement leaves all of them in one cell.  With a 6-cycle and two
   3-cycles that cell holds two orbits, and only a search that tries both
   (no greedy pick, no pruning beyond exact twins) finds one representative
   for every clone. *)
let cycles name lengths =
  let s, _ =
    List.fold_left
      (fun (s, base) len ->
        let t i = Printf.sprintf "C%d" (base + (i mod len)) in
        ( List.fold_left
            (fun s i -> Schema.add_subtype ~sub:(t i) ~super:(t (i + 1)) s)
            s (List.init len Fun.id),
          base + len ))
      (Schema.empty name, 0) lengths
  in
  s

(* The same shape on facts: same-player facts chained by subset
   constraints.  The facts share every neighbour but their constraints,
   so only the constraints keep them from being taken for twins. *)
let subset_cycles name lengths =
  let s, _ =
    List.fold_left
      (fun (s, base) len ->
        let f i = Printf.sprintf "h%d" (base + (i mod len)) in
        let s =
          List.fold_left
            (fun s i -> Schema.add_fact (Fact_type.make (f i) "A" "B") s)
            s (List.init len Fun.id)
        in
        ( List.fold_left
            (fun s i ->
              Schema.add
                (Constraints.Subset
                   (Ids.Single (Ids.first (f i)), Ids.Single (Ids.first (f (i + 1)))))
                s)
            s (List.init len Fun.id),
          base + len ))
      (Schema.empty name, 0) lengths
  in
  s

let test_canon_regular () =
  List.iter
    (fun (label, build) ->
      let mixed = build "Mixed" [ 6; 3; 3 ] in
      List.iter
        (fun seed ->
          Alcotest.(check string)
            (Printf.sprintf "%s 6+3+3: clone %d" label seed)
            (Canon.digest mixed)
            (Canon.digest (clone ~seed mixed)))
        (List.init 8 (fun i -> i + 1));
      check_canon (label ^ " 6+3+3") mixed;
      Alcotest.(check bool)
        (label ^ " 6+3+3 and 6+6 differ")
        true
        (Canon.digest mixed <> Canon.digest (build "Even" [ 6; 6 ])))
    [ ("subtype cycles", cycles); ("subset cycles", subset_cycles) ]

(* Eight disjoint copies of a rigid gadget: 8! leaves, far past the work
   budget, so most of the search runs greedy. *)
let gadget_copies k =
  List.fold_left
    (fun s i ->
      let a = Printf.sprintf "A%d" i and b = Printf.sprintf "B%d" i in
      let g = Printf.sprintf "g%d" i in
      s
      |> Schema.add_fact (Fact_type.make g a b)
      |> Schema.add (Constraints.Mandatory (Ids.first g))
      |> Schema.add (Constraints.Uniqueness (Ids.Single (Ids.first g))))
    (Schema.empty "Copies") (List.init k Fun.id)

let test_canon_budget () =
  let schema = gadget_copies 8 in
  check_canon "8 gadget copies" schema;
  let variant = Schema.add (Constraints.Mandatory (Ids.second "g0")) schema in
  Alcotest.(check bool)
    "one more constraint changes the digest" true
    (Canon.digest schema <> Canon.digest variant)

(* ---- independent oracle: brute-force isomorphism on tiny schemas ------- *)

let tname = Printf.sprintf "t%d"
let fname = Printf.sprintf "f%d"

(* A random constraint over types t0.. and facts f0.. *)
let random_body st ~nt ~nf : Constraints.body =
  let pick n = Random.State.int st n in
  let role () = Ids.role (fname (pick nf)) (if pick 2 = 0 then Ids.Fst else Ids.Snd) in
  let seq () =
    if pick 3 > 0 then Ids.Single (role ())
    else
      let f = fname (pick nf) in
      if pick 2 = 0 then Ids.Pair (Ids.first f, Ids.second f)
      else Ids.Pair (Ids.second f, Ids.first f)
  in
  let ty () = tname (pick nt) in
  match if nf = 0 then 5 + pick 2 else pick 11 with
  | 0 -> Mandatory (role ())
  | 1 -> Uniqueness (seq ())
  | 2 -> Disjunctive_mandatory [ role (); role () ]
  | 3 -> Role_exclusion [ seq (); seq () ]
  | 4 -> Frequency (Ids.Single (role ()), Constraints.frequency ~max:(2 + pick 2) (1 + pick 2))
  | 5 -> Type_exclusion [ ty (); ty () ]
  | 6 -> Value_constraint (ty (), Value.Constraint.of_range 1 (1 + pick 3))
  | 7 -> Subset (seq (), seq ())
  | 8 -> Ring (List.nth Ring.all (pick 3), fname (pick nf))
  | 9 -> Total_subtypes (ty (), [ ty (); ty () ])
  | _ -> Equality (Ids.Single (role ()), Ids.Single (role ()))

(* At most [types] types, [facts] facts and [cons] constraints. *)
let tiny_schema st ~types ~facts ~cons =
  let pick n = Random.State.int st n in
  let nt = 1 + pick types and nf = pick (facts + 1) in
  let s = ref (Schema.empty "Tiny") in
  for i = 0 to nt - 1 do
    s := Schema.add_object_type (tname i) !s
  done;
  for i = 1 to nt - 1 do
    if pick 3 = 0 then s := Schema.add_subtype ~sub:(tname i) ~super:(tname (pick i)) !s
  done;
  for i = 0 to nf - 1 do
    let reading = if pick 4 = 0 then Some "r" else None in
    s := Schema.add_fact (Fact_type.make ?reading (fname i) (tname (pick nt)) (tname (pick nt))) !s
  done;
  for _ = 1 to pick (cons + 1) do
    s := Schema.add (random_body st ~nt ~nf) !s
  done;
  !s

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l

(* A schema's structure as sorted printable parts: the oracle compares
   these after renaming, sharing no code with Canon. *)
let structure s =
  let sort l = List.sort compare l in
  let body (b : Constraints.body) : Constraints.body =
    match b with
    | Disjunctive_mandatory rs -> Disjunctive_mandatory (sort rs)
    | External_uniqueness rs -> External_uniqueness (sort rs)
    | Role_exclusion seqs -> Role_exclusion (sort seqs)
    | Type_exclusion ts -> Type_exclusion (sort ts)
    | Total_subtypes (t, ts) -> Total_subtypes (t, sort ts)
    | b -> b
  in
  ( Schema.object_types s,
    sort (Subtype_graph.edges (Schema.graph s)),
    Schema.fact_types s,
    sort
      (List.map
         (fun (c : Constraints.t) -> Format.asprintf "%a" Constraints.pp_body (body c.body))
         (Schema.constraints s)) )

(* Some bijection of types, and of facts respecting players and readings,
   maps [a] onto [b]. *)
let isomorphic a b =
  let ta = Schema.object_types a and tb = Schema.object_types b in
  let fa = Schema.fact_types a and fb = Schema.fact_types b in
  List.length ta = List.length tb
  && List.length fa = List.length fb
  && List.length (Schema.constraints a) = List.length (Schema.constraints b)
  &&
  let target = structure b in
  List.exists
    (fun perm ->
      let ty = List.combine ta perm in
      let map_t t = List.assoc t ty in
      (* facts of [a] to distinct facts of [b] with the mapped players *)
      let rec facts acc used = function
        | [] ->
            let map_f f = List.assoc f acc in
            structure
              (Schema.rename ~schema_name:(Schema.name b) ~object_type:map_t ~fact_type:map_f a)
            = target
        | (f : Fact_type.t) :: rest ->
            List.exists
              (fun (g : Fact_type.t) ->
                (not (List.mem g.name used))
                && g.player1 = map_t f.player1
                && g.player2 = map_t f.player2
                && g.reading = f.reading
                && facts ((f.name, g.name) :: acc) (g.name :: used) rest)
              fb
      in
      facts [] [] fa)
    (permutations tb)

let test_canon_oracle () =
  let st = Random.State.make [| 20261017 |] in
  let iso = ref 0 and non_iso = ref 0 in
  for i = 0 to 299 do
    let a, b =
      match i mod 3 with
      | 0 ->
          (* a clone: always isomorphic *)
          let a = tiny_schema st ~types:6 ~facts:5 ~cons:4 in
          (a, clone ~seed:i a)
      | 1 ->
          (* one constraint re-drawn: sometimes isomorphic *)
          let a = tiny_schema st ~types:4 ~facts:3 ~cons:3 in
          let nt = List.length (Schema.object_types a)
          and nf = List.length (Schema.fact_types a) in
          let b =
            match Schema.constraints a with
            | [] -> a
            | c :: _ -> Schema.remove_constraint c.id a
          in
          (a, clone ~seed:i (Schema.add (random_body st ~nt ~nf) b))
      | _ ->
          (* two draws from a small space: isomorphic by chance *)
          let a = tiny_schema st ~types:3 ~facts:2 ~cons:2 in
          (a, tiny_schema st ~types:3 ~facts:2 ~cons:2)
    in
    let same = Canon.digest a = Canon.digest b in
    let oracle = isomorphic a b in
    if oracle then incr iso else incr non_iso;
    if same <> oracle then
      Alcotest.failf "pair %d: digests %s but the oracle says %s\n%s\n%s" i
        (if same then "equal" else "differ")
        (if oracle then "isomorphic" else "not isomorphic")
        (Orm_dsl.Printer.to_string a) (Orm_dsl.Printer.to_string b)
  done;
  (* both answers must be exercised for the agreement to mean anything *)
  Alcotest.(check bool) "isomorphic pairs seen" true (!iso >= 100);
  Alcotest.(check bool) "non-isomorphic pairs seen" true (!non_iso >= 30)

(* ---- store ------------------------------------------------------------- *)

let tmp_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ormreg-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  dir

(* canonical digests: 32 lowercase hex digits *)
let aaaa = String.make 32 'a'
let bbbb = String.make 32 'b'
let cccc = String.make 32 'c'
let dddd = String.make 32 'd'

let test_store_roundtrip () =
  let dir = tmp_dir () in
  let st = Store.create ~format_version:3 ~dir in
  let ingest digest verdict patterns =
    Store.ingest st ~digest ~name:("S_" ^ digest) ~verdict
      ~patterns:(Store.bitmap_of_patterns patterns)
      ~diagnostics:(List.length patterns) ~entry_body:Orm_json.Null
  in
  Alcotest.(check bool) "first is new" true (ingest aaaa "unsat" [ 6 ] = `New);
  Alcotest.(check bool) "second is new" true (ingest bbbb "clean" [] = `New);
  Alcotest.(check bool)
    "third is new" true
    (ingest cccc "unsat" [ 2; 6 ] = `New);
  Alcotest.(check bool) "repeat is dup" true (ingest aaaa "unsat" [ 6 ] = `Dup);
  Alcotest.(check int) "size" 3 (Store.size st);
  Alcotest.(check int) "ingested" 3 (Store.ingested st);
  Alcotest.(check int) "duplicates" 1 (Store.duplicates st);
  (match Store.query st "pattern:6" with
  | Ok (matches, total) ->
      Alcotest.(check int) "pattern:6 total" 2 total;
      Alcotest.(check (list string))
        "pattern:6 digests" [ aaaa; cccc ]
        (List.map (fun (e : Store.entry) -> e.digest) matches)
  | Error e -> Alcotest.fail e);
  (match Store.query st "pattern:6 verdict:unsat" with
  | Ok (_, total) -> Alcotest.(check int) "conjunction" 2 total
  | Error e -> Alcotest.fail e);
  (match Store.query st "verdict:clean" with
  | Ok (matches, _) ->
      Alcotest.(check (list string))
        "clean digests" [ bbbb ]
        (List.map (fun (e : Store.entry) -> e.digest) matches)
  | Error e -> Alcotest.fail e);
  (match Store.query st ~limit:1 "verdict:unsat" with
  | Ok (matches, total) ->
      Alcotest.(check int) "limit respected" 1 (List.length matches);
      Alcotest.(check int) "total unaffected" 2 total
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    "bad term rejected" true
    (Result.is_error (Store.query st "size:3"));
  (* a second handle over the same directory replays to the same state —
     the restart/reload path *)
  let st2 = Store.create ~format_version:3 ~dir in
  Alcotest.(check int) "reload size" 3 (Store.size st2);
  Alcotest.(check int) "reload ingested" 3 (Store.ingested st2);
  Alcotest.(check int) "reload duplicates" 1 (Store.duplicates st2);
  (* a foreign format version sees an empty registry *)
  let st4 = Store.create ~format_version:4 ~dir in
  Alcotest.(check int) "foreign fv empty" 0 (Store.size st4);
  (* cross-handle visibility without reopening: st2 ingests, st picks it
     up on refresh *)
  ignore
    (Store.ingest st2 ~digest:dddd ~name:"S_d" ~verdict:"clean" ~patterns:0
       ~diagnostics:0 ~entry_body:Orm_json.Null);
  Store.refresh st;
  Alcotest.(check int) "refresh sees appended" 4 (Store.size st)

let test_store_stats () =
  let dir = tmp_dir () in
  let st = Store.create ~format_version:3 ~dir in
  let ingest digest verdict patterns =
    ignore
      (Store.ingest st ~digest ~name:digest ~verdict
         ~patterns:(Store.bitmap_of_patterns patterns)
         ~diagnostics:(List.length patterns) ~entry_body:Orm_json.Null)
  in
  ingest aaaa "unsat" [ 6 ];
  ingest bbbb "unsat" [ 6; 2 ];
  ingest cccc "clean" [];
  ingest aaaa "unsat" [ 6 ];
  let v = Store.stats st in
  Alcotest.(check (option int)) "entries" (Some 3) (Orm_json.int_member "entries" v);
  Alcotest.(check (option int))
    "duplicates" (Some 1)
    (Orm_json.int_member "duplicates" v);
  match Orm_json.list_member "patterns" v with
  | Some (first :: _) ->
      Alcotest.(check (option int))
        "leaderboard head is pattern 6" (Some 6)
        (Orm_json.int_member "pattern" first);
      Alcotest.(check (option int))
        "pattern 6 count" (Some 2)
        (Orm_json.int_member "entries" first)
  | _ -> Alcotest.fail "missing patterns leaderboard"

let test_store_entry_file () =
  let feedface = String.concat "" (List.init 4 (fun _ -> "feedface")) in
  let dir = tmp_dir () in
  let st = Store.create ~format_version:3 ~dir in
  ignore
    (Store.ingest st ~digest:feedface ~name:"S" ~verdict:"unsat"
       ~patterns:(Store.bitmap_of_patterns [ 4 ])
       ~diagnostics:1
       ~entry_body:(Orm_json.Obj [ ("canon", Orm_json.String "schema S0\n") ]));
  match Store.load_entry st feedface with
  | None -> Alcotest.fail "entry file missing"
  | Some v ->
      Alcotest.(check (option string))
        "digest" (Some feedface)
        (Orm_json.string_member "digest" v);
      Alcotest.(check bool) "entry body present" true
        (Orm_json.member "entry" v <> None)

(* The posting lists are an optimization, not a semantics change: over a
   few hundred random entries, every query must return exactly what a
   brute-force scan of the ingested set returns — both on the store that
   ingested the entries and on a fresh store whose postings were built by
   index replay. *)
let test_store_postings_differential () =
  let dir = tmp_dir () in
  let st = Store.create ~format_version:3 ~dir in
  let rng = Random.State.make [| 20260809 |] in
  let entries = ref [] in
  (* enough entries to grow the columns and the digest table *)
  let digest_of i =
    if i < 6 then
      (* packed digests that differ only in their last 8 bytes *)
      "0123456789abcdef" ^ Printf.sprintf "%016x" (5 - i)
    else Digest.to_hex (Digest.string (string_of_int i))
  in
  for i = 0 to 599 do
    let digest = digest_of i in
    let verdict = if Random.State.bool rng then "unsat" else "clean" in
    let patterns =
      List.filter
        (fun _ -> Random.State.int rng 4 = 0)
        [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    in
    entries := (digest, verdict, patterns) :: !entries;
    ignore
      (Store.ingest st ~digest ~name:digest ~verdict
         ~patterns:(Store.bitmap_of_patterns patterns)
         ~diagnostics:(List.length patterns) ~entry_body:Orm_json.Null)
  done;
  let expected q_verdict q_patterns =
    List.filter
      (fun (_, v, ps) ->
        (match q_verdict with None -> true | Some w -> v = w)
        && List.for_all (fun n -> List.mem n ps) q_patterns)
      !entries
    |> List.map (fun (d, _, _) -> d)
    |> List.sort String.compare
  in
  let queries =
    [
      ("", None, []);  (* no terms: every entry *)
      ("verdict:unsat", Some "unsat", []);
      ("verdict:clean", Some "clean", []);
      ("pattern:3", None, [ 3 ]);
      ("pattern:3 pattern:3", None, [ 3 ]);
      ("pattern:1 pattern:8", None, [ 1; 8 ]);
      ("verdict:unsat pattern:5", Some "unsat", [ 5 ]);
      ("verdict:clean pattern:2 pattern:6", Some "clean", [ 2; 6 ]);
      ("pattern:42", None, [ 42 ]);  (* empty posting list *)
    ]
  in
  (* the page is the [limit] smallest matching digests; the total counts
     every match whatever the limit, and a limit far beyond the store's
     size (it comes from the client) answers like limit 1000 *)
  let check_store label st =
    List.iter
      (fun (q, qv, qp) ->
        let want = expected qv qp in
        List.iter
          (fun limit ->
            match Store.query st ~limit q with
            | Error e -> Alcotest.failf "%s: query %S failed: %s" label q e
            | Ok (matches, total) ->
                let got =
                  List.map (fun (e : Store.entry) -> e.Store.digest) matches
                in
                Alcotest.(check (list string))
                  (Printf.sprintf "%s: %S limit %d agrees with scan" label q
                     limit)
                  (List.filteri (fun i _ -> i < limit) want)
                  got;
                Alcotest.(check int)
                  (Printf.sprintf "%s: %S limit %d total" label q limit)
                  (List.length want) total)
          [ 0; 1; 7; 1_000; max_int / 2 ])
      queries
  in
  (* every digest is found again, and a resubmission is a duplicate *)
  for i = 0 to 599 do
    Alcotest.(check (option string))
      (Printf.sprintf "find %d" i)
      (Some (digest_of i))
      (Option.map (fun (e : Store.entry) -> e.digest) (Store.find st (digest_of i)))
  done;
  Alcotest.(check bool)
    "digest resubmitted is a duplicate" true
    (Store.ingest st ~digest:(digest_of 0) ~name:"again" ~verdict:"clean" ~patterns:0
       ~diagnostics:0 ~entry_body:Orm_json.Null
    = `Dup);
  Alcotest.(check bool) "absent digest" true
    (Store.find st (Digest.to_hex (Digest.string "absent")) = None);
  (* only canonical digests are stored: anything else is never found and
     cannot be ingested *)
  List.iter
    (fun d ->
      Alcotest.(check bool) (Printf.sprintf "find %S" d) true (Store.find st d = None);
      Alcotest.check_raises (Printf.sprintf "ingest %S" d)
        (Invalid_argument "Store.ingest: digest is not 32 lowercase hex digits")
        (fun () ->
          ignore
            (Store.ingest st ~digest:d ~name:d ~verdict:"clean" ~patterns:0
               ~diagnostics:0 ~entry_body:Orm_json.Null)))
    [ ""; "feedface"; String.uppercase_ascii (digest_of 7); String.make 32 'g' ];
  check_store "ingest-built postings" st;
  (* a fresh store rebuilds the postings from the index file alone *)
  check_store "replay-built postings" (Store.create ~format_version:3 ~dir)

let suite =
  [
    ("figures: digest invariant under cloning", `Quick, test_figures_invariant);
    QCheck_alcotest.to_alcotest qcheck_invariance;
    QCheck_alcotest.to_alcotest qcheck_distinct;
    ("canonical schema keeps verdict and bitmap (200 corpus)", `Slow, test_soundness_corpus);
    ("canonical text is a digest fixpoint", `Quick, test_canonical_fixpoint);
    ("canonical subterms are hash-consed", `Quick, test_hash_consing);
    ("rename_value maps canonical reports back", `Quick, test_rename_back);
    ("canonical form at production size (faulted 20-40)", `Quick, test_canon_production_size);
    ("canonical form on twin-heavy schemas", `Quick, test_canon_twins);
    ("canonical form on regular subtype cycles", `Quick, test_canon_regular);
    ("canonical form past the work budget", `Quick, test_canon_budget);
    ("digest equality matches brute-force isomorphism", `Quick, test_canon_oracle);
    ("store: ingest, dedup, query, replay", `Quick, test_store_roundtrip);
    ("store: aggregates", `Quick, test_store_stats);
    ("store: entry files", `Quick, test_store_entry_file);
    ( "store: posting lists agree with a full scan",
      `Quick,
      test_store_postings_differential );
  ]
