(* Seeded request streams for the two workloads, and the reasoning
   schemas the traced run feeds to the planner and the complete backends.

   The base schemas come from fixed catalogs (generator seeds that do not
   depend on --seed).  Canon's cost is heavy-tailed — the median
   schema canonicalizes in ~2 ms, about one in a hundred takes 0.1-2 s —
   so a base set drawn fresh from every seed would move the mean-based
   metrics (throughput, CPU per request) by tens of percent from seed to
   seed.  With a fixed catalog every run carries the same share of slow
   schemas, and every timed phase ends on a pass boundary, so each run
   measures whole passes over the catalog.  The --seed drives everything
   else: the edit sessions, the renamings, the undo positions, the visiting
   order, the ingest batches and the queries.  So no two seeds send the
   same bytes, but all seeds send the same kind of work. *)

open Orm
module Edit = Orm_interactive.Edit
module P = Orm_server.Protocol

(* [planted]: the pattern the generator planted, which must be reported *)
type item = { text : string; planted : int; resubmit : bool }

type kind = Check of item | Ingest of item list | Query of string

type req = { meth : string; body : string; kind : kind }

let deadline_ms = 2000

(* ---- catalogs ---- *)

let faulted_base i =
  let size = 20 + (i * 5 mod 21) in
  let pattern = 1 + (i mod 9) in
  let seed = 1000 + i in
  let clean = Orm_generator.Gen.clean ~config:(Orm_generator.Gen.sized size) ~seed () in
  ((Orm_generator.Faults.inject ~seed pattern clean).schema, pattern)

let faulted_catalog = 36
let clean_catalog = 24

let clean_base i =
  let size = 8 + (i * 5 mod 23) in
  Orm_generator.Gen.clean ~config:(Orm_generator.Gen.sized size) ~seed:(5000 + i) ()

let small_faulted_base i =
  let size = 8 + (i * 11 mod 23) in
  let pattern = 1 + (i mod 9) in
  let seed = 7000 + i in
  let clean = Orm_generator.Gen.clean ~config:(Orm_generator.Gen.sized size) ~seed () in
  ((Orm_generator.Faults.inject ~seed pattern clean).schema, pattern)

let faulted = lazy (Array.init faulted_catalog faulted_base)
let cleans = lazy (Array.init clean_catalog clean_base)
let small_faulted = lazy (Array.init 8 small_faulted_base)

(* ---- seeded helpers ---- *)

let rng seed parts = Random.State.make (Array.of_list (seed :: parts))
let pick r xs = List.nth xs (Random.State.int r (List.length xs))

let shuffle r xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* A bijective renaming of every type, fact and constraint id: same
   structure, different bytes (a canonical-tier hit for [check], a
   duplicate for [ingest]). *)
let renamed tag s =
  let p x = Printf.sprintf "%s_%s" tag x in
  Schema.rename ~object_type:p ~fact_type:p ~constraint_id:p s

let print = Orm_dsl.Printer.to_string

(* Edits a modeler makes around a faulted schema: new facts between the
   existing (non-fault) types, constraints on those new facts, and removals
   of constraints added earlier.  They never touch the planted fault, so
   the planted pattern stays reported whatever the session does. *)
let session_edit r ~tag ~step ~base_types schema (added_facts, added_cs) =
  let fresh kind = Printf.sprintf "%s%s%d" kind tag step in
  let add_fact () =
    let f = fresh "NF" in
    ( Edit.Add_fact (Fact_type.make f (pick r base_types) (pick r base_types)),
      (f :: added_facts, added_cs) )
  in
  let choice = Random.State.int r 10 in
  match (added_facts, added_cs) with
  | [], _ -> add_fact ()
  | _ when choice < 4 -> add_fact ()
  | fs, cs when choice < 9 || cs = [] ->
      let f = pick r fs in
      let body =
        if Random.State.bool r then Constraints.Mandatory (Ids.first f)
        else
          Constraints.Uniqueness
            (Ids.Single (if Random.State.bool r then Ids.first f else Ids.second f))
      in
      if
        List.exists
          (fun (c : Constraints.t) -> c.body = body)
          (Schema.constraints schema)
      then add_fact ()
      else
        let id = fresh "nc" in
        (Edit.Add_constraint (Constraints.make id body), (added_facts, id :: cs))
  | _, cs ->
      let id = pick r cs in
      (Edit.Remove_constraint id, (added_facts, List.filter (( <> ) id) cs))

let non_fault_types s =
  List.filter (fun t -> t.[0] <> 'X') (Schema.object_types s)

let check_req item =
  { meth = "check"; body = P.build_params ~schema_text:item.text (); kind = Check item }

(* ---- edit-check ---- *)

let session_steps = 8 (* the length of the schedule below *)

let edit_check_pass ~seed pass =
  let catalog = Lazy.force faulted in
  let order = shuffle (rng seed [ pass; 1 ]) (List.init faulted_catalog Fun.id) in
  List.concat_map
    (fun b ->
      let base, pattern = catalog.(b) in
      let r = rng seed [ pass; 2; b ] in
      let tag = Printf.sprintf "p%db%d" pass b in
      let base_types = non_fault_types base in
      let item text = { text; planted = pattern; resubmit = false } in
      let rec go step schema added sent acc =
        if step = session_steps then List.rev acc
        else
          (* a fixed step schedule, so every session costs the same number
             of canonicalizations: edit edit undo edit rename edit undo edit *)
          let roll = [| 7; 7; 0; 7; 2; 7; 0; 7 |].(step) in
          if roll < 2 && sent <> [] then
            (* undo: the editor resends an earlier state byte for byte *)
            let text = pick r sent in
            go (step + 1) schema added sent (check_req (item text) :: acc)
          else if roll = 2 && sent <> [] then
            let text =
              print (renamed (Printf.sprintf "R%s_%d" tag step) schema)
            in
            go (step + 1) schema added sent (check_req (item text) :: acc)
          else
            let edit, added =
              session_edit r ~tag ~step ~base_types schema added
            in
            let schema = Edit.apply edit schema in
            let text = print schema in
            go (step + 1) schema added (text :: sent)
              (check_req (item text) :: acc)
      in
      go 0 base ([], []) [] [])
    order

(* ---- reasoning schemas of the traced run ---- *)

(* One pass of what a [reason --backend auto] caller would send: the clean
   catalog (size 8-30, which the planner races to the complete backends)
   and the small faulted catalog (which it short-circuits), renamed per
   seed and shuffled.  Each schema comes with its planted pattern, [None]
   for a clean-by-construction one, whose patterns must stay silent. *)
let reason_items ~seed =
  let cleans = Lazy.force cleans and small = Lazy.force small_faulted in
  let r = rng seed [ 0; 3 ] in
  let tag i = Printf.sprintf "r%d_%d" i (Random.State.int r 1000) in
  let clean_items = List.init clean_catalog (fun i -> (print (renamed (tag i) cleans.(i)), None)) in
  let faulted_items =
    List.init 8 (fun i ->
        let s, p = small.(i) in
        (print (renamed (tag (100 + i)) s), Some p))
  in
  shuffle r (clean_items @ faulted_items)

(* ---- registry-ingest ---- *)

(* The corpus shape the stream and the pre-filled store share: a pass
   submits every faulted base once, and every third submission is
   followed by a renamed resubmission of it, so 12 of a pass's 48
   submissions (0.25) are duplicates. *)
let resubmit_every = 3

(* Batches of four: with a resubmission after every third schema, each
   batch holds three new schemas and one duplicate, the planted share in
   every request, and costs four canonicalizations, milliseconds of work. *)
let batch_size = 4

(* Two queries follow each ingest.  Reads at twice the write rate give
   [lookup_p50_ms] a few thousand samples per run while ingest keeps most
   of the wall time, so throughput stays a write-path figure.  The terms
   are the ones the corpus holds: the nine planted patterns, the verdict
   of every faulted schema, and one conjunction. *)
let queries_per_batch = 2

let queries =
  [ "pattern:1"; "pattern:2"; "pattern:3"; "pattern:4"; "pattern:5"; "pattern:6";
    "pattern:7"; "pattern:8"; "pattern:9"; "verdict:unsat"; "pattern:3 verdict:unsat" ]

let ingest_pass ~seed pass =
  let catalog = Lazy.force faulted in
  let r = rng seed [ pass; 4 ] in
  (* every base once per pass, with one fresh additive edit so the
     canonical digest is new *)
  let fresh =
    List.map
      (fun b ->
        let base, pattern = catalog.(b) in
        let er = rng seed [ pass; 5; b ] in
        let tag = Printf.sprintf "i%db%d" pass b in
        (* a fresh type whose value set names the pass makes every
           submission of a run structurally new; the seeded session edit
           varies the rest *)
        let v = "V" ^ tag in
        let schema =
          base
          |> Edit.apply (Edit.Add_object_type v)
          |> Edit.apply
               (Edit.Add_constraint
                  (Constraints.make ("vc" ^ tag)
                     (Constraints.Value_constraint (v, Value.Constraint.of_strings [ tag ]))))
        in
        let edit, _ =
          session_edit er ~tag ~step:0 ~base_types:(non_fault_types base) schema
            ([], [])
        in
        (Edit.apply edit schema, pattern))
      (shuffle r (List.init faulted_catalog Fun.id))
  in
  let items =
    List.concat
      (List.mapi
         (fun i (s, p) ->
           let it = { text = print s; planted = p; resubmit = false } in
           if i mod resubmit_every = resubmit_every - 1 then
             [ it; { text = print (renamed (Printf.sprintf "D%d_%d" pass i) s); planted = p; resubmit = true } ]
           else [ it ])
         fresh)
  in
  let rec batches acc = function
    | [] -> List.rev acc
    | xs ->
        let b = List.filteri (fun i _ -> i < batch_size) xs in
        let rest = List.filteri (fun i _ -> i >= batch_size) xs in
        batches (b :: acc) rest
  in
  let query q = { meth = "query"; body = P.build_params ~q ~limit:10 (); kind = Query q } in
  List.concat_map
    (fun batch ->
      let texts = List.map (fun it -> it.text) batch in
      { meth = "ingest"; body = P.build_params ~schema_texts:texts (); kind = Ingest batch }
      :: List.init queries_per_batch (fun _ -> query (pick r queries)))
    (batches [] items)

let edit_check = "edit-check"
let registry_ingest = "registry-ingest"
let names = [ edit_check; registry_ingest ]

let pass ~workload ~seed p =
  if workload = edit_check then edit_check_pass ~seed p else ingest_pass ~seed p

(* The stream's bytes, for the determinism self-check. *)
let fingerprint ~workload ~seed ~passes =
  let b = Buffer.create 4096 in
  for p = 0 to passes - 1 do
    List.iter
      (fun q ->
        Buffer.add_string b q.meth;
        Buffer.add_char b '\n';
        Buffer.add_string b q.body;
        Buffer.add_char b '\n')
      (pass ~workload ~seed p)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))
