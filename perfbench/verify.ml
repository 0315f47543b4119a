(* The correctness gate: every answer is checked against what the
   generator knows, against an in-process recompute, or against the
   benchmark's own tally of the registry. *)

module P = Orm_server.Protocol
module J = Orm_json
module W = Workload

type verdict =
  | Verified
  | Not_ok of string  (** an error or a timeout: counts against ok_share *)
  | Wrong of string  (** a wrong answer: fails the run *)

let strip = function
  | J.Obj fs -> J.Obj (List.filter (fun (k, _) -> k <> "id" && k <> "cached") fs)
  | v -> v

let str_member k v = Option.value ~default:"" (J.string_member k v)
let obj_member k v = Option.value ~default:J.Null (J.member k v)

(* pattern numbers of the diagnostics in a [report] object *)
let reported_patterns report =
  Option.value ~default:[] (J.list_member "diagnostics" report)
  |> List.filter_map (fun d ->
         let o = obj_member "origin" d in
         if str_member "kind" o = "pattern" then J.int_member "number" o else None)

let planted_ok (item : W.item) patterns = List.mem item.planted patterns

(* A fresh in-process server per recompute: nothing it answers comes from
   a cache another text filled. *)
let recompute_check =
  let memo = Hashtbl.create 64 in
  fun text ->
    match Hashtbl.find_opt memo text with
    | Some v -> v
    | None ->
        let server = Orm_server.Server.create Orm_server.Server.default_config in
        let line, _ =
          Orm_server.Server.handle server (P.build_request ~schema_text:text P.Check)
        in
        let v =
          match P.json_of_string line with Ok j -> strip j | Error _ -> J.Null
        in
        Hashtbl.replace memo text v;
        v

let check_answer (item : W.item) ~cached body =
  let patterns = reported_patterns (obj_member "report" body) in
  if not (planted_ok item patterns) then
    Wrong (Printf.sprintf "check: planted pattern %d not among the reported patterns [%s]"
             item.planted
             (String.concat "," (List.map string_of_int patterns)))
  else if cached && strip body <> recompute_check item.text then
    Wrong "check: cached body differs from a fresh in-process recompute"
  else Verified

(* ---- registry tally ---- *)

(* (pattern bitmap, verdict) of every entry the store should hold *)
let tally : (int * string) list ref = ref []
let add_entry bitmap verdict = tally := (bitmap, verdict) :: !tally

let count_query q =
  let terms = String.split_on_char ' ' q |> List.filter (( <> ) "") in
  let matches (bm, verdict) =
    List.for_all
      (fun t ->
        match String.split_on_char ':' t with
        | [ "pattern"; n ] -> bm land Orm_registry.Store.pattern_bit (int_of_string n) <> 0
        | [ "verdict"; v ] -> verdict = v
        | _ -> false)
      terms
  in
  List.length (List.filter matches !tally)

let ingest_answer (items : W.item list) body =
  let results = Option.value ~default:[] (J.list_member "results" body) in
  if List.length results <> List.length items then Wrong "ingest: result count"
  else
    let check (item : W.item) r =
      let patterns =
        Option.value ~default:[] (J.list_member "patterns" r) |> List.filter_map J.to_int_opt
      in
      let status = str_member "status" r in
      (* every new entry joins the tally, whatever else is wrong *)
      if status = "new" then
        add_entry (Orm_registry.Store.bitmap_of_patterns patterns) (str_member "verdict" r);
      if not (planted_ok item patterns) then
        Some (Printf.sprintf "ingest: planted pattern %d not reported" item.planted)
      else
        match (item.resubmit, status) with
        | true, "duplicate" | false, "new" -> None
        | _, s ->
            Some
              (Printf.sprintf "ingest: %s answered %S"
                 (if item.resubmit then "renamed resubmission" else "new schema") s)
    in
    match List.filter_map Fun.id (List.map2 check items results) with
    | [] -> Verified
    | m :: _ -> Wrong m

let query_answer q body =
  let total = Option.value ~default:(-1) (J.int_member "total" body) in
  let want = count_query q in
  if total = want then Verified
  else Wrong (Printf.sprintf "query %S: total %d, benchmark tally %d" q total want)

(* One response of the timed phase. *)
let answer (req : W.req) ~code body_s =
  match P.json_of_string body_s with
  | Error e -> Wrong ("unparseable response: " ^ e)
  | Ok body -> (
      match str_member "status" body with
      | "ok" when code = 200 -> (
          let cached = J.bool_member "cached" body = Some true in
          match req.kind with
          | W.Check item -> check_answer item ~cached body
          | W.Ingest items -> ingest_answer items body
          | W.Query q -> query_answer q body)
      | "timeout" -> Not_ok "timeout"
      | s -> Not_ok (Printf.sprintf "status %s (HTTP %d): %s" s code (str_member "error" body)))

(* The messages of the wrong answers and of those not ok, and the count of
   verified ones; the first few wrong or failed ones go to stderr. *)
let summarize verdicts =
  let wrong = List.filter_map (function Wrong m -> Some m | _ -> None) verdicts in
  let not_ok = List.filter_map (function Not_ok m -> Some m | _ -> None) verdicts in
  List.iter (fun m -> prerr_endline ("perfbench: WRONG " ^ m)) (List.filteri (fun i _ -> i < 10) wrong);
  List.iter (fun m -> prerr_endline ("perfbench: not ok: " ^ m)) (List.filteri (fun i _ -> i < 5) not_ok);
  (wrong, not_ok, List.length verdicts - List.length wrong - List.length not_ok)
