(* The checking service: the protocol must round-trip (client builds what
   the server parses, server prints what the client parses), the LRU cache
   must behave like one (promotion, eviction, counters), and the server
   loop's contracts — warm-cache hit rates, per-request deadlines that
   answer [timeout] instead of wedging the process, admission control,
   shutdown signalling — must hold when driven through [Server.handle],
   which is exactly what the socket loop feeds it. *)

module P = Orm_server.Protocol
module Cache = Orm_server.Cache
module Server = Orm_server.Server
module Metrics = Orm_telemetry.Metrics
module Settings = Orm_patterns.Settings
module Gen = Orm_generator.Gen

let schema_text ?(seed = 11) ?(size = 5) () =
  Orm_dsl.Printer.to_string (Gen.clean ~config:(Gen.sized size) ~seed ())

(* ---- protocol JSON ---------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      P.Null;
      P.Bool true;
      P.Bool false;
      P.Int 0;
      P.Int (-42);
      P.String "";
      P.String "plain";
      P.String "quote\" backslash\\ newline\n tab\t";
      P.String "unicode: \xc3\xa9\xe2\x82\xac";
      P.List [ P.Int 1; P.String "two"; P.Null ];
      P.Obj [ ("a", P.Int 1); ("nested", P.Obj [ ("b", P.List [] ) ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = P.json_to_string j in
      match P.json_of_string s with
      | Ok j' ->
          Alcotest.(check string) ("roundtrip " ^ s) s (P.json_to_string j')
      | Error msg -> Alcotest.failf "did not parse %s: %s" s msg)
    cases

let test_json_escapes () =
  (* \uXXXX escapes decode to UTF-8 *)
  match P.json_of_string {|"café €"|} with
  | Ok (P.String s) -> Alcotest.(check string) "utf8" "caf\xc3\xa9 \xe2\x82\xac" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error msg -> Alcotest.fail msg

let test_json_rejects () =
  List.iter
    (fun s ->
      match P.json_of_string s with
      | Ok _ -> Alcotest.failf "accepted %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "01"; "1." ];
  (* floats are first-class since the shared core replaced the
     integers-only envelope reader *)
  List.iter
    (fun (s, f) ->
      match P.json_of_string s with
      | Ok (P.Float f') when f' = f -> ()
      | Ok j -> Alcotest.failf "%s parsed to %s" s (P.json_to_string j)
      | Error msg -> Alcotest.failf "rejected %s: %s" s msg)
    [ ("1.5", 1.5); ("1e3", 1000.); ("-0.25", -0.25) ]

(* ---- requests --------------------------------------------------------- *)

let test_request_roundtrip () =
  let settings = Settings.with_extensions { Settings.default with paper_faithful = false } in
  let line =
    P.build_request ~id:"r7" ~schema_text:"schema s\n" ~settings ~jobs:4
      ~deadline_ms:250 ~budget:123 ~sat_budget:456 ~backend:`Sat P.Reason
  in
  match P.parse_request line with
  | Error (msg, _) -> Alcotest.fail msg
  | Ok req ->
      Alcotest.(check (option string)) "id" (Some "r7") req.P.id;
      Alcotest.(check string) "method" "reason" (P.meth_to_string req.P.meth);
      Alcotest.(check (option string)) "schema" (Some "schema s\n") req.P.schema_text;
      Alcotest.(check int) "jobs" 4 req.P.jobs;
      Alcotest.(check (option int)) "deadline" (Some 250) req.P.deadline_ms;
      Alcotest.(check int) "budget" 123 req.P.budget;
      Alcotest.(check int) "sat budget" 456 req.P.sat_budget;
      Alcotest.(check bool) "backend" true (req.P.backend = `Sat);
      Alcotest.(check bool) "paper_faithful off" false
        req.P.settings.Settings.paper_faithful;
      Alcotest.(check bool) "extensions on" true
        (Settings.is_enabled 10 req.P.settings)

let test_request_envelope () =
  let expect_err line =
    match P.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %s" line
    | Error _ -> ()
  in
  expect_err {|{"id":"x","method":"ping"}|};
  (* no version *)
  expect_err {|{"ormcheck":2,"method":"ping"}|};
  (* wrong version *)
  expect_err {|{"ormcheck":1,"method":"frobnicate"}|};
  (* unknown method *)
  expect_err {|{"ormcheck":1}|};
  (* no method *)
  expect_err "not json at all";
  (* the id survives a recoverable parse error so the response correlates *)
  match P.parse_request {|{"ormcheck":1,"id":"r9","method":"frobnicate"}|} with
  | Error (_, Some "r9") -> ()
  | Error (_, id) ->
      Alcotest.failf "id not recovered: %s" (Option.value id ~default:"<none>")
  | Ok _ -> Alcotest.fail "accepted unknown method"

let test_cache_key () =
  let parse line =
    match P.parse_request line with
    | Ok r -> r
    | Error (m, _) -> Alcotest.fail m
  in
  let base ?id ?jobs ?deadline_ms ?budget ?backend ?(schema = "schema a\n") meth =
    P.cache_key
      (parse (P.build_request ?id ?jobs ?deadline_ms ?budget ?backend ~schema_text:schema meth))
  in
  (* fields that cannot change the answer do not change the key *)
  Alcotest.(check string) "id irrelevant" (base P.Check) (base ~id:"z" P.Check);
  Alcotest.(check string) "jobs irrelevant" (base P.Check) (base ~jobs:8 P.Check);
  Alcotest.(check string) "deadline irrelevant" (base P.Check)
    (base ~deadline_ms:5 P.Check);
  (* fields that can, do *)
  Alcotest.(check bool) "schema matters" false
    (base P.Check = base ~schema:"schema b\n" P.Check);
  Alcotest.(check bool) "method matters" false (base P.Check = base P.Lint);
  Alcotest.(check bool) "budget matters" false
    (base P.Reason = base ~budget:7 P.Reason);
  Alcotest.(check bool) "backend matters" false
    (base P.Reason = base ~backend:`Dlr P.Reason)

(* ---- LRU cache -------------------------------------------------------- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:3 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  Alcotest.(check (list string)) "mru order" [ "c"; "b"; "a" ]
    (Cache.keys_mru_first c);
  (* a hit promotes *)
  Alcotest.(check (option int)) "find a" (Some 1) (Cache.find c "a");
  Alcotest.(check (list string)) "promoted" [ "a"; "c"; "b" ]
    (Cache.keys_mru_first c);
  (* adding past capacity evicts the LRU entry (b) *)
  Cache.add c "d" 4;
  Alcotest.(check (list string)) "evicted lru" [ "d"; "a"; "c" ]
    (Cache.keys_mru_first c);
  Alcotest.(check (option int)) "b gone" None (Cache.find c "b");
  Alcotest.(check int) "length" 3 (Cache.length c);
  (* replace keeps one entry, updates value *)
  Cache.add c "a" 10;
  Alcotest.(check (option int)) "replaced" (Some 10) (Cache.find c "a");
  Alcotest.(check int) "no duplicate" 3 (Cache.length c);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_cache_capacity_one () =
  let c = Cache.create ~capacity:1 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check (option int)) "a evicted" None (Cache.find c "a");
  Alcotest.(check (option int)) "b present" (Some 2) (Cache.find c "b");
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Cache.create: capacity must be >= 1") (fun () ->
      ignore (Cache.create ~capacity:0 ()))

let test_cache_metrics_mirror () =
  let m = Metrics.create () in
  let c = Cache.create ~metrics:m ~capacity:4 () in
  Cache.add c "k" 0;
  ignore (Cache.find c "k");
  ignore (Cache.find c "k");
  ignore (Cache.find c "absent");
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "hits mirrored" 2 snap.Metrics.cache_hits;
  Alcotest.(check int) "misses mirrored" 1 snap.Metrics.cache_misses

(* ---- server dispatch -------------------------------------------------- *)

let status_of line =
  match P.parse_response line with
  | Ok r -> r.P.status
  | Error msg -> Alcotest.fail msg

let test_ping_stats_shutdown () =
  let srv = Server.create Server.default_config in
  let resp, v = Server.handle srv (P.build_request ~id:"p" P.Ping) in
  Alcotest.(check string) "ping ok" "ok" (status_of resp);
  Alcotest.(check bool) "ping continues" true (v = `Continue);
  let resp, _ = Server.handle srv (P.build_request P.Stats) in
  (match P.parse_response resp with
  | Ok r ->
      Alcotest.(check string) "stats ok" "ok" r.P.status;
      (match P.member "result" r.P.body with
      | Some (P.Obj fields) ->
          Alcotest.(check bool) "stats has cache" true
            (List.mem_assoc "cache" fields);
          Alcotest.(check (option P.(Alcotest.testable (Fmt.of_to_string json_to_string) ( = ))))
            "requests counted" (Some (P.Int 1))
            (List.assoc_opt "requests" fields)
      | _ -> Alcotest.fail "stats result not an object")
  | Error msg -> Alcotest.fail msg);
  let resp, v = Server.handle srv (P.build_request ~id:"s" P.Shutdown) in
  Alcotest.(check string) "shutdown ok" "ok" (status_of resp);
  Alcotest.(check bool) "shutdown signalled" true (v = `Shutdown)

let test_handle_errors () =
  let srv = Server.create Server.default_config in
  let expect_error line =
    let resp, v = Server.handle srv line in
    Alcotest.(check string) ("error for " ^ line) "error" (status_of resp);
    Alcotest.(check bool) "continues" true (v = `Continue)
  in
  expect_error "garbage";
  expect_error {|{"ormcheck":9,"method":"ping"}|};
  (* check without a schema *)
  expect_error (P.build_request P.Check);
  (* schema that does not parse *)
  expect_error (P.build_request ~schema_text:"this is not orm" P.Check);
  (* schema that parses but fails validation *)
  expect_error
    (P.build_request ~schema_text:"schema s\nfact f (Ghost) reading \"g\"\n"
       P.Check)

let test_check_verdicts () =
  let srv = Server.create Server.default_config in
  let clean = schema_text ~seed:3 () in
  let resp, _ = Server.handle srv (P.build_request ~schema_text:clean P.Check) in
  (match P.parse_response resp with
  | Ok r ->
      Alcotest.(check string) "ok" "ok" r.P.status;
      Alcotest.(check bool) "not cached" false r.P.cached;
      Alcotest.(check bool) "clean" true (P.member "clean" r.P.body = Some (P.Bool true))
  | Error m -> Alcotest.fail m);
  let broken =
    Orm_dsl.Printer.to_string
      (Orm_generator.Faults.inject ~seed:5 1
         (Gen.clean ~config:(Gen.sized 6) ~seed:3 ()))
        .schema
  in
  let resp, _ = Server.handle srv (P.build_request ~schema_text:broken P.Check) in
  match P.parse_response resp with
  | Ok r ->
      Alcotest.(check string) "ok" "ok" r.P.status;
      Alcotest.(check bool) "unclean" true
        (P.member "clean" r.P.body = Some (P.Bool false))
  | Error m -> Alcotest.fail m

(* The acceptance loop: 200 check requests over a handful of distinct
   schemas against a warm cache must be >= 95% cache hits. *)
let test_warm_cache_hit_rate () =
  let m = Metrics.create () in
  let srv = Server.create ~metrics:m Server.default_config in
  let schemas = List.init 5 (fun i -> schema_text ~seed:(20 + i) ()) in
  let requests =
    List.init 200 (fun i ->
        P.build_request ~id:(string_of_int i)
          ~schema_text:(List.nth schemas (i mod 5))
          P.Check)
  in
  List.iter
    (fun line ->
      let resp, _ = Server.handle srv line in
      Alcotest.(check string) "ok" "ok" (status_of resp))
    requests;
  Alcotest.(check int) "200 served" 200 (Server.requests_served srv);
  Alcotest.(check int) "5 distinct entries" 5 (Server.cache_length srv);
  Alcotest.(check int) "5 misses" 5 (Server.cache_misses srv);
  Alcotest.(check int) "195 hits" 195 (Server.cache_hits srv);
  let hit_rate =
    float_of_int (Server.cache_hits srv)
    /. float_of_int (Server.cache_hits srv + Server.cache_misses srv)
  in
  Alcotest.(check bool) ">= 95% hits" true (hit_rate >= 0.95);
  (* cached responses carry cached:true and the requester's own id *)
  let resp, _ =
    Server.handle srv
      (P.build_request ~id:"fresh-id" ~schema_text:(List.hd schemas) P.Check)
  in
  (match P.parse_response resp with
  | Ok r ->
      Alcotest.(check bool) "cached flag" true r.P.cached;
      Alcotest.(check (option string)) "own id" (Some "fresh-id") r.P.resp_id
  | Error m -> Alcotest.fail m);
  (* and the telemetry bundle saw every request *)
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "metrics requests" 201 snap.Metrics.requests;
  Alcotest.(check bool) "latency histogram populated" true
    (Array.fold_left ( + ) 0 snap.Metrics.request_hist = 201)

(* deadline_ms=1 against a hard tableau problem with an effectively
   unlimited budget: the deadline, not the budget, must stop the search,
   and the server answers [timeout] and stays alive. *)
let test_deadline_timeout () =
  let m = Metrics.create () in
  let srv = Server.create ~metrics:m Server.default_config in
  let hard = schema_text ~seed:7 ~size:40 () in
  let line =
    P.build_request ~schema_text:hard ~deadline_ms:1 ~budget:100_000_000
      ~sat_budget:1_000_000_000 P.Reason
  in
  let resp, v = Server.handle srv line in
  (match P.parse_response resp with
  | Ok r ->
      Alcotest.(check string) "timeout" "timeout" r.P.status;
      Alcotest.(check bool) "elapsed reported" true
        (match P.member "elapsed_ms" r.P.body with
        | Some (P.Int ms) -> ms >= 0
        | _ -> false)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "continues" true (v = `Continue);
  Alcotest.(check int) "timeout counted" 1 (Server.timeouts_total srv);
  Alcotest.(check int) "metrics timeout" 1 (Metrics.snapshot m).Metrics.timeouts;
  (* timeouts are not cached: the same schema and budgets resubmitted
     without a deadline compute (tiny budgets keep this instant — budget
     exhaustion is an [ok] answer with incomplete verdicts, not a timeout) *)
  let resp, _ =
    Server.handle srv
      (P.build_request ~schema_text:hard ~budget:10 ~sat_budget:100 P.Reason)
  in
  match P.parse_response resp with
  | Ok r ->
      Alcotest.(check string) "recomputed" "ok" r.P.status;
      Alcotest.(check bool) "not served from cache" false r.P.cached
  | Error m -> Alcotest.fail m

let test_overloaded () =
  let m = Metrics.create () in
  let srv =
    Server.create ~metrics:m { Server.default_config with max_pending = 2 }
  in
  let resp = Server.overloaded srv (P.build_request ~id:"q9" P.Check) in
  (match P.parse_response resp with
  | Ok r ->
      Alcotest.(check string) "overloaded" "overloaded" r.P.status;
      Alcotest.(check (option string)) "id echoed" (Some "q9") r.P.resp_id
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "counted" 1 (Server.overloads_total srv);
  Alcotest.(check int) "metrics overload" 1
    (Metrics.snapshot m).Metrics.overloads

(* ---- batch dispatch --------------------------------------------------- *)

let test_batch_dispatch () =
  let srv = Server.create Server.default_config in
  let texts =
    [ schema_text ~seed:31 (); schema_text ~seed:32 (); schema_text ~seed:33 () ]
  in
  let line = P.build_request ~id:"b1" ~schema_texts:texts P.Batch in
  let resp, v = Server.handle srv line in
  Alcotest.(check bool) "continues" true (v = `Continue);
  (match P.parse_response resp with
  | Ok r -> (
      Alcotest.(check string) "ok" "ok" r.P.status;
      Alcotest.(check bool) "cold" false r.P.cached;
      match P.member "results" r.P.body with
      | Some (P.List results) ->
          Alcotest.(check int) "one result per schema" (List.length texts)
            (List.length results);
          List.iter
            (fun result ->
              Alcotest.(check bool) "each result has a verdict" true
                (P.member "clean" result <> None))
            results
      | _ -> Alcotest.fail "no results array")
  | Error m -> Alcotest.fail m);
  (* the whole batch is one cache entry: the same batch repeats warm *)
  let resp, _ = Server.handle srv (P.build_request ~schema_texts:texts P.Batch) in
  (match P.parse_response resp with
  | Ok r ->
      Alcotest.(check string) "warm ok" "ok" r.P.status;
      Alcotest.(check bool) "warm cached" true r.P.cached
  | Error m -> Alcotest.fail m);
  (* a bad schema fails the whole batch, naming its input position *)
  let resp, _ =
    Server.handle srv
      (P.build_request
         ~schema_texts:[ schema_text ~seed:31 (); "this is not orm" ]
         P.Batch)
  in
  (match P.parse_response resp with
  | Ok r -> (
      Alcotest.(check string) "error" "error" r.P.status;
      match P.member "error" r.P.body with
      | Some (P.String msg) ->
          Alcotest.(check bool) "position named" true
            (let rec infix i =
               i + 10 <= String.length msg
               && (String.sub msg i 10 = "schemas[1]" || infix (i + 1))
             in
             infix 0)
      | _ -> Alcotest.fail "no error message")
  | Error m -> Alcotest.fail m);
  (* and an empty batch is a request error, not an empty answer *)
  let resp, _ = Server.handle srv (P.build_request ~schema_texts:[] P.Batch) in
  Alcotest.(check string) "empty batch rejected" "error" (status_of resp)

(* ---- persistent disk tier --------------------------------------------- *)

(* the store shards entries into two-hex-char subdirectories, so cleanup
   (and the corruption test's clobbering) walk the tree *)
let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with _ -> ())
  | false -> ( try Sys.remove path with _ -> ())
  | exception Sys_error _ -> ()

let rec iter_files f path =
  if Sys.is_directory path then
    Array.iter (fun n -> iter_files f (Filename.concat path n)) (Sys.readdir path)
  else f path

let with_tmp_dir f =
  let dir = Filename.temp_file "ormcheck-test" ".store" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

module Disk = Orm_server.Disk_cache

let test_disk_cache_roundtrip () =
  with_tmp_dir (fun dir ->
      let d = Disk.create ~dir () in
      Alcotest.(check (option string)) "cold miss" None (Disk.find d "k1");
      Disk.add d "k1" "value one";
      Disk.add d "k2" "value two";
      Alcotest.(check (option string)) "k1" (Some "value one") (Disk.find d "k1");
      Alcotest.(check (option string)) "k2" (Some "value two") (Disk.find d "k2");
      Alcotest.(check int) "entries" 2 (Disk.entries d);
      Alcotest.(check int) "hits" 2 (Disk.hits d);
      Alcotest.(check int) "misses" 1 (Disk.misses d);
      (* overwrite replaces, never duplicates *)
      Disk.add d "k1" "value one prime";
      Alcotest.(check (option string)) "replaced" (Some "value one prime")
        (Disk.find d "k1");
      Alcotest.(check int) "still 2 entries" 2 (Disk.entries d);
      Alcotest.check_raises "max_bytes 0 rejected"
        (Invalid_argument "Disk_cache.create: max_bytes must be positive")
        (fun () -> ignore (Disk.create ~max_bytes:0 ~dir ())))

let test_disk_cache_persists_across_handles () =
  with_tmp_dir (fun dir ->
      let d1 = Disk.create ~dir () in
      Disk.add d1 "key" "survives";
      (* a second handle over the same directory — a restarted process —
         sees the entry; counters are per-handle *)
      let d2 = Disk.create ~dir () in
      Alcotest.(check (option string)) "entry survives" (Some "survives")
        (Disk.find d2 "key");
      Alcotest.(check int) "fresh handle hits" 1 (Disk.hits d2);
      Alcotest.(check int) "writer handle unaffected" 0 (Disk.hits d1))

let test_disk_cache_corrupt_entry () =
  with_tmp_dir (fun dir ->
      let d = Disk.create ~dir () in
      Disk.add d "key" "good";
      (* clobber the entry file on disk with a truncated write (no key
         line): the read degrades to a miss and the squatter is removed *)
      iter_files
        (fun path ->
          let oc = open_out path in
          output_string oc "corrupt garbage with no key line";
          close_out oc)
        dir;
      Alcotest.(check (option string)) "corrupt entry is a miss" None
        (Disk.find d "key");
      Alcotest.(check int) "corrupt entry deleted" 0 (Disk.entries d);
      (* the store still works after absorbing the corruption *)
      Disk.add d "key" "fresh";
      Alcotest.(check (option string)) "recovered" (Some "fresh")
        (Disk.find d "key"))

let test_disk_cache_gc_bound () =
  with_tmp_dir (fun dir ->
      let max_bytes = 4096 in
      let d = Disk.create ~max_bytes ~dir () in
      let payload = String.make 256 'x' in
      for i = 1 to 64 do
        Disk.add d (Printf.sprintf "key-%03d" i) payload
      done;
      Alcotest.(check bool) "stayed under the bound" true
        (Disk.bytes d <= max_bytes);
      Alcotest.(check bool) "kept a useful fraction" true (Disk.entries d > 0);
      (* the survivors are the newest entries (mtime-ordered sweep) *)
      Alcotest.(check (option string)) "newest survives" (Some payload)
        (Disk.find d "key-064");
      Alcotest.(check (option string)) "oldest swept" None (Disk.find d "key-001"))

(* The tentpole's acceptance bar: a restarted server answers a
   previously-checked schema from the persistent tier — same verdict,
   visible hit counter — without recomputing. *)
let test_disk_tier_survives_restart () =
  with_tmp_dir (fun dir ->
      let text = schema_text ~seed:41 () in
      let line = P.build_request ~schema_text:text P.Check in
      let verdict_of resp =
        match P.parse_response resp with
        | Ok r -> (r.P.status, r.P.cached, P.member "clean" r.P.body)
        | Error m -> Alcotest.fail m
      in
      let srv1 =
        Server.create ~disk_cache:(Disk.create ~dir ()) Server.default_config
      in
      let resp1, _ = Server.handle srv1 line in
      let status1, cached1, clean1 = verdict_of resp1 in
      Alcotest.(check string) "computed ok" "ok" status1;
      Alcotest.(check bool) "computed cold" false cached1;
      (* a fresh server over the same directory: in-memory LRU is empty,
         the disk tier answers *)
      let srv2 =
        Server.create ~disk_cache:(Disk.create ~dir ()) Server.default_config
      in
      let resp2, _ = Server.handle srv2 line in
      let status2, cached2, clean2 = verdict_of resp2 in
      Alcotest.(check string) "restart ok" "ok" status2;
      Alcotest.(check bool) "restart served cached" true cached2;
      Alcotest.(check bool) "identical verdict" true (clean1 = clean2);
      Alcotest.(check int) "disk hit counted" 1 (Server.disk_hits srv2);
      Alcotest.(check int) "lru did not hit" 0 (Server.cache_hits srv2);
      (* the hit surfaces in the stats method *)
      let resp, _ = Server.handle srv2 (P.build_request P.Stats) in
      match P.parse_response resp with
      | Ok r -> (
          match P.member "result" r.P.body with
          | Some result -> (
              match P.member "disk_cache" result with
              | Some disk ->
                  Alcotest.(check bool) "stats disk hits" true
                    (P.member "hits" disk = Some (P.Int 1))
              | None -> Alcotest.fail "stats has no disk_cache section")
          | None -> Alcotest.fail "stats has no result")
      | Error m -> Alcotest.fail m)

(* A format bump must miss: an entry persisted by an older binary is never
   served once the result encoding changes. *)
let test_format_version_bump_misses () =
  let req =
    match P.parse_request (P.build_request ~schema_text:"schema s\n" P.Check) with
    | Ok r -> r
    | Error (m, _) -> Alcotest.fail m
  in
  Alcotest.(check string) "cache_key is cache_key_with current"
    (P.cache_key req)
    (P.cache_key_with ~format_version:P.format_version req);
  Alcotest.(check bool) "bumped version changes the key" false
    (P.cache_key req = P.cache_key_with ~format_version:(P.format_version + 1) req);
  with_tmp_dir (fun dir ->
      let d = Disk.create ~dir () in
      Disk.add d (P.cache_key req) "old-format result";
      Alcotest.(check (option string)) "same version hits"
        (Some "old-format result")
        (Disk.find d (P.cache_key req));
      Alcotest.(check (option string)) "bumped version misses" None
        (Disk.find d (P.cache_key_with ~format_version:(P.format_version + 1) req)));
  (* the registry tier honours the same version: entries persisted under
     the current format are invisible to a bumped-format reopen *)
  with_tmp_dir (fun dir ->
      let store =
        Orm_registry.Store.create ~format_version:P.format_version ~dir
      in
      (match
         Orm_registry.Store.ingest store ~digest:(Digest.to_hex (Digest.string "s")) ~name:"s"
           ~verdict:"sat" ~patterns:0 ~diagnostics:0
           ~entry_body:(Orm_json.Obj [])
       with
      | `New -> ()
      | `Dup -> Alcotest.fail "fresh store reported a duplicate");
      Alcotest.(check int) "same version sees the entry" 1
        (Orm_registry.Store.size store);
      let bumped =
        Orm_registry.Store.create ~format_version:(P.format_version + 1) ~dir
      in
      Alcotest.(check int) "bumped version sees nothing" 0
        (Orm_registry.Store.size bumped))

(* ---- canonical (structural) cache tier -------------------------------- *)

(* A renamed, declaration-shuffled clone of a checked schema is served
   from the cache — the byte digest differs, the canonical digest does
   not — and the response reads in the clone's own names. *)
let test_canonical_tier_clone () =
  let m = Metrics.create () in
  let srv = Server.create ~metrics:m Server.default_config in
  let schema =
    (Orm_generator.Faults.inject ~seed:5 1
       (Gen.clean ~config:(Gen.sized 6) ~seed:3 ()))
      .schema
  in
  let clone =
    Orm.Schema.rename ~schema_name:"CloneSchema"
      ~object_type:(fun t -> "Q_" ^ t)
      ~fact_type:(fun f -> "R_" ^ f)
      ~constraint_id:(fun c -> "k_" ^ c)
      schema
  in
  let check text =
    let resp, _ = Server.handle srv (P.build_request ~schema_text:text P.Check) in
    match P.parse_response resp with
    | Ok r ->
        Alcotest.(check string) "ok" "ok" r.P.status;
        r
    | Error msg -> Alcotest.fail msg
  in
  let r1 = check (Orm_dsl.Printer.to_string schema) in
  Alcotest.(check bool) "original computed" false r1.P.cached;
  let r2 = check (Orm_dsl.Printer.to_string clone) in
  Alcotest.(check bool) "clone served from cache" true r2.P.cached;
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "canon hit counted" 1 snap.Metrics.canon_hits;
  Alcotest.(check int) "canon miss counted" 1 snap.Metrics.canon_misses;
  (* the served body reads in the clone's names, not the original's *)
  let body2 = P.json_to_string r2.P.body in
  let contains s sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    String.length sub = 0 || go 0
  in
  Alcotest.(check bool) "clone names present" true (contains body2 "Q_");
  Alcotest.(check bool) "original verdict preserved" true
    (P.member "clean" r1.P.body = P.member "clean" r2.P.body);
  (* byte-identical re-request of the original is a plain cache hit and
     does not count as another canonical-tier hit *)
  let r3 = check (Orm_dsl.Printer.to_string schema) in
  Alcotest.(check bool) "byte-warm cached" true r3.P.cached;
  Alcotest.(check int) "canon hits unchanged" 1
    (Metrics.snapshot m).Metrics.canon_hits

(* ---- registry methods through the dispatcher -------------------------- *)

module Registry = Orm_registry.Store

let test_registry_dispatch () =
  with_tmp_dir (fun dir ->
      let m = Metrics.create () in
      let store = Registry.create ~format_version:P.format_version ~dir in
      let srv = Server.create ~metrics:m ~registry:store Server.default_config in
      let unsat =
        Orm_dsl.Printer.to_string
          (Orm_generator.Faults.inject ~seed:9 6
             (Gen.clean ~config:(Gen.sized 5) ~seed:21 ()))
            .Orm_generator.Faults.schema
      in
      let clean = schema_text ~seed:22 () in
      let ingest texts =
        let resp, _ =
          Server.handle srv (P.build_request ~schema_texts:texts P.Ingest)
        in
        match P.parse_response resp with
        | Ok r ->
            Alcotest.(check string) "ingest ok" "ok" r.P.status;
            r.P.body
        | Error msg -> Alcotest.fail msg
      in
      let body = ingest [ unsat; clean; unsat ] in
      Alcotest.(check bool) "two new" true
        (P.member "ingested" body = Some (P.Int 2));
      Alcotest.(check bool) "one duplicate" true
        (P.member "duplicates" body = Some (P.Int 1));
      (* query the covering index over the wire *)
      let resp, _ =
        Server.handle srv (P.build_request ~q:"verdict:unsat" P.Query)
      in
      (match P.parse_response resp with
      | Ok r ->
          Alcotest.(check string) "query ok" "ok" r.P.status;
          Alcotest.(check bool) "one unsat entry" true
            (P.member "total" r.P.body = Some (P.Int 1))
      | Error msg -> Alcotest.fail msg);
      (* a malformed query is an error, not a crash *)
      let resp, _ =
        Server.handle srv (P.build_request ~q:"pattern:notanum" P.Query)
      in
      Alcotest.(check string) "bad query is error" "error" (status_of resp);
      (* the limit comes from the client: a huge one answers like a small
         one instead of sizing anything by it *)
      let entries_of limit =
        let resp, _ =
          Server.handle srv (P.build_request ~q:"" ~limit P.Query)
        in
        match P.parse_response resp with
        | Ok r ->
            Alcotest.(check bool) "query total" true
              (P.member "total" r.P.body = Some (P.Int 2));
            P.member "entries" r.P.body
        | Error msg -> Alcotest.fail msg
      in
      Alcotest.(check bool) "huge limit answers like limit 1000" true
        (entries_of (max_int / 2) = entries_of 1000);
      (* registry-stats aggregates *)
      let resp, _ = Server.handle srv (P.build_request P.Registry_stats) in
      (match P.parse_response resp with
      | Ok r -> (
          match P.member "result" r.P.body with
          | Some result ->
              Alcotest.(check bool) "entries" true
                (P.member "entries" result = Some (P.Int 2))
          | None -> Alcotest.fail "registry-stats has no result")
      | Error msg -> Alcotest.fail msg);
      (* counters flowed into the metrics bundle *)
      let snap = Metrics.snapshot m in
      Alcotest.(check int) "ingested counter" 2 snap.Metrics.registry_ingested;
      Alcotest.(check int) "duplicate counter" 1
        snap.Metrics.registry_duplicates;
      Alcotest.(check int) "query counter" 3 snap.Metrics.registry_queries;
      (* and the stats method grew a registry section *)
      let resp, _ = Server.handle srv (P.build_request P.Stats) in
      match P.parse_response resp with
      | Ok r -> (
          match P.member "result" r.P.body with
          | Some result ->
              Alcotest.(check bool) "stats registry section" true
                (P.member "registry" result <> None)
          | None -> Alcotest.fail "stats has no result")
      | Error msg -> Alcotest.fail msg)

let test_registry_not_configured () =
  let srv = Server.create Server.default_config in
  List.iter
    (fun line ->
      let resp, v = Server.handle srv line in
      Alcotest.(check bool) "continues" true (v = `Continue);
      Alcotest.(check string) "error" "error" (status_of resp))
    [
      P.build_request ~schema_texts:[ schema_text () ] P.Ingest;
      P.build_request ~q:"pattern:6" P.Query;
      P.build_request P.Registry_stats;
    ]

(* ---- shared admission page -------------------------------------------- *)

(* The mmapped counter page that makes [--max-pending] a fleet-wide
   bound: each worker owns one slot, admission reads the sum. *)
let test_admission_page () =
  let module A = Orm_net.Admission in
  let page = A.create ~slots:3 in
  Alcotest.(check int) "three slots" 3 (A.slots page);
  Alcotest.(check int) "starts empty" 0 (A.total page);
  A.set page ~slot:0 4;
  A.set page ~slot:2 7;
  Alcotest.(check int) "sums across slots" 11 (A.total page);
  A.set page ~slot:0 1;
  Alcotest.(check int) "slot overwrite, not accumulate" 8 (A.total page);
  (* defensive clamps: negative counts and out-of-range slots are inert *)
  A.set page ~slot:1 (-5);
  A.set page ~slot:9 100;
  A.set page ~slot:(-1) 100;
  Alcotest.(check int) "clamped and bounds-checked" 8 (A.total page);
  Alcotest.(check bool) "zero slots rejected" true
    (match A.create ~slots:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- engine deadline regression --------------------------------------- *)

(* The deadline is polled BETWEEN patterns: an already-expired deadline on
   a large faulted schema must come back (partial, near-empty) immediately
   instead of running the full pattern sweep, and a generous deadline must
   not change the report at all. *)
let test_engine_deadline_mid_pattern () =
  let module Engine = Orm_patterns.Engine in
  let module Engine_par = Orm_patterns.Engine_par in
  let schema =
    (Orm_generator.Faults.inject ~seed:9 3
       (Gen.clean ~config:(Gen.sized 60) ~seed:8 ()))
      .schema
  in
  let settings = Settings.with_extensions Settings.default in
  let full = Engine.check ~settings schema in
  Alcotest.(check bool) "faulted schema diagnoses" true
    (full.Engine.diagnostics <> []);
  let expired = Int64.sub (Metrics.now_ns ()) 1L in
  let partial = Engine.check ~settings ~deadline_ns:expired schema in
  Alcotest.(check (list string)) "expired deadline skips every pattern" []
    (List.map
       (fun d -> Format.asprintf "%a" Orm_patterns.Diagnostic.pp d)
       partial.Engine.diagnostics);
  let generous =
    Int64.add (Metrics.now_ns ()) 60_000_000_000L (* 60 s *)
  in
  let timed = Engine.check ~settings ~deadline_ns:generous schema in
  Alcotest.(check int) "generous deadline changes nothing"
    (List.length full.Engine.diagnostics)
    (List.length timed.Engine.diagnostics);
  Alcotest.(check bool) "unsat sets identical" true
    (Orm.Ids.String_set.equal full.Engine.unsat_types timed.Engine.unsat_types
    && Orm.Ids.Role_set.equal full.Engine.unsat_roles timed.Engine.unsat_roles);
  (* the parallel batch engine forwards the deadline into every check *)
  let batch = [ schema; schema ] in
  let partials =
    Engine_par.check_batch ~domains:2 ~settings ~deadline_ns:expired batch
  in
  Alcotest.(check int) "batch answered" 2 (List.length partials);
  List.iter
    (fun (r : Engine.report) ->
      Alcotest.(check int) "batch reports partial under expired deadline" 0
        (List.length r.Engine.diagnostics))
    partials

(* ---- the planner over the wire ---------------------------------------- *)

(* "backend": "auto" must round-trip the planner's choice into the
   response envelope: the decision, the cost estimates and the
   per-request timings. *)
let test_reason_auto_roundtrip () =
  let srv = Server.create Server.default_config in
  let line =
    P.build_request ~id:"a1" ~schema_text:(schema_text ~seed:3 ())
      ~backend:`Auto ~budget:150 ~sat_budget:2_000 P.Reason
  in
  let resp, v = Server.handle srv line in
  Alcotest.(check bool) "continues" true (v = `Continue);
  (match P.parse_response resp with
  | Error m -> Alcotest.fail m
  | Ok r -> (
      Alcotest.(check string) "ok" "ok" r.P.status;
      match P.member "planner" r.P.body with
      | Some (P.Obj fields) -> (
          (match List.assoc_opt "decision" fields with
          | Some (P.String d) ->
              (* which SAT route races the tableau is a cost call pinned in
                 the planner suite; here only the envelope shape matters *)
              Alcotest.(check bool)
                (Printf.sprintf "race decision (got %S)" d)
                true
                (d = "race:dlr+sat" || d = "race:dlr+sat-lazy")
          | _ -> Alcotest.fail "planner.decision missing");
          Alcotest.(check bool) "estimates present" true
            (List.mem_assoc "estimates" fields);
          match List.assoc_opt "timings" fields with
          | Some (P.Obj t) ->
              Alcotest.(check bool) "patterns_ns reported" true
                (List.mem_assoc "patterns_ns" t);
              Alcotest.(check bool) "plan_ns reported" true
                (List.mem_assoc "plan_ns" t)
          | _ -> Alcotest.fail "planner.timings missing")
      | _ -> Alcotest.fail "response has no planner object"));
  (* a pattern-conclusive schema short-circuits, with the note in the
     envelope and no backend sections *)
  let broken =
    Orm_dsl.Printer.to_string
      (Orm_generator.Faults.inject ~seed:5 1
         (Gen.clean ~config:(Gen.sized 6) ~seed:3 ()))
        .schema
  in
  let resp, _ =
    Server.handle srv (P.build_request ~schema_text:broken ~backend:`Auto P.Reason)
  in
  (match P.parse_response resp with
  | Error m -> Alcotest.fail m
  | Ok r -> (
      Alcotest.(check bool) "unclean" true
        (P.member "clean" r.P.body = Some (P.Bool false));
      Alcotest.(check bool) "no dlr section" true (P.member "dlr" r.P.body = None);
      Alcotest.(check bool) "no sat section" true (P.member "sat" r.P.body = None);
      match P.member "planner" r.P.body with
      | Some (P.Obj fields) ->
          (match List.assoc_opt "decision" fields with
          | Some (P.String d) ->
              Alcotest.(check string) "patterns_only" "patterns_only" d
          | _ -> Alcotest.fail "planner.decision missing");
          Alcotest.(check bool) "short-circuit note" true
            (List.mem_assoc "note" fields)
      | _ -> Alcotest.fail "short-circuited response has no planner object"));
  (* forced backends answer without a planner object: the wire default is
     unchanged *)
  let resp, _ =
    Server.handle srv
      (P.build_request ~schema_text:broken ~backend:`Both ~budget:150
         ~sat_budget:2_000 P.Reason)
  in
  match P.parse_response resp with
  | Error m -> Alcotest.fail m
  | Ok r ->
      Alcotest.(check bool) "no planner object when forced" true
        (P.member "planner" r.P.body = None);
      Alcotest.(check bool) "dlr ran" true (P.member "dlr" r.P.body <> None);
      Alcotest.(check bool) "sat ran" true (P.member "sat" r.P.body <> None)

(* An auto race that exhausts deadline_ms must answer [timeout] — the
   planner's cancellation hooks stop both racers — and the server must
   survive to serve the next request.  The latency histograms are warmed
   with fast runs first, so the blended cost estimates admit both backends
   under the tight deadline and the planner genuinely races. *)
let test_reason_auto_race_deadline () =
  let m = Metrics.create () in
  for _ = 1 to 6 do
    Metrics.record_backend m ~backend:1 ~time_ns:1_000_000 ~definitive:true;
    Metrics.record_backend m ~backend:2 ~time_ns:1_000_000 ~definitive:true
  done;
  let srv = Server.create ~metrics:m Server.default_config in
  let hard = schema_text ~seed:7 ~size:40 () in
  (* the SAT racer's step budget is tiny so it budget-exhausts without a
     verdict; the tableau racer has budget to spare and runs into the
     deadline — the race as a whole must therefore answer [timeout] *)
  let line =
    P.build_request ~schema_text:hard ~deadline_ms:300 ~budget:100_000_000
      ~sat_budget:500 ~backend:`Auto P.Reason
  in
  let resp, v = Server.handle srv line in
  (match P.parse_response resp with
  | Ok r -> Alcotest.(check string) "timeout" "timeout" r.P.status
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "survives" true (v = `Continue);
  Alcotest.(check int) "timeout counted" 1 (Server.timeouts_total srv);
  (* the 2 s budget admitted both backends, so the planner really raced *)
  Alcotest.(check int) "planner raced" 1 (Metrics.snapshot m).Metrics.plan_races;
  let resp, _ =
    Server.handle srv
      (P.build_request ~schema_text:(schema_text ()) ~backend:`Auto ~budget:150
         ~sat_budget:2_000 P.Reason)
  in
  match P.parse_response resp with
  | Ok r -> Alcotest.(check string) "next request answered" "ok" r.P.status
  | Error msg -> Alcotest.fail msg

(* Planner counters flow into the stats method and survive the snapshot
   JSON round-trip. *)
let test_stats_planner_counters () =
  let m = Metrics.create () in
  let srv = Server.create ~metrics:m Server.default_config in
  let broken =
    Orm_dsl.Printer.to_string
      (Orm_generator.Faults.inject ~seed:5 1
         (Gen.clean ~config:(Gen.sized 6) ~seed:3 ()))
        .schema
  in
  let reason ?(backend = `Auto) text =
    ignore
      (Server.handle srv
         (P.build_request ~schema_text:text ~backend ~budget:150
            ~sat_budget:2_000 P.Reason))
  in
  reason broken;
  (* distinct schemas so the cache does not absorb the requests *)
  reason (schema_text ~seed:3 ());
  reason (schema_text ~seed:4 ());
  let resp, _ = Server.handle srv (P.build_request P.Stats) in
  let snap =
    match P.parse_response resp with
    | Error m -> Alcotest.fail m
    | Ok r -> (
        match P.member "result" r.P.body with
        | Some result -> (
            match Orm_json.member "metrics" result with
            | Some v -> (
                match Metrics.of_value v with
                | Ok snap -> snap
                | Error e -> Alcotest.failf "stats metrics do not parse: %s" e)
            | None -> Alcotest.fail "stats result has no metrics")
        | None -> Alcotest.fail "stats has no result")
  in
  Alcotest.(check int) "patterns-only counted" 1 snap.Metrics.plan_patterns_only;
  Alcotest.(check int) "races counted" 2 snap.Metrics.plan_races;
  Alcotest.(check bool) "backend latency rows present" true
    (snap.Metrics.backends <> []);
  (* and the snapshot itself round-trips *)
  match Metrics.of_value (Metrics.to_value snap) with
  | Error e -> Alcotest.failf "snapshot does not round-trip: %s" e
  | Ok snap' ->
      Alcotest.(check int) "plan_patterns_only round-trips"
        snap.Metrics.plan_patterns_only snap'.Metrics.plan_patterns_only;
      Alcotest.(check int) "plan_races round-trips" snap.Metrics.plan_races
        snap'.Metrics.plan_races;
      Alcotest.(check int) "plan_cancelled round-trips"
        snap.Metrics.plan_cancelled snap'.Metrics.plan_cancelled

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json unicode escapes" `Quick test_json_escapes;
    Alcotest.test_case "json rejects malformed" `Quick test_json_rejects;
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "request envelope" `Quick test_request_envelope;
    Alcotest.test_case "cache key" `Quick test_cache_key;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache capacity 1" `Quick test_cache_capacity_one;
    Alcotest.test_case "cache mirrors metrics" `Quick test_cache_metrics_mirror;
    Alcotest.test_case "ping / stats / shutdown" `Quick test_ping_stats_shutdown;
    Alcotest.test_case "handle never raises" `Quick test_handle_errors;
    Alcotest.test_case "check verdicts" `Quick test_check_verdicts;
    Alcotest.test_case "warm cache >= 95% hits" `Quick test_warm_cache_hit_rate;
    Alcotest.test_case "deadline answers timeout" `Quick test_deadline_timeout;
    Alcotest.test_case "overload accounting" `Quick test_overloaded;
    Alcotest.test_case "batch dispatch" `Quick test_batch_dispatch;
    Alcotest.test_case "disk cache round-trip" `Quick test_disk_cache_roundtrip;
    Alcotest.test_case "disk cache persists across handles" `Quick
      test_disk_cache_persists_across_handles;
    Alcotest.test_case "disk cache absorbs corruption" `Quick
      test_disk_cache_corrupt_entry;
    Alcotest.test_case "disk cache GC bound" `Quick test_disk_cache_gc_bound;
    Alcotest.test_case "disk tier survives restart" `Quick
      test_disk_tier_survives_restart;
    Alcotest.test_case "format version bump misses" `Quick
      test_format_version_bump_misses;
    Alcotest.test_case "engine deadline mid-pattern" `Quick
      test_engine_deadline_mid_pattern;
    Alcotest.test_case "reason auto round-trips planner" `Quick
      test_reason_auto_roundtrip;
    Alcotest.test_case "auto race respects deadline" `Quick
      test_reason_auto_race_deadline;
    Alcotest.test_case "stats carries planner counters" `Quick
      test_stats_planner_counters;
    Alcotest.test_case "canonical tier serves renamed clone" `Quick
      test_canonical_tier_clone;
    Alcotest.test_case "registry methods dispatch" `Quick
      test_registry_dispatch;
    Alcotest.test_case "registry unconfigured is an error" `Quick
      test_registry_not_configured;
    Alcotest.test_case "admission page sums worker slots" `Quick
      test_admission_page;
  ]
