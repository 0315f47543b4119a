(* The traced run: per-layer metrics, timed from outside by calling each
   layer's public functions from the benchmark's own code.

   1. HTTP over a fixed number of passes, each time on a fresh server:
      untraced, then with a span around every client call, twice over.
      The difference is the tracing overhead; the last traced server's
      [stats] gives the exact cache-tier split.
   2. In-process replay of the same request lines on a fresh
      [Server.create] (same cache evolution as the traced server): the
      HTTP framing, envelope JSON, [Server.handle] and, on every miss, the
      layers a check miss runs (parser, Canon, engine, reply printing),
      each under its own span.
   3. The store layer over the same schemas on a copy of the pre-filled
      registry: ingest, query, replay.
   4. The reasoning layers (planner, DLR tableau, CEGAR and eager SAT,
      Eval) over the reasoning schemas of the same seed
      ([Workload.reason_items]): both workloads send only faulted
      schemas, which the planner short-circuits.

   Spans (name, start, end, parent, request id) are kept in memory and
   written to [spans.ndjson] in the work directory at exit; self times
   (duration minus the time covered by child spans) are printed per span
   name. *)

module W = Workload
module P = Orm_server.Protocol
module J = Orm_json
module Store = Orm_registry.Store
module Canon = Orm_registry.Canon

(* A seed no tuning of this benchmark used: a later performance claim
   must also hold on it. *)
let held_out_seed = 424242

(* ---- spans ---- *)

type span = { id : int; parent : int; req : int; name : string; t0 : float; t1 : float }

let spans = ref []
let next_id = ref 0
let now = Unix.gettimeofday

let span ?(parent = -1) ~req name f =
  incr next_id;
  let id = !next_id in
  let t0 = now () in
  let v = f id in
  spans := { id; parent; req; name; t0; t1 = now () } :: !spans;
  v

let dur s = s.t1 -. s.t0

let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      Hashtbl.replace by_name s.name (self :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Out_channel.output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("id", J.Int s.id); ("parent", J.Int s.parent); ("req", J.Int s.req);
                    ("name", J.String s.name); ("start_us", J.Float (s.t0 *. 1e6));
                    ("end_us", J.Float (s.t1 *. 1e6));
                  ]));
          Out_channel.output_char oc '\n')
        (List.rev !spans))

(* ---- helpers ---- *)

let us x = x *. 1e6
let ms x = x *. 1e3
let med xs = if xs = [] then 0. else Phase.median xs
let share a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let timed f = let t0 = now () in let v = f () in (v, now () -. t0)

let rec copy_tree src dst =
  match (Unix.stat src).Unix.st_kind with
  | Unix.S_DIR ->
      (try Unix.mkdir dst 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Array.iter (fun n -> copy_tree (Filename.concat src n) (Filename.concat dst n)) (Sys.readdir src)
  | _ ->
      Out_channel.with_open_bin dst (fun oc ->
          Out_channel.output_string oc (In_channel.with_open_bin src In_channel.input_all))

let rec tree_bytes path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc n -> acc + tree_bytes (Filename.concat path n)) 0 (Sys.readdir path)
  | st -> st.Unix.st_size

let load text =
  match Orm_dsl.Parser.parse text with Ok s -> s | Error e -> failwith ("unparseable generated schema: " ^ e)

(* Passes the traced run replays: whole passes, a fixed number, so every
   count metric repeats exactly across runs of one seed. *)
let traced_passes workload =
  if workload = W.edit_check then 4 else 6

(* ---- 1. HTTP, untraced then traced ---- *)

let http_phase ~exe ~work ~workload ~seed ~registry ~traced =
  let log = Filename.concat work "server.log" in
  let srv, conn, _ = Client.spawn ~exe ~log ?registry () in
  let reqs = List.concat (List.init (traced_passes workload) (W.pass ~workload ~seed)) in
  let t_start = now () in
  let records =
    List.mapi
      (fun k (q : W.req) ->
        let raw = Client.raw_request ~meth:q.meth ~body:q.body in
        let send () =
          let t0 = now () in
          match Client.send conn raw with
          | Ok (code, body) -> { Phase.req = q; latency = now () -. t0; code; body }
          | Error e -> failwith ("transport error: " ^ e)
        in
        if traced then
          span ~req:k "client.request" (fun id ->
              let r = span ~parent:id ~req:k "net.roundtrip" (fun _ -> send ()) in
              span ~parent:id ~req:k "json.parse_response" (fun _ -> ignore (P.parse_response r.body));
              r)
        else send ())
      reqs
  in
  let wall = now () -. t_start in
  let stats =
    match Client.call conn ~meth:"stats" ~body:"{}" with
    | Ok (_, b) -> (match J.of_string b with Ok j -> j | Error _ -> J.Null)
    | Error _ -> J.Null
  in
  Client.stop srv conn;
  (Array.of_list records, wall, stats)

(* ---- 2. in-process replay of the request path ---- *)

type replay = {
  handle : float array;  (** Server.handle seconds per request *)
  warm : float array;
      (** lookups: the fastest of three [Server.handle] calls on the line
          (a hit or a query leaves the server's state as it was), what
          [net.transport_us] subtracts, so cold CPU caches after the
          replay's own miss-path work do not count as server time *)
  hit : bool array;
}

let replay_request_path ~registry_dir records =
  let registry = Option.map (fun dir -> Store.create ~format_version:P.format_version ~dir) registry_dir in
  let server = Orm_server.Server.create ?registry Orm_server.Server.default_config in
  let n = Array.length records in
  let handle = Array.make n 0. and warm = Array.make n 0. and hit = Array.make n false in
  Array.iteri
    (fun k (r : Phase.record) ->
      let q = r.req in
      span ~req:k "request" (fun root ->
          let raw = Client.raw_request ~meth:q.meth ~body:q.body in
          let request =
            span ~parent:root ~req:k "net.http_parse" (fun _ ->
                match Orm_net.Http.parse raw with
                | Orm_net.Http.Request (req, _) -> req
                | _ -> failwith "Http.parse rejected a benchmark request")
          in
          let envelope =
            match Orm_net.Http.envelope_of_request request with
            | Ok line -> line
            | Error (_, m) -> failwith m
          in
          span ~parent:root ~req:k "json.parse" (fun _ -> ignore (J.of_string envelope));
          let line, dt =
            span ~parent:root ~req:k "server.handle" (fun _ ->
                timed (fun () -> fst (Orm_server.Server.handle server envelope)))
          in
          handle.(k) <- dt;
          let reply = match J.of_string line with Ok j -> j | Error e -> failwith e in
          (* answered from stored results: a cached reply or a query *)
          hit.(k) <- J.bool_member "cached" reply = Some true || q.meth = "query";
          warm.(k) <-
            (if hit.(k) then
               List.fold_left min dt
                 (List.init 2 (fun _ -> snd (timed (fun () -> Orm_server.Server.handle server envelope))))
             else dt);
          span ~parent:root ~req:k "json.print" (fun _ -> ignore (J.to_string reply));
          span ~parent:root ~req:k "net.http_serialize" (fun _ ->
              ignore
                (Orm_net.Http.serialize ~keep_alive:true ~code:(Orm_net.Http.code_of_response line) line));
          (* the schema layers a miss runs inside Server.handle, each
             timed alone under a root of its own (a re-execution, not part
             of the request) *)
          let texts =
            match q.kind with
            | W.Check it -> if hit.(k) then [] else [ it.text ]
            | W.Ingest its -> List.map (fun (it : W.item) -> it.text) its
            | W.Query _ -> []
          in
          List.iter
            (fun text ->
              span ~req:k "miss_path" (fun mp ->
                  span ~parent:mp ~req:k "json.parse" (fun _ -> ignore (J.of_string envelope));
                  let schema = span ~parent:mp ~req:k "dsl.parse" (fun _ -> load text) in
                  let c = span ~parent:mp ~req:k "canon" (fun _ -> Canon.canonicalize schema) in
                  let report =
                    span ~parent:mp ~req:k "engine.check" (fun _ ->
                        Orm_patterns.Engine.check c.Canon.schema)
                  in
                  span ~parent:mp ~req:k "json.print" (fun _ ->
                      ignore (J.to_string (Orm_export.Json.report_value report)))))
            texts))
    records;
  { handle; warm; hit }

(* ---- 3. the store layer ---- *)

type store_figures = {
  ingest_us : float;
  bytes_per_entry : float;
  query_us : float;
  replay_ms : float;
  dup_share : float;
}

let store_suite ~dir ~records ~queries =
  let store = Store.create ~format_version:P.format_version ~dir in
  let before = tree_bytes dir in
  let texts =
    Array.to_list records
    |> List.concat_map (fun (r : Phase.record) ->
           match r.req.kind with
           | W.Check it -> [ it.text ]
           | W.Ingest its -> List.map (fun (it : W.item) -> it.text) its
           | W.Query _ -> [])
  in
  let ingest_t = ref [] and news = ref 0 and dups = ref 0 in
  List.iter
    (fun text ->
      let schema = load text in
      let c = Canon.canonicalize schema in
      let report = Orm_patterns.Engine.check c.Canon.schema in
      let patterns =
        List.fold_left
          (fun bm d ->
            match Orm_patterns.Diagnostic.pattern_number d with
            | Some n -> bm lor Store.pattern_bit n
            | None -> bm)
          0 report.Orm_patterns.Engine.diagnostics
      in
      let status, dt =
        span ~req:(-1) "store.ingest" (fun _ ->
            timed (fun () ->
                Store.ingest store ~digest:c.Canon.digest ~name:(Orm.Schema.name schema)
                  ~verdict:(if patterns = 0 then "clean" else "unsat")
                  ~patterns ~diagnostics:(List.length report.Orm_patterns.Engine.diagnostics)
                  ~entry_body:
                    (J.Obj
                       [ ("canonical", J.String c.Canon.text); ("report", Orm_export.Json.report_value report) ])))
      in
      ingest_t := dt :: !ingest_t;
      match status with `New -> incr news | `Dup -> incr dups)
    texts;
  let bytes_per_entry = float_of_int (tree_bytes dir - before) /. float_of_int (max 1 !news) in
  let query_t =
    List.map
      (fun q ->
        snd (span ~req:(-1) "store.query" (fun _ -> timed (fun () -> ignore (Store.query store ~limit:10 q)))))
      queries
  in
  let replay_t =
    List.init 3 (fun _ ->
        snd
          (span ~req:(-1) "store.replay" (fun _ ->
               timed (fun () -> ignore (Store.create ~format_version:P.format_version ~dir)))))
  in
  {
    ingest_us = us (med !ingest_t);
    bytes_per_entry;
    query_us = us (med query_t);
    replay_ms = ms (med replay_t);
    dup_share = share !dups (!news + !dups);
  }

(* ---- 4. the reasoning layers ---- *)

type reasoning = {
  decide_us : float;
  race_share : float;
  patterns_only_share : float;
  race_wait_ms : float;
  dlr_ms : float;
  dlr_decided : float;
  lazy_ms : float;
  rounds : float;
  instantiated : float;
  eager_ms : float;
  decisions_per_ms : float;
  verify_us : float;
  wrong : string list;
}

(* The planner decides every reasoning schema; the complete backends,
   each run alone under the request deadline (the tableau mostly uses all
   of it), run on the first few schemas the planner sends to them. *)
let reasoning_sample = 6

let reasoning_suite ~seed =
  let items = W.reason_items ~seed in
  let deadline () =
    Int64.add (Orm_telemetry.Metrics.now_ns ()) (Int64.of_int (W.deadline_ms * 1_000_000))
  in
  let decide_t = ref [] and races = ref 0 and only = ref 0 and waits = ref [] in
  let dlr_t = ref [] and decided = ref 0 and elements = ref 0 in
  let lazy_t = ref [] and rounds = ref [] and inst = ref [] in
  let eager_t = ref [] and dpm = ref [] and verify_t = ref [] and wrong = ref [] in
  let sampled = ref 0 in
  let verify schema = function
    | Orm_sat.Encode.Model pop ->
        let r, dt =
          span ~req:(-1) "eval.check_strong" (fun _ ->
              timed (fun () -> Orm_semantics.Eval.check_strong schema pop))
        in
        verify_t := dt :: !verify_t;
        (match r with Ok () -> () | Error e -> wrong := ("Eval rejected a returned model: " ^ e) :: !wrong)
    | _ -> ()
  in
  List.iteri
    (fun i (text, planted) ->
      let schema = load text in
      let report = Orm_patterns.Engine.check schema in
      let conclusive = report.Orm_patterns.Engine.diagnostics <> [] in
      let patterns =
        List.filter_map Orm_patterns.Diagnostic.pattern_number report.Orm_patterns.Engine.diagnostics
      in
      (match planted with
      | Some p when not (List.mem p patterns) ->
          wrong := Printf.sprintf "planted pattern %d not reported" p :: !wrong
      | None when patterns <> [] -> wrong := "a clean-by-construction schema reports a pattern" :: !wrong
      | _ -> ());
      let plan, dt =
        span ~req:i "planner.decide" (fun _ ->
            timed (fun () ->
                Orm_planner.Planner.decide ~budget_ns:(W.deadline_ms * 1_000_000)
                  ~patterns_conclusive:conclusive (Orm_planner.Features.extract schema)))
      in
      decide_t := dt :: !decide_t;
      match plan.Orm_planner.Planner.decision with
      | Orm_planner.Planner.Patterns_only -> incr only
      | decision when !sampled >= reasoning_sample ->
          (match decision with Orm_planner.Planner.Race _ -> incr races | _ -> ())
      | decision ->
          incr sampled;
          (match decision with Orm_planner.Planner.Race _ -> incr races | _ -> ());
          let auto, auto_t =
            span ~req:i "reason.auto" (fun _ ->
                timed (fun () ->
                    Orm_planner.Reason.run ~deadline_ns:(deadline ()) ~backend:`Auto schema))
          in
          let dlr, t_dlr =
            span ~req:i "dlr.check" (fun _ ->
                timed (fun () -> Orm_dlr.Dlr_check.check ~deadline_ns:(deadline ()) schema))
          in
          dlr_t := t_dlr :: !dlr_t;
          List.iter
            (fun (v : Orm_dlr.Dlr_check.element_verdict) ->
              incr elements;
              if v.verdict <> Orm_dlr.Tableau.Unknown then incr decided)
            dlr.verdicts;
          let lz, t_lazy =
            span ~req:i "sat.cegar" (fun _ ->
                timed (fun () ->
                    Orm_sat.Cegar.solve ~deadline_ns:(deadline ()) schema Orm_sat.Encode.Strongly_satisfiable))
          in
          let st = Orm_sat.Cegar.last_stats () in
          lazy_t := t_lazy :: !lazy_t;
          rounds := float_of_int st.rounds :: !rounds;
          inst := float_of_int st.instantiated_clauses :: !inst;
          verify schema lz;
          let eg, t_eager =
            span ~req:i "sat.eager" (fun _ ->
                timed (fun () ->
                    Orm_sat.Encode.solve ~deadline_ns:(deadline ()) schema Orm_sat.Encode.Strongly_satisfiable))
          in
          eager_t := t_eager :: !eager_t;
          dpm := (float_of_int (Orm_sat.Encode.last_stats ()).decisions /. ms (max t_eager 1e-6)) :: !dpm;
          verify schema eg;
          (* the two groundings decide the same bounded question *)
          (match (lz, eg) with
          | Orm_sat.Encode.Model _, Orm_sat.Encode.No_model | No_model, Model _ ->
              wrong := "lazy and eager SAT disagree" :: !wrong
          | _ -> ());
          (match lz with
          | Orm_sat.Encode.Model _ when not auto.Orm_planner.Reason.clean && auto.conclusive ->
              wrong := "reason auto says unsat but CEGAR found a model" :: !wrong
          | Orm_sat.Encode.No_model when auto.Orm_planner.Reason.clean ->
              wrong := "reason auto says clean but CEGAR found no model" :: !wrong
          | _ -> ());
          (match auto.Orm_planner.Reason.winner with
          | Some Orm_planner.Cost.Dlr -> waits := (auto_t -. t_dlr) :: !waits
          | Some Orm_planner.Cost.Sat_lazy -> waits := (auto_t -. t_lazy) :: !waits
          | Some Orm_planner.Cost.Sat -> waits := (auto_t -. t_eager) :: !waits
          | None -> ()))
    items;
  let n = List.length items in
  {
    decide_us = us (med !decide_t);
    race_share = share !races n;
    patterns_only_share = share !only n;
    race_wait_ms = ms (med !waits);
    dlr_ms = ms (med !dlr_t);
    dlr_decided = share !decided !elements;
    lazy_ms = ms (med !lazy_t);
    rounds = med !rounds;
    instantiated = med !inst;
    eager_ms = ms (med !eager_t);
    decisions_per_ms = med !dpm;
    verify_us = us (med !verify_t);
    wrong = !wrong;
  }

(* ---- the traced run ---- *)

let int_at path j =
  let rec go j = function
    | [] -> Option.value ~default:0 (J.to_int_opt j)
    | k :: rest -> go (Option.value ~default:J.Null (J.member k j)) rest
  in
  go j path

let phase_times = ref []

let phase name f =
  let v, dt = timed f in
  phase_times := (name, dt) :: !phase_times;
  v

let traced ~exe ~work ~workload ~seed =
  let base_store = Filename.concat work "registry" in
  let prefilled = phase "prefill" (fun () -> Phase.prefill ~seed base_store) in
  let store_copy name =
    let d = Filename.concat work name in
    copy_tree base_store d;
    d
  in
  let copies = ref 0 in
  let registry () =
    if workload = W.registry_ingest then begin
      incr copies;
      Some (store_copy (Printf.sprintf "registry-%d" !copies))
    end
    else None
  in
  (* 1. HTTP: untraced, then traced, twice over, so a drift of the host
     does not fall on one side only; every server spawn happens before
     any in-process reasoning starts domains *)
  let http traced =
    http_phase ~exe ~work ~workload ~seed ~registry:(registry ()) ~traced
  in
  let _, wall_u1, _ = phase "http_untraced_1" (fun () -> http false) in
  let _, wall_t1, _ = phase "http_traced_1" (fun () -> http true) in
  let _, wall_u2, _ = phase "http_untraced_2" (fun () -> http false) in
  (* only the last traced pass's spans are kept and analysed *)
  spans := [];
  let records, wall_t2, stats = phase "http_traced_2" (fun () -> http true) in
  let wall_u = wall_u1 +. wall_u2 and wall_t = wall_t1 +. wall_t2 in
  let n = Array.length records in
  Verify.tally := prefilled;
  let wrong, _, ok =
    Verify.summarize
      (Array.to_list (Array.map (fun (r : Phase.record) -> Verify.answer r.req ~code:r.code r.body) records))
  in
  (* 2. request path in process *)
  let rp = phase "replay" (fun () -> replay_request_path ~registry_dir:(registry ()) records) in
  let by_name = self_times () in
  let names name = Option.value ~default:[] (List.assoc_opt name by_name) in
  let transport =
    List.init n Fun.id
    |> List.filter (fun k -> Phase.is_lookup records.(k))
    |> List.map (fun k -> records.(k).Phase.latency -. rp.warm.(k))
  in
  let miss_handle = List.filter_map (fun k -> if rp.hit.(k) then None else Some rp.handle.(k)) (List.init n Fun.id) in
  (* the requests whose layers the miss-path spans cover: check misses
     on edit-check (where the ~10% check applies), every miss elsewhere *)
  let miss_ks =
    let all = List.init n Fun.id |> List.filter (fun k -> not rp.hit.(k) && not (Phase.is_lookup records.(k))) in
    let checks = List.filter (fun k -> match records.(k).Phase.req.kind with W.Check _ -> true | _ -> false) all in
    if checks <> [] then checks else all
  in
  let miss_path_handle = List.map (fun k -> rp.handle.(k)) miss_ks in
  let hit_handle = List.filter_map (fun k -> if rp.hit.(k) then Some rp.handle.(k) else None) (List.init n Fun.id) in
  let sum = List.fold_left ( +. ) 0. in
  let canon_all = names "canon" in
  let chosen = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace chosen k ()) miss_ks;
  let canon_on_misses =
    List.filter_map (fun s -> if s.name = "canon" && Hashtbl.mem chosen s.req then Some (dur s) else None) !spans
  in
  (* the miss path's layers, each timed alone under a [miss_path] span *)
  let miss_layers =
    let roots = Hashtbl.create 64 in
    List.iter (fun s -> if s.name = "miss_path" && Hashtbl.mem chosen s.req then Hashtbl.replace roots s.id ()) !spans;
    sum (List.filter_map (fun s -> if Hashtbl.mem roots s.parent then Some (dur s) else None) !spans)
  in
  let miss_ratio = if miss_path_handle = [] then 0. else miss_layers /. sum miss_path_handle in
  (* 3. store *)
  let st =
    phase "store" (fun () -> store_suite ~dir:(store_copy "registry-suite") ~records ~queries:W.queries)
  in
  let planted_dup_share =
    let items = Array.to_list records |> List.concat_map (fun (r : Phase.record) -> match r.req.kind with W.Ingest its -> its | _ -> []) in
    share (List.length (List.filter (fun (it : W.item) -> it.resubmit) items)) (List.length items)
  in
  (* 4. reasoning *)
  let rs = phase "reasoning" (fun () -> reasoning_suite ~seed) in
  let layer_wrong =
    (if workload = W.registry_ingest && st.dup_share <> planted_dup_share then
       [ Printf.sprintf "store.dup_share %.4f differs from the planted share %.4f" st.dup_share planted_dup_share ]
     else [])
    @ rs.wrong
  in
  List.iter (fun m -> prerr_endline ("perfbench: WRONG " ^ m)) layer_wrong;
  let wrong = wrong @ layer_wrong in
  (* cache tiers, exact counts from the traced server's stats *)
  let hits = int_at [ "result"; "cache"; "hits" ] stats and misses = int_at [ "result"; "cache"; "misses" ] stats in
  let canon_hits = int_at [ "result"; "metrics"; "canon_hits" ] stats in
  let lookups = hits + misses in
  print_endline
    (J.to_string
       (J.Obj
          [
            ( "self_time_p50_us",
              J.Obj (List.map (fun (k, v) -> (k, J.Float (Float.round (us (med v) *. 10.) /. 10.))) by_name) );
            ("miss_layers_over_handle", J.Float miss_ratio);
            ("miss_layers_within_10pct", J.Bool (Float.abs (miss_ratio -. 1.) <= 0.10));
            ("traced_requests", J.Int n);
            ("phase_s", J.Obj (List.rev_map (fun (k, v) -> (k, J.Float v)) !phase_times));
            ("untraced_wall_s", J.Float wall_u);
            ("traced_wall_s", J.Float wall_t);
          ]));
  write_spans (Filename.concat work "spans.ndjson");
  let canon_us = List.map us canon_all in
  ( wrong = [],
    n,
    n - ok,
    [
      ("net.http_parse_us", "us", us (med (names "net.http_parse")));
      ("net.http_serialize_us", "us", us (med (names "net.http_serialize")));
      ("net.transport_us", "us", us (med transport));
      ("json.parse_us", "us", us (med (names "json.parse")));
      ("json.print_us", "us", us (med (names "json.print")));
      ("server.handle_hit_us", "us", us (med hit_handle));
      ("server.handle_miss_us", "us", us (med miss_handle));
      ("cache.alias_hit_share", "ratio", share (hits - canon_hits) lookups);
      ("cache.canon_hit_share", "ratio", share canon_hits lookups);
      ("cache.miss_share", "ratio", share misses lookups);
      ("dsl.parse_us", "us", us (med (names "dsl.parse")));
      ("canon.p50_us", "us", med canon_us);
      ("canon.p90_us", "us", if canon_us = [] then 0. else Phase.quantile canon_us 0.9);
      ("canon.share_of_miss", "ratio", if miss_path_handle = [] then 0. else sum canon_on_misses /. sum miss_path_handle);
      ("store.ingest_us", "us", st.ingest_us);
      ("store.bytes_per_entry", "bytes", st.bytes_per_entry);
      ("store.query_us", "us", st.query_us);
      ("store.replay_ms", "ms", st.replay_ms);
      ("store.dup_share", "ratio", st.dup_share);
      ("engine.check_us", "us", us (med (names "engine.check")));
      ("planner.decide_us", "us", rs.decide_us);
      ("planner.race_share", "ratio", rs.race_share);
      ("planner.patterns_only_share", "ratio", rs.patterns_only_share);
      ("reason.race_wait_ms", "ms", rs.race_wait_ms);
      ("dlr.check_ms", "ms", rs.dlr_ms);
      ("dlr.decided_share", "ratio", rs.dlr_decided);
      ("sat.lazy_ms", "ms", rs.lazy_ms);
      ("sat.cegar_rounds", "count", rs.rounds);
      ("sat.instantiated_clauses", "count", rs.instantiated);
      ("sat.eager_ms", "ms", rs.eager_ms);
      ("sat.decisions_per_ms", "1/ms", rs.decisions_per_ms);
      ("eval.verify_us", "us", rs.verify_us);
      ("trace.overhead_pct", "%", (wall_t -. wall_u) /. wall_u *. 100.);
      ("trace.miss_layers_over_handle", "ratio", miss_ratio);
    ] )
