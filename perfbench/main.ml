(* The repository benchmark: one command, two workloads, end-to-end
   metrics over HTTP with tracing off, per-layer metrics from a traced run.

     main.exe --workload edit-check|registry-ingest
              --seed N --seconds S --trace 0|1 --exe PATH --work DIR

   See README.md in this directory for what each workload stresses and
   which per-layer metric should move which end-to-end metric. *)

module W = Workload
module P = Orm_server.Protocol

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let exe = ref "_build/default/bin/ormcheck.exe"
let work = ref ".perfbench-work"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--exe", Arg.Set_string exe, "PATH of ormcheck");
      ("--work", Arg.Set_string work, "DIR for logs, stores and traces");
    ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ---- provenance ---- *)

let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception _ -> None
  | ic ->
      let out = try Some (String.trim (input_line ic)) with End_of_file -> None in
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> out | _ -> None)

let provenance () =
  (* only a checkout that is itself a git repository has a SHA to report *)
  let sha = if Sys.file_exists ".git" then command_line "git rev-parse HEAD" else None in
  Orm_json.Obj
    [
      ("git_sha", match sha with Some s -> Orm_json.String s | None -> Orm_json.Null);
      ("ocaml", Orm_json.String Sys.ocaml_version);
      ("nproc", Orm_json.Int (Domain.recommended_domain_count ()));
      ("seed", Orm_json.Int !seed);
      ("seconds", Orm_json.Int !seconds);
      ("workload", Orm_json.String !workload);
      ("trace", Orm_json.Int !trace);
      ("held_out_seed", Orm_json.Int Layers.held_out_seed);
    ]

let result ~correct ~attempted ~failed metrics =
  Orm_json.Obj
    [
      ("correct", Orm_json.Bool correct);
      ("attempted", Orm_json.Int attempted);
      ("failed", Orm_json.Int failed);
      ( "metrics",
        Orm_json.Obj
          (List.map
             (fun (name, unit_, v) ->
               if Float.is_nan v then fail "metric %s has no samples" name;
               (name, Orm_json.Obj [ ("value", Orm_json.Float v); ("unit", Orm_json.String unit_) ]))
             metrics) );
    ]

(* ---- end-to-end run ---- *)

(* Start-up is measured several times per run and reported as the median.
   With a registry the replay of the pre-filled store dominates it.  The
   edit-check server has no start-up state to load (its caches start
   empty), so there [setup_s] is process start only: a few milliseconds,
   where one spawn is mostly scheduler noise, hence 25 of them. *)
let setup_spawns workload = if workload = W.registry_ingest then 9 else 25

let end_to_end () =
  let log = Filename.concat !work "server.log" in
  let registry =
    if !workload = W.registry_ingest then begin
      let dir = Filename.concat !work "registry" in
      Verify.tally := Phase.prefill ~seed:!seed dir;
      Some dir
    end
    else None
  in
  (* set up several times; the last server stays for the timed phase *)
  let setups = ref [] in
  let rec spawn_n k =
    let srv, conn, dt = Client.spawn ~exe:!exe ~log ?registry () in
    setups := dt :: !setups;
    if k > 1 then begin
      Client.stop srv conn;
      spawn_n (k - 1)
    end
    else (srv, conn)
  in
  let srv, conn = spawn_n (setup_spawns !workload) in
  let budget = float_of_int !seconds in
  let cpu0 = Client.cpu_seconds srv.pid in
  let records, walls =
    Phase.run_passes ~workload:!workload ~seed:!seed conn ~budget ~cap:(3. *. budget)
  in
  let cpu = Client.cpu_seconds srv.pid -. cpu0 in
  let rss = Client.peak_rss_mb srv.pid in
  Client.stop srv conn;
  let n = List.length records in
  let wrong, not_ok, ok =
    Verify.summarize (List.map (fun (r : Phase.record) -> Verify.answer r.req ~code:r.code r.body) records)
  in
  let ms (r : Phase.record) = r.latency *. 1000. in
  let compute = List.filter Phase.is_compute records in
  let lookup = List.filter Phase.is_lookup records in
  (* the timed phase's wall: the sum of the pass walls (each pass's
     requests are generated before its clock starts) *)
  let wall = List.fold_left ( +. ) 0. walls in
  print_endline
    (Orm_json.to_string
       (Orm_json.Obj
          [
            ( "run",
              Orm_json.Obj
                [
                  ("passes", Orm_json.Int (List.length walls)); ("requests", Orm_json.Int n);
                  ("compute", Orm_json.Int (List.length compute)); ("lookup", Orm_json.Int (List.length lookup));
                  ("not_ok", Orm_json.Int (List.length not_ok)); ("wall_s", Orm_json.Float wall);
                ] );
          ]));
  ( wrong = [],
    n,
    n - ok,
    [
      ("setup_s", "s", Phase.median !setups);
      ("compute_p50_ms", "ms", Phase.median (List.map ms compute));
      ("compute_p90_ms", "ms", Phase.quantile (List.map ms compute) 0.9);
      ("lookup_p50_ms", "ms", Phase.median (List.map ms lookup));
      ("throughput_rps", "1/s", float_of_int n /. wall);
      ("ok_share", "ratio", float_of_int ok /. float_of_int (max 1 n));
      ("server_cpu_ms_per_req", "ms", cpu *. 1000. /. float_of_int (max 1 n));
      ("server_rss_mb", "MB", rss);
    ] )

let () =
  if not (List.mem !workload W.names) then
    fail "unknown workload %S (expected %s)" !workload (String.concat ", " W.names);
  if not (Sys.file_exists !exe) then fail "no server executable at %s" !exe;
  (* determinism self-check: the same seed must give the same bytes *)
  let f1 = W.fingerprint ~workload:!workload ~seed:!seed ~passes:2 in
  let f2 = W.fingerprint ~workload:!workload ~seed:!seed ~passes:2 in
  if f1 <> f2 then fail "request stream is not deterministic for seed %d" !seed;
  if not (Sys.file_exists !work) then Unix.mkdir !work 0o755;
  print_endline (Orm_json.to_string (Orm_json.Obj [ ("provenance", provenance ()); ("stream_digest", Orm_json.String f1) ]));
  let correct, attempted, failed, metrics =
    if !trace = 0 then end_to_end () else Layers.traced ~exe:!exe ~work:!work ~workload:!workload ~seed:!seed
  in
  print_endline (Orm_json.to_string (result ~correct ~attempted ~failed metrics))
