(* What the end-to-end run and the traced run share: statistics, the
   registry pre-phase and the closed loop of the timed phase. *)

module W = Workload
module P = Orm_server.Protocol

(* ---- statistics ---- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* ---- the registry pre-phase ---- *)

(* Fills a store through Store.ingest (untimed) with the stream's own
   shape, so that the server's start-up replays a corpus like the one the
   timed phase grows: [prefill_passes] passes over the faulted catalog,
   each base once per pass with the name, verdict, pattern bitmap and
   diagnostic count its engine report gives, and a duplicate marker after
   every third, the stream's planted 0.25 share.  The digests are seeded
   stand-ins for canonical digests (same length), and the entries carry no
   body: replay reads only the index, and canonicalizing thousands of
   variants would take minutes.  Returns the (pattern bitmap, verdict) of
   every entry, the start of the query tally.

   Size: replay must dominate process start.  A bare server answered its
   first request 4.2 ms after the spawn; replaying this pre-fill took
   72 ms, about 17x that, so process start is ~6% of [setup_s] on
   registry-ingest (see README.md). *)
let prefill_passes = 250

let prefill ~seed dir =
  let store = Orm_registry.Store.create ~format_version:P.format_version ~dir in
  let shapes =
    Array.map
      (fun (base, _) ->
        let report = Orm_patterns.Engine.check base in
        let ds = report.Orm_patterns.Engine.diagnostics in
        let bitmap =
          Orm_registry.Store.bitmap_of_patterns (List.filter_map Orm_patterns.Diagnostic.pattern_number ds)
        in
        (Orm.Schema.name base, (if ds = [] then "clean" else "unsat"), bitmap, List.length ds))
      (Lazy.force W.faulted)
  in
  let entries = ref [] in
  for pass = 0 to prefill_passes - 1 do
    let order = W.shuffle (W.rng seed [ pass; 99 ]) (List.init W.faulted_catalog Fun.id) in
    List.iteri
      (fun i b ->
        let name, verdict, bitmap, diagnostics = shapes.(b) in
        let digest = Digest.to_hex (Digest.string (Printf.sprintf "prefill-%d-%d-%d" seed pass b)) in
        let ingest () =
          Orm_registry.Store.ingest store ~digest ~name ~verdict ~patterns:bitmap ~diagnostics
            ~entry_body:Orm_json.Null
        in
        ignore (ingest ());
        entries := (bitmap, verdict) :: !entries;
        if i mod W.resubmit_every = W.resubmit_every - 1 then ignore (ingest ()))
      order
  done;
  !entries

(* ---- the timed phase ---- *)

type record = { req : W.req; latency : float; code : int; body : string }

(* Sends whole passes until [budget] seconds of wall time are spent (or the
   hard cap, mid-pass).  Pass generation is outside the timed window.
   Returns the records and the wall time of every pass. *)
let run_passes ~workload ~seed conn ~budget ~cap =
  let records = ref [] and walls = ref [] and wall = ref 0. and stop = ref false in
  while not !stop do
    let p = List.length !walls in
    let reqs = W.pass ~workload ~seed p in
    let t_pass = Client.now () in
    List.iter
      (fun (q : W.req) ->
        if not !stop then begin
          let raw = Client.raw_request ~meth:q.meth ~body:q.body in
          let t0 = Client.now () in
          match Client.send conn raw with
          | Ok (code, body) ->
              let dt = Client.now () -. t0 in
              records := { req = q; latency = dt; code; body } :: !records;
              if !wall +. (Client.now () -. t_pass) > cap then stop := true
          | Error e -> failwith ("transport error: " ^ e)
        end)
      reqs;
    let dt = Client.now () -. t_pass in
    walls := dt :: !walls;
    wall := !wall +. dt;
    if !wall >= budget then stop := true
  done;
  (List.rev !records, List.rev !walls)

let is_lookup (r : record) =
  match r.req.kind with
  | W.Query _ -> true
  | W.Ingest _ -> false
  | W.Check _ -> (
      match P.json_of_string r.body with
      | Ok b -> Orm_json.bool_member "cached" b = Some true
      | Error _ -> false)

let is_compute r = not (is_lookup r)

