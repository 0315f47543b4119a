module J = Orm_json

type entry = {
  digest : string;
  name : string;
  verdict : string;
  patterns : int;
  diagnostics : int;
}

(* The covering index keeps its entries in columns indexed by a dense
   entry id: a handful of large arrays instead of several small blocks per
   entry.  A long-running server keeps ingesting, and small long-lived
   blocks promoted among short-lived garbage grew its heap about four times
   faster than its live data; large arrays do not. *)

(* Entry ids with one pattern or one verdict, in a growable array.
   Entries are insert-only and indexed once, so a posting never holds a
   duplicate and its length is its match count. *)
type posting = { mutable ids : int array; mutable len : int }

type t = {
  format_version : int;
  dir : string;
  index_path : string;
  mutable count : int;
  mutable keys : Bytes.t;  (* packed digests, 16 bytes per id *)
  mutable names : string array;
  mutable verdicts : string array;
  mutable patterns : int array;
  mutable diagnostics : int array;
  (* open addressing from digest to id: -1 is a free slot *)
  mutable slots : int array;
  scratch : Bytes.t;  (* a looked-up digest, packed *)
  (* posting lists keyed by pattern number / verdict, so a query touches
     the smallest matching list instead of scanning every entry.
     Maintenance is a single point: [apply], which both replay and ingest
     funnel through. *)
  by_pattern : (int, posting) Hashtbl.t;
  by_verdict : (string, posting) Hashtbl.t;
  (* verdicts and names repeat across entries: one string per distinct
     value, owned by this store *)
  strings : (string, string) Hashtbl.t;
  mutable offset : int;  (* bytes of index.ndjson already replayed *)
  mutable ingested : int;
  mutable duplicates : int;
}

let pattern_bit n = 1 lsl n

let patterns_of_bitmap bm =
  let rec go n acc =
    if n < 0 then acc
    else go (n - 1) (if bm land pattern_bit n <> 0 then n :: acc else acc)
  in
  go 62 []

let bitmap_of_patterns ns =
  List.fold_left (fun bm n -> bm lor pattern_bit n) 0 ns

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* ---- digests ----------------------------------------------------------- *)

(* Every digest is a canonical one ({!Canon.digest}: 32 lowercase hex
   digits), stored packed into 16 bytes of [keys].  A column of digest
   strings would be one small long-lived block per entry; on the
   registry-ingest benchmark it read about 20% more server RSS.  Packed
   digests compare byte-wise in the same order as their hex text. *)

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | _ -> -1

let is_digest s =
  let rec hex i = i = 32 || (hex_value s.[i] >= 0 && hex (i + 1)) in
  String.length s = 32 && hex 0

let pack s buf off =
  for i = 0 to 15 do
    Bytes.set_uint8 buf (off + i)
      ((hex_value s.[2 * i] lsl 4) lor hex_value s.[(2 * i) + 1])
  done

let digest_of t id =
  String.init 32 (fun i ->
      let b = Bytes.get_uint8 t.keys ((id * 16) + (i / 2)) in
      "0123456789abcdef".[if i land 1 = 0 then b lsr 4 else b land 15])

(* MD5 bytes are uniform: the first eight are the hash *)
let hash_at buf off = Int64.to_int (Bytes.get_int64_le buf off) land max_int

let compare_ids t a b =
  let c =
    Int64.unsigned_compare
      (Bytes.get_int64_be t.keys (a * 16))
      (Bytes.get_int64_be t.keys (b * 16))
  in
  if c <> 0 then c
  else
    Int64.unsigned_compare
      (Bytes.get_int64_be t.keys ((a * 16) + 8))
      (Bytes.get_int64_be t.keys ((b * 16) + 8))

(* The slot holding [digest]'s id, or the free slot where it would go.
   [digest] must satisfy [is_digest]. *)
let probe t digest =
  pack digest t.scratch 0;
  let mask = Array.length t.slots - 1 in
  let k0 = Bytes.get_int64_le t.scratch 0 and k1 = Bytes.get_int64_le t.scratch 8 in
  let rec scan i =
    let id = t.slots.(i) in
    if
      id < 0
      || Int64.equal (Bytes.get_int64_le t.keys (id * 16)) k0
         && Int64.equal (Bytes.get_int64_le t.keys ((id * 16) + 8)) k1
    then i
    else scan ((i + 1) land mask)
  in
  scan (hash_at t.scratch 0 land mask)

(* [digest]'s id, or -1 *)
let find_id t digest = if is_digest digest then t.slots.(probe t digest) else -1

let rehash t capacity =
  let slots = Array.make capacity (-1) in
  let mask = capacity - 1 in
  for id = 0 to t.count - 1 do
    let rec go i = if slots.(i) < 0 then slots.(i) <- id else go ((i + 1) land mask) in
    go (hash_at t.keys (id * 16) land mask)
  done;
  t.slots <- slots

let grow_columns t =
  let cap = Array.length t.patterns in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.keys <- Bytes.extend t.keys 0 (16 * cap);
  t.names <- extend t.names "";
  t.verdicts <- extend t.verdicts "";
  t.patterns <- extend t.patterns 0;
  t.diagnostics <- extend t.diagnostics 0

let posting tbl key =
  match Hashtbl.find_opt tbl key with
  | Some p -> p
  | None ->
      let p = { ids = Array.make 16 0; len = 0 } in
      Hashtbl.replace tbl key p;
      p

let push p id =
  if p.len = Array.length p.ids then begin
    let ids = Array.make (2 * p.len) 0 in
    Array.blit p.ids 0 ids 0 p.len;
    p.ids <- ids
  end;
  p.ids.(p.len) <- id;
  p.len <- p.len + 1

let intern t s =
  match Hashtbl.find_opt t.strings s with
  | Some s -> s
  | None ->
      Hashtbl.add t.strings s s;
      s

(* Room for one more entry in the columns and the digest table. *)
let reserve t =
  if t.count = Array.length t.patterns then grow_columns t;
  if 2 * (t.count + 1) > Array.length t.slots then rehash t (2 * Array.length t.slots)

(* Adds [digest] at [slot], the free slot [probe] found for it after
   [reserve]. *)
let add t ~slot ~digest ~name ~verdict ~patterns ~diagnostics =
  let id = t.count in
  pack digest t.keys (id * 16);
  t.names.(id) <- intern t name;
  t.verdicts.(id) <- intern t verdict;
  t.patterns.(id) <- patterns;
  t.diagnostics.(id) <- diagnostics;
  t.count <- id + 1;
  t.slots.(slot) <- id;
  push (posting t.by_verdict t.verdicts.(id)) id;
  List.iter (fun n -> push (posting t.by_pattern n) id) (patterns_of_bitmap patterns)

let entry_of t id =
  {
    digest = digest_of t id;
    name = t.names.(id);
    verdict = t.verdicts.(id);
    patterns = t.patterns.(id);
    diagnostics = t.diagnostics.(id);
  }

(* ---- index replay ------------------------------------------------------ *)

(* One index record.  A replayed "new" record whose digest is already
   present (two workers raced the same schema) folds into a duplicate, so
   the covering index and the counters converge to the same state in every
   worker whatever the interleaving. *)
let apply t line =
  match J.of_string line with
  | Error _ -> ()
  | Ok record -> (
      let fv = Option.value ~default:(-1) (J.int_member "fv" record) in
      if fv <> t.format_version then ()
      else
        match J.string_member "dup" record with
        | Some _ -> t.duplicates <- t.duplicates + 1
        | None -> (
            match
              ( J.string_member "digest" record,
                J.string_member "verdict" record )
            with
            | Some digest, Some verdict when is_digest digest ->
                reserve t;
                let slot = probe t digest in
                if t.slots.(slot) >= 0 then t.duplicates <- t.duplicates + 1
                else begin
                  add t ~slot ~digest
                    ~name:
                      (Option.value ~default:"" (J.string_member "name" record))
                    ~verdict
                    ~patterns:
                      (Option.value ~default:0 (J.int_member "patterns" record))
                    ~diagnostics:
                      (Option.value ~default:0
                         (J.int_member "diagnostics" record));
                  t.ingested <- t.ingested + 1
                end
            | _ -> ()))

let refresh t =
  let size =
    match Unix.stat t.index_path with
    | exception Unix.Unix_error _ -> 0
    | st -> st.Unix.st_size
  in
  if size > t.offset then begin
    match Unix.openfile t.index_path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            ignore (Unix.lseek fd t.offset Unix.SEEK_SET);
            let want = size - t.offset in
            let buf = Bytes.create want in
            let rec read_all off =
              if off < want then
                match Unix.read fd buf off (want - off) with
                | 0 -> off
                | n -> read_all (off + n)
              else off
            in
            let got = read_all 0 in
            let s = Bytes.sub_string buf 0 got in
            (* consume only complete lines: a concurrent writer's partial
               line stays for the next refresh *)
            match String.rindex_opt s '\n' with
            | None -> ()
            | Some last ->
                String.split_on_char '\n' (String.sub s 0 last)
                |> List.iter (fun line ->
                       if String.trim line <> "" then apply t line);
                t.offset <- t.offset + last + 1)
  end

let create ~format_version ~dir =
  mkdir_p (Filename.concat dir "entries");
  let t =
    {
      format_version;
      dir;
      index_path = Filename.concat dir "index.ndjson";
      count = 0;
      keys = Bytes.create (16 * 256);
      names = Array.make 256 "";
      verdicts = Array.make 256 "";
      patterns = Array.make 256 0;
      diagnostics = Array.make 256 0;
      slots = Array.make 512 (-1);
      scratch = Bytes.create 16;
      by_pattern = Hashtbl.create 16;
      by_verdict = Hashtbl.create 4;
      strings = Hashtbl.create 64;
      offset = 0;
      ingested = 0;
      duplicates = 0;
    }
  in
  refresh t;
  t

let dir t = t.dir
let find t digest =
  match find_id t digest with -1 -> None | id -> Some (entry_of t id)

let size t = t.count
let ingested t = t.ingested
let duplicates t = t.duplicates

(* ---- ingest ------------------------------------------------------------ *)

let entry_path t digest =
  let shard = if String.length digest >= 2 then String.sub digest 0 2 else "xx" in
  Filename.concat (Filename.concat t.dir "entries") (Filename.concat shard (digest ^ ".json"))

let write_entry_file t digest body =
  let path = entry_path t digest in
  mkdir_p (Filename.dirname path);
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc (J.to_string body));
    Unix.rename tmp path
  with Sys_error _ | Unix.Unix_error _ -> (
    try Unix.unlink tmp with Unix.Unix_error _ | Sys_error _ -> ())

let append_index t record =
  let line = J.to_string record ^ "\n" in
  match
    Unix.openfile t.index_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* one write: whole lines interleave cleanly across workers *)
          ignore (Unix.write_substring fd line 0 (String.length line)))

let ingest t ~digest ~name ~verdict ~patterns ~diagnostics ~entry_body =
  if not (is_digest digest) then
    invalid_arg "Store.ingest: digest is not 32 lowercase hex digits";
  refresh t;
  if find_id t digest >= 0 then begin
    append_index t
      (J.Obj [ ("dup", J.String digest); ("fv", J.Int t.format_version) ]);
    refresh t;
    `Dup
  end
  else begin
    write_entry_file t digest
      (J.Obj
         ([
            ("digest", J.String digest);
            ("fv", J.Int t.format_version);
            ("name", J.String name);
            ("verdict", J.String verdict);
            ("patterns", J.Int patterns);
            ("diagnostics", J.Int diagnostics);
          ]
         @ match entry_body with J.Null -> [] | b -> [ ("entry", b) ]));
    append_index t
      (J.Obj
         [
           ("digest", J.String digest);
           ("name", J.String name);
           ("verdict", J.String verdict);
           ("patterns", J.Int patterns);
           ("diagnostics", J.Int diagnostics);
           ("fv", J.Int t.format_version);
         ]);
    refresh t;
    `New
  end

let load_entry t digest =
  match
    In_channel.with_open_bin (entry_path t digest) In_channel.input_all
  with
  | exception Sys_error _ -> None
  | content -> ( match J.of_string content with Ok v -> Some v | Error _ -> None)

(* ---- queries ----------------------------------------------------------- *)

type term = T_pattern of int | T_verdict of string

let parse_term tok =
  match String.index_opt tok ':' with
  | None -> Error (Printf.sprintf "bad query term %S (expected key:value)" tok)
  | Some i -> (
      let key = String.sub tok 0 i in
      let v = String.sub tok (i + 1) (String.length tok - i - 1) in
      match key with
      | "pattern" -> (
          match int_of_string_opt v with
          | Some n when n >= 1 && n <= 62 -> Ok (T_pattern n)
          | _ -> Error (Printf.sprintf "bad pattern number %S" v))
      | "verdict" ->
          if v = "unsat" || v = "clean" then Ok (T_verdict v)
          else Error (Printf.sprintf "bad verdict %S (unsat or clean)" v)
      | _ -> Error (Printf.sprintf "unknown query key %S" key))

let parse_query q =
  let toks =
    String.split_on_char ' ' q
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  in
  List.fold_left
    (fun acc tok ->
      match (acc, parse_term tok) with
      | Error _, _ -> acc
      | _, Error e -> Error e
      | Ok terms, Ok t -> Ok (t :: terms))
    (Ok []) toks
  |> Result.map List.rev

let matches t id = function
  | T_pattern n -> t.patterns.(id) land pattern_bit n <> 0
  | T_verdict v -> t.verdicts.(id) = v

let posting_for t = function
  | T_pattern n -> Hashtbl.find_opt t.by_pattern n
  | T_verdict v -> Hashtbl.find_opt t.by_verdict v

(* The [limit] smallest digests offered so far, as ids in ascending digest
   order: a query keeps a page, not every match.  [limit] comes from the
   client, so the buffer is sized by [matches], the most that can be
   offered, never by [limit] alone. *)
type page = { ids : int array; mutable filled : int }

let page ~limit ~matches = { ids = Array.make (max 0 (min limit matches)) 0; filled = 0 }

let offer t pg id =
  let cap = Array.length pg.ids in
  if pg.filled < cap || (cap > 0 && compare_ids t id pg.ids.(cap - 1) < 0) then begin
    (* shift the larger digests right by one, dropping the last when full *)
    let i = ref (min pg.filled (cap - 1)) in
    while !i > 0 && compare_ids t id pg.ids.(!i - 1) < 0 do
      pg.ids.(!i) <- pg.ids.(!i - 1);
      decr i
    done;
    pg.ids.(!i) <- id;
    if pg.filled < cap then pg.filled <- pg.filled + 1
  end

let page_entries t pg = List.init pg.filled (fun i -> entry_of t pg.ids.(i))

let query t ?(limit = 50) q =
  match parse_query q with
  | Error e -> Error e
  | Ok [] ->
      (* no terms: every entry matches *)
      let pg = page ~limit ~matches:t.count in
      for id = 0 to t.count - 1 do
        offer t pg id
      done;
      Ok (page_entries t pg, t.count)
  | Ok (first :: _ as terms) -> (
      let postings = List.map (posting_for t) terms in
      if List.exists Option.is_none postings then Ok ([], 0)
      else
        let postings = List.filter_map Fun.id postings in
        if List.for_all (fun term -> term = first) terms then begin
          (* one distinct term: its posting is the answer *)
          let p = List.hd postings in
          let pg = page ~limit ~matches:p.len in
          for i = 0 to p.len - 1 do
            offer t pg p.ids.(i)
          done;
          Ok (page_entries t pg, p.len)
        end
        else begin
          (* drive from the smallest posting list and check the remaining
             terms per candidate: O(min posting) instead of O(entries) *)
          let smallest =
            List.fold_left
              (fun a b -> if b.len < a.len then b else a)
              (List.hd postings) postings
          in
          let pg = page ~limit ~matches:smallest.len in
          let total = ref 0 in
          for i = 0 to smallest.len - 1 do
            let id = smallest.ids.(i) in
            if List.for_all (matches t id) terms then begin
              incr total;
              offer t pg id
            end
          done;
          Ok (page_entries t pg, !total)
        end)

(* ---- aggregates -------------------------------------------------------- *)

let stats t =
  let verdicts = Hashtbl.create 4 in
  let pattern_counts = Hashtbl.create 16 in
  for id = 0 to t.count - 1 do
    let v = t.verdicts.(id) in
    Hashtbl.replace verdicts v
      (1 + Option.value ~default:0 (Hashtbl.find_opt verdicts v));
    List.iter
      (fun n ->
        Hashtbl.replace pattern_counts n
          (1 + Option.value ~default:0 (Hashtbl.find_opt pattern_counts n)))
      (patterns_of_bitmap t.patterns.(id))
  done;
  let leaderboard =
    Hashtbl.fold (fun n count acc -> (n, count) :: acc) pattern_counts []
    |> List.sort (fun (na, ca) (nb, cb) ->
           if ca <> cb then compare cb ca else compare na nb)
    |> List.map (fun (n, count) ->
           J.Obj [ ("pattern", J.Int n); ("entries", J.Int count) ])
  in
  let verdict_fields =
    Hashtbl.fold (fun v count acc -> (v, J.Int count) :: acc) verdicts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let total = t.ingested + t.duplicates in
  J.Obj
    [
      ("entries", J.Int (size t));
      ("ingested", J.Int t.ingested);
      ("duplicates", J.Int t.duplicates);
      ( "dedup_ratio",
        if total = 0 then J.Float 0.0
        else J.Float (float_of_int t.duplicates /. float_of_int total) );
      ("verdicts", J.Obj verdict_fields);
      ("patterns", J.List leaderboard);
    ]
