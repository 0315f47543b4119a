open Orm

type rename = {
  schema_name : string * string;
  types : (string * string) list;
  facts : (string * string) list;
  constraint_ids : (string * string) list;
}

type result = {
  schema : Schema.t;
  text : string;
  digest : string;
  rename : rename;
}

(* Cap on refinement rounds spent exploring symmetry-breaking branches.
   Within the budget the individualization search is exhaustive up to twin
   pruning (which is exact), and the smallest leaf certificate wins, which
   is what makes the digest invariant under renaming even for schemas whose
   structure the coloring alone cannot split — e.g. a 3-cycle and a 6-cycle
   of otherwise identical subtypes.  Past the budget the search degrades to
   a greedy first-member choice: still sound (equal digests still mean
   isomorphic schemas — the digest hashes a full serialization), but two
   clones of a pathologically symmetric schema may then land on different
   representatives. *)
let work_budget = 4096

(* ---- the compiled schema ---------------------------------------------

   Nodes are dense integers: object types [0, nt) in name order, fact
   types [nt, nt + nf) in name order.  A constraint is a kind, a content
   rank and a list of slots; every slot is a multiset of items, so an
   ordered argument (a subset's two sides, a total-subtype's supertype)
   gets a slot of its own.  An item's code under a coloring [col] is an
   integer: a type's color, [2 * color + side] for a role, and an offset
   pair code for a two-role sequence. *)

type item =
  | I_type of int
  | I_fact of int
  | I_role of int * int  (* fact node, side 0|1 *)
  | I_pair of int * int * int * int

type con = {
  kind : int;
  content : int;  (* rank of the value set / frequency / ring kind, or 0 *)
  slots : item array array;
  source : Constraints.t;
}

type compiled = {
  nt : int;
  n : int;
  type_names : string array;
  facts : Fact_type.t array;  (* fact node nt + i is facts.(i) *)
  supers : int array array;  (* per type *)
  subs : int array array;
  plays1 : int array array;  (* per type: fact nodes it plays on side 1 *)
  plays2 : int array array;
  p1 : int array;  (* per fact index: player type nodes *)
  p2 : int array;
  reading : int array;  (* per fact index: reading rank *)
  cons : con array;
  occ : int array array;  (* per node: constraint index * 16 + tag *)
  cross_pair : bool;  (* some pair spans two fact types *)
}

(* Dense ranks of contents compared by [cmp]: equal contents share a rank,
   different contents never do. *)
let ranker cmp xs =
  let distinct = Array.of_list (List.sort_uniq cmp xs) in
  fun x ->
    let rec go lo hi =
      let mid = (lo + hi) / 2 in
      let c = cmp x distinct.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length distinct)

let compare_freq (a : Constraints.frequency) (b : Constraints.frequency) =
  let c = Int.compare a.min b.min in
  if c <> 0 then c else Option.compare Int.compare a.max b.max

let compare_values a b =
  List.compare Value.compare
    (Value.Constraint.elements a)
    (Value.Constraint.elements b)

let compare_ring (a : Ring.kind) (b : Ring.kind) = compare a b

let kind_of : Constraints.body -> int = function
  | Mandatory _ -> 0
  | Disjunctive_mandatory _ -> 1
  | Uniqueness _ -> 2
  | External_uniqueness _ -> 3
  | Frequency _ -> 4
  | Value_constraint _ -> 5
  | Role_exclusion _ -> 6
  | Subset _ -> 7
  | Equality _ -> 8
  | Type_exclusion _ -> 9
  | Total_subtypes _ -> 10
  | Ring _ -> 11

(* Occurrence tag of an item in a slot: the slot, and for a role its
   position in a pair and its side. *)
let item_nodes slot = function
  | I_type t -> [ (t, slot * 4) ]
  | I_fact f -> [ (f, slot * 4) ]
  | I_role (f, s) -> [ (f, (slot * 4) + s) ]
  | I_pair (f1, s1, f2, s2) -> [ (f1, (slot * 4) + s1); (f2, (slot * 4) + 2 + s2) ]

let item_code b col = function
  | I_type t | I_fact t -> col.(t)
  | I_role (f, s) -> (2 * col.(f)) + s
  | I_pair (f1, s1, f2, s2) ->
      b + (b * ((2 * col.(f1)) + s1)) + (2 * col.(f2)) + s2

let sort_range (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let compare_ints (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la || i = lb then Int.compare la lb
    else
      let x = a.(i) and y = b.(i) in
      if x < y then -1 else if x > y then 1 else go (i + 1)
  in
  go 0

(* [kind; content; per slot: length, sorted codes] *)
let encode b col c =
  let len =
    Array.fold_left (fun acc s -> acc + 1 + Array.length s) 2 c.slots
  in
  let a = Array.make len 0 in
  a.(0) <- c.kind;
  a.(1) <- c.content;
  let pos = ref 2 in
  Array.iter
    (fun slot ->
      let k = Array.length slot in
      a.(!pos) <- k;
      let lo = !pos + 1 in
      Array.iteri (fun i it -> a.(lo + i) <- item_code b col it) slot;
      sort_range a lo (lo + k);
      pos := lo + k)
    c.slots;
  a

let compile schema =
  let types = Array.of_list (Schema.object_types schema) in
  let facts = Array.of_list (Schema.fact_types schema) in
  let nt = Array.length types and nf = Array.length facts in
  let n = nt + nf in
  let type_id = Hashtbl.create (2 * nt + 1) in
  Array.iteri (fun i t -> Hashtbl.replace type_id t i) types;
  let fact_id = Hashtbl.create (2 * nf + 1) in
  Array.iteri
    (fun i (ft : Fact_type.t) -> Hashtbl.replace fact_id ft.name (nt + i))
    facts;
  let tid t = Hashtbl.find type_id t and fid f = Hashtbl.find fact_id f in
  let graph = Schema.graph schema in
  let ids l = Array.of_list (List.map tid l) in
  let supers = Array.map (fun t -> ids (Subtype_graph.direct_supertypes graph t)) types in
  let subs = Array.map (fun t -> ids (Subtype_graph.direct_subtypes graph t)) types in
  let p1 = Array.map (fun (ft : Fact_type.t) -> tid ft.player1) facts in
  let p2 = Array.map (fun (ft : Fact_type.t) -> tid ft.player2) facts in
  let plays side =
    let acc = Array.make nt [] in
    for i = nf - 1 downto 0 do
      let t = side.(i) in
      acc.(t) <- (nt + i) :: acc.(t)
    done;
    Array.map Array.of_list acc
  in
  let reading_rank =
    ranker (Option.compare String.compare)
      (Array.to_list (Array.map (fun (ft : Fact_type.t) -> ft.reading) facts))
  in
  let reading = Array.map (fun (ft : Fact_type.t) -> reading_rank ft.reading) facts in
  let cstrs = Schema.constraints schema in
  let content_rank cmp pick =
    ranker cmp (List.filter_map (fun (c : Constraints.t) -> pick c.body) cstrs)
  in
  let value_rank =
    content_rank compare_values (function
      | Constraints.Value_constraint (_, vs) -> Some vs
      | _ -> None)
  in
  let freq_rank =
    content_rank compare_freq (function
      | Constraints.Frequency (_, f) -> Some f
      | _ -> None)
  in
  let ring_rank =
    content_rank compare_ring (function Constraints.Ring (k, _) -> Some k | _ -> None)
  in
  let cross_pair = ref false in
  let role (r : Ids.role) = I_role (fid r.fact, Ids.side_index r.side - 1) in
  let seq = function
    | Ids.Single r -> role r
    | Ids.Pair (r1, r2) ->
        if r1.fact <> r2.fact then cross_pair := true;
        I_pair
          ( fid r1.fact,
            Ids.side_index r1.side - 1,
            fid r2.fact,
            Ids.side_index r2.side - 1 )
  in
  let ty t = I_type (tid t) in
  let many f l = Array.of_list (List.map f l) in
  let compile_con (c : Constraints.t) =
    let content, slots =
      match c.body with
      | Mandatory r -> (0, [| [| role r |] |])
      | Disjunctive_mandatory rs -> (0, [| many role rs |])
      | Uniqueness s -> (0, [| [| seq s |] |])
      | External_uniqueness rs -> (0, [| many role rs |])
      | Frequency (s, f) -> (freq_rank f, [| [| seq s |] |])
      | Value_constraint (t, vs) -> (value_rank vs, [| [| ty t |] |])
      | Role_exclusion seqs -> (0, [| many seq seqs |])
      | Subset (a, b) | Equality (a, b) -> (0, [| [| seq a |]; [| seq b |] |])
      | Type_exclusion ts -> (0, [| many ty ts |])
      | Total_subtypes (super, ts) -> (0, [| [| ty super |]; many ty ts |])
      | Ring (k, f) -> (ring_rank k, [| [| I_fact (fid f) |] |])
    in
    { kind = kind_of c.body; content; slots; source = c }
  in
  let cons = Array.of_list (List.map compile_con cstrs) in
  let occ = Array.make n [] in
  Array.iteri
    (fun ci c ->
      Array.iteri
        (fun si slot ->
          Array.iter
            (fun it ->
              List.iter
                (fun (node, tag) -> occ.(node) <- ((ci * 16) + tag) :: occ.(node))
                (item_nodes si it))
            slot)
        c.slots)
    cons;
  let occ =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort Int.compare a;
        a)
      occ
  in
  {
    nt;
    n;
    type_names = types;
    facts;
    supers;
    subs;
    plays1 = plays p1;
    plays2 = plays p2;
    p1;
    p2;
    reading;
    cons;
    occ;
    cross_pair = !cross_pair;
  }

(* Twins: two nodes with identical static neighbourhoods.  Swapping them is
   an automorphism that fixes every other node, hence every coloring
   reached by individualizing other nodes, so their search subtrees yield
   the same leaf certificates.  A constraint that mentions only the node
   itself enters the key by its content (its encoding with every node
   colored 0), so two facts each carrying their own mandatory constraint
   are still twins; a constraint that mentions other nodes enters by its
   index and the node's tags.  A pair spanning two fact types (which never
   passes validation) breaks the argument, so such a schema has no twins.
   Returns each node's class: the least node with its key. *)
let twin_classes cp =
  let n = cp.n in
  let twin = Array.init n Fun.id in
  if not cp.cross_pair then begin
    let zero = Array.make n 0 in
    let private_to = Array.make (Array.length cp.cons) (-1) in
    Array.iteri
      (fun ci c ->
        let nodes =
          Array.fold_left
            (fun acc slot ->
              Array.fold_left
                (fun acc it ->
                  List.fold_left
                    (fun acc (node, _) -> if List.mem node acc then acc else node :: acc)
                    acc (item_nodes 0 it))
                acc slot)
            [] c.slots
        in
        match nodes with [ x ] -> private_to.(ci) <- x | _ -> ())
      cp.cons;
    let key x =
      let shared, own =
        Array.fold_left
          (fun (shared, own) o ->
            if private_to.(o / 16) = x then (shared, o :: own) else (o :: shared, own))
          ([], []) cp.occ.(x)
      in
      (* a private constraint appears once per occurrence; keep one copy *)
      let own =
        List.sort_uniq Int.compare (List.map (fun o -> o / 16) own)
        |> List.map (fun ci -> encode (2 * n) zero cp.cons.(ci))
        |> List.sort compare_ints
      in
      let neighbours =
        if x < cp.nt then
          List.concat_map
            (fun a ->
              let a = Array.copy a in
              Array.sort Int.compare a;
              Array.length a :: Array.to_list a)
            [ cp.supers.(x); cp.subs.(x); cp.plays1.(x); cp.plays2.(x) ]
        else
          let i = x - cp.nt in
          [ cp.p1.(i); cp.p2.(i); cp.reading.(i) ]
      in
      (x < cp.nt, neighbours, List.rev shared, own)
    in
    let classes = Hashtbl.create n in
    for x = 0 to n - 1 do
      let k = key x in
      match Hashtbl.find_opt classes k with
      | Some c -> twin.(x) <- c
      | None -> Hashtbl.add classes k x
    done
  end;
  twin

(* ---- partition refinement --------------------------------------------

   A coloring is an array of dense colors over the nodes, types and facts
   alike.  Each round re-signs the members of every non-singleton cell with
   a flat int array — the sorted colors of its subtype neighbours and of
   the facts it plays on each side (a type), or its players' colors and
   its reading rank (a fact), plus the sorted codes of its constraint
   occurrences — and splits the cell by signature order.  A constraint's
   code is the rank of its encoding under the current coloring among the
   constraints that touch a non-singleton cell.  Signatures never mention
   original names, so a renamed clone refines to the identical
   partition. *)

type coloring = { col : int array; cells : int }

let signature cp col ccol x =
  let occ = cp.occ.(x) in
  let fixed, parts =
    if x < cp.nt then (0, [ cp.supers.(x); cp.subs.(x); cp.plays1.(x); cp.plays2.(x) ])
    else (3, [])
  in
  let len =
    List.fold_left (fun acc a -> acc + 1 + Array.length a) (fixed + 1 + Array.length occ) parts
  in
  let s = Array.make len 0 in
  let pos = ref 0 in
  if x >= cp.nt then begin
    let i = x - cp.nt in
    s.(0) <- col.(cp.p1.(i));
    s.(1) <- col.(cp.p2.(i));
    s.(2) <- cp.reading.(i);
    pos := 3
  end;
  List.iter
    (fun a ->
      let k = Array.length a in
      s.(!pos) <- k;
      let lo = !pos + 1 in
      Array.iteri (fun i y -> s.(lo + i) <- col.(y)) a;
      sort_range s lo (lo + k);
      pos := lo + k)
    parts;
  let k = Array.length occ in
  s.(!pos) <- k;
  let lo = !pos + 1 in
  Array.iteri (fun i o -> s.(lo + i) <- (ccol.(o / 16) * 16) + (o land 15)) occ;
  sort_range s lo (lo + k);
  s

(* Nodes grouped by color: [order] lists the nodes cell by cell in color
   order, [start.(c)] is where cell [c] begins. *)
let cells_of n { col; cells } =
  let start = Array.make (cells + 1) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) col;
  for c = 1 to cells do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let fill = Array.sub start 0 cells in
  let order = Array.make n 0 in
  for x = 0 to n - 1 do
    let c = col.(x) in
    order.(fill.(c)) <- x;
    fill.(c) <- fill.(c) + 1
  done;
  (order, start)

(* Sorts [items] by signature and hands each item its dense rank, counted
   from [first]; returns the next free rank. *)
let assign_ranks items first set =
  Array.stable_sort (fun (a, _) (b, _) -> compare_ints a b) items;
  let next = ref first in
  Array.iteri
    (fun i (s, x) ->
      if i > 0 && compare_ints (fst items.(i - 1)) s <> 0 then incr next;
      set x !next)
    items;
  if Array.length items = 0 then first else !next + 1

let round cp c =
  let n = cp.n in
  let order, start = cells_of n c in
  (* constraints touching a non-singleton cell, ranked by encoding *)
  let ncons = Array.length cp.cons in
  let active = Array.make ncons false in
  for cell = 0 to c.cells - 1 do
    if start.(cell + 1) - start.(cell) > 1 then
      for i = start.(cell) to start.(cell + 1) - 1 do
        Array.iter (fun o -> active.(o / 16) <- true) cp.occ.(order.(i))
      done
  done;
  let ccol = Array.make ncons 0 in
  let encoded = ref [] in
  for ci = ncons - 1 downto 0 do
    if active.(ci) then encoded := (encode (2 * n) c.col cp.cons.(ci), ci) :: !encoded
  done;
  ignore (assign_ranks (Array.of_list !encoded) 0 (fun ci r -> ccol.(ci) <- r));
  let col = Array.make n 0 in
  let next = ref 0 in
  for cell = 0 to c.cells - 1 do
    let lo = start.(cell) and hi = start.(cell + 1) in
    if hi - lo = 1 then begin
      col.(order.(lo)) <- !next;
      incr next
    end
    else
      next :=
        assign_ranks
          (Array.init (hi - lo) (fun i ->
               let x = order.(lo + i) in
               (signature cp c.col ccol x, x)))
          !next
          (fun x r -> col.(x) <- r)
  done;
  { col; cells = !next }

let rec refine budget cp c =
  if c.cells = cp.n then c
  else begin
    decr budget;
    let c' = round cp c in
    if c'.cells = c.cells then c' else refine budget cp c'
  end

(* Types and facts start in two cells (a schema with facts has types). *)
let initial cp =
  let fact_color = if cp.nt > 0 then 1 else 0 in
  {
    col = Array.init cp.n (fun x -> if x < cp.nt then 0 else fact_color);
    cells = (if cp.nt > 0 then 1 else 0) + if cp.n > cp.nt then 1 else 0;
  }

(* Members of the smallest non-singleton cell, in node order. *)
let first_ambiguous_cell cp c =
  if c.cells = cp.n then None
  else begin
    let size = Array.make c.cells 0 in
    Array.iter (fun k -> size.(k) <- size.(k) + 1) c.col;
    let rec find k = if size.(k) > 1 then k else find (k + 1) in
    let k = find 0 in
    let members = ref [] in
    for x = cp.n - 1 downto 0 do
      if c.col.(x) = k then members := x :: !members
    done;
    Some !members
  end

let individualize c x =
  let col = Array.copy c.col in
  col.(x) <- c.cells;
  { col; cells = c.cells + 1 }

(* ---- leaves ------------------------------------------------------------

   A discrete coloring orders the types and, separately, the facts; a
   node's rank is its position in that order.  The certificate is the
   schema written with ranks for names: the sorted subtype edges, each
   fact's players and reading rank, and the sorted constraint encodings.
   It is complete — equal certificates mean equal renamed schemas — so the
   smallest one picks the representative and only that leaf is built. *)

let ranks cp col =
  let at = Array.make cp.n 0 in
  Array.iteri (fun x c -> at.(c) <- x) col;
  let rank = Array.make cp.n 0 in
  let nt = ref 0 and nf = ref 0 in
  Array.iter
    (fun x ->
      if x < cp.nt then begin
        rank.(x) <- !nt;
        incr nt
      end
      else begin
        rank.(x) <- !nf;
        incr nf
      end)
    at;
  rank

(* Constraint indices with their encodings under [rank], in order. *)
let constraint_order cp rank =
  Array.mapi (fun ci c -> (encode (2 * cp.n) rank c, ci)) cp.cons
  |> Array.to_list
  |> List.stable_sort (fun (a, _) (b, _) -> compare_ints a b)

let certificate cp rank =
  let nt = cp.nt in
  let edges = ref [] in
  for t = 0 to nt - 1 do
    Array.iter (fun s -> edges := ((rank.(t) * nt) + rank.(s)) :: !edges) cp.supers.(t)
  done;
  let edges = List.sort Int.compare !edges in
  let nf = cp.n - nt in
  let facts = Array.make (3 * nf) 0 in
  for i = 0 to nf - 1 do
    let r = rank.(nt + i) in
    facts.(3 * r) <- rank.(cp.p1.(i));
    facts.((3 * r) + 1) <- rank.(cp.p2.(i));
    facts.((3 * r) + 2) <- cp.reading.(i)
  done;
  let cons = constraint_order cp rank in
  Array.concat
    ([| nt; nf; List.length edges |]
    :: Array.of_list edges :: facts
    :: List.concat_map (fun (e, _) -> [ [| Array.length e |]; e ]) cons)

(* ---- building the canonical representative --------------------------- *)

(* Object types become T0,T1,… and fact types F0,F1,… in rank order.  The
   canonical name strings are allocated once and handed out by rank, so
   every occurrence across the built schema is physically shared; roles and
   role sequences are hash-consed by their code. *)
let build cp schema rank =
  let nt = cp.nt and nf = cp.n - cp.nt in
  let tname = Array.init nt (fun i -> "T" ^ string_of_int i) in
  let fname = Array.init nf (fun i -> "F" ^ string_of_int i) in
  let name_of_type t = tname.(rank.(t)) and name_of_fact f = fname.(rank.(f)) in
  let role_tbl = Array.make (2 * nf) None in
  let role f s =
    let code = (2 * rank.(f)) + s in
    match role_tbl.(code) with
    | Some r -> r
    | None ->
        let r = Ids.role (name_of_fact f) (if s = 0 then Ids.Fst else Ids.Snd) in
        role_tbl.(code) <- Some r;
        r
  in
  let b = 2 * cp.n in
  let seq_tbl = Hashtbl.create 32 in
  let seq it =
    let code = item_code b rank it in
    match Hashtbl.find_opt seq_tbl code with
    | Some s -> s
    | None ->
        let s =
          match it with
          | I_role (f, s) -> Ids.Single (role f s)
          | I_pair (f1, s1, f2, s2) -> Ids.Pair (role f1 s1, role f2 s2)
          | I_type _ | I_fact _ -> invalid_arg "Canon.build: not a sequence"
        in
        Hashtbl.add seq_tbl code s;
        s
  in
  let sorted slot =
    let a = Array.map (fun it -> (item_code b rank it, it)) slot in
    Array.stable_sort (fun (x, _) (y, _) -> Int.compare x y) a;
    Array.to_list (Array.map snd a)
  in
  let as_role = function I_role (f, s) -> role f s | _ -> invalid_arg "Canon.build: not a role" in
  let as_type = function I_type t -> name_of_type t | _ -> invalid_arg "Canon.build: not a type" in
  let one slot = List.hd (sorted slot) in
  let body c : Constraints.body =
    let s = c.slots in
    match c.source.body with
    | Mandatory _ -> Mandatory (as_role (one s.(0)))
    | Disjunctive_mandatory _ -> Disjunctive_mandatory (List.map as_role (sorted s.(0)))
    | Uniqueness _ -> Uniqueness (seq (one s.(0)))
    | External_uniqueness _ -> External_uniqueness (List.map as_role (sorted s.(0)))
    | Frequency (_, f) -> Frequency (seq (one s.(0)), f)
    | Value_constraint (_, vs) -> Value_constraint (as_type (one s.(0)), vs)
    | Role_exclusion _ -> Role_exclusion (List.map seq (sorted s.(0)))
    | Subset _ -> Subset (seq (one s.(0)), seq (one s.(1)))
    | Equality _ -> Equality (seq (one s.(0)), seq (one s.(1)))
    | Type_exclusion _ -> Type_exclusion (List.map as_type (sorted s.(0)))
    | Total_subtypes _ ->
        Total_subtypes (as_type (one s.(0)), List.map as_type (sorted s.(1)))
    | Ring (k, _) -> (
        match one s.(0) with
        | I_fact f -> Ring (k, name_of_fact f)
        | _ -> invalid_arg "Canon.build: not a fact")
  in
  let canon = ref (Schema.empty "S0") in
  Array.iter (fun t -> canon := Schema.add_object_type t !canon) tname;
  for t = 0 to nt - 1 do
    Array.iter
      (fun s -> canon := Schema.add_subtype ~sub:(name_of_type t) ~super:(name_of_type s) !canon)
      cp.supers.(t)
  done;
  Array.iteri
    (fun i (ft : Fact_type.t) ->
      canon :=
        Schema.add_fact
          {
            ft with
            name = name_of_fact (cp.nt + i);
            player1 = name_of_type cp.p1.(i);
            player2 = name_of_type cp.p2.(i);
          }
          !canon)
    cp.facts;
  let id_pairs =
    List.mapi
      (fun i (_, ci) ->
        let c = cp.cons.(ci) in
        let cid = "c" ^ string_of_int i in
        canon := Schema.add_constraint (Constraints.make cid (body c)) !canon;
        (cid, c.source.id))
      (constraint_order cp rank)
  in
  let pairs names orig =
    List.init (Array.length orig) (fun x -> (names x, orig.(x)))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let rename =
    {
      schema_name = ("S0", Schema.name schema);
      types = pairs name_of_type cp.type_names;
      facts =
        pairs
          (fun i -> name_of_fact (cp.nt + i))
          (Array.map (fun (ft : Fact_type.t) -> ft.name) cp.facts);
      constraint_ids = id_pairs;
    }
  in
  let canon = !canon in
  let text = Orm_dsl.Printer.to_string canon in
  { schema = canon; text; digest = Digest.to_hex (Digest.string text); rename }

(* ---- search ------------------------------------------------------------ *)

let canonicalize schema =
  let cp = compile schema in
  let budget = ref work_budget in
  (* most schemas refine to a single leaf: twins and certificates are only
     computed once a second branch or leaf needs them *)
  let twins = lazy (twin_classes cp) in
  let best = ref None in
  let leaf c =
    let rank = ranks cp c.col in
    match !best with
    | None -> best := Some (rank, lazy (certificate cp rank))
    | Some (_, cert) ->
        let cand = certificate cp rank in
        if compare_ints cand (Lazy.force cert) < 0 then
          best := Some (rank, Lazy.from_val cand)
  in
  let rec solve c =
    match first_ambiguous_cell cp c with
    | None -> leaf c
    | Some members ->
        let branch x = solve (refine budget cp (individualize c x)) in
        if !budget <= 0 then branch (List.hd members)
        else begin
          (* one member per twin class: the others' subtrees are images of
             its subtree under a swap automorphism *)
          let twin = Lazy.force twins in
          let seen = Hashtbl.create 8 in
          List.iter
            (fun x ->
              if not (Hashtbl.mem seen twin.(x)) then begin
                Hashtbl.add seen twin.(x) ();
                branch x
              end)
            members
        end
  in
  solve (refine budget cp (initial cp));
  match !best with
  | Some (rank, _) -> build cp schema rank
  | None -> assert false

let digest schema = (canonicalize schema).digest

(* ---- renaming response bodies back ------------------------------------ *)

let is_ident_char ch =
  (ch >= 'A' && ch <= 'Z')
  || (ch >= 'a' && ch <= 'z')
  || (ch >= '0' && ch <= '9')
  || ch = '_'

let rename_string tbl s =
  let n = String.length s in
  (* fast path: strings without any mapped token are the common case *)
  let rec scan i changed acc =
    if i >= n then (changed, acc)
    else if is_ident_char s.[i] then begin
      let j = ref i in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      let tok = String.sub s i (!j - i) in
      match Hashtbl.find_opt tbl tok with
      | Some orig -> scan !j true (acc @ [ (i, !j, orig) ])
      | None -> scan !j changed acc
    end
    else scan (i + 1) changed acc
  in
  match scan 0 false [] with
  | false, _ -> s
  | true, repls ->
      let buf = Buffer.create (n + 16) in
      let pos =
        List.fold_left
          (fun pos (i, j, orig) ->
            Buffer.add_substring buf s pos (i - pos);
            Buffer.add_string buf orig;
            j)
          0 repls
      in
      Buffer.add_substring buf s pos (n - pos);
      Buffer.contents buf

let rename_value r v =
  let tbl = Hashtbl.create 64 in
  let addp (canon, orig) = Hashtbl.replace tbl canon orig in
  addp r.schema_name;
  List.iter addp r.types;
  List.iter addp r.facts;
  List.iter addp r.constraint_ids;
  let rec go = function
    | Orm_json.String s ->
        let s' = rename_string tbl s in
        if s' == s then Orm_json.String s else Orm_json.String s'
    | Orm_json.List l -> Orm_json.List (List.map go l)
    | Orm_json.Obj fields -> Orm_json.Obj (List.map (fun (k, v) -> (k, go v)) fields)
    | v -> v
  in
  go v
