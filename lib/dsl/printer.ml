open Orm

let add_escaped buf s =
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s

let add_role buf (r : Ids.role) =
  Buffer.add_string buf r.fact;
  Buffer.add_string buf (if r.side = Ids.Fst then ".1" else ".2")

let add_seq buf = function
  | Ids.Single r -> add_role buf r
  | Ids.Pair (r1, r2) ->
      Buffer.add_char buf '(';
      add_role buf r1;
      Buffer.add_string buf ", ";
      add_role buf r2;
      Buffer.add_char buf ')'

let add_list buf add = function
  | [] -> ()
  | x :: rest ->
      add buf x;
      List.iter
        (fun x ->
          Buffer.add_string buf ", ";
          add buf x)
        rest

let add_value buf = function
  | Value.Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | Value.Int n -> Buffer.add_string buf (string_of_int n)

let add_freq buf (f : Constraints.frequency) =
  Buffer.add_string buf (string_of_int f.min);
  Buffer.add_string buf "..";
  Option.iter (fun m -> Buffer.add_string buf (string_of_int m)) f.max

let add_body buf body =
  let str = Buffer.add_string buf in
  let name buf s = Buffer.add_string buf s in
  match body with
  | Constraints.Mandatory r ->
      str "mandatory ";
      add_role buf r
  | Constraints.Disjunctive_mandatory roles ->
      str "mandatory_or ";
      add_list buf add_role roles
  | Constraints.Uniqueness seq ->
      str "unique ";
      add_seq buf seq
  | Constraints.External_uniqueness roles ->
      str "external_unique ";
      add_list buf add_role roles
  | Constraints.Frequency (seq, f) ->
      str "frequency ";
      add_seq buf seq;
      str " ";
      add_freq buf f
  | Constraints.Value_constraint (ot, vs) ->
      str "value ";
      str ot;
      str " {";
      add_list buf add_value (Value.Constraint.elements vs);
      str "}"
  | Constraints.Role_exclusion seqs ->
      str "exclusion ";
      add_list buf add_seq seqs
  | Constraints.Subset (sub, super) ->
      str "subset ";
      add_seq buf sub;
      str " <= ";
      add_seq buf super
  | Constraints.Equality (a, b) ->
      str "equal ";
      add_seq buf a;
      str " = ";
      add_seq buf b
  | Constraints.Type_exclusion ots ->
      str "exclusive_types ";
      add_list buf name ots
  | Constraints.Total_subtypes (super, subs) ->
      str "total ";
      str super;
      str " = ";
      add_list buf name subs
  | Constraints.Ring (kind, fact) ->
      str "ring ";
      str (Ring.abbrev kind);
      str " ";
      str fact

let to_string schema =
  let buf = Buffer.create 1024 in
  let str = Buffer.add_string buf in
  str "schema ";
  str (Schema.name schema);
  str "\n";
  let graph = Schema.graph schema in
  List.iter
    (fun ot ->
      str "object_type ";
      str ot;
      (match Subtype_graph.direct_supertypes graph ot with
      | [] -> ()
      | supers ->
          str " subtype_of ";
          add_list buf Buffer.add_string supers);
      str "\n")
    (Schema.object_types schema);
  List.iter
    (fun (ft : Fact_type.t) ->
      str "fact ";
      str ft.name;
      str " (";
      str ft.player1;
      str ", ";
      str ft.player2;
      str ")";
      (match ft.reading with
      | None -> ()
      | Some r ->
          str " reading \"";
          add_escaped buf r;
          str "\"");
      str "\n")
    (Schema.fact_types schema);
  List.iter
    (fun (c : Constraints.t) ->
      str "[";
      str c.id;
      str "] ";
      add_body buf c.body;
      str "\n")
    (Schema.constraints schema);
  Buffer.contents buf

let pp ppf schema = Format.pp_print_string ppf (to_string schema)

let write_file path schema =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string schema))
