let format_version = 4

let render ~format_version ~subject ~meth ~settings_key ~budget ~sat_budget
    ~backend =
  Printf.sprintf "v%d:%s:%s:%s:b%d:sb%d:%s" format_version subject meth
    settings_key budget sat_budget backend
