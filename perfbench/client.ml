(* The server under test, run as a child process, and the one keep-alive
   HTTP/1.1 connection the benchmark drives it over. *)

type server = { pid : int; port : int }

let now () = Unix.gettimeofday ()

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt s Unix.SO_REUSEADDR true;
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close s;
  port

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Some { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let raw_request ~meth ~body =
  Printf.sprintf
    "POST /v1/%s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    meth (String.length body) body

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* One request in flight at a time: a complete response empties the
   buffer. *)
let send c raw =
  write_all c.fd raw;
  let rec await () =
    match Orm_net.Http.parse_response (Buffer.contents c.buf) with
    | Ok (Some (code, body)) ->
        Buffer.clear c.buf;
        Ok (code, body)
    | Error e -> Error e
    | Ok None -> (
        match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
        | 0 -> Error "server closed the connection"
        | n ->
            Buffer.add_subbytes c.buf c.chunk 0 n;
            await ())
  in
  await ()

let call c ~meth ~body = send c (raw_request ~meth ~body)

(* Spawns [ormcheck serve] on a fresh port and waits for its first answered
   request (a ping).  Returns the server, the open connection and the
   seconds from spawn to that answer. *)
let spawn ~exe ~log ?registry () =
  let port = free_port () in
  let args =
    [ exe; "serve"; "--listen"; Printf.sprintf "http:127.0.0.1:%d" port ]
    @ match registry with Some d -> [ "--registry"; d ] | None -> []
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now () in
  let pid = Unix.create_process exe (Array.of_list args) devnull out out in
  Unix.close out;
  Unix.close devnull;
  let srv = { pid; port } in
  let rec wait_up tries =
    if tries = 0 then failwith "server did not come up"
    else
      match connect port with
      | Some c -> (
          match call c ~meth:"ping" ~body:"{}" with
          | Ok (200, _) -> c
          | _ ->
              close c;
              Unix.sleepf 0.0005;
              wait_up (tries - 1))
      | None -> (
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              Unix.sleepf 0.0005;
              wait_up (tries - 1)
          | _ -> failwith "server exited during start-up")
  in
  let c = wait_up 40_000 in
  (srv, c, now () -. t0)

let stop srv c =
  close c;
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ()

(* ---- /proc readings of the server process ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* USER_HZ: the unit of the /proc/PID/stat CPU fields, 100 on Linux *)
let clk_tck = 100.

(* user + system CPU seconds, fields 14 and 15 of /proc/PID/stat (counted
   after the parenthesised command name, which may contain spaces) *)
let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  (* fields.(0) is field 3 (state) *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. clk_tck

let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  with
  | None -> nan
  | Some l ->
      let kb =
        String.split_on_char ' ' l
        |> List.filter (fun x -> x <> "" && x.[0] >= '0' && x.[0] <= '9')
        |> List.hd |> float_of_string
      in
      kb /. 1024.
