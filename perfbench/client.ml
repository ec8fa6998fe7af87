(* A cusand child process and a closed-loop client for it: one
   connection per request, as the wire protocol prescribes. *)

module Mjson = Reporting.Mjson
module P = Server.Protocol

let now = Unix.gettimeofday

type daemon = { pid : int; socket : string; dir : string }

exception Daemon_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Daemon_error s)) fmt

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let roundtrip ~socket req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  P.write_frame fd (P.request_to_json req);
  match P.read_frame fd with
  | Error e -> fail "no reply: %s" (P.read_error_to_string e)
  | Ok line -> (
      match Mjson.of_string line with
      | Ok j -> j
      | Error msg -> fail "bad reply %S: %s" line msg)

let status j = Option.bind (Mjson.member "status" j) Mjson.to_str

(* Start [exe] with its journal in [dir], one worker and room for
   [cache_cap] cached results, and wait for a
   healthy reply. The socket path is relative, which keeps it under the
   Unix-domain path limit however deep the working directory is. *)
let start ~exe ~dir ~cache_cap =
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "cusand.sock" in
  let state = Filename.concat dir "state" in
  let log = Unix.openfile (Filename.concat dir "cusand.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; socket; "--state"; state; "--workers"; "1";
         "--cache-cap"; string_of_int cache_cap |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket; dir } in
  let deadline = now () +. 30. in
  let rec wait () =
    match roundtrip ~socket P.Health with
    | j when status j = Some "ok" -> d
    | _ | (exception (Unix.Unix_error _ | Daemon_error _)) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> fail "cusand exited during start-up (see %s/cusand.log)" dir);
        if now () > deadline then fail "cusand not healthy after 30 s";
        Unix.sleepf 0.001;
        wait ()
  in
  wait ()

let rpc d req = roundtrip ~socket:d.socket req

(* Ask for a drain and reap the process; a daemon that does not exit
   within the deadline is killed. Either way the process is gone when
   this returns. *)
let stop ?(timeout = 20.) d =
  (try ignore (rpc d P.Shutdown) with Unix.Unix_error _ | Daemon_error _ -> ());
  let deadline = now () +. timeout in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.002;
        reap ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  let clean = reap () in
  rm_rf d.dir;
  clean

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  rm_rf d.dir
