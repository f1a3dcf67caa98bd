(* The compile daemon under test and its client.

   The child process runs {!Vpc_server.Daemon.serve}, what
   [titancc --serve] runs, over one in-memory {!Vpc_server.Cache}, with
   its per-request log on stderr sent to [<socket>.log].  Each served
   request logs one [[serve]] line with the service's phase buckets;
   the client reads those lines back per measured window. *)

module P = Vpc_server.Protocol

let log_path socket = socket ^ ".log"

let child socket =
  Vpc_server.Daemon.serve
    { Vpc_server.Daemon.socket_path = socket; verbose = true }
    (Vpc_server.Cache.create ())

(* ---- client side ---- *)

type daemon = { pid : int; socket : string }

let request d msg = P.request ~socket:d.socket msg

(* Children not stopped yet; killed at exit, with their files removed,
   so that a run that fails or is interrupted leaves no daemon behind. *)
let live : daemon list ref = ref []

let remove_files d =
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ d.socket; log_path d.socket ]

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
          remove_files d)
        !live)

(* Start a child on [socket] and wait until it answers. *)
let start socket =
  let log = Unix.openfile (log_path socket) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--daemon-child"; socket |]
          Unix.stdin Unix.stdout log)
  in
  let d = { pid; socket } in
  live := d :: !live;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match request d P.Stats with
    | P.Stats_reply _ -> d
    | _ -> failwith "daemon: unexpected reply to stats"
    | exception (Unix.Unix_error _ | End_of_file | Sys_error _) ->
        if Unix.gettimeofday () > deadline then failwith "daemon: did not start";
        Unix.sleepf 0.005;
        wait ()
  in
  wait ()

let cache_stats d =
  match request d P.Stats with
  | P.Stats_reply s -> s
  | _ -> failwith "daemon: unexpected reply to stats"

(* The log's length now: the start of a window. *)
let log_mark d = (Unix.stat (log_path d.socket)).Unix.st_size

(* Requests logged since [mark], and each phase bucket summed over them,
   in seconds.  A line reads
   [[serve] FILE: N funcs, C/K components cached, T ms (NAME=Xms ...)]. *)
let log_window d mark =
  let ic = open_in_bin (log_path d.socket) in
  seek_in ic mark;
  let buckets = Hashtbl.create 8 and requests = ref 0 in
  let rec read () =
    match input_line ic with
    | line ->
        (match String.rindex_opt line '(' with
        | Some i when String.starts_with ~prefix:"[serve] " line && String.ends_with ~suffix:")" line ->
            incr requests;
            String.sub line (i + 1) (String.length line - i - 2)
            |> String.split_on_char ' '
            |> List.iter (fun phase ->
                   if phase <> "" then
                     Scanf.sscanf phase "%[^=]=%fms" (fun name ms ->
                         Hashtbl.replace buckets name
                           ((ms /. 1000.0) +. Option.value ~default:0.0 (Hashtbl.find_opt buckets name))))
        | _ -> ());
        read ()
    | exception End_of_file -> ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) read;
  (!requests, buckets)

let stop d =
  (try ignore (request d P.Shutdown) with _ -> (try Unix.kill d.pid Sys.sigkill with _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun l -> l.pid <> d.pid) !live;
  remove_files d
