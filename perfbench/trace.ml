(* In-memory spans.  With tracing on, each benchmark op opens a root span
   and every call into a layer a child span; phase buckets measured
   inside a layer ([Vpc.compile ?timer], the daemon's [Service.compile]
   buckets, the tuner's simulation seconds) enter as children with a
   duration only.  A layer's self time is its spans' durations minus
   the durations of their children.  Spans are kept until {!write}. *)

type span = {
  id : int;
  parent : int;  (* 0 for an op's root span *)
  op : int;      (* the root span's id: spans of one op share it *)
  name : string;
  start : float;
  mutable dur : float;
  mutable children : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let push name start =
  incr next_id;
  let parent, op =
    match !stack with [] -> (0, !next_id) | p :: _ -> (p.id, p.op)
  in
  let s = { id = !next_id; parent; op; name; start; dur = 0.0; children = 0.0 } in
  spans := s :: !spans;
  s

let close s dur =
  s.dur <- dur;
  match !stack with p :: _ -> p.children <- p.children +. dur | [] -> ()

(* Run [f] inside a span named [name]. *)
let span name f =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let s = push name t0 in
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        stack := List.tl !stack;
        close s (Unix.gettimeofday () -. t0))
  end

(* A child of the innermost open span known only by its duration. *)
let add name dur =
  if !enabled && !stack <> [] then begin
    let s = push name 0.0 in
    close s dur
  end

(* Self seconds per span name. *)
let self_times () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. Float.max 0.0 (s.dur -. s.children)))
    !spans;
  tbl

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":\"%s\",\"start\":%.6f,\"dur\":%.9f}\n"
        s.id s.parent s.op s.name s.start s.dur)
    (List.rev !spans);
  close_out oc
