(* Metric collection, statistics and the result line. *)

let e2e : (string * float * string) list ref = ref []
let layer : (string * float * string) list ref = ref []
let add_e2e name value unit_ = e2e := (name, value, unit_) :: !e2e
let add_layer name value unit_ = layer := (name, value, unit_) :: !layer

(* Ops attempted and failed; a failure is an exception, an error reply,
   or an output differing from its reference.  The first few are
   described on stderr. *)
let attempted = ref 0
let failed = ref 0

let attempt () = incr attempted

let fail what msg =
  incr failed;
  if !failed <= 20 then Printf.eprintf "perfbench: FAILED %s: %s\n%!" what msg

(* Checks whose failure makes the whole run incorrect: deterministic
   figures seen twice must agree, and the oracle must catch its
   self-test's faults.  Each failure is reported loudly. *)
let invalid = ref []

let invalidate what =
  invalid := what :: !invalid;
  Printf.eprintf "perfbench: INVALID RUN: %s\n%!" what

let expect_same what a b =
  if a <> b then invalidate (Printf.sprintf "nondeterministic %s: %d then %d" what a b)

(* Linear interpolation between closest ranks. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = p *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      exp (sum (List.map (fun x -> log (Float.max x 1.0)) xs) /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~trace =
  let metrics = List.rev (if trace then !layer else !e2e) in
  let correct = !failed = 0 && !invalid = [] in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, u) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed body;
  correct
