(* Machine-speed calibration.  The host this runs on drifts by a fifth
   in speed over seconds, and every timed op drifts with it.  A fixed
   workload, independent of the compiler, is timed every [interval]
   seconds; an op's time is then reported scaled by [nominal / c], c
   being the median of the latest calibration samples, i.e. in
   milliseconds of a machine on which the workload takes exactly
   [nominal].  The workload allocates nothing: integer arithmetic and
   scattered loads and stores over one array made at start-up, so that
   a change in the collector's or the runtime's behaviour moves the
   compiler's times and not the factor.  Raw times stay available as
   per-layer figures. *)

let nominal = 0.002
let interval = 0.05

let table = Array.make 65536 0

let work () =
  let a = table in
  let x = ref 12345 and s = ref 0 in
  for i = 0 to 800_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fff_ffff;
    let k = !x lsr 14 in
    a.(k) <- a.(k) + i;
    s := !s + a.((k lxor i) land 0xffff)
  done;
  !s

let samples : float list ref = ref []  (* newest first *)
let last = ref 0.0

let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  let t1 = Unix.gettimeofday () in
  last := t1;
  samples := (t1 -. t0) :: !samples

(* Take a sample when the latest one is older than [interval]. *)
let tick () = if Unix.gettimeofday () -. !last > interval then sample ()

(* Scale factor for a time measured now. *)
let factor () =
  let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> [] in
  match take 5 !samples with
  | [] -> 1.0
  | xs ->
      let a = Array.of_list (List.sort Float.compare xs) in
      nominal /. a.(Array.length a / 2)
