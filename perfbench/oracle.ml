(* The output oracle.  A program's reference is its unoptimized parse run
   on the IL interpreter: what it printed, what [main] returned, and the
   final contents of every global of scalar arithmetic type or array of
   one, whatever its rank.  Comparison is exact. *)

open Vpc
module Interp = Il.Interp
module Machine = Titan.Machine

(* Values are kept as bytes, eight per element: ints as themselves,
   floats as their bit pattern with both zeros and every NaN made one,
   so equal strings mean exactly equal contents. *)
type t = {
  stdout_text : string;
  return_value : string;
  arrays : (string * int * string) list;  (* name, length, contents *)
}

let encode_int b i = Buffer.add_int64_le b (Int64.of_int i)

let encode_float b f =
  let f = if Float.is_nan f then Float.nan else if f = 0.0 then 0.0 else f in
  Buffer.add_int64_le b (Int64.bits_of_float f)

let encode add values =
  let b = Buffer.create (8 * List.length values) in
  List.iter (add b) values;
  Buffer.contents b

let of_interp b = function
  | Interp.V_int i -> encode_int b i
  | Interp.V_float f -> encode_float b f

let of_machine b = function
  | Machine.Vi i -> encode_int b i
  | Machine.Vf f -> encode_float b f

(* A global's scalar element type and its element count, if it is a
   scalar of arithmetic type or a (multi-dimensional) array of one.
   Pointers are excluded, their values are addresses in two different
   memory layouts. *)
let rec scalars n = function
  | Il.Ty.Array (t, Some k) -> scalars (n * k) t
  | t when Il.Ty.is_arith t -> Some (n, t)
  | _ -> None

let readable ~suffix (prog : Il.Prog.t) =
  List.filter_map
    (fun (g : Il.Prog.global) ->
      let v = g.Il.Prog.gvar in
      if not (String.ends_with ~suffix v.Il.Var.name) then None
      else Option.map (fun (n, _) -> (v.Il.Var.name, n)) (scalars 1 v.Il.Var.ty))
    (Il.Prog.globals_list prog)
  |> List.sort compare

(* The global readers take the element type one level below the declared
   type.  A view retypes global [name] as a one-dimensional array of its
   scalar elements, with the same id and so the same address, so that a
   grid reads back whole, in row-major order. *)
let flat_view (prog : Il.Prog.t) name =
  let globals = Hashtbl.create 1 in
  List.iter
    (fun (g : Il.Prog.global) ->
      let v = g.Il.Prog.gvar in
      if v.Il.Var.name = name then
        match scalars 1 v.Il.Var.ty with
        | Some (n, elt) ->
            Hashtbl.replace globals v.Il.Var.id
              { g with Il.Prog.gvar = { v with Il.Var.ty = Il.Ty.Array (elt, Some n) } }
        | None -> ())
    (Il.Prog.globals_list prog);
  { prog with Il.Prog.globals }

(* Interpreter work done for references, for the interp.* metrics. *)
let interp_steps = ref 0
let interp_seconds = ref 0.0

let run_reference ~suffix ~entry prog =
  let t0 = Unix.gettimeofday () in
  let st, r = Trace.span "interp" (fun () -> Interp.run_with_state ~entry prog) in
  interp_seconds := !interp_seconds +. (Unix.gettimeofday () -. t0);
  interp_steps := !interp_steps + r.Interp.steps_executed;
  {
    stdout_text = r.Interp.stdout_text;
    return_value = encode of_interp [ r.Interp.return_value ];
    arrays =
      List.map
        (fun (name, n) ->
          (name, n, encode of_interp (Interp.global_array_values st (flat_view prog name) name n)))
        (readable ~suffix prog);
  }

(* One reference per entry point, from one unoptimized parse; an entry
   point's globals are those named with its suffix. *)
let references src entries =
  let prog = Trace.span "cfront" (fun () -> Vpc.parse src) in
  List.map
    (fun (entry, suffix) -> (entry, run_reference ~suffix ~entry prog))
    entries

(* [None] when the simulated run of the optimized [prog] agrees with the
   reference exactly, else the first difference. *)
let check (ref_ : t) (prog : Il.Prog.t) (r : Machine.run_result) =
  if r.Machine.stdout_text <> ref_.stdout_text then Some "stdout differs"
  else if encode of_machine [ r.Machine.return_value ] <> ref_.return_value
  then Some "return value differs"
  else
    List.find_map
      (fun (name, n, expect) ->
        match Machine.global_array r.Machine.final_state (flat_view prog name) name n with
        | got ->
            if encode of_machine got = expect then None
            else Some (Printf.sprintf "global %s differs" name)
        | exception (Machine.Runtime_error _ | Not_found) ->
            Some (Printf.sprintf "global %s missing" name))
      ref_.arrays
