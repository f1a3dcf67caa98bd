(* Seeded inputs.  Every program the benchmark compiles is C source built
   here from the generators in bench/workloads.ml; the compiler under test
   only ever sees that text.  Two families split the kernels by the layers
   they lean on: dense loop nests (interchange, fusion, vector-register
   reuse, doacross pipelining) and pointer/call kernels (points-to, range
   analysis, inlining, while-loop conversion, induction variables). *)

module W = Workloads

type family = Nests | Calls

let family_name = function Nests -> "nests" | Calls -> "calls"

let family_of_string = function
  | "nests" -> Some Nests
  | "calls" -> Some Calls
  | _ -> None

(* A kernel generator: [scale] in [0, 1) picks a size inside the kernel's
   range, so one seed perturbs every size without changing which kernels
   run.  Outside the compile corpus the ranges are narrow (about one
   percent of the work), so that the figures of different seeds stay
   comparable. *)
type kernel = { kname : string; gen : size:[ `Small | `Large | `Tune ] -> float -> string }

let pick lo hi scale = lo + int_of_float (scale *. float_of_int (hi - lo + 1))

let nest_kernels =
  let by_size ~small ~large ~tune = function
    | `Small -> small
    | `Large -> large
    | `Tune -> tune
  in
  [
    {
      kname = "matmul_ijk";
      gen =
        (fun ~size s ->
          let lo, hi = by_size ~small:(6, 10) ~large:(28, 29) ~tune:(9, 9) size in
          let k = pick lo hi s in
          W.matmul ~order:`Ijk ~n:(hi - 1) ~k ~m:(hi - 1));
    };
    {
      kname = "matmul_ikj";
      gen =
        (fun ~size s ->
          let lo, hi = by_size ~small:(6, 10) ~large:(28, 29) ~tune:(9, 9) size in
          let k = pick lo hi s in
          W.matmul ~order:`Ikj ~n:(hi - 1) ~k ~m:(hi - 1));
    };
    {
      kname = "stencil5";
      gen =
        (fun ~size s ->
          let lo, hi = by_size ~small:(8, 12) ~large:(60, 61) ~tune:(24, 24) size in
          W.stencil5 ~n:(hi - 2) ~m:(pick lo hi s));
    };
    {
      kname = "saxpy_chain";
      gen =
        (fun ~size s ->
          let lo, hi = by_size ~small:(32, 48) ~large:(3960, 4000) ~tune:(504, 512) size in
          W.saxpy_chain ~n:(pick lo hi s));
    };
    {
      kname = "transpose";
      gen =
        (fun ~size s ->
          let lo, hi = by_size ~small:(8, 12) ~large:(63, 64) ~tune:(32, 32) size in
          W.transpose ~n:hi ~m:(pick lo hi s));
    };
    { kname = "doacross_recurrence"; gen = (fun ~size:_ _ -> W.doacross_recurrence) };
    { kname = "doacross_wavefront"; gen = (fun ~size:_ _ -> W.doacross_wavefront) };
  ]

let call_kernels =
  let by_size ~small ~large ~tune = function
    | `Small -> small
    | `Large -> large
    | `Tune -> tune
  in
  [
    {
      kname = "ptrkernels";
      gen =
        (fun ~size s ->
          let lo, hi = by_size ~small:(16, 32) ~large:(3960, 4000) ~tune:(504, 512) size in
          W.ptrkernels ~n:(pick lo hi s));
    };
    {
      kname = "daxpy";
      gen =
        (fun ~size s ->
          let lo, hi = by_size ~small:(16, 32) ~large:(7920, 8000) ~tune:(990, 1000) size in
          W.daxpy (pick lo hi s));
    };
    {
      kname = "backsolve";
      gen =
        (fun ~size s ->
          let lo, hi = by_size ~small:(16, 32) ~large:(7920, 8000) ~tune:(594, 600) size in
          W.backsolve (pick lo hi s));
    };
    {
      kname = "iv_chain";
      gen =
        (fun ~size s ->
          let lo, hi = by_size ~small:(2, 4) ~large:(7, 7) ~tune:(4, 4) size in
          W.blocking_chain_program (pick lo hi s));
    };
    {
      kname = "temp_chain";
      gen =
        (fun ~size s ->
          let lo, hi = by_size ~small:(2, 4) ~large:(7, 7) ~tune:(4, 4) size in
          W.chain_program (pick lo hi s));
    };
  ]

let kernels = function Nests -> nest_kernels | Calls -> call_kernels

(* ---- renaming ---- *)

let is_id_start c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_id_char c = is_id_start c || (c >= '0' && c <= '9')

(* Append [suffix] to every identifier token in [names]; string and
   character literals and comments are copied untouched, so format
   strings survive.  Locals that share a global's name are renamed along
   with it, which keeps shadowing as it was. *)
let rename ~names ~suffix src =
  let n = String.length src in
  let b = Buffer.create (n + 256) in
  let rec skip_lit q i =
    if i >= n then n
    else if src.[i] = '\\' then skip_lit q (i + 2)
    else if src.[i] = q then i + 1
    else skip_lit q (i + 1)
  in
  let rec skip_comment i =
    if i + 1 >= n then n
    else if src.[i] = '*' && src.[i + 1] = '/' then i + 2
    else skip_comment (i + 1)
  in
  let rec span p i = if i < n && p src.[i] then span p (i + 1) else i in
  let rec go i =
    if i < n then begin
      let c = src.[i] in
      let j =
        if c = '"' || c = '\'' then skip_lit c (i + 1)
        else if c = '/' && i + 1 < n && src.[i + 1] = '*' then skip_comment (i + 2)
        else if is_id_start c then span is_id_char i
        else if c >= '0' && c <= '9' then span (fun c -> is_id_char c || c = '.') i
        else i + 1
      in
      let tok = String.sub src i (j - i) in
      Buffer.add_string b tok;
      if is_id_start c && List.mem tok names then Buffer.add_string b suffix;
      go j
    end
  in
  go 0;
  Buffer.contents b

(* File-scope names of a standalone kernel: its functions and globals. *)
let top_names (prog : Vpc.Il.Prog.t) =
  List.map (fun (f : Vpc.Il.Func.t) -> f.Vpc.Il.Func.name) prog.Vpc.Il.Prog.funcs
  @ List.map
      (fun (g : Vpc.Il.Prog.global) -> g.Vpc.Il.Prog.gvar.Vpc.Il.Var.name)
      (Vpc.Il.Prog.globals_list prog)

(* One translation unit: kernel i renamed apart with a [_b<i>] suffix
   and run by a new entry point [main_k<i>], which calls the kernel's own
   [main].  There is no unit-wide [main]: calling every kernel from one
   function would let inlining merge the whole unit into it.  Returns the
   source and, per kernel, its entry name and the suffix its globals
   carry.  A [standalone] program holds one kernel and names its entry
   [main], as the tuner and a plain run expect. *)
let unit_of_kernels ?(standalone = false) srcs =
  let parts, entries =
    List.split
      (List.mapi
         (fun i src ->
           let prog = Vpc.parse src in
           let suffix = Printf.sprintf "_b%d" i in
           let body = rename ~names:(top_names prog) ~suffix src in
           let entry = if standalone then "main" else Printf.sprintf "main_k%d" i in
           ( body ^ Printf.sprintf "\nint %s()\n{\n  int r;\n  r = main%s();\n  return r;\n}\n" entry suffix,
             (entry, suffix) ))
         srcs)
  in
  (String.concat "\n" parts, entries)

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The compile corpus: 32 units, two of each size from 1 to 16 kernels.
   The 272 kernel slots cycle through the family list and the units take
   consecutive runs of them, so every unit's mix is as even as its size
   allows, the corpus holds every family equally often, and every seed
   compiles the same mix: the slowest units, which set the latency tail,
   are the same units for every seed.  The seed orders the units and the
   kernels within each unit, and sizes every kernel. *)
let corpus family seed =
  let st = rng seed 1 in
  let ks = Array.of_list (kernels family) in
  let nf = Array.length ks in
  let next = ref 0 in
  let units =
    Array.init 32 (fun i ->
        let k = (i mod 16) + 1 in
        let picks = Array.init k (fun j -> ks.((!next + j) mod nf)) in
        next := !next + k;
        picks)
  in
  shuffle st units;
  Array.to_list
    (Array.map
       (fun picks ->
         shuffle st picks;
         unit_of_kernels
           (Array.to_list
              (Array.map (fun kr -> kr.gen ~size:`Small (Random.State.float st 1.0)) picks)))
       units)

(* The simulated kernels: each kernel of the family once, large. *)
let run_kernels family seed =
  let st = rng seed 2 in
  List.map
    (fun k -> (k.kname, unit_of_kernels ~standalone:true [ k.gen ~size:`Large (Random.State.float st 1.0) ]))
    (kernels family)

(* The tuned programs: each kernel of the family once, mid-sized.  The
   wavefront is left out: its fixed 8192-iteration loop makes one search
   take seconds, too few samples for a steady figure. *)
let tune_programs family seed =
  let st = rng seed 3 in
  List.filter_map
    (fun k ->
      if k.kname = "doacross_wavefront" then None
      else
        Some
          ( k.kname,
            unit_of_kernels ~standalone:true [ k.gen ~size:`Tune (Random.State.float st 1.0) ] ))
    (kernels family)

(* ---- daemon request stream ---- *)

(* [units] monorepo units over [variants] kernel variants; request [r]
   targets unit [r mod units] and, with probability [edit_share], first
   bumps that unit's edit counter, so its source is new to the daemon.
   The nest family edits the loop-nest kernel component, the call
   family the inlined call chain.  Streams of every [generation] edit
   the same units at the same requests, but with edit numbers of their
   own, so a second stream against the same daemon still misses. *)
type request = { unit_id : int; src : string }

let units = 24
let variants = 6
let edit_share = 0.04

let unit_source family ~unit_id ~edit =
  let variant = unit_id mod variants in
  match family with
  | Nests -> W.monorepo_tu ~variant ~leaf_edit:0 ~kern_edit:edit
  | Calls -> W.monorepo_tu ~variant ~leaf_edit:edit ~kern_edit:0

let request_stream family seed ~generation =
  let st = rng seed 4 in
  let edits = Array.make units 0 in
  (* edit numbers are unique multiples of 8, so no edited component can
     coincide with one already cached for another variant *)
  let next = ref (800_000 * (generation + 1)) in
  fun r ->
    let u = r mod units in
    if Random.State.float st 1.0 < edit_share then begin
      next := !next + 8;
      edits.(u) <- !next
    end;
    { unit_id = u; src = unit_source family ~unit_id:u ~edit:edits.(u) }
