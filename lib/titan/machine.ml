(* The Titan simulator: executes Titan instructions for real values while
   accounting cycles under a configurable scheduling model.

   Scheduling models (§6's "dependence-driven" scheduling):
     - [Sequential]: each instruction starts when the previous one
       completes — the naive scalar code the paper measures at 0.5 MFLOPS
       on the backsolve loop;
     - [Overlap_conservative]: integer/FP/memory units overlap, but every
       load waits for every earlier store (no dependence information);
     - [Overlap_full]: loads bypass stores — legal when the compiler's
       dependence graph proved the references independent, which is the
       information "passed back to the code generation to allow better
       overlap" (§6).

   A parallel DO loop's iterations are distributed round-robin over the
   configured processors; the region costs the maximum per-processor time
   plus a barrier.

   The simulator is the oracle behind every cycle count and the inner
   loop of the autotuner, so its per-instruction path is kept cheap:
   registers are unboxed (an int and a float array per frame plus a kind
   byte per register, so a write allocates nothing), branch targets are
   resolved to pcs once per function, and that path uses no polymorphic
   comparison — without flambda, [Stdlib.max] or [=] on a variant is a
   C call per use.  [value] appears only at the edges: calls, builtins,
   [Ret], global initializers and the public [run_result].  Memory is
   allocated as a run touches it, so a short run does not pay for 4 MiB. *)

open Vpc_il
open Isa

exception Runtime_error of string

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

type sched_mode = Sequential | Overlap_conservative | Overlap_full

type config = {
  procs : int;
  sched : sched_mode;
  clock_mhz : float;
  max_insts : int;
}

let default_config =
  { procs = 1; sched = Overlap_full; clock_mhz = Cost.clock_mhz; max_insts = 200_000_000 }

type value = Vi of int | Vf of float

let expected_integer () = raise (Runtime_error "expected integer")
let as_int = function Vi n -> n | Vf _ -> expected_integer ()
let as_float = function Vf f -> f | Vi n -> float_of_int n

let[@inline] wrap32 n =
  (n land 0xFFFFFFFF) - (if n land 0x80000000 <> 0 then 1 lsl 32 else 0)

let[@inline] imax (a : int) b = if a >= b then a else b

let[@inline] round_single f = Int32.float_of_bits (Int32.bits_of_float f)

let[@inline] is_single = function Ty.Float -> true | _ -> false

(* ----------------------------------------------------------------- *)
(* Global layout                                                     *)
(* ----------------------------------------------------------------- *)

type layout = {
  addr_of : (int, int) Hashtbl.t;  (* global var id -> address *)
  globals_top : int;
  lprog : Prog.t;
}

let mem_size = 1 lsl 22

let layout_globals (prog : Prog.t) : layout =
  let addr_of = Hashtbl.create 16 in
  let top = ref 16 in
  List.iter
    (fun (g : Prog.global) ->
      let size = Ty.sizeof prog.Prog.structs g.gvar.Var.ty in
      let align = Ty.alignof prog.Prog.structs g.gvar.Var.ty in
      let addr = (!top + align - 1) / align * align in
      Hashtbl.replace addr_of g.gvar.Var.id addr;
      top := addr + size)
    (Prog.globals_list prog);
  { addr_of; globals_top = !top; lprog = prog }

(* ----------------------------------------------------------------- *)
(* Machine state                                                     *)
(* ----------------------------------------------------------------- *)

type metrics = {
  mutable cycles : int;          (* wall-clock cycles, parallel-adjusted *)
  mutable insts : int;
  mutable fp_ops : int;
  mutable mem_ops : int;
  mutable vector_insts : int;
  mutable vector_elems : int;
  mutable parallel_regions : int;
  mutable calls : int;
  (* cycles doacross iterations spent blocked in [Wait] for a producer
     iteration's post (in pipeline virtual time, summed over iterations) *)
  mutable post_wait_stalls : int;
  mutable posts : int;  (* post instructions executed *)
  mutable waits : int;  (* wait instructions executed *)
  (* vector memory traffic (in elements) avoided by register reuse:
     accumulated from Vsaved markers *)
  mutable vector_mem_elems_avoided : int;
  (* per-unit occupancy in cycles, summed over all issued operations
     (not parallel-adjusted): how long each port was busy *)
  mutable busy_iu : int;
  mutable busy_fpu : int;
  mutable busy_mem : int;
}

let new_metrics () =
  {
    cycles = 0;
    insts = 0;
    fp_ops = 0;
    mem_ops = 0;
    vector_insts = 0;
    vector_elems = 0;
    parallel_regions = 0;
    calls = 0;
    post_wait_stalls = 0;
    posts = 0;
    waits = 0;
    vector_mem_elems_avoided = 0;
    busy_iu = 0;
    busy_fpu = 0;
    busy_mem = 0;
  }

let mflops m ~clock_mhz =
  if m.cycles = 0 then 0.0
  else float_of_int m.fp_ops /. (float_of_int m.cycles /. (clock_mhz *. 1e6)) /. 1e6

(* Doacross post times of one region, per channel, indexed by iteration
   + 1 (a post before the first [Par_iter] belongs to iteration -1);
   [not_posted] marks an iteration that has not posted.  Virtual times
   are never negative, so the marker cannot collide with one. *)
type posts = { mutable chans : int array array }

let not_posted = min_int

(* A function decoded for execution, once per run: the pc each branch
   jumps to, and where each parameter is bound. *)
type decoded = {
  func : Isa.func;
  target : int array;  (* per pc: branch target, -1 for an undefined label *)
  params : param list;
}

and param = Pmem of int * Ty.t | Preg of reg | Punused

type state = {
  program : Isa.program;
  config : config;
  mutable mem : Bytes.t;
      (* the first [Bytes.length mem] bytes of the [mem_size]-byte
         simulated memory; every access goes through [check], which grows
         it, zero-filled, to cover the access, so a run allocates only as
         much memory as it touches *)
  layout : layout;
  mutable stack_top : int;
  output : Buffer.t;
  metrics : metrics;
  decoded : (string, decoded) Hashtbl.t;
  (* timing *)
  mutable clock : int;           (* current in-order issue front *)
  mutable saved : int;           (* cycles recovered by parallel regions *)
  (* when each unit can next accept an operation *)
  mutable free_iu : int;
  mutable free_fpu : int;
  mutable free_mem : int;
  mutable free_ctrl : int;
  mutable last_store_done : int;
  mutable last_mem_done : int;   (* for volatile ordering *)
  (* parallel region bookkeeping *)
  mutable par_buckets : int array;
  mutable par_iter : int;
  mutable par_iter_start : int;
  mutable par_enter_clock : int;
  mutable par_active : bool;
  mutable par_serial_total : int;  (* doacross: serialized prefix time *)
  (* doacross (post/wait) region bookkeeping.  The simulator executes the
     loop serially; the pipeline schedule is reconstructed in *virtual*
     time relative to region entry: iteration i starts at the max of its
     processor's previous completion and is pushed later by wait stalls,
     with per-iteration progress measured by real-clock deltas. *)
  mutable da_active : bool;
  mutable da_proc_done : int array;  (* virtual completion per processor *)
  mutable da_iter : int;             (* current iteration, -1 before first *)
  mutable da_iter_vstart : int;      (* virtual start of current iteration *)
  mutable da_iter_base : int;        (* real clock at its first instruction *)
  mutable da_stall : int;            (* virtual wait stalls, this iteration *)
  da_posts : posts;  (* virtual time of (chan, iter)'s post *)
  da_post_pre : posts;
      (* max virtual post time over iterations <= iter: iterations run in
         order here, so each post extends a running prefix max — what a
         cumulative wait needs in O(1) *)
  mutable insts_executed : int;
  mutable markers : int;  (* of those, zero-cost Prof/Vsaved markers *)
  mutable issued : int;  (* instructions issued, for the issue-width floor *)
  (* one-element broadcast buffers for scalar vector operands *)
  bcast_fa : float array;
  bcast_fb : float array;
  bcast_ia : int array;
  bcast_ib : int array;
  collect : Vpc_profile.Collect.t option;  (* profile collector, if any *)
}

(* Scalar register [r] holds [ri.(r)] when its kind byte is [int_k],
   [rf.(r)] when it is [float_k].  Vector register [v] holds [vn.(v)]
   elements of one kind, at the front of [vi.(v)] or [vf.(v)] (a buffer
   may be longer than the vector it holds). *)
type frame = {
  ri : int array;
  rf : float array;
  rk : Bytes.t;
  ready : int array;             (* per-register ready time *)
  vi : int array array;
  vf : float array array;
  vk : Bytes.t;
  vn : int array;
  vready : int array;
  frame_base : int;
}

let int_k = '\000'
let float_k = '\001'

(* memory access *)

let out_of_bounds addr = error "memory access out of bounds at %d" addr

(* An access to [size] bytes at [addr] past the allocated prefix: out of
   bounds, or grow the prefix to cover it (at least doubling it). *)
let grow st addr size =
  if addr < 16 || addr + size > mem_size then out_of_bounds addr;
  let len = Bytes.length st.mem in
  let mem = Bytes.make (min mem_size (imax (addr + size) (imax 65536 (2 * len)))) '\000' in
  Bytes.blit st.mem 0 mem 0 len;
  st.mem <- mem

let[@inline] check st addr size =
  if addr < 16 || addr + size > Bytes.length st.mem then grow st addr size

let[@inline] load_char st addr =
  check st addr 1;
  let b = Char.code (Bytes.get st.mem addr) in
  if b > 127 then b - 256 else b

let[@inline] load_word st addr =
  check st addr 4;
  Int32.to_int (Bytes.get_int32_le st.mem addr)

let[@inline] load_single st addr =
  check st addr 4;
  Int32.float_of_bits (Bytes.get_int32_le st.mem addr)

let[@inline] load_double st addr =
  check st addr 8;
  Int64.float_of_bits (Bytes.get_int64_le st.mem addr)

let[@inline] store_word st addr n =
  check st addr 4;
  Bytes.set_int32_le st.mem addr (Int32.of_int n)

let[@inline] store_single st addr f =
  check st addr 4;
  Bytes.set_int32_le st.mem addr (Int32.bits_of_float f)

let[@inline] store_double st addr f =
  check st addr 8;
  Bytes.set_int64_le st.mem addr (Int64.bits_of_float f)

let load_mem st ty addr : value =
  match ty with
  | Ty.Char -> Vi (load_char st addr)
  | Ty.Int | Ty.Ptr _ | Ty.Func _ -> Vi (load_word st addr)
  | Ty.Float -> Vf (load_single st addr)
  | Ty.Double -> Vf (load_double st addr)
  | Ty.Void | Ty.Array _ | Ty.Struct _ -> error "bad load type"

let store_mem st ty addr (v : value) =
  match ty with
  | Ty.Char ->
      check st addr 1;
      Bytes.set st.mem addr (Char.chr (as_int v land 0xFF))
  | Ty.Int | Ty.Ptr _ | Ty.Func _ -> store_word st addr (as_int v)
  | Ty.Float -> store_single st addr (as_float v)
  | Ty.Double -> store_double st addr (as_float v)
  | Ty.Void | Ty.Array _ | Ty.Struct _ -> error "bad store type"

let convert ty (v : value) : value =
  match ty with
  | Ty.Char ->
      let b = as_int v land 0xFF in
      Vi (if b > 127 then b - 256 else b)
  | Ty.Int -> Vi (wrap32 (match v with Vi n -> n | Vf f -> int_of_float f))
  | Ty.Ptr _ | Ty.Func _ -> Vi (as_int v)
  | Ty.Float -> Vf (round_single (as_float v))
  | Ty.Double -> Vf (as_float v)
  | Ty.Void -> v
  | Ty.Array _ | Ty.Struct _ -> error "bad conversion"

(* ----------------------------------------------------------------- *)
(* Registers and operands                                            *)
(* ----------------------------------------------------------------- *)

let[@inline] is_int_reg fr r = Char.equal (Bytes.get fr.rk r) int_k

let[@inline] set_int fr r n ready =
  fr.ri.(r) <- n;
  Bytes.set fr.rk r int_k;
  fr.ready.(r) <- ready

let[@inline] set_float fr r f ready =
  fr.rf.(r) <- f;
  Bytes.set fr.rk r float_k;
  fr.ready.(r) <- ready

let set_value fr r (v : value) ready =
  match v with Vi n -> set_int fr r n ready | Vf f -> set_float fr r f ready

let[@inline] op_ready fr = function
  | Reg r -> fr.ready.(r)
  | Imm_int _ | Imm_float _ -> 0

(* The operand as an integer: "expected integer" on a float. *)
let[@inline] op_int fr = function
  | Reg r -> if is_int_reg fr r then fr.ri.(r) else expected_integer ()
  | Imm_int n -> n
  | Imm_float _ -> expected_integer ()

(* The operand as a float: integers convert. *)
let[@inline] op_float fr = function
  | Reg r -> if is_int_reg fr r then float_of_int fr.ri.(r) else fr.rf.(r)
  | Imm_int n -> float_of_int n
  | Imm_float f -> f

(* The operand converted to a C int (floats truncate). *)
let[@inline] op_trunc fr o =
  wrap32
    (match o with
    | Reg r -> if is_int_reg fr r then fr.ri.(r) else int_of_float fr.rf.(r)
    | Imm_int n -> n
    | Imm_float f -> int_of_float f)

let op_value fr = function
  | Reg r -> if is_int_reg fr r then Vi fr.ri.(r) else Vf fr.rf.(r)
  | Imm_int n -> Vi n
  | Imm_float f -> Vf f

(* Vector registers.  A destination buffer is taken after the sources
   have been read: it may be a source's own buffer, which every vector
   operation overwrites element by element, reading element i before
   writing it. *)

let[@inline] is_int_vec fr v = Char.equal (Bytes.get fr.vk v) int_k

(* Buffer [v] of [bufs] grown to at least [n] elements. *)
let buffer (bufs : 'a array array) v n (zero : 'a) =
  let b = bufs.(v) in
  if Array.length b >= n then b
  else begin
    let b = Array.make n zero in
    bufs.(v) <- b;
    b
  end

let float_dst fr v n =
  Bytes.set fr.vk v float_k;
  fr.vn.(v) <- n;
  buffer fr.vf v n 0.0

let int_dst fr v n =
  Bytes.set fr.vk v int_k;
  fr.vn.(v) <- n;
  buffer fr.vi v n 0

(* Element [i] of vector register [v]; elements past its length read as
   integer 0. *)
let vec_elem fr v i =
  if i >= fr.vn.(v) then Vi 0
  else if is_int_vec fr v then Vi fr.vi.(v).(i)
  else Vf fr.vf.(v).(i)

(* Write a vector of values.  Every producer makes all elements one
   kind, so the kind of element 0 (integer when empty) is the vector's. *)
let set_vec_values fr v (a : value array) =
  let n = Array.length a in
  match if n = 0 then Vi 0 else a.(0) with
  | Vi _ ->
      let out = int_dst fr v n in
      Array.iteri (fun i x -> out.(i) <- as_int x) a
  | Vf _ ->
      let out = float_dst fr v n in
      Array.iteri (fun i x -> out.(i) <- as_float x) a

let vsrc_ready fr = function Vr v -> fr.vready.(v) | Vscal o -> op_ready fr o

(* Source [s] of an [n]-element float operation as an array [x], whose
   element i is [x.(i land vsrc_mask s)]: a broadcast scalar is one
   element of [bcast], a vector register its own buffer, or a widened or
   zero-padded copy when it holds integers or fewer than [n] elements. *)
let float_src fr bcast s n : float array =
  match s with
  | Vscal o ->
      bcast.(0) <- op_float fr o;
      bcast
  | Vr v ->
      let len = fr.vn.(v) in
      if is_int_vec fr v then
        let b = fr.vi.(v) in
        Array.init n (fun i -> if i < len then float_of_int b.(i) else 0.0)
      else if len >= n then fr.vf.(v)
      else
        let b = fr.vf.(v) in
        Array.init n (fun i -> if i < len then b.(i) else 0.0)

(* The same for an integer operation: a float element within the
   source's length is "expected integer". *)
let int_src fr bcast s n : int array =
  match s with
  | Vscal o ->
      bcast.(0) <- (if n > 0 then op_int fr o else 0);
      bcast
  | Vr v ->
      let len = fr.vn.(v) in
      if not (is_int_vec fr v) then
        if len > 0 && n > 0 then expected_integer () else Array.make n 0
      else if len >= n then fr.vi.(v)
      else
        let b = fr.vi.(v) in
        Array.init n (fun i -> if i < len then b.(i) else 0)

let[@inline] vsrc_mask = function Vscal _ -> 0 | Vr _ -> -1

(* ----------------------------------------------------------------- *)
(* Timing                                                            *)
(* ----------------------------------------------------------------- *)

let unit_free st (u : Cost.unit_) =
  match u with
  | Cost.IU -> st.free_iu
  | Cost.FPU -> st.free_fpu
  | Cost.MEM -> st.free_mem
  | Cost.CTRL -> st.free_ctrl

let set_unit_free st (u : Cost.unit_) t =
  match u with
  | Cost.IU -> st.free_iu <- t
  | Cost.FPU -> st.free_fpu <- t
  | Cost.MEM -> st.free_mem <- t
  | Cost.CTRL -> st.free_ctrl <- t

let add_busy st (u : Cost.unit_) n =
  match u with
  | Cost.IU -> st.metrics.busy_iu <- st.metrics.busy_iu + n
  | Cost.FPU -> st.metrics.busy_fpu <- st.metrics.busy_fpu + n
  | Cost.MEM -> st.metrics.busy_mem <- st.metrics.busy_mem + n
  | Cost.CTRL -> ()

(* Issue an operation: [ops_ready] is when its inputs are available.
   Returns the completion time (when its result is ready).

   [Sequential] starts each operation when the previous completes.
   [Overlap_conservative] issues in order: an operation whose inputs are
   not ready stalls everything behind it.  [Overlap_full] is
   dataflow-limited: the compiler's dependence graph licensed the
   scheduler to reorder freely, so an operation waits only for its inputs
   and its unit — the model of a perfectly list-scheduled loop (§6). *)
let issue st (cost : Cost.op_cost) ops_ready : int =
  add_busy st cost.Cost.unit_ cost.Cost.issue;
  match st.config.sched with
  | Sequential ->
      let done_ = imax st.clock ops_ready + cost.Cost.latency in
      st.clock <- done_;
      done_
  | Overlap_conservative ->
      let start = imax (imax st.clock (unit_free st cost.Cost.unit_)) ops_ready in
      set_unit_free st cost.Cost.unit_ (start + cost.Cost.issue);
      st.clock <- start;  (* in-order issue: next op cannot start earlier *)
      start + cost.Cost.latency
  | Overlap_full ->
      (* dataflow-limited: the list scheduler reorders compute ops freely;
         the single memory port keeps its occupancy, and a machine-wide
         issue width of 4 (one per unit) floors everything *)
      let slot = st.issued / 4 in
      st.issued <- st.issued + 1;
      let start =
        match cost.Cost.unit_ with
        | Cost.MEM ->
            let start = imax (imax st.free_mem ops_ready) slot in
            st.free_mem <- start + cost.Cost.issue;
            start
        | Cost.IU | Cost.FPU | Cost.CTRL -> imax ops_ready slot
      in
      let done_ = start + cost.Cost.latency in
      st.clock <- imax st.clock done_;
      done_

(* A vector operation occupies its unit for startup + len cycles. *)
let issue_vector st unit_ ~startup ~len ops_ready : int =
  let busy = startup + len in
  add_busy st unit_ busy;
  match st.config.sched with
  | Sequential ->
      let done_ = imax st.clock ops_ready + busy in
      st.clock <- done_;
      done_
  | Overlap_conservative ->
      let start = imax (imax st.clock (unit_free st unit_)) ops_ready in
      set_unit_free st unit_ (start + busy);
      st.clock <- start;
      start + busy
  | Overlap_full ->
      let done_ = imax (unit_free st unit_) ops_ready + busy in
      set_unit_free st unit_ done_;
      st.clock <- imax st.clock done_;
      done_

(* A control transfer serializes issue, except under full
   dependence-driven scheduling where the compiler has already proven the
   loop's operations independent and the scheduler overlaps across the
   loop-closing branch (§6: "completely overlap the integer and floating
   point instructions in the loop"). *)
let issue_branch st ops_ready =
  match st.config.sched with
  | Overlap_full ->
      let slot = st.issued / 4 in
      st.issued <- st.issued + 1;
      st.clock <- imax st.clock (imax ops_ready slot + Cost.branch.Cost.latency)
  | Sequential | Overlap_conservative ->
      st.clock <- imax st.clock ops_ready + Cost.branch.Cost.latency

let array_max (a : int array) =
  let m = ref 0 in
  Array.iter (fun x -> m := imax !m x) a;
  !m

(* ----------------------------------------------------------------- *)
(* Doacross post tables                                              *)
(* ----------------------------------------------------------------- *)

let post_get (p : posts) chan iter =
  let k = iter + 1 in
  if chan >= Array.length p.chans then not_posted
  else
    let a = p.chans.(chan) in
    if k < 0 || k >= Array.length a then not_posted else a.(k)

let post_set (p : posts) chan iter t =
  let k = iter + 1 in
  if chan >= Array.length p.chans then begin
    let chans = Array.make (imax (chan + 1) (2 * Array.length p.chans)) [||] in
    Array.blit p.chans 0 chans 0 (Array.length p.chans);
    p.chans <- chans
  end;
  let a = p.chans.(chan) in
  let a =
    if k < Array.length a then a
    else begin
      let grown = Array.make (imax (k + 1) (imax 16 (2 * Array.length a))) not_posted in
      Array.blit a 0 grown 0 (Array.length a);
      p.chans.(chan) <- grown;
      grown
    end
  in
  a.(k) <- t

(* ----------------------------------------------------------------- *)
(* Builtins                                                          *)
(* ----------------------------------------------------------------- *)

let read_cstring st addr =
  let buf = Buffer.create 16 in
  let rec go a =
    check st a 1;
    let c = Bytes.get st.mem a in
    if c <> '\000' then begin
      Buffer.add_char buf c;
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

let do_printf st fmt args =
  let out = st.output in
  let args = ref args in
  let next () =
    match !args with
    | [] -> error "printf: missing argument"
    | a :: rest ->
        args := rest;
        a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c = '%' && !i + 1 < n then begin
      (* collect flags / width / precision *)
      let spec = Buffer.create 8 in
      Buffer.add_char spec '%';
      incr i;
      while
        !i < n
        && (match fmt.[!i] with
           | '0' .. '9' | '-' | '+' | ' ' | '.' | '#' -> true
           | _ -> false)
      do
        Buffer.add_char spec fmt.[!i];
        incr i
      done;
      if !i >= n then error "printf: truncated conversion";
      let conv = fmt.[!i] in
      let spec_with c = Buffer.contents spec ^ String.make 1 c in
      (match conv with
      | 'd' | 'i' ->
          Buffer.add_string out
            (Printf.sprintf
               (Scanf.format_from_string (spec_with 'd') "%d")
               (as_int (next ())))
      | 'f' | 'g' | 'e' ->
          Buffer.add_string out
            (Printf.sprintf
               (Scanf.format_from_string (spec_with conv) "%f")
               (as_float (next ())))
      | 'c' -> Buffer.add_char out (Char.chr (as_int (next ()) land 0xFF))
      | 's' ->
          Buffer.add_string out
            (Printf.sprintf
               (Scanf.format_from_string (spec_with 's') "%s")
               (read_cstring st (as_int (next ()))))
      | '%' -> Buffer.add_char out '%'
      | other -> error "printf: unsupported conversion %%%c" other);
      incr i
    end
    else begin
      Buffer.add_char out c;
      incr i
    end
  done

let builtin st name (args : value list) : value option =
  match name, args with
  | "printf", fmt :: rest ->
      do_printf st (read_cstring st (as_int fmt)) rest;
      Some (Vi 0)
  | "putchar", [ c ] ->
      Buffer.add_char st.output (Char.chr (as_int c land 0xFF));
      Some (Vi (as_int c))
  | "puts", [ s ] ->
      Buffer.add_string st.output (read_cstring st (as_int s));
      Buffer.add_char st.output '\n';
      Some (Vi 0)
  | ("sqrt" | "sqrtf"), [ x ] ->
      st.metrics.fp_ops <- st.metrics.fp_ops + 1;
      Some (Vf (sqrt (as_float x)))
  | ("fabs" | "fabsf"), [ x ] -> Some (Vf (Float.abs (as_float x)))
  | "abs", [ x ] -> Some (Vi (abs (as_int x)))
  | ("exp" | "sin" | "cos"), [ x ] ->
      st.metrics.fp_ops <- st.metrics.fp_ops + 1;
      Some
        (Vf
           ((match name with
            | "exp" -> exp
            | "sin" -> sin
            | _ -> cos)
              (as_float x)))
  | _ -> None

(* ----------------------------------------------------------------- *)
(* Execution                                                         *)
(* ----------------------------------------------------------------- *)

let eval_ialu op x y =
  let bool_ b = if b then 1 else 0 in
  match op with
  | Iadd -> wrap32 (x + y)
  | Isub -> wrap32 (x - y)
  | Imul -> wrap32 (x * y)
  | Idiv ->
      if y = 0 then error "division by zero"
      else
        let q = abs x / abs y in
        if (x < 0) <> (y < 0) then -q else q
  | Irem ->
      if y = 0 then error "modulo by zero"
      else
        let r = abs x mod abs y in
        if x < 0 then -r else r
  | Ishl -> wrap32 (x lsl (y land 31))
  | Ishr -> x asr (y land 31)
  | Iand -> x land y
  | Ior -> x lor y
  | Ixor -> x lxor y
  | Icmp_eq -> bool_ (x = y)
  | Icmp_ne -> bool_ (x <> y)
  | Icmp_lt -> bool_ (x < y)
  | Icmp_le -> bool_ (x <= y)
  | Icmp_gt -> bool_ (x > y)
  | Icmp_ge -> bool_ (x >= y)
  | Inot -> wrap32 (lnot x)

let[@inline] eval_farith op (x : float) y =
  match op with
  | Fadd -> x +. y
  | Fsub -> x -. y
  | Fmul -> x *. y
  | Fdiv -> x /. y
  | Fcmp_eq | Fcmp_ne | Fcmp_lt | Fcmp_le | Fcmp_gt | Fcmp_ge -> assert false

let[@inline] eval_fcmp op (x : float) y =
  let b =
    match op with
    | Fcmp_eq -> x = y
    | Fcmp_ne -> x <> y
    | Fcmp_lt -> x < y
    | Fcmp_le -> x <= y
    | Fcmp_gt -> x > y
    | Fcmp_ge -> x >= y
    | Fadd | Fsub | Fmul | Fdiv -> assert false
  in
  if b then 1 else 0

let[@inline] is_fcmp = function
  | Fcmp_eq | Fcmp_ne | Fcmp_lt | Fcmp_le | Fcmp_gt | Fcmp_ge -> true
  | Fadd | Fsub | Fmul | Fdiv -> false

let param_ty (program : Isa.program) (f : Isa.func) id =
  match Prog.find_var program.Isa.prog None id with
  | Some v -> v.Var.ty
  | None -> (
      match
        List.find_map
          (fun (fn : Func.t) ->
            if fn.Func.name = f.fn_name then Func.find_var fn id else None)
          program.Isa.prog.Prog.funcs
      with
      | Some v -> v.Var.ty
      | None -> Ty.Int)

let decode (program : Isa.program) (f : Isa.func) : decoded =
  let label l = Option.value (Hashtbl.find_opt f.labels l) ~default:(-1) in
  let target =
    Array.map
      (function
        | Jump l | Branch_zero (_, l) | Branch_nonzero (_, l) -> label l
        | _ -> -1)
      f.code
  in
  let params =
    List.map
      (fun id ->
        match Hashtbl.find_opt f.frame_offset id with
        | Some off -> Pmem (off, param_ty program f id)
        | None -> (
            match Hashtbl.find_opt f.reg_of_var id with
            | Some r -> Preg r
            | None -> Punused))
      f.param_ids
  in
  { func = f; target; params }

(* Virtual (pipeline) time of the current doacross iteration: its virtual
   start, plus the real cycles it has executed, plus the wait stalls that
   pushed it later in the pipeline schedule. *)
let da_now st =
  st.da_iter_vstart + (st.clock - st.da_iter_base) + st.da_stall

let da_finish_iter st =
  if st.da_iter >= 0 then begin
    let p = st.da_iter mod Array.length st.da_proc_done in
    st.da_proc_done.(p) <- da_now st
  end

let rec run_function st (fname : string) (args : value list) : value * int =
  match Hashtbl.find_opt st.decoded fname with
  | Some d -> run_func st d args
  | None -> (
      match Hashtbl.find_opt st.program.Isa.funcs fname with
      | Some f ->
          let d = decode st.program f in
          Hashtbl.replace st.decoded fname d;
          run_func st d args
      | None -> (
          match builtin st fname args with
          | Some v -> (v, st.clock)
          | None -> error "undefined function %s" fname))

and run_func st (d : decoded) (args : value list) : value * int =
  let f = d.func in
  let saved_stack = st.stack_top in
  let frame_base = (st.stack_top + 7) / 8 * 8 in
  st.stack_top <- frame_base + f.frame_size;
  if st.stack_top > mem_size then error "stack overflow";
  let nr = imax f.nregs 1 and nv = imax f.nvregs 1 in
  let fr =
    {
      ri = Array.make nr 0;
      rf = Array.make nr 0.0;
      rk = Bytes.make nr int_k;
      ready = Array.make nr 0;
      vi = Array.make nv [||];
      vf = Array.make nv [||];
      vk = Bytes.make nv int_k;
      vn = Array.make nv 0;
      vready = Array.make nv 0;
      frame_base;
    }
  in
  fr.ri.(0) <- frame_base;
  (* bind parameters *)
  (try
     List.iter2
       (fun p arg ->
         match p with
         | Pmem (off, ty) -> store_mem st ty (frame_base + off) (convert ty arg)
         | Preg r -> set_value fr r arg 0
         | Punused -> ())
       d.params args
   with Invalid_argument _ -> error "arity mismatch calling %s" f.fn_name);
  let result = exec st d fr in
  st.stack_top <- saved_stack;
  result

and exec st (d : decoded) fr : value * int =
  let f = d.func in
  let code = f.code in
  let target = d.target in
  let ncode = Array.length code in
  let budget = st.config.max_insts in
  let result = ref (Vi 0) in
  let pc = ref 0 in
  let goto here =
    let t = target.(here) in
    if t >= 0 then t
    else
      match code.(here) with
      | Jump l | Branch_zero (_, l) | Branch_nonzero (_, l) ->
          error "unknown label %s in %s" l f.fn_name
      | _ -> assert false
  in
  while !pc < ncode do
    st.insts_executed <- st.insts_executed + 1;
    if st.insts_executed > budget then
      error "instruction budget exceeded (infinite loop?)";
    let here = !pc in
    pc := here + 1;
    match code.(here) with
    | Label_def _ -> ()
    (* profiling and accounting markers are free: they must not perturb
       the metrics they are meant to describe *)
    | Vsaved { len } ->
        (* one vector memory operation of [len] elements avoided by
           register reuse *)
        st.markers <- st.markers + 1;
        st.metrics.vector_mem_elems_avoided <-
          st.metrics.vector_mem_elems_avoided + op_int fr len
    | Prof ev -> (
        st.markers <- st.markers + 1;
        match st.collect with
        | Some c -> (
            match ev with
            | Ploop_enter k ->
                Vpc_profile.Collect.loop_enter c k ~clock:st.clock
            | Ploop_iter k -> Vpc_profile.Collect.loop_iter c k
            | Ploop_exit k ->
                Vpc_profile.Collect.loop_exit c k ~clock:st.clock
            | Pcall_begin (k, callee) ->
                Vpc_profile.Collect.call_begin c k ~callee ~clock:st.clock
            | Pcall_end k -> Vpc_profile.Collect.call_end c k ~clock:st.clock)
        | None -> ())
    | Imov (d, s) -> (
        let done_ = issue st Cost.imov (op_ready fr s) in
        match s with
        | Reg r ->
            if is_int_reg fr r then set_int fr d fr.ri.(r) done_
            else set_float fr d fr.rf.(r) done_
        | Imm_int n -> set_int fr d n done_
        | Imm_float x -> set_float fr d x done_)
    | Ialu (op, d, a, b) ->
        let cost =
          match op with
          | Imul -> Cost.imul
          | Idiv | Irem -> Cost.idiv
          | _ -> Cost.ialu
        in
        let done_ = issue st cost (imax (op_ready fr a) (op_ready fr b)) in
        let y = op_int fr b in
        let x = op_int fr a in
        set_int fr d (eval_ialu op x y) done_
    | Falu (op, d, a, b, ty) ->
        let cost = match op with Fdiv -> Cost.fdiv | Fmul -> Cost.fmul | _ -> Cost.falu in
        let done_ = issue st cost (imax (op_ready fr a) (op_ready fr b)) in
        st.metrics.fp_ops <- st.metrics.fp_ops + 1;
        let y = op_float fr b in
        let x = op_float fr a in
        if is_fcmp op then set_int fr d (eval_fcmp op x y) done_
        else
          let r = eval_farith op x y in
          set_float fr d (if is_single ty then round_single r else r) done_
    | Fneg (d, a, ty) ->
        let done_ = issue st Cost.falu (op_ready fr a) in
        st.metrics.fp_ops <- st.metrics.fp_ops + 1;
        let r = -.op_float fr a in
        set_float fr d (if is_single ty then round_single r else r) done_
    | Cvt_if (d, a) ->
        let done_ = issue st Cost.fcvt (op_ready fr a) in
        set_float fr d (float_of_int (op_int fr a)) done_
    | Cvt_fi (d, a) ->
        let done_ = issue st Cost.fcvt (op_ready fr a) in
        set_int fr d (wrap32 (int_of_float (op_float fr a))) done_
    | Cvt_ff (d, a, ty) ->
        let done_ = issue st Cost.fcvt (op_ready fr a) in
        let x = op_float fr a in
        set_float fr d (if is_single ty then round_single x else x) done_
    | Load { dst; addr; ty; volatile } -> (
        let ra = op_ready fr addr in
        let ops_ready =
          if volatile then imax ra st.last_mem_done
          else
            match st.config.sched with
            | Overlap_conservative -> imax ra st.last_store_done
            | Overlap_full | Sequential -> ra
        in
        let done_ = issue st Cost.load ops_ready in
        st.metrics.mem_ops <- st.metrics.mem_ops + 1;
        if volatile then st.last_mem_done <- done_;
        let a = op_int fr addr in
        match ty with
        | Ty.Int | Ty.Ptr _ | Ty.Func _ -> set_int fr dst (load_word st a) done_
        | Ty.Float -> set_float fr dst (load_single st a) done_
        | Ty.Double -> set_float fr dst (load_double st a) done_
        | Ty.Char -> set_int fr dst (load_char st a) done_
        | Ty.Void | Ty.Array _ | Ty.Struct _ -> error "bad load type")
    | Store { src; addr; ty; volatile } -> (
        let rs = op_ready fr src and ra = op_ready fr addr in
        let ops_ready =
          (* under full scheduling a store enters the store buffer as soon
             as its address is known; the data is forwarded when ready *)
          if volatile then imax (imax rs ra) st.last_mem_done
          else
            match st.config.sched with
            | Overlap_full -> ra
            | Sequential | Overlap_conservative -> imax rs ra
        in
        let done_ = issue st Cost.store ops_ready in
        st.metrics.mem_ops <- st.metrics.mem_ops + 1;
        st.last_store_done <- imax st.last_store_done done_;
        if volatile then st.last_mem_done <- done_;
        (* the value is converted to the stored type before the address
           is read *)
        match ty with
        | Ty.Int ->
            let n = op_trunc fr src in
            store_word st (op_int fr addr) n
        | Ty.Float ->
            let x = round_single (op_float fr src) in
            store_single st (op_int fr addr) x
        | Ty.Double ->
            let x = op_float fr src in
            store_double st (op_int fr addr) x
        | _ ->
            let v = convert ty (op_value fr src) in
            store_mem st ty (op_int fr addr) v)
    | Jump _ ->
        issue_branch st 0;
        pc := goto here
    | Branch_zero (o, _) ->
        issue_branch st (op_ready fr o);
        if op_trunc fr o = 0 then pc := goto here
    | Branch_nonzero (o, _) ->
        issue_branch st (op_ready fr o);
        if op_trunc fr o <> 0 then pc := goto here
    | Call { dst; name; args } -> (
        let ops_ready =
          List.fold_left (fun acc o -> imax acc (op_ready fr o)) 0 args
        in
        let vals = List.map (op_value fr) args in
        st.clock <- imax st.clock ops_ready;
        st.clock <- st.clock + Cost.call_overhead;
        st.metrics.calls <- st.metrics.calls + 1;
        let v, _ = run_function st name vals in
        st.clock <- st.clock + Cost.ret_overhead;
        match dst with Some d -> set_value fr d v st.clock | None -> ())
    | Ret o ->
        (match o with
        | Some o ->
            st.clock <- imax st.clock (op_ready fr o);
            result := op_value fr o
        | None -> ());
        pc := ncode
    | Vload { dst; base; stride; len; ty } -> (
        let n = op_int fr len in
        let ops_ready =
          let r = imax (imax (op_ready fr base) (op_ready fr stride)) (op_ready fr len) in
          match st.config.sched with
          | Overlap_conservative -> imax r st.last_store_done
          | Overlap_full | Sequential -> r
        in
        let done_ =
          issue_vector st Cost.MEM ~startup:Cost.vector_startup_mem ~len:n ops_ready
        in
        st.metrics.vector_insts <- st.metrics.vector_insts + 1;
        st.metrics.vector_elems <- st.metrics.vector_elems + n;
        st.metrics.mem_ops <- st.metrics.mem_ops + n;
        let s = op_int fr stride in
        let b = op_int fr base in
        if n < 0 then invalid_arg "Array.init";
        fr.vready.(dst) <- done_;
        match ty with
        | Ty.Float ->
            let out = float_dst fr dst n in
            for i = 0 to n - 1 do
              out.(i) <- load_single st (b + (i * s))
            done
        | Ty.Double ->
            let out = float_dst fr dst n in
            for i = 0 to n - 1 do
              out.(i) <- load_double st (b + (i * s))
            done
        | Ty.Int | Ty.Ptr _ | Ty.Func _ ->
            let out = int_dst fr dst n in
            for i = 0 to n - 1 do
              out.(i) <- load_word st (b + (i * s))
            done
        | Ty.Char ->
            let out = int_dst fr dst n in
            for i = 0 to n - 1 do
              out.(i) <- load_char st (b + (i * s))
            done
        | Ty.Void | Ty.Array _ | Ty.Struct _ ->
            if n > 0 then error "bad load type" else ignore (int_dst fr dst n))
    | Vstore { src; base; stride; len; ty } -> (
        let n = op_int fr len in
        let ops_ready =
          imax
            (imax (imax (op_ready fr base) (op_ready fr stride)) (op_ready fr len))
            fr.vready.(src)
        in
        let done_ =
          issue_vector st Cost.MEM ~startup:Cost.vector_startup_mem ~len:n ops_ready
        in
        st.metrics.vector_insts <- st.metrics.vector_insts + 1;
        st.metrics.vector_elems <- st.metrics.vector_elems + n;
        st.metrics.mem_ops <- st.metrics.mem_ops + n;
        st.last_store_done <- imax st.last_store_done done_;
        let s = op_int fr stride in
        let b = op_int fr base in
        if fr.vn.(src) < n then error "vector register shorter than store";
        match ty, is_int_vec fr src with
        | Ty.Float, false ->
            let data = fr.vf.(src) in
            for i = 0 to n - 1 do
              store_single st (b + (i * s)) (round_single data.(i))
            done
        | Ty.Double, false ->
            let data = fr.vf.(src) in
            for i = 0 to n - 1 do
              store_double st (b + (i * s)) data.(i)
            done
        | Ty.Int, true ->
            let data = fr.vi.(src) in
            for i = 0 to n - 1 do
              store_word st (b + (i * s)) data.(i)
            done
        | _ ->
            for i = 0 to n - 1 do
              let v = convert ty (vec_elem fr src i) in
              store_mem st ty (b + (i * s)) v
            done)
    | Vop { op; dst; a; b; len; ty } -> (
        let n = op_int fr len in
        let ops_ready = imax (imax (vsrc_ready fr a) (vsrc_ready fr b)) (op_ready fr len) in
        let done_ =
          issue_vector st Cost.FPU ~startup:Cost.vector_startup_fpu ~len:n ops_ready
        in
        st.metrics.vector_insts <- st.metrics.vector_insts + 1;
        st.metrics.vector_elems <- st.metrics.vector_elems + n;
        if Ty.is_float ty then st.metrics.fp_ops <- st.metrics.fp_ops + n;
        if n < 0 then invalid_arg "Array.init";
        fr.vready.(dst) <- done_;
        let ma = vsrc_mask a and mb = vsrc_mask b in
        match op with
        | Fop fop when is_fcmp fop ->
            let xa = float_src fr st.bcast_fa a n in
            let xb = float_src fr st.bcast_fb b n in
            let out = int_dst fr dst n in
            for i = 0 to n - 1 do
              out.(i) <- eval_fcmp fop xa.(i land ma) xb.(i land mb)
            done
        | Fop fop ->
            let xa = float_src fr st.bcast_fa a n in
            let xb = float_src fr st.bcast_fb b n in
            let out = float_dst fr dst n in
            let single = is_single ty in
            for i = 0 to n - 1 do
              let r = eval_farith fop xa.(i land ma) xb.(i land mb) in
              out.(i) <- (if single then round_single r else r)
            done
        | Iop iop ->
            let xb = int_src fr st.bcast_ib b n in
            let xa = int_src fr st.bcast_ia a n in
            let out = int_dst fr dst n in
            for i = 0 to n - 1 do
              out.(i) <- eval_ialu iop xa.(i land ma) xb.(i land mb)
            done)
    | Vneg { dst; a; len; ty } -> (
        let n = op_int fr len in
        let done_ =
          issue_vector st Cost.FPU ~startup:Cost.vector_startup_fpu ~len:n
            (imax (vsrc_ready fr a) (op_ready fr len))
        in
        st.metrics.vector_insts <- st.metrics.vector_insts + 1;
        st.metrics.vector_elems <- st.metrics.vector_elems + n;
        if Ty.is_float ty then st.metrics.fp_ops <- st.metrics.fp_ops + n;
        if n < 0 then invalid_arg "Array.init";
        fr.vready.(dst) <- done_;
        let single = is_single ty in
        match a with
        | Vscal o -> (
            match op_value fr o with
            | Vi x -> Array.fill (int_dst fr dst n) 0 n (wrap32 (-x))
            | Vf x ->
                Array.fill (float_dst fr dst n) 0 n
                  (if single then round_single (-.x) else -.x))
        | Vr v ->
            if n > fr.vn.(v) then invalid_arg "index out of bounds";
            if is_int_vec fr v then begin
              let src = fr.vi.(v) in
              let out = int_dst fr dst n in
              for i = 0 to n - 1 do
                out.(i) <- wrap32 (-src.(i))
              done
            end
            else begin
              let src = fr.vf.(v) in
              let out = float_dst fr dst n in
              for i = 0 to n - 1 do
                out.(i) <- -.src.(i)
              done;
              if single then
                for i = 0 to n - 1 do
                  out.(i) <- round_single out.(i)
                done
            end)
    | Viota { dst; offset; scale; len } -> (
        let n = op_int fr len in
        let done_ =
          issue_vector st Cost.FPU ~startup:Cost.viota_startup ~len:n
            (imax (imax (op_ready fr offset) (op_ready fr scale)) (op_ready fr len))
        in
        st.metrics.vector_insts <- st.metrics.vector_insts + 1;
        st.metrics.vector_elems <- st.metrics.vector_elems + n;
        fr.vready.(dst) <- done_;
        (* iota broadcasts scalars too: scale 0 replicates a float *)
        match op_value fr offset, op_int fr scale with
        | Vf x, 0 ->
            if n < 0 then invalid_arg "Array.make";
            Array.fill (float_dst fr dst n) 0 n x
        | _, s ->
            if n < 0 then invalid_arg "Array.init";
            let out = int_dst fr dst n in
            for i = 0 to n - 1 do
              out.(i) <- wrap32 (op_int fr offset + (s * i))
            done)
    | Vcvt { dst; a; len; to_ } -> (
        let n = op_int fr len in
        let done_ =
          issue_vector st Cost.FPU ~startup:Cost.vector_startup_fpu ~len:n
            (imax fr.vready.(a) (op_ready fr len))
        in
        st.metrics.vector_insts <- st.metrics.vector_insts + 1;
        st.metrics.vector_elems <- st.metrics.vector_elems + n;
        if n < 0 then invalid_arg "Array.init";
        fr.vready.(dst) <- done_;
        let single = is_single to_ in
        match to_ with
        | Ty.Float | Ty.Double ->
            let src = float_src fr st.bcast_fa (Vr a) n in
            let out = float_dst fr dst n in
            for i = 0 to n - 1 do
              out.(i) <- (if single then round_single src.(i) else src.(i))
            done
        | _ ->
            (* conversions to integer types: element by element as
               values, which also keeps each error where it was *)
            set_vec_values fr dst (Array.init n (fun i -> convert to_ (vec_elem fr a i))))
    | Par_enter ->
        if st.par_active then ()  (* nested: account serially *)
        else begin
          st.par_active <- true;
          st.par_enter_clock <- st.clock;
          st.par_buckets <- Array.make (imax st.config.procs 1) 0;
          st.par_iter <- -1;
          st.par_iter_start <- st.clock;
          st.par_serial_total <- 0;
          st.metrics.parallel_regions <- st.metrics.parallel_regions + 1
        end
    | Par_serial_end ->
        (* doacross (§10): the time since this iteration began is the
           serialized pointer-advance part; it accumulates globally *)
        if st.par_active then begin
          st.par_serial_total <-
            st.par_serial_total + (st.clock - st.par_iter_start);
          st.par_iter_start <- st.clock
        end
    | Par_iter ->
        if st.da_active then begin
          da_finish_iter st;
          st.da_iter <- st.da_iter + 1;
          let p = st.da_iter mod Array.length st.da_proc_done in
          st.da_iter_vstart <- st.da_proc_done.(p);
          st.da_iter_base <- st.clock;
          st.da_stall <- 0
        end
        else if st.par_active then begin
          if st.par_iter >= 0 then begin
            let dt = st.clock - st.par_iter_start in
            let p = st.par_iter mod Array.length st.par_buckets in
            st.par_buckets.(p) <- st.par_buckets.(p) + dt
          end;
          st.par_iter <- st.par_iter + 1;
          st.par_iter_start <- st.clock
        end
    | Da_enter ->
        if st.par_active then ()  (* nested: account serially *)
        else begin
          st.par_active <- true;
          st.da_active <- true;
          st.par_enter_clock <- st.clock;
          st.da_proc_done <- Array.make (imax st.config.procs 1) 0;
          st.da_iter <- -1;
          st.da_iter_vstart <- 0;
          st.da_iter_base <- st.clock;
          st.da_stall <- 0;
          st.da_posts.chans <- [||];
          st.da_post_pre.chans <- [||];
          st.metrics.parallel_regions <- st.metrics.parallel_regions + 1
        end
    | Post { chan } ->
        st.metrics.posts <- st.metrics.posts + 1;
        st.clock <- st.clock + Cost.post_cycles;
        if st.da_active then begin
          let now = da_now st in
          post_set st.da_posts chan st.da_iter now;
          let prev = post_get st.da_post_pre chan (st.da_iter - 1) in
          post_set st.da_post_pre chan st.da_iter (imax now prev)
        end
    | Wait { chan; dist; cum } ->
        st.metrics.waits <- st.metrics.waits + 1;
        st.clock <- st.clock + Cost.wait_cycles;
        if st.da_active && st.da_iter >= 0 then begin
          let target = st.da_iter - dist in
          (* iterations below the loop's lower bound count as posted *)
          if target >= 0 then begin
            let post_v =
              post_get (if cum then st.da_post_pre else st.da_posts) chan target
            in
            if post_v = not_posted then
              error
                "doacross %swait on c%d in iteration %d: iteration %d \
                 never posted (deadlock)"
                (if cum then "cumulative " else "")
                chan st.da_iter target;
            let stall = post_v - da_now st in
            if stall > 0 then begin
              st.da_stall <- st.da_stall + stall;
              st.metrics.post_wait_stalls <- st.metrics.post_wait_stalls + stall
            end
          end
        end
    | Par_exit ->
        if st.da_active then begin
          da_finish_iter st;
          let serial_time = st.clock - st.par_enter_clock in
          let par_time = array_max st.da_proc_done + Cost.barrier_cycles in
          if par_time < serial_time then
            st.saved <- st.saved + (serial_time - par_time);
          st.da_active <- false;
          st.par_active <- false;
          st.da_posts.chans <- [||];
          st.da_post_pre.chans <- [||]
        end
        else if st.par_active then begin
          (if st.par_iter >= 0 then begin
             let dt = st.clock - st.par_iter_start in
             let p = st.par_iter mod Array.length st.par_buckets in
             st.par_buckets.(p) <- st.par_buckets.(p) + dt
           end);
          let serial_time = st.clock - st.par_enter_clock in
          let par_time =
            st.par_serial_total + array_max st.par_buckets + Cost.barrier_cycles
          in
          if par_time < serial_time then
            st.saved <- st.saved + (serial_time - par_time);
          st.par_active <- false
        end
  done;
  (!result, st.clock)

(* ----------------------------------------------------------------- *)
(* Entry points                                                      *)
(* ----------------------------------------------------------------- *)

type run_result = {
  return_value : value;
  stdout_text : string;
  metrics : metrics;
  mflops_rate : float;
  final_state : state;
}

let rec const_value (e : Expr.t) : value =
  match e.Expr.desc with
  | Expr.Const_int n -> Vi n
  | Expr.Const_float f -> Vf f
  | Expr.Cast (ty, a) -> convert ty (const_value a)
  | Expr.Unop (Expr.Neg, a) -> (
      match const_value a with Vi n -> Vi (-n) | Vf f -> Vf (-.f))
  | _ -> error "non-constant global initializer"

let init_globals st =
  List.iter
    (fun (g : Prog.global) ->
      let addr = Hashtbl.find st.layout.addr_of g.gvar.Var.id in
      let ty = g.gvar.Var.ty in
      match g.Prog.ginit with
      | Prog.Init_none -> ()
      | Prog.Init_scalar e ->
          store_mem st ty addr (convert ty (const_value e))
      | Prog.Init_array es ->
          let elt = match ty with Ty.Array (e, _) -> e | t -> t in
          let esize = Ty.sizeof st.layout.lprog.Prog.structs elt in
          List.iteri
            (fun i e ->
              store_mem st elt (addr + (i * esize)) (convert elt (const_value e)))
            es
      | Prog.Init_string s ->
          check st addr (String.length s + 1);
          String.iteri (fun i c -> Bytes.set st.mem (addr + i) c) s;
          Bytes.set st.mem (addr + String.length s) '\000')
    (Prog.globals_list st.layout.lprog)

let create_state ?(config = default_config) ?collect (program : Isa.program)
    (layout : layout) : state =
  let st =
    {
      collect;
      program;
      config;
      mem = Bytes.empty;
      layout;
      stack_top = layout.globals_top + 64;
      output = Buffer.create 256;
      metrics = new_metrics ();
      decoded = Hashtbl.create 16;
      clock = 0;
      saved = 0;
      free_iu = 0;
      free_fpu = 0;
      free_mem = 0;
      free_ctrl = 0;
      last_store_done = 0;
      last_mem_done = 0;
      par_buckets = [||];
      par_iter = -1;
      par_iter_start = 0;
      par_enter_clock = 0;
      par_active = false;
      par_serial_total = 0;
      da_active = false;
      da_proc_done = [||];
      da_iter = -1;
      da_iter_vstart = 0;
      da_iter_base = 0;
      da_stall = 0;
      da_posts = { chans = [||] };
      da_post_pre = { chans = [||] };
      insts_executed = 0;
      markers = 0;
      issued = 0;
      bcast_fa = [| 0.0 |];
      bcast_fb = [| 0.0 |];
      bcast_ia = [| 0 |];
      bcast_ib = [| 0 |];
    }
  in
  init_globals st;
  st

(* Declare every instrumented site to the collector before execution, so
   a site the run never reaches is recorded as measured-cold (zero
   counts) rather than absent. *)
let declare_sites (c : Vpc_profile.Collect.t) (program : Isa.program) =
  Hashtbl.iter
    (fun _ (f : Isa.func) ->
      Array.iter
        (function
          | Prof (Ploop_enter k) -> Vpc_profile.Collect.declare_loop c k
          | Prof (Pcall_begin (k, callee)) ->
              Vpc_profile.Collect.declare_call c k ~callee
          | _ -> ())
        f.code)
    program.Isa.funcs

let sched_name = function
  | Sequential -> "seq"
  | Overlap_conservative -> "conservative"
  | Overlap_full -> "full"

let run ?config ?(entry = "main") ?(args = []) ?collect ?(vreuse = false)
    (prog : Prog.t) : run_result =
  let layout = layout_globals prog in
  let program =
    Codegen.gen_program prog ~vreuse
      ~instrument:(Option.is_some collect)
      ~global_addr:(fun id ->
        match Hashtbl.find_opt layout.addr_of id with
        | Some a -> a
        | None -> error "no address for global %d" id)
  in
  (match collect with Some c -> declare_sites c program | None -> ());
  let st = create_state ?config ?collect program layout in
  let return_value, _ = run_function st entry args in
  st.metrics.cycles <- st.clock - st.saved;
  st.metrics.insts <- st.insts_executed - st.markers;
  {
    return_value;
    stdout_text = Buffer.contents st.output;
    metrics = st.metrics;
    mflops_rate = mflops st.metrics ~clock_mhz:st.config.clock_mhz;
    final_state = st;
  }

(* Read back a named global array, for tests comparing against the IL
   interpreter. *)
let global_array st prog name n =
  let g =
    List.find_opt
      (fun (g : Prog.global) -> g.gvar.Var.name = name)
      (Prog.globals_list prog)
  in
  match g with
  | None -> error "no global %s" name
  | Some g ->
      let elt = match g.gvar.Var.ty with Ty.Array (e, _) -> e | t -> t in
      let size = Ty.sizeof prog.Prog.structs elt in
      let addr = Hashtbl.find st.layout.addr_of g.gvar.Var.id in
      List.init n (fun i -> load_mem st elt (addr + (i * size)))
