(* An executing interpreter for the IL.  It is the reference semantics of
   the compiler: every optimization pass is differential-tested by running
   the program before and after the pass and comparing results, and the
   Titan simulator is checked against it.

   Memory is byte-addressed.  Scalars whose address is never taken live in
   per-frame registers; address-taken scalars and memory objects (arrays,
   structs) get stack slots.  Pointers are plain integer addresses. *)


type value = V_int of int | V_float of float

exception Runtime_error of string
exception Timeout

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

let as_int = function
  | V_int n -> n
  | V_float _ -> error "expected integer value"

let as_float = function V_float f -> f | V_int n -> float_of_int n

let pp_value ppf = function
  | V_int n -> Fmt.int ppf n
  | V_float f -> Fmt.pf ppf "%g" f

(* 32-bit wrap-around semantics for int arithmetic, matching the target. *)
let wrap32 n = (n land 0xFFFFFFFF) - (if n land 0x80000000 <> 0 then 1 lsl 32 else 0)

(* ----------------------------------------------------------------- *)
(* Machine state                                                     *)
(* ----------------------------------------------------------------- *)

type state = {
  prog : Prog.t;
  mem : Bytes.t;
  mutable stack_ptr : int;  (* grows upward from after globals *)
  global_addrs : (int, int) Hashtbl.t;  (* var id -> address *)
  output : Buffer.t;
  mutable steps : int;
  max_steps : int;
  on_volatile_read : (Var.t -> value option) option;
  mutable float_ops : int;  (* statistic: FP operations executed *)
}

let mem_size = 1 lsl 22 (* 4 MiB *)

(* Typed memory access *)

let check_addr st addr size =
  if addr < 16 || addr + size > Bytes.length st.mem then
    error "memory access out of bounds at %d" addr

let load_scalar st ty addr =
  match ty with
  | Ty.Char ->
      check_addr st addr 1;
      let b = Char.code (Bytes.get st.mem addr) in
      V_int (if b > 127 then b - 256 else b)
  | Ty.Int | Ty.Ptr _ | Ty.Func _ ->
      check_addr st addr 4;
      V_int (Int32.to_int (Bytes.get_int32_le st.mem addr))
  | Ty.Float ->
      check_addr st addr 4;
      V_float (Int32.float_of_bits (Bytes.get_int32_le st.mem addr))
  | Ty.Double ->
      check_addr st addr 8;
      V_float (Int64.float_of_bits (Bytes.get_int64_le st.mem addr))
  | Ty.Void | Ty.Array _ | Ty.Struct _ -> error "load of non-scalar type"

let store_scalar st ty addr v =
  match ty with
  | Ty.Char ->
      check_addr st addr 1;
      Bytes.set st.mem addr (Char.chr (as_int v land 0xFF))
  | Ty.Int | Ty.Ptr _ | Ty.Func _ ->
      check_addr st addr 4;
      Bytes.set_int32_le st.mem addr (Int32.of_int (as_int v))
  | Ty.Float ->
      check_addr st addr 4;
      Bytes.set_int32_le st.mem addr (Int32.bits_of_float (as_float v))
  | Ty.Double ->
      check_addr st addr 8;
      Bytes.set_int64_le st.mem addr (Int64.bits_of_float (as_float v))
  | Ty.Void | Ty.Array _ | Ty.Struct _ -> error "store of non-scalar type"

(* Convert a value to the representation of type [ty] (assignment
   conversion). *)
let convert ty v =
  match ty with
  | Ty.Char -> V_int ((as_int v land 0xFF) |> fun b -> if b > 127 then b - 256 else b)
  | Ty.Int -> V_int (wrap32 (match v with V_int n -> n | V_float f -> int_of_float f))
  | Ty.Ptr _ | Ty.Func _ -> V_int (as_int v)
  | Ty.Float -> V_float (Int32.float_of_bits (Int32.bits_of_float (as_float v)))
  | Ty.Double -> V_float (as_float v)
  | Ty.Void -> v
  | Ty.Array _ | Ty.Struct _ -> error "conversion to non-scalar type"

(* ----------------------------------------------------------------- *)
(* Layout                                                            *)
(* ----------------------------------------------------------------- *)

let align_up n a = (n + a - 1) / a * a

let alloc st size align =
  let addr = align_up st.stack_ptr align in
  st.stack_ptr <- addr + size;
  if st.stack_ptr > Bytes.length st.mem then error "out of memory";
  addr

let eval_const_expr (e : Expr.t) =
  let rec go (e : Expr.t) =
    match e.desc with
    | Const_int n -> V_int n
    | Const_float f -> V_float f
    | Unop (Neg, a) -> (
        match go a with V_int n -> V_int (-n) | V_float f -> V_float (-.f))
    | Cast (t, a) -> convert t (go a)
    | Var _ | Addr_of _ | Load _ | Binop _ | Unop _ ->
        error "initializer is not a constant"
  in
  go e

let layout_global st (g : Prog.global) =
  let ty = g.gvar.ty in
  let size = Ty.sizeof st.prog.structs ty in
  let align = Ty.alignof st.prog.structs ty in
  let addr = alloc st size align in
  Hashtbl.replace st.global_addrs g.gvar.Var.id addr;
  (match g.ginit with
  | Init_none -> ()
  | Init_scalar e -> store_scalar st ty addr (convert ty (eval_const_expr e))
  | Init_array es ->
      let elt = match ty with Ty.Array (e, _) -> e | t -> t in
      let esize = Ty.sizeof st.prog.structs elt in
      List.iteri
        (fun i e ->
          store_scalar st elt (addr + (i * esize)) (convert elt (eval_const_expr e)))
        es
  | Init_string s ->
      String.iteri (fun i c -> Bytes.set st.mem (addr + i) c) s;
      Bytes.set st.mem (addr + String.length s) '\000')

(* ----------------------------------------------------------------- *)
(* Flattening statement trees into a linear code array                *)
(* ----------------------------------------------------------------- *)

type op =
  | Oassign of Stmt.lvalue * Expr.t
  | Ocall of Stmt.lvalue option * Stmt.call_target * Expr.t list
  | Obranch_false of Expr.t * int ref  (* jump when condition is zero *)
  | Ojump of int ref
  | Odo_test of { index : int; hi : Expr.t; step : Expr.t; exit_pc : int ref }
  | Oreturn of Expr.t option
  | Ovector of Stmt.vstmt
  | Ovdef of Stmt.vdef
  | Onop

let flatten (f : Func.t) =
  let code = ref [] in
  let n = ref 0 in
  let labels = Hashtbl.create 8 in
  let fixups : (string * int ref) list ref = ref [] in
  let emit op =
    code := op :: !code;
    incr n;
    !n - 1
  in
  let rec stmt (s : Stmt.t) =
    match s.desc with
    | Assign (lv, e) -> ignore (emit (Oassign (lv, e)))
    | Call (dst, tgt, args) -> ignore (emit (Ocall (dst, tgt, args)))
    | Goto l ->
        let r = ref (-1) in
        fixups := (l, r) :: !fixups;
        ignore (emit (Ojump r))
    | Label l -> Hashtbl.replace labels l (emit Onop)
    | Return e -> ignore (emit (Oreturn e))
    | Vector v -> ignore (emit (Ovector v))
    | Vdef vd -> ignore (emit (Ovdef vd))
    | Nop -> ignore (emit Onop)
    | If (c, then_, else_) ->
        let else_ref = ref (-1) in
        ignore (emit (Obranch_false (c, else_ref)));
        List.iter stmt then_;
        if else_ = [] then else_ref := !n
        else begin
          let end_ref = ref (-1) in
          ignore (emit (Ojump end_ref));
          else_ref := !n;
          List.iter stmt else_;
          end_ref := !n
        end
    | While (_, c, body) ->
        let head = !n in
        let exit_ref = ref (-1) in
        ignore (emit (Obranch_false (c, exit_ref)));
        List.iter stmt body;
        ignore (emit (Ojump (ref head)));
        exit_ref := !n
    | Do_loop d ->
        (* index = lo; head: if out of range goto exit; body; index += step;
           goto head.  A parallel DO executes sequentially here — the
           interpreter defines the values, the Titan simulator the time. *)
        let index_lv = Stmt.Lvar d.index in
        let index_ty =
          match Func.find_var f d.index with
          | Some v -> v.ty
          | None -> Ty.Int
        in
        let index_e = Expr.var_id d.index index_ty in
        ignore (emit (Oassign (index_lv, d.lo)));
        let head = !n in
        let exit_ref = ref (-1) in
        ignore (emit (Odo_test { index = d.index; hi = d.hi; step = d.step; exit_pc = exit_ref }));
        List.iter stmt d.body;
        ignore
          (emit (Oassign (index_lv, Expr.binop Expr.Add index_e d.step index_ty)));
        ignore (emit (Ojump (ref head)));
        exit_ref := !n
  in
  List.iter stmt f.body;
  ignore (emit (Oreturn None));
  List.iter
    (fun (l, r) ->
      match Hashtbl.find_opt labels l with
      | Some pc -> r := pc
      | None -> error "goto to undefined label %s in %s" l f.name)
    !fixups;
  Array.of_list (List.rev !code)

(* ----------------------------------------------------------------- *)
(* Frames and evaluation                                             *)
(* ----------------------------------------------------------------- *)

type frame = {
  func : Func.t;
  regs : (int, value ref) Hashtbl.t;       (* register-allocated scalars *)
  local_addrs : (int, int) Hashtbl.t;      (* stack-allocated vars *)
  vtmps : (int, value array) Hashtbl.t;    (* vector temporaries ([Vdef]) *)
}

let var_of st (fr : frame) id =
  match Func.find_var fr.func id with
  | Some v -> v
  | None -> Prog.var_exn st.prog (Some fr.func) id

let addr_of_var st fr id =
  match Hashtbl.find_opt fr.local_addrs id with
  | Some a -> a
  | None -> (
      match Hashtbl.find_opt st.global_addrs id with
      | Some a -> a
      | None -> error "address of register variable %s" (var_of st fr id).name)

let is_float_ty = Ty.is_float

let eval_binop op ty (a : value) (b : value) =
  let open Expr in
  if is_float_ty ty then
    let x = as_float a and y = as_float b in
    let r =
      match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y
      | Rem | Shl | Shr | Band | Bor | Bxor -> error "float bitop"
      | Eq | Ne | Lt | Le | Gt | Ge -> error "comparison typed float"
    in
    V_float
      (match ty with
      | Ty.Float -> Int32.float_of_bits (Int32.bits_of_float r)
      | _ -> r)
  else
    match op with
    | Eq | Ne | Lt | Le | Gt | Ge -> error "comparison reached arithmetic path"
    | _ ->
        let x = as_int a and y = as_int b in
        let r =
          match op with
          | Add -> x + y
          | Sub -> x - y
          | Mul -> x * y
          | Div -> if y = 0 then error "division by zero" else (
              (* C truncating division *)
              let q = abs x / abs y in
              if (x < 0) <> (y < 0) then -q else q)
          | Rem -> if y = 0 then error "modulo by zero" else (
              let r = abs x mod abs y in
              if x < 0 then -r else r)
          | Shl -> x lsl (y land 31)
          | Shr -> x asr (y land 31)
          | Band -> x land y
          | Bor -> x lor y
          | Bxor -> x lxor y
          | Eq | Ne | Lt | Le | Gt | Ge -> assert false
        in
        V_int (wrap32 r)

let eval_compare op a b =
  let r =
    match a, b with
    | V_int x, V_int y -> compare x y
    | _ -> compare (as_float a) (as_float b)
  in
  let open Expr in
  let bool_of = function true -> 1 | false -> 0 in
  V_int
    (match op with
    | Eq -> bool_of (r = 0)
    | Ne -> bool_of (r <> 0)
    | Lt -> bool_of (r < 0)
    | Le -> bool_of (r <= 0)
    | Gt -> bool_of (r > 0)
    | Ge -> bool_of (r >= 0)
    | _ -> error "not a comparison")

let is_comparison : Expr.binop -> bool = function
  | Eq | Ne | Lt | Le | Gt | Ge -> true
  | _ -> false

let rec eval st fr (e : Expr.t) : value =
  match e.desc with
  | Const_int n -> V_int n
  | Const_float f ->
      V_float
        (match e.ty with
        | Ty.Float -> Int32.float_of_bits (Int32.bits_of_float f)
        | _ -> f)
  | Var id -> (
      let v = var_of st fr id in
      let stored =
        match Hashtbl.find_opt fr.regs id with
        | Some r -> !r
        | None -> load_scalar st v.ty (addr_of_var st fr id)
      in
      if v.volatile then
        match st.on_volatile_read with
        | Some hook -> ( match hook v with Some value -> value | None -> stored)
        | None -> stored
      else stored)
  | Addr_of id -> V_int (addr_of_var st fr id)
  | Load p ->
      let addr = as_int (eval st fr p) in
      let elt = match p.ty with Ty.Ptr t -> t | _ -> error "load through non-pointer" in
      load_scalar st elt addr
  | Binop (op, a, b) ->
      let va = eval st fr a and vb = eval st fr b in
      if is_comparison op then eval_compare op va vb
      else begin
        if is_float_ty e.ty then st.float_ops <- st.float_ops + 1;
        eval_binop op e.ty va vb
      end
  | Unop (Neg, a) -> (
      match eval st fr a with
      | V_int n -> V_int (wrap32 (-n))
      | V_float f ->
          st.float_ops <- st.float_ops + 1;
          V_float (-.f))
  | Unop (Lognot, a) ->
      let v = eval st fr a in
      V_int (match v with V_int 0 -> 1 | V_float 0.0 -> 1 | _ -> 0)
  | Unop (Bitnot, a) -> V_int (wrap32 (lnot (as_int (eval st fr a))))
  | Cast (t, a) -> convert t (eval st fr a)

let truthy = function V_int 0 -> false | V_float 0.0 -> false | _ -> true

(* ----------------------------------------------------------------- *)
(* Builtins                                                          *)
(* ----------------------------------------------------------------- *)

let read_cstring st addr =
  let buf = Buffer.create 16 in
  let rec go a =
    check_addr st a 1;
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

let builtin st name args : value option =
  match name, args with
  | "printf", fmt :: rest ->
      do_printf st (read_cstring st (as_int fmt)) rest;
      Some (V_int 0)
  | "putchar", [ c ] ->
      Buffer.add_char st.output (Char.chr (as_int c land 0xFF));
      Some (V_int (as_int c))
  | "puts", [ s ] ->
      Buffer.add_string st.output (read_cstring st (as_int s));
      Buffer.add_char st.output '\n';
      Some (V_int 0)
  | ("sqrt" | "sqrtf"), [ x ] ->
      st.float_ops <- st.float_ops + 1;
      Some (V_float (sqrt (as_float x)))
  | ("fabs" | "fabsf"), [ x ] -> Some (V_float (Float.abs (as_float x)))
  | "abs", [ x ] -> Some (V_int (abs (as_int x)))
  | ("exp" | "expf"), [ x ] ->
      st.float_ops <- st.float_ops + 1;
      Some (V_float (exp (as_float x)))
  | ("sin" | "sinf"), [ x ] ->
      st.float_ops <- st.float_ops + 1;
      Some (V_float (sin (as_float x)))
  | ("cos" | "cosf"), [ x ] ->
      st.float_ops <- st.float_ops + 1;
      Some (V_float (cos (as_float x)))
  | _ -> None

(* ----------------------------------------------------------------- *)
(* Execution                                                         *)
(* ----------------------------------------------------------------- *)

let rec run_function st (f : Func.t) (args : value list) : value =
  let fr =
    {
      func = f;
      regs = Hashtbl.create 16;
      local_addrs = Hashtbl.create 8;
      vtmps = Hashtbl.create 4;
    }
  in
  let saved_sp = st.stack_ptr in
  let addressed = Func.addressed_vars f in
  (* Allocate slots / registers for every local. *)
  Hashtbl.iter
    (fun id (v : Var.t) ->
      if Var.is_global v then ()
      else if Hashtbl.mem addressed id || Var.is_memory_object v then begin
        let size = Ty.sizeof st.prog.structs v.ty in
        let align = Ty.alignof st.prog.structs v.ty in
        Hashtbl.replace fr.local_addrs id (alloc st size align)
      end
      else Hashtbl.replace fr.regs id (ref (V_int 0)))
    f.vars;
  (* Bind parameters. *)
  (try
     List.iter2
       (fun id arg ->
         let v = var_of st fr id in
         let arg = convert v.ty arg in
         match Hashtbl.find_opt fr.regs id with
         | Some r -> r := arg
         | None -> store_scalar st v.ty (addr_of_var st fr id) arg)
       f.params args
   with Invalid_argument _ ->
     error "call to %s with wrong argument count" f.name);
  let code = flatten f in
  let result = exec_code st fr code in
  st.stack_ptr <- saved_sp;
  result

and exec_code st fr code : value =
  let pc = ref 0 in
  let result = ref (V_int 0) in
  let running = ref true in
  while !running do
    if !pc >= Array.length code then running := false
    else begin
      st.steps <- st.steps + 1;
      if st.steps > st.max_steps then raise Timeout;
      let next = !pc + 1 in
      (match code.(!pc) with
      | Onop -> pc := next
      | Oassign (lv, e) ->
          let v = eval st fr e in
          assign_lvalue st fr lv v;
          pc := next
      | Ocall (dst, tgt, args) ->
          let argv = List.map (eval st fr) args in
          let value = do_call st tgt argv in
          (match dst with
          | Some lv -> assign_lvalue st fr lv value
          | None -> ());
          pc := next
      | Obranch_false (c, target) ->
          pc := if truthy (eval st fr c) then next else !target
      | Ojump target -> pc := !target
      | Odo_test { index; hi; step; exit_pc } ->
          let iv = as_int (eval st fr (Expr.var_id index Ty.Int)) in
          let hv = as_int (eval st fr hi) in
          let sv = as_int (eval st fr step) in
          (* a zero step never advances the index: the loop would spin
             until the instruction budget ran out — reject it instead *)
          if sv = 0 && iv <= hv then
            error "DO loop step evaluates to 0 (the index would never advance)";
          let continue_ = if sv >= 0 then iv <= hv else iv >= hv in
          pc := if continue_ then next else !exit_pc
      | Oreturn e ->
          (match e with
          | Some e -> result := eval st fr e
          | None -> ());
          running := false
      | Ovector v ->
          exec_vector st fr v;
          pc := next
      | Ovdef vd ->
          exec_vdef st fr vd;
          pc := next)
    end
  done;
  !result

and assign_lvalue st fr lv value =
  match lv with
  | Stmt.Lvar id -> (
      let v = var_of st fr id in
      let value = convert v.ty value in
      match Hashtbl.find_opt fr.regs id with
      | Some r -> r := value
      | None -> store_scalar st v.ty (addr_of_var st fr id) value)
  | Stmt.Lmem addr_e ->
      let addr = as_int (eval st fr addr_e) in
      let elt =
        match addr_e.ty with
        | Ty.Ptr t -> t
        | _ -> error "store through non-pointer"
      in
      store_scalar st elt addr value

and do_call st tgt argv =
  match tgt with
  | Stmt.Direct name -> (
      match Prog.find_func st.prog name with
      | Some f -> run_function st f argv
      | None -> (
          match builtin st name argv with
          | Some v -> v
          | None -> error "call to undefined function %s" name))
  | Stmt.Indirect _ -> error "indirect calls are not supported"

(* Evaluate a whole vector expression over [count] elements first: true
   vector-register semantics.  [elt] is the element type driving float
   rounding of vector arithmetic (the enclosing statement's velt/vty). *)
and eval_vexpr st fr ~count ~elt =
  let rec go = function
    | Stmt.Vscalar e ->
        let value = eval st fr e in
        Array.make count value
    | Stmt.Viota (off, scale) ->
        let off = as_int (eval st fr off) in
        let scale = as_int (eval st fr scale) in
        Array.init count (fun i -> V_int (wrap32 (off + (scale * i))))
    | Stmt.Vcast (ty, a) -> Array.map (convert ty) (go a)
    | Stmt.Vsec sec ->
        let base = as_int (eval st fr sec.base) in
        let stride = as_int (eval st fr sec.stride) in
        let selt =
          match sec.base.ty with Ty.Ptr t -> t | _ -> error "bad section base"
        in
        Array.init count (fun i -> load_scalar st selt (base + (i * stride)))
    | Stmt.Vbin (op, a, b) ->
        let va = go a and vb = go b in
        if Ty.is_float elt then st.float_ops <- st.float_ops + count;
        if is_comparison op then Array.map2 (eval_compare op) va vb
        else Array.map2 (eval_binop op elt) va vb
    | Stmt.Vun (op, a) ->
        let va = go a in
        Array.map
          (fun x ->
            match op, x with
            | Expr.Neg, V_int n -> V_int (wrap32 (-n))
            | Expr.Neg, V_float f -> V_float (-.f)
            | Expr.Lognot, x -> V_int (if truthy x then 0 else 1)
            | Expr.Bitnot, x -> V_int (wrap32 (lnot (as_int x))))
          va
    | Stmt.Vtmp (t, _) -> (
        match Hashtbl.find_opt fr.vtmps t with
        | Some a when Array.length a >= count -> Array.sub a 0 count
        | Some _ -> error "vector temporary vt%d shorter than use" t
        | None -> error "vector temporary vt%d read before definition" t)
  in
  go

and exec_vector st fr (v : Stmt.vstmt) =
  let dst_base = as_int (eval st fr v.vdst.base) in
  let count = as_int (eval st fr v.vdst.count) in
  let dst_stride = as_int (eval st fr v.vdst.stride) in
  if count < 0 then error "negative vector count";
  let rhs = eval_vexpr st fr ~count ~elt:v.velt v.vsrc in
  Array.iteri
    (fun i value ->
      store_scalar st v.velt (dst_base + (i * dst_stride)) (convert v.velt value))
    rhs

(* Bind a vector temporary: evaluate the full right-hand side, convert to
   the declared element type (matching what a [Vector] store would have
   kept), and rebind — self-referencing accumulators therefore read the
   previous binding. *)
and exec_vdef st fr (vd : Stmt.vdef) =
  let count = as_int (eval st fr vd.vcount) in
  if count < 0 then error "negative vector count";
  let rhs = eval_vexpr st fr ~count ~elt:vd.vty vd.vval in
  Hashtbl.replace fr.vtmps vd.vt (Array.map (convert vd.vty) rhs)

(* ----------------------------------------------------------------- *)
(* Entry points                                                      *)
(* ----------------------------------------------------------------- *)

type result = {
  return_value : value;
  stdout_text : string;
  fp_ops : int;
  steps_executed : int;
}

let create_state ?(max_steps = 50_000_000) ?on_volatile_read prog =
  let st =
    {
      prog;
      mem = Bytes.make mem_size '\000';
      stack_ptr = 16;  (* address 0 stays unmapped-ish: null *)
      global_addrs = Hashtbl.create 16;
      output = Buffer.create 256;
      steps = 0;
      max_steps;
      on_volatile_read;
      float_ops = 0;
    }
  in
  List.iter (layout_global st) (Prog.globals_list st.prog);
  st

let run ?max_steps ?on_volatile_read ?(entry = "main") ?(args = []) prog =
  let st = create_state ?max_steps ?on_volatile_read prog in
  let f = Prog.func_exn prog entry in
  let return_value = run_function st f args in
  {
    return_value;
    stdout_text = Buffer.contents st.output;
    fp_ops = st.float_ops;
    steps_executed = st.steps;
  }

(* Run and read back the final contents of a global array of [n] elements
   — how most tests observe results. *)
let global_array_values st prog name n =
  let g =
    List.find_opt (fun (g : Prog.global) -> g.gvar.name = name) (Prog.globals_list prog)
  in
  match g with
  | None -> error "no global named %s" name
  | Some g ->
      let elt = match g.gvar.ty with Ty.Array (e, _) -> e | t -> t in
      let size = Ty.sizeof prog.structs elt in
      let addr = Hashtbl.find st.global_addrs g.gvar.Var.id in
      List.init n (fun i -> load_scalar st elt (addr + (i * size)))

let run_with_state ?max_steps ?on_volatile_read ?(entry = "main") ?(args = [])
    prog =
  let st = create_state ?max_steps ?on_volatile_read prog in
  let f = Prog.func_exn prog entry in
  let return_value = run_function st f args in
  ( st,
    {
      return_value;
      stdout_text = Buffer.contents st.output;
      fp_ops = st.float_ops;
      steps_executed = st.steps;
    } )
