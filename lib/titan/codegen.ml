(* Code generation from optimized IL to Titan instructions.

   Scalar variables live in (virtual) registers unless their address is
   taken or they are volatile — volatile variables get "special treatment
   at almost every phase" (§1): every access is a marked memory operation
   that the simulator will not reorder or cache.

   DO-loop bounds are evaluated once at entry (the while→DO conversion
   binds variant bounds to temps), vector statements map one-to-one onto
   vector loads/ALU ops/stores, and a parallel DO loop is bracketed with
   Par_enter/Par_iter/Par_exit markers that the simulator uses to spread
   iterations over processors. *)

open Vpc_support
open Vpc_il
open Isa

exception Codegen_error of string

let err fmt = Format.kasprintf (fun m -> raise (Codegen_error m)) fmt

type env = {
  prog : Prog.t;
  func : Func.t;
  reg_of_var : (int, reg) Hashtbl.t;
  frame_offset : (int, int) Hashtbl.t;
  mutable nregs : int;
  mutable nvregs : int;
  mutable frame_size : int;
  mutable code : inst list;  (* reversed *)
  label_counter : Gensym.t;
  global_addr : int -> int;  (* var id -> absolute address *)
  instrument : bool;  (* emit Prof markers for the profile collector *)
  (* IL vector temporary id -> its fixed vector register.  Fixed, not
     fresh per definition: an accumulator redefined inside a loop must
     land in the same register on every iteration so the value stays
     resident across the back edge. *)
  vtmp_reg : (int, vreg) Hashtbl.t;
}

(* Profile key of a statement: its source position, if it has one.
   Compiler-generated statements are not profiled. *)
let prof_key (s : Stmt.t) =
  Vpc_profile.Key.of_loc s.Stmt.loc

let emit_prof env (s : Stmt.t) (mk : Vpc_profile.Key.t -> prof_event) =
  if env.instrument then
    match prof_key s with
    | Some k -> env.code <- Prof (mk k) :: env.code
    | None -> ()

let emit env i = env.code <- i :: env.code

let fresh_reg env =
  let r = env.nregs in
  env.nregs <- r + 1;
  r

let fresh_vreg env =
  let v = env.nvregs in
  env.nvregs <- v + 1;
  v

let fresh_label env prefix =
  Printf.sprintf ".%s_%s_%d" env.func.Func.name prefix
    (Gensym.fresh env.label_counter)

let var_meta env id =
  match Prog.find_var env.prog (Some env.func) id with
  | Some v -> v
  | None -> err "unknown variable id %d" id

(* The env plus the set of address-taken locals of the function. *)
type classified_env = { e : env; addressed : (int, unit) Hashtbl.t }

let reg_for env (v : Var.t) =
  match Hashtbl.find_opt env.reg_of_var v.Var.id with
  | Some r -> r
  | None ->
      let r = fresh_reg env in
      Hashtbl.replace env.reg_of_var v.Var.id r;
      r

(* The frame base is conveyed in register 0 (set up by the machine at
   call time); a frame address is base + offset. *)
let frame_reg ce off =
  let r = fresh_reg ce.e in
  emit ce.e (Ialu (Iadd, r, Reg 0, Imm_int off));
  r

(* Address operand for a memory-resident variable. *)
let var_address ce (v : Var.t) : operand =
  if Var.is_global v then Imm_int (ce.e.global_addr v.Var.id)
  else
    match Hashtbl.find_opt ce.e.frame_offset v.Var.id with
    | Some off -> Reg (frame_reg ce off)
    | None -> err "variable %s has no frame slot" v.Var.name

let is_float_ty = Ty.is_float

let binop_float_op : Expr.binop -> falu_op = function
  | Expr.Add -> Fadd
  | Expr.Sub -> Fsub
  | Expr.Mul -> Fmul
  | Expr.Div -> Fdiv
  | Expr.Eq -> Fcmp_eq
  | Expr.Ne -> Fcmp_ne
  | Expr.Lt -> Fcmp_lt
  | Expr.Le -> Fcmp_le
  | Expr.Gt -> Fcmp_gt
  | Expr.Ge -> Fcmp_ge
  | Expr.Rem | Expr.Shl | Expr.Shr | Expr.Band | Expr.Bor | Expr.Bxor ->
      err "float bit operation"

let binop_int_op : Expr.binop -> ialu_op = function
  | Expr.Add -> Iadd
  | Expr.Sub -> Isub
  | Expr.Mul -> Imul
  | Expr.Div -> Idiv
  | Expr.Rem -> Irem
  | Expr.Shl -> Ishl
  | Expr.Shr -> Ishr
  | Expr.Band -> Iand
  | Expr.Bor -> Ior
  | Expr.Bxor -> Ixor
  | Expr.Eq -> Icmp_eq
  | Expr.Ne -> Icmp_ne
  | Expr.Lt -> Icmp_lt
  | Expr.Le -> Icmp_le
  | Expr.Gt -> Icmp_gt
  | Expr.Ge -> Icmp_ge

let is_comparison : Expr.binop -> bool = function
  | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> true
  | _ -> false

(* ----------------------------------------------------------------- *)
(* Expressions                                                       *)
(* ----------------------------------------------------------------- *)

let rec gen_expr ce (e : Expr.t) : operand =
  match e.Expr.desc with
  | Expr.Const_int n -> Imm_int n
  | Expr.Const_float f -> (
      (* a float-typed constant is a single-precision value, as the IL
         interpreter evaluates it *)
      match e.Expr.ty with
      | Ty.Float -> Imm_float (Int32.float_of_bits (Int32.bits_of_float f))
      | _ -> Imm_float f)
  | Expr.Var id ->
      let v = var_meta ce.e id in
      if Hashtbl.mem ce.addressed id || Var.is_memory_object v || v.volatile
         || Var.is_global v
      then begin
        let addr = var_address ce v in
        let dst = fresh_reg ce.e in
        emit ce.e (Load { dst; addr; ty = v.ty; volatile = v.volatile });
        Reg dst
      end
      else Reg (reg_for ce.e v)
  | Expr.Addr_of id ->
      let v = var_meta ce.e id in
      var_address ce v
  | Expr.Load p ->
      let addr = gen_expr ce p in
      let elt = match p.Expr.ty with Ty.Ptr t -> t | _ -> err "load via non-pointer" in
      let dst = fresh_reg ce.e in
      emit ce.e (Load { dst; addr; ty = elt; volatile = false });
      Reg dst
  | Expr.Binop (op, a, b) ->
      let oa = gen_expr ce a and ob = gen_expr ce b in
      let dst = fresh_reg ce.e in
      let operand_float = is_float_ty a.Expr.ty || is_float_ty b.Expr.ty in
      if is_comparison op then
        if operand_float then
          emit ce.e
            (Falu
               ( binop_float_op op, dst, oa, ob,
                 if a.Expr.ty = Ty.Float && b.Expr.ty = Ty.Float then Ty.Float
                 else Ty.Double ))
        else emit ce.e (Ialu (binop_int_op op, dst, oa, ob))
      else if is_float_ty e.Expr.ty then
        emit ce.e (Falu (binop_float_op op, dst, oa, ob, e.Expr.ty))
      else emit ce.e (Ialu (binop_int_op op, dst, oa, ob));
      Reg dst
  | Expr.Unop (Expr.Neg, a) ->
      let oa = gen_expr ce a in
      let dst = fresh_reg ce.e in
      if is_float_ty e.Expr.ty then emit ce.e (Fneg (dst, oa, e.Expr.ty))
      else emit ce.e (Ialu (Isub, dst, Imm_int 0, oa));
      Reg dst
  | Expr.Unop (Expr.Lognot, a) ->
      let oa = gen_expr ce a in
      let dst = fresh_reg ce.e in
      if is_float_ty a.Expr.ty then
        emit ce.e (Falu (Fcmp_eq, dst, oa, Imm_float 0.0, a.Expr.ty))
      else emit ce.e (Ialu (Icmp_eq, dst, oa, Imm_int 0));
      Reg dst
  | Expr.Unop (Expr.Bitnot, a) ->
      let oa = gen_expr ce a in
      let dst = fresh_reg ce.e in
      emit ce.e (Ialu (Inot, dst, oa, Imm_int 0));
      Reg dst
  | Expr.Cast (ty, a) -> gen_cast ce ty a

and gen_cast ce ty (a : Expr.t) : operand =
  let oa = gen_expr ce a in
  let from = a.Expr.ty in
  match from, ty with
  | (Ty.Float | Ty.Double), (Ty.Int | Ty.Char | Ty.Ptr _) ->
      let dst = fresh_reg ce.e in
      emit ce.e (Cvt_fi (dst, oa));
      if ty = Ty.Char then truncate_char ce (Reg dst) else Reg dst
  | (Ty.Int | Ty.Char | Ty.Ptr _ | Ty.Func _), (Ty.Float | Ty.Double) ->
      let dst = fresh_reg ce.e in
      emit ce.e (Cvt_if (dst, oa));
      if ty = Ty.Float then begin
        let dst2 = fresh_reg ce.e in
        emit ce.e (Cvt_ff (dst2, Reg dst, Ty.Float));
        Reg dst2
      end
      else Reg dst
  | Ty.Double, Ty.Float | Ty.Float, Ty.Double ->
      let dst = fresh_reg ce.e in
      emit ce.e (Cvt_ff (dst, oa, ty));
      Reg dst
  | _, Ty.Char -> truncate_char ce oa
  | _ -> oa  (* int/pointer casts are free *)

and truncate_char ce o =
  let t1 = fresh_reg ce.e and t2 = fresh_reg ce.e in
  emit ce.e (Ialu (Ishl, t1, o, Imm_int 24));
  emit ce.e (Ialu (Ishr, t2, Reg t1, Imm_int 24));
  Reg t2

(* ----------------------------------------------------------------- *)
(* Vector expressions                                                *)
(* ----------------------------------------------------------------- *)

(* Element type of a vexpr, needed to pick int vs float vector ALU ops. *)
let rec vexpr_ty (ve : Stmt.vexpr) : Ty.t =
  match ve with
  | Stmt.Vsec sec -> (
      match sec.Stmt.base.Expr.ty with Ty.Ptr t -> t | t -> t)
  | Stmt.Vscalar e -> e.Expr.ty
  | Stmt.Viota _ -> Ty.Int
  | Stmt.Vcast (ty, _) -> ty
  | Stmt.Vbin (op, a, b) ->
      if is_comparison op then Ty.Int
      else
        let ta = vexpr_ty a and tb = vexpr_ty b in
        if Ty.is_float ta then ta else if Ty.is_float tb then tb else ta
  | Stmt.Vun (_, a) -> vexpr_ty a
  | Stmt.Vtmp (_, ty) -> ty

(* [into]: the vector register the top-level result must land in (used by
   [gen_vdef] to target a temporary's fixed register); sub-expressions
   always get fresh registers.  Cases that produce no new vector value
   ([Vscalar], [Vtmp]) ignore it — the caller copes. *)
let rec gen_vexpr ce ~len ?into (ve : Stmt.vexpr) : vsrc =
  let result_vreg () =
    match into with Some r -> r | None -> fresh_vreg ce.e
  in
  match ve with
  | Stmt.Vscalar e -> Vscal (gen_expr ce e)
  | Stmt.Vtmp (t, _) -> (
      match Hashtbl.find_opt ce.e.vtmp_reg t with
      | Some r ->
          (* a register read replacing what used to be a vector load *)
          emit ce.e (Vsaved { len });
          Vr r
      | None -> err "vector temporary vt%d read before definition" t)
  | Stmt.Vsec sec ->
      let base = gen_expr ce sec.Stmt.base in
      let stride = gen_expr ce sec.Stmt.stride in
      let elt = match sec.Stmt.base.Expr.ty with Ty.Ptr t -> t | t -> t in
      let dst = result_vreg () in
      emit ce.e (Vload { dst; base; stride; len; ty = elt });
      Vr dst
  | Stmt.Viota (off, scale) ->
      let offset = gen_expr ce off in
      let scale = gen_expr ce scale in
      let dst = result_vreg () in
      emit ce.e (Viota { dst; offset; scale; len });
      Vr dst
  | Stmt.Vcast (ty, a) -> (
      match gen_vexpr ce ~len a with
      | Vr v ->
          let dst = result_vreg () in
          emit ce.e (Vcvt { dst; a = v; len; to_ = ty });
          Vr dst
      | Vscal o ->
          (* scalar broadcast: convert the scalar *)
          let src_ty = vexpr_ty a in
          let conv =
            gen_cast ce ty
              { Expr.desc = Expr.Const_int 0; ty = src_ty }
          in
          ignore conv;
          (* we cannot re-wrap an operand through gen_cast without the
             original expression; emit the conversion directly *)
          let dst = fresh_reg ce.e in
          (match src_ty, ty with
          | (Ty.Int | Ty.Char | Ty.Ptr _), (Ty.Float | Ty.Double) ->
              emit ce.e (Cvt_if (dst, o))
          | (Ty.Float | Ty.Double), (Ty.Int | Ty.Char) ->
              emit ce.e (Cvt_fi (dst, o))
          | _ -> emit ce.e (Imov (dst, o)));
          Vscal (Reg dst))
  | Stmt.Vbin (op, a, b) ->
      let ta = vexpr_ty ve in
      let sa = gen_vexpr ce ~len a and sb = gen_vexpr ce ~len b in
      let dst = result_vreg () in
      let op' =
        if Ty.is_float ta || Ty.is_float (vexpr_ty a) then Fop (binop_float_op op)
        else Iop (binop_int_op op)
      in
      emit ce.e (Vop { op = op'; dst; a = sa; b = sb; len; ty = ta });
      Vr dst
  | Stmt.Vun (Expr.Neg, a) ->
      let ta = vexpr_ty ve in
      let sa = gen_vexpr ce ~len a in
      let dst = result_vreg () in
      emit ce.e (Vneg { dst; a = sa; len; ty = ta });
      Vr dst
  | Stmt.Vun (Expr.Lognot, a) ->
      (* !x is x == 0 elementwise *)
      let sa = gen_vexpr ce ~len a in
      let dst = result_vreg () in
      let op =
        if Ty.is_float (vexpr_ty a) then Fop Fcmp_eq else Iop Icmp_eq
      in
      let zero : vsrc =
        if Ty.is_float (vexpr_ty a) then Vscal (Imm_float 0.0)
        else Vscal (Imm_int 0)
      in
      emit ce.e (Vop { op; dst; a = sa; b = zero; len; ty = Ty.Int });
      Vr dst
  | Stmt.Vun (Expr.Bitnot, a) ->
      (* ~x is x xor -1 elementwise *)
      let sa = gen_vexpr ce ~len a in
      let dst = result_vreg () in
      emit ce.e
        (Vop { op = Iop Ixor; dst; a = sa; b = Vscal (Imm_int (-1)); len; ty = Ty.Int });
      Vr dst

(* ----------------------------------------------------------------- *)
(* Statements                                                        *)
(* ----------------------------------------------------------------- *)

(* [par_depth]: > 0 when inside a parallel loop (nested parallel loops
   run serially on their processor). *)
let rec gen_stmt ce ~par_depth (s : Stmt.t) =
  match s.Stmt.desc with
  | Stmt.Nop -> ()
  | Stmt.Assign (Stmt.Lvar id, rhs) ->
      let v = var_meta ce.e id in
      let o = gen_expr ce (Expr.cast v.ty rhs) in
      if Hashtbl.mem ce.addressed id || v.volatile || Var.is_global v then begin
        let addr = var_address ce v in
        emit ce.e (Store { src = o; addr; ty = v.ty; volatile = v.volatile })
      end
      else begin
        let r = reg_for ce.e v in
        match o with
        | Reg r2 when r2 = r -> ()
        | _ -> emit ce.e (Imov (r, o))
      end
  | Stmt.Assign (Stmt.Lmem addr, rhs) ->
      let elt = match addr.Expr.ty with Ty.Ptr t -> t | t -> t in
      let oaddr = gen_expr ce addr in
      let orhs = gen_expr ce (Expr.cast elt rhs) in
      emit ce.e (Store { src = orhs; addr = oaddr; ty = elt; volatile = false })
  | Stmt.Call (dst, Stmt.Direct name, args) ->
      let oargs = List.map (gen_expr ce) args in
      let dreg =
        match dst with
        | None -> None
        | Some (Stmt.Lvar id) ->
            let v = var_meta ce.e id in
            if Hashtbl.mem ce.addressed id || v.volatile || Var.is_global v then
              Some (fresh_reg ce.e)  (* stored below *)
            else Some (reg_for ce.e v)
        | Some (Stmt.Lmem _) -> Some (fresh_reg ce.e)
      in
      emit_prof ce.e s (fun k -> Pcall_begin (k, name));
      emit ce.e (Call { dst = dreg; name; args = oargs });
      emit_prof ce.e s (fun k -> Pcall_end k);
      (match dst, dreg with
      | Some (Stmt.Lvar id), Some r ->
          let v = var_meta ce.e id in
          if Hashtbl.mem ce.addressed id || v.volatile || Var.is_global v then
            let addr = var_address ce v in
            emit ce.e (Store { src = Reg r; addr; ty = v.ty; volatile = v.volatile })
      | Some (Stmt.Lmem addr), Some r ->
          let elt = match addr.Expr.ty with Ty.Ptr t -> t | t -> t in
          let oaddr = gen_expr ce addr in
          emit ce.e (Store { src = Reg r; addr = oaddr; ty = elt; volatile = false })
      | _ -> ())
  | Stmt.Call (_, Stmt.Indirect _, _) -> err "indirect calls not supported"
  | Stmt.Return e ->
      let o = Option.map (gen_expr ce) e in
      emit ce.e (Ret o)
  | Stmt.Goto l -> emit ce.e (Jump ("u." ^ l))
  | Stmt.Label l -> emit ce.e (Label_def ("u." ^ l))
  | Stmt.If (c, then_, else_) ->
      let oc = gen_expr ce c in
      let l_else = fresh_label ce.e "else" in
      let l_end = fresh_label ce.e "endif" in
      emit ce.e (Branch_zero (oc, l_else));
      List.iter (gen_stmt ce ~par_depth) then_;
      if else_ = [] then emit ce.e (Label_def l_else)
      else begin
        emit ce.e (Jump l_end);
        emit ce.e (Label_def l_else);
        List.iter (gen_stmt ce ~par_depth) else_;
        emit ce.e (Label_def l_end)
      end
  | Stmt.While (li, c, body) ->
      let l_head = fresh_label ce.e "while" in
      let l_end = fresh_label ce.e "wend" in
      let doacross = li.Stmt.doacross && par_depth = 0 in
      emit_prof ce.e s (fun k -> Ploop_enter k);
      if doacross then emit ce.e Par_enter;
      emit ce.e (Label_def l_head);
      if doacross then emit ce.e Par_iter;
      let oc = gen_expr ce c in
      emit ce.e (Branch_zero (oc, l_end));
      emit_prof ce.e s (fun k -> Ploop_iter k);
      if doacross then begin
        (* serialized prefix (the pointer advance, §10), then the
           spreadable rest *)
        let rec split i = function
          | [] -> ([], [])
          | x :: rest when i > 0 ->
              let a, b = split (i - 1) rest in
              (x :: a, b)
          | rest -> ([], rest)
        in
        let serial, rest = split li.Stmt.serial_prefix body in
        List.iter (gen_stmt ce ~par_depth:(par_depth + 1)) serial;
        emit ce.e Par_serial_end;
        List.iter (gen_stmt ce ~par_depth:(par_depth + 1)) rest
      end
      else List.iter (gen_stmt ce ~par_depth) body;
      emit ce.e (Jump l_head);
      emit ce.e (Label_def l_end);
      if doacross then emit ce.e Par_exit;
      emit_prof ce.e s (fun k -> Ploop_exit k)
  | Stmt.Do_loop d -> gen_do_loop ce ~par_depth ~stmt:s d
  | Stmt.Vector v -> gen_vector ce v
  | Stmt.Vdef vd -> gen_vdef ce vd

and gen_do_loop ce ~par_depth ~stmt (d : Stmt.do_loop) =
  let v = var_meta ce.e d.index in
  let idx = reg_for ce.e v in
  let o_lo = gen_expr ce d.lo in
  emit ce.e (Imov (idx, o_lo));
  (* bounds are loop-entry values: materialize into registers *)
  let o_hi = gen_expr ce d.hi in
  let hi = fresh_reg ce.e in
  emit ce.e (Imov (hi, o_hi));
  let step_const = match d.step.Expr.desc with Expr.Const_int c -> Some c | _ -> None in
  let o_step = gen_expr ce d.step in
  let step = fresh_reg ce.e in
  emit ce.e (Imov (step, o_step));
  let l_head = fresh_label ce.e "do" in
  let l_end = fresh_label ce.e "done" in
  let parallel = d.parallel && par_depth = 0 in
  let doacross = d.sync <> [] && (not parallel) && par_depth = 0 in
  emit_prof ce.e stmt (fun k -> Ploop_enter k);
  if parallel then emit ce.e Par_enter;
  if doacross then emit ce.e Da_enter;
  emit ce.e (Label_def l_head);
  (* continue while (step >= 0 ? idx <= hi : idx >= hi) *)
  let cond = fresh_reg ce.e in
  (match step_const with
  | Some c when c >= 0 -> emit ce.e (Ialu (Icmp_le, cond, Reg idx, Reg hi))
  | Some _ -> emit ce.e (Ialu (Icmp_ge, cond, Reg idx, Reg hi))
  | None ->
      (* sign-dependent test, computed arithmetically:
         (step>=0) ? idx<=hi : idx>=hi *)
      let pos = fresh_reg ce.e in
      emit ce.e (Ialu (Icmp_ge, pos, Reg step, Imm_int 0));
      let le = fresh_reg ce.e and ge = fresh_reg ce.e in
      emit ce.e (Ialu (Icmp_le, le, Reg idx, Reg hi));
      emit ce.e (Ialu (Icmp_ge, ge, Reg idx, Reg hi));
      let t1 = fresh_reg ce.e and t2 = fresh_reg ce.e and np = fresh_reg ce.e in
      emit ce.e (Ialu (Iand, t1, Reg pos, Reg le));
      emit ce.e (Ialu (Icmp_eq, np, Reg pos, Imm_int 0));
      emit ce.e (Ialu (Iand, t2, Reg np, Reg ge));
      emit ce.e (Ialu (Ior, cond, Reg t1, Reg t2)));
  emit ce.e (Branch_zero (Reg cond, l_end));
  if parallel || doacross then emit ce.e Par_iter;
  emit_prof ce.e stmt (fun k -> Ploop_iter k);
  let inner_depth = par_depth + if parallel || doacross then 1 else 0 in
  if doacross then
    (* interleave the recorded post/wait pairs: wait before the first
       read of each crossing edge, post after its last write *)
    List.iteri
      (fun i s ->
        List.iter
          (fun (y : Stmt.dsync) ->
            if y.Stmt.wait_before = i then
              emit ce.e
                (Wait
                   { chan = y.Stmt.chan; dist = y.Stmt.distance;
                     cum = y.Stmt.cum }))
          d.sync;
        gen_stmt ce ~par_depth:inner_depth s;
        List.iter
          (fun (y : Stmt.dsync) ->
            if y.Stmt.post_after = i then
              emit ce.e (Post { chan = y.Stmt.chan }))
          d.sync)
      d.body
  else List.iter (gen_stmt ce ~par_depth:inner_depth) d.body;
  emit ce.e (Ialu (Iadd, idx, Reg idx, Reg step));
  emit ce.e (Jump l_head);
  emit ce.e (Label_def l_end);
  if parallel || doacross then emit ce.e Par_exit;
  emit_prof ce.e stmt (fun k -> Ploop_exit k)

and gen_vector ce (v : Stmt.vstmt) =
  let len_o = gen_expr ce v.Stmt.vdst.Stmt.count in
  let len = fresh_reg ce.e in
  emit ce.e (Imov (len, len_o));
  let len = Reg len in
  let src =
    match v.Stmt.vsrc with
    | Stmt.Vtmp (t, _) -> (
        (* storing a temporary back to memory is reuse plumbing, not an
           avoided memory operation: don't emit a [Vsaved] marker *)
        match Hashtbl.find_opt ce.e.vtmp_reg t with
        | Some r -> Vr r
        | None -> err "vector temporary vt%d read before definition" t)
    | ve -> gen_vexpr ce ~len ve
  in
  let base = gen_expr ce v.Stmt.vdst.Stmt.base in
  let stride = gen_expr ce v.Stmt.vdst.Stmt.stride in
  let src_vr =
    match src with
    | Vr r -> r
    | Vscal o ->
        (* broadcast: iota with scale 0 *)
        let dst = fresh_vreg ce.e in
        (match o with
        | Imm_float _ | Reg _ | Imm_int _ ->
            emit ce.e (Viota { dst; offset = o; scale = Imm_int 0; len }));
        dst
  in
  (* convert to the destination element type if needed *)
  let src_ty = vexpr_ty v.Stmt.vsrc in
  let src_vr =
    if Ty.is_float v.Stmt.velt <> Ty.is_float src_ty then begin
      let dst = fresh_vreg ce.e in
      emit ce.e (Vcvt { dst; a = src_vr; len; to_ = v.Stmt.velt });
      dst
    end
    else src_vr
  in
  emit ce.e
    (Vstore { src = src_vr; base; stride; len; ty = v.Stmt.velt })

and gen_vdef ce (vd : Stmt.vdef) =
  let len_o = gen_expr ce vd.Stmt.vcount in
  let len = fresh_reg ce.e in
  emit ce.e (Imov (len, len_o));
  let len = Reg len in
  let target =
    match Hashtbl.find_opt ce.e.vtmp_reg vd.Stmt.vt with
    | Some r -> r
    | None ->
        let r = fresh_vreg ce.e in
        Hashtbl.replace ce.e.vtmp_reg vd.Stmt.vt r;
        r
  in
  let self_ref = ref false in
  let rec scan = function
    | Stmt.Vtmp (t, _) when t = vd.Stmt.vt -> self_ref := true
    | Stmt.Vtmp _ | Stmt.Vscalar _ | Stmt.Vsec _ | Stmt.Viota _ -> ()
    | Stmt.Vcast (_, a) | Stmt.Vun (_, a) -> scan a
    | Stmt.Vbin (_, a, b) ->
        scan a;
        scan b
  in
  scan vd.Stmt.vval;
  let src_ty = vexpr_ty vd.Stmt.vval in
  let need_cvt = Ty.is_float vd.Stmt.vty <> Ty.is_float src_ty in
  let src =
    if need_cvt then gen_vexpr ce ~len vd.Stmt.vval
    else gen_vexpr ce ~len ~into:target vd.Stmt.vval
  in
  (match src with
  | Vr r when r = target && not need_cvt -> ()
  | Vr r ->
      (* materialize in the fixed register, converting to the bound type
         (a [Vdef] converts its value to [vty] on bind) *)
      emit ce.e (Vcvt { dst = target; a = r; len; to_ = vd.Stmt.vty })
  | Vscal o ->
      (* broadcast a scalar into the register *)
      let o =
        if need_cvt then begin
          let dst = fresh_reg ce.e in
          (if Ty.is_float src_ty then emit ce.e (Cvt_fi (dst, o))
           else emit ce.e (Cvt_if (dst, o)));
          Reg dst
        end
        else o
      in
      emit ce.e (Viota { dst = target; offset = o; scale = Imm_int 0; len }));
  (* a self-referencing definition is the accumulator idiom: the value
     stays resident instead of being stored back every iteration *)
  if !self_ref then emit ce.e (Vsaved { len })

(* ----------------------------------------------------------------- *)
(* Redundant-Vload cleanup                                           *)
(* ----------------------------------------------------------------- *)

(* Local value numbering over straight-line segments of the final
   instruction stream: a [Vload] computing the same (base, stride, len,
   type) value as an earlier one in the segment — by scalar value, not by
   register name — is deleted, a [Vsaved] marker takes its slot (so label
   pcs are undisturbed), and later reads of its register are redirected
   to the earlier load's register.

   Conservative by construction: segments end at labels, branches, calls
   and parallel markers; any store (scalar or vector) kills all available
   loads; a register substitution is only installed when both the
   original and the duplicate destination are defined exactly once in
   the segment, so the redirect is valid for the segment's remainder. *)
module Vload_cleanup = struct
  type term =
    | Opaque of int  (* unknown input: initial register value, load, call *)
    | Cint of int
    | Cfloat of float
    | Alu of ialu_op * int * int
    | Fop2 of falu_op * int * int * Ty.t
    | Neg of int * Ty.t
    | Conv of string * int * Ty.t

  let segment_end = function
    | Label_def _ | Jump _ | Branch_zero _ | Branch_nonzero _ | Call _
    | Ret _ | Par_enter | Par_iter | Par_serial_end | Par_exit | Da_enter
    | Post _ | Wait _ ->
        true
    | _ -> false

  (* scalar destination of an instruction, if any *)
  let scalar_def = function
    | Imov (d, _) | Ialu (_, d, _, _) | Falu (_, d, _, _, _) | Fneg (d, _, _)
    | Cvt_if (d, _) | Cvt_fi (d, _) | Cvt_ff (d, _, _) ->
        Some d
    | Load { dst; _ } -> Some dst
    | Call { dst; _ } -> dst
    | _ -> None

  let vector_def = function
    | Vload { dst; _ } | Vop { dst; _ } | Vneg { dst; _ } | Viota { dst; _ }
    | Vcvt { dst; _ } ->
        Some dst
    | _ -> None

  let run (code : inst array) : inst array =
    let code = Array.copy code in
    let n = Array.length code in
    let saved = ref 0 in
    let seg_start = ref 0 in
    while !seg_start < n do
      (* find segment [lo, hi) *)
      let lo = !seg_start in
      let hi = ref lo in
      while !hi < n && not (segment_end code.(!hi)) do incr hi done;
      let hi = if !hi < n then !hi + 1 else !hi in
      seg_start := hi;
      (* vector registers defined exactly once in the segment are safe to
         redirect to / from *)
      let vdefs = Hashtbl.create 16 in
      for i = lo to hi - 1 do
        match vector_def code.(i) with
        | Some v ->
            Hashtbl.replace vdefs v (1 + Option.value ~default:0 (Hashtbl.find_opt vdefs v))
        | None -> ()
      done;
      let once v = Hashtbl.find_opt vdefs v = Some 1 in
      (* value numbering state *)
      let terms : (term, int) Hashtbl.t = Hashtbl.create 64 in
      let next_vn = ref 0 in
      let vn_of_term t =
        match Hashtbl.find_opt terms t with
        | Some v -> v
        | None ->
            let v = !next_vn in
            incr next_vn;
            Hashtbl.replace terms t v;
            v
      in
      let opaque () =
        let v = !next_vn in
        incr next_vn;
        Hashtbl.replace terms (Opaque v) v;
        v
      in
      let reg_vn : (reg, int) Hashtbl.t = Hashtbl.create 32 in
      let vn_of_reg r =
        match Hashtbl.find_opt reg_vn r with
        | Some v -> v
        | None ->
            let v = opaque () in
            Hashtbl.replace reg_vn r v;
            v
      in
      let vn_of_operand = function
        | Reg r -> vn_of_reg r
        | Imm_int k -> vn_of_term (Cint k)
        | Imm_float f -> vn_of_term (Cfloat f)
      in
      (* (base vn, stride vn, len vn, ty) -> earlier Vload's register *)
      let avail : (int * int * int * Ty.t, vreg) Hashtbl.t =
        Hashtbl.create 16
      in
      (* duplicate register -> earlier register *)
      let subst : (vreg, vreg) Hashtbl.t = Hashtbl.create 8 in
      let sub v = Option.value ~default:v (Hashtbl.find_opt subst v) in
      let sub_vsrc = function Vr v -> Vr (sub v) | Vscal o -> Vscal o in
      for i = lo to hi - 1 do
        (* rewrite vector-register uses through the substitution *)
        (match code.(i) with
        | Vstore s -> code.(i) <- Vstore { s with src = sub s.src }
        | Vop o -> code.(i) <- Vop { o with a = sub_vsrc o.a; b = sub_vsrc o.b }
        | Vneg o -> code.(i) <- Vneg { o with a = sub_vsrc o.a }
        | Vcvt o -> code.(i) <- Vcvt { o with a = sub o.a }
        | _ -> ());
        (match code.(i) with
        | Vload { dst; base; stride; len; ty } -> (
            let key = (vn_of_operand base, vn_of_operand stride, vn_of_operand len, ty) in
            match Hashtbl.find_opt avail key with
            | Some prev when once dst && prev <> dst ->
                code.(i) <- Vsaved { len };
                Hashtbl.replace subst dst prev;
                incr saved
            | _ -> if once dst then Hashtbl.replace avail key dst)
        | Store _ | Vstore _ ->
            (* memory may have changed under an available load *)
            Hashtbl.reset avail
        | _ -> ());
        (* update scalar value numbers *)
        (match code.(i) with
        | Imov (d, o) -> Hashtbl.replace reg_vn d (vn_of_operand o)
        | Ialu (op, d, a, b) ->
            Hashtbl.replace reg_vn d
              (vn_of_term (Alu (op, vn_of_operand a, vn_of_operand b)))
        | Falu (op, d, a, b, ty) ->
            Hashtbl.replace reg_vn d
              (vn_of_term (Fop2 (op, vn_of_operand a, vn_of_operand b, ty)))
        | Fneg (d, a, ty) ->
            Hashtbl.replace reg_vn d (vn_of_term (Neg (vn_of_operand a, ty)))
        | Cvt_if (d, a) ->
            Hashtbl.replace reg_vn d (vn_of_term (Conv ("if", vn_of_operand a, Ty.Int)))
        | Cvt_fi (d, a) ->
            Hashtbl.replace reg_vn d (vn_of_term (Conv ("fi", vn_of_operand a, Ty.Int)))
        | Cvt_ff (d, a, ty) ->
            Hashtbl.replace reg_vn d (vn_of_term (Conv ("ff", vn_of_operand a, ty)))
        | Load { dst; _ } -> Hashtbl.replace reg_vn dst (opaque ())
        | _ -> (
            match scalar_def code.(i) with
            | Some d -> Hashtbl.replace reg_vn d (opaque ())
            | None -> ()))
      done
    done;
    ignore !saved;
    code
end

(* ----------------------------------------------------------------- *)
(* Function and program                                              *)
(* ----------------------------------------------------------------- *)

let gen_func ?(instrument = false) ?(vreuse = false) (prog : Prog.t)
    ~global_addr (f : Func.t) : Isa.func =
  let env =
    {
      prog;
      func = f;
      reg_of_var = Hashtbl.create 32;
      frame_offset = Hashtbl.create 8;
      nregs = 1;  (* register 0 is the frame base *)
      nvregs = 0;
      frame_size = 0;
      code = [];
      label_counter = Gensym.create ();
      global_addr;
      instrument;
      vtmp_reg = Hashtbl.create 8;
    }
  in
  let addressed = Func.addressed_vars f in
  let ce = { e = env; addressed } in
  (* frame slots for addressed / memory-object locals, in ascending
     variable-id order so the layout is a function of the IL alone, not
     of hash-table insertion history *)
  List.iter
    (fun (v : Var.t) ->
      let id = v.id in
      if
        (not (Var.is_global v))
        && (Hashtbl.mem addressed id || Var.is_memory_object v || v.volatile)
      then begin
        let size = Ty.sizeof prog.Prog.structs v.ty in
        let align = Ty.alignof prog.Prog.structs v.ty in
        let off = (env.frame_size + align - 1) / align * align in
        Hashtbl.replace env.frame_offset id off;
        env.frame_size <- off + size
      end)
    (Func.locals f);
  (* parameters arrive in their registers (or frame slots: the machine
     stores them on entry) *)
  List.iter
    (fun id ->
      let v = Func.var_exn f id in
      if not (Hashtbl.mem env.frame_offset id) then ignore (reg_for env v))
    f.Func.params;
  List.iter (gen_stmt ce ~par_depth:0) f.Func.body;
  emit env (Ret None);
  let code = Array.of_list (List.rev env.code) in
  let code = if vreuse then Vload_cleanup.run code else code in
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun pc inst ->
      match inst with
      | Label_def l -> Hashtbl.replace labels l pc
      | _ -> ())
    code;
  {
    fn_name = f.Func.name;
    code;
    reg_of_var = env.reg_of_var;
    frame_offset = env.frame_offset;
    frame_size = env.frame_size;
    param_ids = f.Func.params;
    labels;
    nregs = env.nregs;
    nvregs = env.nvregs;
  }

let gen_program ?(instrument = false) ?(vreuse = false) (prog : Prog.t)
    ~global_addr : Isa.program =
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun f ->
      Hashtbl.replace funcs f.Func.name
        (gen_func ~instrument ~vreuse prog ~global_addr f))
    prog.Prog.funcs;
  { Isa.funcs; prog }
