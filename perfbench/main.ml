(* The titancc benchmark.

     main.exe --workload nests|calls --seed N --seconds S --trace 0|1

   One run measures four phases in turn, each on inputs generated from
   the seed for the workload's kernel family:

   - compile: a corpus of 32 translation units of 1..16 renamed kernels,
     each compiled at -O3 and lowered to Titan code in a closed loop;
   - kernels: every kernel of the family at large trip counts, compiled
     at -O3 and simulated at 1, 2 and 4 processors, round after round;
   - daemon: one client in a closed loop against a compile-daemon child
     process over its socket, cycling over monorepo units of which a
     seeded share of requests carries a fresh edit;
   - tune: the simulator-in-the-loop tuner at 4 processors over the
     family's kernels, each search replayed from its stored winners.

   Every output is checked against a reference that does not come from
   the compiler: simulated runs against the IL interpreter on the
   unoptimized parse, daemon replies against a cache-less compile of the
   same source.  With [--trace 1] each phase runs untraced for half its
   time and traced for the other half, over the same ops; the run then
   reports per-layer figures and the tracing overhead, and writes its
   spans to [.perfbench_out/].  The last line of stdout is the result as
   JSON. *)

open Vpc
module Machine = Titan.Machine
module S = Vpc_server.Service
module C = Vpc_server.Cache
module P = Vpc_server.Protocol
module R = Report

let now = Unix.gettimeofday
let out_dir = ".perfbench_out"

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Calls into the layers, each inside a span                           *)
(* ------------------------------------------------------------------ *)

let bucket_layer = function
  | "parse" -> "cfront"
  | "transforms" -> "transform"
  | "catalog-import" -> "inline"
  | name -> name

(* Compile-time buckets of traced compiles, summed by layer. *)
let buckets : (string, float) Hashtbl.t = Hashtbl.create 16

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))

let compile ?(options = Vpc.o3) src =
  Trace.span "core" (fun () ->
      if !Trace.enabled then begin
        let timer = Support.Timing.create () in
        let r = Vpc.compile ~options ~timer src in
        List.iter
          (fun (name, s) ->
            let layer = bucket_layer name in
            bump buckets layer s;
            Trace.add layer s)
          (Support.Timing.phases timer);
        r
      end
      else Vpc.compile ~options src)

(* Lower to Titan code; returns the static instruction count. *)
let codegen (prog : Il.Prog.t) =
  Trace.span "codegen" (fun () ->
      let t0 = now () in
      let layout = Machine.layout_globals prog in
      let isa =
        Titan.Codegen.gen_program ~vreuse:true prog ~global_addr:(fun id ->
            Hashtbl.find layout.Machine.addr_of id)
      in
      if !Trace.enabled then bump buckets "codegen" (now () -. t0);
      Hashtbl.fold
        (fun _ (f : Titan.Isa.func) n -> n + Array.length f.Titan.Isa.code)
        isa.Titan.Isa.funcs 0)

let config procs = { Machine.default_config with Machine.procs }

let simulate ?entry ~procs prog =
  Trace.span "machine" (fun () -> Machine.run ~config:(config procs) ?entry ~vreuse:true prog)

(* ------------------------------------------------------------------ *)
(* Closed loops                                                        *)
(* ------------------------------------------------------------------ *)

(* Op times, raw and calibrated (see {!Calib}), in op order. *)
type times = { raw : float list; cal : float list }

(* Run [op i] for i = 0, 1, ... until [budget] seconds have passed and
   at least [min_ops] ops ran.  Phases ask for two passes over their
   inputs, so that every deterministic figure is seen twice and
   compared.  An op's calibrated time uses the mean
   of the calibration factors before and after it. *)
let closed_loop ~budget ~min_ops op =
  let t_end = now () +. budget in
  let rec go i raw cal =
    if i >= min_ops && now () >= t_end then { raw = List.rev raw; cal = List.rev cal }
    else begin
      Calib.tick ();
      let f0 = Calib.factor () in
      let t0 = now () in
      op i;
      let dt = now () -. t0 in
      Calib.tick ();
      go (i + 1) (dt :: raw) ((dt *. (f0 +. Calib.factor ()) /. 2.0) :: cal)
    end
  in
  go 0 [] []

(* Untraced and traced time of the same ops, for the tracing overhead. *)
let overhead_untraced = ref 0.0
let overhead_traced = ref 0.0

(* Untraced op times, and traced ones when tracing.  Traced ops run after
   the untraced ones and restart at op 0, so op i is the same work in
   both halves. *)
let measure ~trace ~budget ~min_ops ~name op =
  if not trace then (closed_loop ~budget ~min_ops (op ~traced:false), { raw = []; cal = [] })
  else begin
    let u = closed_loop ~budget:(budget /. 2.0) ~min_ops (op ~traced:false) in
    Trace.enabled := true;
    let t =
      closed_loop ~budget:(budget /. 2.0) ~min_ops (fun i ->
          Trace.span name (fun () -> op ~traced:true i))
    in
    Trace.enabled := false;
    let rec pair a b =
      match (a, b) with
      | x :: a, y :: b ->
          overhead_untraced := !overhead_untraced +. x;
          overhead_traced := !overhead_traced +. y;
          pair a b
      | _ -> ()
    in
    pair u.cal t.cal;
    (u, t)
  end

let guard what f =
  R.attempt ();
  match f () with
  | Some msg -> R.fail what msg
  | None -> ()
  | exception e -> R.fail what (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type setup = {
  units : (string * (string * string) list) array;
      (* corpus: source, entry points with their globals' suffixes *)
  unit_refs : (string * Oracle.t) list array;
  kernels : (string * string) array;  (* name, standalone source *)
  kernel_refs : Oracle.t array;
  tunes : (string * string) array;
  tune_refs : Oracle.t array;
  base_refs : (string * string, S.response) Hashtbl.t;  (* (file, source) *)
  daemon : Serve.daemon;
}

let unit_file u = Printf.sprintf "unit%02d.c" u

let daemon_request ~unit_id ~src =
  P.Compile { S.req_file = unit_file unit_id; req_src = src; req_opts = S.default_copts }

(* A cache-less compile: the reference for a daemon reply. *)
let reference_response ~unit_id ~src =
  S.compile (C.create ())
    { S.req_file = unit_file unit_id; req_src = src; req_opts = S.default_copts }

(* Byte-identical apart from [res_cached], which says where the reply
   came from. *)
let response_mismatch (got : S.response) (expect : S.response) =
  if got.S.res_il <> expect.S.res_il then Some "IL listing differs"
  else if got.S.res_asm <> expect.S.res_asm then Some "assembly listing differs"
  else if got.S.res_funcs <> expect.S.res_funcs || got.S.res_components <> expect.S.res_components
  then Some "unit shape differs"
  else None

let daemon_reply d ~unit_id ~src =
  match Serve.request d (daemon_request ~unit_id ~src) with
  | P.Compiled res -> Ok res
  | P.Error m -> Error ("error reply: " ^ m)
  | _ -> Error "unexpected reply"

let daemons = ref 0

let setup family seed =
  let units = Array.of_list (Gen.corpus family seed) in
  let unit_refs = Array.map (fun (src, entries) -> Oracle.references src entries) units in
  let kernels = Array.of_list (Gen.run_kernels family seed) in
  let one src = snd (List.hd (Oracle.references src [ ("main", "_b0") ])) in
  let kernel_refs = Array.map (fun (_, (src, _)) -> one src) kernels in
  let tunes = Array.of_list (Gen.tune_programs family seed) in
  let tune_refs = Array.map (fun (_, (src, _)) -> one src) tunes in
  let base_refs = Hashtbl.create 32 in
  for u = 0 to Gen.units - 1 do
    let src = Gen.unit_source family ~unit_id:u ~edit:0 in
    Hashtbl.replace base_refs (unit_file u, src) (reference_response ~unit_id:u ~src)
  done;
  incr daemons;
  let daemon =
    Serve.start
      (Filename.concat out_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !daemons))
  in
  (* warm the cache with every unit as first checked out *)
  Hashtbl.iter
    (fun (file, src) expect ->
      let unit_id = Scanf.sscanf file "unit%d.c" Fun.id in
      guard "daemon warm-up" (fun () ->
          match daemon_reply daemon ~unit_id ~src with
          | Ok res -> response_mismatch res expect
          | Error m -> Some m))
    base_refs;
  {
    units;
    unit_refs;
    kernels = Array.map (fun (name, (src, _)) -> (name, src)) kernels;
    kernel_refs;
    tunes = Array.map (fun (name, (src, _)) -> (name, src)) tunes;
    tune_refs;
    base_refs;
    daemon;
  }

(* ------------------------------------------------------------------ *)
(* Phase: compile                                                      *)
(* ------------------------------------------------------------------ *)

(* Decision counts of one compile, in the order of {!decision_names}. *)
let decision_names =
  [
    "transform.loops_converted";
    "transform.ivs_found";
    "transform.fused";
    "transform.interchanged";
    "vectorize.loops_vectorized";
    "vectorize.loops_parallelized";
    "vectorize.loops_rejected_dependence";
    "vreuse.accumulators";
    "doacross.pipelined";
    "inline.sites_inlined";
  ]

let decisions (st : Vpc.stats) =
  [
    st.while_to_do.Transform.While_to_do.converted;
    st.indvar.Transform.Indvar.ivs_found;
    st.fuse.Transform.Fuse.loops_fused;
    st.interchange.Transform.Interchange.nests_interchanged;
    st.vectorize.Vectorize.Vectorize.loops_vectorized;
    st.vectorize.Vectorize.Vectorize.loops_parallelized;
    st.vectorize.Vectorize.Vectorize.loops_rejected_dependence;
    st.vreuse.Transform.Vreuse.accumulators_localized;
    st.doacross.Transform.Doacross.do_pipelined;
    st.inline.Inline.Inline.calls_inlined;
  ]

let decision_totals = Array.make (List.length decision_names) 0

let add_decisions st = List.iteri (fun i n -> decision_totals.(i) <- decision_totals.(i) + n) (decisions st)

let compile_phase ~trace ~budget su =
  let n = Array.length su.units in
  let first = Array.make n None in  (* program, static insts, decisions *)
  let memo0 = ref (0, 0) and memo1 = ref (0, 0) in
  let traced_compiles = ref 0 and traced_bytes = ref 0 in
  let op ~traced i =
    let u = i mod n in
    let src = fst su.units.(u) in
    if traced && i = 0 then memo0 := Dependence.Test.cache_stats ();
    R.attempt ();
    (match
       let prog, stats = compile src in
       (prog, stats, codegen prog)
     with
    | exception e -> R.fail (Printf.sprintf "compile unit %d" u) (Printexc.to_string e)
    | prog, stats, insts -> (
        if traced then begin
          incr traced_compiles;
          traced_bytes := !traced_bytes + String.length src
        end;
        match first.(u) with
        | None ->
            add_decisions stats;
            first.(u) <- Some (prog, insts, decisions stats)
        | Some (_, insts0, dec0) ->
            R.expect_same (Printf.sprintf "static insts of unit %d" u) insts0 insts;
            List.iteri
              (fun k (a, b) ->
                R.expect_same
                  (Printf.sprintf "%s of unit %d" (List.nth decision_names k) u)
                  a b)
              (List.combine dec0 (decisions stats))));
    if traced then memo1 := Dependence.Test.cache_stats ()
  in
  let untraced, _ = measure ~trace ~budget ~min_ops:(2 * n) ~name:"bench.compile" op in
  (* latency per kernel, each unit's median over its compiles (op i
     compiled unit [i mod n]), so that a collector slice or a slower
     second landing on a few ops does not move the tail *)
  let unit_s xs = List.init n (fun u -> R.median (List.filteri (fun i _ -> i mod n = u) xs)) in
  let ms xs =
    List.mapi
      (fun u s -> s *. 1000.0 /. float_of_int (List.length (snd su.units.(u))))
      (unit_s xs)
  in
  R.add_e2e "compile_ms_p50" (R.percentile 0.5 (ms untraced.cal)) "ms";
  R.add_e2e "compile_ms_p90" (R.percentile 0.9 (ms untraced.cal)) "ms";
  R.add_e2e "compile_units_per_s" (float_of_int n /. R.sum (unit_s untraced.cal)) "1/s";
  R.add_e2e "code_insts"
    (float_of_int
       (Array.fold_left (fun acc f -> acc + match f with Some (_, i, _) -> i | None -> 0) 0 first))
    "count";
  (* validation: every entry point of every unit against its reference *)
  Array.iteri
    (fun u f ->
      match f with
      | None -> ()
      | Some (prog, _, _) ->
          List.iter
            (fun (entry, ref_) ->
              guard (Printf.sprintf "unit %d %s" u entry) (fun () ->
                  Oracle.check ref_ prog (simulate ~entry ~procs:1 prog)))
            su.unit_refs.(u))
    first;
  if trace then begin
    R.add_layer "raw.compile_ms_p50" (R.percentile 0.5 (ms untraced.raw)) "ms";
    R.add_layer "raw.compile_ms_p90" (R.percentile 0.9 (ms untraced.raw)) "ms";
    let per = float_of_int (max 1 !traced_compiles) in
    let b name = Option.value ~default:0.0 (Hashtbl.find_opt buckets name) /. per in
    R.add_layer "cfront.parse_s" (b "cfront") "s";
    R.add_layer "cfront.bytes_per_s"
      (R.ratio (float_of_int !traced_bytes) (Option.value ~default:0.0 (Hashtbl.find_opt buckets "cfront")))
      "B/s";
    R.add_layer "pointsto.analyze_s" (b "pointsto") "s";
    R.add_layer "range.analyze_s" (b "range") "s";
    R.add_layer "inline.s" (b "inline") "s";
    R.add_layer "transform.s" (b "transform") "s";
    R.add_layer "doacross.s" (b "doacross") "s";
    R.add_layer "codegen.s" (b "codegen") "s";
    let h0, l0 = !memo0 and h1, l1 = !memo1 in
    R.add_layer "dependence.memo_lookups" (float_of_int (l1 - l0) /. per) "count";
    R.add_layer "dependence.memo_hit_ratio"
      (R.ratio (float_of_int (h1 - h0)) (float_of_int (l1 - l0)))
      "ratio"
  end

(* ------------------------------------------------------------------ *)
(* Phase: kernels                                                      *)
(* ------------------------------------------------------------------ *)

let procs_list = [ 1; 2; 4 ]

type kernel_run = { cycles : int; m : Machine.metrics }

let kernels_phase ~trace ~budget su =
  let nk = Array.length su.kernels in
  let first : kernel_run option array = Array.make (nk * List.length procs_list) None in
  let sim_s = ref 0.0 and sim_insts = ref 0 and traced_kernels = ref 0 in
  let op ~traced i =
    let k = i mod nk in
    let name, src = su.kernels.(k) in
    if traced then incr traced_kernels;
    R.attempt ();
    match compile src with
    | exception e -> R.fail ("compile kernel " ^ name) (Printexc.to_string e)
    | prog, stats ->
        if first.(k * 3) = None then add_decisions stats;
        List.iteri
          (fun j procs ->
            let what = Printf.sprintf "kernel %s at %d procs" name procs in
            guard what (fun () ->
                let r, s = time (fun () -> simulate ~procs prog) in
                let m = r.Machine.metrics in
                if traced then begin
                  sim_s := !sim_s +. s;
                  sim_insts := !sim_insts + m.Machine.insts
                end;
                (match first.((k * 3) + j) with
                | None -> first.((k * 3) + j) <- Some { cycles = m.Machine.cycles; m }
                | Some f -> R.expect_same ("cycles of " ^ what) f.cycles m.Machine.cycles);
                Oracle.check su.kernel_refs.(k) prog r))
          procs_list
  in
  let ops, _ = measure ~trace ~budget ~min_ops:(2 * nk) ~name:"bench.kernels" op in
  (* one pass: every kernel's median op time *)
  let pass times =
    R.sum
      (List.init nk (fun k -> R.median (List.filteri (fun i _ -> i mod nk = k) times)))
  in
  R.add_e2e "run_wall_s" (pass ops.cal) "s";
  let cycles_at j =
    List.filter_map
      (fun k -> Option.map (fun r -> float_of_int r.cycles) first.((k * 3) + j))
      (List.init nk Fun.id)
  in
  R.add_e2e "cycles_geomean_p1" (R.geomean (cycles_at 0)) "cycles";
  R.add_e2e "cycles_geomean_p4" (R.geomean (cycles_at 2)) "cycles";
  if trace then begin
    R.add_layer "raw.run_wall_s" (pass ops.raw) "s";
    let total f =
      float_of_int
        (Array.fold_left (fun acc r -> acc + match r with Some r -> f r.m | None -> 0) 0 first)
    in
    R.add_layer "machine.sim_s" (!sim_s *. float_of_int nk /. float_of_int (max 1 !traced_kernels)) "s";
    R.add_layer "machine.insts_per_s" (R.ratio (float_of_int !sim_insts) !sim_s) "1/s";
    R.add_layer "machine.insts" (total (fun m -> m.Machine.insts)) "count";
    R.add_layer "machine.mem_ops" (total (fun m -> m.Machine.mem_ops)) "count";
    R.add_layer "machine.busy_iu" (total (fun m -> m.Machine.busy_iu)) "cycles";
    R.add_layer "machine.busy_fpu" (total (fun m -> m.Machine.busy_fpu)) "cycles";
    R.add_layer "machine.busy_mem" (total (fun m -> m.Machine.busy_mem)) "cycles";
    R.add_layer "machine.vector_insts" (total (fun m -> m.Machine.vector_insts)) "count";
    R.add_layer "machine.parallel_regions" (total (fun m -> m.Machine.parallel_regions)) "count";
    R.add_layer "machine.post_wait_stalls" (total (fun m -> m.Machine.post_wait_stalls)) "cycles"
  end

(* ------------------------------------------------------------------ *)
(* Phase: daemon                                                       *)
(* ------------------------------------------------------------------ *)

let server_buckets = [ "parse"; "fingerprint"; "assemble"; "optimize"; "codegen"; "summaries"; "store" ]
let server_seconds = ref 0.0

let daemon_phase ~trace ~budget family seed su =
  let d = su.daemon in
  (* first reply per (file, source) not known in advance; checked
     against a cache-less compile after the loop *)
  let seen : (string * string, S.response) Hashtbl.t = Hashtbl.create 512 in
  let streams = Array.init 2 (fun generation -> Gen.request_stream family seed ~generation) in
  let op ~traced i =
    let r : Gen.request = streams.(if traced then 1 else 0) i in
    let key = (unit_file r.unit_id, r.src) in
    guard (Printf.sprintf "daemon request %d" i) (fun () ->
        match Trace.span "protocol" (fun () -> daemon_reply d ~unit_id:r.unit_id ~src:r.src) with
        | Error m -> Some m
        | Ok res -> (
            match Hashtbl.find_opt su.base_refs key with
            | Some expect -> response_mismatch res expect
            | None -> (
                match Hashtbl.find_opt seen key with
                | Some expect -> response_mismatch res expect
                | None ->
                    Hashtbl.replace seen key res;
                    None)))
  in
  let stats0 = Serve.cache_stats d and mark = Serve.log_mark d in
  let untraced, traced = measure ~trace ~budget ~min_ops:1000 ~name:"bench.daemon" op in
  let stats1 = Serve.cache_stats d in
  let requests, window = Serve.log_window d mark in
  let ms xs = List.map (fun s -> s *. 1000.0) xs in
  R.add_e2e "req_ms_p50" (R.percentile 0.5 (ms untraced.cal)) "ms";
  R.add_e2e "req_ms_p99" (R.percentile 0.99 (ms untraced.cal)) "ms";
  R.add_e2e "req_per_s" (float_of_int (List.length untraced.cal) /. R.sum untraced.cal) "1/s";
  let daemon_rss = R.peak_rss_mb (string_of_int d.Serve.pid) in
  Hashtbl.iter
    (fun (file, src) res ->
      let unit_id = Scanf.sscanf file "unit%d.c" Fun.id in
      guard ("daemon reply for edited " ^ file) (fun () ->
          response_mismatch res (reference_response ~unit_id ~src)))
    seen;
  if trace then begin
    R.add_layer "raw.req_ms_p50" (R.percentile 0.5 (ms untraced.raw)) "ms";
    R.add_layer "raw.req_ms_p99" (R.percentile 0.99 (ms untraced.raw)) "ms";
    (* the window covers both halves; the traced half alone is timed *)
    let per name =
      Option.value ~default:0.0 (Hashtbl.find_opt window name) /. float_of_int (max 1 requests)
    in
    List.iter (fun b -> R.add_layer ("server." ^ b ^ "_s") (per b) "s") server_buckets;
    server_seconds :=
      List.fold_left (fun acc b -> acc +. per b) 0.0 server_buckets
      *. float_of_int (List.length traced.raw);
    let hits = stats1.C.s_hits - stats0.C.s_hits and misses = stats1.C.s_misses - stats0.C.s_misses in
    R.add_layer "server.hit_ratio" (R.ratio (float_of_int hits) (float_of_int (hits + misses))) "ratio";
    R.add_layer "server.misses" (float_of_int misses) "count";
    R.add_layer "server.requests" (float_of_int requests) "count";
    R.add_layer "server.peak_rss_mb" daemon_rss "MiB"
  end

(* ------------------------------------------------------------------ *)
(* Phase: tune                                                         *)
(* ------------------------------------------------------------------ *)

type tuned = {
  tune_s : float list;  (* every search of this program, calibrated *)
  tune_raw : float list;
  result : Vpc.tune_result;
}

let tune_phase ~trace ~budget su =
  let np = Array.length su.tunes in
  let results : tuned option array = Array.make np None in
  let traced_tune = ref 0.0 and traced_sim = ref 0.0 and traced_ops = ref 0 in
  let op ~traced i =
    let k = i mod np in
    let name, src = su.tunes.(k) in
    guard ("tune " ^ name) (fun () ->
        let f0 = Calib.factor () in
        let tr, raw_s =
          time (fun () ->
              Trace.span "tune" (fun () ->
                  let tr = Vpc.tune ~options:Vpc.o3 ~config:(config 4) ~budget:4 src in
                  Trace.add "tune.sim" tr.Vpc.tune_stats.Tune.Search.sim_seconds;
                  tr))
        in
        Calib.tick ();
        let s = raw_s *. (f0 +. Calib.factor ()) /. 2.0 in
        let sim = tr.Vpc.tune_stats.Tune.Search.sim_seconds in
        if traced then begin
          traced_tune := !traced_tune +. raw_s;
          traced_sim := !traced_sim +. sim;
          incr traced_ops
        end;
        (match results.(k) with
        | None ->
            results.(k) <- Some { tune_s = [ s ]; tune_raw = [ raw_s ]; result = tr }
        | Some t ->
            let a = t.result and b = tr in
            let same what x y = R.expect_same (Printf.sprintf "%s of tuning %s" what name) x y in
            same "tuned cycles" a.Vpc.tuned_cycles b.Vpc.tuned_cycles;
            same "static cycles" a.Vpc.static_cycles b.Vpc.static_cycles;
            same "nests improved" a.Vpc.nests_improved b.Vpc.nests_improved;
            same "evaluated" a.Vpc.tune_stats.Tune.Search.evaluated b.Vpc.tune_stats.Tune.Search.evaluated;
            same "pruned" a.Vpc.tune_stats.Tune.Search.pruned b.Vpc.tune_stats.Tune.Search.pruned;
            same "rejected" a.Vpc.tune_stats.Tune.Search.rejected b.Vpc.tune_stats.Tune.Search.rejected;
            results.(k) <-
              Some { t with tune_s = s :: t.tune_s; tune_raw = raw_s :: t.tune_raw });
        (* replay the stored winners: same cycles, same output *)
        let prog, _ = compile ~options:{ Vpc.o3 with Vpc.tune = `Use tr.Vpc.tuned } src in
        let r = simulate ~procs:4 prog in
        if r.Machine.metrics.Machine.cycles <> tr.Vpc.tuned_cycles then
          Some
            (Printf.sprintf "replay ran %d cycles, the search found %d"
               r.Machine.metrics.Machine.cycles tr.Vpc.tuned_cycles)
        else Oracle.check su.tune_refs.(k) prog r)
  in
  ignore (measure ~trace ~budget ~min_ops:(2 * np) ~name:"bench.tune" op);
  let done_ = Array.to_list results |> List.filter_map Fun.id in
  let nests = List.fold_left (fun acc t -> acc + t.result.Vpc.nests_considered) 0 done_ in
  (* per program the median search time, so a partial last round does
     not change the program mix *)
  let per_nest f = R.sum (List.map (fun t -> R.median (f t)) done_) /. float_of_int (max 1 nests) in
  R.add_e2e "tune_s_per_nest" (per_nest (fun t -> t.tune_s)) "s";
  R.add_e2e "tuned_cycles_geomean"
    (R.geomean (List.map (fun t -> float_of_int t.result.Vpc.tuned_cycles) done_))
    "cycles";
  if trace then begin
    R.add_layer "raw.tune_s_per_nest" (per_nest (fun t -> t.tune_raw)) "s";
    let count f = float_of_int (List.fold_left (fun acc t -> acc + f t.result) 0 done_) in
    R.add_layer "tune.evaluated" (count (fun r -> r.Vpc.tune_stats.Tune.Search.evaluated)) "count";
    R.add_layer "tune.pruned" (count (fun r -> r.Vpc.tune_stats.Tune.Search.pruned)) "count";
    R.add_layer "tune.rejected" (count (fun r -> r.Vpc.tune_stats.Tune.Search.rejected)) "count";
    R.add_layer "tune.nests_improved" (count (fun r -> r.Vpc.nests_improved)) "count";
    let per = float_of_int (max 1 !traced_ops) in
    R.add_layer "tune.sim_s" (!traced_sim /. per) "s";
    R.add_layer "tune.overhead_s" ((!traced_tune -. !traced_sim) /. per) "s"
  end

(* ------------------------------------------------------------------ *)
(* Oracle self-test                                                    *)
(* ------------------------------------------------------------------ *)

(* A kernel whose first integer-constant assignment stays live at -O3
   (the benchmark's own kernels keep none), so a corrupted constant must
   show in the output. *)
let fault_target =
  String.concat "\n"
    [
      "int steps_b0;";
      "float acc_b0[64];";
      "int main()";
      "{";
      "  int i;";
      "  steps_b0 = 7;";
      "  for (i = 0; i < 64; i++)";
      "    acc_b0[i] = acc_b0[i] + 1.0f;";
      "  printf(\"%d\\n\", steps_b0);";
      "  return 0;";
      "}";
    ]

(* Faults the oracle must catch: a wrong constant injected into one
   compiled program, and one byte changed in one daemon reply.  Returns
   how many were caught (2 when the oracle works). *)
let self_test d =
  let caught = ref 0 in
  let ref_ = snd (List.hd (Oracle.references fault_target [ ("main", "_b0") ])) in
  let prog, _ = Vpc.compile ~options:Vpc.o3 fault_target in
  if Check.Fault.inject Check.Fault.Wrong_const prog then begin
    match Oracle.check ref_ prog (Machine.run ~config:(config 1) ~vreuse:true prog) with
    | Some _ -> incr caught
    | None -> prerr_endline "perfbench: self-test: injected constant not caught"
    | exception e ->
        Printf.eprintf "perfbench: self-test: injected constant crashed: %s\n%!" (Printexc.to_string e)
  end
  else prerr_endline "perfbench: self-test: no constant to corrupt";
  let src = Gen.unit_source Gen.Nests ~unit_id:0 ~edit:0 in
  let expect = reference_response ~unit_id:0 ~src in
  (match daemon_reply d ~unit_id:0 ~src with
  | Ok res ->
      let asm = Bytes.of_string res.S.res_asm in
      let i = Bytes.length asm / 2 in
      Bytes.set asm i (if Bytes.get asm i = 'x' then 'y' else 'x');
      let bad = { res with S.res_asm = Bytes.to_string asm } in
      if response_mismatch res expect = None && response_mismatch bad expect <> None then incr caught
      else Printf.eprintf "perfbench: self-test: altered daemon reply not caught\n%!"
  | Error m -> Printf.eprintf "perfbench: self-test: daemon: %s\n%!" m);
  !caught

(* Interpreter and simulator disagreements that exist before any
   optimization: the symbolic kernel's single-precision constants.  The
   count is reported, not hidden; it drops to 0 when the two agree. *)
let o0_divergences () =
  let src = Workloads.symbolic ~n:256 in
  let ref_ = snd (List.hd (Oracle.references src [ ("main", "") ])) in
  let prog, _ = Vpc.compile ~options:Vpc.o0 src in
  match Oracle.check ref_ prog (Machine.run ~config:(config 1) prog) with
  | Some msg ->
      Printf.eprintf "perfbench: known divergence at -O0 (symbolic kernel): %s\n%!" msg;
      1
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Peak memory of the compiler, from a fresh process that compiles and
   lowers every program of the run once: the corpus units, the kernels
   and the tune programs.  Inside the timed phases the op count depends
   on speed, and with it when the collector runs, and the simulator's
   and interpreter's 4 MiB memories come and go with it; so their peak
   would follow the clock rather than the compiler. *)
let rss_work family seed =
  let programs =
    List.map fst (Gen.corpus family seed)
    @ List.map (fun (_, (src, _)) -> src) (Gen.run_kernels family seed @ Gen.tune_programs family seed)
  in
  List.iter (fun src -> ignore (codegen (fst (compile src)))) programs;
  Printf.printf "%.17g\n" (R.peak_rss_mb "self")

let rss_probe family seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--rss-probe"; Gen.family_name family; string_of_int seed |]
  in
  let v = float_of_string (input_line ic) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> v
  | _ -> failwith "rss probe failed"

(* Share of the run's seconds given to each phase. *)
let shares = [ ("compile", 0.3); ("kernels", 0.1); ("daemon", 0.15); ("tune", 0.45) ]

let run family seed seconds trace =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* set up three times; the median is the set-up time *)
  let last = ref None in
  let reps =
    List.init 3 (fun i ->
        Calib.sample ();
        Calib.sample ();
        let f0 = Calib.factor () in
        (* the last set-up is traced: the interpreter runs only here *)
        Trace.enabled := trace && i = 2;
        let su, t = time (fun () -> Trace.span "bench.setup" (fun () -> setup family seed)) in
        Trace.enabled := false;
        Calib.sample ();
        (* one daemon at a time: an earlier set-up's is stopped at once *)
        if i < 2 then Serve.stop su.daemon else last := Some su;
        (t, t *. (f0 +. Calib.factor ()) /. 2.0))
  in
  let su = Option.get !last in
  let steps = !Oracle.interp_steps / 3 and interp_s = !Oracle.interp_seconds /. 3.0 in
  Fun.protect
    ~finally:(fun () -> Serve.stop su.daemon)
    (fun () ->
      R.add_e2e "setup_s" (R.median (List.map snd reps)) "s";
      R.add_layer "raw.setup_s" (R.median (List.map fst reps)) "s";
      let budget p = float_of_int seconds *. List.assoc p shares in
      compile_phase ~trace ~budget:(budget "compile") su;
      kernels_phase ~trace ~budget:(budget "kernels") su;
      daemon_phase ~trace ~budget:(budget "daemon") family seed su;
      tune_phase ~trace ~budget:(budget "tune") su;
      R.add_e2e "peak_rss_mb" (rss_probe family seed) "MiB";
      R.add_layer "bench.peak_rss_mb" (R.peak_rss_mb "self") "MiB";
      let caught = self_test su.daemon in
      if caught < 2 then R.invalidate "the oracle self-test";
      R.add_layer "oracle.selftest_caught" (float_of_int caught) "count";
      R.add_layer "oracle.o0_divergences" (float_of_int (o0_divergences ())) "count";
      R.add_layer "calib.sample_ms" (1000.0 *. R.median !Calib.samples) "ms";
      R.add_layer "interp.steps" (float_of_int steps) "count";
      R.add_layer "interp.steps_per_s" (R.ratio (float_of_int steps) interp_s) "1/s";
      List.iteri
        (fun i name -> R.add_layer name (float_of_int decision_totals.(i)) "count")
        decision_names;
      R.add_layer "fail_ratio" (R.ratio (float_of_int !R.failed) (float_of_int !R.attempted)) "ratio";
      if trace then begin
        let self = Trace.self_times () in
        let get n = Option.value ~default:0.0 (Hashtbl.find_opt self n) in
        (* the daemon's buckets ran inside the protocol spans, in
           another process *)
        Hashtbl.replace self "protocol" (Float.max 0.0 (get "protocol" -. !server_seconds));
        Hashtbl.replace self "server" !server_seconds;
        let total = Hashtbl.fold (fun _ v acc -> acc +. v) self 0.0 in
        List.iter
          (fun layer -> R.add_layer ("self_pct." ^ layer) (100.0 *. R.ratio (get layer) total) "%")
          [
            "cfront"; "pointsto"; "range"; "inline"; "transform"; "doacross"; "core";
            "codegen"; "machine"; "interp"; "protocol"; "server"; "tune"; "tune.sim";
          ];
        R.add_layer "trace.overhead_pct"
          (100.0 *. R.ratio (!overhead_traced -. !overhead_untraced) !overhead_untraced)
          "%";
        Trace.write
          (Filename.concat out_dir
             (Printf.sprintf "trace-%s-%d.jsonl" (Gen.family_name family) seed))
      end)

let usage () =
  prerr_endline
    "usage: main.exe --workload nests|calls --seed N --seconds S --trace 0|1\n\
    \       main.exe --self-test";
  exit 2

let () =
  (* an interrupted run still runs the at-exit clean-up *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  match Array.to_list Sys.argv |> List.tl with
  | [ "--daemon-child"; socket ] -> Serve.child socket
  | [ "--rss-probe"; w; seed ] -> (
      match (Gen.family_of_string w, int_of_string_opt seed) with
      | Some family, Some seed -> rss_work family seed
      | _ -> usage ())
  | [ "--self-test" ] ->
      let d = Serve.start (Printf.sprintf "selftest%d.sock" (Unix.getpid ())) in
      let caught = Fun.protect ~finally:(fun () -> Serve.stop d) (fun () -> self_test d) in
      Printf.printf "oracle self-test: %d of 2 injected faults caught\n" caught;
      if caught <> 2 then exit 1
  | args ->
      let rec parse (w, s, n, t) = function
        | "--workload" :: v :: rest -> parse (Some v, s, n, t) rest
        | "--seed" :: v :: rest -> parse (w, int_of_string_opt v, n, t) rest
        | "--seconds" :: v :: rest -> parse (w, s, int_of_string_opt v, t) rest
        | "--trace" :: v :: rest -> parse (w, s, n, Some v) rest
        | [] -> (w, s, n, t)
        | _ -> usage ()
      in
      (match parse (None, None, None, Some "0") args with
      | Some w, Some seed, Some seconds, Some t when seconds > 0 && (t = "0" || t = "1") -> (
          match Gen.family_of_string w with
          | None -> usage ()
          | Some family ->
              let trace = t = "1" in
              run family seed seconds trace;
              if not (R.print_result ~trace) then exit 1)
      | _ -> usage ())
