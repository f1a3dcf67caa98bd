(* Golden simulator counters: every example (device_poll, which spins
   forever on a device register, excepted; matmul only at -O3) compiled
   at -O0 and -O3 and simulated at 1, 2 and 4 processors under each scheduling model.  One
   line per run records every [Machine.metrics] field, the return value
   (floats as hex) and an MD5 of stdout.  A second block records the
   simulator's error paths with their exact messages: the instruction
   budget (a tiny budget, and for a few programs the exact instruction
   count at which it trips), out-of-bounds loads and stores, division
   and modulo by zero, and a doacross wait that is never posted.

   The fixture pins the simulated machine: a change to how the simulator
   is implemented must leave every line as it is.

     dune exec test/sim_golden.exe -- --check test/fixtures/sim_golden.txt
     dune exec test/sim_golden.exe -- --write test/fixtures/sim_golden.txt

   [--check] prints each differing line and exits 1; [dune runtest]
   runs it.  [--examples DIR] names the examples directory (default
   examples). *)

module M = Vpc.Titan.Machine

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let value = function
  | M.Vi n -> Printf.sprintf "i:%d" n
  | M.Vf f -> Printf.sprintf "f:%h" f

let metrics_fields (m : M.metrics) =
  [
    ("cycles", m.M.cycles); ("insts", m.insts); ("fp_ops", m.fp_ops);
    ("mem_ops", m.mem_ops); ("vector_insts", m.vector_insts);
    ("vector_elems", m.vector_elems); ("parallel_regions", m.parallel_regions);
    ("calls", m.calls); ("post_wait_stalls", m.post_wait_stalls);
    ("posts", m.posts); ("waits", m.waits);
    ("vector_mem_elems_avoided", m.vector_mem_elems_avoided);
    ("busy_iu", m.busy_iu); ("busy_fpu", m.busy_fpu); ("busy_mem", m.busy_mem);
  ]

let run_line (r : M.run_result) =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (metrics_fields r.M.metrics)
    @ [
        "ret=" ^ value r.M.return_value;
        "out=" ^ Digest.to_hex (Digest.string r.M.stdout_text);
      ])

let outcome f =
  match f () with
  | r -> "ok " ^ run_line r
  | exception M.Runtime_error m -> "error " ^ m

let levels = [ ("O0", Vpc.o0); ("O3", Vpc.o3) ]
let procs = [ 1; 2; 4 ]
let scheds = [ M.Sequential; M.Overlap_conservative; M.Overlap_full ]
let config ?(max_insts = M.default_config.M.max_insts) procs sched =
  { M.default_config with M.procs; sched; max_insts }

(* matmul at -O0 is left out: its nine runs are 118M simulated
   instructions, more than all the other rows together. *)
let skipped = [ ("matmul.c", "O0") ]

let example_rows dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c" && f <> "device_poll.c")
  |> List.sort compare
  |> List.concat_map (fun file ->
         let src = read_file (Filename.concat dir file) in
         List.concat_map
           (fun (lname, options) ->
             if List.mem (file, lname) skipped then [] else
             let prog, _ = Vpc.compile ~options src in
             List.concat_map
               (fun p ->
                 List.map
                   (fun sched ->
                     Printf.sprintf "%s %s p%d %s %s" file lname p (M.sched_name sched)
                       (outcome (fun () ->
                            Vpc.run_titan ~config:(config p sched)
                              ~vreuse:options.Vpc.vreuse prog)))
                   scheds)
               procs)
           levels)

(* The budget trips when the instruction about to execute would exceed
   [max_insts].  Markers (profiling, vsaved) count against the budget
   but not in [metrics.insts], so the smallest budget that completes is
   found by bisection above [insts - 1], which always trips; the rows
   pin the outcome one below it and at it. *)
let budget_rows dir =
  List.concat_map
    (fun (file, lname, options, p) ->
      let prog, _ = Vpc.compile ~options (read_file (Filename.concat dir file)) in
      let run max_insts =
        Vpc.run_titan ~config:(config ~max_insts p M.Overlap_full)
          ~vreuse:options.Vpc.vreuse prog
      in
      let completes b = match run b with _ -> true | exception M.Runtime_error _ -> false in
      let insts = (run M.default_config.M.max_insts).M.metrics.M.insts in
      let rec upper b = if completes b then b else upper (2 * b) in
      let rec bisect lo hi =
        if hi - lo <= 1 then hi
        else
          let mid = (lo + hi) / 2 in
          if completes mid then bisect lo mid else bisect mid hi
      in
      let least = bisect (insts - 1) (upper insts) in
      List.map
        (fun budget ->
          Printf.sprintf "budget %s %s p%d max=%d %s" file lname p budget
            (outcome (fun () -> run budget)))
        [ least - 1; least ])
    [
      ("quickstart.c", "O0", Vpc.o0, 1);
      ("quickstart.c", "O3", Vpc.o3, 4);
      ("saxpy_chain.c", "O3", Vpc.o3, 1);
      ("recurrence.c", "O3", Vpc.o3, 4);
    ]

(* Every doacross post moved past the end of its loop body, so no
   iteration ever posts and the first wait deadlocks. *)
let never_post (prog : Vpc.Il.Prog.t) =
  List.iter
    (fun (f : Vpc.Il.Func.t) ->
      f.Vpc.Il.Func.body <-
        Vpc.Il.Stmt.map_list
          (fun (s : Vpc.Il.Stmt.t) ->
            match s.Vpc.Il.Stmt.desc with
            | Vpc.Il.Stmt.Do_loop d when d.Vpc.Il.Stmt.sync <> [] ->
                let past = List.length d.Vpc.Il.Stmt.body in
                let sync =
                  List.map (fun y -> { y with Vpc.Il.Stmt.post_after = past }) d.sync
                in
                [ { s with desc = Vpc.Il.Stmt.Do_loop { d with sync } } ]
            | _ -> [ s ])
          f.Vpc.Il.Func.body)
    prog.Vpc.Il.Prog.funcs

let error_cases dir =
  let unbounded = M.default_config.M.max_insts and keep (_ : Vpc.Il.Prog.t) = () in
  [
    ("budget-loop", Vpc.o0, 1, 10_000, keep, "int main() { for (;;); return 0; }");
    ("oob-load", Vpc.o0, 1, unbounded, keep, "int main() { int *p; p = (int *)8; return *p; }");
    ("oob-store", Vpc.o0, 1, unbounded, keep,
     "int main() { double *p; p = (double *)4194300; *p = 1.5; return 0; }");
    ("oob-vector", Vpc.o3, 1, unbounded, keep,
     "float a[64];\nint main() { int i; for (i = 0; i < 4000000; i++) a[i] = 2.0f; return 0; }");
    ("div-zero", Vpc.o0, 1, unbounded, keep, "int z;\nint main() { z = 0; return 7 / z; }");
    ("mod-zero", Vpc.o0, 1, unbounded, keep, "int z;\nint main() { z = 0; return 7 % z; }");
    ("deadlock", Vpc.o2, 4, unbounded, never_post, read_file (Filename.concat dir "recurrence.c"));
  ]
  |> List.map (fun (name, options, p, max_insts, alter, src) ->
         let prog, _ = Vpc.compile ~options src in
         alter prog;
         Printf.sprintf "case %s p%d %s" name p
           (outcome (fun () ->
                Vpc.run_titan ~config:(config ~max_insts p M.Overlap_full)
                  ~vreuse:options.Vpc.vreuse prog)))

let rows dir = example_rows dir @ budget_rows dir @ error_cases dir

let () =
  let mode = ref "" and fixture = ref "" and dir = ref "examples" in
  Arg.parse
    [
      ("--check", Arg.String (fun f -> mode := "check"; fixture := f), "FILE compare");
      ("--write", Arg.String (fun f -> mode := "write"; fixture := f), "FILE regenerate");
      ("--examples", Arg.Set_string dir, "DIR examples directory");
    ]
    (fun a -> raise (Arg.Bad a))
    "sim_golden (--check|--write) FILE [--examples DIR]";
  let got = rows !dir in
  match !mode with
  | "write" ->
      let oc = open_out_bin !fixture in
      List.iter (fun l -> output_string oc (l ^ "\n")) got;
      close_out oc
  | "check" ->
      let want = String.split_on_char '\n' (read_file !fixture) |> List.filter (( <> ) "") in
      let bad = ref 0 in
      let rec go want got =
        match want, got with
        | [], [] -> ()
        | w :: want, g :: got ->
            if w <> g then begin
              incr bad;
              Printf.printf "want %s\ngot  %s\n" w g
            end;
            go want got
        | w :: want, [] -> incr bad; Printf.printf "missing %s\n" w; go want []
        | [], g :: got -> incr bad; Printf.printf "extra %s\n" g; go [] got
      in
      go want got;
      Printf.printf "sim_golden: %d rows, %d differ\n" (List.length want) !bad;
      if !bad > 0 then exit 1
  | _ ->
      prerr_endline "sim_golden: give --check FILE or --write FILE";
      exit 2
