(* Titan simulator tests: value agreement with the IL interpreter, timing
   model sanity (scheduling modes are ordered, vectors beat scalars,
   processors help parallel loops), volatile handling, metrics. *)

open Helpers
open Vpc.Titan

let cfg ?(procs = 1) ?(sched = Machine.Overlap_full) () =
  { Machine.default_config with procs; sched }

let cycles ?procs ?sched prog =
  (Vpc.run_titan ~config:(cfg ?procs ?sched ()) prog).Machine.metrics.cycles

let values_agree_with_interp () =
  List.iter
    (fun (name, src) -> assert_all_configs_agree name src)
    [
      ( "scalar program",
        {|int main() {
            int i, s;
            float f;
            s = 0; f = 1.0;
            for (i = 1; i <= 10; i++) { s += i * i; f = f * 1.1f; }
            printf("%d %g\n", s, f);
            return 0;
          }|} );
      ( "calls and memory",
        {|int sq(int x) { return x * x; }
          int buf[8];
          int main() {
            int i;
            for (i = 0; i < 8; i++) buf[i] = sq(i + 1);
            printf("%d %d\n", buf[0], buf[7]);
            return 0;
          }|} );
      ( "char and double",
        {|char s[12];
          int main() {
            double d;
            int i;
            d = 1.0;
            for (i = 0; i < 10; i++) { s[i] = 'a' + i; d = d * 2.0; }
            s[10] = 0;
            printf("%s %g\n", s, d);
            return 0;
          }|} );
      (* [small] is written before the first access to the top of [big]:
         memory the simulator allocates as a run first touches it keeps
         what was stored below *)
      ( "globals far apart",
        {|int small = 7;
          int big[400000];
          int main() {
            big[399999] = small + 1;
            printf("%d %d\n", small, big[399999]);
            return small;
          }|} );
      (* at -O3: vector negation, comparison and integer division, and
         conversions between char, int, float and double vectors *)
      ( "vector negation and conversions",
        {|float fa[40], fb[40];
          double da[40], db[40];
          int ia[40], ib[40];
          char ca[40];
          int main() {
            int i;
            for (i = 0; i < 40; i++) { fa[i] = i * 0.37f; da[i] = i * 1.5; ia[i] = i * 7 - 100; ca[i] = i * 9; }
            for (i = 0; i < 40; i++) fb[i] = -fa[i];
            for (i = 0; i < 40; i++) db[i] = -da[i] + fa[i];
            for (i = 0; i < 40; i++) ib[i] = -ia[i] + ca[i];
            for (i = 0; i < 40; i++) ca[i] = ia[i] * 3;
            for (i = 0; i < 40; i++) da[i] = ia[i] / 3 + fb[i];
            for (i = 0; i < 37; i++) ib[i] = fa[i];
            for (i = 0; i < 40; i++) fa[i] = (fa[i] < fb[i]) + da[i];
            printf("%g %g %d %d %g\n", fb[5], db[7], ib[9], ca[11], da[13]);
            return 0;
          }|} );
    ]

let sched_modes_are_ordered () =
  (* more scheduling freedom can only reduce cycles *)
  let src =
    {|float a[256], b[256], c[256];
      int main() {
        int i;
        for (i = 0; i < 256; i++) { b[i] = i; c[i] = 2 * i; }
        for (i = 0; i < 256; i++) a[i] = b[i] * 1.5f + c[i];
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o0 src in
  let seq = cycles ~sched:Machine.Sequential prog in
  let cons = cycles ~sched:Machine.Overlap_conservative prog in
  let full = cycles ~sched:Machine.Overlap_full prog in
  Alcotest.(check bool)
    (Printf.sprintf "seq(%d) >= conservative(%d)" seq cons)
    true (seq >= cons);
  Alcotest.(check bool)
    (Printf.sprintf "conservative(%d) >= full(%d)" cons full)
    true (cons >= full)

let vector_beats_scalar () =
  let src =
    {|float a[512], b[512], c[512];
      int main() {
        int i;
        for (i = 0; i < 512; i++) a[i] = b[i] + c[i] * 2.0f;
        return 0;
      }|}
  in
  let scalar = compile ~options:Vpc.o0 src in
  let vector = compile ~options:Vpc.o2 src in
  (* the paper's own comparison: naive scalar code vs the vector
     compilation (running O0 code under the full-overlap schedule would
     presume dependence information the compiler never produced) *)
  let sc = cycles ~sched:Machine.Sequential scalar and vc = cycles vector in
  Alcotest.(check bool)
    (Printf.sprintf "vector (%d) at least 3x faster than scalar (%d)" vc sc)
    true (vc * 3 < sc)

let processors_help_parallel_loops () =
  let src =
    {|float a[1024], b[1024];
      int main() {
        int i;
        for (i = 0; i < 1024; i++) a[i] = b[i] * 3.0f + 1.0f;
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o2 src in
  let c1 = cycles ~procs:1 prog in
  let c2 = cycles ~procs:2 prog in
  let c4 = cycles ~procs:4 prog in
  Alcotest.(check bool) (Printf.sprintf "2 procs help (%d -> %d)" c1 c2) true
    (c2 < c1);
  Alcotest.(check bool) (Printf.sprintf "4 procs help more (%d -> %d)" c2 c4)
    true (c4 <= c2)

let processors_do_not_help_serial_code () =
  let src =
    {|int main() {
        int i, s;
        s = 1;
        for (i = 0; i < 100; i++) s = s * 3 + 1;
        printf("%d\n", s);
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o1 src in
  let c1 = cycles ~procs:1 prog in
  let c4 = cycles ~procs:4 prog in
  Alcotest.(check int) "serial code unchanged by procs" c1 c4

let fp_op_counting () =
  let src =
    {|float a[100], b[100];
      int main() {
        int i;
        for (i = 0; i < 100; i++) a[i] = b[i] * 2.0f + 1.0f;
        return 0;
      }|}
  in
  (* 2 fp ops per element, whatever the compilation strategy *)
  List.iter
    (fun options ->
      let prog = compile ~options src in
      let r = Vpc.run_titan ~config:(cfg ()) prog in
      Alcotest.(check int) "200 fp ops" 200 r.Machine.metrics.fp_ops)
    [ Vpc.o0; Vpc.o2 ]

let vector_metrics () =
  let src =
    {|float a[100], b[100];
      int main() {
        int i;
        for (i = 0; i < 100; i++) a[i] = b[i] + 1.0f;
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o2 src in
  let r = Vpc.run_titan ~config:(cfg ()) prog in
  Alcotest.(check bool) "vector instructions issued" true
    (r.Machine.metrics.vector_insts > 0);
  Alcotest.(check bool) "vector elements counted" true
    (r.Machine.metrics.vector_elems >= 200);
  Alcotest.(check bool) "parallel region seen" true
    (r.Machine.metrics.parallel_regions >= 1)

let volatile_not_cached_in_registers () =
  (* a volatile variable read twice must issue two loads *)
  let src =
    {|volatile int v;
      int main() {
        int a, b;
        v = 3;
        a = v;
        b = v;
        printf("%d\n", a + b);
        return 0;
      }|}
  in
  let prog = compile ~options:Vpc.o3 src in
  let r = Vpc.run_titan ~config:(cfg ()) prog in
  Alcotest.(check string) "value" "6\n" r.Machine.stdout_text;
  (* at least 2 loads + 1 store on v, plus printf string accesses *)
  Alcotest.(check bool) "memory traffic for volatile" true
    (r.Machine.metrics.mem_ops >= 3)

let frame_reuse_recursion () =
  let src =
    {|int depth(int n) { return n == 0 ? 0 : 1 + depth(n - 1); }
      int main() { printf("%d\n", depth(200)); return 0; }|}
  in
  let prog = compile ~options:Vpc.o1 src in
  Alcotest.(check string) "deep recursion" "200\n"
    (titan_output ~config:(cfg ()) prog)

let mflops_sanity () =
  let src =
    {|float a[4096], b[4096], c[4096];
      int main() {
        int i;
        for (i = 0; i < 4096; i++) a[i] = b[i] + c[i];
        return 0;
      }|}
  in
  let scalar = Vpc.run_titan ~config:(cfg ~sched:Machine.Sequential ())
      (compile ~options:Vpc.o0 src) in
  let vec = Vpc.run_titan ~config:(cfg ~procs:2 ())
      (compile ~options:Vpc.o2 src) in
  Alcotest.(check bool)
    (Printf.sprintf "scalar %.2f < vector %.2f mflops" scalar.Machine.mflops_rate
       vec.Machine.mflops_rate)
    true
    (scalar.Machine.mflops_rate < vec.Machine.mflops_rate);
  Alcotest.(check bool) "mflops below peak (16 per proc)" true
    (vec.Machine.mflops_rate < 33.0)

let infinite_loop_guard () =
  let src = "int main() { for (;;); return 0; }" in
  let prog = compile ~options:Vpc.o0 src in
  match
    Vpc.run_titan ~config:{ (cfg ()) with max_insts = 10_000 } prog
  with
  | exception Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected an instruction-budget error"

(* A float-typed constant is single precision in the simulator as in the
   interpreter: printing with %g would hide the difference, memory
   does not. *)
let float_constant_rounded () =
  let src = "float g, h;\nint main() { h = 33.0f; g = h * 0.01f; return 0; }" in
  let prog = compile ~options:Vpc.o0 src in
  let state, _ = Vpc.Il.Interp.run_with_state prog in
  let run = Vpc.run_titan prog in
  let single x = Int32.float_of_bits (Int32.bits_of_float x) in
  (match Machine.global_array run.Machine.final_state prog "g" 1 with
  | [ Machine.Vf f ] ->
      Alcotest.(check int64) "simulator g is 33 times 0.01f, in single precision"
        (Int64.bits_of_float (single (33.0 *. single 0.01)))
        (Int64.bits_of_float f)
  | _ -> Alcotest.fail "g is not a float");
  Alcotest.(check (option string)) "globals agree with the interpreter" None
    (Vpc.globals_mismatch ~reference:prog state prog run)

let globals_mismatch_reported () =
  let reference = compile ~options:Vpc.o0 "int g[2][3];\nint main() { g[1][2] = 1; return 0; }" in
  let state, _ = Vpc.Il.Interp.run_with_state reference in
  let other = compile ~options:Vpc.o0 "int g[2][3];\nint main() { g[1][2] = 2; return 0; }" in
  Alcotest.(check (option string)) "last element of a 2-D global"
    (Some "global g element 5: interpreter 1, simulator 2")
    (Vpc.globals_mismatch ~reference state other (Vpc.run_titan other))

let tests =
  [
    Alcotest.test_case "values agree with interp" `Quick values_agree_with_interp;
    Alcotest.test_case "sched modes ordered" `Quick sched_modes_are_ordered;
    Alcotest.test_case "vector beats scalar" `Quick vector_beats_scalar;
    Alcotest.test_case "processors help" `Quick processors_help_parallel_loops;
    Alcotest.test_case "serial unaffected by procs" `Quick processors_do_not_help_serial_code;
    Alcotest.test_case "fp op counting" `Quick fp_op_counting;
    Alcotest.test_case "vector metrics" `Quick vector_metrics;
    Alcotest.test_case "volatile loads" `Quick volatile_not_cached_in_registers;
    Alcotest.test_case "recursion frames" `Quick frame_reuse_recursion;
    Alcotest.test_case "mflops sanity" `Quick mflops_sanity;
    Alcotest.test_case "instruction budget" `Quick infinite_loop_guard;
    Alcotest.test_case "float constant rounded" `Quick float_constant_rounded;
    Alcotest.test_case "globals mismatch reported" `Quick globals_mismatch_reported;
  ]
