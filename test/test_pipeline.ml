(* End-to-end pipeline tests: the paper's worked examples through the full
   compiler, a suite of realistic programs at every optimization level
   against every simulator configuration, and randomized differential
   testing (the generator in Helpers.Gen_c). *)

open Helpers

(* §9: the complete daxpy walkthrough — inline, fold the guards,
   vectorize, parallelize. *)
let daxpy_section9 () =
  let src =
    {|void daxpy(float *x, float *y, float *z, float alpha, int n)
      {
        if (n <= 0) return;
        if (alpha == 0) return;
        for (; n; n--)
          *x++ = *y++ + alpha * *z++;
      }
      float a[100], b[100], c[100];
      int main()
      {
        int i;
        for (i = 0; i < 100; i++) { b[i] = 3 * i; c[i] = i + 1; }
        daxpy(a, b, c, 1.0, 100);
        printf("%g %g %g\n", a[0], a[1], a[99]);
        return 0;
      }|}
  in
  let prog, stats = compile_stats ~options:Vpc.o3 src in
  let il = Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "main") in
  (* the call is gone, the guards are folded, the loop is parallel vector *)
  check_not_contains "no call" ~needle:"daxpy(" il;
  check_not_contains "guards folded" ~needle:"if (in_" il;
  check_not_contains "guards folded 2" ~needle:"goto" il;
  check_contains "do parallel" ~needle:"do parallel" il;
  check_contains "vector over a" ~needle:"(&a" il;
  (* alpha = 1.0 eliminated the multiply *)
  check_not_contains "alpha multiply gone" ~needle:"1.0 *" il;
  Alcotest.(check bool) "daxpy inlined" true (stats.inline.calls_inlined >= 1);
  Alcotest.(check bool) "loop vectorized" true
    (stats.vectorize.loops_vectorized >= 1);
  Alcotest.(check string) "§9 semantics" "1 5 397\n" (interp_output prog)

let program_suite () =
  List.iter
    (fun (name, src) -> assert_all_configs_agree name src)
    [
      ( "matrix multiply 8x8",
        {|float a[8][8], b[8][8], c[8][8];
          int main() {
            int i, j, k;
            float s;
            for (i = 0; i < 8; i++)
              for (j = 0; j < 8; j++) {
                a[i][j] = i + j;
                b[i][j] = i - j;
              }
            for (i = 0; i < 8; i++)
              for (j = 0; j < 8; j++) {
                s = 0.0;
                for (k = 0; k < 8; k++) s += a[i][k] * b[k][j];
                c[i][j] = s;
              }
            printf("%g %g %g\n", c[0][0], c[3][4], c[7][7]);
            return 0;
          }|} );
      ( "string reverse",
        {|char buf[32];
          int slen(char *s) { int n; n = 0; while (*s++) n++; return n; }
          int main() {
            int i, n;
            char t;
            for (i = 0; i < 11; i++) buf[i] = "hello world"[i];
            buf[11] = 0;
            n = slen(buf);
            for (i = 0; i < n / 2; i++) {
              t = buf[i];
              buf[i] = buf[n - 1 - i];
              buf[n - 1 - i] = t;
            }
            printf("%s %d\n", buf, n);
            return 0;
          }|} );
      ( "sieve of eratosthenes",
        {|int flags[100];
          int main() {
            int i, j, count;
            for (i = 0; i < 100; i++) flags[i] = 1;
            for (i = 2; i < 100; i++)
              if (flags[i])
                for (j = i + i; j < 100; j += i) flags[j] = 0;
            count = 0;
            for (i = 2; i < 100; i++) count += flags[i];
            printf("%d\n", count);
            return 0;
          }|} );
      ( "dot product",
        {|float x[300], y[300];
          int main() {
            int i;
            float dot;
            for (i = 0; i < 300; i++) { x[i] = i * 0.01f; y[i] = 3.0f - i * 0.01f; }
            dot = 0.0;
            for (i = 0; i < 300; i++) dot += x[i] * y[i];
            printf("%g\n", dot);
            return 0;
          }|} );
      ( "saxpy chain with functions",
        {|float u[64], v[64], w[64];
          void saxpy(float *d, float *s, float a, int n) {
            int i;
            for (i = 0; i < n; i++) d[i] += a * s[i];
          }
          int main() {
            int i;
            float sum;
            for (i = 0; i < 64; i++) { u[i] = i; v[i] = 64 - i; w[i] = 1.0f; }
            saxpy(u, v, 0.5f, 64);
            saxpy(v, w, 2.0f, 64);
            saxpy(u, v, 0.0f, 64);   /* no-op thanks to a = 0 */
            sum = 0.0;
            for (i = 0; i < 64; i++) sum += u[i] + v[i];
            printf("%g\n", sum);
            return 0;
          }|} );
      ( "histogram",
        {|int data[256], hist[16];
          int main() {
            int i, s;
            for (i = 0; i < 256; i++) data[i] = (i * 37) & 15;
            for (i = 0; i < 16; i++) hist[i] = 0;
            for (i = 0; i < 256; i++) hist[data[i]]++;
            s = 0;
            for (i = 0; i < 16; i++) s += hist[i] * (i + 1);
            printf("%d\n", s);
            return 0;
          }|} );
      ( "struct particles",
        {|struct particle { float pos[3]; float vel[3]; int alive; };
          struct particle ps[16];
          int main() {
            int i, k, living;
            for (i = 0; i < 16; i++) {
              ps[i].alive = (i & 3) != 0;
              for (k = 0; k < 3; k++) {
                ps[i].pos[k] = i * 1.0f;
                ps[i].vel[k] = k * 0.5f;
              }
            }
            for (i = 0; i < 16; i++)
              if (ps[i].alive)
                for (k = 0; k < 3; k++)
                  ps[i].pos[k] += ps[i].vel[k];
            living = 0;
            for (i = 0; i < 16; i++) living += ps[i].alive;
            printf("%d %g %g\n", living, ps[1].pos[2], ps[4].pos[0]);
            return 0;
          }|} );
      ( "fibonacci memo",
        {|int memo[40];
          int fib(int n) {
            if (n < 2) return n;
            if (memo[n]) return memo[n];
            memo[n] = fib(n - 1) + fib(n - 2);
            return memo[n];
          }
          int main() { printf("%d\n", fib(30)); return 0; }|} );
      ( "graphics transform 4x4",
        {|float m[4][4], vin[4], vout[4];
          int main() {
            int i, j;
            for (i = 0; i < 4; i++) {
              vin[i] = i + 1;
              for (j = 0; j < 4; j++) m[i][j] = (i == j) ? 2.0f : 1.0f;
            }
            for (i = 0; i < 4; i++) {
              vout[i] = 0.0f;
              for (j = 0; j < 4; j++) vout[i] += m[i][j] * vin[j];
            }
            printf("%g %g %g %g\n", vout[0], vout[1], vout[2], vout[3]);
            return 0;
          }|} );
    ]

(* Randomized differential testing: every optimization level and machine
   configuration must print the same checksums as the O0 interpreter. *)
let random_programs () =
  for seed = 1 to 40 do
    let src = Gen_c.program seed in
    try assert_all_configs_agree (Printf.sprintf "random #%d" seed) src
    with
    | Vpc.Support.Diag.Error_exn d ->
        Alcotest.failf "random #%d failed to compile: %s\n%s" seed
          (Vpc.Support.Diag.to_string d) src
    | Vpc.Il.Interp.Runtime_error m ->
        Alcotest.failf "random #%d interp error: %s\n%s" seed m src
    | Vpc.Titan.Machine.Runtime_error m ->
        Alcotest.failf "random #%d titan error: %s\n%s" seed m src
  done

let volatile_device_loop () =
  (* the §1 keyboard-status example survives O3 end to end *)
  let src =
    {|volatile int keyboard_status;
      int poll() {
        keyboard_status = 0;
        while (!keyboard_status);
        return 1;
      }
      int main() { return 0; }|}
  in
  let prog = compile ~options:Vpc.o3 src in
  let il = Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "poll") in
  check_contains "busy-wait loop survives" ~needle:"while" il;
  check_contains "keyboard_status read survives" ~needle:"keyboard_status" il

(* The pass table fixes the stage sequence --dump-il prints: one
   checkpoint per enabled entry per function, between the whole-program
   "front-end"/"inline" stages and "final". *)
let dump_stage_sequence () =
  let ic = open_in_bin "../examples/saxpy_chain.c" in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let stages = ref [] in
  let options =
    { Vpc.o3 with Vpc.dump = Some (fun stage _ -> stages := stage :: !stages) }
  in
  ignore (Vpc.compile ~options src);
  Alcotest.(check (list string))
    "saxpy_chain at -O3"
    [
      "front-end"; "inline"; "scalar-cleanup(main)"; "while-to-do(main)";
      "indvar-substitution(main)"; "scalar-cleanup(main)";
      "forward-substitution(main)"; "scalar-cleanup(main)"; "fuse(main)";
      "interchange(main)"; "vectorize(main)"; "vreuse(main)";
      "doacross(main)"; "scalar-replacement(main)";
      "strength-reduction(main)"; "dce(main)"; "final";
    ]
    (List.rev !stages)

let tests =
  [
    Alcotest.test_case "§9 daxpy walkthrough" `Quick daxpy_section9;
    Alcotest.test_case "program suite" `Slow program_suite;
    Alcotest.test_case "random programs" `Slow random_programs;
    Alcotest.test_case "volatile device loop" `Quick volatile_device_loop;
    Alcotest.test_case "dump-il stage sequence" `Quick dump_stage_sequence;
  ]
