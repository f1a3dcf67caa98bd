(* The compilation service (lib/server): content-addressed procedure
   cache, invalidation components, the worklist points-to solver, and
   the daemon protocol.

   The load-bearing properties:
   - fingerprints see through representation accidents (comments,
     whitespace, variable-id shifts) but never through meaning;
   - a cache hit reproduces the fresh compiler's output byte for byte;
   - an edit invalidates exactly its component's cone, not the rest of
     the unit;
   - concurrent pipelines produce the sequential results. *)

module S = Vpc_server.Service
module C = Vpc_server.Cache
module F = Vpc_server.Fingerprint
module Cm = Vpc_server.Components
module Il = Vpc.Il
module P = Vpc.Pointsto.Pointsto

let check = Alcotest.check
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let read_example name =
  let ic = open_in_bin (Filename.concat "../examples" name) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A unit with a three-level call chain (top -> mid -> leaf over shared
   globals) and an unrelated kernel on its own globals: two
   invalidation components. *)
let chain_src ?(leaf_const = 1) ?(kern_const = 2) ?(comment = "") () =
  Printf.sprintf
    {|%s
static float a[32];
static float b[32];
static float ka[32];
static float kb[32];
float leaf(float x) { return x * %d.0f; }
float mid(float x) { return leaf(x) + 1.0f; }
float top(int n)
{
  int i;
  float s;
  s = 0.0f;
  for (i = 0; i < n; i++) {
    a[i] = mid(b[i]);
    s = s + a[i];
  }
  return s;
}
int kernel(int n)
{
  int i;
  for (i = 0; i < n; i++) ka[i] = kb[i] * %d.0f;
  return n;
}
|}
    comment leaf_const kern_const

let req ?(name = "t.c") ?(opts = S.default_copts) src =
  { S.req_file = name; req_src = src; req_opts = opts }

let keys_of ?(opts = S.default_copts) src =
  let prog = Vpc.parse src in
  S.component_keys prog opts

let key_of_member (k : S.keyed) name =
  let i = Hashtbl.find k.S.k_comps.Cm.comp_of name in
  k.S.k_keys.(i)

(* Fingerprints ----------------------------------------------------------- *)

let test_fp_comment_whitespace () =
  let k1 = keys_of (chain_src ()) in
  let k2 =
    keys_of (chain_src ~comment:"/* a comment */   " ())
  in
  checks "comment/whitespace edit keeps every key" (key_of_member k1 "top")
    (key_of_member k2 "top");
  checks "kernel key too" (key_of_member k1 "kernel")
    (key_of_member k2 "kernel")

(* Editing an early function shifts every later function's raw variable
   ids; fingerprints must not move with them. *)
let test_fp_id_shift () =
  let src extra =
    Printf.sprintf
      {|static float d[16];
float first(float x) { %s return x + 1.0f; }
static float e[16];
float second(int n)
{
  int i;
  for (i = 0; i < n; i++) e[i] = e[i] * 2.0f;
  return e[0];
}
|}
      extra
  in
  let fp_of src name =
    let prog = Vpc.parse src in
    let f = Option.get (Il.Prog.find_func prog name) in
    F.func prog f
  in
  check Alcotest.(neg string) "the edited function's fingerprint moves"
    (fp_of (src "") "first")
    (fp_of (src "float t; t = x; x = t;") "first");
  checks "the shifted-but-unedited function's fingerprint does not"
    (fp_of (src "") "second")
    (fp_of (src "float t; t = x; x = t;") "second")

(* Keys ------------------------------------------------------------------- *)

let test_key_option_flip () =
  let base = keys_of (chain_src ()) in
  let flipped =
    keys_of ~opts:{ S.default_copts with S.vlen = 16 } (chain_src ())
  in
  check Alcotest.(neg string) "vlen flip changes the key"
    (key_of_member base "top") (key_of_member flipped "top");
  let o2 = keys_of ~opts:{ S.default_copts with S.opt_level = 2 } (chain_src ()) in
  check Alcotest.(neg string) "opt level changes the key"
    (key_of_member base "top") (key_of_member o2 "top");
  (* switches key by the effective set: spellings that yield the same
     options hit, a switch that is on and gets turned off misses *)
  let key opt_level disabled =
    key_of_member
      (keys_of ~opts:{ S.default_copts with S.opt_level; disabled } (chain_src ()))
      "top"
  in
  checks "-O1 --no-vectorize keys like -O1" (key 1 []) (key 1 [ "vectorize" ]);
  checks "-O2 --no-fuse keys like -O2" (key 2 []) (key 2 [ "fuse" ]);
  checks "order and repeats do not matter"
    (key 3 [ "range"; "pointsto" ])
    (key 3 [ "pointsto"; "range"; "pointsto" ]);
  check Alcotest.(neg string) "-O3 --no-vectorize misses -O3" (key 3 [])
    (key 3 [ "vectorize" ]);
  check Alcotest.(neg string) "-O2 --no-range misses -O2" (key 2 [])
    (key 2 [ "range" ])

let test_key_invalidation_cone () =
  let base = keys_of (chain_src ()) in
  let edited = keys_of (chain_src ~leaf_const:7 ()) in
  (* the chain is one component: leaf, mid, top share it *)
  let i_top = Hashtbl.find base.S.k_comps.Cm.comp_of "top" in
  let i_leaf = Hashtbl.find base.S.k_comps.Cm.comp_of "leaf" in
  let i_kern = Hashtbl.find base.S.k_comps.Cm.comp_of "kernel" in
  Alcotest.(check int) "leaf and top share a component" i_top i_leaf;
  checkb "kernel is its own component" true (i_kern <> i_top);
  check Alcotest.(neg string) "a leaf edit invalidates the whole chain"
    (key_of_member base "top") (key_of_member edited "top");
  checks "the unrelated kernel survives a leaf edit"
    (key_of_member base "kernel") (key_of_member edited "kernel");
  (* and symmetrically for a kernel edit *)
  let kedit = keys_of (chain_src ~kern_const:9 ()) in
  checks "the chain survives a kernel edit" (key_of_member base "top")
    (key_of_member kedit "top");
  check Alcotest.(neg string) "the kernel edit invalidates the kernel"
    (key_of_member base "kernel") (key_of_member kedit "kernel")

(* A profile keys decisions by source location, so with a profile in
   play even a pure whitespace shift must miss; without one it hits. *)
let test_key_profile () =
  let runnable =
    {|float v[64];
int main()
{
  int i;
  for (i = 0; i < 64; i++) v[i] = v[i] + 1.0f;
  return 0;
}
|}
  in
  let prof_path = Filename.temp_file "titancc" ".prof" in
  let data, _ = Vpc.profile_gen runnable in
  Vpc.Profile.Data.save data prof_path;
  Fun.protect
    ~finally:(fun () -> Sys.remove prof_path)
    (fun () ->
      let opts = { S.default_copts with S.profile_use = Some prof_path } in
      let shifted = "/* shifted */\n" ^ runnable in
      let k1 = keys_of ~opts runnable and k2 = keys_of ~opts shifted in
      check Alcotest.(neg string)
        "a line shift misses when a profile is in play"
        (key_of_member k1 "main") (key_of_member k2 "main");
      let n1 = keys_of runnable and n2 = keys_of shifted in
      checks "and hits without one" (key_of_member n1 "main")
        (key_of_member n2 "main");
      (* a different profile is a different key *)
      let data2, _ =
        Vpc.profile_gen
          ~config:{ Vpc.Titan.Machine.default_config with procs = 2 }
          runnable
      in
      let prof2 = Filename.temp_file "titancc" ".prof" in
      Vpc.Profile.Data.save data2 prof2;
      Fun.protect
        ~finally:(fun () -> Sys.remove prof2)
        (fun () ->
          let k3 =
            keys_of ~opts:{ opts with S.profile_use = Some prof2 } runnable
          in
          check Alcotest.(neg string) "an edited profile misses"
            (key_of_member k1 "main") (key_of_member k3 "main")))

(* Cache ------------------------------------------------------------------ *)

let test_cache_roundtrip () =
  let e =
    {
      C.key = "abc123";
      funcs =
        [
          {
            C.fe_name = "f";
            fe_il = "(func \"f\" with\nnewlines \"quotes\" \\ and tabs\t)";
            fe_dump = "float f()\n{\n  return 1.0;\n}\n";
            fe_asm = "f:  ; 2 regs\n  ret\n";
          };
        ];
      summaries = [ ("f", "f: reads {a}, writes {}\n") ];
    }
  in
  let e' =
    C.entry_of_sexp
      (Vpc.Support.Sexp.of_string (Vpc.Support.Sexp.to_string (C.entry_to_sexp e)))
  in
  checkb "entry round-trips through its sexp" true (e = e')

let test_cache_persistence () =
  let dir = Filename.temp_file "titancc" ".cache" in
  Sys.remove dir;
  let c1 = C.create ~dir () in
  let r = req (chain_src ()) in
  let cold = S.compile c1 r in
  Alcotest.(check int) "cold compile caches nothing yet" 0 cold.S.res_cached;
  (* a fresh cache instance over the same directory starts warm *)
  let c2 = C.create ~dir () in
  let warm = S.compile c2 r in
  Alcotest.(check int) "warm compile serves every component"
    warm.S.res_components warm.S.res_cached;
  checks "and the bytes match" cold.S.res_il warm.S.res_il;
  checks "asm too" cold.S.res_asm warm.S.res_asm

(* Service ---------------------------------------------------------------- *)

let test_served_bytes_identical () =
  let cache = C.create () in
  List.iter
    (fun (name, src) ->
      let r = req ~name src in
      let cold = S.compile cache r in
      let warm = S.compile cache r in
      Alcotest.(check int)
        (name ^ ": warm pass is a full hit")
        warm.S.res_components warm.S.res_cached;
      checks (name ^ ": IL text") cold.S.res_il warm.S.res_il;
      checks (name ^ ": asm text") cold.S.res_asm warm.S.res_asm;
      (* the cold response itself is the fresh compiler's rendering *)
      let prog, _ =
        Vpc.compile ~options:(S.to_options r.S.req_opts) ~file:name src
      in
      checks (name ^ ": IL equals prog_to_string")
        (Il.Pp.prog_to_string prog) cold.S.res_il)
    [
      ("chain.c", chain_src ());
      ("comment.c", chain_src ~comment:"/* note */" ());
      ("backsolve.c", read_example "backsolve.c");
      ("graphics.c", read_example "graphics.c");
    ]

let test_comment_edit_hits () =
  let cache = C.create () in
  ignore (S.compile cache (req (chain_src ())));
  let r2 = S.compile cache (req (chain_src ~comment:"// tweak\n" ())) in
  Alcotest.(check int) "a comment edit is a full hit" r2.S.res_components
    r2.S.res_cached

let test_batch_matches_sequential () =
  let reqs =
    List.init 12 (fun i ->
        req
          ~name:(Printf.sprintf "u%d.c" i)
          (chain_src ~leaf_const:(i + 1) ~kern_const:(i mod 4) ()))
  in
  let c_par = C.create () and c_seq = C.create () in
  let par = S.compile_batch ~jobs:4 c_par reqs in
  let seq = S.compile_batch ~jobs:1 c_seq reqs in
  List.iteri
    (fun i ((a : S.response), (b : S.response)) ->
      checks (Printf.sprintf "u%d IL" i) b.S.res_il a.S.res_il;
      checks (Printf.sprintf "u%d asm" i) b.S.res_asm a.S.res_asm)
    (List.combine par seq)

(* Worklist solver -------------------------------------------------------- *)

(* The subscription worklist solver must reach the same least fixpoint
   as the naive round-robin solver on every shape we can throw at it. *)
let test_worklist_equals_naive () =
  let summaries solver src =
    let prog = Vpc.parse src in
    let t = P.analyze ~solver prog in
    List.map
      (fun (f : Il.Func.t) ->
        Fmt.str "%a" (P.pp_summary t) f.Il.Func.name)
      prog.Il.Prog.funcs
    |> String.concat "\n"
  in
  List.iter
    (fun (name, src) ->
      checks name (summaries `Naive src) (summaries `Worklist src))
    [
      ("chain", chain_src ());
      ("backsolve", read_example "backsolve.c");
      ("daxpy-inline", read_example "daxpy_inline.c");
      ("ptrkernels", read_example "ptrkernels.c");
      ("math-library", read_example "math_library.c");
      ("graphics", read_example "graphics.c");
    ]

(* Daemon ----------------------------------------------------------------- *)

let test_daemon_roundtrip () =
  let socket_path = Filename.temp_file "titancc" ".sock" in
  Sys.remove socket_path;
  let cache = C.create () in
  let server =
    Domain.spawn (fun () ->
        Vpc_server.Daemon.serve
          { Vpc_server.Daemon.socket_path; verbose = false }
          cache)
  in
  (* wait for the socket to appear *)
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon socket never appeared";
    if not (Sys.file_exists socket_path) then begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 100;
  Fun.protect
    ~finally:(fun () ->
      (try
         ignore
           (Vpc_server.Protocol.request ~socket:socket_path
              Vpc_server.Protocol.Shutdown)
       with _ -> ());
      Domain.join server)
    (fun () ->
      let ask () =
        match
          Vpc_server.Protocol.request ~socket:socket_path
            (Vpc_server.Protocol.Compile (req (chain_src ())))
        with
        | Vpc_server.Protocol.Compiled r -> r
        | _ -> Alcotest.fail "expected a Compiled reply"
      in
      let r1 = ask () in
      let r2 = ask () in
      Alcotest.(check int) "second request is fully cached"
        r2.S.res_components r2.S.res_cached;
      checks "served bytes stable across the wire" r1.S.res_il r2.S.res_il;
      match
        Vpc_server.Protocol.request ~socket:socket_path Vpc_server.Protocol.Stats
      with
      | Vpc_server.Protocol.Stats_reply s ->
          checkb "daemon counted hits" true (s.C.s_hits > 0)
      | _ -> Alcotest.fail "expected a Stats reply")

(* Switches ---------------------------------------------------------------- *)

(* Every {!Vpc.switches} entry survives the wire, and the CLI's
   --no-<name> flag, the daemon's decoded request, and the switch's own
   [off] agree on the options and on the compiled artifact. *)
let test_switches_cli_equals_daemon () =
  let src = read_example "saxpy_chain.c" in
  List.iter
    (fun (sw : Vpc.switch) ->
      let name = sw.Vpc.name in
      let copts = { S.default_copts with S.disabled = [ name ] } in
      let wired =
        S.copts_to_sexp copts |> Vpc.Support.Sexp.to_string
        |> Vpc.Support.Sexp.of_string |> S.copts_of_sexp
      in
      checkb (name ^ ": copts sexp round-trip") true (wired = copts);
      checkb (name ^ ": daemon options = CLI options") true
        (S.to_options wired = S.to_options copts);
      checkb (name ^ ": options = switch off at -O3") true
        (S.to_options copts = sw.Vpc.off Vpc.o3);
      let cli =
        let out = Filename.temp_file "switch" ".asm" in
        let cmd =
          Printf.sprintf "../bin/titancc.exe ../examples/saxpy_chain.c --no-%s \
                          --dump-asm --no-run -q > %s" name out
        in
        Alcotest.(check int) (name ^ ": CLI exit") 0 (Sys.command cmd);
        let ic = open_in_bin out in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove out;
        text
      in
      let served =
        S.compile (C.create ()) (req ~name:"saxpy_chain.c" ~opts:copts src)
      in
      checks (name ^ ": CLI asm = served asm") cli served.S.res_asm)
    Vpc.switches

(* A bad option set is a diagnostic at the shared boundary: the daemon
   answers Error and keeps serving. *)
let test_daemon_rejects_bad_options () =
  let socket_path = Filename.temp_file "titancc" ".sock" in
  Sys.remove socket_path;
  let server =
    Domain.spawn (fun () ->
        Vpc_server.Daemon.serve
          { Vpc_server.Daemon.socket_path; verbose = false }
          (C.create ()))
  in
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon socket never appeared";
    if not (Sys.file_exists socket_path) then begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 100;
  Fun.protect
    ~finally:(fun () ->
      (try
         ignore
           (Vpc_server.Protocol.request ~socket:socket_path
              Vpc_server.Protocol.Shutdown)
       with _ -> ());
      Domain.join server)
    (fun () ->
      let ask opts =
        Vpc_server.Protocol.request ~socket:socket_path
          (Vpc_server.Protocol.Compile (req ~opts (chain_src ())))
      in
      List.iter
        (fun (what, opts) ->
          match ask opts with
          | Vpc_server.Protocol.Error _ -> ()
          | _ -> Alcotest.failf "%s: expected an Error reply" what)
        [
          ("vlen 0", { S.default_copts with S.vlen = 0 });
          ("vlen -4", { S.default_copts with S.vlen = -4 });
          ("-O 7", { S.default_copts with S.opt_level = 7 });
          ("unknown switch", { S.default_copts with S.disabled = [ "frob" ] });
        ];
      match ask S.default_copts with
      | Vpc_server.Protocol.Compiled r ->
          checkb "the next valid request compiles" true (r.S.res_funcs > 0)
      | _ -> Alcotest.fail "expected a Compiled reply after the errors")

let tests =
  [
    Alcotest.test_case "fingerprint: comments and whitespace" `Quick
      test_fp_comment_whitespace;
    Alcotest.test_case "fingerprint: id shift" `Quick test_fp_id_shift;
    Alcotest.test_case "key: option flip" `Quick test_key_option_flip;
    Alcotest.test_case "key: invalidation cone" `Quick
      test_key_invalidation_cone;
    Alcotest.test_case "key: profile sensitivity" `Quick test_key_profile;
    Alcotest.test_case "cache: entry round-trip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache: disk persistence" `Quick test_cache_persistence;
    Alcotest.test_case "service: served bytes identical" `Quick
      test_served_bytes_identical;
    Alcotest.test_case "service: comment edit hits" `Quick
      test_comment_edit_hits;
    Alcotest.test_case "service: batch matches sequential" `Quick
      test_batch_matches_sequential;
    Alcotest.test_case "pointsto: worklist equals naive" `Quick
      test_worklist_equals_naive;
    Alcotest.test_case "daemon: protocol round-trip" `Quick
      test_daemon_roundtrip;
    Alcotest.test_case "daemon: bad options rejected" `Quick
      test_daemon_rejects_bad_options;
    Alcotest.test_case "switches: CLI equals daemon" `Quick
      test_switches_cli_equals_daemon;
  ]
