(* The off-switch sweep: every example under every {!Vpc.switches}
   entry, at the lowest -O level where the switch is on.

   For each pair, turning the switch off must
   - keep the IL verifier and translation validator clean after every
     pipeline stage (and so must the default compile it is compared to);
   - leave the simulated output and return value equal to the default
     run's, on one processor and on four;
   - leave none of the switch's own artifacts in the Titan listing
     (doacross-sync: no da.enter/post/wait; vreuse: no vsaved markers).
   For the analyses that only refine facts (pointsto, range), the
   default run must not take more cycles than the off run on four
   processors.  device_poll busy-waits on a device register with no
   device model, so it is compile-only.

   Run from the repository root:  dune exec test/switch_sweep.exe
   Exit status 1 when any check fails, each failure on its own line. *)

module S = Vpc_server.Service

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let compile_only = [ "device_poll.c" ]

let forbidden_asm =
  [
    ("doacross-sync", [ "da.enter"; "post c"; "wait c" ]);
    ("vreuse", [ "vsaved" ]);
  ]

let never_costs = [ "pointsto"; "range" ]

let procs = [ 1; 4 ]

let contains ~needle s =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = needle || go (i + 1))
  in
  go 0

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      Printf.printf "FAIL %s\n%!" m)
    fmt

type outcome = {
  asm : string;
  runs : (int * (string * string * int)) list;
      (* procs -> stdout, return value, cycles *)
}

(* Compile under [copts] with every-stage verification; [None] (after a
   reported failure) when the verifier or the compiler rejects it. *)
let build ~what ~run file src copts =
  let options = { (S.to_options copts) with Vpc.verify = `Each_stage } in
  match Vpc.compile ~options ~file src with
  | exception Vpc.Check.Verify.Failed diags ->
      fail "%s: verifier: %s" what
        (String.concat "; " (List.map Vpc.Support.Diag.to_string diags));
      None
  | exception e ->
      fail "%s: %s" what (Printexc.to_string e);
      None
  | prog, _ ->
      let asm = String.concat "" (List.map snd (S.asm_texts prog)) in
      let simulate p =
        let config = { Vpc.Titan.Machine.default_config with procs = p } in
        let r = Vpc.run_titan ~config ~vreuse:options.Vpc.vreuse prog in
        let ret =
          match r.Vpc.Titan.Machine.return_value with
          | Vpc.Titan.Machine.Vi n -> string_of_int n
          | Vpc.Titan.Machine.Vf f -> string_of_float f
        in
        ( p,
          ( r.Vpc.Titan.Machine.stdout_text,
            ret,
            r.metrics.Vpc.Titan.Machine.cycles ) )
      in
      Some { asm; runs = (if run then List.map simulate procs else []) }

(* the lowest level at which [name] is on *)
let level_of name =
  List.find_opt
    (fun l ->
      List.mem name (S.switches_on { S.default_copts with S.opt_level = l }))
    [ 0; 1; 2; 3 ]

(* One example under one switch, against the default compile at the
   same level. *)
let sweep_one ~default_at ~run ~file ~src ex (sw : Vpc.switch) =
  let name = sw.Vpc.name in
  match level_of name with
  | None -> fail "--no-%s: the switch is on at no -O level" name
  | Some level -> (
      let what = Printf.sprintf "%s -O%d --no-%s" ex level name in
      let off =
        build ~what ~run file src
          { S.default_copts with S.opt_level = level; disabled = [ name ] }
      in
      match (default_at level, off) with
      | None, _ | _, None -> ()
      | Some on, Some off ->
          let before = !failures in
          List.iter
            (fun needle ->
              if contains ~needle off.asm then
                fail "%s: %S in the Titan listing" what needle)
            (Option.value ~default:[] (List.assoc_opt name forbidden_asm));
          let cycles =
            List.map
              (fun (p, (out_on, ret_on, cyc_on)) ->
                let out_off, ret_off, cyc_off = List.assoc p off.runs in
                if out_on <> out_off then
                  fail "%s: output differs from the default at -p %d" what p;
                if ret_on <> ret_off then
                  fail "%s: return value %s, default %s at -p %d" what ret_off
                    ret_on p;
                if p = 4 && List.mem name never_costs && cyc_on > cyc_off then
                  fail "%s: on costs cycles at -p 4 (on=%d off=%d)" what cyc_on
                    cyc_off;
                Printf.sprintf "p%d %d/%d" p cyc_on cyc_off)
              on.runs
          in
          if !failures = before then
            Printf.printf "ok   %-40s cycles on/off: %s\n%!" what
              (if run then String.concat ", " cycles else "compile-only"))

let () =
  let examples =
    Sys.readdir "examples" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
  in
  List.iter
    (fun ex ->
      let file = Filename.concat "examples" ex in
      let src = read_file file in
      let run = not (List.mem ex compile_only) in
      let defaults = Hashtbl.create 4 in
      let default_at level =
        match Hashtbl.find_opt defaults level with
        | Some d -> d
        | None ->
            let d =
              build ~what:(Printf.sprintf "%s -O%d" ex level) ~run file src
                { S.default_copts with S.opt_level = level }
            in
            Hashtbl.replace defaults level d;
            d
      in
      List.iter (sweep_one ~default_at ~run ~file ~src ex) Vpc.switches)
    examples;
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
