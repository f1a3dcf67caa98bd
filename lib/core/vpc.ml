(* The public face of the compiler: options, the full pass pipeline in the
   paper's order, and compile-and-run entry points against both the IL
   interpreter (reference semantics) and the Titan simulator (timing).

   The pipeline is parse → sema → lower, then {!pipeline}'s whole-program
   prefix (catalog import, points-to, ranges, inlining), then the
   per-function table {!passes}, whose order §5.2 fixes: while→DO
   conversion right after use-def chains exist, before the phases that
   simplify DO loops.  {!switches} lists the passes a user can turn off. *)

module Support = Vpc_support
module Il = Vpc_il
module Cfront = Vpc_cfront
module Analysis = Vpc_analysis
module Dependence = Vpc_dependence
module Transform = Vpc_transform
module Vectorize = Vpc_vectorize
module Inline = Vpc_inline
module Titan = Vpc_titan
module Profile = Vpc_profile
module Check = Vpc_check
module Pointsto = Vpc_pointsto
module Range = Vpc_range
module Tune = Vpc_tune

(* A resolved autotuning plan: per-nest configurations keyed by source
   location (every loop header of a tuned nest maps to its nest's
   configuration) plus per-call-site inline verdicts.  [`Use] resolves a
   fingerprint-keyed store into this form with a scout compile; the
   autotuning search ({!tune}) builds it directly; both use {!plan_of}. *)
type tune_plan = {
  tp_nests : (Support.Loc.t * Tune.Config.t) list;
  tp_calls : (Support.Loc.t * bool) list;
}

let empty_plan = { tp_nests = []; tp_calls = [] }

type options = {
  inline : [ `None | `All | `Only of string list ];
  doacross : bool;             (* §10: parallelize pragma-marked list loops *)
  doacross_sync : bool;
      (* pipeline carried-dependence DO loops across processors with
         post/wait synchronization *)
  scalar_opt : bool;           (* constant propagation + DCE + unreachable *)
  while_conversion : bool;     (* §5.2 *)
  indvar_substitution : bool;  (* §5.3 *)
  vectorize : bool;
  parallelize : bool;
  interchange : bool;          (* §7: reorder nest levels by cost model *)
  fuse : bool;                 (* §7: merge adjacent conformable loops *)
  vreuse : bool;               (* vector-register reuse across strips *)
  vlen : int;
  assume_noalias : bool;       (* pointer params get Fortran semantics *)
  scalar_replacement : bool;   (* §6 *)
  strength_reduction : bool;   (* §6 *)
  pointsto : bool;
      (* interprocedural points-to + mod/ref analysis: resolves pointer
         aliases the canonical decomposition cannot, bounds call effects
         in the race checker, and ranks inline sites *)
  range : bool;
      (* interprocedural symbolic range + scalar-evolution analysis:
         dependence tests work on symbolic distances, strip loops with
         provable trip counts drop their length guards, and constant
         propagation folds branches decided by disjoint ranges *)
  catalogs : string list;      (* procedure databases to import (§7) *)
  dump : (string -> string -> unit) option;  (* stage name, IL text *)
  verify : Check.Verify.level; (* IL verifier / translation validator *)
  profile : Profile.Data.t option;
      (* measured profile feeding the inliner and vectorizer (PGO) *)
  report : (string -> unit) option;
      (* one line per profile-guided decision, with the cost estimates *)
  why_scalar : (string -> unit) option;
      (* one line per loop left scalar: the unresolved alias pair with
         source locations, the rejecting statement, or the cycle *)
  tune : [ `Off | `Use of Profile.Tuned.t | `Plan of tune_plan ];
      (* autotuned per-nest overrides: [`Use store] replays winners from
         a fingerprint-keyed store (a scout compile maps fingerprints
         back to this program's loops); [`Plan] applies an already
         resolved plan (the search driver's internal path).  [`Off] and
         an empty store compile byte-identically to no tuning. *)
}

(* -O0: the naive translation. *)
let o0 =
  {
    inline = `None;
    doacross = false;
    doacross_sync = false;
    scalar_opt = false;
    while_conversion = false;
    indvar_substitution = false;
    vectorize = false;
    parallelize = false;
    interchange = false;
    fuse = false;
    vreuse = false;
    vlen = 32;
    assume_noalias = false;
    scalar_replacement = false;
    strength_reduction = false;
    pointsto = false;
    range = false;
    catalogs = [];
    dump = None;
    verify = `Off;
    profile = None;
    report = None;
    why_scalar = None;
    tune = `Off;
  }

(* -O1: classical scalar optimization. *)
let o1 =
  {
    o0 with
    scalar_opt = true;
    while_conversion = true;
    indvar_substitution = true;
    strength_reduction = true;
  }

(* -O2: vectorization and parallelization, no inlining. *)
let o2 =
  {
    o1 with
    vectorize = true;
    parallelize = true;
    scalar_replacement = true;
    doacross = true;
    doacross_sync = true;
    pointsto = true;
    range = true;
  }

(* -O3: everything, including automatic inlining and nest
   restructuring (interchange + fusion). *)
let o3 = { o2 with inline = `All; interchange = true; fuse = true; vreuse = true }

let default_options = o3

type stats = {
  while_to_do : Transform.While_to_do.stats;
  indvar : Transform.Indvar.stats;
  forward_sub : Transform.Forward_sub.stats;
  doacross : Transform.Doacross.stats;
  interchange : Transform.Interchange.stats;
  fuse : Transform.Fuse.stats;
  const_prop : Analysis.Const_prop.stats;
  dce : Analysis.Dce.stats;
  unreachable : Analysis.Unreachable.stats;
  vectorize : Vectorize.Vectorize.stats;
  vreuse : Transform.Vreuse.stats;
  inline : Inline.Inline.stats;
  scalar_replace : Transform.Scalar_replace.stats;
  strength_reduction : Transform.Strength_reduction.stats;
}

let new_stats () =
  {
    while_to_do = Transform.While_to_do.new_stats ();
    indvar = Transform.Indvar.new_stats ();
    forward_sub = Transform.Forward_sub.new_stats ();
    doacross = Transform.Doacross.new_stats ();
    interchange = Transform.Interchange.new_stats ();
    fuse = Transform.Fuse.new_stats ();
    const_prop = Analysis.Const_prop.new_stats ();
    dce = Analysis.Dce.new_stats ();
    unreachable = Analysis.Unreachable.new_stats ();
    vectorize = Vectorize.Vectorize.new_stats ();
    vreuse = Transform.Vreuse.new_stats ();
    inline = Inline.Inline.new_stats ();
    scalar_replace = Transform.Scalar_replace.new_stats ();
    strength_reduction = Transform.Strength_reduction.new_stats ();
  }

let dump_stage options prog stage =
  match options.dump with
  | Some f -> f stage (Il.Pp.prog_to_string prog)
  | None -> ()

(* Checkpoint after a whole-program pass: dump the IL and, at
   [`Each_stage], run the verifier over every function so the pass that
   broke an invariant is named in the diagnostic. *)
let after_prog_pass ?pointsto ?range options prog pass =
  dump_stage options prog pass;
  match options.verify with
  | `Each_stage ->
      Check.Verify.run ~assume_noalias:options.assume_noalias ?pointsto ?range
        ~pass prog
  | `Off | `Final -> ()

let timed timer phase f =
  match timer with Some t -> Support.Timing.time t phase f | None -> f ()

(* Callbacks off: what a scout or a tuning candidate compiles under. *)
let quiet options =
  { options with dump = None; verify = `Off; report = None; why_scalar = None;
    tune = `Off }

(* The plan a set of tuned nests induces: every loop header of a nest
   maps to its configuration, every call site in it to the
   configuration's inline verdict for that callee. *)
let plan_of (tuned : (Tune.Fingerprint.nest * Tune.Config.t) list) =
  List.fold_left
    (fun acc ((n : Tune.Fingerprint.nest), (cfg : Tune.Config.t)) ->
      {
        tp_nests =
          List.map (fun l -> (l, cfg)) n.Tune.Fingerprint.loop_locs
          @ acc.tp_nests;
        tp_calls =
          List.filter_map
            (fun (site, callee) ->
              Option.map
                (fun v -> (site, v))
                (List.assoc_opt callee cfg.Tune.Config.inline_calls))
            n.Tune.Fingerprint.calls
          @ acc.tp_calls;
      })
    empty_plan tuned

(* ------------------------------------------------------------------ *)
(* The per-function pass table                                         *)
(* ------------------------------------------------------------------ *)

(* What a pass sees: the program, the options, the statistics sink, the
   resolved tuning plan, and the whole-program analyses (recomputed
   after inlining, hence mutable). *)
type ctx = {
  prog : Il.Prog.t;
  options : options;
  stats : stats;
  timer : Support.Timing.t option;
  plan : tune_plan option;
  mutable points_to : Pointsto.Pointsto.t option;
  mutable ranges : Range.Range.t option;
}

type pass = {
  name : string;  (* the --dump-il / --verify-il stage name *)
  enabled : options -> bool;
  run : ctx -> Il.Func.t -> unit;
}

let nest_cfg ctx loc =
  Option.bind ctx.plan (fun p -> List.assoc_opt loc p.tp_nests)

(* A per-loop tri-state override read from the plan; [None] when
   untuned, so an untuned compile takes the static policy unchanged. *)
let tune_gate ctx get =
  Option.map (fun _ loc -> Option.bind (nest_cfg ctx loc) get) ctx.plan

(* A lazy per-function dataflow over [f]'s body right now; [None]
   facts for statements the fenv does not know (fresh ids, or a stale
   body) keep every consumer conservative.  Optimization passes
   renumber statements, so each consumer forces a fresh fenv. *)
let range_env_at ctx t f =
  let fe = lazy (Range.Range.analyze_func t ctx.prog f) in
  fun (s : Il.Stmt.t) -> Range.Range.env_before (Lazy.force fe) s.Il.Stmt.id

let interval_at env_at s e =
  match env_at s with
  | None -> (None, None)
  | Some env ->
      let itv = Range.Range.interval_of_expr env e in
      (itv.Range.Range.Interval.lo, itv.Range.Range.Interval.hi)

(* The vectorizer's choice for a tuned nest: a mode pins scalar, vector
   or parallel; a bare strip length keeps the static mode. *)
let vector_choice options (c : Tune.Config.t) =
  if c.Tune.Config.mode = None && c.Tune.Config.strip = None then None
  else
    let par =
      match c.Tune.Config.mode with
      | Some Tune.Config.Parallel -> true
      | Some (Tune.Config.Scalar | Tune.Config.Vector) -> false
      | None -> options.parallelize
    in
    Some
      {
        Vectorize.Vectorize.keep_scalar =
          c.Tune.Config.mode = Some Tune.Config.Scalar;
        strip_parallel = par;
        scalar_parallel = par;
        chosen_vlen = Option.value c.Tune.Config.strip ~default:options.vlen;
      }

let pass name enabled run =
  { name; enabled; run = (fun ctx f -> ignore (run ctx f)) }

let scalar_cleanup enabled =
  pass "scalar-cleanup" enabled (fun ctx f ->
      let range =
        Option.map
          (fun t ->
            let env_at = range_env_at ctx t f in
            fun s c ->
              Option.bind (env_at s) (fun env -> Range.Range.truth env c))
          ctx.ranges
      in
      let st = ctx.stats in
      ignore (Analysis.Const_prop.run ~stats:st.const_prop ?range ctx.prog f);
      ignore (Analysis.Dce.run ~stats:st.dce f);
      ignore (Analysis.Unreachable.run ~stats:st.unreachable f);
      Analysis.Dce.run ~stats:st.dce f)

(* The passes that shape loop nests ahead of restructuring.  A scout
   compile runs exactly this prefix of {!passes}, so {!Tune.Fingerprint}
   sees the nests as the autotuning search saw them. *)
let scout_passes =
  [
    scalar_cleanup (fun o -> o.scalar_opt);
    (* §5.2: while→DO right after use-def chains exist *)
    pass "while-to-do" (fun o -> o.while_conversion) (fun ctx f ->
        Transform.While_to_do.run ~stats:ctx.stats.while_to_do ctx.prog f);
    (* §5.3 *)
    pass "indvar-substitution" (fun o -> o.indvar_substitution) (fun ctx f ->
        Transform.Indvar.run ~stats:ctx.stats.indvar ctx.prog f);
    scalar_cleanup (fun o -> o.scalar_opt);
    pass "forward-substitution" (fun o -> o.indvar_substitution) (fun ctx f ->
        Transform.Forward_sub.run ~stats:ctx.stats.forward_sub ctx.prog f);
    scalar_cleanup (fun o -> o.indvar_substitution && o.scalar_opt);
  ]

(* The full per-function pipeline, in order.  Nest restructuring (§7)
   runs on the cleaned-up DO-loop form: fusion first (merging nests
   exposes more statements to one strip loop), then interchange (the
   merged nest is reordered as a whole). *)
let passes =
  scout_passes
  @ [
      pass "fuse" (fun o -> o.fuse) (fun ctx f ->
          let o = ctx.options in
          let options =
            {
              Transform.Fuse.assume_noalias = o.assume_noalias;
              parallelize = o.parallelize;
              vlen = o.vlen;
              profile = o.profile;
              report = o.report;
              tune = tune_gate ctx (fun c -> c.Tune.Config.fuse);
            }
          in
          Transform.Fuse.run ~options ~stats:ctx.stats.fuse ctx.prog f);
      pass "interchange" (fun o -> o.interchange) (fun ctx f ->
          let o = ctx.options in
          let options =
            {
              Transform.Interchange.assume_noalias = o.assume_noalias;
              parallelize = o.parallelize;
              vlen = o.vlen;
              profile = o.profile;
              report = o.report;
              tune = tune_gate ctx (fun c -> c.Tune.Config.interchange);
            }
          in
          Transform.Interchange.run ~options ~stats:ctx.stats.interchange
            ctx.prog f);
      (* §9: Allen-Kennedy distribution, strip mining, do-parallel *)
      pass "vectorize" (fun o -> o.vectorize || o.parallelize) (fun ctx f ->
          let o = ctx.options in
          let range =
            Option.map
              (fun t ->
                let env_at = range_env_at ctx t f in
                {
                  Vectorize.Vectorize.rf_interval = interval_at env_at;
                  rf_divisible =
                    (fun s e n ->
                      n > 0
                      &&
                      match env_at s with
                      | None -> false
                      | Some env -> (
                          let v = Range.Range.eval env e in
                          match v.Range.Range.aff with
                          | Some a -> Range.Range.Affine.divisible_by a n
                          | None -> (
                              match
                                Range.Range.Interval.to_point v.Range.Range.itv
                              with
                              | Some k -> k mod n = 0
                              | None -> false)));
                })
              ctx.ranges
          in
          let options =
            {
              Vectorize.Vectorize.vectorize = o.vectorize;
              parallelize = o.parallelize;
              vlen = o.vlen;
              assume_noalias = o.assume_noalias;
              fuse_strips = o.fuse;
              profile = o.profile;
              report = o.report;
              vreuse = o.vreuse;
              why_scalar = o.why_scalar;
              range;
              tune =
                Option.map
                  (fun _ (s : Il.Stmt.t) ->
                    Option.bind (nest_cfg ctx s.Il.Stmt.loc) (vector_choice o))
                  ctx.plan;
            }
          in
          Vectorize.Vectorize.run ~options ~stats:ctx.stats.vectorize ctx.prog
            f);
      pass "vreuse" (fun o -> o.vreuse) (fun ctx f ->
          let o = ctx.options in
          let options =
            {
              Transform.Vreuse.assume_noalias = o.assume_noalias;
              profile = o.profile;
              report = o.report;
              tune = tune_gate ctx (fun c -> c.Tune.Config.vreuse);
            }
          in
          Transform.Vreuse.run ~options ~stats:ctx.stats.vreuse ctx.prog f);
      (* §10: pragma-marked list loops, post/wait pipelining *)
      pass "doacross" (fun o -> o.doacross || o.doacross_sync) (fun ctx f ->
          let o = ctx.options in
          let options =
            {
              Transform.Doacross.default_options with
              Transform.Doacross.pragma = o.doacross;
              sync = o.doacross_sync;
              assume_noalias = o.assume_noalias;
              profile = o.profile;
              report = o.report;
              why_scalar = o.why_scalar;
              range =
                Option.map
                  (fun t -> interval_at (range_env_at ctx t f))
                  ctx.ranges;
              tune = tune_gate ctx (fun c -> c.Tune.Config.doacross);
            }
          in
          timed ctx.timer "doacross" (fun () ->
              Transform.Doacross.run ~stats:ctx.stats.doacross ~options ctx.prog
                f));
      (* §6 *)
      pass "scalar-replacement" (fun o -> o.scalar_replacement) (fun ctx f ->
          Transform.Scalar_replace.run ~stats:ctx.stats.scalar_replace
            ctx.prog f);
      pass "strength-reduction" (fun o -> o.strength_reduction) (fun ctx f ->
          Transform.Strength_reduction.run ~stats:ctx.stats.strength_reduction
            ctx.prog f);
      pass "dce" (fun o -> o.scalar_opt) (fun ctx f ->
          Analysis.Dce.run ~stats:ctx.stats.dce f);
    ]

(* Run the enabled entries of [table] over every function, checkpointing
   after each one: dump the IL and, at [`Each_stage], verify the
   function so the pass that broke an invariant is named. *)
let run_table ctx table =
  let table = List.filter (fun p -> p.enabled ctx.options) table in
  let o = ctx.options in
  let after_pass f p =
    let stage = Printf.sprintf "%s(%s)" p.name f.Il.Func.name in
    dump_stage o ctx.prog stage;
    match o.verify with
    | `Each_stage ->
        Check.Verify.run_func ~assume_noalias:o.assume_noalias
          ?pointsto:ctx.points_to ?range:ctx.ranges ~pass:stage ctx.prog f
    | `Off | `Final -> ()
  in
  timed ctx.timer "transforms" (fun () ->
      List.iter
        (fun f ->
          List.iter
            (fun p ->
              p.run ctx f;
              after_pass f p)
            table)
        ctx.prog.Il.Prog.funcs)

(* Run the optimization pipeline in place: the whole-program prefix
   (tune-plan resolution, catalog import, points-to, ranges, inlining),
   then [table] per function.  [timer] buckets the wall time of each
   phase group for [--timings]. *)
let rec pipeline ~table ~options ~stats ~timer (prog : Il.Prog.t) =
  (* Resolve the tuning request into a per-location plan before anything
     mutates [prog]: [`Use] fingerprints a scout clone and maps matching
     store records back to this program's loops.  An empty store
     resolves to no plan, so every hook stays [None] and the compile is
     byte-identical to an untuned one. *)
  let plan =
    match options.tune with
    | `Off -> None
    | `Plan p -> Some p
    | `Use store when Profile.Tuned.is_empty store -> None
    | `Use store ->
        let stored (n : Tune.Fingerprint.nest) =
          match Profile.Tuned.find store n.Tune.Fingerprint.fp with
          | None -> None
          | Some r -> (
              match Tune.Config.of_fields r.Profile.Tuned.fields with
              | exception _ -> None (* unknown fields: skip *)
              | cfg -> Some (n, cfg))
        in
        Some
          (timed timer "tune" (fun () ->
               let clone = Il.Prog.clone prog in
               scout ~options clone;
               plan_of (List.filter_map stored (Tune.Fingerprint.nests clone))))
  in
  timed timer "catalog-import" (fun () ->
      List.iter
        (fun file ->
          Inline.Catalog.import ~into:prog (Inline.Catalog.load file))
        options.catalogs);
  (* Whole-program points-to runs after catalog import so argument-to-
     parameter bindings at known call sites are visible.  The verdicts
     back the {!Dependence.Alias} oracle consulted wherever canonical
     decomposition gives up; the oracle is process-global state, so it is
     cleared on every exit path — a later compilation of a different
     program must not see this one's graph.  Symbolic ranges seed
     parameters the same way.  Inlining rewrites bodies wholesale, so
     both are recomputed after it. *)
  let ctx =
    { prog; options; stats; timer; plan; points_to = None; ranges = None }
  in
  let analyze () =
    if options.pointsto then
      ctx.points_to <-
        Some
          (timed timer "pointsto" (fun () -> Pointsto.Pointsto.analyze prog));
    if options.range then
      ctx.ranges <-
        Some (timed timer "range" (fun () -> Range.Range.analyze prog));
    Option.iter
      (fun t ->
        Dependence.Alias.set_oracle (fun e1 e2 ->
            match Pointsto.Pointsto.verdict t e1 e2 with
            | Some `No_alias -> Some Dependence.Alias.No_alias
            | Some (`Must_alias d) -> Some (Dependence.Alias.Must_alias d)
            | None -> None))
      ctx.points_to
  in
  analyze ();
  Fun.protect ~finally:Dependence.Alias.clear_oracle @@ fun () ->
  let inline only =
    let iopts =
      {
        Inline.Inline.default_options with
        only;
        profile = options.profile;
        pointsto = ctx.points_to;
        report = options.report;
        site_tune =
          Option.map (fun p loc -> List.assoc_opt loc p.tp_calls) plan;
      }
    in
    timed timer "inline" (fun () ->
        Inline.Inline.expand ~options:iopts ~stats:stats.inline prog);
    analyze ();
    after_prog_pass ?pointsto:ctx.points_to ?range:ctx.ranges options prog
      "inline"
  in
  (match options.inline with
  | `None -> ()
  | `All -> inline None
  | `Only names -> inline (Some names));
  run_table ctx table;
  dump_stage options prog "final";
  (match options.verify with
  | `Final | `Each_stage ->
      Check.Verify.run ~assume_noalias:options.assume_noalias
        ?pointsto:ctx.points_to ?range:ctx.ranges ~pass:"final" prog
  | `Off -> ());
  stats

(* The scout compile: the whole-program prefix and {!scout_passes} under
   [options]' static policy, callbacks and tuning off. *)
and scout ?(options = default_options) prog =
  ignore
    (pipeline ~table:scout_passes ~options:(quiet options)
       ~stats:(new_stats ()) ~timer:None prog)

let optimize ?(options = default_options) ?(stats = new_stats ()) ?timer prog =
  pipeline ~table:passes ~options ~stats ~timer prog

(* The [--no-<name>] switches: each turns one pass or analysis off on
   top of an -O level.  titancc builds its flags from this list and the
   compile service validates and keys requests by it. *)
type switch = { name : string; doc : string; off : options -> options }

let switches =
  [
    { name = "parallel"; doc = "Disable parallelization";
      off = (fun o -> { o with parallelize = false }) };
    { name = "vectorize"; doc = "Disable vectorization";
      off = (fun o -> { o with vectorize = false }) };
    { name = "interchange"; doc = "Disable loop interchange (nest reordering)";
      off = (fun o -> { o with interchange = false }) };
    { name = "fuse"; doc = "Disable loop fusion and strip sharing";
      off = (fun o -> { o with fuse = false }) };
    {
      name = "vreuse";
      doc =
        "Disable vector-register reuse (invariant Vload hoisting, \
         Vstore-to-Vload forwarding, strip-resident accumulators)";
      off = (fun o -> { o with vreuse = false });
    };
    {
      name = "doacross-sync";
      doc =
        "Disable doacross pipelining of carried-dependence DO loops with \
         post/wait synchronization (on by default at -O2 and above); such \
         loops stay serial";
      off = (fun o -> { o with doacross_sync = false });
    };
    {
      name = "pointsto";
      doc =
        "Disable the interprocedural points-to and mod/ref analysis (on by \
         default at -O2 and above); dependence testing, the race checker, \
         and inline ranking fall back to worst-case aliasing";
      off = (fun o -> { o with pointsto = false });
    };
    {
      name = "range";
      doc =
        "Disable the interprocedural symbolic range and scalar-evolution \
         analysis (on by default at -O2 and above); dependence testing falls \
         back to unknown symbolic distances and strip loops keep their \
         runtime length guards";
      off = (fun o -> { o with range = false });
    };
  ]

(* Front end only. *)
let parse ?file src : Il.Prog.t = Cfront.Frontend.compile ?file src

(* Parse and optimize. *)
let compile ?(options = default_options) ?timer ?file src : Il.Prog.t * stats =
  let prog =
    match timer with
    | Some t -> Support.Timing.time t "parse" (fun () -> parse ?file src)
    | None -> parse ?file src
  in
  after_prog_pass options prog "front-end";
  let stats = optimize ~options ?timer prog in
  (prog, stats)

(* Reference execution on the IL interpreter. *)
let run_interp ?max_steps ?entry ?args prog =
  Il.Interp.run ?max_steps ?entry ?args prog

(* Timed execution on the Titan simulator.  [vreuse] additionally runs
   codegen's redundant-Vload cleanup over the emitted Titan code. *)
let run_titan ?config ?entry ?args ?vreuse prog =
  Titan.Machine.run ?config ?entry ?args ?vreuse prog

(* Convenience: compile under [options], simulate under [config]. *)
let compile_and_simulate ?(options = default_options)
    ?(config = Titan.Machine.default_config) src =
  let prog, stats = compile ~options src in
  let result = run_titan ~config ~vreuse:options.vreuse prog in
  (prog, stats, result)

(* PGO pass one: compile at -O0, run instrumented under [config], and
   return the measured profile alongside the run result.  The profile
   header records the processors and scheduling model it was measured
   under, so pass two's cost comparisons use the same machine. *)
let profile_gen ?(config = Titan.Machine.default_config) ?entry ?args ?file
    src : Profile.Data.t * Titan.Machine.run_result =
  let prog, _ = compile ~options:o0 ?file src in
  let collect =
    Profile.Collect.create ~procs:config.Titan.Machine.procs
      ~sched:(Titan.Machine.sched_name config.Titan.Machine.sched)
  in
  let result = Titan.Machine.run ~config ?entry ?args ~collect prog in
  (Profile.Collect.data collect, result)

(* ------------------------------------------------------------------ *)
(* Simulator-in-the-loop autotuning                                    *)
(* ------------------------------------------------------------------ *)

type tune_result = {
  tuned : Profile.Tuned.t;     (* winners only: nests that beat static *)
  tune_stats : Tune.Search.stats;
  nests_considered : int;      (* nests that entered the search *)
  nests_improved : int;
  static_cycles : int;         (* whole program, untuned *)
  tuned_cycles : int;          (* whole program with every winner *)
}

(* Search the joint per-nest configuration space with the Titan
   simulator as the oracle.  Nests are ranked hottest-first (measured
   trips when a profile covers the outer loop, else the static weight)
   and tuned greedily in that order, each nest's search seeing the
   winners already chosen for hotter nests; the score is whole-program
   cycles, so a "win" that slows everything else down is rejected by
   construction.  Every candidate is differential-checked against the
   unoptimized program on the IL interpreter — a configuration whose
   output differs is discarded, so legality never rests on the search.
   Deterministic: dimensions are swept in a fixed order and ties break
   toward the static default. *)
let tune ?(options = default_options) ?(config = Titan.Machine.default_config)
    ?(budget = 4) ?(stamp = 1) ?report ?timer ?file src : tune_result =
  timed timer "tune" @@ fun () ->
  let say fmt =
    Printf.ksprintf
      (fun m -> match report with Some r -> r ("[tune] " ^ m) | None -> ())
      fmt
  in
  let base = parse ?file src in
  (* catalogs import once into the pristine base; every clone below then
     compiles with [catalogs = []] against the already-imported set *)
  List.iter
    (fun f -> Inline.Catalog.import ~into:base (Inline.Catalog.load f))
    options.catalogs;
  let options = { options with catalogs = [] } in
  let reference = run_interp (Il.Prog.clone base) in
  let compile_with plan =
    let p = Il.Prog.clone base in
    let opts =
      {
        (quiet options) with
        tune = (match plan with None -> `Off | Some pl -> `Plan pl);
      }
    in
    ignore (optimize ~options:opts p);
    p
  in
  let simulate p = run_titan ~config ~vreuse:options.vreuse p in
  let matches (r : Titan.Machine.run_result) =
    r.Titan.Machine.stdout_text = reference.Il.Interp.stdout_text
    &&
    match (r.Titan.Machine.return_value, reference.Il.Interp.return_value) with
    | Titan.Machine.Vi a, Il.Interp.V_int b -> a = b
    | Titan.Machine.Vf a, Il.Interp.V_float b -> a = b
    | _ -> false
  in
  (* scout: the nests as the prefix pipeline shapes them — the same
     point [`Use] replay fingerprints, so winners recorded here match *)
  let nests =
    let p = Il.Prog.clone base in
    scout ~options p;
    Tune.Fingerprint.nests p
  in
  let score (n : Tune.Fingerprint.nest) =
    let measured =
      match options.profile with
      | None -> None
      | Some data -> (
          match Profile.Key.of_loc n.Tune.Fingerprint.loc with
          | None -> None
          | Some key -> (
              match Profile.Data.find_loop data key with
              | None -> None
              | Some lp -> Profile.Data.mean_trips lp))
    in
    match (measured, n.Tune.Fingerprint.trips) with
    | Some t, None :: _ when t > 0 -> n.Tune.Fingerprint.weight * t
    | _ -> n.Tune.Fingerprint.weight
  in
  let ranked =
    let scored = List.map (fun n -> (score n, n)) nests in
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> Int.compare b a) scored
    in
    List.filteri (fun i _ -> i < budget) (List.map snd sorted)
  in
  if List.length nests > budget then
    say "%d nests found, tuning the %d hottest" (List.length nests) budget;
  let static_prog = compile_with None in
  let static_run = simulate static_prog in
  let static_cycles = static_run.Titan.Machine.metrics.Titan.Machine.cycles in
  if not (matches static_run) then
    say "static compile disagrees with the interpreter; tuning anyway";
  let stats = Tune.Search.new_stats () in
  let store = ref Profile.Tuned.empty in
  let winners = ref [] in
  let current = ref static_cycles in
  let improved = ref 0 in
  List.iter
    (fun (n : Tune.Fingerprint.nest) ->
      let opt3 set = List.map set [ None; Some false; Some true ] in
      let dims =
        (if options.vectorize then
           [
             {
               Tune.Search.dim_name = "mode";
               values =
                 List.map
                   (fun m (c : Tune.Config.t) -> { c with Tune.Config.mode = m })
                   [
                     None;
                     Some Tune.Config.Scalar;
                     Some Tune.Config.Vector;
                     Some Tune.Config.Parallel;
                   ];
             };
             {
               Tune.Search.dim_name = "strip";
               values =
                 List.map
                   (fun v (c : Tune.Config.t) ->
                     { c with Tune.Config.strip = v })
                   [ None; Some 8; Some 16; Some 32; Some 64 ];
             };
           ]
         else [])
        @ (if options.interchange && n.Tune.Fingerprint.depth >= 2 then
             [
               {
                 Tune.Search.dim_name = "interchange";
                 values =
                   opt3 (fun v (c : Tune.Config.t) ->
                       { c with Tune.Config.interchange = v });
               };
             ]
           else [])
        @ (if options.fuse then
             [
               {
                 Tune.Search.dim_name = "fuse";
                 values =
                   opt3 (fun v (c : Tune.Config.t) ->
                       { c with Tune.Config.fuse = v });
               };
             ]
           else [])
        @ (if options.vreuse then
             [
               {
                 Tune.Search.dim_name = "vreuse";
                 values =
                   opt3 (fun v (c : Tune.Config.t) ->
                       { c with Tune.Config.vreuse = v });
               };
             ]
           else [])
        @ (if options.doacross_sync then
             [
               {
                 Tune.Search.dim_name = "doacross";
                 values =
                   opt3 (fun v (c : Tune.Config.t) ->
                       { c with Tune.Config.doacross = v });
               };
             ]
           else [])
        @ List.map
            (fun callee ->
              {
                Tune.Search.dim_name = "inline:" ^ callee;
                values =
                  List.map
                    (fun v (c : Tune.Config.t) ->
                      let rest =
                        List.remove_assoc callee c.Tune.Config.inline_calls
                      in
                      {
                        c with
                        Tune.Config.inline_calls =
                          (match v with
                          | None -> rest
                          | Some b -> List.sort compare ((callee, b) :: rest));
                      })
                    [ None; Some false; Some true ];
              })
            (List.sort_uniq compare
               (List.map snd n.Tune.Fingerprint.calls))
      in
      (* a loop pinned scalar gets nothing from a strip length or from
         vector-register reuse: skip those points without simulating *)
      let prune (cfg : Tune.Config.t) =
        cfg.Tune.Config.mode = Some Tune.Config.Scalar
        && (cfg.Tune.Config.strip <> None
           || cfg.Tune.Config.vreuse = Some true)
      in
      let eval (cfg : Tune.Config.t) =
        let plan = plan_of ((n, cfg) :: !winners) in
        let p = compile_with (Some plan) in
        let r = simulate p in
        if matches r then Some r.Titan.Machine.metrics.Titan.Machine.cycles
        else None
      in
      match
        Tune.Search.search ~stats ~prune ~dims ~eval ~init:Tune.Config.default
          ~init_cycles:!current ()
      with
      | None ->
          say "nest at %s (fp %s..): static stays best at %d cycles"
            (Support.Loc.to_string n.Tune.Fingerprint.loc)
            (String.sub n.Tune.Fingerprint.fp 0 8)
            !current
      | Some (cfg, cycles) ->
          incr improved;
          say "nest at %s (fp %s..): %s -> %d cycles (was %d)"
            (Support.Loc.to_string n.Tune.Fingerprint.loc)
            (String.sub n.Tune.Fingerprint.fp 0 8)
            (Tune.Config.to_string cfg) cycles !current;
          store :=
            Profile.Tuned.add !store
              {
                Profile.Tuned.fp = n.Tune.Fingerprint.fp;
                stamp;
                cycles;
                static_cycles = !current;
                fields = Tune.Config.to_fields cfg;
              };
          winners := (n, cfg) :: !winners;
          current := cycles)
    ranked;
  {
    tuned = !store;
    tune_stats = stats;
    nests_considered = List.length ranked;
    nests_improved = !improved;
    static_cycles;
    tuned_cycles = !current;
  }
