(* The compiler driver: parse, check, lower, profile, transform, run, and
   simulate mini-C programs.

   Examples:
     mrvcc dump-ir prog.c                  # lowered IR
     mrvcc run prog.c --in 1,2,3           # sequential execution
     mrvcc profile prog.c --in 1,2,3       # loop + dependence profile
     mrvcc compile prog.c --in 1,2,3       # show regions and sync insertion
     mrvcc lint prog.c --in 1,2,3          # static sync-placement checks
     mrvcc lint                            # lint every bundled benchmark
     mrvcc simulate prog.c --in 1,2,3 --mode C   # TLS simulation
     mrvcc simulate --bench parser --mode H      # a bundled benchmark
     mrvcc simulate --bench mcf --sync-sched     # with the sync scheduler
     mrvcc simulate --bench mcf --engine ref     # cycle-stepped oracle engine
     mrvcc analyze --bench mcf                   # static stall + violation model
     mrvcc analyze --bench mcf --validate        # ... checked against the sim
     mrvcc analyze --bench mcf --json            # machine-readable estimates
     mrvcc simulate --bench parser --mutate drop-wait  # fault injection
     mrvcc chaos --bench all                     # full resilience matrix
     mrvcc chaos --bench all --jobs 4            # same matrix, 4 domains
     mrvcc chaos --fuzz 20 --seed 7              # chaos-fuzz generated programs
     mrvcc chaos --bench all --capacity          # finite-resource sweep
     mrvcc bench --json --out BENCH_PR13.json    # machine-readable baseline
     mrvcc bench --bench mcf --json              # one workload, to stdout
     mrvcc exec --bench parser --domains 4       # real TLS run on domains
     mrvcc exec --bench go --mode U --record r.jsonl   # record a racy run
     mrvcc exec --bench go --mode U --replay r.jsonl   # reproduce it serially
     mrvcc exec --bench mcf --inject crash:1     # runtime fault injection
     mrvcc chaos --exec --bench mcf,parser       # runtime-fault matrix
     mrvcc serve requests.jsonl                  # compile service, JSONL in/out
     mrvcc serve requests.jsonl --cache-dir .cache --deadline 5 --retries 2
     mrvcc chaos --serve --bench twolf,ijpeg     # service-layer fault matrix
     mrvcc bench --json --serve --out B.json     # + serve load phases
     mrvcc benchdiff BENCH_PR13.json fresh.json  # perf-regression gate
     mrvcc benchdiff old.json new.json --tolerance 0.3

   `--jobs N` runs independent matrix cells on N domains; the rendered
   output is byte-identical to a serial run.  `--timeout S` (with
   optional `--retry`) bounds each matrix job's wall time.  `--max-cycles
   N` tightens the simulator cycle budget uniformly across every cell.
   `simulate` takes the finite-resource knobs `--sig-buffer N`,
   `--spec-lines N` (with `--overflow-policy stall|squash`) and
   `--fwd-queue N` (DESIGN §12), plus `--engine ref|event` to pick the
   simulator core (DESIGN §15; both engines are byte-identical, `event`
   is the default and the fast one).  `benchdiff OLD NEW` compares two
   bench baselines: exact equality on deterministic counters,
   `--tolerance`-bounded growth on per-phase wall geomeans; exit 1 on
   regression.

   Exit codes: 0 success; 1 findings / failed cells / output mismatch;
   2 usage error; 3 simulator deadlock; 4 simulator stuck (watchdog or
   protocol check); 5 cycle/step budget exhausted; 6 malformed sequential
   execution (reserved: sequential hooks cannot block today, see README);
   7 resource deadlock (finite forwarding queue backpressured a producer
   into a cycle); 8 serve admission queue shed at least one request;
   9 a wall deadline was exceeded (serve request past its retry
   schedule, or a matrix job past --timeout); 10 the speculative runtime
   wedged (exec wall-clock watchdog fired, typed Specrt_stuck); 11 an
   epoch exhausted its abort budget under exec (typed Abort_exhausted). *)

(* [reading path f] runs [f path]; a [path] the user named that does
   not exist or cannot be read is a usage error (exit 2), not an
   internal one. *)
let reading path f =
  try f path
  with Sys_error msg ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix)
          (String.length msg - String.length prefix)
      else msg
    in
    Printf.eprintf "mrvcc: cannot read %s: %s\n" path reason;
    exit 2

let read_file path = reading path In_channel.(fun p -> with_open_bin p input_all)

let parse_input_list s =
  if String.equal s "" then [||]
  else
    String.split_on_char ',' s
    |> List.map (fun x -> int_of_string (String.trim x))
    |> Array.of_list

(* Resolve source and input from either a file or a bundled benchmark. *)
let resolve_program file bench input =
  match bench, file with
  | Some name, _ -> begin
    match Workloads.Registry.find name with
    | Some w ->
      let input =
        match input with
        | Some s -> parse_input_list s
        | None -> w.Workloads.Workload.ref_input
      in
      (w.Workloads.Workload.source, input)
    | None ->
      Printf.eprintf "unknown benchmark %s (have: %s)\n" name
        (String.concat ", " Workloads.Registry.names);
      exit 2
  end
  | None, Some path ->
    let input =
      match input with Some s -> parse_input_list s | None -> [||]
    in
    (read_file path, input)
  | None, None ->
    prerr_endline "need a source file or --bench";
    exit 2

let with_errors f =
  try f () with
  | Lang.Lexer.Error (msg, pos) ->
    Printf.eprintf "lex error at %d:%d: %s\n" pos.Lang.Token.line
      pos.Lang.Token.col msg;
    exit 1
  | Lang.Parser.Error (msg, pos) ->
    Printf.eprintf "parse error at %d:%d: %s\n" pos.Lang.Token.line
      pos.Lang.Token.col msg;
    exit 1
  | Lang.Sema.Error (msg, pos) ->
    Printf.eprintf "type error at %d:%d: %s\n" pos.Lang.Token.line
      pos.Lang.Token.col msg;
    exit 1

(* Map the typed runtime/simulator errors to distinct exit codes with
   one-line messages, so scripts can tell a hang from a protocol bug. *)
let guarded f =
  try f () with
  | Tls.Sim.Deadlock msg ->
    Printf.eprintf "deadlock: %s\n" msg;
    exit 3
  | Tls.Sim.Stuck d ->
    Printf.eprintf "stuck: %s\n" (Tls.Sim.describe_stuck d);
    exit 4
  | Tls.Sim.Cycle_limit { max_cycles; cycle; where } ->
    Printf.eprintf "cycle budget exhausted: %s hit %d cycles (limit %d)\n"
      where cycle max_cycles;
    exit 5
  | Runtime.Thread.Step_limit { max_steps; icount } ->
    Printf.eprintf
      "step budget exhausted: %d instructions executed (limit %d)\n" icount
      max_steps;
    exit 5
  | Profiler.Runner.Step_limit { max_steps; icount } ->
    Printf.eprintf
      "profiling step budget exhausted: %d instructions executed (limit %d)\n"
      icount max_steps;
    exit 5
  | Runtime.Thread.Unexpected_stop { reason; icount } ->
    Printf.eprintf "sequential thread %s after %d instructions\n" reason icount;
    exit 6
  | Tls.Sim.Resource_deadlock d ->
    Printf.eprintf "resource deadlock: %s\n"
      (Tls.Sim.describe_resource_deadlock d);
    exit 7
  | Harness.Jobs.Job_timeout { index; timeout_s } ->
    Printf.eprintf "job %d exceeded its %.3fs wall deadline\n" index timeout_s;
    exit 9
  | Harness.Jobs.Retries_exhausted { index; attempts } ->
    Printf.eprintf "job %d exhausted its retry budget (%d attempts)\n" index
      (List.length attempts);
    exit 9
  | Specrt.Exec_deadlock msg ->
    Printf.eprintf "exec deadlock: %s\n" msg;
    exit 3
  | Specrt.Specrt_stuck { watchdog_ms; detail } ->
    Printf.eprintf "exec stuck: no progress for %d ms: %s\n" watchdog_ms detail;
    exit 10
  | Specrt.Abort_exhausted { instance; index; aborts; max_aborts } ->
    Printf.eprintf
      "exec abort budget exhausted: instance %d epoch %d squashed %d times \
       (budget %d)\n"
      instance index aborts max_aborts;
    exit 11

(* Resolve a --mutate argument to an IR fault kind. *)
let mutation_of_name name =
  match List.assoc_opt name Faults.Irfault.kinds with
  | Some k -> k
  | None ->
    Printf.eprintf "unknown mutation %s (have: %s)\n" name
      (String.concat ", " (List.map fst Faults.Irfault.kinds));
    exit 2

let apply_mutation kind prog =
  match Faults.Irfault.apply kind prog with
  | Some applied -> applied.Faults.Irfault.prog
  | None ->
    Printf.eprintf "mutation %s not applicable to this program\n"
      (Faults.Irfault.kind_name kind);
    exit 2

let cmd_dump_ir file bench input =
  let source, _ = resolve_program file bench input in
  with_errors (fun () ->
      print_string (Ir.Pp.program (Ir.Lower.compile_source source)))

let cmd_run file bench input =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let prog = Ir.Lower.compile_source source in
      let code = Runtime.Code.of_prog prog in
      let mem = Runtime.Memory.create () in
      let out = Runtime.Thread.run_sequential code ~input mem in
      List.iter (fun v -> Printf.printf "%d\n" v) out)

let cmd_depgraph file bench input threshold =
  (* Emit the dependence graph of each selected region as Graphviz DOT
     (the paper's Figure 5). *)
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let prog = Ir.Lower.compile_source source in
      let profile = Profiler.Runner.run prog ~input ~watch:[] in
      let selected = Tlscore.Selection.select prog profile in
      let dp_run = Profiler.Runner.run prog ~input ~watch:selected in
      List.iter
        (fun (k : Profiler.Profile.loop_key) ->
          match Profiler.Profile.dep_profile dp_run k with
          | Some dp when Hashtbl.length dp.Profiler.Profile.dep_epochs > 0 ->
            Printf.printf "// region %s/L%d\n%s\n" k.Profiler.Profile.lk_func
              k.Profiler.Profile.lk_header
              (Profiler.Profile.to_dot ~threshold dp)
          | Some _ | None -> ())
        selected)

let cmd_profile file bench input threshold =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let prog = Ir.Lower.compile_source source in
      let profile = Profiler.Runner.run prog ~input ~watch:[] in
      Printf.printf "total dynamic instructions: %d\n\n"
        profile.Profiler.Profile.total_instrs;
      let cands = Tlscore.Selection.candidates prog profile in
      Printf.printf "region candidates (coverage / epochs-per-instance / instrs-per-epoch):\n";
      List.iter
        (fun (c : Tlscore.Selection.candidate) ->
          Printf.printf "  %s/L%d  %5.1f%%  %7.1f  %7.1f\n"
            c.Tlscore.Selection.key.Profiler.Profile.lk_func
            c.Tlscore.Selection.key.Profiler.Profile.lk_header
            (100.0 *. c.Tlscore.Selection.coverage)
            c.Tlscore.Selection.epochs_per_instance
            c.Tlscore.Selection.instrs_per_epoch)
        cands;
      let selected = Tlscore.Selection.select prog profile in
      Printf.printf "\nselected regions: %s\n\n"
        (String.concat ", "
           (List.map
              (fun (k : Profiler.Profile.loop_key) ->
                Printf.sprintf "%s/L%d" k.Profiler.Profile.lk_func
                  k.Profiler.Profile.lk_header)
              selected));
      let dp_run = Profiler.Runner.run prog ~input ~watch:selected in
      List.iter
        (fun (k : Profiler.Profile.loop_key) ->
          match Profiler.Profile.dep_profile dp_run k with
          | None -> ()
          | Some dp ->
            Printf.printf "loop %s/L%d: %d epochs; frequent dependences (>=%.0f%%):\n"
              k.Profiler.Profile.lk_func k.Profiler.Profile.lk_header
              dp.Profiler.Profile.total_epochs (100.0 *. threshold);
            List.iter
              (fun (d : Profiler.Profile.dep) ->
                let count =
                  match
                    Hashtbl.find_opt dp.Profiler.Profile.dep_epochs d
                  with
                  | Some c -> c
                  | None -> 0
                in
                Printf.printf "  %s -> %s  (%d epochs, %.0f%%)\n"
                  (Profiler.Profile.pp_access d.Profiler.Profile.producer)
                  (Profiler.Profile.pp_access d.Profiler.Profile.consumer)
                  count
                  (Support.Stats.percent (float_of_int count)
                     (float_of_int dp.Profiler.Profile.total_epochs)))
              (Profiler.Profile.frequent_deps dp ~threshold))
        selected)

let cmd_compile file bench input threshold sync_sched =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let compiled =
        Tlscore.Pipeline.compile ~sync_sched ~source ~profile_input:input
          ~memory_sync:
            (Tlscore.Pipeline.Profiled { dep_input = input; threshold })
          ()
      in
      Printf.printf "selected regions: %d\n"
        (List.length compiled.Tlscore.Pipeline.selected);
      List.iter
        (fun ((key : Profiler.Profile.loop_key), factor) ->
          if factor > 1 then
            Printf.printf "unrolled %s/L%d by %d\n" key.Profiler.Profile.lk_func
              key.Profiler.Profile.lk_header factor)
        compiled.Tlscore.Pipeline.unroll_factors;
      List.iter
        (fun (key, (stats : Tlscore.Memsync.stats)) ->
          Printf.printf
            "region %s/L%d: %d groups (%d static), %d sync loads, %d signals \
             (+%d guarded), %d clones (+%d instrs), %d latch nulls (%d elided)\n"
            key.Profiler.Profile.lk_func key.Profiler.Profile.lk_header
            stats.Tlscore.Memsync.ms_groups stats.Tlscore.Memsync.ms_static_groups
            stats.Tlscore.Memsync.ms_sync_loads stats.Tlscore.Memsync.ms_sync_stores
            stats.Tlscore.Memsync.ms_guarded_signals stats.Tlscore.Memsync.ms_clones
            stats.Tlscore.Memsync.ms_instrs_added stats.Tlscore.Memsync.ms_null_signals
            stats.Tlscore.Memsync.ms_elided_nulls)
        compiled.Tlscore.Pipeline.mem_stats;
      if sync_sched then
        Printf.printf "sync scheduler: %s\n"
          (Analysis.Syncsched.to_string compiled.Tlscore.Pipeline.sched_stats);
      print_newline ();
      print_string (Ir.Pp.program compiled.Tlscore.Pipeline.prog))

(* Compile with memory sync on [input] and report synclint findings.
   Returns the finding count. *)
let lint_one ?mutate ~label source input threshold =
  with_errors (fun () ->
      let compiled =
        Tlscore.Pipeline.compile ~lint:(mutate = None) ~source
          ~profile_input:input
          ~memory_sync:
            (Tlscore.Pipeline.Profiled { dep_input = input; threshold })
          ()
      in
      let prog, findings =
        match mutate with
        | None ->
          (compiled.Tlscore.Pipeline.prog, compiled.Tlscore.Pipeline.lint_findings)
        | Some kind ->
          (* Lint the mutated program: the clone keeps iids and labels, so
             the dependence profiles still apply. *)
          let prog = apply_mutation kind compiled.Tlscore.Pipeline.prog in
          ( prog,
            Analysis.Synclint.run_prog
              ~dep_profiles:compiled.Tlscore.Pipeline.dep_profiles prog )
      in
      List.iter
        (fun (fd : Analysis.Synclint.finding) ->
          let what =
            match fd.Analysis.Synclint.f_iid with
            | Some iid -> begin
              match Ir.Prog.iid_info prog iid with
              | Some info -> Printf.sprintf "  (%s)" info.Ir.Prog.what
              | None -> ""
            end
            | None -> ""
          in
          Printf.printf "%s: %s%s\n" label (Analysis.Synclint.to_string fd)
            what)
        findings;
      if findings = [] then begin
        let n = List.length prog.Ir.Prog.regions in
        Printf.printf "%s: clean (%d region%s)\n" label n
          (if n = 1 then "" else "s")
      end;
      List.length findings)

let cmd_lint file bench input threshold mutate =
  let mutate = Option.map mutation_of_name mutate in
  let total =
    match (bench, file) with
    | None, None ->
      (* No program named: lint every bundled benchmark on its reference
         input. *)
      List.fold_left
        (fun acc name ->
          match Workloads.Registry.find name with
          | Some w ->
            acc
            + lint_one ?mutate ~label:name w.Workloads.Workload.source
                w.Workloads.Workload.ref_input threshold
          | None -> acc)
        0 Workloads.Registry.names
    | _ ->
      let source, input = resolve_program file bench input in
      let label =
        match (bench, file) with
        | Some b, _ -> b
        | _, Some path -> path
        | None, None -> "program"
      in
      lint_one ?mutate ~label source input threshold
  in
  if total > 0 then exit 1

let config_of_mode = function
  | "U" -> Tls.Config.u_mode
  | "C" -> Tls.Config.c_mode
  | "H" -> Tls.Config.h_mode
  | "P" -> Tls.Config.p_mode
  | "B" -> Tls.Config.b_mode
  | m ->
    Printf.eprintf "unknown mode %s (have U, C, H, P, B)\n" m;
    exit 2

(* Uniform cycle-budget override (--max-cycles): one knob for every
   simulation a command runs, so chaos/bench sweeps can be bounded. *)
let apply_budget max_cycles cfg =
  match max_cycles with
  | None -> cfg
  | Some m when m > 0 -> { cfg with Tls.Config.max_cycles = m }
  | Some m ->
    Printf.eprintf "--max-cycles must be positive (got %d)\n" m;
    exit 2

(* The DESIGN §12 finite-resource knobs (--sig-buffer, --spec-lines,
   --fwd-queue, --overflow-policy).  Unset knobs keep the unbounded
   defaults, so plain `simulate` output is unchanged. *)
let apply_limits (sig_buffer, spec_lines, fwd_queue, policy) cfg =
  let bound name v set cfg =
    match v with
    | None -> cfg
    | Some n when n >= 0 -> set cfg n
    | Some n ->
      Printf.eprintf "--%s must be non-negative (got %d)\n" name n;
      exit 2
  in
  { cfg with Tls.Config.overflow_policy = policy }
  |> bound "sig-buffer" sig_buffer (fun cfg n ->
         { cfg with Tls.Config.sig_buffer_entries = n })
  |> bound "spec-lines" spec_lines (fun cfg n ->
         { cfg with Tls.Config.spec_lines_per_epoch = n })
  |> bound "fwd-queue" fwd_queue (fun cfg n ->
         { cfg with Tls.Config.fwd_queue_depth = n })

let cmd_benchdiff old_file new_file tolerance =
  let usage () =
    prerr_endline "usage: mrvcc benchdiff OLD.json NEW.json [--tolerance T]";
    exit 2
  in
  let old_path = match old_file with Some p -> p | None -> usage () in
  let new_path = match new_file with Some p -> p | None -> usage () in
  if tolerance < 0.0 then begin
    Printf.eprintf "--tolerance must be non-negative (got %g)\n" tolerance;
    exit 2
  end;
  match
    Harness.Bench.compare_strings ~tolerance ~old_name:old_path
      ~new_name:new_path (read_file old_path) (read_file new_path)
  with
  | Ok report ->
    print_string report;
    Printf.printf "perf gate: OK (%s -> %s)\n" old_path new_path
  | Error report ->
    print_string report;
    print_newline ();
    Printf.printf "perf gate: FAILED (%s -> %s)\n" old_path new_path;
    exit 1

let cmd_simulate file bench input threshold mode mutate max_cycles limits
    sync_sched engine =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let memory_sync =
        match mode with
        | "U" | "H" | "P" -> Tlscore.Pipeline.No_memory_sync
        | _ -> Tlscore.Pipeline.Profiled { dep_input = input; threshold }
      in
      let compiled =
        Tlscore.Pipeline.compile ~sync_sched ~source ~profile_input:input
          ~memory_sync ()
      in
      let code =
        match mutate with
        | None -> compiled.Tlscore.Pipeline.code
        | Some name ->
          let kind = mutation_of_name name in
          Printf.printf "injected IR fault: %s\n" (Faults.Irfault.kind_name kind);
          Runtime.Code.of_prog
            (apply_mutation kind compiled.Tlscore.Pipeline.prog)
      in
      let cfg =
        {
          (apply_limits limits (apply_budget max_cycles (config_of_mode mode)))
          with
          Tls.Config.engine;
        }
      in
      let bounded =
        match limits with
        | None, None, None, _ -> false
        | _ -> true
      in
      let r = guarded (fun () -> Tls.Sim.run cfg code ~input ()) in
      let reference = Tlscore.Pipeline.original ~source in
      let seq =
        guarded (fun () ->
            Tls.Sim.run_sequential cfg
              (Runtime.Code.of_prog reference)
              ~input ~track:compiled.Tlscore.Pipeline.code.Runtime.Code.regions)
      in
      Printf.printf "mode %s\n" mode;
      if sync_sched then
        Printf.printf "sync scheduler:      %s\n"
          (Analysis.Syncsched.to_string compiled.Tlscore.Pipeline.sched_stats);
      Printf.printf "sequential cycles:   %d\n" seq.Tls.Simstats.sq_cycles;
      Printf.printf "TLS cycles:          %d (%.2fx)\n" r.Tls.Simstats.total_cycles
        (Support.Stats.ratio
           (float_of_int seq.Tls.Simstats.sq_cycles)
           (float_of_int r.Tls.Simstats.total_cycles));
      Printf.printf "region cycles:       %d\n" r.Tls.Simstats.region_cycles;
      Printf.printf "epochs committed:    %d (squashed %d, violations %d)\n"
        r.Tls.Simstats.epochs_committed r.Tls.Simstats.epochs_squashed
        r.Tls.Simstats.violations;
      let s = r.Tls.Simstats.slots in
      Printf.printf "slots: busy %d, sync %d, fail %d, other %d (of %d)\n"
        s.Tls.Simstats.s_busy s.Tls.Simstats.s_sync s.Tls.Simstats.s_fail
        (Tls.Simstats.other s) s.Tls.Simstats.s_total;
      if bounded then begin
        let rs = r.Tls.Simstats.resources in
        Printf.printf "resource peaks:  sig-buffer %d, spec-lines %d, fwd-queue %d\n"
          r.Tls.Simstats.max_signal_buffer rs.Tls.Simstats.rs_peak_spec_lines
          rs.Tls.Simstats.rs_peak_fwd_queue;
        Printf.printf
          "resource events: sig-drops %d, spec-overflows %d (stalls %d, \
           squashes %d), bp-signals %d\n"
          rs.Tls.Simstats.rs_sig_drops rs.Tls.Simstats.rs_spec_overflows
          rs.Tls.Simstats.rs_spec_stalls rs.Tls.Simstats.rs_spec_squashes
          rs.Tls.Simstats.rs_bp_signals
      end;
      Printf.printf "output: %s\n"
        (String.concat " " (List.map string_of_int r.Tls.Simstats.output));
      if r.Tls.Simstats.output <> seq.Tls.Simstats.sq_output then begin
        prerr_endline "ERROR: TLS output differs from sequential!";
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* exec: real speculative execution on domains (DESIGN §16)            *)
(* ------------------------------------------------------------------ *)

(* Runtime-fault specs, e.g. delay-commit:0:5000, yield:1:4,
   drop-wakeup:2:0, crash:1, crash:1:persistent.  The first number is
   always the epoch index targeted (within the first region instance). *)
let parse_exec_fault s =
  let usage () =
    Printf.eprintf
      "bad --inject %s (want delay-commit:EPOCH:MS | yield:EPOCH:EVERY | \
       drop-wakeup:EPOCH:CHANNEL | crash:EPOCH[:persistent])\n"
      s;
    exit 2
  in
  match String.split_on_char ':' s with
  | [ "delay-commit"; e; ms ] -> (
    try Specrt.Delay_commit { epoch = int_of_string e; ms = int_of_string ms }
    with Failure _ -> usage ())
  | [ "yield"; e; n ] -> (
    try Specrt.Yield_steps { epoch = int_of_string e; every = int_of_string n }
    with Failure _ -> usage ())
  | [ "drop-wakeup"; e; ch ] -> (
    try
      Specrt.Drop_wakeup { epoch = int_of_string e; channel = int_of_string ch }
    with Failure _ -> usage ())
  | [ "crash"; e ] -> (
    try Specrt.Crash_epoch { epoch = int_of_string e; persistent = false }
    with Failure _ -> usage ())
  | [ "crash"; e; "persistent" ] -> (
    try Specrt.Crash_epoch { epoch = int_of_string e; persistent = true }
    with Failure _ -> usage ())
  | _ -> usage ()

let cmd_exec file bench input threshold mode sync_sched
    (domains, watchdog_ms, max_aborts, record, replay, injects) =
  let source, input = resolve_program file bench input in
  let replay = Option.map (fun p -> reading p Specrt.read_log) replay in
  with_errors (fun () ->
      let memory_sync =
        match mode with
        | "U" | "H" | "P" -> Tlscore.Pipeline.No_memory_sync
        | _ -> Tlscore.Pipeline.Profiled { dep_input = input; threshold }
      in
      let compiled =
        Tlscore.Pipeline.compile ~sync_sched ~source ~profile_input:input
          ~memory_sync ()
      in
      let code = compiled.Tlscore.Pipeline.code in
      let cfg = config_of_mode mode in
      let base = Specrt.default_opts cfg in
      let opts =
        {
          base with
          Specrt.domains = Option.value domains ~default:base.Specrt.domains;
          watchdog_ms;
          max_aborts;
          faults = List.map parse_exec_fault injects;
          replay;
        }
      in
      let t0 = Unix.gettimeofday () in
      let r = guarded (fun () -> Specrt.run ~opts cfg code ~input) in
      let exec_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      (match record with
      | Some path ->
        Specrt.write_log path r.Specrt.r_events;
        Printf.printf "recorded %d events to %s\n"
          (List.length r.Specrt.r_events) path
      | None -> ());
      Printf.printf "mode %s, %d domains%s\n" mode r.Specrt.r_domains
        (if opts.Specrt.replay <> None then " (replay, serial)" else "");
      Printf.printf "epochs committed:    %d (squashed %d, violations %d)\n"
        r.Specrt.r_epochs_committed r.Specrt.r_epochs_squashed
        r.Specrt.r_violations;
      Printf.printf "region instances:    %s\n"
        (String.concat ", "
           (List.map
              (fun (rid, n) -> Printf.sprintf "%d:%d" rid n)
              r.Specrt.r_region_instances));
      Printf.printf "output: %s\n"
        (String.concat " " (List.map string_of_int r.Specrt.r_output));
      (* The acceptance bar: committed output and memory byte-identical
         to the sequential program, whatever the interleaving did. *)
      let seq_mem = Runtime.Memory.create () in
      let t0 = Unix.gettimeofday () in
      let seq_out = Runtime.Thread.run_sequential code ~input seq_mem in
      let seq_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      Printf.printf "wall: exec %.1f ms, run_sequential %.1f ms, speedup %.2fx\n"
        exec_ms seq_ms (seq_ms /. Float.max exec_ms 1e-3);
      if r.Specrt.r_output <> seq_out then begin
        prerr_endline "ERROR: exec output differs from sequential!";
        exit 1
      end;
      if not (Runtime.Memory.equal seq_mem r.Specrt.r_final_memory) then begin
        prerr_endline "ERROR: exec final memory differs from sequential!";
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* analyze: static stall estimation + violation-risk prediction        *)
(* ------------------------------------------------------------------ *)

let params_of_config (cfg : Tls.Config.t) =
  {
    Analysis.Staticcost.issue_width = cfg.Tls.Config.issue_width;
    lat_mul = cfg.Tls.Config.lat_mul;
    lat_div = cfg.Tls.Config.lat_div;
    forward_latency = cfg.Tls.Config.forward_latency;
    spawn_overhead = cfg.Tls.Config.spawn_overhead;
    track_line_words =
      (if cfg.Tls.Config.word_level_tracking then None
       else Some cfg.Tls.Config.line_words);
  }

(* Relative error of a prediction against a measurement, with a floor of
   one cycle so zero-stall channels don't divide by zero. *)
let rel_err ~predicted ~measured =
  Float.abs (predicted -. measured) /. Float.max 1.0 measured

let cmd_analyze file bench input threshold mode sync_sched json validate
    max_cycles =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let compiled =
        Tlscore.Pipeline.compile ~sync_sched ~source ~profile_input:input
          ~memory_sync:
            (Tlscore.Pipeline.Profiled { dep_input = input; threshold })
          ()
      in
      let prog = compiled.Tlscore.Pipeline.prog in
      (* Profile the transformed program: the estimator's trip counts must
         describe the unrolled, synchronized loops it walks (waits are the
         identity and signals no-ops under sequential semantics, so the
         sync instructions don't perturb the profile). *)
      let profile = Profiler.Runner.run prog ~input ~watch:[] in
      let cfg = apply_budget max_cycles (config_of_mode mode) in
      let params = params_of_config cfg in
      let costs = Analysis.Staticcost.analyze params profile prog in
      (* Optional differential validation: run the same artifact through
         the simulator and put its per-channel sync-stall counters (issue
         slots, divided by the issue width to get cycles) and observed
         violations next to the predictions. *)
      let measured =
        if not validate then None
        else
          let r =
            guarded (fun () ->
                Tls.Sim.run cfg compiled.Tlscore.Pipeline.code ~input ())
          in
          Some r
      in
      let measured_stall ch =
        match measured with
        | None -> None
        | Some r ->
          Some
            (float_of_int
               (Option.value ~default:0
                  (List.assoc_opt ch r.Tls.Simstats.sync_stall_by_channel))
            /. float_of_int cfg.Tls.Config.issue_width)
      in
      let observed_violations () =
        match measured with
        | None -> []
        | Some r ->
          List.filter (fun (iid, _) -> iid >= 0)
            r.Tls.Simstats.violated_load_counts
      in
      let predicted_all =
        List.concat_map
          (fun (rc : Analysis.Staticcost.region_cost) ->
            rc.Analysis.Staticcost.rc_violations)
          costs
      in
      (* Acceptance gate of the predictor: every simulator-observed
         violated load must be in the predicted superset. *)
      let missed =
        List.filter
          (fun (iid, _) -> not (List.mem iid predicted_all))
          (observed_violations ())
      in
      if json then begin
        let b = Buffer.create 4096 in
        Buffer.add_string b "{\n";
        Buffer.add_string b
          (Printf.sprintf
             "  \"mode\": %S, \"issue_width\": %d, \"forward_latency\": %d, \
              \"spawn_overhead\": %d,\n"
             mode cfg.Tls.Config.issue_width cfg.Tls.Config.forward_latency
             cfg.Tls.Config.spawn_overhead);
        if sync_sched then
          Buffer.add_string b
            (Printf.sprintf "  \"sync_sched\": { %s },\n"
               (let s = compiled.Tlscore.Pipeline.sched_stats in
                Printf.sprintf
                  "\"waits_sunk\": %d, \"mem_sunk\": %d, \
                   \"signals_hoisted\": %d, \"signals_inlined\": %d, \
                   \"slots\": %d"
                  s.Analysis.Syncsched.ss_waits_sunk
                  s.Analysis.Syncsched.ss_mem_sunk
                  s.Analysis.Syncsched.ss_signals_hoisted
                  s.Analysis.Syncsched.ss_signals_inlined
                  s.Analysis.Syncsched.ss_slots));
        Buffer.add_string b "  \"regions\": [\n";
        List.iteri
          (fun i (rc : Analysis.Staticcost.region_cost) ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b
              (Printf.sprintf
                 "    { \"id\": %d, \"func\": %S, \"header\": %d, \
                  \"epochs\": %d,\n      \"channels\": ["
                 rc.Analysis.Staticcost.rc_id rc.Analysis.Staticcost.rc_func
                 rc.Analysis.Staticcost.rc_header
                 rc.Analysis.Staticcost.rc_epochs);
            List.iteri
              (fun j (cc : Analysis.Staticcost.channel_cost) ->
                if j > 0 then Buffer.add_string b ",";
                Buffer.add_string b
                  (Printf.sprintf
                     "\n        { \"channel\": %d, \"kind\": %S, \
                      \"producer\": %.2f, \"consumer\": %.2f, \
                      \"stall\": %.2f, \"total\": %.2f"
                     cc.Analysis.Staticcost.cc_channel
                     (Analysis.Staticcost.kind_string
                        cc.Analysis.Staticcost.cc_kind)
                     cc.Analysis.Staticcost.cc_producer
                     cc.Analysis.Staticcost.cc_consumer
                     cc.Analysis.Staticcost.cc_stall
                     cc.Analysis.Staticcost.cc_total);
                (match measured_stall cc.Analysis.Staticcost.cc_channel with
                | Some m ->
                  Buffer.add_string b
                    (Printf.sprintf
                       ", \"measured\": %.2f, \"rel_err\": %.3f" m
                       (rel_err
                          ~predicted:cc.Analysis.Staticcost.cc_total
                          ~measured:m))
                | None -> ());
                Buffer.add_string b " }")
              rc.Analysis.Staticcost.rc_channels;
            Buffer.add_string b
              (Printf.sprintf "\n      ],\n      \"predicted_violations\": [%s] }"
                 (String.concat ", "
                    (List.map string_of_int
                       rc.Analysis.Staticcost.rc_violations))))
          costs;
        Buffer.add_string b "\n  ]";
        (match measured with
        | None -> ()
        | Some r ->
          Buffer.add_string b
            (Printf.sprintf
               ",\n  \"observed_violations\": [%s], \"sim_sync_slots\": %d, \
                \"violation_superset_ok\": %b"
               (String.concat ", "
                  (List.map
                     (fun (iid, _) -> string_of_int iid)
                     (observed_violations ())))
               r.Tls.Simstats.slots.Tls.Simstats.s_sync (missed = [])));
        Buffer.add_string b "\n}\n";
        print_string (Buffer.contents b);
        if missed <> [] then exit 1
      end
      else begin
        let label =
          match (bench, file) with
          | Some b, _ -> b
          | _, Some path -> path
          | None, None -> "program"
        in
        Printf.printf
          "%s: static cost model (mode %s: issue %d, forward %d, spawn %d)\n"
          label mode
          cfg.Tls.Config.issue_width cfg.Tls.Config.forward_latency
          cfg.Tls.Config.spawn_overhead;
        if sync_sched then
          Printf.printf "sync scheduler: %s\n"
            (Analysis.Syncsched.to_string compiled.Tlscore.Pipeline.sched_stats);
        List.iter
          (fun (rc : Analysis.Staticcost.region_cost) ->
            Printf.printf "region %d %s/L%d: %d epochs\n"
              rc.Analysis.Staticcost.rc_id rc.Analysis.Staticcost.rc_func
              rc.Analysis.Staticcost.rc_header rc.Analysis.Staticcost.rc_epochs;
            List.iter
              (fun (cc : Analysis.Staticcost.channel_cost) ->
                Printf.printf
                  "  ch %-3d %-6s producer %7.1f  consumer %7.1f  \
                   stall/epoch %7.1f  total %9.1f"
                  cc.Analysis.Staticcost.cc_channel
                  (Analysis.Staticcost.kind_string
                     cc.Analysis.Staticcost.cc_kind)
                  cc.Analysis.Staticcost.cc_producer
                  cc.Analysis.Staticcost.cc_consumer
                  cc.Analysis.Staticcost.cc_stall
                  cc.Analysis.Staticcost.cc_total;
                (match measured_stall cc.Analysis.Staticcost.cc_channel with
                | Some m ->
                  Printf.printf "  measured %9.1f  rel-err %.3f" m
                    (rel_err
                       ~predicted:cc.Analysis.Staticcost.cc_total ~measured:m)
                | None -> ());
                print_newline ())
              rc.Analysis.Staticcost.rc_channels;
            let vs = rc.Analysis.Staticcost.rc_violations in
            Printf.printf "  predicted violations: %d load%s%s\n"
              (List.length vs)
              (if List.length vs = 1 then "" else "s")
              (if vs = [] then ""
               else
                 " ("
                 ^ String.concat " "
                     (List.map (Printf.sprintf "i%d") vs)
                 ^ ")"))
          costs;
        match measured with
        | None -> ()
        | Some r ->
          let observed = observed_violations () in
          let sentinel =
            List.fold_left
              (fun acc (iid, n) -> if iid < 0 then acc + n else acc)
              0 r.Tls.Simstats.violated_load_counts
          in
          Printf.printf
            "simulator: %d violations (%d distinct loads, %d unattributed), \
             %d sync slots\n"
            r.Tls.Simstats.violations (List.length observed) sentinel
            r.Tls.Simstats.slots.Tls.Simstats.s_sync;
          if missed = [] then
            Printf.printf
              "violation superset: ok (%d predicted >= %d observed)\n"
              (List.length predicted_all) (List.length observed)
          else begin
            Printf.printf "violation superset: FAILED — observed but not predicted:%s\n"
              (String.concat ""
                 (List.map (fun (iid, _) -> Printf.sprintf " i%d" iid) missed));
            exit 1
          end
      end)

(* ------------------------------------------------------------------ *)
(* chaos: the fault x workload x mode resilience matrix                 *)
(* ------------------------------------------------------------------ *)

let program_of_workload (w : Workloads.Workload.t) =
  {
    Faults.Chaos.p_name = w.Workloads.Workload.name;
    p_source = w.Workloads.Workload.source;
    p_train = w.Workloads.Workload.train_input;
    p_ref = w.Workloads.Workload.ref_input;
    p_select_main = false;
  }

let chaos_programs bench fuzz seed =
  let named =
    match bench with
    | None -> []
    | Some "all" ->
      List.filter_map Workloads.Registry.find Workloads.Registry.names
      |> List.map program_of_workload
    | Some names ->
      String.split_on_char ',' names
      |> List.map (fun name ->
             match Workloads.Registry.find (String.trim name) with
             | Some w -> program_of_workload w
             | None ->
               Printf.eprintf "unknown benchmark %s (have: all, %s)\n" name
                 (String.concat ", " Workloads.Registry.names);
               exit 2)
  in
  named @ Faults.Chaos.fuzz_programs ~count:fuzz ~seed

let chaos_modes s =
  String.split_on_char ',' s
  |> List.map (fun m ->
         let m = String.trim m in
         (m, config_of_mode m))

(* Serve-layer chaos works through the service request path, so it runs
   over bundled benchmark names (fuzz programs would need the
   force-select-main hook the request format deliberately lacks). *)
let serve_chaos_names bench =
  match bench with
  | None ->
    prerr_endline "serve chaos needs --bench all or --bench NAME[,NAME...]";
    exit 2
  | Some "all" -> Workloads.Registry.names
  | Some names ->
    String.split_on_char ',' names
    |> List.map (fun name ->
           let name = String.trim name in
           match Workloads.Registry.find name with
           | Some _ -> name
           | None ->
             Printf.eprintf "unknown benchmark %s (have: all, %s)\n" name
               (String.concat ", " Workloads.Registry.names);
             exit 2)

(* Runtime-layer chaos: the speculative executor's fault catalog.  Runs
   serially (each cell already spawns its own worker domains) over
   bundled benchmark names; the rendered table is byte-deterministic
   despite real concurrency, because outcomes classify only committed
   state and typed errors. *)
let cmd_chaos_exec bench =
  let programs = chaos_programs bench 0 0 in
  if programs = [] then begin
    prerr_endline "exec chaos needs --bench all or --bench NAME[,NAME...]";
    exit 2
  end;
  with_errors (fun () ->
      let cells =
        guarded (fun () ->
            Faults.Chaosexec.run_matrix ~log:print_endline programs)
      in
      print_newline ();
      print_string (Faults.Chaosexec.render_table cells);
      if Faults.Chaosexec.count_failed cells > 0 then exit 1)

let cmd_chaos_serve bench jobs =
  let programs = serve_chaos_names bench in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrvcc-serve-chaos.%d" (Unix.getpid ()))
  in
  Serve.Cache.remove_tree dir;
  let cells =
    Fun.protect
      ~finally:(fun () -> Serve.Cache.remove_tree dir)
      (fun () ->
        with_errors (fun () ->
            Serve.Chaoserve.run ~log:print_endline ~jobs ~cache_dir:dir
              ~programs ()))
  in
  print_newline ();
  print_string (Serve.Chaoserve.render_table cells);
  if Serve.Chaoserve.count_failed cells > 0 then exit 1

let cmd_chaos bench modes fuzz seed jobs max_cycles capacity timeout retry
    sync_sched =
  let programs = chaos_programs bench fuzz seed in
  if programs = [] then begin
    prerr_endline "nothing to run: pass --bench all, --bench NAME[,NAME...], and/or --fuzz N";
    exit 2
  end;
  let modes =
    chaos_modes modes
    |> List.map (fun (m, cfg) -> (m, apply_budget max_cycles cfg))
  in
  let pool = Harness.Jobs.create ?timeout ~retry ~jobs () in
  with_errors (fun () ->
      if capacity then begin
        let cells =
          guarded (fun () ->
              Faults.Chaos.run_capacity ~log:print_endline
                ~map:pool.Harness.Jobs.map ~sync_sched ~modes programs)
        in
        print_newline ();
        print_string (Faults.Chaos.render_capacity_table cells);
        if Faults.Chaos.count_capacity_failed cells > 0 then exit 1
      end
      else begin
        let cells =
          guarded (fun () ->
              Faults.Chaos.run_matrix ~log:print_endline
                ~map:pool.Harness.Jobs.map ~sync_sched ~modes
                ~faults:Faults.Fault.catalog programs)
        in
        print_newline ();
        print_string (Faults.Chaos.render_table cells);
        if Faults.Chaos.count_failed cells > 0 then exit 1
      end)

(* ------------------------------------------------------------------ *)
(* bench: machine-readable performance baseline                        *)
(* ------------------------------------------------------------------ *)

let bench_workloads bench =
  match bench with
  | None | Some "all" ->
    List.filter_map Workloads.Registry.find Workloads.Registry.names
  | Some names ->
    String.split_on_char ',' names
    |> List.map (fun name ->
           match Workloads.Registry.find (String.trim name) with
           | Some w -> w
           | None ->
             Printf.eprintf "unknown benchmark %s (have: all, %s)\n" name
               (String.concat ", " Workloads.Registry.names);
             exit 2)

(* Bounded chaos matrix for the serial-vs-parallel timing section: two
   real workloads plus two fuzz programs, one fault family per run. *)
let bench_matrix_programs () =
  let named =
    List.filteri (fun i _ -> i < 2) Workloads.Registry.names
    |> List.filter_map Workloads.Registry.find
    |> List.map program_of_workload
  in
  named @ Faults.Chaos.fuzz_programs ~count:2 ~seed:7

let cmd_bench bench json out jobs matrix serve timeout retry =
  let workloads = bench_workloads bench in
  if workloads = [] then begin
    prerr_endline "nothing to bench";
    exit 2
  end;
  let pool = Harness.Jobs.create ?timeout ~retry ~jobs () in
  let wbs =
    with_errors (fun () ->
        guarded (fun () ->
            pool.Harness.Jobs.map Harness.Bench.bench_workload workloads))
  in
  let mx =
    if not matrix then None
    else begin
      let programs = bench_matrix_programs () in
      let modes = chaos_modes "U,C" in
      let faults = Faults.Fault.catalog in
      let cells = ref 0 in
      let run map =
        cells := List.length (Faults.Chaos.run_matrix ~map ~modes ~faults programs)
      in
      let _, serial =
        Harness.Bench.timed_phase "matrix_serial" (fun () ->
            run (fun f l -> List.map f l))
      in
      let _, par =
        Harness.Bench.timed_phase "matrix_parallel" (fun () ->
            run pool.Harness.Jobs.map)
      in
      Some
        {
          Harness.Bench.mx_name = "chaos";
          mx_cells = !cells;
          mx_jobs = jobs;
          mx_serial_wall_ns = serial.Harness.Bench.ph_wall_ns;
          mx_parallel_wall_ns = par.Harness.Bench.ph_wall_ns;
        }
    end
  in
  let sv =
    if not serve then []
    else
      try Serve.Load.run ~jobs ()
      with Failure msg ->
        prerr_endline msg;
        exit 1
  in
  let doc =
    {
      Harness.Bench.bench_schema_version = Harness.Bench.schema_version;
      bench_workloads = wbs;
      bench_matrix = mx;
      bench_serve = sv;
    }
  in
  if json then begin
    let text = Harness.Bench.to_json doc in
    match out with
    | None -> print_string text
    | Some path ->
      (* Atomic: a reader (or a kill mid-write) never sees a truncated
         baseline — the old file survives until the rename. *)
      Harness.Bench.write_file_atomic path text;
      Printf.printf "wrote %s (%d workloads%s)\n" path (List.length wbs)
        (if mx = None then "" else ", matrix")
  end
  else begin
    let rows =
      List.concat_map
        (fun (wb : Harness.Bench.workload_bench) ->
          List.map
            (fun (p : Harness.Bench.phase) ->
              [
                wb.Harness.Bench.wb_name;
                p.Harness.Bench.ph_name;
                Printf.sprintf "%.3f ms"
                  (float_of_int p.Harness.Bench.ph_wall_ns /. 1e6);
                (match p.Harness.Bench.ph_cycles with
                | Some c -> string_of_int c
                | None -> "-");
              ])
            wb.Harness.Bench.wb_phases)
        wbs
    in
    print_string
      (Support.Table.render
         ~header:[ "workload"; "phase"; "wall"; "cycles" ]
         rows);
    (match mx with
    | None -> ()
    | Some m ->
      Printf.printf "matrix %s: %d cells, serial %.3f ms, --jobs %d %.3f ms\n"
        m.Harness.Bench.mx_name m.Harness.Bench.mx_cells
        (float_of_int m.Harness.Bench.mx_serial_wall_ns /. 1e6)
        m.Harness.Bench.mx_jobs
        (float_of_int m.Harness.Bench.mx_parallel_wall_ns /. 1e6));
    if sv <> [] then print_newline ();
    List.iter
      (fun (s : Harness.Bench.serve_phase) ->
        Printf.printf
          "serve %-11s %d requests, %d shed, %d hits, p50 %.3f ms, p99 %.3f \
           ms\n"
          s.Harness.Bench.sv_name s.Harness.Bench.sv_requests
          s.Harness.Bench.sv_shed s.Harness.Bench.sv_cache_hits
          (float_of_int s.Harness.Bench.sv_p50_ns /. 1e6)
          (float_of_int s.Harness.Bench.sv_p99_ns /. 1e6))
      sv
  end

(* ------------------------------------------------------------------ *)
(* serve: persistent compile service over JSONL requests               *)
(* ------------------------------------------------------------------ *)

let cmd_serve file jobs out (cache_dir, no_cache, queue, rate, deadline,
                             retries, backoff, no_timing) =
  let text =
    match file with
    | Some path -> read_file path
    | None -> In_channel.input_all stdin
  in
  match Serve.Request.parse_all text with
  | Error msgs ->
    List.iter prerr_endline msgs;
    exit 2
  | Ok [] ->
    prerr_endline "no requests (give a JSONL file or pipe requests to stdin)";
    exit 2
  | Ok requests ->
    let cfg =
      {
        Serve.Service.sc_cache_dir =
          (if no_cache then None else Some cache_dir);
        sc_queue = queue;
        sc_rate = rate;
        sc_jobs = jobs;
        sc_deadline_s = deadline;
        sc_retries = retries;
        sc_backoff_s = backoff;
        sc_timing = not no_timing;
      }
    in
    let o =
      try Serve.Service.run cfg requests
      with Invalid_argument msg ->
        prerr_endline msg;
        exit 2
    in
    let st = o.Serve.Service.so_stats in
    List.iter
      (fun q -> Printf.eprintf "quarantined corrupt cache entry %s\n" q)
      st.Serve.Service.st_quarantined;
    let body =
      String.concat ""
        (List.map
           (fun r -> Serve.Request.response_line r ^ "\n")
           o.Serve.Service.so_responses)
    in
    (match out with
    | None -> print_string body
    | Some path ->
      (* Atomic, like the bench baseline: a kill mid-write never leaves a
         truncated response file. *)
      Harness.Bench.write_file_atomic path body;
      Printf.printf "wrote %s (%d responses)\n" path
        (List.length o.Serve.Service.so_responses));
    Printf.eprintf
      "serve: %d requests | %d ok | %d degraded | %d shed | %d deadline | %d \
       error | cache %d hit / %d miss / %d stale\n"
      st.Serve.Service.st_requests st.Serve.Service.st_ok
      st.Serve.Service.st_degraded st.Serve.Service.st_shed
      st.Serve.Service.st_deadline st.Serve.Service.st_error
      st.Serve.Service.st_cache_hits st.Serve.Service.st_cache_misses
      st.Serve.Service.st_cache_stale;
    exit (Serve.Service.exit_code st)

open Cmdliner

let file_arg =
  Arg.(value & pos 1 (some string) None & info [] ~docv:"FILE")

(* Second positional: the freshly measured baseline of `benchdiff OLD NEW`. *)
let file2_arg =
  Arg.(value & pos 2 (some string) None & info [] ~docv:"FILE2")

let bench_arg =
  Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAME")

let input_arg =
  Arg.(value & opt (some string) None & info [ "in" ] ~docv:"N,N,...")

(* The same range the serve codec accepts for a request's "threshold". *)
let fraction =
  let parse s =
    match float_of_string_opt s with
    | Some t when t >= 0.0 && t <= 1.0 -> Ok t
    | _ -> Error (`Msg (Printf.sprintf "%S is not a fraction in [0,1]" s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let threshold_arg =
  Arg.(value & opt fraction 0.05 & info [ "threshold" ] ~docv:"FRACTION")

let mode_arg = Arg.(value & opt string "C" & info [ "mode" ] ~docv:"U|C|H|P|B")

let mutate_arg =
  Arg.(value & opt (some string) None & info [ "mutate" ] ~docv:"FAULT")

let modes_arg =
  Arg.(value & opt string "U,C,H,B" & info [ "modes" ] ~docv:"M,M,...")

let fuzz_arg = Arg.(value & opt int 0 & info [ "fuzz" ] ~docv:"COUNT")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED")

let jobs_arg =
  let doc =
    "Run independent matrix cells on $(docv) domains. Output is \
     byte-identical to a serial run."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc ~docv:"N")

let max_cycles_arg =
  let doc = "Override the simulator cycle budget for every simulation run." in
  Arg.(value & opt (some int) None & info [ "max-cycles" ] ~doc ~docv:"N")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let sync_sched_arg =
  Arg.(
    value & flag
    & info [ "sync-sched" ]
        ~doc:
          "Run the sync scheduler after the sync passes: hoist each \
           store+signal pair toward the stored value's definition and sink \
           each wait toward its first use, guarded by epoch dominance and \
           points-to facts.")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:
          "After the static analysis, run the simulator on the same artifact \
           and report each channel's measured sync stall with the relative \
           error of the prediction, plus the violation superset check \
           (exit 1 if a simulator-observed violation was not predicted).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write JSON to $(docv) instead of stdout.")

let matrix_arg =
  Arg.(
    value & flag
    & info [ "matrix" ]
        ~doc:"Also time the bounded chaos matrix, serial vs --jobs.")

let capacity_arg =
  Arg.(
    value & flag
    & info [ "capacity" ]
        ~doc:
          "Run the finite-resource capacity sweep instead of the fault \
           matrix: halve each resource limit from its observed peak until \
           degradation triggers, then classify the run.")

let timeout_arg =
  let doc =
    "Bound each matrix job's wall time to $(docv) seconds; a job past the \
     bound fails with Job_timeout naming its input index."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~doc ~docv:"SECONDS")

let retry_arg =
  Arg.(
    value & flag
    & info [ "retry" ]
        ~doc:"With --timeout, grant one retry at double the bound.")

let sig_buffer_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sig-buffer" ] ~docv:"N"
        ~doc:
          "Bound the signal address buffer to $(docv) entries; overflowing \
           forwards degrade to the violation-protected NULL path.")

let spec_lines_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "spec-lines" ] ~docv:"N"
        ~doc:
          "Bound each epoch's speculative state to $(docv) cache lines; \
           overflow follows --overflow-policy (the oldest epoch is exempt).")

let fwd_queue_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fwd-queue" ] ~docv:"N"
        ~doc:
          "Bound the per-epoch forwarding queue to $(docv) in-flight \
           channels; a full queue backpressures the producer.")

let overflow_policy_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("stall", Tls.Config.Overflow_stall);
             ("squash", Tls.Config.Overflow_squash);
           ])
        Tls.Config.Overflow_stall
    & info [ "overflow-policy" ] ~docv:"stall|squash"
        ~doc:
          "What a --spec-lines overflow does: stall the epoch until it is \
           oldest, or squash and restart it serialized.")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("ref", Tls.Config.Engine_ref);
             ("event", Tls.Config.Engine_event);
           ])
        Tls.Config.Engine_event
    & info [ "engine" ] ~docv:"ref|event"
        ~doc:
          "Which simulator core $(b,simulate) runs: the reference \
           cycle-stepped engine or the event-driven engine (default). Both \
           produce byte-identical results; $(b,ref) exists as the oracle \
           the differential suite locks the event core against.")

let tolerance_arg =
  Arg.(
    value & opt float 0.5
    & info [ "tolerance" ] ~docv:"T"
        ~doc:
          "Relative wall-time growth $(b,benchdiff) accepts per phase \
           (geomean across workloads) before failing, e.g. 0.5 = +50%. \
           Deterministic counters always require exact equality.")

let action_arg =
  Arg.(
    required
    & pos 0 (some (enum
        [ ("dump-ir", `Dump_ir); ("run", `Run); ("profile", `Profile);
          ("depgraph", `Depgraph); ("compile", `Compile); ("lint", `Lint);
          ("simulate", `Simulate); ("exec", `Exec); ("analyze", `Analyze);
          ("chaos", `Chaos); ("bench", `Bench); ("benchdiff", `Benchdiff);
          ("serve", `Serve) ])) None
    & info [] ~docv:"ACTION")

let domains_arg =
  Arg.(
    value & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for $(b,exec) (default: the simulated machine's \
           processor count; 1 = serial in-order execution).")

let watchdog_ms_arg =
  Arg.(
    value & opt int 10_000
    & info [ "watchdog-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock watchdog for $(b,exec): no commit, squash, or \
           sequential progress for this long is a hang, reported as the \
           typed Specrt_stuck (exit 10).")

let max_aborts_arg =
  Arg.(
    value & opt int 64
    & info [ "max-aborts" ] ~docv:"N"
        ~doc:
          "Per-epoch squash budget for $(b,exec); exceeding it raises the \
           typed Abort_exhausted (exit 11).")

let record_arg =
  Arg.(
    value & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Write $(b,exec)'s commit/violation/squash/signal event log to \
           FILE (JSONL, one event per line).")

let replay_arg =
  Arg.(
    value & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay a recorded event log: run serially in epoch order, \
           forcing the recorded squashes and violations at their commit \
           points, so a nondeterministic failure reproduces \
           deterministically.  A truncated FILE replays its prefix.")

let inject_arg =
  Arg.(
    value & opt_all string []
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Inject a runtime fault into $(b,exec) (repeatable): \
           $(b,delay-commit:EPOCH:MS), $(b,yield:EPOCH:EVERY), \
           $(b,drop-wakeup:EPOCH:CHANNEL), $(b,crash:EPOCH[:persistent]).")

let exec_flag_arg =
  Arg.(
    value & flag
    & info [ "exec" ]
        ~doc:
          "With $(b,chaos): run the runtime-layer fault matrix through the \
           speculative executor instead of the simulator.")

(* The exec runtime knobs travel together. *)
let exec_opts_term =
  Term.(
    const (fun domains watchdog_ms max_aborts record replay injects ->
        (domains, watchdog_ms, max_aborts, record, replay, injects))
    $ domains_arg $ watchdog_ms_arg $ max_aborts_arg $ record_arg
    $ replay_arg $ inject_arg)

let serve_flag_arg =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "With $(b,chaos): run the service-layer fault matrix through \
           $(b,mrvcc serve)'s request path. With $(b,bench): also run the \
           serve load phases (cold / warm / burst).")

let cache_dir_arg =
  Arg.(
    value & opt string "_mrvcc_cache"
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Artifact cache directory for $(b,serve) (created if missing).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Disable the $(b,serve) artifact cache.")

let queue_arg =
  Arg.(
    value & opt int 8
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission queue capacity for $(b,serve); arrivals past it are \
           shed with a typed rejection (exit 8).")

let rate_arg =
  Arg.(
    value & opt int 2
    & info [ "rate" ] ~docv:"N"
        ~doc:"Requests dispatched per admission tick for $(b,serve).")

let deadline_arg =
  Arg.(
    value & opt float 10.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request wall deadline for $(b,serve); a request past \
           its whole retry schedule resolves to a typed deadline response \
           (exit 9).")

let retries_arg =
  Arg.(
    value & opt int 1
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts per $(b,serve) request; attempt k runs under \
           deadline*2^k after a backoff*2^(k-1) sleep.")

let backoff_arg =
  Arg.(
    value & opt float 0.0
    & info [ "backoff" ] ~docv:"SECONDS"
        ~doc:"Base backoff between $(b,serve) attempts (deterministic, no \
              jitter).")

let no_timing_arg =
  Arg.(
    value & flag
    & info [ "no-timing" ]
        ~doc:
          "Omit wall_ns from $(b,serve) responses, making the response \
           stream byte-deterministic (used by the test fixtures).")

(* The serve service knobs travel together, like the resource limits. *)
let serve_opts_term =
  Term.(
    const (fun cache_dir no_cache queue rate deadline retries backoff
               no_timing ->
        (cache_dir, no_cache, queue, rate, deadline, retries, backoff,
         no_timing))
    $ cache_dir_arg $ no_cache_arg $ queue_arg $ rate_arg $ deadline_arg
    $ retries_arg $ backoff_arg $ no_timing_arg)

(* The four DESIGN §12 resource knobs travel together. *)
let limits_term =
  Term.(
    const (fun sig_buffer spec_lines fwd_queue policy ->
        (sig_buffer, spec_lines, fwd_queue, policy))
    $ sig_buffer_arg $ spec_lines_arg $ fwd_queue_arg $ overflow_policy_arg)

let main action file file2 bench input threshold mode mutate modes fuzz seed
    jobs max_cycles json out matrix capacity timeout retry limits sync_sched
    engine tolerance validate serve serve_opts exec_flag exec_opts =
  match action with
  | `Dump_ir -> cmd_dump_ir file bench input
  | `Run -> cmd_run file bench input
  | `Profile -> cmd_profile file bench input threshold
  | `Depgraph -> cmd_depgraph file bench input threshold
  | `Compile -> cmd_compile file bench input threshold sync_sched
  | `Lint -> cmd_lint file bench input threshold mutate
  | `Simulate ->
    cmd_simulate file bench input threshold mode mutate max_cycles limits
      sync_sched engine
  | `Exec -> cmd_exec file bench input threshold mode sync_sched exec_opts
  | `Analyze ->
    cmd_analyze file bench input threshold mode sync_sched json validate
      max_cycles
  | `Chaos ->
    if exec_flag then cmd_chaos_exec bench
    else if serve then cmd_chaos_serve bench jobs
    else
      cmd_chaos bench modes fuzz seed jobs max_cycles capacity timeout retry
        sync_sched
  | `Bench -> cmd_bench bench json out jobs matrix serve timeout retry
  | `Benchdiff -> cmd_benchdiff file file2 tolerance
  | `Serve -> cmd_serve file jobs out serve_opts

let cmd =
  let doc = "mini-C TLS compiler and simulator driver" in
  Cmd.v
    (Cmd.info "mrvcc" ~doc)
    Term.(
      const main $ action_arg $ file_arg $ file2_arg $ bench_arg $ input_arg
      $ threshold_arg $ mode_arg $ mutate_arg $ modes_arg $ fuzz_arg
      $ seed_arg $ jobs_arg $ max_cycles_arg $ json_arg $ out_arg
      $ matrix_arg $ capacity_arg $ timeout_arg $ retry_arg $ limits_term
      $ sync_sched_arg $ engine_arg $ tolerance_arg
      $ validate_arg $ serve_flag_arg $ serve_opts_term $ exec_flag_arg
      $ exec_opts_term)

let () = exit (Cmd.eval cmd)
