(* Differential suite for the real speculative runtime (DESIGN §16).

   Specrt runs compiled epochs concurrently on OCaml 5 domains, so its
   violation/squash counters are scheduling-dependent — but its committed
   observables must not be.  Every check here is differential:

   - output and final memory byte-identical to sequential execution,
     always, on every workload and a generated-program corpus;
   - the deterministic observables (epochs committed, region-instance
     activations) identical to the Tls.Sim simulator;
   - repeated runs (10 distinct perturbation seeds per workload, via the
     @specrt-diff alias) to flush real races rather than assume their
     absence;
   - robustness: injected runtime faults end in absorbed recovery or the
     right typed error, never a hang or a process death;
   - record/replay: a real nondeterministic violation recorded from a
     racy run is reproduced deterministically from its log, twice. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile_workload ?(sync_sched = false) (w : Workloads.Workload.t) =
  Tlscore.Pipeline.compile ~sync_sched ~source:w.Workloads.Workload.source
    ~profile_input:w.Workloads.Workload.train_input
    ~memory_sync:
      (Tlscore.Pipeline.Profiled
         { dep_input = w.Workloads.Workload.train_input; threshold = 0.05 })
    ()

let compile_src src input =
  Tlscore.Pipeline.compile ~lint:false ~source:src ~profile_input:input
    ~memory_sync:
      (Tlscore.Pipeline.Profiled { dep_input = input; threshold = 0.05 })
    ()

(* Sequential ground truth straight from the interpreter. *)
let sequential_ref (code : Runtime.Code.t) input =
  let mem = Runtime.Memory.create () in
  Runtime.Memory.store_all mem code.Runtime.Code.initial_stores;
  let output = Runtime.Thread.run_sequential code ~input mem in
  (output, mem)

let exec_opts ?(domains = 4) ?seed ?(watchdog_ms = 30_000) cfg =
  {
    (Specrt.default_opts cfg) with
    Specrt.domains;
    watchdog_ms;
    perturb_seed = seed;
  }

(* One specrt run checked against sequential execution (always) and the
   simulator's deterministic observables (when [sim] is given). *)
let exec_diff label ?sim cfg opts (code : Runtime.Code.t) input =
  let r = Specrt.run ~opts cfg code ~input in
  let seq_out, seq_mem = sequential_ref code input in
  Alcotest.(check (list int)) (label ^ ": output = sequential") seq_out
    r.Specrt.r_output;
  check_bool
    (label ^ ": final memory = sequential")
    true
    (Runtime.Memory.equal seq_mem r.Specrt.r_final_memory);
  (match sim with
  | None -> ()
  | Some (s : Tls.Simstats.result) ->
    check_int
      (label ^ ": epochs committed = simulator")
      s.Tls.Simstats.epochs_committed r.Specrt.r_epochs_committed;
    check_bool
      (label ^ ": region instances = simulator")
      true
      (s.Tls.Simstats.region_instances = r.Specrt.r_region_instances));
  r

(* ------------------------------------------------------------------ *)
(* 15-workload differential, 10 distinct perturbation seeds each       *)
(* ------------------------------------------------------------------ *)

let workload_repeated (w : Workloads.Workload.t) () =
  let name = w.Workloads.Workload.name in
  let input = w.Workloads.Workload.ref_input in
  let compiled = compile_workload w in
  let code = compiled.Tlscore.Pipeline.code in
  let sim = Tls.Sim.run Tls.Config.c_mode code ~input () in
  for seed = 1 to 10 do
    ignore
      (exec_diff
         (Printf.sprintf "%s/seed%d" name seed)
         ~sim Tls.Config.c_mode
         (exec_opts ~seed Tls.Config.c_mode)
         code input)
  done;
  (* Two domains: the count the benchmark runs on a 2-core host. *)
  ignore
    (exec_diff (name ^ "/2dom") ~sim Tls.Config.c_mode
       (exec_opts ~domains:2 ~seed:11 Tls.Config.c_mode)
       code input);
  (* Serial mode (domains = 1) must agree too. *)
  ignore
    (exec_diff (name ^ "/serial") ~sim Tls.Config.c_mode
       (exec_opts ~domains:1 Tls.Config.c_mode)
       code input);
  (* U mode: no compiler memory sync, so real cross-epoch races and
     rollbacks are on the hot path. *)
  ignore
    (exec_diff (name ^ "/umode") Tls.Config.u_mode
       (exec_opts ~seed:99 Tls.Config.u_mode)
       code input)

(* ------------------------------------------------------------------ *)
(* Generated-program corpus                                            *)
(* ------------------------------------------------------------------ *)

let proggen_corpus =
  QCheck.Test.make ~count:100
    ~name:"proggen: specrt output+memory = sequential, commits = simulator"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let source, input = Faults.Proggen.generate ~seed in
      let compiled = compile_src source input in
      let code = compiled.Tlscore.Pipeline.code in
      let r =
        Specrt.run
          ~opts:(exec_opts ~domains:4 ~seed Tls.Config.c_mode)
          Tls.Config.c_mode code ~input
      in
      let seq_out, seq_mem = sequential_ref code input in
      let sim = Tls.Sim.run Tls.Config.c_mode code ~input () in
      r.Specrt.r_output = seq_out
      && Runtime.Memory.equal seq_mem r.Specrt.r_final_memory
      && r.Specrt.r_epochs_committed = sim.Tls.Simstats.epochs_committed
      && r.Specrt.r_region_instances = sim.Tls.Simstats.region_instances)

(* ------------------------------------------------------------------ *)
(* Robustness: typed errors, containment, budgets                      *)
(* ------------------------------------------------------------------ *)

(* Serial scalar chain through a global: every epoch needs its
   predecessor's store (same program the sim fault suite pins on). *)
let chain_src =
  "int g;\n\
   int out[64];\n\
   int work(int x) { int j; int t; t = x; for (j = 0; j < 10 + x % 7; j = \
   j + 1) { t = t + ((t << 1) ^ j) % 53; } return t; }\n\
   void main() {\n\
  \  int i; int v;\n\
  \  for (i = 0; i < 40; i = i + 1) {\n\
  \    v = g;\n\
  \    out[i % 64] = work(v + i);\n\
  \    g = v + 1;\n\
  \  }\n\
  \  print(g);\n\
  \  print(out[5]);\n\
   }"

let chain_code () =
  (compile_src chain_src [||]).Tlscore.Pipeline.code

let transient_crash_absorbed () =
  let code = chain_code () in
  let opts =
    {
      (exec_opts Tls.Config.c_mode) with
      Specrt.faults = [ Specrt.Crash_epoch { epoch = 1; persistent = false } ];
    }
  in
  let r = exec_diff "crash/transient" Tls.Config.c_mode opts code [||] in
  check_bool "crash was contained (>=1 squash recorded)" true
    (List.exists
       (function
         | { Specrt.ev_kind = Specrt.Ev_squash "crash-injected"; _ } -> true
         | _ -> false)
       r.Specrt.r_events)

let persistent_crash_exhausts_budget () =
  let code = chain_code () in
  let opts =
    {
      (exec_opts Tls.Config.c_mode) with
      Specrt.max_aborts = 4;
      faults = [ Specrt.Crash_epoch { epoch = 1; persistent = true } ];
    }
  in
  match Specrt.run ~opts Tls.Config.c_mode code ~input:[||] with
  | _ -> Alcotest.fail "expected Abort_exhausted"
  | exception Specrt.Abort_exhausted { index; aborts; max_aborts; _ } ->
    check_int "budget epoch" 1 index;
    check_int "budget limit" 4 max_aborts;
    check_bool "aborts exceed budget" true (aborts > max_aborts)

let delayed_commit_absorbed () =
  let code = chain_code () in
  let opts =
    {
      (exec_opts ~watchdog_ms:20_000 Tls.Config.c_mode) with
      Specrt.faults = [ Specrt.Delay_commit { epoch = 0; ms = 120 } ];
    }
  in
  ignore (exec_diff "delay/absorbed" Tls.Config.c_mode opts code [||])

let delayed_commit_past_watchdog_is_stuck () =
  let code = chain_code () in
  let opts =
    {
      (exec_opts ~watchdog_ms:250 Tls.Config.c_mode) with
      Specrt.faults = [ Specrt.Delay_commit { epoch = 0; ms = 60_000 } ];
    }
  in
  match Specrt.run ~opts Tls.Config.c_mode code ~input:[||] with
  | _ -> Alcotest.fail "expected Specrt_stuck"
  | exception Specrt.Specrt_stuck { watchdog_ms; detail } ->
    check_int "reports the configured watchdog" 250 watchdog_ms;
    check_bool "diagnostic names the wedged instance" true
      (String.length detail > 0)

let dropped_wakeup_self_heals () =
  let code = chain_code () in
  let opts =
    {
      (exec_opts Tls.Config.c_mode) with
      Specrt.faults = [ Specrt.Drop_wakeup { epoch = 2; channel = 0 } ];
    }
  in
  ignore (exec_diff "drop-wakeup/absorbed" Tls.Config.c_mode opts code [||])

let stolen_timeslice_absorbed () =
  let code = chain_code () in
  let opts =
    {
      (exec_opts Tls.Config.c_mode) with
      Specrt.faults = [ Specrt.Yield_steps { epoch = 1; every = 2 } ];
    }
  in
  ignore (exec_diff "yield/absorbed" Tls.Config.c_mode opts code [||])

(* ------------------------------------------------------------------ *)
(* Sequential phase: icode hand-off, step cap, allocation              *)
(* ------------------------------------------------------------------ *)

(* The chain loop left by [break] in mid-body: the winning epoch's
   Exit_out lands the sequential thread on a label that is not the
   loop's normal exit test, and [i] must come back from the epoch. *)
let break_src =
  "int g;\n\
   int out[64];\n\
   int work(int x) { int j; int t; t = x; for (j = 0; j < 10 + x % 7; j = \
   j + 1) { t = t + ((t << 1) ^ j) % 53; } return t; }\n\
   void main() {\n\
  \  int i; int v;\n\
  \  for (i = 0; i < 40; i = i + 1) {\n\
  \    v = g;\n\
  \    out[i % 64] = work(v + i);\n\
  \    g = v + 1;\n\
  \    if (i == 23) break;\n\
  \  }\n\
  \  print(i);\n\
  \  print(g);\n\
  \  print(out[5]);\n\
   }"

(* The chain loop in a callee: the first instance [return]s from inside
   the loop (an Exit_return into main's frame, which resumes after the
   call), the second runs to the loop's normal exit. *)
let return_src =
  "int g;\n\
   int out[64];\n\
   int work(int x) { int j; int t; t = x; for (j = 0; j < 10 + x % 7; j = \
   j + 1) { t = t + ((t << 1) ^ j) % 53; } return t; }\n\
   int find(int n) {\n\
  \  int i; int v;\n\
  \  for (i = 0; i < n; i = i + 1) {\n\
  \    v = g;\n\
  \    out[i % 64] = work(v + i);\n\
  \    g = v + 1;\n\
  \    if (i == 29) return out[i % 64] + i;\n\
  \  }\n\
  \  return 0 - 1;\n\
   }\n\
   void main() {\n\
  \  int r;\n\
  \  r = find(50);\n\
  \  print(r);\n\
  \  print(g);\n\
  \  r = find(10);\n\
  \  print(r);\n\
  \  print(out[3]);\n\
   }"

let handoff label src ~instances () =
  let code = (compile_src src [||]).Tlscore.Pipeline.code in
  (* A sequential thread resumed at the wrong offset reruns main until
     the step cap (epoch_max_instrs * 1000) stops it: keep that quick. *)
  let cfg = { Tls.Config.c_mode with Tls.Config.epoch_max_instrs = 2_000 } in
  let sim = Tls.Sim.run cfg code ~input:[||] () in
  List.iter
    (fun domains ->
      let r =
        exec_diff
          (Printf.sprintf "%s/%dd" label domains)
          ~sim cfg
          (exec_opts ~domains ~seed:domains cfg)
          code [||]
      in
      check_int
        (Printf.sprintf "%s/%dd: region instances" label domains)
        instances
        (List.fold_left (fun acc (_, n) -> acc + n) 0
           r.Specrt.r_region_instances))
    [ 1; 4 ]

(* A loop outside any region: the original program, which has none. *)
let region_free_src =
  "int a[16];\n\
   void main() {\n\
  \  int i; int s;\n\
  \  s = 0;\n\
  \  for (i = 0; i < 100000; i = i + 1) {\n\
  \    a[i % 16] = a[(i + 3) % 16] + i;\n\
  \    s = s + a[i % 16] % 7;\n\
  \  }\n\
  \  print(s);\n\
   }"

let region_free_code () =
  Runtime.Code.of_prog (Tlscore.Pipeline.original ~source:region_free_src)

(* Instructions and terminators the boxed oracle dispatches to run
   [code] to completion: what the sequential phase counts as steps. *)
let boxed_steps (code : Runtime.Code.t) =
  let mem = Runtime.Memory.create () in
  Runtime.Memory.store_all mem code.Runtime.Code.initial_stores;
  let t = Runtime.Thread.create code ~func_name:"main" ~input:[||] in
  let hooks = Runtime.Thread.sequential_hooks mem in
  let rec go () =
    match Runtime.Thread.step t hooks with
    | Runtime.Thread.Finished _ -> t.Runtime.Thread.icount
    | _ -> go ()
  in
  go ()

(* The sequential phase may dispatch [epoch_max_instrs * 1000] steps and
   no more: a program of [n] steps passes under the smallest cap >= n
   and is stopped, typed, under the largest cap < n. *)
let sequential_step_cap () =
  let code = region_free_code () in
  let n = boxed_steps code in
  let run_with k =
    let cfg = { Tls.Config.c_mode with Tls.Config.epoch_max_instrs = k } in
    Specrt.run ~opts:(exec_opts ~domains:1 cfg) cfg code ~input:[||]
  in
  let seq_out, _ = sequential_ref code [||] in
  Alcotest.(check (list int)) "cap >= steps: runs to completion" seq_out
    (run_with ((n + 999) / 1000)).Specrt.r_output;
  match run_with ((n - 1) / 1000) with
  | _ -> Alcotest.fail "expected Specrt_stuck"
  | exception Specrt.Specrt_stuck { detail; _ } ->
    let needle = "sequential thread exceeded" in
    check_bool
      (Printf.sprintf "detail names the sequential cap: %S" detail)
      true
      (String.length detail >= String.length needle
      && String.sub detail 0 (String.length needle) = needle)

(* The sequential phase dispatches without allocating: a run dominated
   by a region-free loop stays under 0.1 minor words per step, set-up
   (encoding, committed memory) included. *)
let sequential_phase_allocation () =
  let code = region_free_code () in
  let n = boxed_steps code in
  let cfg = Tls.Config.c_mode in
  let opts = exec_opts ~domains:1 cfg in
  ignore (Specrt.run ~opts cfg code ~input:[||]);
  let before = Gc.minor_words () in
  ignore (Specrt.run ~opts cfg code ~input:[||]);
  let words = Gc.minor_words () -. before in
  let per_step = words /. float_of_int n in
  check_bool
    (Printf.sprintf "%.0f minor words over %d steps (%.4f/step) < 0.1/step"
       words n per_step)
    true (per_step < 0.1)

(* ------------------------------------------------------------------ *)
(* Record/replay: a real nondeterministic violation, reproduced        *)
(* ------------------------------------------------------------------ *)

let squash_sig ev =
  match ev.Specrt.ev_kind with
  | Specrt.Ev_violation _ ->
    Some (ev.Specrt.ev_instance, ev.Specrt.ev_index, ev.Specrt.ev_attempt, 'v')
  | Specrt.Ev_squash _ ->
    Some (ev.Specrt.ev_instance, ev.Specrt.ev_index, ev.Specrt.ev_attempt, 's')
  | Specrt.Ev_commit | Specrt.Ev_signal _ -> None

let committed_epochs events =
  List.filter_map
    (fun ev ->
      match ev.Specrt.ev_kind with
      | Specrt.Ev_commit -> Some (ev.Specrt.ev_instance, ev.Specrt.ev_index)
      | _ -> None)
    events

(* Rollback signatures restricted to epochs the recorded run committed:
   the replay runs epochs in order and never spawns the wrong-path tail
   a racy run may have squashed past the winner.  Sorted, because the
   *global* observation order of rollbacks across epochs is itself
   scheduling noise (a cascade lands on its victims at their own pace);
   what replay preserves is which epoch rolled back, at which attempt,
   for violation vs plain squash. *)
let replayable_squashes events =
  let committed = committed_epochs events in
  List.sort compare
    (List.filter
       (fun (i, k, _, _) -> List.mem (i, k) committed)
       (List.filter_map squash_sig events))

let record_replay_reproduces_violation () =
  (* U mode: memory-resident dependences are unsynchronized, so
     cross-epoch races produce genuine violations under real
     concurrency. *)
  let code = chain_code () in
  let cfg = Tls.Config.u_mode in
  (* Keep only runs whose violation hit an epoch that went on to commit:
     a violation on a wrong-path epoch past the winner is real but
     unreproducible by an in-order replay (the replay never spawns it). *)
  let has_replayable_violation r =
    List.exists
      (fun (_, _, _, kind) -> kind = 'v')
      (replayable_squashes r.Specrt.r_events)
  in
  let rec record tries =
    if tries = 0 then
      failwith "no replayable violation surfaced in 40 racy runs (suspicious)"
    else begin
      let r =
        Specrt.run
          ~opts:(exec_opts ~domains:4 ~seed:tries cfg)
          cfg code ~input:[||]
      in
      if has_replayable_violation r then r else record (tries - 1)
    end
  in
  let recorded = record 40 in
  check_bool "recorded run saw a real violation" true
    (recorded.Specrt.r_violations > 0);
  (* Round-trip the log through its on-disk JSONL form. *)
  let path = Filename.temp_file "specrt" ".jsonl" in
  Specrt.write_log path recorded.Specrt.r_events;
  let log = Specrt.read_log path in
  Sys.remove path;
  check_int "log round-trips" (List.length recorded.Specrt.r_events)
    (List.length log);
  let replay_once () =
    Specrt.run
      ~opts:{ (exec_opts cfg) with Specrt.replay = Some log }
      cfg code ~input:[||]
  in
  let r1 = replay_once () in
  let r2 = replay_once () in
  let seq_out, seq_mem = sequential_ref code [||] in
  Alcotest.(check (list int)) "replay output = sequential" seq_out
    r1.Specrt.r_output;
  check_bool "replay memory = sequential" true
    (Runtime.Memory.equal seq_mem r1.Specrt.r_final_memory);
  (* The recorded rollbacks (for epochs that committed) are reproduced
     exactly: same epoch, same attempt, violation vs plain squash. *)
  check_bool "replay reproduces the recorded rollbacks" true
    (replayable_squashes log = replayable_squashes r1.Specrt.r_events);
  check_bool "replay reproduces at least one violation" true
    (r1.Specrt.r_violations > 0);
  (* And the replay itself is deterministic, run to run. *)
  check_bool "replay is deterministic" true
    (List.map squash_sig r1.Specrt.r_events
     = List.map squash_sig r2.Specrt.r_events
    && r1.Specrt.r_output = r2.Specrt.r_output);
  (* Shrinking story: a truncated log still replays (its prefix). *)
  let half =
    List.filteri
      (fun i _ -> i < List.length log / 2)
      log
  in
  let r3 =
    Specrt.run
      ~opts:{ (exec_opts cfg) with Specrt.replay = Some half }
      cfg code ~input:[||]
  in
  check_bool "truncated log still replays to sequential output" true
    (r3.Specrt.r_output = seq_out)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "specrt"
    [
      ( "workloads",
        List.map
          (fun (w : Workloads.Workload.t) ->
            Alcotest.test_case w.Workloads.Workload.name `Quick
              (workload_repeated w))
          Workloads.Registry.all );
      ("proggen", [ QCheck_alcotest.to_alcotest proggen_corpus ]);
      ( "robustness",
        [
          Alcotest.test_case "transient crash contained" `Quick
            transient_crash_absorbed;
          Alcotest.test_case "persistent crash exhausts budget" `Quick
            persistent_crash_exhausts_budget;
          Alcotest.test_case "delayed commit absorbed" `Quick
            delayed_commit_absorbed;
          Alcotest.test_case "delayed commit past watchdog is stuck" `Quick
            delayed_commit_past_watchdog_is_stuck;
          Alcotest.test_case "dropped wakeup self-heals" `Quick
            dropped_wakeup_self_heals;
          Alcotest.test_case "stolen timeslice absorbed" `Quick
            stolen_timeslice_absorbed;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "region left by break" `Quick
            (handoff "break" break_src ~instances:1);
          Alcotest.test_case "callee region left by return" `Quick
            (handoff "return" return_src ~instances:2);
          Alcotest.test_case "step cap is exact and typed" `Quick
            sequential_step_cap;
          Alcotest.test_case "no allocation per step" `Quick
            sequential_phase_allocation;
        ] );
      ( "replay",
        [
          Alcotest.test_case "record/replay reproduces a violation" `Quick
            record_replay_reproduces_violation;
        ] );
    ]
