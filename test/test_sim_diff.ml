(* Differential oracle suite: the event-driven simulator core must be
   observably indistinguishable from the reference cycle-stepped engine
   (DESIGN §15).  Every run compares byte-for-byte:

   - the Simstats fingerprint (cycles, slots, violations, attribution,
     output, committed memory, region tables, cache/fault counters),
   - the fields the fingerprint deliberately excludes: finite-resource
     peaks and the per-channel / per-load bookkeeping assoc lists,
   - typed failures (Deadlock / Stuck / Resource_deadlock), payload
     included — both engines must wedge at the same cycle with the same
     diagnostic.

   The matrix crosses every workload with the three benchmarked
   simulator setups (unbounded C mode, finite-hardware bounds, sync
   scheduler), the PR2 fault catalog on the chain program, and a
   260-program Proggen sweep (200 unbounded + 60 under finite-hardware
   bounds).  Every differential run pits the reference engine, which
   interprets the boxed IR, against the event engine, which dispatches
   on the flat icode encoding, so the encoder is checked against code it
   does not share. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Finished of Tls.Simstats.result
  | E_deadlock of string
  | E_stuck of Tls.Sim.stuck_diag
  | E_resource of Tls.Sim.resource_diag
  | E_cycle_limit of int
  | E_failure of string

let run_engine engine cfg code input =
  let cfg = { cfg with Tls.Config.engine } in
  match Tls.Sim.run cfg code ~input () with
  | r -> Finished r
  | exception Tls.Sim.Deadlock msg -> E_deadlock msg
  | exception Tls.Sim.Stuck d -> E_stuck d
  | exception Tls.Sim.Resource_deadlock d -> E_resource d
  | exception Tls.Sim.Cycle_limit { cycle; _ } -> E_cycle_limit cycle
  | exception Failure msg -> E_failure msg

(* Compare the observables the fingerprint excludes by design (resource
   peaks, per-channel attributions) plus a few named fields so a
   divergence fails with a readable message before the digest check. *)
let check_results label (a : Tls.Simstats.result) (b : Tls.Simstats.result) =
  let n fld = label ^ " " ^ fld in
  check_int (n "total_cycles") a.Tls.Simstats.total_cycles
    b.Tls.Simstats.total_cycles;
  check_int (n "seq_cycles") a.Tls.Simstats.seq_cycles
    b.Tls.Simstats.seq_cycles;
  check_int (n "region_cycles") a.Tls.Simstats.region_cycles
    b.Tls.Simstats.region_cycles;
  check_int (n "busy slots") a.Tls.Simstats.slots.Tls.Simstats.s_busy
    b.Tls.Simstats.slots.Tls.Simstats.s_busy;
  check_int (n "sync slots") a.Tls.Simstats.slots.Tls.Simstats.s_sync
    b.Tls.Simstats.slots.Tls.Simstats.s_sync;
  check_int (n "other-stall slots")
    a.Tls.Simstats.slots.Tls.Simstats.s_other_stall
    b.Tls.Simstats.slots.Tls.Simstats.s_other_stall;
  check_int (n "fail slots") a.Tls.Simstats.slots.Tls.Simstats.s_fail
    b.Tls.Simstats.slots.Tls.Simstats.s_fail;
  check_int (n "total slots") a.Tls.Simstats.slots.Tls.Simstats.s_total
    b.Tls.Simstats.slots.Tls.Simstats.s_total;
  check_int (n "violations") a.Tls.Simstats.violations
    b.Tls.Simstats.violations;
  check_int (n "epochs committed") a.Tls.Simstats.epochs_committed
    b.Tls.Simstats.epochs_committed;
  check_int (n "epochs squashed") a.Tls.Simstats.epochs_squashed
    b.Tls.Simstats.epochs_squashed;
  Alcotest.(check (list int)) (n "output") a.Tls.Simstats.output
    b.Tls.Simstats.output;
  check_bool (n "committed memory") true
    (Runtime.Memory.equal a.Tls.Simstats.final_memory
       b.Tls.Simstats.final_memory);
  check_int (n "max signal buffer") a.Tls.Simstats.max_signal_buffer
    b.Tls.Simstats.max_signal_buffer;
  check_int (n "hw marked loads") a.Tls.Simstats.hw_marked_loads
    b.Tls.Simstats.hw_marked_loads;
  check_int (n "vpred predictions") a.Tls.Simstats.vpred_predictions
    b.Tls.Simstats.vpred_predictions;
  check_int (n "faults fired") a.Tls.Simstats.faults_fired
    b.Tls.Simstats.faults_fired;
  check_bool (n "attribution") true
    (a.Tls.Simstats.attribution = b.Tls.Simstats.attribution);
  check_bool (n "region cycle tables") true
    (a.Tls.Simstats.region_cycle_by_id = b.Tls.Simstats.region_cycle_by_id
    && a.Tls.Simstats.region_instances = b.Tls.Simstats.region_instances);
  check_bool (n "l1 miss rate") true
    (a.Tls.Simstats.l1_miss_rate = b.Tls.Simstats.l1_miss_rate);
  (* Excluded from the fingerprint; required identical regardless. *)
  check_bool (n "resource peaks") true
    (a.Tls.Simstats.resources = b.Tls.Simstats.resources);
  check_bool (n "per-channel sync stalls") true
    (a.Tls.Simstats.sync_stall_by_channel
    = b.Tls.Simstats.sync_stall_by_channel);
  check_bool (n "per-load violation counts") true
    (a.Tls.Simstats.violated_load_counts
    = b.Tls.Simstats.violated_load_counts);
  check_str (n "fingerprint")
    (Tls.Simstats.fingerprint a)
    (Tls.Simstats.fingerprint b)

let check_outcomes label a b =
  match (a, b) with
  | Finished ra, Finished rb -> check_results label ra rb
  | E_deadlock ma, E_deadlock mb -> check_str (label ^ " deadlock msg") ma mb
  | E_stuck da, E_stuck db ->
    (* The diagnostic is plain data (ints, strings, lists): structural
       equality is exactly byte equality here. *)
    check_bool (label ^ " stuck diag") true (da = db)
  | E_resource da, E_resource db ->
    check_bool (label ^ " resource diag") true (da = db)
  | E_cycle_limit ca, E_cycle_limit cb ->
    check_int (label ^ " cycle limit at") ca cb
  | E_failure ma, E_failure mb -> check_str (label ^ " failure msg") ma mb
  | _ ->
    let name = function
      | Finished _ -> "finished"
      | E_deadlock _ -> "deadlock"
      | E_stuck _ -> "stuck"
      | E_resource _ -> "resource-deadlock"
      | E_cycle_limit _ -> "cycle-limit"
      | E_failure _ -> "failure"
    in
    Alcotest.fail
      (Printf.sprintf "%s: engines disagree on outcome kind: ref=%s event=%s"
         label (name a) (name b))

let diff_run label cfg code input =
  check_outcomes label
    (run_engine Tls.Config.Engine_ref cfg code input)
    (run_engine Tls.Config.Engine_event cfg code input)

(* ------------------------------------------------------------------ *)
(* Workload matrix: 15 workloads x {unbounded, bounded, sync-sched}    *)
(* ------------------------------------------------------------------ *)

(* The finite-hardware bounds benchmarked as "sim_tls_bounded". *)
let bounded_cfg =
  {
    Tls.Config.c_mode with
    Tls.Config.sig_buffer_entries = 2;
    spec_lines_per_epoch = 8;
    fwd_queue_depth = 8;
  }

let compile_c ?(sync_sched = false) (w : Workloads.Workload.t) =
  Tlscore.Pipeline.compile ~sync_sched ~source:w.Workloads.Workload.source
    ~profile_input:w.Workloads.Workload.train_input
    ~memory_sync:
      (Tlscore.Pipeline.Profiled
         { dep_input = w.Workloads.Workload.train_input; threshold = 0.05 })
    ()

let workload_matrix (w : Workloads.Workload.t) () =
  let name = w.Workloads.Workload.name in
  let input = w.Workloads.Workload.ref_input in
  let compiled = compile_c w in
  let code = compiled.Tlscore.Pipeline.code in
  diff_run (name ^ "/unbounded") Tls.Config.c_mode code input;
  diff_run (name ^ "/bounded") bounded_cfg code input;
  let sched = compile_c ~sync_sched:true w in
  diff_run (name ^ "/sync-sched") Tls.Config.c_mode
    sched.Tlscore.Pipeline.code input

(* ------------------------------------------------------------------ *)
(* Fault catalog (PR2) on the chain program                            *)
(* ------------------------------------------------------------------ *)

(* Serial scalar chain through a global: every epoch needs its
   predecessor's store, so sync, forwarding, violations and the whole
   fault catalog are all on the hot path (same program test_faults
   pins its behavior on). *)
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

let compile_src src input =
  Tlscore.Pipeline.compile ~lint:false ~source:src ~profile_input:input
    ~memory_sync:
      (Tlscore.Pipeline.Profiled { dep_input = input; threshold = 0.05 })
    ()

let fault_catalog_diff () =
  let compiled = compile_src chain_src [||] in
  let code = compiled.Tlscore.Pipeline.code in
  List.iter
    (fun (label, faults) ->
      let cfg = { Tls.Config.c_mode with Tls.Config.sim_faults = faults } in
      diff_run ("fault/" ^ label) cfg code [||])
    [
      ("corrupt-addr", [ Tls.Config.Corrupt_addr 0 ]);
      ("corrupt-value", [ Tls.Config.Corrupt_value 0 ]);
      ("delay-signal", [ Tls.Config.Delay_signal { nth = 0; extra = 1_500 } ]);
      ("spurious-violation", [ Tls.Config.Spurious_violation 1 ]);
      ( "combined",
        [
          Tls.Config.Corrupt_addr 1;
          Tls.Config.Delay_signal { nth = 3; extra = 700 };
          Tls.Config.Spurious_violation 2;
        ] );
    ]

(* Drop_wakeup wedges the region; both engines must raise the same Stuck
   diagnostic (same cycle, same epoch states) through the watchdog. *)
let dropped_wakeup_diff () =
  let compiled = compile_src chain_src [||] in
  let cfg =
    {
      Tls.Config.c_mode with
      Tls.Config.sim_faults = [ Tls.Config.Drop_wakeup 0 ];
      watchdog_window = 4_000;
    }
  in
  diff_run "fault/drop-wakeup" cfg compiled.Tlscore.Pipeline.code [||]

(* Watchdog boundary, event engine: stalls of exactly [window] cycles
   never fire, the (window+1)-th always does — mirrored cycle-exactly
   from the reference-engine test in test_faults. *)
let watchdog_boundary_event_engine () =
  let compiled = compile_src chain_src [||] in
  let fire_cycle window =
    let cfg =
      {
        Tls.Config.c_mode with
        Tls.Config.engine = Tls.Config.Engine_event;
        sim_faults = [ Tls.Config.Drop_wakeup 0 ];
        watchdog_window = window;
      }
    in
    match Tls.Sim.run cfg compiled.Tlscore.Pipeline.code ~input:[||] () with
    | _ -> Alcotest.fail "expected Stuck (No_progress)"
    | exception Tls.Sim.Stuck d -> begin
      match d.Tls.Sim.sd_reason with
      | Tls.Sim.No_progress { window = reported } ->
        check_int "diagnostic reports the configured window" window reported;
        d.Tls.Sim.sd_cycle
      | Tls.Sim.Missing_wait _ ->
        Alcotest.fail "expected No_progress, got Missing_wait"
    end
  in
  let w = 4_000 in
  let at_wm1 = fire_cycle (w - 1) in
  let at_w = fire_cycle w in
  let at_wp1 = fire_cycle (w + 1) in
  check_int "window and window-1 fire one cycle apart" (at_wm1 + 1) at_w;
  check_int "window and window+1 fire one cycle apart" (at_w + 1) at_wp1;
  (* Same recovered last-progress cycle P across windows: sd_cycle =
     P + window + 1. *)
  check_int "same P recovered" (at_w - w) (at_wm1 - (w - 1))

(* Resource_deadlock must match typed-payload-exactly too: a producer
   backpressured on a depth-0 forwarding queue wedges both engines. *)
let resource_deadlock_diff () =
  let compiled = compile_src chain_src [||] in
  let cfg =
    {
      Tls.Config.c_mode with
      Tls.Config.fwd_queue_depth = 0;
      watchdog_window = 2_000;
    }
  in
  diff_run "resource/fwd-depth-0" cfg compiled.Tlscore.Pipeline.code [||]

(* ------------------------------------------------------------------ *)
(* Generated-program sweep                                             *)
(* ------------------------------------------------------------------ *)

(* A failing seed raises [diff_run]'s check failure, which names the
   seed and the first divergent field. *)
let proggen_diff cfg seed =
  let source, input = Faults.Proggen.generate ~seed in
  let compiled = compile_src source input in
  diff_run
    (Printf.sprintf "proggen seed %d" seed)
    cfg compiled.Tlscore.Pipeline.code input;
  true

let proggen_equivalence =
  QCheck.Test.make ~count:200
    ~name:"proggen: ref and event engines agree on every observable"
    QCheck.(int_bound 1_000_000)
    (proggen_diff Tls.Config.c_mode)

(* And under the finite-hardware bounds, where overflow squashes,
   signal drops and backpressure all engage. *)
let proggen_equivalence_bounded =
  QCheck.Test.make ~count:60
    ~name:"proggen: engines agree under finite-hardware bounds"
    QCheck.(int_bound 1_000_000)
    (proggen_diff bounded_cfg)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sim_diff"
    [
      ( "workloads",
        List.map
          (fun (w : Workloads.Workload.t) ->
            Alcotest.test_case w.Workloads.Workload.name `Quick
              (workload_matrix w))
          Workloads.Registry.all );
      ( "faults",
        [
          Alcotest.test_case "fault catalog" `Quick fault_catalog_diff;
          Alcotest.test_case "dropped wakeup (watchdog)" `Quick
            dropped_wakeup_diff;
          Alcotest.test_case "watchdog boundary (event engine)" `Quick
            watchdog_boundary_event_engine;
          Alcotest.test_case "resource deadlock" `Quick resource_deadlock_diff;
        ] );
      ( "proggen",
        [
          QCheck_alcotest.to_alcotest proggen_equivalence;
          QCheck_alcotest.to_alcotest proggen_equivalence_bounded;
        ] );
    ]
