(* Runtime-layer chaos: the fault catalog of the *real* speculative
   executor (DESIGN §16), classified with the same absorbable/detectable
   discipline as the simulator matrix in Chaos.

   Each cell runs [Specrt.run] on a compiled program with one injected
   runtime fault and classifies the outcome:
   - absorbable faults (bounded commit delay, stolen timeslices, a
     dropped forwarding-cell wakeup, a transient epoch crash) must end
     with output and final memory byte-identical to sequential
     execution — [Absorbed];
   - detectable faults (a commit delay past the watchdog, a persistent
     epoch crash) must end in the matching typed error — [Detected]
     with the constructor name, never a hang or a process death.

   The rendered table is byte-deterministic even though the runs race
   for real: outcomes classify committed state and typed errors, both
   of which the runtime guarantees independent of scheduling, and the
   Detected detail deliberately drops the (scheduling-dependent)
   diagnostic payload. *)

type cell = {
  x_program : string;
  x_fault : string;            (* "none" for the baseline *)
  x_detectable : bool;
  x_outcome : Chaos.outcome;
}

(* Watchdog/budget chosen so detectable cells trip their typed error in
   well under a second while absorbable cells have generous headroom. *)
let watchdog_ms = 5_000

type armed = {
  a_name : string;
  a_detectable : bool;
  a_faults : Specrt.fault list;
  a_watchdog_ms : int;
  a_max_aborts : int;
}

let catalog =
  [
    { a_name = "delay-commit"; a_detectable = false;
      a_faults = [ Specrt.Delay_commit { epoch = 0; ms = 60 } ];
      a_watchdog_ms = watchdog_ms; a_max_aborts = 64 };
    { a_name = "delay-commit-hang"; a_detectable = true;
      (* A delay far past the watchdog: must surface as Specrt_stuck. *)
      a_faults = [ Specrt.Delay_commit { epoch = 0; ms = 120_000 } ];
      a_watchdog_ms = 400; a_max_aborts = 64 };
    { a_name = "stolen-timeslice"; a_detectable = false;
      a_faults = [ Specrt.Yield_steps { epoch = 1; every = 3 } ];
      a_watchdog_ms = watchdog_ms; a_max_aborts = 64 };
    { a_name = "drop-wakeup"; a_detectable = false;
      a_faults = [ Specrt.Drop_wakeup { epoch = 1; channel = 0 } ];
      a_watchdog_ms = watchdog_ms; a_max_aborts = 64 };
    { a_name = "crash-transient"; a_detectable = false;
      a_faults = [ Specrt.Crash_epoch { epoch = 1; persistent = false } ];
      a_watchdog_ms = watchdog_ms; a_max_aborts = 64 };
    { a_name = "crash-persistent"; a_detectable = true;
      (* Every retry crashes: must exhaust the budget as the typed
         Abort_exhausted, never livelock. *)
      a_faults = [ Specrt.Crash_epoch { epoch = 1; persistent = true } ];
      a_watchdog_ms = watchdog_ms; a_max_aborts = 6 };
  ]

let baseline =
  { a_name = "none"; a_detectable = false; a_faults = [];
    a_watchdog_ms = watchdog_ms; a_max_aborts = 64 }

let sequential_ref (code : Runtime.Code.t) input =
  let mem = Runtime.Memory.create () in
  Runtime.Memory.store_all mem code.Runtime.Code.initial_stores;
  let out = Runtime.Thread.run_sequential code ~input mem in
  (out, mem)

let classify (a : armed) cfg code input =
  let opts =
    {
      (Specrt.default_opts cfg) with
      Specrt.domains = 4;
      watchdog_ms = a.a_watchdog_ms;
      max_aborts = a.a_max_aborts;
      faults = a.a_faults;
    }
  in
  match Specrt.run ~opts cfg code ~input with
  | r ->
    if a.a_detectable then
      Chaos.Failed "detectable fault was silently absorbed"
    else begin
      let seq_out, seq_mem = sequential_ref code input in
      if
        r.Specrt.r_output = seq_out
        && Runtime.Memory.equal seq_mem r.Specrt.r_final_memory
      then if a.a_faults = [] then Chaos.Passed else Chaos.Absorbed
      else Chaos.Failed "exec output/memory differs from sequential"
    end
  | exception Specrt.Specrt_stuck _ ->
    if a.a_detectable then Chaos.Detected "Specrt_stuck"
    else Chaos.Failed "absorbable fault wedged the runtime (Specrt_stuck)"
  | exception Specrt.Abort_exhausted _ ->
    if a.a_detectable then Chaos.Detected "Abort_exhausted"
    else Chaos.Failed "absorbable fault exhausted the abort budget"
  | exception Specrt.Exec_deadlock msg ->
    Chaos.Failed ("exec deadlock: " ^ msg)

let run_program ?(log = ignore) (p : Chaos.program) =
  let compiled = Chaos.compile p in
  let code = compiled.Tlscore.Pipeline.code in
  let cfg = Tls.Config.c_mode in
  List.map
    (fun a ->
      let outcome = classify a cfg code p.Chaos.p_train in
      let cell =
        {
          x_program = p.Chaos.p_name;
          x_fault = a.a_name;
          x_detectable = a.a_detectable;
          x_outcome = outcome;
        }
      in
      log
        (Printf.sprintf "exec-chaos %-12s %-18s %s" p.Chaos.p_name a.a_name
           (match outcome with
           | Chaos.Passed -> "PASSED"
           | Chaos.Absorbed -> "ABSORBED"
           | Chaos.Detected d -> "DETECTED " ^ d
           | Chaos.Skipped -> "SKIPPED"
           | Chaos.Failed f -> "FAILED " ^ f));
      cell)
    (baseline :: catalog)

let run_matrix ?log programs =
  List.concat_map (fun p -> run_program ?log p) programs

let outcome_name = function
  | Chaos.Passed -> "passed"
  | Chaos.Absorbed -> "absorbed"
  | Chaos.Detected _ -> "detected"
  | Chaos.Skipped -> "skipped"
  | Chaos.Failed _ -> "FAILED"

let count_failed cells =
  List.length
    (List.filter
       (fun c -> match c.x_outcome with Chaos.Failed _ -> true | _ -> false)
       cells)

let render_table cells =
  let b = Buffer.create 1024 in
  let faults = List.map (fun a -> a.a_name) (baseline :: catalog) in
  Buffer.add_string b (Printf.sprintf "%-14s" "program");
  List.iter (fun f -> Buffer.add_string b (Printf.sprintf " %-18s" f)) faults;
  Buffer.add_char b '\n';
  let programs =
    List.sort_uniq compare (List.map (fun c -> c.x_program) cells)
  in
  List.iter
    (fun p ->
      Buffer.add_string b (Printf.sprintf "%-14s" p);
      List.iter
        (fun f ->
          let o =
            match
              List.find_opt
                (fun c -> c.x_program = p && c.x_fault = f)
                cells
            with
            | Some c -> outcome_name c.x_outcome
            | None -> "-"
          in
          Buffer.add_string b (Printf.sprintf " %-18s" o))
        faults;
      Buffer.add_char b '\n')
    programs;
  List.iter
    (fun c ->
      match c.x_outcome with
      | Chaos.Failed why ->
        Buffer.add_string b
          (Printf.sprintf "FAILED: %s / %s: %s\n" c.x_program c.x_fault why)
      | _ -> ())
    cells;
  Buffer.add_string b
    (Printf.sprintf "cells: %d, failed: %d\n" (List.length cells)
       (count_failed cells));
  Buffer.contents b
