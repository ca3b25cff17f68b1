type phase = {
  ph_name : string;
  ph_wall_ns : int;
  ph_ref_wall_ns : int option;
  ph_minor_words : float;
  ph_major_words : float;
  ph_cycles : int option;
  ph_commits : int option;
  ph_aborts : int option;
}

type workload_bench = { wb_name : string; wb_phases : phase list }

type matrix_bench = {
  mx_name : string;
  mx_cells : int;
  mx_jobs : int;
  mx_serial_wall_ns : int;
  mx_parallel_wall_ns : int;
}

type serve_phase = {
  sv_name : string;
  sv_requests : int;
  sv_completed : int;
  sv_shed : int;
  sv_degraded : int;
  sv_cache_hits : int;
  sv_cache_misses : int;
  sv_wall_ns : int;
  sv_p50_ns : int;
  sv_p99_ns : int;
}

type t = {
  bench_schema_version : int;
  bench_workloads : workload_bench list;
  bench_matrix : matrix_bench option;
  bench_serve : serve_phase list;
}

let schema_version = 10

let phase_names =
  [
    "frontend"; "lower"; "profile"; "pass"; "sim_seq"; "sim_tls";
    "sim_tls_sched"; "sim_tls_bounded"; "exec_tls";
  ]

(* The TLS sim phases are run on both engines since schema v7:
   [wall_ns] is the event engine (the default), [ref_wall_ns] the
   cycle-stepped oracle on the same compiled code and input.  [sim_seq]
   has a single shared implementation, so it carries no ref time. *)
let dual_engine_phase_names = [ "sim_tls"; "sim_tls_sched"; "sim_tls_bounded" ]

(* [exec_tls] (schema v8) is not a simulation: it runs the compiled code
   for real on OCaml domains via [Specrt], so its wall time is directly
   comparable to [sim_seq]'s and to the two sim engines' wall times on
   the same compiled code and input.  Instead of a cycle count it
   carries the runtime's commit/abort counters. *)
let exec_phase_name = "exec_tls"

let serve_phase_names = [ "serve_cold"; "serve_warm"; "serve_burst" ]

(* The finite-resource configuration of the [sim_tls_bounded] phase:
   C mode with the DESIGN §12 limits tightened enough to exercise the
   degradation machinery on real workloads while staying representative
   of a small TLS implementation. *)
let bounded_cfg =
  {
    Tls.Config.c_mode with
    Tls.Config.sig_buffer_entries = 2;
    spec_lines_per_epoch = 8;
    fwd_queue_depth = 8;
  }

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let timed_phase name f =
  let t0 = Unix.gettimeofday () in
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let v = f () in
  let w1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  ( v,
    {
      ph_name = name;
      ph_wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
      ph_ref_wall_ns = None;
      ph_minor_words = w1 -. w0;
      ph_major_words = g1.Gc.major_words -. g0.Gc.major_words;
      ph_cycles = None;
      ph_commits = None;
      ph_aborts = None;
    } )

(* A sim phase reuses the simulator's own runtime counters so the JSON
   surfaces exactly what Simstats recorded, not a second measurement. *)
let sim_phase ?ref_wall name (rt : Tls.Simstats.runtime_counters) ~cycles =
  {
    ph_name = name;
    ph_wall_ns = rt.Tls.Simstats.rt_wall_ns;
    ph_ref_wall_ns = ref_wall;
    ph_minor_words = rt.Tls.Simstats.rt_minor_words;
    ph_major_words = rt.Tls.Simstats.rt_major_words;
    ph_cycles = Some cycles;
    ph_commits = None;
    ph_aborts = None;
  }

let bench_workload (w : Workloads.Workload.t) =
  let source = w.Workloads.Workload.source in
  let train = w.Workloads.Workload.train_input in
  let ref_input = w.Workloads.Workload.ref_input in
  let _, frontend =
    timed_phase "frontend" (fun () -> ignore (Lang.Sema.check_source source))
  in
  let prog, lower =
    timed_phase "lower" (fun () -> Ir.Lower.compile_source source)
  in
  let _, profile =
    timed_phase "profile" (fun () ->
        let loops = Profiler.Runner.all_loops prog in
        ignore (Profiler.Runner.run prog ~input:train ~watch:loops))
  in
  let compiled, pass =
    timed_phase "pass" (fun () ->
        Tlscore.Pipeline.compile ~source ~profile_input:train
          ~memory_sync:
            (Tlscore.Pipeline.Profiled
               { dep_input = ref_input; threshold = 0.05 })
          ())
  in
  (* The profile phase only reads [prog], so it is still the original. *)
  let code0 = Runtime.Code.of_prog prog in
  let seq =
    Tls.Sim.run_sequential Tls.Config.default code0 ~input:ref_input
      ~track:compiled.Tlscore.Pipeline.code.Runtime.Code.regions
  in
  (* Each TLS configuration runs on both engines: the event engine is the
     primary measurement, the cycle-stepped oracle contributes
     [ref_wall_ns] so the committed baseline records the speedup. *)
  let ref_engine cfg = { cfg with Tls.Config.engine = Tls.Config.Engine_ref } in
  let ref_wall cfg code =
    let r = Tls.Sim.run (ref_engine cfg) code ~input:ref_input () in
    r.Tls.Simstats.runtime.Tls.Simstats.rt_wall_ns
  in
  let tls =
    Tls.Sim.run Tls.Config.c_mode compiled.Tlscore.Pipeline.code
      ~input:ref_input ()
  in
  let tls_ref_wall = ref_wall Tls.Config.c_mode compiled.Tlscore.Pipeline.code in
  (* Same configuration with the sync scheduler on: how much of the sync
     stall the signal-hoisting / wait-sinking pass recovers. *)
  let scheduled =
    Tlscore.Pipeline.compile ~sync_sched:true ~source ~profile_input:train
      ~memory_sync:
        (Tlscore.Pipeline.Profiled { dep_input = ref_input; threshold = 0.05 })
      ()
  in
  let tls_sched =
    Tls.Sim.run Tls.Config.c_mode scheduled.Tlscore.Pipeline.code
      ~input:ref_input ()
  in
  let sched_ref_wall =
    ref_wall Tls.Config.c_mode scheduled.Tlscore.Pipeline.code
  in
  let tls_bounded =
    Tls.Sim.run bounded_cfg compiled.Tlscore.Pipeline.code ~input:ref_input ()
  in
  let bounded_ref_wall = ref_wall bounded_cfg compiled.Tlscore.Pipeline.code in
  (* Real speculative execution on domains (DESIGN §16): the same
     compiled code and input as [sim_tls], so [exec_tls.wall_ns] vs
     [sim_seq.wall_ns] is the actual-parallelism number and vs the sim
     phases' wall the engine-overhead number. *)
  let exec_r, exec_phase =
    timed_phase exec_phase_name (fun () ->
        Specrt.run
          ~opts:(Specrt.default_opts Tls.Config.c_mode)
          Tls.Config.c_mode compiled.Tlscore.Pipeline.code ~input:ref_input)
  in
  let exec_phase =
    {
      exec_phase with
      ph_commits = Some exec_r.Specrt.r_epochs_committed;
      ph_aborts = Some exec_r.Specrt.r_epochs_squashed;
    }
  in
  {
    wb_name = w.Workloads.Workload.name;
    wb_phases =
      [
        frontend;
        lower;
        profile;
        pass;
        sim_phase "sim_seq" seq.Tls.Simstats.sq_runtime
          ~cycles:seq.Tls.Simstats.sq_cycles;
        sim_phase "sim_tls" tls.Tls.Simstats.runtime ~ref_wall:tls_ref_wall
          ~cycles:tls.Tls.Simstats.total_cycles;
        sim_phase "sim_tls_sched" tls_sched.Tls.Simstats.runtime
          ~ref_wall:sched_ref_wall
          ~cycles:tls_sched.Tls.Simstats.total_cycles;
        sim_phase "sim_tls_bounded" tls_bounded.Tls.Simstats.runtime
          ~ref_wall:bounded_ref_wall
          ~cycles:tls_bounded.Tls.Simstats.total_cycles;
        exec_phase;
      ];
  }

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

(* Allocation counters are whole word counts that can exceed int ranges
   of other readers; emit them as integral literals. *)
let float_words f = Printf.sprintf "%.0f" f

let phase_json b (p : phase) =
  Buffer.add_string b
    (Printf.sprintf "      { \"phase\": %S, \"wall_ns\": %d" p.ph_name
       p.ph_wall_ns);
  (match p.ph_ref_wall_ns with
  | Some r -> Buffer.add_string b (Printf.sprintf ", \"ref_wall_ns\": %d" r)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf ", \"minor_words\": %s, \"major_words\": %s"
       (float_words p.ph_minor_words)
       (float_words p.ph_major_words));
  (match p.ph_cycles with
  | Some c -> Buffer.add_string b (Printf.sprintf ", \"cycles\": %d" c)
  | None -> ());
  (match p.ph_commits with
  | Some c -> Buffer.add_string b (Printf.sprintf ", \"commits\": %d" c)
  | None -> ());
  (match p.ph_aborts with
  | Some a -> Buffer.add_string b (Printf.sprintf ", \"aborts\": %d" a)
  | None -> ());
  Buffer.add_string b " }"

let serve_phase_json b (s : serve_phase) =
  Buffer.add_string b
    (Printf.sprintf
       "    { \"phase\": %S, \"requests\": %d, \"completed\": %d, \
        \"shed\": %d, \"degraded\": %d, \"cache_hits\": %d, \
        \"cache_misses\": %d, \"wall_ns\": %d, \"p50_ns\": %d, \
        \"p99_ns\": %d }"
       s.sv_name s.sv_requests s.sv_completed s.sv_shed s.sv_degraded
       s.sv_cache_hits s.sv_cache_misses s.sv_wall_ns s.sv_p50_ns s.sv_p99_ns)

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"schema_version\": %d,\n" t.bench_schema_version);
  Buffer.add_string b
    "  \"units\": { \"wall\": \"ns\", \"alloc\": \"words\", \"cycles\": \
     \"sim-cycles\" },\n";
  Buffer.add_string b "  \"workloads\": [\n";
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "    { \"name\": %S, \"phases\": [\n" w.wb_name);
      List.iteri
        (fun j p ->
          if j > 0 then Buffer.add_string b ",\n";
          phase_json b p)
        w.wb_phases;
      Buffer.add_string b "\n    ] }")
    t.bench_workloads;
  Buffer.add_string b "\n  ]";
  (match t.bench_matrix with
  | None -> ()
  | Some m ->
    Buffer.add_string b
      (Printf.sprintf
         ",\n\
         \  \"matrix\": { \"name\": %S, \"cells\": %d, \"jobs\": %d, \
          \"serial_wall_ns\": %d, \"parallel_wall_ns\": %d }"
         m.mx_name m.mx_cells m.mx_jobs m.mx_serial_wall_ns
         m.mx_parallel_wall_ns));
  (match t.bench_serve with
  | [] -> ()
  | phases ->
    Buffer.add_string b ",\n  \"serve\": [\n";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string b ",\n";
        serve_phase_json b s)
      phases;
    Buffer.add_string b "\n  ]");
  Buffer.add_string b "\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Schema validation (parsing lives in Harness.Json)                   *)
(* ------------------------------------------------------------------ *)

let field = Json.field
let as_int = Json.as_int
let as_num = Json.as_num
let as_str = Json.as_str
let as_arr = Json.as_arr

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %s" what)

let ( let* ) = Result.bind

let check_unit obj key expected =
  let* u = require ("units." ^ key) (field obj key) in
  let* u = as_str ("units." ^ key) u in
  if String.equal u expected then Ok ()
  else
    Error
      (Printf.sprintf "units.%s is %S, wanted %S" key u expected)

let check_phase ~workload p =
  let ctx what = Printf.sprintf "%s: phases[].%s" workload what in
  let* name = require (ctx "phase") (field p "phase") in
  let* name = as_str (ctx "phase") name in
  let* wall = require (ctx "wall_ns") (field p "wall_ns") in
  let* wall = as_int (ctx "wall_ns") wall in
  let* _ =
    if wall >= 0 then Ok () else Error (ctx "wall_ns must be >= 0")
  in
  let* minor = require (ctx "minor_words") (field p "minor_words") in
  let* _ = as_num (ctx "minor_words") minor in
  let* major = require (ctx "major_words") (field p "major_words") in
  let* _ = as_num (ctx "major_words") major in
  let sim =
    List.mem name [ "sim_seq"; "sim_tls"; "sim_tls_sched"; "sim_tls_bounded" ]
  in
  let dual = List.mem name dual_engine_phase_names in
  let exec = String.equal name exec_phase_name in
  (* Commit/abort counters are the exec phase's payload: required there
     (a run that committed nothing measured nothing), forbidden on every
     other phase. *)
  let counter key =
    match field p key with
    | Some v ->
      if not exec then
        Error
          (Printf.sprintf "%s: %s phase must not carry %s" workload name key)
      else
        let* v = as_int (ctx key) v in
        if v >= 0 then Ok () else Error (ctx key ^ " must be >= 0")
    | None ->
      if exec then
        Error (Printf.sprintf "%s: %s phase lacks %s" workload name key)
      else Ok ()
  in
  let* _ = counter "commits" in
  let* _ = counter "aborts" in
  (* [ref_wall_ns] (v7) rides exactly on the dual-engine TLS sim phases
     and nowhere else. *)
  let* _ =
    match field p "ref_wall_ns" with
    | Some r ->
      if not dual then
        Error
          (Printf.sprintf "%s: %s phase must not carry ref_wall_ns" workload
             name)
      else
        let* r = as_int (ctx "ref_wall_ns") r in
        if r >= 0 then Ok () else Error (ctx "ref_wall_ns must be >= 0")
    | None ->
      if dual then
        Error (Printf.sprintf "%s: %s phase lacks ref_wall_ns" workload name)
      else Ok ()
  in
  match field p "cycles" with
  | Some c ->
    if exec then
      (* exec_tls is real execution: there is no simulated cycle count. *)
      Error
        (Printf.sprintf "%s: %s phase must not carry cycles" workload name)
    else
      let* cycles = as_int (ctx "cycles") c in
      if cycles > 0 then Ok (name, true)
      else Error (ctx "cycles must be > 0")
  | None ->
    if sim then Error (Printf.sprintf "%s: %s phase lacks cycles" workload name)
    else Ok (name, false)

let check_workload w =
  let* name = require "workloads[].name" (field w "name") in
  let* name = as_str "workloads[].name" name in
  let* phases = require (name ^ ".phases") (field w "phases") in
  let* phases = as_arr (name ^ ".phases") phases in
  let* checked =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let* c = check_phase ~workload:name p in
        Ok (c :: acc))
      (Ok []) phases
  in
  let have = List.rev_map fst checked in
  let missing = List.filter (fun p -> not (List.mem p have)) phase_names in
  if missing <> [] then
    Error
      (Printf.sprintf "%s: missing phase(s) %s" name
         (String.concat ", " missing))
  else Ok (name, have)

let check_matrix m =
  let* name = require "matrix.name" (field m "name") in
  let* name = as_str "matrix.name" name in
  let* cells = require "matrix.cells" (field m "cells") in
  let* cells = as_int "matrix.cells" cells in
  let* jobs = require "matrix.jobs" (field m "jobs") in
  let* jobs = as_int "matrix.jobs" jobs in
  let* serial = require "matrix.serial_wall_ns" (field m "serial_wall_ns") in
  let* _ = as_int "matrix.serial_wall_ns" serial in
  let* par = require "matrix.parallel_wall_ns" (field m "parallel_wall_ns") in
  let* _ = as_int "matrix.parallel_wall_ns" par in
  if cells <= 0 then Error "matrix.cells must be > 0"
  else if jobs < 1 then Error "matrix.jobs must be >= 1"
  else Ok (name, cells)

(* A serve phase (DESIGN §14): one load-harness run of the compile
   service.  Counts are structural (the request mix is fixed by the
   harness), so the summary can pin them; latencies are timing and are
   only range-checked. *)
let check_serve_phase p =
  let* name = require "serve[].phase" (field p "phase") in
  let* name = as_str "serve[].phase" name in
  let ctx what = Printf.sprintf "serve.%s.%s" name what in
  let* _ =
    if List.mem name serve_phase_names then Ok ()
    else
      Error
        (Printf.sprintf "unknown serve phase %S (want %s)" name
           (String.concat ", " serve_phase_names))
  in
  let int_field key =
    let* v = require (ctx key) (field p key) in
    let* v = as_int (ctx key) v in
    if v >= 0 then Ok v else Error (ctx key ^ " must be >= 0")
  in
  let* requests = int_field "requests" in
  let* completed = int_field "completed" in
  let* shed = int_field "shed" in
  let* degraded = int_field "degraded" in
  let* hits = int_field "cache_hits" in
  let* misses = int_field "cache_misses" in
  let* _ = int_field "wall_ns" in
  let* p50 = int_field "p50_ns" in
  let* p99 = int_field "p99_ns" in
  let* _ =
    if requests > 0 then Ok () else Error (ctx "requests" ^ " must be > 0")
  in
  let* _ =
    if completed + shed = requests then Ok ()
    else
      Error
        (Printf.sprintf "%s: completed (%d) + shed (%d) must equal requests (%d)"
           name completed shed requests)
  in
  let* _ =
    if degraded <= completed then Ok ()
    else Error (ctx "degraded" ^ " exceeds completed")
  in
  let* _ =
    if hits + misses <= completed then Ok ()
    else Error (ctx "cache_hits+cache_misses" ^ " exceed completed")
  in
  let* _ =
    if p50 <= p99 then Ok ()
    else Error (ctx "p50_ns" ^ " must be <= p99_ns")
  in
  Ok (name, requests, shed, hits)

(* Validate, and summarize the structure (never the timing values) so an
   expect test over the summary stays stable across regenerations. *)
let validate_json j =
  let* v = require "schema_version" (field j "schema_version") in
  let* v = as_int "schema_version" v in
  let* _ =
    if v = schema_version then Ok ()
    else Error (Printf.sprintf "schema_version is %d, wanted %d" v schema_version)
  in
  let* units = require "units" (field j "units") in
  let* _ = check_unit units "wall" "ns" in
  let* _ = check_unit units "alloc" "words" in
  let* _ = check_unit units "cycles" "sim-cycles" in
  let* workloads = require "workloads" (field j "workloads") in
  let* workloads = as_arr "workloads" workloads in
  let* _ = if workloads = [] then Error "workloads is empty" else Ok () in
  let* checked =
    List.fold_left
      (fun acc w ->
        let* acc = acc in
        let* c = check_workload w in
        Ok (c :: acc))
      (Ok []) workloads
  in
  let checked = List.rev checked in
  let* matrix =
    match field j "matrix" with
    | None -> Ok None
    | Some m ->
      let* m = check_matrix m in
      Ok (Some m)
  in
  let* serve =
    match field j "serve" with
    | None -> Ok []
    | Some s ->
      let* phases = as_arr "serve" s in
      let* checked =
        List.fold_left
          (fun acc p ->
            let* acc = acc in
            let* c = check_serve_phase p in
            Ok (c :: acc))
          (Ok []) phases
      in
      let checked = List.rev checked in
      let have = List.map (fun (n, _, _, _) -> n) checked in
      let missing =
        List.filter (fun p -> not (List.mem p have)) serve_phase_names
      in
      if missing <> [] then
        Error
          (Printf.sprintf "serve: missing phase(s) %s"
             (String.concat ", " missing))
      else Ok checked
  in
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "schema_version %d\n" schema_version);
  Buffer.add_string b "units wall=ns alloc=words cycles=sim-cycles\n";
  Buffer.add_string b
    (Printf.sprintf "dual-engine wall (event + ref oracle): %s\n"
       (String.concat " " dual_engine_phase_names));
  Buffer.add_string b
    (Printf.sprintf "real-exec wall + commit/abort counters: %s\n"
       exec_phase_name);
  List.iter
    (fun (name, phases) ->
      Buffer.add_string b
        (Printf.sprintf "workload %-14s %s\n" name (String.concat " " phases)))
    checked;
  (match matrix with
  | Some (name, cells) ->
    Buffer.add_string b
      (Printf.sprintf "matrix %s: %d cells, serial and parallel wall time\n"
         name cells)
  | None -> ());
  List.iter
    (fun (name, requests, shed, hits) ->
      Buffer.add_string b
        (Printf.sprintf "serve %-11s requests=%d shed=%d cache_hits=%d\n" name
           requests shed hits))
    serve;
  Buffer.add_string b
    (Printf.sprintf "ok: %d workload(s) cover all %d phases\n"
       (List.length checked) (List.length phase_names));
  Ok (Buffer.contents b)

let validate_string s =
  match Json.parse s with
  | j -> validate_json j
  | exception Json.Parse_error msg -> Error ("JSON parse error: " ^ msg)

let validate_file path =
  validate_string In_channel.(with_open_bin path input_all)

(* ------------------------------------------------------------------ *)
(* Baseline comparison — the perf-regression gate                      *)
(* ------------------------------------------------------------------ *)

(* `mrvcc benchdiff OLD NEW` compares a freshly measured baseline
   against the committed one in two tiers:

   - deterministic counters must be EXACTLY equal — the simulated cycle
     counts of every sim phase, the real runtime's committed-epoch
     counts, the matrix cell/job counts and the serve request mix are
     functions of the code, not of the machine, so any drift is a
     semantic change that must arrive with a regenerated baseline;
   - wall times are one-shot measurements on a shared machine, so they
     are gated per phase name on the geometric mean across workloads
     with a relative tolerance (aggregating first keeps a single noisy
     workload from tripping the gate, while a real regression moves the
     mean).  Scheduling-dependent counters (exec_tls aborts) and serve
     latencies are deliberately not gated. *)

type baseline = {
  (* (workload, phase) -> wall, ref_wall, cycles, commits *)
  bl_phases :
    ((string * string) * (int * int option * int option * int option)) list;
  bl_matrix : (int * int) option;  (* cells, jobs *)
  bl_serve : (string * int) list;  (* serve phase -> request count *)
}

let baseline_of_json j =
  let* workloads = require "workloads" (field j "workloads") in
  let* workloads = as_arr "workloads" workloads in
  let* phases =
    List.fold_left
      (fun acc w ->
        let* acc = acc in
        let* name = require "workloads[].name" (field w "name") in
        let* name = as_str "workloads[].name" name in
        let* ps = require (name ^ ".phases") (field w "phases") in
        let* ps = as_arr (name ^ ".phases") ps in
        List.fold_left
          (fun acc p ->
            let* acc = acc in
            let* ph = require (name ^ ".phase") (field p "phase") in
            let* ph = as_str (name ^ ".phase") ph in
            let ctx key = Printf.sprintf "%s.%s.%s" name ph key in
            let* wall = require (ctx "wall_ns") (field p "wall_ns") in
            let* wall = as_int (ctx "wall_ns") wall in
            let opt key =
              match field p key with
              | None -> Ok None
              | Some v ->
                let* v = as_int (ctx key) v in
                Ok (Some v)
            in
            let* rw = opt "ref_wall_ns" in
            let* cy = opt "cycles" in
            let* cm = opt "commits" in
            Ok (((name, ph), (wall, rw, cy, cm)) :: acc))
          (Ok acc) ps)
      (Ok []) workloads
  in
  let* matrix =
    match field j "matrix" with
    | None -> Ok None
    | Some m ->
      let* c = require "matrix.cells" (field m "cells") in
      let* c = as_int "matrix.cells" c in
      let* jb = require "matrix.jobs" (field m "jobs") in
      let* jb = as_int "matrix.jobs" jb in
      Ok (Some (c, jb))
  in
  let* serve =
    match field j "serve" with
    | None -> Ok []
    | Some s ->
      let* s = as_arr "serve" s in
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          let* n = require "serve[].phase" (field p "phase") in
          let* n = as_str "serve[].phase" n in
          let* r = require (n ^ ".requests") (field p "requests") in
          let* r = as_int (n ^ ".requests") r in
          Ok ((n, r) :: acc))
        (Ok []) s
  in
  Ok
    {
      bl_phases = List.rev phases;
      bl_matrix = matrix;
      bl_serve = List.rev serve;
    }

let geomean = function
  | [] -> 0.0
  | l ->
    exp
      (List.fold_left (fun a v -> a +. log (float_of_int (max 1 v))) 0.0 l
      /. float_of_int (List.length l))

let compare_baselines ~tolerance (old_b : baseline) (new_b : baseline) =
  let problems = ref [] in
  let report = Buffer.create 1024 in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  (* Same workload x phase grid on both sides. *)
  let keys b = List.map fst b.bl_phases in
  List.iter
    (fun (w, p) ->
      if not (List.mem_assoc (w, p) new_b.bl_phases) then
        problem "%s/%s present in old baseline, missing in new" w p)
    (keys old_b);
  List.iter
    (fun (w, p) ->
      if not (List.mem_assoc (w, p) old_b.bl_phases) then
        problem "%s/%s present in new baseline, missing in old" w p)
    (keys new_b);
  let shared =
    List.filter (fun k -> List.mem_assoc k new_b.bl_phases) (keys old_b)
  in
  (* Tier 1: deterministic counters, exact. *)
  List.iter
    (fun ((w, p) as k) ->
      let _, _, ocy, ocm = List.assoc k old_b.bl_phases in
      let _, _, ncy, ncm = List.assoc k new_b.bl_phases in
      (match (ocy, ncy) with
      | Some a, Some b when a <> b ->
        problem "%s/%s: cycles %d -> %d (deterministic counter changed)" w p a
          b
      | Some _, None | None, Some _ ->
        problem "%s/%s: cycles present on one side only" w p
      | _ -> ());
      match (ocm, ncm) with
      | Some a, Some b when a <> b ->
        problem "%s/%s: commits %d -> %d (deterministic counter changed)" w p
          a b
      | Some _, None | None, Some _ ->
        problem "%s/%s: commits present on one side only" w p
      | _ -> ())
    shared;
  (match (old_b.bl_matrix, new_b.bl_matrix) with
  | Some (oc, oj), Some (nc, nj) ->
    if oc <> nc then problem "matrix.cells %d -> %d" oc nc;
    if oj <> nj then problem "matrix.jobs %d -> %d" oj nj
  | Some _, None -> problem "matrix section disappeared"
  | None, Some _ -> ()  (* a new section is not a regression *)
  | None, None -> ());
  List.iter
    (fun (n, r) ->
      match List.assoc_opt n new_b.bl_serve with
      | Some r' when r <> r' -> problem "serve.%s.requests %d -> %d" n r r'
      | None when new_b.bl_serve <> [] ->
        problem "serve phase %s disappeared" n
      | _ -> ())
    old_b.bl_serve;
  (* Tier 2: wall times, per-phase geomean across workloads with a
     relative tolerance. *)
  let phase_names_in b =
    List.sort_uniq compare (List.map (fun ((_, p), _) -> p) b.bl_phases)
  in
  let walls b pick p =
    List.filter_map
      (fun ((_, p'), v) -> if String.equal p p' then pick v else None)
      b.bl_phases
  in
  let gate kind pick p =
    let o = walls old_b pick p and n = walls new_b pick p in
    if o <> [] && n <> [] then begin
      let go = geomean o and gn = geomean n in
      let ratio = if go > 0.0 then gn /. go else 1.0 in
      let verdict = if ratio <= 1.0 +. tolerance then "ok" else "REGRESSION" in
      Buffer.add_string report
        (Printf.sprintf "%-16s %-18s %10.3f ms -> %10.3f ms  x%.2f  %s\n" p
           kind (go /. 1e6) (gn /. 1e6) ratio verdict);
      if ratio > 1.0 +. tolerance then
        problem "%s %s geomean regressed x%.2f (tolerance x%.2f)" p kind
          ratio (1.0 +. tolerance)
    end
  in
  List.iter
    (fun p ->
      gate "wall" (fun (w, _, _, _) -> Some w) p;
      gate "ref_wall" (fun (_, r, _, _) -> r) p)
    (phase_names_in old_b);
  Buffer.add_string report
    (Printf.sprintf
       "counters compared on %d workload-phase cells; wall tolerance +%.0f%%\n"
       (List.length shared) (tolerance *. 100.));
  match !problems with
  | [] -> Ok (Buffer.contents report)
  | ps ->
    Error
      (Buffer.contents report ^ "\n"
      ^ String.concat "\n" (List.rev ps))

let compare_strings ~tolerance ?(old_name = "old baseline")
    ?(new_name = "new baseline") old_s new_s =
  let load what s =
    (* Schema-validate first so the comparison never reads a malformed
       document, then extract the comparison view. *)
    let* _ =
      Result.map_error (fun e -> Printf.sprintf "%s: %s" what e)
        (validate_string s)
    in
    match Json.parse s with
    | j ->
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" what e)
        (baseline_of_json j)
    | exception Json.Parse_error msg ->
      Error (Printf.sprintf "%s: JSON parse error: %s" what msg)
  in
  let* old_b = load old_name old_s in
  let* new_b = load new_name new_s in
  compare_baselines ~tolerance old_b new_b

(* ------------------------------------------------------------------ *)
(* Atomic file writes                                                  *)
(* ------------------------------------------------------------------ *)

(* Write-to-temp + rename in the destination directory: a reader (or a
   crash/kill at any point) sees either the complete old file or the
   complete new one, never a truncated BENCH_*.json.  [?before_rename]
   exists for the kill-mid-write test, which parks the writer between
   the temp write and the rename. *)
let write_file_atomic ?(before_rename = fun () -> ()) path contents =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  before_rename ();
  try Unix.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
