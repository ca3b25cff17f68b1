(** Machine-readable performance baseline: the wall time and allocation
    of each pipeline phase per workload, emitted as schema-versioned JSON
    (committed as [BENCH_PR13.json]; the older [BENCH_PR*.json] files are
    the trajectory record) so later PRs have a perf trajectory to
    regress against.

    The phases are the pipeline's layers: frontend (lex+parse+check), lower (to IR),
    profile (loop+dependence profiling), pass (full pipeline with memory
    sync), sim_seq (sequential timing run), sim_tls (TLS run, C mode)
    and sim_tls_bounded (TLS run, C mode under the finite-resource
    limits of {!bounded_cfg}).  The sim phases surface the simulator's
    own {!Tls.Simstats.runtime_counters} plus their deterministic cycle
    counts.  Schema v8 adds [exec_tls]: the same compiled code and input
    run for real on OCaml domains by [Specrt], carrying the runtime's
    commit/abort counters instead of a cycle count, so the baseline
    records actual parallel wall time next to both simulators'.

    Numbers are one-shot measurements (a trajectory record, not a
    statistically analyzed benchmark — [perfbench/] covers that); the
    JSON {e structure} is what the schema expect test pins. *)

(** One timed phase.  [ph_cycles] is the deterministic simulated cycle
    count, present only for the sim phases.  [ph_ref_wall_ns] (schema v7)
    is the cycle-stepped oracle engine's wall time on the same run,
    present only for the TLS sim phases ({!dual_engine_phase_names});
    [ph_wall_ns] on those phases is the event engine.  [ph_commits] and
    [ph_aborts] (schema v8) are the speculative runtime's epoch counters,
    present exactly on the [exec_tls] phase (and forbidden elsewhere —
    as [ph_cycles] is forbidden on [exec_tls]). *)
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

(** Serial vs parallel wall time of one run of a cell matrix (the chaos
    matrix, timed by the [mrvcc bench] driver). *)
type matrix_bench = {
  mx_name : string;
  mx_cells : int;
  mx_jobs : int;
  mx_serial_wall_ns : int;
  mx_parallel_wall_ns : int;
}

(** One load-harness run of the compile service (DESIGN §14): request
    counts, shedding/degradation/cache counters and latency percentiles
    for one of the [serve_cold]/[serve_warm]/[serve_burst] phases.  The
    count fields are structural (the harness fixes the request mix), so
    the validation summary pins them; latencies are timing. *)
type serve_phase = {
  sv_name : string;
  sv_requests : int;
  sv_completed : int;       (* requests that got a non-shed response *)
  sv_shed : int;            (* typed load-shedding rejections *)
  sv_degraded : int;        (* served from last-known-good, marked degraded *)
  sv_cache_hits : int;
  sv_cache_misses : int;
  sv_wall_ns : int;         (* whole-phase wall time *)
  sv_p50_ns : int;          (* per-request latency percentiles *)
  sv_p99_ns : int;
}

type t = {
  bench_schema_version : int;
  bench_workloads : workload_bench list;
  bench_matrix : matrix_bench option;
  bench_serve : serve_phase list;  (* [] = no serve section *)
}

val schema_version : int

(** The phase names every workload entry must cover, in order. *)
val phase_names : string list

(** The serve phases a [serve] section must cover, in order. *)
val serve_phase_names : string list

(** The sim phases that are run on both engines and must carry
    [ref_wall_ns]: the three TLS configurations.  [sim_seq] has one
    shared implementation and is excluded. *)
val dual_engine_phase_names : string list

(** C mode with the DESIGN §12 resource limits tightened (signal buffer
    2, 8 speculative lines per epoch, forwarding queue 8) so most
    workloads actually degrade — signal drops and overflow stalls — while
    every one still completes with sequential-equivalent output: the
    configuration of the [sim_tls_bounded] phase. *)
val bounded_cfg : Tls.Config.t

(** The phase run for real on domains, carrying commit/abort counters:
    ["exec_tls"]. *)
val exec_phase_name : string

(** Time every phase of one workload, including the real [exec_tls]
    execution. *)
val bench_workload : Workloads.Workload.t -> workload_bench

(** Time [f ()], returning its value and a phase record. *)
val timed_phase : string -> (unit -> 'a) -> 'a * phase

(** Render as JSON (stable key order, newline-terminated). *)
val to_json : t -> string

(** Parse + schema-check a JSON document.  [Ok summary] describes the
    validated structure (names and phases only — no timing values, so
    expect tests stay stable); [Error msg] pinpoints the first schema
    violation. *)
val validate_string : string -> (string, string) result

val validate_file : string -> (string, string) result

(** Perf-regression gate over two schema-valid baselines (the
    [mrvcc benchdiff] CLI and the CI perf gate).  Deterministic counters
    — per-phase simulated cycle counts, real-runtime commit counts, the
    matrix cell/job counts, the serve request mix — must be exactly
    equal; wall times ([wall_ns], [ref_wall_ns]) are gated per phase name on the geometric mean across workloads,
    which must not grow by more than [tolerance] (relative, e.g. [0.5]
    = +50%).  Scheduling-dependent counters (exec_tls aborts) and serve
    latencies are not gated.  [Ok report] is the comparison table;
    [Error report] carries the same table plus one line per violation. *)
val compare_strings :
  tolerance:float ->
  ?old_name:string ->
  ?new_name:string ->
  string ->
  string ->
  (string, string) result

(** [write_file_atomic path contents] writes via a temp file in [path]'s
    directory followed by [Unix.rename], so an interrupted writer can
    never leave a truncated file: readers see the complete old contents
    or the complete new ones.  [?before_rename] is a test hook run
    between the temp write and the rename. *)
val write_file_atomic :
  ?before_rename:(unit -> unit) -> string -> string -> unit
