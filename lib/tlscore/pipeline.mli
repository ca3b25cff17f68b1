(** End-to-end compilation pipeline (paper §3.1):

    source → lower → loop-profile → select regions → unroll
    → (optionally) dependence-profile → scalar sync → memory sync
    → executable snapshot.

    One lowered program goes through every step: both profiles run on it
    before any sync pass rewrites it, so profile instruction ids are the
    ids the passes transform. *)

type memory_sync =
  | No_memory_sync
  (* Profile dependences on this input, synchronize deps above threshold. *)
  | Profiled of { dep_input : int array; threshold : float }

type compiled = {
  prog : Ir.Prog.t;
  code : Runtime.Code.t;
  selected : Profiler.Profile.loop_key list;
  loop_profile : Profiler.Profile.t;
  dep_profiles : (Profiler.Profile.loop_key * Profiler.Profile.dep_profile) list;
  mem_stats : (Profiler.Profile.loop_key * Memsync.stats) list;
  unroll_factors : (Profiler.Profile.loop_key * int) list;
      (* factor applied per selected loop (1 = left alone) *)
  lint_findings : Analysis.Synclint.finding list;
      (* synclint report on the transformed program (empty when clean or
         when [~lint:false]) *)
  sched_stats : Analysis.Syncsched.stats;
      (* what the sync scheduler moved ({!Analysis.Syncsched.zero} when
         [~sync_sched:false]) *)
}

(** Compile one configuration.
    @param profile_input drives region selection (the paper's automatically
    gathered loop profile).
    @param selection overrides the heuristics (used by the chaos harness
    and tests).
    @param eager_signals see {!Memsync.apply} (ablation knob).
    @param lint run {!Analysis.Synclint} on the transformed program and
    report its findings in [lint_findings] (default true; findings never
    abort the compile).
    @param profile_fault distorts each collected dependence profile before
    the memory-sync pass consumes it (the chaos harness's profile-fault
    layer); the profiling run itself is untouched.
    @param sync_sched run {!Analysis.Syncsched} after the sync passes —
    hoist signals toward their value definitions and sink waits toward
    their first uses (default false; off, the generated code is
    byte-identical to previous releases).  The rewritten program is
    re-checked by {!Ir.Verify}, and the lint pass reuses the scheduler's
    points-to analysis.
    The resulting program is always checked by {!Ir.Verify}. *)
val compile :
  ?selection:Profiler.Profile.loop_key list ->
  ?eager_signals:bool ->
  ?lint:bool ->
  ?sync_sched:bool ->
  ?profile_fault:
    (Profiler.Profile.dep_profile -> Profiler.Profile.dep_profile) ->
  source:string ->
  profile_input:int array ->
  memory_sync:memory_sync ->
  unit ->
  compiled

(** The untransformed program of the same source (sequential reference). *)
val original : source:string -> Ir.Prog.t

(** Deterministic identity of a compiled artifact (MD5 of the canonical
    program pretty-print).  Two compiles of the same source and
    configuration always produce the same digest; the serve layer keys
    its content-addressed artifact cache and its crash-safety
    (warm-vs-cold byte-equality) checks on it. *)
val artifact_digest : compiled -> string
