type memory_sync =
  | No_memory_sync
  | Profiled of { dep_input : int array; threshold : float }

type compiled = {
  prog : Ir.Prog.t;
  code : Runtime.Code.t;
  selected : Profiler.Profile.loop_key list;
  loop_profile : Profiler.Profile.t;
  dep_profiles : (Profiler.Profile.loop_key * Profiler.Profile.dep_profile) list;
  mem_stats : (Profiler.Profile.loop_key * Memsync.stats) list;
  unroll_factors : (Profiler.Profile.loop_key * int) list;
  lint_findings : Analysis.Synclint.finding list;
  sched_stats : Analysis.Syncsched.stats;
}

let original ~source = Ir.Lower.compile_source source

let compile ?selection ?(eager_signals = true) ?(lint = true)
    ?(sync_sched = false) ?profile_fault ~source ~profile_input ~memory_sync
    () =
  let prog = Ir.Lower.compile_source source in
  let loop_profile = Profiler.Runner.run prog ~input:profile_input ~watch:[] in
  let selected =
    match selection with
    | Some keys -> keys
    | None -> Selection.select prog loop_profile
  in
  (* Small-loop unrolling (paper §3.1) comes before dependence profiling,
     so epochs and frequencies refer to unrolled iterations. *)
  let unroll_factors =
    List.map
      (fun key -> (key, Unroll.suggested_factor loop_profile key))
      selected
  in
  List.iter
    (fun (key, factor) ->
      if factor > 1 then ignore (Unroll.apply prog key ~factor))
    unroll_factors;
  (* The dependence profile runs before any sync pass: the profiled program
     is exactly the one whose instruction ids the sync passes rewrite. *)
  let dep_profiles =
    match memory_sync with
    | No_memory_sync -> []
    | Profiled { dep_input; _ } ->
      if selected = [] then []
      else begin
        let p = Profiler.Runner.run prog ~input:dep_input ~watch:selected in
        List.filter_map
          (fun key ->
            Option.map
              (fun dp -> (key, dp))
              (Profiler.Profile.dep_profile p key))
          selected
      end
  in
  (* A profile run allocates its memory image and icode directly on the
     major heap and almost nothing on the minor heap, so no minor
     collection, and with it no major slice, runs during it.  One slice
     after the profile runs lets the major GC catch up with that garbage.
     Without it, the heap a caller's later [Gc.compact] leaves behind was
     measured up to a fifth larger. *)
  ignore (Gc.major_slice 0);
  (* Chaos hook: distort the dependence profiles the sync passes consume
     (drop/duplicate/shuffle arcs, stale-train substitution) without
     touching the profiling run. *)
  let dep_profiles =
    match profile_fault with
    | None -> dep_profiles
    | Some f -> List.map (fun (key, dp) -> (key, f dp)) dep_profiles
  in
  let regions =
    List.map (fun key -> (key, fst (Regions.create prog key))) selected
  in
  let mem_stats =
    match memory_sync with
    | No_memory_sync -> []
    | Profiled { threshold; _ } ->
      List.filter_map
        (fun (key, region) ->
          match List.assoc_opt key dep_profiles with
          | Some dp ->
            Some (key, Memsync.apply ~eager_signals prog region dp ~threshold)
          | None -> None)
        regions
  in
  Ir.Verify.check_exn prog;
  (* Sync scheduling (signal hoisting / wait sinking) runs after both sync
     passes; its points-to analysis stays valid across the reordering, so
     the lint pass reuses it instead of recomputing. *)
  let shared_pt, sched_stats =
    if sync_sched then begin
      let pt = Analysis.Pointsto.analyze prog in
      let stats = Analysis.Syncsched.apply ~pointsto:pt prog in
      Ir.Verify.check_exn prog;
      (Some pt, stats)
    end
    else (None, Analysis.Syncsched.zero)
  in
  let lint_findings =
    if lint then Analysis.Synclint.run_prog ?pointsto:shared_pt ~dep_profiles prog
    else []
  in
  let code = Runtime.Code.of_prog prog in
  {
    prog;
    code;
    selected;
    loop_profile;
    dep_profiles;
    mem_stats;
    unroll_factors;
    lint_findings;
    sched_stats;
  }

(* A compiled artifact's identity for content-addressed caching and
   warm-vs-cold equality checks: the digest of the transformed program's
   canonical pretty-print.  Lowering and the passes are deterministic,
   so two compiles of the same source and configuration always agree —
   the property the serve cache's crash-safety test pins. *)
let artifact_digest (c : compiled) =
  Digest.to_hex (Digest.string (Ir.Pp.program c.prog))
