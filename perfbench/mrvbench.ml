(* The mrvcc benchmark: one run measures one workload for a fixed wall-clock
   budget, checks every output against sequential interpretation, and
   prints one JSON object as its last line of standard output.

   Untraced runs report the end-to-end metrics; a traced run ([--trace 1])
   first repeats the untraced measurement for half its budget, then records
   a span around every call into a layer's public functions for the other
   half and reports the per-layer metrics.  README.md in this directory
   lists the workloads, metrics and the layer each metric belongs to. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks, as Python's
   [statistics.quantiles(method="inclusive")]. *)
let quantile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* The highest of the usual percentiles with at least ten samples beyond
   it, if any. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let geomean = function
  | [] -> 0.0
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let setup_reps = ref 3
let limit = ref 0
let corpus_size = ref 200
let inject_mismatch = ref false
let perturb = ref ""
let state_dir = ref ".perfbench"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N seed of the corpus and program order");
    ("--seconds", Arg.Set_float seconds, "S measured wall-clock budget");
    ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ("--setup-reps", Arg.Set_int setup_reps, "N set-ups timed per run (3)");
    ("--limit", Arg.Set_int limit, "N keep the first N paper programs (0: all)");
    ("--corpus", Arg.Set_int corpus_size, "N Proggen programs (200)");
    ( "--inject-mismatch",
      Arg.Set inject_mismatch,
      " corrupt the first checked output (tests the check)" );
    ( "--perturb-count",
      Arg.Set_string perturb,
      "NAME add one to count NAME on pass 2 (tests the exact-count check)" );
    ("--state-dir", Arg.Set_string state_dir, "DIR counts and trace output");
  ]

let usage = "mrvbench --workload NAME --seed N --seconds S --trace 0|1"

let workloads =
  [ "compile_paper15"; "simulate_paper15"; "execute_paper15"; "proggen_flow" ]

(* Which layers a workload's timed operation calls. *)
let compiles () = !workload = "compile_paper15" || !workload = "proggen_flow"
let simulates () = !workload = "simulate_paper15" || !workload = "proggen_flow"
let executes () = !workload = "execute_paper15" || !workload = "proggen_flow"

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

type program = {
  id : string;
  source : string;
  train : int array;  (* loop-profile input *)
  input : int array;  (* dependence-profile and measured input *)
}

let paper_programs () =
  Workloads.Registry.all
  |> List.filteri (fun i _ -> !limit <= 0 || i < !limit)
  |> List.map (fun (w : Workloads.Workload.t) ->
         {
           id = w.name;
           source = w.source;
           train = w.train_input;
           input = w.ref_input;
         })

(* [count] distinct generator seeds drawn from the benchmark seed; each
   program profiles, compiles and runs on its one generated input. *)
let proggen_programs () =
  let rng = Random.State.make [| !seed; 0x70726f67 |] in
  let seen = Hashtbl.create !corpus_size in
  let rec draw acc n =
    if n = 0 then List.rev acc
    else
      let s = Random.State.int rng 1_000_000 in
      if Hashtbl.mem seen s then draw acc n
      else begin
        Hashtbl.add seen s ();
        let source, input = Faults.Proggen.generate ~seed:s in
        draw
          ({ id = Printf.sprintf "gen-%d" s; source; train = input; input }
          :: acc)
          (n - 1)
      end
  in
  draw [] !corpus_size

let permute ~pass xs =
  let a = Array.of_list xs in
  let rng = Random.State.make [| !seed; pass; 0x7065726d |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type span = {
    id : int;
    parent : int;  (* -1 at top level *)
    name : string;
    prog : string;
    pass : int;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let pass = ref 0
  let prog = ref ""
  let spans : span list ref = ref []
  let next = ref 0
  let parent = ref (-1)

  let with_span name f =
    if not !on then f ()
    else begin
      let id = !next in
      incr next;
      let outer = !parent in
      parent := id;
      let t0 = now () in
      let finish () =
        parent := outer;
        spans :=
          { id; parent = outer; name; prog = !prog; pass = !pass; t0; t1 = now () }
          :: !spans
      in
      match f () with
      | r ->
        finish ();
        r
      | exception e ->
        finish ();
        raise e
    end

  (* Self time per span name within one pass: a span's duration minus the
     time its child spans cover. *)
  let self_times pass_no =
    let spans = List.filter (fun s -> s.pass = pass_no) !spans in
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)
            +. (s.t1 -. s.t0)))
      spans;
    let self = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let d =
          s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
        in
        Hashtbl.replace self s.name
          (d +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
      spans;
    (self, List.length spans)

  let write path =
    let origin =
      List.fold_left (fun m s -> Float.min m s.t0) infinity !spans
    in
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"name\":%S,\"prog\":%S,\"pass\":%d,\
           \"start_us\":%.1f,\"dur_us\":%.1f}\n"
          s.id s.parent s.name s.prog s.pass
          ((s.t0 -. origin) *. 1e6)
          ((s.t1 -. s.t0) *. 1e6))
      (List.rev !spans);
    close_out oc
end

(* Time [f], recording a span named [name] when tracing. *)
let call name f =
  let t0 = now () in
  let r = Trace.with_span name f in
  (r, now () -. t0)

(* The per-program span of a traced run: the workload's operation on one
   program, which the untraced run times with the same boundaries. *)
let program_span (p : program) f =
  Trace.prog := p.id;
  call "program" f

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-pass sums, keyed by (pass, name).  Pass 0 is set-up. *)
let sums : (int * string, float) Hashtbl.t = Hashtbl.create 256

let add pass name v =
  Hashtbl.replace sums (pass, name)
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums (pass, name)))

let get pass name = Option.value ~default:0.0 (Hashtbl.find_opt sums (pass, name))

(* Per-program timings, keyed by (name, program), as (pass, seconds). *)
let prog_samples : (string * string, (int * float) list) Hashtbl.t =
  Hashtbl.create 256

let add_time pass id name dt =
  add pass name dt;
  let key = (name, id) in
  Hashtbl.replace prog_samples key
    ((pass, dt) :: Option.value ~default:[] (Hashtbl.find_opt prog_samples key))

(* A typical pass: the sum over programs of each program's median time
   in [passes].  Noise that hits part of a pass (a stolen time slice, a
   major collection) moves it less than it moves that pass's sum. *)
let typical ?(scale = fun _ -> 1.0) passes name =
  Hashtbl.fold
    (fun (n, _) samples acc ->
      if n <> name then acc
      else
        match List.filter (fun (p, _) -> List.mem p passes) samples with
        | [] -> acc
        | l -> acc +. median (List.map (fun (p, v) -> v *. scale p) l))
    prog_samples 0.0

(* Per-pass, per-program ratios, for geometric means. *)
let ratios : (int * string, (string * float) list) Hashtbl.t = Hashtbl.create 16

let add_ratio pass name id r =
  let l = Option.value ~default:[] (Hashtbl.find_opt ratios (pass, name)) in
  Hashtbl.replace ratios (pass, name) ((id, r) :: l)

(* Order-independent, so the value repeats exactly whatever the order. *)
let pass_geomean pass name =
  Option.value ~default:[] (Hashtbl.find_opt ratios (pass, name))
  |> List.sort compare |> List.map snd |> geomean

(* Untraced per-program latencies in ms, with their pass. *)
let op_ms : (int * float) list ref = ref []
let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

exception Mismatch of string

let expect what ok = if not ok then raise (Mismatch what)

(* Run one checked per-program operation; any error, typed or not, counts
   as a failed operation and never aborts the run. *)
let attempt (p : program) what f =
  incr attempted;
  match f () with
  | () -> ()
  | exception e ->
    incr failed;
    let msg =
      match e with
      | Mismatch m -> "mismatch: " ^ m
      | Tls.Sim.Stuck d -> "Stuck: " ^ Tls.Sim.describe_stuck d
      | Tls.Sim.Resource_deadlock d ->
        "Resource_deadlock: " ^ Tls.Sim.describe_resource_deadlock d
      | e -> Printexc.to_string e
    in
    if List.length !failures < 20 then
      failures := Printf.sprintf "%s %s: %s" what p.id msg :: !failures

(* Test seam: corrupt the first value the run checks. *)
let tamper_pending = ref false

let tamper_list l =
  if !tamper_pending then begin
    tamper_pending := false;
    0x5eed :: l
  end
  else l

let tamper_string s =
  if !tamper_pending then begin
    tamper_pending := false;
    s ^ "-tampered"
  end
  else s

(* ------------------------------------------------------------------ *)
(* Exact counts                                                        *)
(* ------------------------------------------------------------------ *)

(* Deterministic counts, keyed by "program|name": every pass of a run and
   every run of one seed must record the same value. *)
let counts : (string, string) Hashtbl.t = Hashtbl.create 256
let drift : string list ref = ref []

let record pass id name v =
  let key = id ^ "|" ^ name in
  match Hashtbl.find_opt counts key with
  | None -> Hashtbl.add counts key v
  | Some v0 ->
    if v0 <> v && List.length !drift < 20 then
      drift :=
        Printf.sprintf "%s: %s on the first record, %s on pass %d" key v0 v pass
        :: !drift

let record_int pass id name v =
  let v = if name = !perturb && pass = 2 then v + 1 else v in
  record pass id name (string_of_int v);
  add pass name (float_of_int v)

let counts_file () =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  Filename.concat !state_dir
    (Printf.sprintf "counts-%s-seed%d-limit%d-corpus%d-%s.tsv" !workload !seed
       !limit !corpus_size exe)

(* Compare with the counts earlier runs of this seed recorded, then store
   the union. *)
let check_counts_across_runs () =
  let path = counts_file () in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char '\t' (input_line ic) with
         | [ key; v0 ] -> (
           match Hashtbl.find_opt counts key with
           | Some v when v <> v0 ->
             drift :=
               Printf.sprintf "%s: %s in an earlier run, %s now" key v0 v
               :: !drift
           | Some _ -> ()
           | None -> Hashtbl.add counts key v0)
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  if !drift = [] then begin
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort compare
    |> List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v);
    close_out oc;
    Sys.rename tmp path
  end

(* ------------------------------------------------------------------ *)
(* Layer operations                                                    *)
(* ------------------------------------------------------------------ *)

let cfg = Tls.Config.c_mode
let domains = min cfg.Tls.Config.num_procs (Domain.recommended_domain_count ())
let threshold = 0.05

let static_instrs (code : Runtime.Code.t) =
  Hashtbl.fold
    (fun _ (f : Runtime.Code.cfunc) acc ->
      Array.fold_left
        (fun acc (b : Runtime.Code.cblock) -> acc + Array.length b.instrs)
        acc f.cf_blocks)
    code.funcs 0

let sync_ops (code : Runtime.Code.t) =
  let is_sync (i : Ir.Instr.t) =
    match i.kind with
    | Wait_scalar _ | Signal_scalar _ | Wait_mem _ | Sync_load _ | Signal_mem _
    | Signal_mem_if_unsent _ | Signal_null _ | Signal_null_if_unsent _ ->
      true
    | _ -> false
  in
  Hashtbl.fold
    (fun _ (f : Runtime.Code.cfunc) acc ->
      Array.fold_left
        (fun acc (b : Runtime.Code.cblock) ->
          acc
          + Array.fold_left
              (fun n i -> if is_sync i then n + 1 else n)
              0 b.instrs)
        acc f.cf_blocks)
    code.funcs 0

let digest prog = Digest.to_hex (Digest.string (Ir.Pp.program prog))

type build = {
  b_prog : Ir.Prog.t;
  b_code : Runtime.Code.t;
  b_loop_instrs : int;
  b_dep_instrs : int;  (* traced runs only *)
  b_findings : int;
}

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* The public calls [Tlscore.Pipeline.compile] makes, each in its own
   span, with the pipeline's defaults (unrolling and lint on, no
   optimizer, eager signals, no sync scheduling). *)
let compile_traced pass (p : program) =
  let lower () =
    let tast, _ = call "lang.check" (fun () -> Lang.Sema.check_source p.source) in
    fst (call "ir.lower" (fun () -> Ir.Lower.program tast))
  in
  let profile prog ~input ~watch name =
    let (prof, w), dt =
      call name (fun () ->
          minor_words (fun () -> Profiler.Runner.run prog ~input ~watch))
    in
    ignore dt;
    add pass "profiler.minor_words" w;
    prof
  in
  let reference = lower () in
  let loop_profile = profile reference ~input:p.train ~watch:[] "profiler.loop" in
  let selected, _ =
    call "tlscore.select" (fun () ->
        Tlscore.Selection.select reference loop_profile)
  in
  let factors, _ =
    call "tlscore.unroll" (fun () ->
        List.map
          (fun k -> (k, Tlscore.Unroll.suggested_factor loop_profile k))
          selected)
  in
  let unroll target =
    ignore
      (call "tlscore.unroll" (fun () ->
           List.iter
             (fun (k, factor) ->
               if factor > 1 then ignore (Tlscore.Unroll.apply target k ~factor))
             factors))
  in
  unroll reference;
  let dep_profiles, dep_instrs =
    if selected = [] then ([], 0)
    else
      let d = profile reference ~input:p.input ~watch:selected "profiler.dep" in
      ( List.filter_map
          (fun k ->
            Option.map (fun dp -> (k, dp)) (Profiler.Profile.dep_profile d k))
          selected,
        d.total_instrs )
  in
  let prog = lower () in
  unroll prog;
  let regions, _ =
    call "tlscore.regions" (fun () ->
        List.map (fun k -> (k, fst (Tlscore.Regions.create prog k))) selected)
  in
  ignore
    (call "tlscore.memsync" (fun () ->
         List.iter
           (fun (k, region) ->
             match List.assoc_opt k dep_profiles with
             | Some dp ->
               ignore (Tlscore.Memsync.apply prog region dp ~threshold)
             | None -> ())
           regions));
  ignore (call "tlscore.verify" (fun () -> Ir.Verify.check_exn prog));
  let findings, _ =
    call "analysis.lint" (fun () -> Analysis.Synclint.run_prog ~dep_profiles prog)
  in
  let code, _ = call "runtime.code" (fun () -> Runtime.Code.of_prog prog) in
  {
    b_prog = prog;
    b_code = code;
    b_loop_instrs = loop_profile.total_instrs;
    b_dep_instrs = dep_instrs;
    b_findings = List.length findings;
  }

let compile_untraced (p : program) =
  let c =
    Tlscore.Pipeline.compile ~source:p.source ~profile_input:p.train
      ~memory_sync:(Profiled { dep_input = p.input; threshold })
      ()
  in
  {
    b_prog = c.prog;
    b_code = c.code;
    b_loop_instrs = c.loop_profile.total_instrs;
    b_dep_instrs = 0;
    b_findings = List.length c.lint_findings;
  }

(* Compile one program and check the artifact. *)
let compile pass (p : program) ~expected_digest =
  let b, dt =
    call "compile" (fun () ->
        if !Trace.on then compile_traced pass p else compile_untraced p)
  in
  add_time pass p.id "compile" dt;
  let d = digest b.b_prog in
  record pass p.id "digest" d;
  record_int pass p.id "ir.instrs_out" (static_instrs b.b_code);
  record_int pass p.id "tlscore.sync_ops" (sync_ops b.b_code);
  record_int pass p.id "profiler.loop_instrs" b.b_loop_instrs;
  record_int pass p.id "analysis.lint_findings" b.b_findings;
  if !Trace.on then record_int pass p.id "profiler.dep_instrs" b.b_dep_instrs;
  expect "lint findings" (b.b_findings = 0);
  Option.iter
    (fun e -> expect "artifact digest" (tamper_string d = e))
    expected_digest;
  b

type reference = { out : int list; mem : Runtime.Memory.t }

let reference code ~input =
  let mem = Runtime.Memory.create () in
  let out = Runtime.Thread.run_sequential code ~input mem in
  { out; mem }

let same what (r : reference) out mem =
  expect (what ^ " output") (tamper_list out = r.out);
  expect (what ^ " final memory") (Runtime.Memory.equal mem r.mem)

(* Sequential and C-mode simulation; returns the committed epochs and the
   dynamic instructions of the sequential run. *)
let simulate pass (p : program) ~orig ~code (r : reference) =
  let seq, t_seq =
    call "tls.sim_seq" (fun () ->
        Tls.Sim.run_sequential cfg orig ~input:p.input
          ~track:code.Runtime.Code.regions)
  in
  let tls, t_tls =
    call "tls.sim_tls" (fun () -> Tls.Sim.run cfg code ~input:p.input ())
  in
  add_time pass p.id "sim" (t_seq +. t_tls);
  same "sim_seq" r seq.sq_output seq.sq_memory;
  same "sim_tls" r tls.output tls.final_memory;
  let n = record_int pass p.id in
  n "tls.cycles_seq" seq.sq_cycles;
  n "tls.cycles_tls" tls.total_cycles;
  n "tls.epochs_committed" tls.epochs_committed;
  n "tls.epochs_squashed" tls.epochs_squashed;
  n "tls.violations" tls.violations;
  n "tls.sq_instrs" seq.sq_instrs;
  n "tls.slot_busy" tls.slots.s_busy;
  n "tls.slot_sync" tls.slots.s_sync;
  n "tls.slot_fail" tls.slots.s_fail;
  n "tls.slot_other" (Tls.Simstats.other tls.slots);
  n "tls.slot_total" tls.slots.s_total;
  add pass "tls.minor_words"
    (seq.sq_runtime.rt_minor_words +. tls.runtime.rt_minor_words);
  add_ratio pass "sim_speedup" p.id
    (ratio (float_of_int seq.sq_cycles) (float_of_int tls.total_cycles));
  (tls.epochs_committed, seq.sq_instrs)

let specrt_opts d = { (Specrt.default_opts cfg) with Specrt.domains = d }

let execute pass (p : program) ~code ~commits (r : reference) =
  let x, dt =
    call "specrt.exec" (fun () ->
        Specrt.run ~opts:(specrt_opts domains) cfg code ~input:p.input)
  in
  add_time pass p.id "specrt" dt;
  same "specrt" r x.r_output x.r_final_memory;
  record_int pass p.id "specrt.commits" x.r_epochs_committed;
  expect "specrt commits equal simulated commits" (x.r_epochs_committed = commits);
  add pass "specrt.squashes" (float_of_int x.r_epochs_squashed);
  add pass "specrt.violations" (float_of_int x.r_violations);
  dt

(* The sequential baseline of [execute], outside the per-program span. *)
let run_baseline pass (p : program) ~orig ~icount ~specrt_s (r : reference) =
  let mem = Runtime.Memory.create () in
  let out, dt =
    call "runtime.seq" (fun () ->
        Runtime.Thread.run_sequential orig ~input:p.input mem)
  in
  add_time pass p.id "runtime.seq" dt;
  add pass "runtime.icount" (float_of_int icount);
  same "run_sequential" r out mem;
  add_ratio pass "exec_speedup" p.id (ratio dt specrt_s)

(* Dynamic instructions of a sequential run: [Runtime.Thread.run_sequential]
   stepped by hand to read its instruction counter. *)
let sequential_icount (code : Runtime.Code.t) ~input =
  let mem = Runtime.Memory.create () in
  Runtime.Memory.store_all mem code.initial_stores;
  let t = Runtime.Thread.create code ~func_name:"main" ~input in
  let hooks = Runtime.Thread.sequential_hooks mem in
  let rec go () =
    match Runtime.Thread.step t hooks with
    | Ran _ -> go ()
    | _ -> t.icount
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)
(* ------------------------------------------------------------------ *)

(* On the shared 2-vCPU host this benchmark was tuned on, the speed of
   the interpreters measured here switches between levels about 1.6x
   apart for tens of seconds at a time, which would swamp a comparison of
   two runs.  A fixed kernel that no change to the repository can touch --
   a small register machine interpreted by a match over variants, with
   closures for arithmetic and a hash-table memory, the instruction mix
   of those interpreters -- runs in slices interleaved with the
   operations, a fixed amount of kernel work per set-up and per pass.
   End-to-end times are reported in calibrated seconds,
   [raw *. kernel_ref_s d /. the kernel time of that set-up or pass],
   with the raw seconds printed next to them. *)

type kinstr =
  | Kbin of int * int * int * (int -> int -> int)
  | Kload of int * int
  | Kstore of int * int
  | Kbranch of int * int * int

let kernel =
  [|
    Kload (1, 0);
    Kbin (1, 1, 2, ( + ));
    Kstore (0, 1);
    Kbin (0, 0, 3, fun a b -> ((a * b) + 7) land 4095);
    Kbin (4, 4, 5, ( + ));
    Kbranch (4, 6, 0);
  |]

let kernel_iterations = 1_000_000

(* Seconds [iterations] of the kernel take now. *)
let run_kernel iterations =
  let regs = [| 1; 0; 3; 31; 0; 1; iterations |] in
  let mem = Hashtbl.create 4096 in
  let pc = ref 0 in
  let t0 = now () in
  while !pc < Array.length kernel do
    match kernel.(!pc) with
    | Kbin (d, a, b, f) ->
      regs.(d) <- f regs.(a) regs.(b);
      incr pc
    | Kload (d, a) ->
      regs.(d) <- Option.value ~default:0 (Hashtbl.find_opt mem regs.(a));
      incr pc
    | Kstore (a, v) ->
      Hashtbl.replace mem regs.(a) regs.(v);
      incr pc
    | Kbranch (a, b, target) ->
      if regs.(a) < regs.(b) then pc := target else incr pc
  done;
  now () -. t0

(* Kernel seconds and the reference for them, per pass; pass 0 is the
   latest set-up. *)
let pass_kernel : (int, float * float) Hashtbl.t = Hashtbl.create 32

(* The kernel's time on the host the benchmark was tuned on, on [d]
   domains at once, so that calibrated seconds read close to raw ones
   there. *)
let kernel_ref_s d = if d = 1 then 0.085 else 0.2

let kernel_s pass = fst (Hashtbl.find pass_kernel pass)

let calibration pass =
  let k, reference = Hashtbl.find pass_kernel pass in
  reference /. k

let run_kernel_slice ~domains iterations =
  match domains with
  | 1 -> run_kernel iterations
  | d ->
    let t0 = now () in
    let others =
      List.init (d - 1) (fun _ ->
          Domain.spawn (fun () -> ignore (run_kernel iterations)))
    in
    ignore (run_kernel iterations);
    List.iter Domain.join others;
    now () -. t0

(* Apply [f] to each element, running an equal share of the pass's kernel
   work on [domains] domains before each one.  The kernel runs on as many
   domains as the operations it calibrates: Specrt also waits for a
   second processor, which the host may lend to another tenant. *)
let interleave_kernel ~domains pass f xs =
  let slice = kernel_iterations / max 1 (List.length xs) in
  Hashtbl.replace pass_kernel pass (0.0, kernel_ref_s domains);
  List.map
    (fun x ->
      let k = run_kernel_slice ~domains slice in
      Hashtbl.replace pass_kernel pass (k +. kernel_s pass, kernel_ref_s domains);
      f x)
    xs

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* What set-up builds for one program. *)
type artifact = {
  prog : program;
  orig : Runtime.Code.t;
  reference : reference;
  code : Runtime.Code.t;  (* compiled *)
  digest : string;
  commits : int;  (* Tls.Sim C-mode committed epochs *)
  icount : int;  (* dynamic instructions of the original program *)
}

let peak_heap_words = ref 0

(* Placeholders for what a workload's set-up does not build. *)
let empty_code = Runtime.Code.of_prog (Ir.Lower.compile_source "void main() { }")
let no_reference = { out = []; mem = Runtime.Memory.create () }

(* Compiled code of each Proggen program from the latest pass, for the
   traced run's probes. *)
let flow_code : (string, Runtime.Code.t) Hashtbl.t = Hashtbl.create 256

let sample_heap () =
  let w = (Gc.quick_stat ()).heap_words in
  if w > !peak_heap_words then peak_heap_words := w

let setup_program ~need_ref ~need_compile ~need_sim (p : program) =
  let orig, r =
    if need_ref then
      let orig =
        Runtime.Code.of_prog (Tlscore.Pipeline.original ~source:p.source)
      in
      (orig, reference orig ~input:p.input)
    else (empty_code, no_reference)
  in
  let code, d =
    if need_compile then
      let b = compile 0 p ~expected_digest:None in
      (b.b_code, digest b.b_prog)
    else (empty_code, "")
  in
  let commits, icount =
    if need_sim then
      ( fst (simulate 0 p ~orig ~code r),
        sequential_icount orig ~input:p.input )
    else (0, 0)
  in
  { prog = p; orig; reference = r; code; digest = d; commits; icount }

(* Set-up builds what the timed operations take as given: the sequential
   reference of every program, and for the paper workloads the compiled
   artifacts (plus, for execute_paper15, the simulated commit counts and
   instruction counts). *)
let setup () =
  let programs, need_ref, need_compile, need_sim =
    match !workload with
    | "compile_paper15" -> (paper_programs (), false, true, false)
    | "simulate_paper15" -> (paper_programs (), true, true, false)
    | "execute_paper15" -> (paper_programs (), true, true, true)
    | _ -> (proggen_programs (), true, false, false)
  in
  interleave_kernel ~domains:1 0
    (fun p ->
      let a = ref None in
      attempt p "set-up" (fun () ->
          a := Some (setup_program ~need_ref ~need_compile ~need_sim p));
      !a)
    programs
  |> List.filter_map Fun.id

(* One workload operation on one program, with its checks.  Adds the
   per-program latency of the operation to the per-pass sums under "op". *)
let operate pass (a : artifact) =
  let p = a.prog in
  let op dt =
    add_time pass p.id "op" dt;
    if not !Trace.on then op_ms := (pass, dt *. 1000.0) :: !op_ms
  in
  match !workload with
  | "compile_paper15" ->
    attempt p "compile" (fun () ->
        let _, dt =
          program_span p (fun () ->
              ignore (compile pass p ~expected_digest:(Some a.digest)))
        in
        op dt)
  | "simulate_paper15" ->
    attempt p "simulate" (fun () ->
        let _, dt =
          program_span p (fun () ->
              simulate pass p ~orig:a.orig ~code:a.code a.reference)
        in
        op dt)
  | "execute_paper15" ->
    attempt p "execute" (fun () ->
        let specrt_s, dt =
          program_span p (fun () ->
              execute pass p ~code:a.code ~commits:a.commits a.reference)
        in
        op dt;
        run_baseline pass p ~orig:a.orig ~icount:a.icount ~specrt_s a.reference)
  | _ ->
    attempt p "flow" (fun () ->
        let (code, icount, specrt_s), dt =
          program_span p (fun () ->
              let b = compile pass p ~expected_digest:None in
              let commits, icount =
                simulate pass p ~orig:a.orig ~code:b.b_code a.reference
              in
              let s =
                execute pass p ~code:b.b_code ~commits a.reference
              in
              (b.b_code, icount, s))
        in
        op dt;
        if !Trace.on then Hashtbl.replace flow_code p.id code;
        run_baseline pass p ~orig:a.orig ~icount ~specrt_s a.reference);
  sample_heap ()

let cpu_time () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* Closed loop: passes over the programs, each in a seed-and-pass
   permuted order, until [budget] seconds have passed (at least [min]
   passes, so the exact-count check always compares two).  Returns the
   pass numbers run. *)
let run_passes ~first ~budget ~min artifacts =
  let t0 = now () in
  let rec go pass acc =
    if List.length acc >= min && now () -. t0 >= budget then List.rev acc
    else begin
      Trace.pass := pass;
      let c0 = cpu_time () in
      let domains = if !workload = "execute_paper15" then domains else 1 in
      ignore
        (interleave_kernel ~domains pass (operate pass) (permute ~pass artifacts));
      add pass "cpu" (cpu_time () -. c0);
      Printf.printf
        "pass %d: %.4f s of operations, %.4f s process CPU, kernel %.4f s\n%!"
        pass (get pass "op") (get pass "cpu") (kernel_s pass);
      go (pass + 1) (pass :: acc)
    end
  in
  go first []

(* Traced run only: the oracle engine, the encoder and serial Specrt on
   every compiled program, once, outside the timed passes. *)
let probe pass artifacts =
  Trace.pass := pass;
  List.iter
    (fun (a : artifact) ->
      let p = a.prog in
      Trace.prog := p.id;
      let code =
        Option.value ~default:a.code (Hashtbl.find_opt flow_code p.id)
      in
      if simulates () then begin
        attempt p "encode" (fun () ->
            ignore (call "tls.encode" (fun () -> Tls.Icode.of_code code)));
        attempt p "sim_ref" (fun () ->
            let r, _ =
              call "tls.ref" (fun () ->
                  Tls.Sim.run
                    { cfg with engine = Tls.Config.Engine_ref }
                    code ~input:p.input ())
            in
            same "sim_ref" a.reference r.output r.final_memory)
      end;
      if executes () then
        attempt p "specrt_serial" (fun () ->
            let x, _ =
              call "specrt.serial" (fun () ->
                  Specrt.run ~opts:(specrt_opts 1) cfg code ~input:p.input)
            in
            same "specrt_serial" a.reference x.r_output x.r_final_memory))
    artifacts

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let pass_median passes name = median (List.map (fun p -> get p name) passes)

let geomean_median passes name =
  median (List.map (fun p -> pass_geomean p name) passes)

(* A pass-level timing line: the calibrated typical pass, the raw one,
   and the spread of the raw pass sums. *)
let print_pass_timing name passes key =
  let sums = List.map (fun p -> get p key) passes in
  Printf.printf
    "metric %-18s %12.4f s        calibrated sum of per-program medians over \
     %d passes (raw %.4f; raw pass sums: median %.4f, min %.4f, max %.4f)\n"
    name
    (typical ~scale:calibration passes key)
    (List.length passes) (typical passes key) (median sums)
    (List.fold_left Float.min infinity sums)
    (List.fold_left Float.max 0.0 sums)

let print_value name unit value note =
  Printf.printf "metric %-18s %12.4f %-8s %s\n" name value unit note

(* End-to-end metrics of the untraced passes, in BENCHMARK.json order;
   the workload's own names for [pass_s] and its parts are printed too.
   [setups] are (calibration, raw seconds, kernel seconds) triples. *)
let end_to_end ~setups passes =
  let raw_ms = List.map snd !op_ms in
  let cal_ms = List.map (fun (p, ms) -> ms *. calibration p) !op_ms in
  let setup_raw = List.map (fun (_, t, _) -> t) setups in
  let setup_cal = List.map (fun (c, t, _) -> c *. t) setups in
  let kernels = List.map kernel_s passes in
  let mem_mb =
    float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  print_value "kernel_s" "s" (median kernels)
    (Printf.sprintf
       "median calibration kernel time of %d passes (min %.4f, max %.4f; \
        reference %.4f)"
       (List.length kernels)
       (List.fold_left Float.min infinity kernels)
       (List.fold_left Float.max 0.0 kernels)
       (snd (Hashtbl.find pass_kernel (List.hd passes))));
  print_value "setup_s" "s" (median setup_cal)
    (Printf.sprintf "calibrated median of %d set-ups (raw %.4f)"
       (List.length setups) (median setup_raw));
  if compiles () then print_pass_timing "compile_s" passes "compile";
  if simulates () then begin
    let sim_s = typical passes "sim" in
    print_pass_timing "sim_s" passes "sim";
    print_value "sim_minstr_per_s" "Minstr/s"
      (ratio (2.0 *. pass_median passes "tls.sq_instrs") sim_s /. 1e6)
      "2 x sequential instructions per raw second of sim_s";
    print_value "sim_speedup" "x"
      (geomean_median passes "sim_speedup")
      "geomean of sq_cycles / total_cycles (exact)"
  end;
  if executes () then begin
    print_pass_timing "exec_s" passes "specrt";
    print_value "exec_speedup" "x"
      (geomean_median passes "exec_speedup")
      (Printf.sprintf
         "median over passes of the geomean of run_sequential wall / \
          Specrt.run wall at %d domains"
         domains)
  end;
  let op_name = if !workload = "proggen_flow" then "flow_ms" else "op_ms" in
  let n = List.length cal_ms in
  print_value (op_name ^ "_p50") "ms" (median cal_ms)
    (Printf.sprintf "calibrated median of %d per-program operations (raw %.4f)"
       n (median raw_ms));
  (match tail_percentile n with
   | Some q ->
     print_value (op_name ^ "_tail") "ms"
       (quantile (q /. 100.0) cal_ms)
       (Printf.sprintf "calibrated p%g of %d per-program operations (raw %.4f)"
          q n
          (quantile (q /. 100.0) raw_ms))
   | None ->
     print_value (op_name ^ "_tail") "ms" 0.0
       (Printf.sprintf "none: %d operations leave no ten beyond p50" n));
  print_pass_timing "pass_s" passes "op";
  if !workload <> "proggen_flow" then
    Hashtbl.fold
      (fun (n, id) samples acc -> if n = "op" then (id, samples) :: acc else acc)
      prog_samples []
    |> List.sort compare
    |> List.iter (fun (id, samples) ->
           let ms =
             List.filter_map
               (fun (p, v) -> if List.mem p passes then Some (v *. 1000.0) else None)
               samples
           in
           Printf.printf "program %-14s %10.3f ms raw median of %d operations\n"
             id (median ms) (List.length ms));
  print_value "pass_cpu_s" "s"
    (median
       (List.map (fun p -> get p "cpu" -. kernel_s p) passes))
    "median process CPU time per pass less its kernel slices (pass wall \
     minus this is time not running)";
  print_value "peak_mem_mb" "MB" mem_mb "peak major heap in the timed passes";
  print_value "failed_frac" "frac"
    (ratio (float_of_int !failed) (float_of_int !attempted))
    (Printf.sprintf "%d of %d operations" !failed !attempted);
  [
    ("setup_s", "s", median setup_cal);
    ("pass_s", "s", typical ~scale:calibration passes "op");
    ("op_ms_p50", "ms", median cal_ms);
    ("peak_mem_mb", "MB", mem_mb);
  ]

let layer_spans =
  [
    ("lang.check_ms", [ "lang.check" ]);
    ("ir.lower_ms", [ "ir.lower" ]);
    ("profiler.loop_ms", [ "profiler.loop" ]);
    ("profiler.dep_ms", [ "profiler.dep" ]);
    ( "tlscore.pass_ms",
      [
        "tlscore.select"; "tlscore.unroll"; "tlscore.regions"; "tlscore.memsync";
        "tlscore.verify";
      ] );
    ("analysis.lint_ms", [ "analysis.lint" ]);
    ("runtime.code_ms", [ "runtime.code" ]);
    ("runtime.seq_ms", [ "runtime.seq" ]);
    ("tls.sim_seq_ms", [ "tls.sim_seq" ]);
    ("tls.sim_tls_ms", [ "tls.sim_tls" ]);
    ("specrt.exec_ms", [ "specrt.exec" ]);
  ]

(* Per-layer metrics of the traced passes (medians over passes of
   per-pass sums), the probe pass, and the untraced passes of the same
   run for the tracing overhead. *)
let per_layer ~untraced ~traced ~probe_pass =
  let selfs = List.map (fun p -> (p, Trace.self_times p)) traced in
  let self_ms p names =
    let tbl, _ = List.assoc p selfs in
    1000.0
    *. List.fold_left
         (fun acc n -> acc +. Option.value ~default:0.0 (Hashtbl.find_opt tbl n))
         0.0 names
  in
  let layer names = median (List.map (fun p -> self_ms p names) traced) in
  (* Counts of artifacts built in set-up (pass 0) when the timed passes do
     not rebuild them. *)
  let count name =
    let v = pass_median traced name in
    if v = 0.0 then get 0 name else v
  in
  let probe_tbl, _ = Trace.self_times probe_pass in
  let probe_ms names =
    1000.0
    *. List.fold_left
         (fun acc n ->
           acc +. Option.value ~default:0.0 (Hashtbl.find_opt probe_tbl n))
         0.0 names
  in
  let times = List.map (fun (m, names) -> (m, layer names)) layer_spans in
  let t m = List.assoc m times in
  let slots n = ratio (count n) (count "tls.slot_total") in
  let commits = count "specrt.commits" in
  let squashes = count "specrt.squashes" in
  let program_ms p = self_ms p [ "program" ] in
  (* Everything inside a per-program span that no layer span covers. *)
  let unattributed =
    median (List.map (fun p -> program_ms p +. self_ms p [ "compile" ]) traced)
  in
  (* Calibrated, as the host's speed may change between the two halves. *)
  let traced_ms = 1000.0 *. typical ~scale:calibration traced "op" in
  let untraced_ms = 1000.0 *. typical ~scale:calibration untraced "op" in
  let profiler_instrs = count "profiler.loop_instrs" +. count "profiler.dep_instrs" in
  times
  @ [
        ("ir.instrs_out", count "ir.instrs_out");
        ("profiler.instrs", profiler_instrs);
        ( "profiler.minstr_per_s",
          ratio profiler_instrs (t "profiler.loop_ms" +. t "profiler.dep_ms")
          /. 1e3 );
        ("profiler.minor_mwords", count "profiler.minor_words" /. 1e6);
        ("tlscore.sync_ops", count "tlscore.sync_ops");
        ("analysis.lint_findings", count "analysis.lint_findings");
        ( "runtime.minstr_per_s",
          ratio (count "runtime.icount") (t "runtime.seq_ms") /. 1e3 );
        ("tls.encode_ms", probe_ms [ "tls.encode" ]);
        ("tls.minor_mwords", count "tls.minor_words" /. 1e6);
        ("tls.ref_ms", probe_ms [ "tls.ref" ]);
        ("tls.event_vs_ref", ratio (probe_ms [ "tls.ref" ]) (t "tls.sim_tls_ms"));
        ("tls.cycles_seq", count "tls.cycles_seq");
        ("tls.cycles_tls", count "tls.cycles_tls");
        ("tls.epochs_committed", count "tls.epochs_committed");
        ("tls.epochs_squashed", count "tls.epochs_squashed");
        ("tls.violations", count "tls.violations");
        ("tls.slot_busy", slots "tls.slot_busy");
        ("tls.slot_sync", slots "tls.slot_sync");
        ("tls.slot_fail", slots "tls.slot_fail");
        ("tls.slot_other", slots "tls.slot_other");
        ("tls.sim_speedup", geomean_median traced "sim_speedup");
        ("specrt.serial_ms", probe_ms [ "specrt.serial" ]);
        ("specrt.commits", commits);
        ("specrt.squashes", squashes);
        ("specrt.violations", count "specrt.violations");
        ("specrt.useful_frac", ratio commits (commits +. squashes));
        ("specrt.epoch_us", ratio (t "specrt.exec_ms" *. 1000.0) commits);
        ("specrt.exec_speedup", geomean_median traced "exec_speedup");
        ("specrt.domains", float_of_int domains);
        ("trace.untraced_pass_ms", untraced_ms);
        ("trace.traced_pass_ms", traced_ms);
        ("trace.overhead_ms", traced_ms -. untraced_ms);
        ("trace.overhead_frac", ratio (traced_ms -. untraced_ms) untraced_ms);
        ("trace.unattributed_ms", unattributed);
        ( "trace.spans",
          median
            (List.map (fun p -> float_of_int (snd (List.assoc p selfs))) traced)
        );
      ]

let ends_with suffix s = String.ends_with ~suffix s

let unit_of name =
  if ends_with "_ms" name then "ms"
  else if ends_with "_us" name then "us"
  else if ends_with "minstr_per_s" name then "Minstr/s"
  else if ends_with "mwords" name then "Mwords"
  else if ends_with "_frac" name || String.starts_with ~prefix:"tls.slot_" name
  then "frac"
  else if ends_with "speedup" name || ends_with "_vs_ref" name then "x"
  else "count"

(* Whether the timed passes of the workload call into the layer a
   per-layer metric belongs to; the others report 0 or set-up counts. *)
let exercised name =
  let layers =
    match !workload with
    | "compile_paper15" ->
      [ "lang."; "ir."; "profiler."; "tlscore."; "analysis."; "runtime.code" ]
    | "simulate_paper15" -> [ "tls." ]
    | "execute_paper15" -> [ "specrt."; "runtime.seq"; "runtime.minstr" ]
    | _ -> [ "" ]
  in
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    ("trace." :: layers)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let print_json metrics ~correct =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " m)

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "mrvbench: unknown workload %S (one of %s)\n" !workload
      (String.concat ", " workloads);
    exit 2
  end;
  let traced_run = !trace = 1 in
  mkdir_p !state_dir;
  Printf.printf
    "mrvbench workload=%s seed=%d seconds=%g trace=%d domains=%d (min of \
     C-mode processors %d and nproc %d)\n\
     %!"
    !workload !seed !seconds !trace domains cfg.num_procs
    (Domain.recommended_domain_count ());
  (* Set-up, several times, keeping the last artifacts. *)
  let reps = if traced_run then 1 else max 1 !setup_reps in
  let artifacts = ref [] in
  let setups =
    List.init reps (fun _ ->
        artifacts := [];
        Gc.compact ();
        let t0 = now () in
        artifacts := setup ();
        let t = now () -. t0 -. kernel_s 0 in
        (calibration 0, t, kernel_s 0))
  in
  let artifacts = !artifacts in
  Printf.printf "programs=%d\n%!" (List.length artifacts);
  Gc.compact ();
  peak_heap_words := 0;
  sample_heap ();
  tamper_pending := !inject_mismatch;
  let budget = if traced_run then !seconds /. 2.0 else !seconds in
  let untraced = run_passes ~first:1 ~budget ~min:2 artifacts in
  let e2e = end_to_end ~setups untraced in
  let metrics =
    if not traced_run then e2e
    else begin
      let next = List.length untraced + 1 in
      Gc.compact ();
      Trace.on := true;
      let traced = run_passes ~first:next ~budget ~min:2 artifacts in
      let probe_pass = next + List.length traced in
      probe probe_pass artifacts;
      Trace.on := false;
      let path =
        Filename.concat !state_dir
          (Printf.sprintf "trace-%s-seed%d.jsonl" !workload !seed)
      in
      Trace.write path;
      Printf.printf "trace: %d spans written to %s\n" (List.length !Trace.spans)
        path;
      let layer = per_layer ~untraced ~traced ~probe_pass in
      List.iter
        (fun (n, v) ->
          Printf.printf "layer  %-24s %16.4f %s%s\n" n v (unit_of n)
            (if exercised n then "" else "  (layer not run by this workload)"))
        layer;
      List.map (fun (n, v) -> (n, unit_of n, v)) layer
    end
  in
  if !inject_mismatch = false && !perturb = "" && !drift = [] then
    check_counts_across_runs ();
  List.iter (Printf.printf "FAILED %s\n") (List.rev !failures);
  List.iter (Printf.printf "COUNT DRIFT %s\n") (List.rev !drift);
  Printf.printf "exact counts: %d checked, %s\n" (Hashtbl.length counts)
    (if !drift = [] then "no drift" else "DRIFT");
  let correct = !failed = 0 && !drift = [] in
  print_json metrics ~correct;
  exit (if correct then 0 else 1)
