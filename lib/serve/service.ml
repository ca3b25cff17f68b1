module Json = Harness.Json
module Jobs = Harness.Jobs
open Request

exception Transient of string

(* A fault (or fault/op combination) with no injection site here: the
   request resolves to a typed error the chaos harness reads as
   "skipped", never a silent no-op that would fake an Absorbed cell. *)
exception Inapplicable of string

type config = {
  sc_cache_dir : string option;
  sc_queue : int;
  sc_rate : int;
  sc_jobs : int;
  sc_deadline_s : float;
  sc_retries : int;
  sc_backoff_s : float;
  sc_timing : bool;
}

let default_config =
  {
    sc_cache_dir = Some "_mrvcc_cache";
    sc_queue = 8;
    sc_rate = 2;
    sc_jobs = 2;
    sc_deadline_s = 10.0;
    sc_retries = 1;
    sc_backoff_s = 0.0;
    sc_timing = true;
  }

type stats = {
  st_requests : int;
  st_ok : int;
  st_degraded : int;
  st_shed : int;
  st_deadline : int;
  st_error : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_cache_stale : int;
  st_quarantined : string list;
  st_cache : Cache.stats option;
}

type outcome = { so_responses : response list; so_stats : stats }

(* ------------------------------------------------------------------ *)
(* Request resolution and content addressing                           *)
(* ------------------------------------------------------------------ *)

let resolve rq =
  match (rq.rq_bench, rq.rq_source) with
  | Some name, _ -> begin
    match Workloads.Registry.find name with
    | Some w ->
      let input =
        match rq.rq_input with
        | Some xs -> Array.of_list xs
        | None -> w.Workloads.Workload.ref_input
      in
      Ok (w.Workloads.Workload.source, input)
    | None ->
      Error
        (Printf.sprintf "unknown benchmark %S (have: %s)" name
           (String.concat ", " Workloads.Registry.names))
  end
  | None, Some source ->
    Ok (source, Array.of_list (Option.value rq.rq_input ~default:[]))
  | None, None -> Error "need a \"bench\" or \"source\""

let key_parts ~fault rq ~source ~input =
  [
    "op=" ^ op_name rq.rq_op;
    "src=" ^ source;
    "input=" ^ String.concat "," (List.map string_of_int (Array.to_list input));
    "mode=" ^ rq.rq_mode;
    Printf.sprintf "threshold=%.6f" rq.rq_threshold;
    "sync_sched=" ^ string_of_bool rq.rq_sync_sched;
    "fault=" ^ fault;
  ]

let exact_key rq ~source ~input =
  Cache.fingerprint
    (key_parts ~fault:(Option.value rq.rq_fault ~default:"") rq ~source ~input)

(* Last-known-good key: the same artifact identity with the fault
   dimension erased, so a faulty request can fall back to the artifact a
   healthy run of the same program/config stored. *)
let lkg_key rq ~source ~input = Cache.fingerprint (key_parts ~fault:"" rq ~source ~input)

(* ------------------------------------------------------------------ *)
(* The computation behind one request                                  *)
(* ------------------------------------------------------------------ *)

let config_of_mode = function
  | "U" -> Tls.Config.u_mode
  | "C" -> Tls.Config.c_mode
  | "H" -> Tls.Config.h_mode
  | "P" -> Tls.Config.p_mode
  | _ -> Tls.Config.b_mode

type injected =
  | No_inj
  | Serve_inj of Faults.Servefault.kind
  | Plan_inj of Faults.Fault.plan

let injection rq =
  match rq.rq_fault with
  | None -> No_inj
  | Some name -> (
    match Faults.Servefault.find name with
    | Some s -> Serve_inj s.Faults.Servefault.sf_kind
    | None -> (
      match Faults.Fault.find name with
      | Some s -> Plan_inj s.Faults.Fault.plan
      | None -> No_inj (* parse validated the name; unreachable *)))

let num n = Json.Jnum (float_of_int n)

let compile_artifact rq ~source ~profile_input ~dep_input ?profile_fault () =
  let memory_sync =
    match rq.rq_mode with
    | "U" | "H" | "P" -> Tlscore.Pipeline.No_memory_sync
    | _ ->
      Tlscore.Pipeline.Profiled { dep_input; threshold = rq.rq_threshold }
  in
  Tlscore.Pipeline.compile ?profile_fault ~sync_sched:rq.rq_sync_sched ~source
    ~profile_input ~memory_sync ()

(* Run the request's op, with any PR2 fault plan applied at the layer it
   targets (profile distortion at compile time, IR mutation on the
   transformed program, machine fault in the simulator config).  Raises
   the typed frontend/simulator exceptions, {!Transient} (injected), or
   {!Inapplicable}. *)
let compute rq ~source ~input ~plan =
  let profile_input, run_input =
    match plan with
    | Some Faults.Fault.Stale_train -> (
      (* The stale-profile fault needs two distinct inputs: profile on the
         benchmark's train input, run on the requested (ref) input. *)
      match Option.map Workloads.Registry.find rq.rq_bench with
      | Some (Some w) -> (w.Workloads.Workload.train_input, input)
      | _ -> raise (Inapplicable "stale-train needs a bundled benchmark"))
    | _ -> (input, input)
  in
  let profile_fault =
    match plan with
    | Some (Faults.Fault.Profile_fault pf) ->
      Some (Faults.Proffault.apply pf)
    | _ -> None
  in
  let compiled =
    compile_artifact rq ~source ~profile_input ~dep_input:profile_input
      ?profile_fault ()
  in
  let digest = Tlscore.Pipeline.artifact_digest compiled in
  match rq.rq_op with
  | Compile ->
    (match plan with
    | Some (Faults.Fault.Ir_fault _ | Faults.Fault.Sim_fault _) ->
      raise (Inapplicable "simulator-layer fault on a compile-only op")
    | _ -> ());
    Json.Jobj
      [
        ("digest", Json.Jstr digest);
        ("regions", num (List.length compiled.Tlscore.Pipeline.selected));
        ( "lint_findings",
          num (List.length compiled.Tlscore.Pipeline.lint_findings) );
      ]
  | Profile ->
    (match plan with
    | Some (Faults.Fault.Ir_fault _ | Faults.Fault.Sim_fault _) ->
      raise (Inapplicable "simulator-layer fault on a profile-only op")
    | _ -> ());
    Json.Jobj
      [
        ("digest", Json.Jstr digest);
        ("selected", num (List.length compiled.Tlscore.Pipeline.selected));
        ( "dep_profiles",
          num (List.length compiled.Tlscore.Pipeline.dep_profiles) );
      ]
  | Simulate ->
    let code =
      match plan with
      | Some (Faults.Fault.Ir_fault kind) -> (
        match Faults.Irfault.apply kind compiled.Tlscore.Pipeline.prog with
        | None ->
          raise (Inapplicable "IR mutation has no applicable site here")
        | Some a -> Runtime.Code.of_prog a.Faults.Irfault.prog)
      | _ -> compiled.Tlscore.Pipeline.code
    in
    let cfg = config_of_mode rq.rq_mode in
    let cfg =
      match plan with
      | Some (Faults.Fault.Sim_fault f) ->
        { cfg with Tls.Config.sim_faults = [ f ] }
      | _ -> cfg
    in
    let r = Tls.Sim.run cfg code ~input:run_input () in
    let reference = Tlscore.Pipeline.original ~source in
    let seq =
      Tls.Sim.run_sequential cfg
        (Runtime.Code.of_prog reference)
        ~input:run_input
        ~track:compiled.Tlscore.Pipeline.code.Runtime.Code.regions
    in
    Json.Jobj
      [
        ("digest", Json.Jstr digest);
        ("mode", Json.Jstr rq.rq_mode);
        ("seq_cycles", num seq.Tls.Simstats.sq_cycles);
        ("tls_cycles", num r.Tls.Simstats.total_cycles);
        ("epochs_committed", num r.Tls.Simstats.epochs_committed);
        ("epochs_squashed", num r.Tls.Simstats.epochs_squashed);
        ("violations", num r.Tls.Simstats.violations);
        ("faults_fired", num r.Tls.Simstats.faults_fired);
        ( "output_match",
          Json.Jbool (r.Tls.Simstats.output = seq.Tls.Simstats.sq_output) );
        ("output", Json.Jarr (List.map num r.Tls.Simstats.output));
      ]

(* ------------------------------------------------------------------ *)
(* Error classification                                                *)
(* ------------------------------------------------------------------ *)

let classify = function
  | Inapplicable msg -> ("fault-inapplicable", msg)
  | Transient msg -> ("transient", msg)
  | Tls.Sim.Deadlock msg -> ("deadlock", "deadlock: " ^ msg)
  | Tls.Sim.Stuck d -> ("stuck", Tls.Sim.describe_stuck d)
  | Tls.Sim.Cycle_limit { max_cycles; cycle; where } ->
    ( "cycle-limit",
      Printf.sprintf "cycle budget exhausted: %s hit %d cycles (limit %d)"
        where cycle max_cycles )
  | Tls.Sim.Resource_deadlock d ->
    ("resource-deadlock", Tls.Sim.describe_resource_deadlock d)
  | Runtime.Thread.Step_limit { max_steps; icount }
  | Profiler.Runner.Step_limit { max_steps; icount } ->
    ( "step-limit",
      Printf.sprintf "step budget exhausted: %d instructions (limit %d)"
        icount max_steps )
  | Runtime.Thread.Unexpected_stop { reason; icount } ->
    ( "malformed-sequential",
      Printf.sprintf "sequential thread %s after %d instructions" reason
        icount )
  | Lang.Lexer.Error (msg, pos) ->
    ( "frontend",
      Printf.sprintf "lex error at %d:%d: %s" pos.Lang.Token.line
        pos.Lang.Token.col msg )
  | Lang.Parser.Error (msg, pos) ->
    ( "frontend",
      Printf.sprintf "parse error at %d:%d: %s" pos.Lang.Token.line
        pos.Lang.Token.col msg )
  | Lang.Sema.Error (msg, pos) ->
    ( "frontend",
      Printf.sprintf "type error at %d:%d: %s" pos.Lang.Token.line
        pos.Lang.Token.col msg )
  | e -> ("internal", Printexc.to_string e)

let retryable = function Transient _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* One request, end to end                                             *)
(* ------------------------------------------------------------------ *)

let process ~sleep cfg cache rq =
  let started = Unix.gettimeofday () in
  let finish status disp attempts payload =
    let wall_ns =
      if cfg.sc_timing then
        Some
          (int_of_float ((Unix.gettimeofday () -. started) *. 1e9)
          |> max 0)
      else None
    in
    {
      rs_id = rq.rq_id;
      rs_status = status;
      rs_cache = disp;
      rs_attempts = attempts;
      rs_wall_ns = wall_ns;
      rs_payload = payload;
    }
  in
  let fail status attempts err_class err_msg =
    finish status Cnone attempts (Failure { err_class; err_msg })
  in
  match resolve rq with
  | Error msg -> fail Serror 0 "bad-request" msg
  | Ok (source, input) -> (
    let inj = injection rq in
    let plan = match inj with Plan_inj p -> Some p | _ -> None in
    let ekey = exact_key rq ~source ~input in
    let lkg = lkg_key rq ~source ~input in
    let cached =
      match (cache, inj) with
      | Some c, No_inj -> Cache.find c ~key:ekey
      | _ -> None
    in
    let from_payload status disp attempts payload =
      match Json.parse_result payload with
      | Ok j -> Some (finish status disp attempts (Result j))
      | Error _ -> None (* digest-validated, so effectively unreachable *)
    in
    let degraded attempts last_msg =
      let stale =
        match (cache, inj) with
        | Some c, Serve_inj _ -> Cache.find c ~key:lkg
        | _ -> None
      in
      match Option.bind stale (from_payload Sdegraded Cstale attempts) with
      | Some r -> r
      | None -> fail Serror attempts "transient" last_msg
    in
    match Option.bind cached (from_payload Sok Chit 0) with
    | Some r -> r
    | None ->
      let deadline = Option.value rq.rq_deadline_s ~default:cfg.sc_deadline_s in
      let attempt_body ~k ~timeout_s () =
        (match inj with
        | Serve_inj Faults.Servefault.Slow_job ->
          (* Real time, on purpose: the deadline is wall-clock. *)
          Unix.sleepf (timeout_s *. 2.0)
        | Serve_inj Faults.Servefault.Transient_io when k = 0 ->
          raise (Transient "injected transient I/O fault (attempt 1)")
        | Serve_inj Faults.Servefault.Always_transient ->
          raise (Transient "injected persistent transient fault")
        | Serve_inj (Faults.Servefault.Cache_corrupt | Faults.Servefault.Burst)
          ->
          raise (Inapplicable "harness-level fault named in a request")
        | _ -> ());
        compute rq ~source ~input ~plan
      in
      let plan_attempts =
        Jobs.attempt_plan ~timeout_s:deadline ~backoff_s:cfg.sc_backoff_s
          ~retries:cfg.sc_retries
      in
      let rec go k = function
        | [] -> assert false (* attempt_plan is never empty *)
        | (a : Jobs.attempt) :: rest -> (
          if a.Jobs.at_backoff_s > 0.0 then sleep a.Jobs.at_backoff_s;
          match
            Jobs.with_deadline ~timeout_s:a.Jobs.at_timeout_s
              (attempt_body ~k ~timeout_s:a.Jobs.at_timeout_s)
              ()
          with
          | None ->
            if rest <> [] then go (k + 1) rest
            else
              fail Sdeadline (k + 1) "deadline"
                (Printf.sprintf
                   "deadline exceeded: %d attempt(s), last under %.3fs"
                   (k + 1) a.Jobs.at_timeout_s)
          | Some (Ok result) ->
            let disp =
              match (cache, inj) with
              | Some c, No_inj ->
                Cache.store c ~key:ekey (Json.to_string result);
                Cmiss
              | _ -> Cnone (* fault-injected artifacts are never cached *)
            in
            finish Sok disp (k + 1) (Result result)
          | Some (Error (e, _)) when retryable e ->
            if rest <> [] then go (k + 1) rest
            else degraded (k + 1) (snd (classify e))
          | Some (Error (e, _)) ->
            let err_class, err_msg = classify e in
            fail Serror (k + 1) err_class err_msg)
      in
      go 0 plan_attempts)

let process ~sleep cfg cache rq =
  try process ~sleep cfg cache rq
  with e ->
    {
      rs_id = rq.rq_id;
      rs_status = Serror;
      rs_cache = Cnone;
      rs_attempts = 0;
      rs_wall_ns = None;
      rs_payload =
        Failure { err_class = "internal"; err_msg = Printexc.to_string e };
    }

(* ------------------------------------------------------------------ *)
(* Tick scheduler: bounded admission, rate-limited dispatch            *)
(* ------------------------------------------------------------------ *)

let validate cfg =
  let bad msg = invalid_arg ("Serve.Service.run: " ^ msg) in
  if cfg.sc_queue < 1 then bad "queue capacity must be >= 1";
  if cfg.sc_rate < 1 then bad "rate must be >= 1";
  if cfg.sc_jobs < 1 then bad "jobs must be >= 1";
  if cfg.sc_deadline_s <= 0.0 then bad "deadline must be positive";
  if cfg.sc_retries < 0 then bad "retries must be non-negative";
  if cfg.sc_backoff_s < 0.0 then bad "backoff must be non-negative"

let run ?(sleep = Unix.sleepf) cfg requests =
  validate cfg;
  let cache, quarantined =
    match cfg.sc_cache_dir with
    | None -> (None, [])
    | Some dir ->
      let c, q = Cache.open_dir ~dir in
      (Some c, q)
  in
  let n = List.length requests in
  let responses = Array.make n None in
  let items = List.mapi (fun i r -> (i, r)) requests in
  let tick_of (i, r) = Option.value r.rq_tick ~default:i in
  let ticks =
    List.sort_uniq compare (List.map tick_of items)
  in
  let arrivals t = List.filter (fun it -> tick_of it = t) items in
  let queue = Queue.create () in
  let pool = Jobs.create ~jobs:cfg.sc_jobs () in
  let dispatch batch =
    pool.Jobs.map
      (fun (i, rq) -> (i, process ~sleep cfg cache rq))
      batch
    |> List.iter (fun (i, r) -> responses.(i) <- Some r)
  in
  let drain_step () =
    let batch = ref [] in
    let take = min cfg.sc_rate (Queue.length queue) in
    for _ = 1 to take do
      batch := Queue.pop queue :: !batch
    done;
    dispatch (List.rev !batch)
  in
  let rec drain_steps k =
    if k > 0 && not (Queue.is_empty queue) then begin
      drain_step ();
      drain_steps (k - 1)
    end
  in
  let rec loop = function
    | [] -> ()
    | t :: rest ->
      List.iter
        (fun (i, rq) ->
          if Queue.length queue < cfg.sc_queue then Queue.push (i, rq) queue
          else
            (* Bounded admission: overflow is shed with a typed response,
               never queued unboundedly and never dropped silently. *)
            responses.(i) <-
              Some
                {
                  rs_id = rq.rq_id;
                  rs_status = Sshed;
                  rs_cache = Cnone;
                  rs_attempts = 0;
                  rs_wall_ns = None;
                  rs_payload =
                    Failure
                      {
                        err_class = "shed";
                        err_msg =
                          Printf.sprintf
                            "admission queue full (capacity %d) at tick %d"
                            cfg.sc_queue t;
                      };
                })
        (arrivals t);
      (match rest with
      | next :: _ -> drain_steps (next - t)
      | [] -> ());
      loop rest
  in
  loop ticks;
  while not (Queue.is_empty queue) do
    drain_step ()
  done;
  let so_responses =
    Array.to_list responses
    |> List.map (function
         | Some r -> r
         | None -> assert false (* every request was shed or dispatched *))
  in
  let count p = List.length (List.filter p so_responses) in
  let so_stats =
    {
      st_requests = n;
      st_ok = count (fun r -> r.rs_status = Sok);
      st_degraded = count (fun r -> r.rs_status = Sdegraded);
      st_shed = count (fun r -> r.rs_status = Sshed);
      st_deadline = count (fun r -> r.rs_status = Sdeadline);
      st_error = count (fun r -> r.rs_status = Serror);
      st_cache_hits = count (fun r -> r.rs_cache = Chit);
      st_cache_misses = count (fun r -> r.rs_cache = Cmiss);
      st_cache_stale = count (fun r -> r.rs_cache = Cstale);
      st_quarantined = quarantined;
      st_cache = Option.map Cache.stats cache;
    }
  in
  { so_responses; so_stats }

let exit_code st =
  if st.st_error > 0 then 1
  else if st.st_shed > 0 then 8
  else if st.st_deadline > 0 then 9
  else 0
