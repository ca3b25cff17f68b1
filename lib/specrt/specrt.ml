(* Real speculative execution on OCaml 5 domains (DESIGN §16).

   Concurrency discipline, in one paragraph: one mutex [m] guards every
   piece of cross-epoch shared state (committed memory reads/drains,
   forwarding cells, the epoch registry, the event log); per-epoch
   buffers are touched only by the owning worker, and all cross-domain
   flags (squash requests, the homefree token, instance end, stuck/stop)
   are Atomics polled in bounded loops.  There are no condition
   variables anywhere — every block is a poll loop that spins with
   [Domain.cpu_relax] for a bounded number of polls (when the workers
   fit on the cores), then sleeps 100 µs per poll, and checks squash/end/stop/stuck on every poll and the
   wall clock every 256 — so the runtime cannot hang on a lost wakeup
   by construction; the wall-clock watchdog covers the rest.

   Execution engines: the sequential phase (everything outside region
   instances) runs on the calling domain over flat [Runtime.Icode],
   allocation-free, straight against committed memory, with sync
   instructions transparent; its frames carry icode offsets in [pc]
   and leave [block] unused.  Epochs run on the boxed [Runtime.Thread] stepper with hooks, from a
   copy of the sequential frame whose [pc] is reset to the header's
   boxed index 0.

   Correctness authority: the epoch holding the homefree token
   re-validates its exposed reads (first-observed values) and consumed
   channel payloads against committed state under [m].  A mismatch is a
   violation: cascade-squash younger epochs and re-run this epoch as the
   oldest, where committed memory is frozen (only the token holder
   commits) and channels resolve from the predecessor's committed
   snapshot — that re-run cannot fail, which proves termination and
   sequential equivalence whatever the interleaving did.  The eager
   commit-time conflict scan at cache-line granularity (false sharing
   included) only accelerates the inevitable squash. *)

module Int_set = Set.Make (Int)

type payload = P_scalar of int | P_mem of int * int

type fault =
  | Delay_commit of { epoch : int; ms : int }
  | Yield_steps of { epoch : int; every : int }
  | Drop_wakeup of { epoch : int; channel : int }
  | Crash_epoch of { epoch : int; persistent : bool }

type event_kind =
  | Ev_commit
  | Ev_violation of string
  | Ev_squash of string
  | Ev_signal of int

type event = {
  ev_seq : int;
  ev_instance : int;
  ev_index : int;
  ev_attempt : int;
  ev_kind : event_kind;
}

exception Specrt_stuck of { watchdog_ms : int; detail : string }

exception Abort_exhausted of { instance : int; index : int; aborts : int;
                               max_aborts : int }

exception Exec_deadlock of string

(* Worker-local control flow; never escapes the library. *)
exception Squash_attempt of string
exception Crash_injected
exception Abandon

type opts = {
  domains : int;
  watchdog_ms : int;
  max_aborts : int;
  perturb_seed : int option;
  faults : fault list;
  replay : event list option;
}

let default_opts (cfg : Tls.Config.t) =
  {
    domains = max 1 cfg.Tls.Config.num_procs;
    watchdog_ms = 10_000;
    max_aborts = 64;
    perturb_seed = None;
    faults = [];
    replay = None;
  }

type result = {
  r_output : int list;
  r_final_memory : Runtime.Memory.t;
  r_epochs_committed : int;
  r_epochs_squashed : int;
  r_violations : int;
  r_region_instances : (int * int) list;
  r_domains : int;
  r_events : event list;
}

type estatus = Running | Done | Committed | Discarded

type exitkind = Exit_back | Exit_out of Ir.Instr.label | Exit_return of int option

type ep = {
  e_index : int;
  e_thread : Runtime.Thread.t;           (* reset per attempt *)
  mutable e_status : estatus;            (* under [m] *)
  mutable e_exitk : exitkind option;     (* owner only *)
  e_writes : (int, int) Hashtbl.t;       (* speculative write buffer *)
  e_read_log : (int, int) Hashtbl.t;     (* addr -> first exposed value *)
  e_read_keys : (int, unit) Hashtbl.t;   (* line-granularity read set *)
  e_consumed : (int, payload) Hashtbl.t; (* channel -> consumed payload *)
  e_sent : (int, payload) Hashtbl.t;     (* forwarding cells; under [m] *)
  e_sig_buffer : (int, int) Hashtbl.t;   (* channel -> forwarded addr *)
  e_squash : (string * bool) option Atomic.t;
      (* squash request: reason, and whether the consumer should report
         it as a violation (a stale read / stale forwarded value caught
         by eager detection) rather than a plain rollback.  The event is
         emitted when the flag is *consumed*, so the violation and its
         squash always carry the same attempt number — which is what
         lets a replay force both at the right point. *)
  mutable e_attempt : int;               (* 1-based *)
  mutable e_aborts : int;
  mutable e_hold : bool;                 (* retry only as the oldest *)
  mutable e_steps : int;
}

type inst = {
  i_gen : int;
  i_no : int;                            (* global activation number *)
  i_region : Ir.Region.t;
  i_base : Runtime.Thread.frame;         (* immutable after publication *)
  i_blocks : Int_set.t;
  i_channels : Int_set.t;
  i_entry_sent : (int, payload) Hashtbl.t;
  i_epochs : (int, ep) Hashtbl.t;        (* under [m] *)
  i_committed_sent : (int * int, payload) Hashtbl.t;  (* (epoch, ch) *)
  i_oldest : int Atomic.t;               (* the homefree token *)
  i_ended : bool Atomic.t;
  mutable i_winner : ep option;          (* under [m] *)
}

type t = {
  cfg : Tls.Config.t;
  o : opts;
  code : Runtime.Code.t;
  ic : Runtime.Icode.prog;               (* the sequential phase's code *)
  heads : Ir.Region.t option array array;
      (* cf_id -> label -> the region headed there (first in program
         order wins) *)
  seq_cap : int;                         (* sequential-phase step cap *)
  spin_polls : int;                      (* see [backoff] *)
  input : int array;
  committed : Runtime.Memory.t;
  memsys : Tls.Memsys.t;                 (* line math only *)
  m : Mutex.t;
  mutable cur : inst option;             (* under [m] *)
  gen : int Atomic.t;
  stop : bool Atomic.t;
  stuck : bool Atomic.t;
  mutable stuck_detail : string;         (* under [m] *)
  fatal : exn option Atomic.t;
  last_progress : float Atomic.t;
  workers_done : int Atomic.t;
  mutable output_rev : int list;         (* under [m] in TLS mode *)
  mutable events_rev : event list;       (* under [m] *)
  mutable ev_seq : int;
  mutable violations : int;
  mutable squashes : int;
  mutable total_committed : int;
  mutable instances_total : int;
  instance_counters : (int, int) Hashtbl.t;
  (* (instance, index, attempt) -> (reason, was_violation) *)
  forced : (int * int * int, string * bool) Hashtbl.t;
  serial : bool;
}

(* ------------------------------------------------------------------ *)
(* Clock, watchdog, events                                             *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

let progress rt = Atomic.set rt.last_progress (now ())

let track_key rt addr =
  if rt.cfg.Tls.Config.word_level_tracking then addr
  else Tls.Memsys.line_of rt.memsys addr

let status_name = function
  | Running -> "running"
  | Done -> "done"
  | Committed -> "committed"
  | Discarded -> "discarded"

(* Must be called with [m] held. *)
let describe_locked rt =
  match rt.cur with
  | None -> "sequential phase (no active region instance)"
  | Some inst ->
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf "region %d instance %d oldest=%d ended=%b"
         inst.i_region.Ir.Region.id inst.i_no
         (Atomic.get inst.i_oldest) (Atomic.get inst.i_ended));
    let idxs =
      List.sort compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) inst.i_epochs [])
    in
    List.iter
      (fun k ->
        let e = Hashtbl.find inst.i_epochs k in
        Buffer.add_string b
          (Printf.sprintf "; epoch %d %s attempt %d steps %d aborts %d" k
             (status_name e.e_status) e.e_attempt e.e_steps e.e_aborts))
      idxs;
    Buffer.contents b

let mark_stuck rt =
  Mutex.lock rt.m;
  if not (Atomic.get rt.stuck) then begin
    rt.stuck_detail <- describe_locked rt;
    Atomic.set rt.stuck true
  end;
  Mutex.unlock rt.m

(* Worker-side: raise Abandon on stop/stuck, fire the watchdog on wall
   silence.  Never called with [m] held. *)
let check_stuck rt =
  if Atomic.get rt.stop || Atomic.get rt.stuck then raise Abandon;
  let idle_ms = (now () -. Atomic.get rt.last_progress) *. 1000. in
  if idle_ms > float_of_int rt.o.watchdog_ms then begin
    mark_stuck rt;
    raise Abandon
  end

(* [check_stuck] for a poll loop on its [n]th poll: the flags every
   poll, the wall clock (a syscall) every 256. *)
let[@inline] poll_stuck rt n =
  if n land 255 = 0 then check_stuck rt
  else if Atomic.get rt.stop || Atomic.get rt.stuck then raise Abandon

(* A poll loop's wait before its [n]th retry (counted from 0 since its
   last progress): spin for the first [rt.spin_polls], since the
   awaited domain is usually a few hundred instructions away, then
   sleep so a long wait leaves the core to the domain it is waiting
   for. *)
let[@inline] backoff rt n =
  if n < rt.spin_polls then Domain.cpu_relax () else Unix.sleepf 0.0001

(* Must be called with [m] held. *)
let note_event rt inst (e : ep) kind =
  let ev =
    {
      ev_seq = rt.ev_seq;
      ev_instance = inst.i_no;
      ev_index = e.e_index;
      ev_attempt = e.e_attempt;
      ev_kind = kind;
    }
  in
  rt.ev_seq <- rt.ev_seq + 1;
  rt.events_rev <- ev :: rt.events_rev

(* Interruptible sleep: bounded slices, each checking stop/stuck. *)
let sliced_sleep rt ms =
  let deadline = now () +. (float_of_int ms /. 1000.) in
  let rec go () =
    check_stuck rt;
    let left = deadline -. now () in
    if left > 0. then begin
      Unix.sleepf (Float.min left 0.005);
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Fault plumbing (first region instance only, keyed by epoch index)   *)
(* ------------------------------------------------------------------ *)

let fault_scope inst = inst.i_no = 0

let crash_fault rt inst (e : ep) =
  fault_scope inst
  && List.exists
       (function
         | Crash_epoch { epoch; persistent } ->
           epoch = e.e_index && (persistent || e.e_attempt = 1)
         | _ -> false)
       rt.o.faults

let yield_every rt inst (e : ep) =
  if not (fault_scope inst) then None
  else
    List.find_map
      (function
        | Yield_steps { epoch; every } when epoch = e.e_index ->
          Some (max 1 every)
        | _ -> None)
      rt.o.faults

let commit_delay_ms rt inst (e : ep) =
  if not (fault_scope inst) then None
  else
    List.find_map
      (function
        | Delay_commit { epoch; ms } when epoch = e.e_index -> Some ms
        | _ -> None)
      rt.o.faults

let wakeup_dropped rt inst (e : ep) ch =
  fault_scope inst
  && List.exists
       (function
         | Drop_wakeup { epoch; channel } -> epoch = e.e_index && channel = ch
         | _ -> false)
       rt.o.faults

(* ------------------------------------------------------------------ *)
(* Channel cells                                                       *)
(* ------------------------------------------------------------------ *)

type recv = Ready of payload | Nothing

(* Must be called with [m] held.  Consumption order: already-consumed
   cache, then the predecessor's *committed* snapshot (an IVar that can
   never be retracted), then its live speculative cell (retractable —
   the consumer's commit-time validation re-checks it by value). *)
let receive rt inst (e : ep) ch =
  match Hashtbl.find_opt e.e_consumed ch with
  | Some p -> Ready p
  | None -> begin
    let committed_payload =
      if e.e_index = 0 then Hashtbl.find_opt inst.i_entry_sent ch
      else Hashtbl.find_opt inst.i_committed_sent (e.e_index - 1, ch)
    in
    match committed_payload with
    | Some p ->
      Hashtbl.replace e.e_consumed ch p;
      Ready p
    | None ->
      if e.e_index = 0 then
        (* entry_sent seeds every region channel; unreachable for a
           well-formed region. *)
        raise
          (Exec_deadlock
             (Printf.sprintf "epoch 0 waits on unseeded channel %d" ch))
      else begin
        match Hashtbl.find_opt inst.i_epochs (e.e_index - 1) with
        | Some pred when pred.e_status = Committed ->
          if Atomic.get inst.i_ended then raise Abandon
          else
            raise
              (Exec_deadlock
                 (Printf.sprintf
                    "epoch %d waits on channel %d its committed \
                     predecessor never signaled"
                    e.e_index ch))
        | Some pred when pred.e_status = Running || pred.e_status = Done ->
          if wakeup_dropped rt inst e ch then Nothing
          else begin
            match Hashtbl.find_opt pred.e_sent ch with
            | Some p ->
              Hashtbl.replace e.e_consumed ch p;
              Ready p
            | None -> Nothing
          end
        | _ -> Nothing
      end
  end

(* The value an epoch may legitimately forward for [addr]: its own
   speculative write, or a pass-through of the value it consumed on the
   same channel (still sequentially correct for the successor).  Neither
   -> NULL signal, and the consumer falls back to violation-protected
   speculation, exactly as the paper's NULL signals degrade. *)
let forwardable_value (e : ep) ch addr =
  match Hashtbl.find_opt e.e_writes addr with
  | Some v -> Some v
  | None -> begin
    match Hashtbl.find_opt e.e_consumed ch with
    | Some (P_mem (a, v)) when a = addr -> Some v
    | Some _ | None -> None
  end

(* Must be called with [m] held: post [p] on [e]'s cell for [ch].  If
   the successor already consumed a different payload from this cell,
   flag it eagerly — its validation would catch the stale value anyway,
   but the flag saves wasted speculation (PR4 re-signal rule). *)
let post_signal rt inst (e : ep) ch p =
  Hashtbl.replace e.e_sent ch p;
  note_event rt inst e (Ev_signal ch);
  match Hashtbl.find_opt inst.i_epochs (e.e_index + 1) with
  | Some succ
    when (succ.e_status = Running || succ.e_status = Done)
         && (match Hashtbl.find_opt succ.e_consumed ch with
            | Some q -> q <> p
            | None -> false) ->
    Atomic.set succ.e_squash (Some ("resignal", true))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Epoch memory semantics                                              *)
(* ------------------------------------------------------------------ *)

(* Must be called with [m] held.  Own writes overlay committed memory;
   an exposed read logs its first observed value (repeat reads return
   the logged value, so one validation entry per address keeps the whole
   attempt's read set consistent) and marks its cache line. *)
let speculative_load rt (e : ep) addr =
  match Hashtbl.find_opt e.e_writes addr with
  | Some v -> v
  | None -> begin
    match Hashtbl.find_opt e.e_read_log addr with
    | Some v -> v
    | None ->
      let v = Runtime.Memory.get rt.committed addr in
      Hashtbl.replace e.e_read_log addr v;
      Hashtbl.replace e.e_read_keys (track_key rt addr) ();
      v
  end

(* Must be called with [m] held. *)
let epoch_store rt inst (e : ep) addr v =
  Hashtbl.replace e.e_writes addr v;
  (* Storing to an address already forwarded means the wrong value was
     sent: re-signal with the new value. *)
  Hashtbl.iter
    (fun ch signaled_addr ->
      if signaled_addr = addr then post_signal rt inst e ch (P_mem (addr, v)))
    e.e_sig_buffer

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)
(* ------------------------------------------------------------------ *)

let locked rt f =
  Mutex.lock rt.m;
  match f () with
  | v ->
    Mutex.unlock rt.m;
    v
  | exception exn ->
    Mutex.unlock rt.m;
    raise exn

let epoch_hooks rt inst (e : ep) : Runtime.Thread.hooks =
  let my_channel ch = Int_set.mem ch inst.i_channels in
  let mem_sync = rt.cfg.Tls.Config.stall_compiler_sync in
  {
    Runtime.Thread.load =
      (fun _ _ addr -> locked rt (fun () -> speculative_load rt e addr));
    store =
      (fun _ _ addr v -> locked rt (fun () -> epoch_store rt inst e addr v));
    wait_scalar =
      (fun t i ch ->
        if not (my_channel ch) then begin
          (* A nested region's synchronization, executed sequentially. *)
          match i.Ir.Instr.kind with
          | Ir.Instr.Wait_scalar (_, dst) ->
            Some (Runtime.Thread.current_frame t).Runtime.Thread.regs.(dst)
          | _ -> None
        end
        else
          locked rt (fun () ->
              match receive rt inst e ch with
              | Ready (P_scalar v) | Ready (P_mem (_, v)) -> Some v
              | Nothing -> None));
    signal_scalar =
      (fun _ _ ch v ->
        if my_channel ch then
          locked rt (fun () -> post_signal rt inst e ch (P_scalar v)));
    wait_mem =
      (fun _ _ ch ->
        if (not (my_channel ch)) || not mem_sync then true
        else
          locked rt (fun () ->
              match receive rt inst e ch with
              | Ready _ -> true
              | Nothing -> false));
    sync_load =
      (fun _ _ ch addr ->
        locked rt (fun () ->
            if (not (my_channel ch)) || not mem_sync then
              speculative_load rt e addr
            else begin
              match Hashtbl.find_opt e.e_consumed ch with
              | Some (P_mem (a, v)) when a <> 0 && a = addr ->
                (* Point-to-point satisfied: locally overwritten wins,
                   otherwise the forwarded value (validated at commit
                   against the predecessor's committed snapshot). *)
                if Hashtbl.mem e.e_writes addr then
                  Hashtbl.find e.e_writes addr
                else v
              | Some _ | None ->
                (* NULL signal, address mismatch, or nothing consumed:
                   violation-protected fallback. *)
                speculative_load rt e addr
            end));
    signal_mem =
      (fun _ _ ch addr ->
        if my_channel ch && mem_sync then
          locked rt (fun () ->
              let addr, value =
                if addr = 0 then (0, 0)
                else
                  match forwardable_value e ch addr with
                  | Some v -> (addr, v)
                  | None -> (0, 0)
              in
              if addr <> 0 then Hashtbl.replace e.e_sig_buffer ch addr
              else Hashtbl.remove e.e_sig_buffer ch;
              post_signal rt inst e ch (P_mem (addr, value))));
    signal_mem_if_unsent =
      (fun _ _ ch addr ->
        if my_channel ch && mem_sync then
          locked rt (fun () ->
              if not (Hashtbl.mem e.e_sent ch) then begin
                let addr, value =
                  if addr = 0 then (0, 0)
                  else
                    match forwardable_value e ch addr with
                    | Some v -> (addr, v)
                    | None -> (0, 0)
                in
                if addr <> 0 then Hashtbl.replace e.e_sig_buffer ch addr;
                post_signal rt inst e ch (P_mem (addr, value))
              end));
    signal_null =
      (fun _ _ ch ->
        if my_channel ch && mem_sync then
          locked rt (fun () -> post_signal rt inst e ch (P_mem (0, 0))));
    signal_null_if_unsent =
      (fun _ _ ch ->
        if my_channel ch && mem_sync then
          locked rt (fun () ->
              if not (Hashtbl.mem e.e_sent ch) then
                post_signal rt inst e ch (P_mem (0, 0))));
    control =
      (fun t ~target ->
        if Runtime.Thread.depth t > 1 then true
        else if target = inst.i_region.Ir.Region.header then begin
          e.e_exitk <- Some Exit_back;
          false
        end
        else if not (Int_set.mem target inst.i_blocks) then begin
          e.e_exitk <- Some (Exit_out target);
          false
        end
        else true);
  }

(* ------------------------------------------------------------------ *)
(* Attempts                                                            *)
(* ------------------------------------------------------------------ *)

let is_oldest inst (e : ep) = Atomic.get inst.i_oldest = e.e_index

(* Must be called with [m] held. *)
let reset_attempt_locked inst (e : ep) =
  Hashtbl.reset e.e_writes;
  Hashtbl.reset e.e_read_log;
  Hashtbl.reset e.e_read_keys;
  Hashtbl.reset e.e_consumed;
  Hashtbl.reset e.e_sent;
  Hashtbl.reset e.e_sig_buffer;
  e.e_status <- Running;
  e.e_exitk <- None;
  e.e_steps <- 0;
  e.e_attempt <- e.e_attempt + 1;
  let t = e.e_thread in
  t.Runtime.Thread.frames <- [ Runtime.Thread.copy_frame inst.i_base ];
  t.Runtime.Thread.output <- [];
  t.Runtime.Thread.icount <- 0

(* A plain read first: the exchange is a full barrier, and the flag is
   almost always clear. *)
let poll_squash rt inst (e : ep) =
  match Atomic.get e.e_squash with
  | None -> ()
  | Some _ -> begin
    match Atomic.exchange e.e_squash None with
    | Some (reason, was_violation) ->
      if was_violation then
        locked rt (fun () ->
            rt.violations <- rt.violations + 1;
            note_event rt inst e (Ev_violation reason));
      raise (Squash_attempt reason)
    | None -> ()
  end

(* Run one attempt of [e] to Done (exit kind set).  Raises
   Squash_attempt / Crash_injected / Abandon / Exec_deadlock. *)
let run_attempt rt inst (e : ep) =
  locked rt (fun () -> reset_attempt_locked inst e);
  let hooks = epoch_hooks rt inst e in
  let crash = crash_fault rt inst e in
  let yield = yield_every rt inst e in
  let cap = rt.cfg.Tls.Config.epoch_max_instrs in
  (* [polls] counts loop iterations (the watchdog cadence), [spins]
     consecutive blocked ones (the backoff). *)
  let rec steploop polls spins =
    poll_squash rt inst e;
    if Atomic.get inst.i_ended then raise Abandon;
    poll_stuck rt polls;
    if crash && e.e_steps = 3 then raise Crash_injected;
    (match yield with
    | Some every when e.e_steps mod every = 0 && e.e_steps > 0 ->
      Unix.sleepf 0.0002
    | _ -> ());
    (match rt.o.perturb_seed with
    | Some seed when not rt.serial ->
      if Hashtbl.hash (seed, inst.i_no, e.e_index, e.e_steps) land 63 = 0
      then Unix.sleepf 0.00005
    | _ -> ());
    match Runtime.Thread.step e.e_thread hooks with
    | Runtime.Thread.Ran _ ->
      e.e_steps <- e.e_steps + 1;
      if e.e_steps > cap then begin
        if is_oldest inst e then
          raise
            (Exec_deadlock
               (Printf.sprintf
                  "epoch %d exceeded the %d-instruction cap as the oldest"
                  e.e_index cap))
        else begin
          e.e_hold <- true;
          raise (Squash_attempt "runaway")
        end
      end;
      steploop (polls + 1) 0
    | Runtime.Thread.Blocked ->
      backoff rt spins;
      steploop (polls + 1) (spins + 1)
    | Runtime.Thread.Suspended ->
      locked rt (fun () -> e.e_status <- Done)
    | Runtime.Thread.Finished rv ->
      e.e_exitk <- Some (Exit_return rv);
      locked rt (fun () -> e.e_status <- Done)
  in
  steploop 0 0

(* Poll until [e] holds the homefree token. *)
let await_token rt inst (e : ep) =
  let rec loop n =
    if Atomic.get inst.i_ended then raise Abandon;
    poll_stuck rt n;
    poll_squash rt inst e;
    if not (is_oldest inst e) then begin
      backoff rt n;
      loop (n + 1)
    end
  in
  loop 0

(* Replay: was this attempt recorded as squashed/violated?  Must be
   called with [m] held. *)
let forced_squash rt inst (e : ep) =
  match Hashtbl.find_opt rt.forced (inst.i_no, e.e_index, e.e_attempt) with
  | None -> None
  | Some (reason, was_violation) ->
    if was_violation then begin
      rt.violations <- rt.violations + 1;
      note_event rt inst e (Ev_violation reason)
    end;
    Some reason

(* Must be called with [m] held: validate this attempt's inputs against
   committed state.  None = consistent. *)
let validate rt inst (e : ep) =
  let bad = ref None in
  Hashtbl.iter
    (fun ch p ->
      if !bad = None then begin
        let expect =
          if e.e_index = 0 then Hashtbl.find_opt inst.i_entry_sent ch
          else Hashtbl.find_opt inst.i_committed_sent (e.e_index - 1, ch)
        in
        if expect <> Some p then
          bad := Some (Printf.sprintf "channel %d payload mismatch" ch)
      end)
    e.e_consumed;
  if !bad = None then
    Hashtbl.iter
      (fun addr v ->
        if !bad = None && Runtime.Memory.get rt.committed addr <> v then
          bad := Some (Printf.sprintf "stale read at addr %d" addr))
      e.e_read_log;
  !bad

(* Must be called with [m] held: flag every active epoch >= [from]. *)
let cascade_locked inst ~from reason =
  Hashtbl.iter
    (fun idx (e' : ep) ->
      if idx >= from && (e'.e_status = Running || e'.e_status = Done) then
        Atomic.set e'.e_squash (Some (reason, false)))
    inst.i_epochs

(* Must be called with [m] held: drain the write buffer into committed
   memory, eagerly flag younger readers of the written lines, publish
   the committed channel snapshot, drain output, pass the token. *)
let do_commit_locked rt inst (e : ep) =
  Hashtbl.iter (fun a v -> Runtime.Memory.store rt.committed a v) e.e_writes;
  let keys = Hashtbl.create 16 in
  Hashtbl.iter (fun a _ -> Hashtbl.replace keys (track_key rt a) ()) e.e_writes;
  let victim = ref max_int in
  Hashtbl.iter
    (fun idx (e' : ep) ->
      if
        idx > e.e_index
        && (e'.e_status = Running || e'.e_status = Done)
        && idx < !victim
        && Hashtbl.fold
             (fun k () acc -> acc || Hashtbl.mem e'.e_read_keys k)
             keys false
      then victim := idx)
    inst.i_epochs;
  (* The minimal victim read a line this commit just overwrote: that is
     the TLS violation (reported by the victim when it consumes the
     flag); everything younger is collateral cascade. *)
  if !victim < max_int then begin
    (match Hashtbl.find_opt inst.i_epochs !victim with
    | Some v when v.e_status = Running || v.e_status = Done ->
      Atomic.set v.e_squash (Some ("conflict", true))
    | Some _ | None -> ());
    cascade_locked inst ~from:(!victim + 1) "cascade"
  end;
  Hashtbl.iter
    (fun ch p -> Hashtbl.replace inst.i_committed_sent (e.e_index, ch) p)
    e.e_sent;
  if e.e_index > 0 then
    Int_set.iter
      (fun ch -> Hashtbl.remove inst.i_committed_sent (e.e_index - 1, ch))
      inst.i_channels;
  rt.output_rev <- e.e_thread.Runtime.Thread.output @ rt.output_rev;
  e.e_thread.Runtime.Thread.output <- [];
  e.e_status <- Committed;
  rt.total_committed <- rt.total_committed + 1;
  note_event rt inst e Ev_commit;
  (match e.e_exitk with
  | Some Exit_back -> Atomic.set inst.i_oldest (e.e_index + 1)
  | Some (Exit_out _) | Some (Exit_return _) ->
    inst.i_winner <- Some e;
    Atomic.set inst.i_ended true
  | None -> assert false);
  progress rt

type commit_outcome = Committed_ok | Retry of string

(* [e] is Done: take the token, then validate-and-commit or report the
   reason to retry. *)
let try_commit rt inst (e : ep) =
  await_token rt inst e;
  (match commit_delay_ms rt inst e with
  | Some ms when e.e_attempt = 1 -> sliced_sleep rt ms
  | _ -> ());
  locked rt (fun () ->
      match Atomic.exchange e.e_squash None with
      | Some (reason, was_violation) ->
        if was_violation then begin
          rt.violations <- rt.violations + 1;
          note_event rt inst e (Ev_violation reason)
        end;
        Retry reason
      | None -> begin
        match forced_squash rt inst e with
        | Some reason -> Retry reason
        | None -> begin
          match validate rt inst e with
          | Some reason ->
            rt.violations <- rt.violations + 1;
            note_event rt inst e (Ev_violation reason);
            cascade_locked inst ~from:(e.e_index + 1) "cascade";
            Retry reason
          | None ->
            do_commit_locked rt inst e;
            Committed_ok
        end
      end)

(* Record a squash and charge the abort budget. *)
let on_abort rt inst (e : ep) reason =
  locked rt (fun () ->
      rt.squashes <- rt.squashes + 1;
      note_event rt inst e (Ev_squash reason));
  e.e_aborts <- e.e_aborts + 1;
  if e.e_aborts > rt.o.max_aborts then
    raise
      (Abort_exhausted
         {
           instance = inst.i_no;
           index = e.e_index;
           aborts = e.e_aborts;
           max_aborts = rt.o.max_aborts;
         });
  if e.e_aborts > rt.cfg.Tls.Config.max_restarts_before_hold then
    e.e_hold <- true

(* Park until [e] is the oldest (used after crashes and repeated
   squashes: the retry then runs with committed state frozen and can
   never fail again). *)
let await_oldest rt inst (e : ep) =
  let rec loop n =
    if Atomic.get inst.i_ended then raise Abandon;
    poll_stuck rt n;
    if not (is_oldest inst e) then begin
      backoff rt n;
      loop (n + 1)
    end
  in
  loop 0

(* Drive one epoch to commit: attempts, rollbacks, containment. *)
let drive rt inst (e : ep) =
  let rec go () =
    if e.e_hold then await_oldest rt inst e;
    (* [try_commit] can itself raise [Squash_attempt] (the token wait
       polls the squash flag), so it lives inside the same match as the
       attempt: every rollback path lands on [on_abort]. *)
    match
      run_attempt rt inst e;
      try_commit rt inst e
    with
    | Committed_ok -> ()
    | Retry reason ->
      on_abort rt inst e reason;
      go ()
    | exception Squash_attempt reason ->
      on_abort rt inst e reason;
      go ()
    | exception Crash_injected ->
      on_abort rt inst e "crash-injected";
      e.e_hold <- true;
      go ()
    | exception ((Abandon | Exec_deadlock _ | Abort_exhausted _
                 | Specrt_stuck _) as ex) ->
      raise ex
    | exception ex ->
      (* Containment: an exception inside an epoch squashes the attempt
         and retries non-speculatively; it never kills the process. *)
      on_abort rt inst e ("exception: " ^ Printexc.to_string ex);
      e.e_hold <- true;
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Instance execution                                                  *)
(* ------------------------------------------------------------------ *)

let register_epoch rt inst k =
  locked rt (fun () ->
      let e =
        {
          e_index = k;
          e_thread =
            {
              Runtime.Thread.code = rt.code;
              frames = [];
              input = rt.input;
              output = [];
              icount = 0;
            };
          e_status = Running;
          e_exitk = None;
          e_writes = Hashtbl.create 32;
          e_read_log = Hashtbl.create 32;
          e_read_keys = Hashtbl.create 16;
          e_consumed = Hashtbl.create 8;
          e_sent = Hashtbl.create 8;
          e_sig_buffer = Hashtbl.create 8;
          e_squash = Atomic.make None;
          e_attempt = 0;
          e_aborts = 0;
          e_hold = false;
          e_steps = 0;
        }
      in
      Hashtbl.replace inst.i_epochs k e;
      e)

(* Worker [w]'s share of an instance: epochs w, w+D, w+2D, ... in order.
   One epoch in flight per worker bounds the speculation window at D,
   and waiting for the token before the next epoch keeps it there. *)
let work_instance rt w inst =
  let d = if rt.serial then 1 else rt.o.domains in
  let k = ref w in
  while not (Atomic.get inst.i_ended) do
    check_stuck rt;
    let e = register_epoch rt inst !k in
    drive rt inst e;
    k := !k + d
  done

let record_fatal rt ex =
  ignore (Atomic.compare_and_set rt.fatal None (Some ex))

let worker rt w =
  let seen = ref 0 in
  let rec loop () =
    if Atomic.get rt.stop then ()
    else begin
      let g = Atomic.get rt.gen in
      if g = !seen then begin
        Unix.sleepf 0.0002;
        loop ()
      end
      else begin
        let inst = locked rt (fun () -> rt.cur) in
        (match inst with
        | Some i when i.i_gen = g -> begin
          (try work_instance rt w i with
          | Abandon -> ()
          | ex -> record_fatal rt ex);
          seen := g;
          Atomic.incr rt.workers_done
        end
        | _ -> seen := g);
        loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Sequential phase and instance lifecycle                             *)
(* ------------------------------------------------------------------ *)

(* Main-side checks: propagate a worker's fatal error or the watchdog. *)
let main_checks rt =
  (match Atomic.get rt.fatal with
  | Some ex ->
    Atomic.set rt.stop true;
    raise ex
  | None -> ());
  if Atomic.get rt.stuck then
    raise
      (Specrt_stuck { watchdog_ms = rt.o.watchdog_ms; detail = rt.stuck_detail });
  let idle_ms = (now () -. Atomic.get rt.last_progress) *. 1000. in
  if idle_ms > float_of_int rt.o.watchdog_ms then begin
    mark_stuck rt;
    raise
      (Specrt_stuck { watchdog_ms = rt.o.watchdog_ms; detail = rt.stuck_detail })
  end

let drain_seq_output rt (t : Runtime.Thread.t) =
  rt.output_rev <- t.Runtime.Thread.output @ rt.output_rev;
  t.Runtime.Thread.output <- []

let build_instance rt (r : Ir.Region.t) seq_thread =
  let seq_frame = Runtime.Thread.current_frame seq_thread in
  let base = Runtime.Thread.copy_frame seq_frame in
  base.Runtime.Thread.block <- r.Ir.Region.header;
  base.Runtime.Thread.pc <- 0;
  let entry_sent = Hashtbl.create 8 in
  List.iter
    (fun (sc : Ir.Region.scalar_channel) ->
      Hashtbl.replace entry_sent sc.Ir.Region.sc_id
        (P_scalar base.Runtime.Thread.regs.(sc.Ir.Region.sc_reg)))
    r.Ir.Region.scalar_channels;
  List.iter
    (fun (mg : Ir.Region.mem_group) ->
      Hashtbl.replace entry_sent mg.Ir.Region.mg_id (P_mem (0, 0)))
    r.Ir.Region.mem_groups;
  let channels =
    Int_set.union
      (Int_set.of_list
         (List.map
            (fun (sc : Ir.Region.scalar_channel) -> sc.Ir.Region.sc_id)
            r.Ir.Region.scalar_channels))
      (Int_set.of_list
         (List.map
            (fun (mg : Ir.Region.mem_group) -> mg.Ir.Region.mg_id)
            r.Ir.Region.mem_groups))
  in
  let no = rt.instances_total in
  rt.instances_total <- no + 1;
  Hashtbl.replace rt.instance_counters r.Ir.Region.id
    (1
    + Option.value ~default:0
        (Hashtbl.find_opt rt.instance_counters r.Ir.Region.id));
  {
    i_gen = Atomic.get rt.gen + 1;
    i_no = no;
    i_region = r;
    i_base = base;
    i_blocks = Int_set.of_list r.Ir.Region.blocks;
    i_channels = channels;
    i_entry_sent = entry_sent;
    i_epochs = Hashtbl.create 16;
    i_committed_sent = Hashtbl.create 32;
    i_oldest = Atomic.make 0;
    i_ended = Atomic.make false;
    i_winner = None;
  }

(* Returns [true] when the winner's Exit_return popped the outermost
   frame, i.e. the program finished inside the region. *)
let finish_instance rt inst seq_thread =
  let winner =
    match inst.i_winner with
    | Some e -> e
    | None -> raise (Exec_deadlock "region instance ended without a winner")
  in
  locked rt (fun () ->
      Hashtbl.iter
        (fun _ (e : ep) ->
          match e.e_status with
          | Running | Done ->
            rt.squashes <- rt.squashes + 1;
            e.e_status <- Discarded
          | Committed | Discarded -> ())
        inst.i_epochs);
  match winner.e_exitk with
  | Some (Exit_out target) ->
    let seq_frame = Runtime.Thread.current_frame seq_thread in
    let ep_frame = Runtime.Thread.current_frame winner.e_thread in
    Array.blit ep_frame.Runtime.Thread.regs 0 seq_frame.Runtime.Thread.regs 0
      (Array.length seq_frame.Runtime.Thread.regs);
    seq_frame.Runtime.Thread.pc <-
      rt.ic.Runtime.Icode.funcs.(seq_frame.Runtime.Thread.cfunc
                                   .Runtime.Code.cf_id)
        .Runtime.Icode.block_off.(target);
    false
  | Some (Exit_return rv) -> begin
    match seq_thread.Runtime.Thread.frames with
    | f :: rest -> begin
      match rest with
      | caller :: _ ->
        (match (f.Runtime.Thread.ret_to, rv) with
        | Some dst, Some v -> caller.Runtime.Thread.regs.(dst) <- v
        | Some dst, None -> caller.Runtime.Thread.regs.(dst) <- 0
        | None, _ -> ());
        seq_thread.Runtime.Thread.frames <- rest;
        false
      | [] ->
        seq_thread.Runtime.Thread.frames <- [];
        true
    end
    | [] -> true
  end
  | Some Exit_back | None ->
    raise (Exec_deadlock "region winner has no speculative exit")

let run_instance rt seq_thread (r : Ir.Region.t) =
  drain_seq_output rt seq_thread;
  let inst = build_instance rt r seq_thread in
  Mutex.lock rt.m;
  rt.cur <- Some inst;
  Mutex.unlock rt.m;
  Atomic.set rt.workers_done 0;
  Atomic.incr rt.gen;
  progress rt;
  if rt.serial then begin
    (try work_instance rt 0 inst with Abandon -> ());
    main_checks rt
  end
  else begin
    let d = rt.o.domains in
    let rec wait () =
      main_checks rt;
      if not (Atomic.get inst.i_ended && Atomic.get rt.workers_done = d)
      then begin
        Unix.sleepf 0.0002;
        wait ()
      end
    in
    wait ()
  end;
  progress rt;
  finish_instance rt inst seq_thread

(* The sequential phase, over flat icode (slot layouts in
   [Runtime.Icode]).  [seq_exec] runs the main domain's thread [t] from
   offset [pc] of its current frame [f] ([code], [regs] and the region
   headers [heads] are [f]'s) against committed memory until the
   program returns.  Sync instructions are transparent: a scalar wait is
   the identity, a sync load a plain load, the signals no-ops.  A taken
   branch onto a region header runs that instance and resumes wherever
   its winning epoch left the thread.  [steps] counts dispatched
   instructions, a region entry included; it paces the watchdog and
   bounds a runaway sequential thread.  Top-level recursion with
   unboxed arguments, so nothing but a call allocates. *)

(* Unchecked reads are licensed by [Runtime.Icode.verify]. *)
let[@inline] operand code regs w bit k =
  let x = Array.unsafe_get code k in
  if w land bit <> 0 then x else Array.unsafe_get regs x

let[@inline] set code regs k v =
  Array.unsafe_set regs (Array.unsafe_get code k) v

let rec seq_exec rt (t : Runtime.Thread.t) (f : Runtime.Thread.frame) code
    regs heads pc steps =
  if steps land 4095 = 0 then begin
    main_checks rt;
    progress rt
  end;
  if steps > rt.seq_cap then
    raise
      (Specrt_stuck
         {
           watchdog_ms = rt.o.watchdog_ms;
           detail =
             Printf.sprintf "sequential thread exceeded %d steps" rt.seq_cap;
         });
  let w = Array.unsafe_get code pc in
  let op = w land 0xff in
  if op < 16 then begin
    set code regs (pc + 2)
      (Runtime.Icode.eval_binop_i op
         (operand code regs w 0x100 (pc + 3))
         (operand code regs w 0x200 (pc + 4)));
    seq_exec rt t f code regs heads (pc + 5) (steps + 1)
  end
  else
    match op with
    | 16 (* Mov *) ->
      set code regs (pc + 2) (operand code regs w 0x100 (pc + 3));
      seq_exec rt t f code regs heads (pc + 4) (steps + 1)
    | 17 (* Load *) ->
      set code regs (pc + 2)
        (Runtime.Memory.get rt.committed (operand code regs w 0x100 (pc + 3)));
      seq_exec rt t f code regs heads (pc + 4) (steps + 1)
    | 18 (* Store *) ->
      Runtime.Memory.store rt.committed
        (operand code regs w 0x100 (pc + 2))
        (operand code regs w 0x200 (pc + 3));
      seq_exec rt t f code regs heads (pc + 4) (steps + 1)
    | 19 (* Call *) ->
      let fidx = Array.unsafe_get code (pc + 2) in
      if fidx < 0 then
        failwith
          ("Thread: call to unknown function "
          ^ rt.ic.Runtime.Icode.names.(-fidx - 1));
      let callee = Array.unsafe_get rt.ic.Runtime.Icode.funcs fidx in
      let cf = callee.Runtime.Icode.fn_cfunc in
      let callee_regs = Array.make cf.Runtime.Code.cf_nregs 0 in
      let nargs = Array.unsafe_get code (pc + 4) in
      Runtime.Icode.bind_args code regs callee_regs cf.Runtime.Code.cf_params
        (pc + 5) nargs;
      f.Runtime.Thread.pc <- pc + 5 + (2 * nargs);
      let cframe =
        {
          Runtime.Thread.cfunc = cf;
          regs = callee_regs;
          block = 0;
          pc = 0;
          ret_to =
            Array.unsafe_get rt.ic.Runtime.Icode.ret_opts
              (Array.unsafe_get code (pc + 3));
          call_iid = Array.unsafe_get code (pc + 1);
        }
      in
      t.Runtime.Thread.frames <- cframe :: t.Runtime.Thread.frames;
      seq_exec rt t cframe callee.Runtime.Icode.code callee_regs
        (Array.unsafe_get rt.heads fidx) 0 (steps + 1)
    | 20 (* Print *) ->
      t.Runtime.Thread.output <-
        operand code regs w 0x100 (pc + 2) :: t.Runtime.Thread.output;
      seq_exec rt t f code regs heads (pc + 3) (steps + 1)
    | 21 (* Input *) ->
      let idx = operand code regs w 0x100 (pc + 3) in
      let input = t.Runtime.Thread.input in
      set code regs (pc + 2)
        (if idx >= 0 && idx < Array.length input then input.(idx) else 0);
      seq_exec rt t f code regs heads (pc + 4) (steps + 1)
    | 22 (* Input_len *) ->
      set code regs (pc + 2) (Array.length t.Runtime.Thread.input);
      seq_exec rt t f code regs heads (pc + 3) (steps + 1)
    | 26 (* Sync_load *) ->
      set code regs (pc + 3)
        (Runtime.Memory.get rt.committed (operand code regs w 0x100 (pc + 4)));
      seq_exec rt t f code regs heads (pc + 5) (steps + 1)
    | 23 | 24 | 27 | 28 -> seq_exec rt t f code regs heads (pc + 4) (steps + 1)
    | 25 | 29 | 30 -> seq_exec rt t f code regs heads (pc + 3) (steps + 1)
    | 31 (* Jmp *) ->
      seq_goto rt t f code regs heads
        (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get code (pc + 2))
        steps
    | 32 (* Br *) ->
      let k = if operand code regs w 0x100 (pc + 1) <> 0 then 0 else 1 in
      seq_goto rt t f code regs heads
        (Array.unsafe_get code (pc + 2 + k))
        (Array.unsafe_get code (pc + 4 + k))
        steps
    | _ (* Ret *) -> begin
      match t.Runtime.Thread.frames with
      | _ :: (caller :: _ as rest) ->
        (match f.Runtime.Thread.ret_to with
        | Some dst ->
          caller.Runtime.Thread.regs.(dst) <-
            (if w land 0x100 = 0 then 0 else operand code regs w 0x200 (pc + 1))
        | None -> ());
        t.Runtime.Thread.frames <- rest;
        seq_resume rt t caller (steps + 1)
      | _ -> t.Runtime.Thread.frames <- []
    end

and seq_goto rt t f code regs heads target off steps =
  match Array.unsafe_get heads target with
  | None -> seq_exec rt t f code regs heads off (steps + 1)
  | Some r ->
    if not (run_instance rt t r) then
      seq_resume rt t (Runtime.Thread.current_frame t) (steps + 1)

and seq_resume rt t (f : Runtime.Thread.frame) steps =
  let fidx = f.Runtime.Thread.cfunc.Runtime.Code.cf_id in
  seq_exec rt t f
    (Array.unsafe_get rt.ic.Runtime.Icode.funcs fidx).Runtime.Icode.code
    f.Runtime.Thread.regs
    (Array.unsafe_get rt.heads fidx)
    f.Runtime.Thread.pc steps

(* cf_id -> label -> region, for [seq_goto]: one slot per block, so a
   verified branch label indexes it unchecked. *)
let region_heads (code : Runtime.Code.t) (ic : Runtime.Icode.prog) =
  let heads =
    Array.map
      (fun (fn : Runtime.Icode.func) ->
        Array.make (Array.length fn.Runtime.Icode.block_off) None)
      ic.Runtime.Icode.funcs
  in
  List.iter
    (fun (r : Ir.Region.t) ->
      match Hashtbl.find_opt code.Runtime.Code.funcs r.Ir.Region.func with
      | Some cf ->
        let arr = heads.(cf.Runtime.Code.cf_id) in
        let h = r.Ir.Region.header in
        if h >= 0 && h < Array.length arr && Option.is_none arr.(h) then
          arr.(h) <- Some r
      | None -> ())
    code.Runtime.Code.regions;
  heads

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let fill_forced forced events =
  (* Violations take precedence over the generic squash record of the
     same attempt, so a replay re-reports the violation. *)
  List.iter
    (fun ev ->
      let key = (ev.ev_instance, ev.ev_index, ev.ev_attempt) in
      match ev.ev_kind with
      | Ev_violation reason -> Hashtbl.replace forced key (reason, true)
      | Ev_squash reason ->
        if not (Hashtbl.mem forced key) then
          Hashtbl.replace forced key (reason, false)
      | Ev_commit | Ev_signal _ -> ())
    events

let run ?opts (cfg : Tls.Config.t) (code : Runtime.Code.t) ~input =
  let o = match opts with Some o -> o | None -> default_opts cfg in
  let o = { o with domains = max 1 (min 64 o.domains) } in
  let serial = o.replay <> None || o.domains = 1 in
  let committed = Runtime.Memory.create () in
  Runtime.Memory.store_all committed code.Runtime.Code.initial_stores;
  let ic = Runtime.Icode.of_code code in
  let forced = Hashtbl.create 16 in
  (match o.replay with Some evs -> fill_forced forced evs | None -> ());
  let rt =
    {
      cfg;
      o;
      code;
      ic;
      heads = region_heads code ic;
      seq_cap = cfg.Tls.Config.epoch_max_instrs * 1000;
      (* Spinning pays only while every worker has a core: with more
         workers than cores a spinning waiter holds the core its
         producer needs (4 workers on 2 cores ran the exec chaos matrix
         about 40% slower with spins than without). *)
      spin_polls =
        (if o.domains <= Domain.recommended_domain_count () then 2048
         else 0);
      input;
      committed;
      memsys = Tls.Memsys.create cfg;
      m = Mutex.create ();
      cur = None;
      gen = Atomic.make 0;
      stop = Atomic.make false;
      stuck = Atomic.make false;
      stuck_detail = "";
      fatal = Atomic.make None;
      last_progress = Atomic.make (now ());
      workers_done = Atomic.make 0;
      output_rev = [];
      events_rev = [];
      ev_seq = 0;
      violations = 0;
      squashes = 0;
      total_committed = 0;
      instances_total = 0;
      instance_counters = Hashtbl.create 8;
      forced;
      serial;
    }
  in
  let seq_thread = Runtime.Thread.create code ~func_name:"main" ~input in
  let workers =
    if serial then []
    else List.init o.domains (fun w -> Domain.spawn (fun () -> worker rt w))
  in
  let finalize () =
    Atomic.set rt.stop true;
    List.iter Domain.join workers
  in
  Fun.protect ~finally:finalize @@ fun () ->
  seq_resume rt seq_thread (Runtime.Thread.current_frame seq_thread) 1;
  drain_seq_output rt seq_thread;
  {
    r_output = List.rev rt.output_rev;
    r_final_memory = rt.committed;
    r_epochs_committed = rt.total_committed;
    r_epochs_squashed = rt.squashes;
    r_violations = rt.violations;
    r_region_instances =
      List.sort compare
        (Hashtbl.fold
           (fun id n acc -> (id, n) :: acc)
           rt.instance_counters []);
    r_domains = (if serial then 1 else o.domains);
    r_events = List.rev rt.events_rev;
  }

(* ------------------------------------------------------------------ *)
(* Replay-log serialization (JSONL, dependency-free)                   *)
(* ------------------------------------------------------------------ *)

let sanitize s =
  String.map
    (fun c ->
      if Char.code c < 0x20 || c = '"' || c = '\\' then '_' else c)
    s

let kind_fields = function
  | Ev_commit -> ("commit", "", -1)
  | Ev_violation reason -> ("violation", reason, -1)
  | Ev_squash reason -> ("squash", reason, -1)
  | Ev_signal ch -> ("signal", "", ch)

let event_to_line ev =
  let kind, detail, channel = kind_fields ev.ev_kind in
  Printf.sprintf
    "{\"seq\":%d,\"instance\":%d,\"epoch\":%d,\"attempt\":%d,\"kind\":\"%s\",\"detail\":\"%s\",\"channel\":%d}"
    ev.ev_seq ev.ev_instance ev.ev_index ev.ev_attempt kind (sanitize detail)
    channel

let write_log path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun ev ->
          output_string oc (event_to_line ev);
          output_char oc '\n')
        events)

(* Tolerant field extraction: a malformed (e.g. truncated) line is
   skipped rather than rejected, so a cut-short log replays its
   prefix. *)
let find_int line key =
  let pat = "\"" ^ key ^ "\":" in
  match
    let plen = String.length pat in
    let rec search i =
      if i + plen > String.length line then None
      else if String.sub line i plen = pat then Some (i + plen)
      else search (i + 1)
    in
    search 0
  with
  | None -> None
  | Some start ->
    let n = String.length line in
    let stop = ref start in
    if !stop < n && line.[!stop] = '-' then incr stop;
    while !stop < n && line.[!stop] >= '0' && line.[!stop] <= '9' do
      incr stop
    done;
    if !stop = start then None
    else int_of_string_opt (String.sub line start (!stop - start))

let find_str line key =
  let pat = "\"" ^ key ^ "\":\"" in
  let plen = String.length pat in
  let rec search i =
    if i + plen > String.length line then None
    else if String.sub line i plen = pat then Some (i + plen)
    else search (i + 1)
  in
  match search 0 with
  | None -> None
  | Some start -> begin
    match String.index_from_opt line start '"' with
    | None -> None
    | Some stop -> Some (String.sub line start (stop - start))
  end

let event_of_line line =
  match
    ( find_int line "seq",
      find_int line "instance",
      find_int line "epoch",
      find_int line "attempt",
      find_str line "kind" )
  with
  | Some seq, Some inst, Some epoch, Some attempt, Some kind -> begin
    let detail = Option.value ~default:"" (find_str line "detail") in
    let channel = Option.value ~default:(-1) (find_int line "channel") in
    let kind =
      match kind with
      | "commit" -> Some Ev_commit
      | "violation" -> Some (Ev_violation detail)
      | "squash" -> Some (Ev_squash detail)
      | "signal" -> Some (Ev_signal channel)
      | _ -> None
    in
    Option.map
      (fun k ->
        {
          ev_seq = seq;
          ev_instance = inst;
          ev_index = epoch;
          ev_attempt = attempt;
          ev_kind = k;
        })
      kind
  end
  | _ -> None

let read_log path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> begin
          match event_of_line line with
          | Some ev -> go (ev :: acc)
          | None -> go acc
        end
        | exception End_of_file -> List.rev acc
      in
      go [])
