(** Simulator configuration: the machine of Table 1 plus the experiment
    mode knobs used across the paper's figures. *)

module Iid_set : Set.S with type elt = int

(** Which loads receive perfect (sequential) values — the paper's limit
    studies: [Oracle_all] is Figure 2's O bars; [Oracle_set] is Figure 6's
    frequency-threshold study and Figure 9's E bars. *)
type oracle_mode =
  | Oracle_none
  | Oracle_all
  | Oracle_set of Iid_set.t

(** Timing of compiler-forwarded values (Figure 9):
    [Forward_normal] — signal/wait over the interconnect;
    [Forward_perfect] (E) — consumers never stall and receive the correct
    value; [Forward_at_commit] (L) — synchronized loads stall until the
    previous epoch commits. *)
type forward_timing = Forward_normal | Forward_perfect | Forward_at_commit

(** Simulator-level fault injections (the chaos harness, DESIGN §11).
    Counting is per-simulation and deterministic: "the [n]th memory
    signal" means the [n]th dynamic [Signal_mem]/[Signal_mem_if_unsent]
    whose payload is actually sent, 0-based.

    - [Corrupt_addr n]: the [n]th memory signal forwards a garbage
      address.  Absorbable — consumers fail the address check, fall back
      to speculative loads, and violation detection covers them.
    - [Corrupt_value n]: the value of the [n]th memory signal is detected
      as corrupt before the address check and the payload degrades to a
      NULL signal (unblocks the consumer, forwards nothing).  Absorbable.
    - [Delay_signal { nth; extra }]: delivery of the [nth] memory signal
      is delayed by [extra] additional cycles.  Absorbable (finite delay).
    - [Spurious_violation n]: the epoch committing [n]th (0-based) is
      squashed once just before it would commit.  Absorbable — re-running
      an epoch must be idempotent.
    - [Drop_wakeup n]: the [n]th blocking wait on a memory channel never
      gets woken even though the signal arrives.  Detectable — the
      watchdog must raise {e Stuck}. *)
type sim_fault =
  | Corrupt_addr of int
  | Corrupt_value of int
  | Delay_signal of { nth : int; extra : int }
  | Spurious_violation of int
  | Drop_wakeup of int

(** What happens when an epoch's speculative state exceeds
    [spec_lines_per_epoch] (DESIGN §12):
    - [Overflow_stall]: the epoch stalls until it is the oldest (and thus
      free to touch memory non-speculatively), mirroring designs that park
      an overflowing context — e.g. Prophet's buffer-full stall.
    - [Overflow_squash]: the epoch is squashed and restarted with
      [hold_until_oldest] set, discarding the oversized footprint.
    Both are absorbable: sequential equivalence is preserved. *)
type overflow_policy = Overflow_stall | Overflow_squash

(** Which simulator core executes the run.  Both engines are required to
    produce byte-identical observables ({!Simstats.fingerprint}, typed
    errors, per-channel counters, resource peaks); [Engine_ref] is the
    cycle-stepped oracle, [Engine_event] the event-queue core that skips
    to the next interesting cycle (DESIGN §15). *)
type engine = Engine_ref | Engine_event

type t = {
  (* Machine (Table 1). *)
  num_procs : int;
  issue_width : int;
  lat_mul : int;
  lat_div : int;
  line_words : int;
  l1_sets : int;
  l1_ways : int;
  l1_hit : int;
  l2_sets : int;
  l2_ways : int;
  l2_hit : int;               (* minimum miss latency to secondary cache *)
  mem_lat : int;              (* minimum miss latency to local memory *)
  (* TLS mechanism costs. *)
  spawn_overhead : int;       (* cycles before a spawned epoch may run *)
  commit_overhead : int;      (* serialized commit cost *)
  forward_latency : int;      (* signal -> wait communication delay *)
  violation_penalty : int;    (* squash/restart cost *)
  epoch_max_instrs : int;     (* runaway-speculation cap *)
  max_restarts_before_hold : int;  (* after this many squashes, wait to be
                                      the oldest epoch before re-running *)
  (* Experiment modes. *)
  stall_compiler_sync : bool; (* honor Wait_mem/Sync_load/Signal_mem *)
  hw_sync_stall : bool;       (* [25]: stall table-marked loads *)
  hw_value_predict : bool;    (* [25]: predict table-marked loads *)
  (* The paper's §4.2 hybrid enhancements ("future work", implemented): *)
  hw_skip_compiler_synced : bool;
      (* coordinated hybrid: the hardware never stalls loads the compiler
         already synchronizes, trusting the forwarded value *)
  filter_useless_sync : bool;
      (* the hardware filters out compiler-inserted synchronization that
         rarely forwards a matching value: after [filter_window] waits on
         a channel with a match rate below 1/4, consumers stop stalling *)
  filter_window : int;
  hw_table_size : int;
  hw_reset_interval : int;    (* cycles between violating-loads resets *)
  vpred_confidence : int;     (* confidence needed to use a prediction *)
  vpred_stride : bool;        (* stride predictor instead of last-value *)
  word_level_tracking : bool;
      (* track speculative reads/writes at word rather than cache-line
         granularity, as the per-word access bits of Cintra & Torrellas [8]
         allow: false sharing then never violates (ablation knob) *)
  oracle : oracle_mode;
  forward_timing : forward_timing;
  (* Robustness harness. *)
  sim_faults : sim_fault list;     (* injected faults (normally []) *)
  watchdog_window : int;           (* cycles without graduation or commit
                                      before the simulator raises Stuck *)
  protocol_checks : bool;
      (* dynamic sync-protocol checks, e.g. a Sync_load consuming a
         channel no Wait_mem ever waited on raises Stuck rather than
         silently degrading to a speculative load *)
  max_cycles : int;
      (* cycle budget of a single {!Sim.run} / {!Sim.run_sequential};
         exceeding it raises {e Cycle_limit}.  The chaos and bench
         harnesses tighten it uniformly through this knob. *)
  (* Finite-hardware resource model (DESIGN §12).  The defaults are
     [max_int], i.e. today's effectively-unbounded structures; finite
     values enable graceful degradation, never divergence. *)
  sig_buffer_entries : int;
      (* producer-side signal address buffer capacity (distinct channels
         with a pending non-NULL forwarded address).  On overflow the
         signal degrades to NULL: the consumer unblocks without a value
         and falls back to a violation-protected speculative load
         (absorbable, like [Corrupt_value]). *)
  spec_lines_per_epoch : int;
      (* cache lines of speculative state (exposed reads + writes) a
         non-oldest epoch may track before [overflow_policy] applies.
         The oldest epoch is exempt — it is homefree and can always
         drain, which guarantees forward progress. *)
  fwd_queue_depth : int;
      (* forwarding-queue entries between an epoch and its successor:
         signals posted but not yet consumed.  A full queue applies
         backpressure (the producer stalls before issuing the signal); a
         backpressure cycle raises the typed {e Resource_deadlock} rather
         than hanging, with the watchdog as backstop. *)
  overflow_policy : overflow_policy;
  engine : engine;
}

(** The machine of Table 1 with compiler synchronization honored and all
    hardware mechanisms off (the paper's C configuration; clear
    [stall_compiler_sync] for U). *)
val default : t

(** Named configurations matching the paper's bar labels. *)
val u_mode : t   (* no memory sync stalls *)
val c_mode : t   (* compiler-inserted sync *)
val h_mode : t   (* hardware-inserted sync *)
val p_mode : t   (* hardware value prediction *)
val b_mode : t   (* hybrid: compiler + hardware *)

(** The enhanced hybrid of the paper's §4.2 suggestions (iii)/(iv):
    hardware skips compiler-synchronized loads and filters rarely-useful
    compiler synchronization. *)
val bplus_mode : t

(** Render the Table 1 parameter block. *)
val describe : t -> string
