module Iid_set = Set.Make (Int)

type oracle_mode =
  | Oracle_none
  | Oracle_all
  | Oracle_set of Iid_set.t

type forward_timing = Forward_normal | Forward_perfect | Forward_at_commit

type sim_fault =
  | Corrupt_addr of int
  | Corrupt_value of int
  | Delay_signal of { nth : int; extra : int }
  | Spurious_violation of int
  | Drop_wakeup of int

type overflow_policy = Overflow_stall | Overflow_squash

type engine = Engine_ref | Engine_event

type t = {
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
  l2_hit : int;
  mem_lat : int;
  spawn_overhead : int;
  commit_overhead : int;
  forward_latency : int;
  violation_penalty : int;
  epoch_max_instrs : int;
  max_restarts_before_hold : int;
  stall_compiler_sync : bool;
  hw_sync_stall : bool;
  hw_value_predict : bool;
  hw_skip_compiler_synced : bool;
  filter_useless_sync : bool;
  filter_window : int;
  hw_table_size : int;
  hw_reset_interval : int;
  vpred_confidence : int;
  vpred_stride : bool;
  word_level_tracking : bool;
  oracle : oracle_mode;
  forward_timing : forward_timing;
  sim_faults : sim_fault list;
  watchdog_window : int;
  protocol_checks : bool;
  max_cycles : int;
  sig_buffer_entries : int;
  spec_lines_per_epoch : int;
  fwd_queue_depth : int;
  overflow_policy : overflow_policy;
  engine : engine;
}

let default =
  {
    num_procs = 4;
    issue_width = 4;
    lat_mul = 3;
    lat_div = 12;
    line_words = 8;            (* 32B lines, 4B words *)
    l1_sets = 512;             (* 32KB, 2-way *)
    l1_ways = 2;
    l1_hit = 1;
    l2_sets = 16384;           (* 2MB, 4-way *)
    l2_ways = 4;
    l2_hit = 10;
    mem_lat = 75;
    spawn_overhead = 10;
    commit_overhead = 5;
    forward_latency = 10;
    violation_penalty = 25;
    epoch_max_instrs = 200_000;
    max_restarts_before_hold = 3;
    stall_compiler_sync = true;
    hw_sync_stall = false;
    hw_value_predict = false;
    hw_skip_compiler_synced = false;
    filter_useless_sync = false;
    filter_window = 16;
    hw_table_size = 32;
    hw_reset_interval = 20_000;
    vpred_confidence = 2;
    vpred_stride = false;
    word_level_tracking = false;
    oracle = Oracle_none;
    forward_timing = Forward_normal;
    sim_faults = [];
    watchdog_window = 50_000;
    protocol_checks = true;
    max_cycles = 2_000_000_000;
    sig_buffer_entries = max_int;
    spec_lines_per_epoch = max_int;
    fwd_queue_depth = max_int;
    overflow_policy = Overflow_stall;
    engine = Engine_event;
  }

let u_mode = { default with stall_compiler_sync = false }
let c_mode = default
let h_mode = { default with stall_compiler_sync = false; hw_sync_stall = true }
let p_mode =
  { default with stall_compiler_sync = false; hw_value_predict = true }
let b_mode = { default with stall_compiler_sync = true; hw_sync_stall = true }

let bplus_mode =
  {
    b_mode with
    hw_skip_compiler_synced = true;
    filter_useless_sync = true;
  }

let describe t =
  let line_bytes = t.line_words * 4 in
  let kb sets ways = sets * ways * line_bytes / 1024 in
  String.concat "\n"
    [
      "Pipeline Parameters";
      Printf.sprintf "  Issue Width                 %d" t.issue_width;
      Printf.sprintf "  Integer Multiply            %d cycles" t.lat_mul;
      Printf.sprintf "  Integer Divide              %d cycles" t.lat_div;
      "  All Other Integer           1 cycle";
      "Memory Parameters";
      Printf.sprintf "  Cache Line Size             %dB" line_bytes;
      Printf.sprintf "  Data Cache                  %dKB, %d-way set-assoc"
        (kb t.l1_sets t.l1_ways) t.l1_ways;
      Printf.sprintf "  Unified Secondary Cache     %dKB, %d-way set-assoc"
        (kb t.l2_sets t.l2_ways) t.l2_ways;
      Printf.sprintf "  Miss Latency to Secondary   %d cycles" t.l2_hit;
      Printf.sprintf "  Miss Latency to Memory      %d cycles" t.mem_lat;
      "TLS Parameters";
      Printf.sprintf "  Processors                  %d" t.num_procs;
      Printf.sprintf "  Epoch Spawn Overhead        %d cycles" t.spawn_overhead;
      Printf.sprintf "  Commit Overhead             %d cycles" t.commit_overhead;
      Printf.sprintf "  Forwarding Latency          %d cycles" t.forward_latency;
      Printf.sprintf "  Violation Penalty           %d cycles" t.violation_penalty;
      Printf.sprintf "  HW Sync Table               %d entries, reset every %d cycles"
        t.hw_table_size t.hw_reset_interval;
    ]
