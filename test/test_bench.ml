(* The bench JSON schema: emitter and validator must agree (roundtrip),
   and the validator must reject documents that drift from the schema —
   wrong version, wrong units, a workload missing a phase, a sim phase
   without its cycle count, malformed matrix fields. *)

let check_bool = Alcotest.(check bool)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = find_sub s sub <> None

let phase ?cycles ?ref_wall ?commits ?aborts ?(wall = 1_000) name =
  {
    Harness.Bench.ph_name = name;
    ph_wall_ns = wall;
    ph_ref_wall_ns = ref_wall;
    ph_minor_words = 10.0;
    ph_major_words = 2.0;
    ph_cycles = cycles;
    ph_commits = commits;
    ph_aborts = aborts;
  }

let serve_phase ?(requests = 10) ?(completed = 10) ?(shed = 0) ?(degraded = 0)
    ?(hits = 5) ?(misses = 5) ?(p50 = 100) ?(p99 = 900) name =
  {
    Harness.Bench.sv_name = name;
    sv_requests = requests;
    sv_completed = completed;
    sv_shed = shed;
    sv_degraded = degraded;
    sv_cache_hits = hits;
    sv_cache_misses = misses;
    sv_wall_ns = 10_000;
    sv_p50_ns = p50;
    sv_p99_ns = p99;
  }

let serve_phases =
  [
    serve_phase ~hits:0 ~misses:10 "serve_cold";
    serve_phase ~hits:10 ~misses:0 "serve_warm";
    serve_phase ~requests:20 ~completed:10 ~shed:10 "serve_burst";
  ]

let doc ?matrix ?(serve = []) () =
  {
    Harness.Bench.bench_schema_version = Harness.Bench.schema_version;
    bench_workloads =
      [
        {
          Harness.Bench.wb_name = "toy";
          wb_phases =
            List.map
              (fun n ->
                if List.mem n Harness.Bench.dual_engine_phase_names then
                  phase ~cycles:42 ~ref_wall:5_000 n
                else if n = Harness.Bench.exec_phase_name then
                  phase ~commits:7 ~aborts:3 n
                else if String.length n >= 4 && String.sub n 0 4 = "sim_" then
                  phase ~cycles:42 n
                else phase n)
              Harness.Bench.phase_names;
        };
      ];
    bench_matrix = matrix;
    bench_serve = serve;
  }

let matrix =
  {
    Harness.Bench.mx_name = "chaos";
    mx_cells = 12;
    mx_jobs = 4;
    mx_serial_wall_ns = 5_000;
    mx_parallel_wall_ns = 3_000;
  }

let roundtrip_validates () =
  (match Harness.Bench.validate_string (Harness.Bench.to_json (doc ())) with
  | Ok summary ->
    check_bool "summary mentions workload" true
      (String.length summary > 0
      && contains summary "toy")
  | Error msg -> Alcotest.fail ("roundtrip rejected: " ^ msg));
  match
    Harness.Bench.validate_string (Harness.Bench.to_json (doc ~matrix ()))
  with
  | Ok summary ->
    check_bool "summary mentions matrix" true
      (contains summary "matrix chaos")
  | Error msg -> Alcotest.fail ("matrix roundtrip rejected: " ^ msg)

let serve_roundtrip_validates () =
  match
    Harness.Bench.validate_string
      (Harness.Bench.to_json (doc ~matrix ~serve:serve_phases ()))
  with
  | Ok summary ->
    List.iter
      (fun name ->
        check_bool ("summary mentions " ^ name) true (contains summary name))
      Harness.Bench.serve_phase_names;
    check_bool "summary pins burst shedding" true
      (contains summary "shed=10")
  | Error msg -> Alcotest.fail ("serve roundtrip rejected: " ^ msg)

(* Corrupt one aspect of a valid document and check the validator names
   the right field. *)
let rejects label mangle needle =
  let json = mangle (Harness.Bench.to_json (doc ~matrix ())) in
  match Harness.Bench.validate_string json with
  | Ok _ -> Alcotest.fail (label ^ ": expected a schema violation")
  | Error msg ->
    check_bool
      (Printf.sprintf "%s: error %S mentions %S" label msg needle)
      true
      (contains msg needle)

let replace ~from ~into s =
  match find_sub s from with
  | None -> Alcotest.fail ("replace: " ^ from ^ " not present")
  | Some i ->
    String.sub s 0 i ^ into
    ^ String.sub s
        (i + String.length from)
        (String.length s - i - String.length from)

let schema_violations_are_rejected () =
  rejects "wrong version"
    (replace
       ~from:
         (Printf.sprintf "\"schema_version\": %d" Harness.Bench.schema_version)
       ~into:"\"schema_version\": 2")
    "schema_version";
  rejects "wrong wall unit"
    (replace ~from:"\"wall\": \"ns\"" ~into:"\"wall\": \"ms\"")
    "units.wall";
  rejects "missing phase"
    (replace
       ~from:"{ \"phase\": \"lower\", \"wall_ns\": 1000, \"minor_words\": 10, \
              \"major_words\": 2 },\n"
       ~into:"")
    "lower";
  rejects "sim phase without cycles"
    (replace
       ~from:"\"major_words\": 2, \"cycles\": 42 }"
       ~into:"\"major_words\": 2 }")
    "cycles";
  rejects "exec phase without commits"
    (replace ~from:", \"commits\": 7" ~into:"")
    "commits";
  rejects "exec phase without aborts"
    (replace ~from:", \"aborts\": 3" ~into:"")
    "aborts";
  rejects "negative aborts"
    (replace ~from:"\"aborts\": 3" ~into:"\"aborts\": -1")
    "aborts";
  rejects "commits on a sim phase"
    (replace
       ~from:"\"phase\": \"sim_seq\", \"wall_ns\": 1000"
       ~into:"\"phase\": \"sim_seq\", \"wall_ns\": 1000, \"commits\": 7")
    "must not carry commits";
  rejects "cycles on the exec phase"
    (replace
       ~from:"\"phase\": \"exec_tls\", \"wall_ns\": 1000"
       ~into:"\"phase\": \"exec_tls\", \"wall_ns\": 1000, \"cycles\": 42")
    "must not carry cycles";
  rejects "tls phase without ref_wall_ns"
    (replace ~from:", \"ref_wall_ns\": 5000" ~into:"")
    "ref_wall_ns";
  rejects "negative ref_wall_ns"
    (replace ~from:"\"ref_wall_ns\": 5000" ~into:"\"ref_wall_ns\": -1")
    "ref_wall_ns";
  rejects "ref_wall_ns on a single-engine phase"
    (replace
       ~from:"\"phase\": \"sim_seq\", \"wall_ns\": 1000"
       ~into:"\"phase\": \"sim_seq\", \"wall_ns\": 1000, \"ref_wall_ns\": 900")
    "must not carry ref_wall_ns";
  rejects "negative wall time"
    (replace ~from:"\"wall_ns\": 1000" ~into:"\"wall_ns\": -5")
    "wall_ns";
  rejects "bad matrix cells"
    (replace ~from:"\"cells\": 12" ~into:"\"cells\": 0")
    "matrix.cells";
  rejects "matrix missing jobs"
    (replace ~from:"\"jobs\": 4, " ~into:"")
    "matrix.jobs";
  rejects "not json" (fun _ -> "{ nope") "parse error";
  rejects "empty workloads"
    (fun _ ->
      Harness.Bench.to_json
        { (doc ()) with Harness.Bench.bench_workloads = [] })
    "workloads"

(* Same idea, against a document carrying the v6 serve section. *)
let serve_rejects label mangle needle =
  let json =
    mangle (Harness.Bench.to_json (doc ~matrix ~serve:serve_phases ()))
  in
  match Harness.Bench.validate_string json with
  | Ok _ -> Alcotest.fail (label ^ ": expected a schema violation")
  | Error msg ->
    check_bool
      (Printf.sprintf "%s: error %S mentions %S" label msg needle)
      true (contains msg needle)

let serve_violations_are_rejected () =
  serve_rejects "unknown serve phase"
    (replace ~from:"\"phase\": \"serve_cold\"" ~into:"\"phase\": \"serve_hot\"")
    "serve_hot";
  serve_rejects "shed accounting broken"
    (fun _ ->
      Harness.Bench.to_json
        (doc ~matrix
           ~serve:
             [
               serve_phase ~hits:0 ~misses:10 "serve_cold";
               serve_phase ~hits:10 ~misses:0 "serve_warm";
               serve_phase ~requests:20 ~completed:10 ~shed:5 "serve_burst";
             ]
           ()))
    "must equal requests";
  serve_rejects "hits exceed completed"
    (fun _ ->
      Harness.Bench.to_json
        (doc ~matrix
           ~serve:
             [
               serve_phase ~hits:11 ~misses:0 "serve_cold";
               serve_phase ~hits:10 ~misses:0 "serve_warm";
               serve_phase ~requests:20 ~completed:10 ~shed:10 "serve_burst";
             ]
           ())) "cache_hits";
  serve_rejects "p50 above p99"
    (fun _ ->
      Harness.Bench.to_json
        (doc ~matrix
           ~serve:
             [
               serve_phase ~p50:900 ~p99:100 ~hits:0 ~misses:10 "serve_cold";
               serve_phase ~hits:10 ~misses:0 "serve_warm";
               serve_phase ~requests:20 ~completed:10 ~shed:10 "serve_burst";
             ]
           ())) "p50_ns";
  serve_rejects "missing serve phase"
    (fun _ ->
      Harness.Bench.to_json
        (doc ~matrix ~serve:[ serve_phase ~hits:0 ~misses:10 "serve_cold" ] ()))
    "missing phase";
  serve_rejects "negative count"
    (replace ~from:"\"shed\": 10" ~into:"\"shed\": -1")
    "shed"

(* A truncated baseline — the exact artifact a crashed writer without
   the atomic rename would leave — must be rejected, at any cut point. *)
let truncated_is_rejected () =
  let full = Harness.Bench.to_json (doc ~matrix ~serve:serve_phases ()) in
  List.iter
    (fun frac ->
      let cut = String.length full * frac / 100 in
      let truncated = String.sub full 0 cut in
      match Harness.Bench.validate_string truncated with
      | Ok _ ->
        Alcotest.fail
          (Printf.sprintf "truncation at %d%% (%d bytes) validated" frac cut)
      | Error _ -> ())
    [ 10; 50; 90; 99 ]

(* ------------------------------------------------------------------ *)
(* Perf-regression gate (mrvcc benchdiff / the CI perf gate)           *)
(* ------------------------------------------------------------------ *)

let gate ?(tolerance = 0.5) old_s new_s =
  Harness.Bench.compare_strings ~tolerance old_s new_s

let gate_passes_identical_baselines () =
  let j = Harness.Bench.to_json (doc ~matrix ~serve:serve_phases ()) in
  match gate j j with
  | Ok report ->
    check_bool "report shows per-phase table" true (contains report "sim_tls");
    check_bool "no regressions flagged" false (contains report "REGRESSION")
  | Error report -> Alcotest.fail ("identical baselines rejected: " ^ report)

let gate_tolerates_noise () =
  let old_j = Harness.Bench.to_json (doc ~matrix ()) in
  (* +40% on one wall is inside the +50% tolerance. *)
  let new_j =
    replace
      ~from:"\"phase\": \"sim_tls\", \"wall_ns\": 1000"
      ~into:"\"phase\": \"sim_tls\", \"wall_ns\": 1400" old_j
  in
  match gate old_j new_j with
  | Ok _ -> ()
  | Error report -> Alcotest.fail ("noise within tolerance rejected: " ^ report)

let gate_fails_on_injected_wall_regression () =
  let old_j = Harness.Bench.to_json (doc ~matrix ()) in
  let new_j =
    replace
      ~from:"\"phase\": \"sim_tls\", \"wall_ns\": 1000"
      ~into:"\"phase\": \"sim_tls\", \"wall_ns\": 9000" old_j
  in
  (match gate old_j new_j with
  | Ok report -> Alcotest.fail ("9x wall regression passed the gate: " ^ report)
  | Error report ->
    check_bool "regression named in report" true (contains report "REGRESSION");
    check_bool "offending phase named" true (contains report "sim_tls"));
  (* The ref-oracle wall is gated too. *)
  let new_j =
    replace ~from:"\"ref_wall_ns\": 5000" ~into:"\"ref_wall_ns\": 50000"
      old_j
  in
  match gate old_j new_j with
  | Ok report ->
    Alcotest.fail ("ref-oracle wall regression passed the gate: " ^ report)
  | Error report ->
    check_bool "ref_wall regression flagged" true
      (contains report "ref_wall geomean regressed")

let gate_fails_on_counter_drift () =
  let old_j = Harness.Bench.to_json (doc ~matrix ()) in
  (* Simulated cycle counts are deterministic: ANY drift fails, no
     tolerance applies. *)
  let new_j = replace ~from:"\"cycles\": 42" ~into:"\"cycles\": 43" old_j in
  (match gate new_j old_j with
  | Ok _ -> Alcotest.fail "cycle drift passed the gate"
  | Error report ->
    check_bool "counter drift named" true
      (contains report "deterministic counter changed"));
  let new_j = replace ~from:"\"commits\": 7" ~into:"\"commits\": 8" old_j in
  match gate old_j new_j with
  | Ok _ -> Alcotest.fail "commit drift passed the gate"
  | Error report ->
    check_bool "commit drift named" true (contains report "commits")

let gate_rejects_malformed_input () =
  let ok = Harness.Bench.to_json (doc ~matrix ()) in
  (match gate "{ nope" ok with
  | Ok _ -> Alcotest.fail "malformed old baseline accepted"
  | Error msg -> check_bool "parse error surfaced" true
      (contains msg "parse error"));
  match gate ok (String.sub ok 0 (String.length ok / 2)) with
  | Ok _ -> Alcotest.fail "truncated new baseline accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Atomic baseline writes                                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_temp_target f =
  let path = Filename.temp_file "bench_atomic" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (path
        :: List.map
             (Filename.concat (Filename.dirname path))
             (Array.to_list (Sys.readdir (Filename.dirname path))
             |> List.filter (fun n ->
                    String.length n > String.length (Filename.basename path)
                    && String.sub n 0 (String.length (Filename.basename path))
                       = Filename.basename path))))
    (fun () -> f path)

let atomic_write_roundtrip () =
  with_temp_target (fun path ->
      Harness.Bench.write_file_atomic path "first\n";
      Alcotest.(check string) "first write lands" "first\n" (read_file path);
      Harness.Bench.write_file_atomic path "second\n";
      Alcotest.(check string) "overwrite replaces" "second\n" (read_file path);
      let dir = Filename.dirname path and base = Filename.basename path in
      let strays =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun n ->
               String.length n > String.length base
               && String.sub n 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "no temp files left" [] strays)

(* Kill a writer between the temp write and the rename: the reader must
   still see the complete old contents (never a truncated or partial
   file), which is the whole point of write-then-rename. *)
let atomic_write_survives_kill () =
  with_temp_target (fun path ->
      Harness.Bench.write_file_atomic path "old baseline\n";
      match Unix.fork () with
      | 0 ->
        (* Child: start the new write but block before the rename until
           SIGKILL arrives.  _exit, not exit: no at_exit/flush side
           effects in the forked runtime. *)
        (try
           Harness.Bench.write_file_atomic path
             ~before_rename:(fun () -> Unix.sleepf 30.0)
             "new baseline\n"
         with _ -> ());
        Unix._exit 0
      | pid ->
        let tmp = Printf.sprintf "%s.tmp.%d" path pid in
        (* Wait for the child to finish the temp write (it then blocks in
           before_rename), but never longer than ~5s. *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        while
          (not (Sys.file_exists tmp)) && Unix.gettimeofday () < deadline
        do
          Unix.sleepf 0.01
        done;
        Alcotest.(check bool) "writer reached the temp file" true
          (Sys.file_exists tmp);
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.(check string) "old contents survive a mid-write kill"
          "old baseline\n" (read_file path);
        (try Sys.remove tmp with Sys_error _ -> ()))

let () =
  Alcotest.run "bench-schema"
    [
      ( "schema",
        [
          Alcotest.test_case "emitter/validator roundtrip" `Quick
            roundtrip_validates;
          Alcotest.test_case "serve section roundtrip" `Quick
            serve_roundtrip_validates;
          Alcotest.test_case "violations rejected with field names" `Quick
            schema_violations_are_rejected;
          Alcotest.test_case "serve violations rejected" `Quick
            serve_violations_are_rejected;
          Alcotest.test_case "truncated document rejected" `Quick
            truncated_is_rejected;
        ] );
      ( "benchdiff",
        [
          Alcotest.test_case "identical baselines pass" `Quick
            gate_passes_identical_baselines;
          Alcotest.test_case "noise within tolerance passes" `Quick
            gate_tolerates_noise;
          Alcotest.test_case "injected wall regression fails" `Quick
            gate_fails_on_injected_wall_regression;
          Alcotest.test_case "deterministic counter drift fails" `Quick
            gate_fails_on_counter_drift;
          Alcotest.test_case "malformed input rejected" `Quick
            gate_rejects_malformed_input;
        ] );
      ( "atomic-write",
        [
          Alcotest.test_case "write and overwrite, no strays" `Quick
            atomic_write_roundtrip;
          Alcotest.test_case "kill mid-write keeps the old file" `Quick
            atomic_write_survives_kill;
        ] );
    ]
