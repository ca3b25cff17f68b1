(* Profiler tests: loop statistics and context-sensitive dependence
   profiling on crafted programs whose counts are known exactly. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let profile ?(input = [||]) ?(watch_all = false) src =
  let prog = Ir.Lower.compile_source src in
  let watch = if watch_all then Profiler.Runner.all_loops prog else [] in
  (prog, Profiler.Runner.run prog ~input ~watch)

let loop_keys prog = Profiler.Runner.all_loops prog

(* ------------------------------------------------------------------ *)
(* Loop statistics                                                     *)
(* ------------------------------------------------------------------ *)

let loop_counts () =
  let prog, p =
    profile
      "void main() { int i; int j; int s; for (i = 0; i < 10; i = i + 1) { \
       for (j = 0; j < 4; j = j + 1) { s = s + j; } } }"
  in
  match loop_keys prog with
  | [ a; b ] ->
    (* Outer loop has the smaller header label (lowered first). *)
    let outer, inner =
      if a.Profiler.Profile.lk_header < b.Profiler.Profile.lk_header then (a, b)
      else (b, a)
    in
    let so = Profiler.Profile.stats p outer in
    let si = Profiler.Profile.stats p inner in
    check_int "outer instances" 1 so.Profiler.Profile.instances;
    (* iterations = header arrivals: 10 trips + the exit test *)
    check_int "outer iterations" 11 so.Profiler.Profile.iterations;
    check_int "inner instances" 10 si.Profiler.Profile.instances;
    check_int "inner iterations" 50 si.Profiler.Profile.iterations;
    check_bool "outer covers inner" true
      (so.Profiler.Profile.dyn_instrs > si.Profiler.Profile.dyn_instrs);
    check_bool "coverage below 1" true (Profiler.Profile.coverage p outer <= 1.0)
  | ls -> Alcotest.fail (Printf.sprintf "expected 2 loops, got %d" (List.length ls))

let loop_in_callee_counts_per_call () =
  let prog, p =
    profile
      "int f() { int j; int s; s = 0; for (j = 0; j < 3; j = j + 1) { s = s \
       + j; } return s; } void main() { int i; for (i = 0; i < 5; i = i + \
       1) { f(); } }"
  in
  let f_loop =
    List.find
      (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func = "f")
      (loop_keys prog)
  in
  let s = Profiler.Profile.stats p f_loop in
  check_int "instances = calls" 5 s.Profiler.Profile.instances;
  check_int "iterations (3 trips + exit test, per call)" 20
    s.Profiler.Profile.iterations

let zero_trip_loop () =
  let prog, p =
    profile "void main() { int i; for (i = 0; i < 0; i = i + 1) { print(i); } }"
  in
  match loop_keys prog with
  | [ k ] ->
    let s = Profiler.Profile.stats p k in
    check_int "one instance" 1 s.Profiler.Profile.instances
  | _ -> Alcotest.fail "expected one loop"

(* ------------------------------------------------------------------ *)
(* Dependence profiling                                                *)
(* ------------------------------------------------------------------ *)

let dep_profile_of prog p =
  match loop_keys prog with
  | k :: _ -> (k, Option.get (Profiler.Profile.dep_profile p k))
  | [] -> Alcotest.fail "no loop"

let dep_every_epoch () =
  (* g is read+written every iteration: dependence in every epoch but the
     first; distance always 1. *)
  let prog, p =
    profile ~watch_all:true
      "int g; void main() { int i; for (i = 0; i < 8; i = i + 1) { g = g + \
       i; } print(g); }"
  in
  let _, dp = dep_profile_of prog p in
  check_int "epochs (8 trips + exit test)" 9 dp.Profiler.Profile.total_epochs;
  (match Profiler.Profile.frequent_deps dp ~threshold:0.5 with
  | [ d ] ->
    check_bool "bare context" true
      (d.Profiler.Profile.producer.Profiler.Profile.a_ctx = []
      && d.Profiler.Profile.consumer.Profiler.Profile.a_ctx = [])
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 dep, got %d" (List.length ds)));
  Alcotest.(check (list (pair int int))) "all distance 1" [ (1, 7) ]
    (Profiler.Profile.distance_histogram dp)

let dep_distance_two () =
  (* Even iterations write a; odd read it: consumer at distance 1.
     But writes to b at i, reads at i+2: distance 2. *)
  let prog, p =
    profile ~watch_all:true
      "int slot[2]; void main() { int i; for (i = 0; i < 10; i = i + 1) { \
       slot[i % 2] = i; if (i >= 2) { print(slot[i % 2]); } } }"
  in
  let _, dp = dep_profile_of prog p in
  (* slot[i%2] written at i is read... the read is of the value just
     written this epoch (intra-epoch), so no inter-epoch dep at all. *)
  check_int "no inter-epoch deps" 0 (Hashtbl.length dp.Profiler.Profile.dep_epochs)

let dep_real_distance_two () =
  (* slot[i%2] is read before being rewritten: its last writer is epoch
     i-2 (distance 2); the accumulator s is a distance-1 chain. *)
  let prog, p =
    profile ~watch_all:true
      "int slot[2]; int s; void main() { int i; for (i = 0; i < 10; i = i \
       + 1) { s = s + slot[i % 2]; slot[i % 2] = i; } print(s); }"
  in
  let _, dp = dep_profile_of prog p in
  let hist = Profiler.Profile.distance_histogram dp in
  check_bool "has distance-2 (slot)" true (List.exists (fun (d, _) -> d = 2) hist);
  check_bool "has distance-1 (s)" true (List.exists (fun (d, _) -> d = 1) hist);
  check_bool "nothing longer" true (List.for_all (fun (d, _) -> d <= 2) hist)

let dep_infrequent_below_threshold () =
  let prog, p =
    profile ~watch_all:true
      "int g; void main() { int i; for (i = 0; i < 100; i = i + 1) { if (i \
       % 50 == 49) { g = g + 1; } } print(g); }"
  in
  let _, dp = dep_profile_of prog p in
  check_int "rare dep not frequent at 5%" 0
    (List.length (Profiler.Profile.frequent_deps dp ~threshold:0.05));
  check_bool "but recorded" true (Hashtbl.length dp.Profiler.Profile.dep_epochs > 0)

let dep_context_sensitivity () =
  (* The same helper stores g from two different call sites; only the loop
     call site's context appears in the loop's dependence profile, and the
     two sites yield distinct contexts. *)
  let src =
    "int g;\n\
     void bump() { g = g + 1; }\n\
     void twice() { bump(); bump(); }\n\
     void main() { int i; for (i = 0; i < 6; i = i + 1) { twice(); } print(g); }"
  in
  let prog, p = profile ~watch_all:true src in
  let key =
    List.find
      (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func = "main")
      (loop_keys prog)
  in
  let dp = Option.get (Profiler.Profile.dep_profile p key) in
  let deps = Profiler.Profile.frequent_deps dp ~threshold:0.5 in
  check_bool "deps exist" true (deps <> []);
  List.iter
    (fun (d : Profiler.Profile.dep) ->
      check_int "producer ctx depth 2" 2
        (List.length d.Profiler.Profile.producer.Profiler.Profile.a_ctx);
      check_int "consumer ctx depth 2" 2
        (List.length d.Profiler.Profile.consumer.Profiler.Profile.a_ctx))
    deps;
  (* The frequent dependence crosses call sites: the producer is the
     second bump() call of the previous epoch, the consumer the first
     bump() of the next — distinct contexts for the same helper. *)
  List.iter
    (fun (d : Profiler.Profile.dep) ->
      check_bool "distinct call-site contexts" true
        (d.Profiler.Profile.producer.Profiler.Profile.a_ctx
        <> d.Profiler.Profile.consumer.Profiler.Profile.a_ctx))
    deps

let dep_contexts_per_watched_loop () =
  (* g is stored and loaded two calls below main's loop and one call
     below bump's loop, with both loops watched: each loop names the
     same accesses by the call stack rooted at itself. *)
  let src =
    "int g;\n\
     void leaf() { g = g + 1; }\n\
     void inner() { int j; for (j = 0; j < 3; j = j + 1) { leaf(); } }\n\
     void main() { int i; for (i = 0; i < 4; i = i + 1) { inner(); } \
     print(g); }"
  in
  let prog, p = profile ~watch_all:true src in
  let depths func =
    let key =
      List.find
        (fun (k : Profiler.Profile.loop_key) ->
          k.Profiler.Profile.lk_func = func)
        (loop_keys prog)
    in
    let dp = Option.get (Profiler.Profile.dep_profile p key) in
    Hashtbl.fold
      (fun (d : Profiler.Profile.dep) _ acc ->
        ( List.length d.Profiler.Profile.producer.Profiler.Profile.a_ctx,
          List.length d.Profiler.Profile.consumer.Profiler.Profile.a_ctx )
        :: acc)
      dp.Profiler.Profile.dep_epochs []
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (pair int int))) "main loop: two calls deep"
    [ (2, 2) ] (depths "main");
  Alcotest.(check (list (pair int int))) "inner loop: one call deep"
    [ (1, 1) ] (depths "inner")

let dep_loads_frequency () =
  let prog, p =
    profile ~watch_all:true
      "int g; int h; void main() { int i; int x; for (i = 0; i < 20; i = i \
       + 1) { x = g; g = i; if (i % 4 == 0) { x = x + h; h = i; } } \
       print(x); }"
  in
  let _, dp = dep_profile_of prog p in
  let freq_50 = Profiler.Profile.frequent_loads dp ~threshold:0.5 in
  let freq_10 = Profiler.Profile.frequent_loads dp ~threshold:0.10 in
  check_int "only g's load above 50%" 1 (List.length freq_50);
  check_int "both loads above 10%" 2 (List.length freq_10)

let dep_graph_dot () =
  let prog, p =
    profile ~watch_all:true
      "int g; void main() { int i; for (i = 0; i < 8; i = i + 1) { g = g + \
       i; } print(g); }"
  in
  let _, dp = dep_profile_of prog p in
  let dot = Profiler.Profile.to_dot ~threshold:0.05 dp in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec loop i = i + n <= h && (String.sub dot i n = needle || loop (i + 1)) in
    loop 0
  in
  check_bool "digraph header" true (contains "digraph dependences");
  check_bool "solid frequent edge" true (contains "style=solid");
  check_bool "percentage label" true (contains "%\"")

let profiler_preserves_output () =
  let src = "void main() { print(4); print(2); }" in
  let _, p = profile src in
  Alcotest.(check (list int)) "output" [ 4; 2 ] p.Profiler.Profile.output

(* ------------------------------------------------------------------ *)
(* Step budget                                                         *)
(* ------------------------------------------------------------------ *)

(* A non-terminating loop that loads and stores a global every trip, so
   the watched run exercises writer tracking up to the budget. *)
let spin_src = "int g; void main() { while (1) { g = g + 1; } }"

let step_limit_icount ~watch_all =
  let prog = Ir.Lower.compile_source spin_src in
  let watch = if watch_all then Profiler.Runner.all_loops prog else [] in
  match Profiler.Runner.run ~max_steps:1000 prog ~input:[||] ~watch with
  | _ -> Alcotest.fail "profiler finished a non-terminating program"
  | exception Profiler.Runner.Step_limit { max_steps; icount } ->
    check_int "max_steps" 1000 max_steps;
    icount

let step_limit_parity () =
  let prog = Ir.Lower.compile_source spin_src in
  let code = Runtime.Code.of_prog prog in
  let boxed =
    match
      Runtime.Thread.run_sequential ~max_steps:1000 code ~input:[||]
        (Runtime.Memory.create ())
    with
    | _ -> Alcotest.fail "run_sequential finished a non-terminating program"
    | exception Runtime.Thread.Step_limit { icount; _ } -> icount
  in
  check_int "boxed icount" 1001 boxed;
  check_int "unwatched icount" boxed (step_limit_icount ~watch_all:false);
  check_int "watched icount" boxed (step_limit_icount ~watch_all:true)

let () =
  Alcotest.run "profiler"
    [
      ( "loops",
        [
          Alcotest.test_case "counts" `Quick loop_counts;
          Alcotest.test_case "callee per-call" `Quick loop_in_callee_counts_per_call;
          Alcotest.test_case "zero trip" `Quick zero_trip_loop;
        ] );
      ( "dependences",
        [
          Alcotest.test_case "every epoch" `Quick dep_every_epoch;
          Alcotest.test_case "intra-epoch excluded" `Quick dep_distance_two;
          Alcotest.test_case "distance two" `Quick dep_real_distance_two;
          Alcotest.test_case "threshold" `Quick dep_infrequent_below_threshold;
          Alcotest.test_case "context sensitivity" `Quick dep_context_sensitivity;
          Alcotest.test_case "contexts per watched loop" `Quick
            dep_contexts_per_watched_loop;
          Alcotest.test_case "load frequency" `Quick dep_loads_frequency;
          Alcotest.test_case "output preserved" `Quick profiler_preserves_output;
          Alcotest.test_case "dependence graph DOT" `Quick dep_graph_dot;
        ] );
      ( "budget",
        [ Alcotest.test_case "step limit parity" `Quick step_limit_parity ] );
    ]
