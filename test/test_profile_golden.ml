(* Golden pin of the instrumented profiler.

   For every bundled workload and Proggen seeds 1-100 this prints one
   line of digests, diffed against test_profile_golden.expected:

   - [loop]: the train loop profile [Pipeline.compile] selects regions
     from (nothing watched);
   - [dep]:  the ref dependence profile over the selected, unrolled
     loops, re-run on a reference rebuilt from the compile's own
     selection and unroll factors (and checked equal to the profiles the
     compile consumed);
   - [all]:  the original program on ref with every loop watched;
   - [art]:  [Pipeline.artifact_digest] of the compiled program.

   Each profile digest is a pair: an MD5 of a canonical sorted dump of
   the whole [Profile.t], then an MD5 of the same dump in [Hashtbl]
   iteration order.  Consumers iterate those tables, so the second
   digest pins insertion order as well as contents.

   Every profile run is also checked against the boxed sequential
   evaluator: [Profile.output] must equal [Runtime.Thread.run_sequential]'s
   output and [total_instrs] the boxed thread's [icount].  A mismatch
   exits 1. *)

module P = Profiler.Profile

let md5 s = Digest.to_hex (Digest.string s)

let access_str (a : P.access) =
  Printf.sprintf "%d[%s]" a.P.a_iid
    (String.concat ">" (List.map string_of_int a.P.a_ctx))

let dep_str (d : P.dep) =
  access_str d.P.producer ^ "->" ^ access_str d.P.consumer

let key_str (k : P.loop_key) = Printf.sprintf "%s:%d" k.P.lk_func k.P.lk_header

(* Table bindings in iteration order, or sorted by key. *)
let bindings ~sorted tbl =
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.rev in
  if sorted then List.sort (fun (a, _) (b, _) -> compare a b) l else l

let dump_dep ~sorted (dp : P.dep_profile) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  line "  epochs %d" dp.P.total_epochs;
  List.iter
    (fun (d, c) -> line "  dep %s %d" (dep_str d) c)
    (bindings ~sorted dp.P.dep_epochs);
  List.iter
    (fun (a, c) -> line "  load %s %d" (access_str a) c)
    (bindings ~sorted dp.P.load_dep_epochs);
  List.iter
    (fun (d, c) -> line "  dist %d %d" d c)
    (bindings ~sorted dp.P.distances);
  Buffer.contents buf

let dump ~sorted (p : P.t) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  List.iter
    (fun (k, (s : P.loop_stats)) ->
      line "loop %s inst=%d iter=%d dyn=%d nested=%d" (key_str k)
        s.P.instances s.P.iterations s.P.dyn_instrs s.P.nested_instances)
    (bindings ~sorted p.P.loops);
  List.iter
    (fun (k, dp) ->
      line "deps %s" (key_str k);
      Buffer.add_string buf (dump_dep ~sorted dp))
    (bindings ~sorted p.P.deps);
  line "instrs %d" p.P.total_instrs;
  line "output %s" (String.concat "," (List.map string_of_int p.P.output));
  Buffer.contents buf

let digests p =
  String.sub (md5 (dump ~sorted:true p)) 0 16
  ^ "/"
  ^ String.sub (md5 (dump ~sorted:false p)) 0 16

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("FAIL " ^ s))
    fmt

(* The boxed sequential evaluator: its output via [run_sequential], and
   its instruction count by stepping a fresh boxed thread under the same
   sequential hooks. *)
let boxed_oracle prog ~input =
  let code = Runtime.Code.of_prog prog in
  let output =
    Runtime.Thread.run_sequential code ~input (Runtime.Memory.create ())
  in
  let mem = Runtime.Memory.create () in
  Runtime.Memory.store_all mem code.Runtime.Code.initial_stores;
  let hooks = Runtime.Thread.sequential_hooks mem in
  let t = Runtime.Thread.create code ~func_name:"main" ~input in
  let rec go () =
    match Runtime.Thread.step t hooks with
    | Runtime.Thread.Ran _ -> go ()
    | Runtime.Thread.Finished _ -> ()
    | Runtime.Thread.Blocked | Runtime.Thread.Suspended ->
      failwith "boxed oracle: sequential thread stopped"
  in
  go ();
  (output, t.Runtime.Thread.icount)

let profile_checked name what prog ~input ~watch =
  let p = Profiler.Runner.run prog ~input ~watch in
  let output, icount = boxed_oracle prog ~input in
  if p.P.output <> output then
    fail "%s %s: output differs from run_sequential" name what;
  if p.P.total_instrs <> icount then
    fail "%s %s: total_instrs %d, boxed icount %d" name what p.P.total_instrs
      icount;
  p

let pin name ~source ~train ~ref_input =
  let c =
    Tlscore.Pipeline.compile ~source ~profile_input:train
      ~memory_sync:
        (Tlscore.Pipeline.Profiled { dep_input = ref_input; threshold = 0.05 })
      ()
  in
  let loop =
    profile_checked name "loop" (Tlscore.Pipeline.original ~source)
      ~input:train ~watch:[]
  in
  if dump ~sorted:false loop
     <> dump ~sorted:false c.Tlscore.Pipeline.loop_profile
  then fail "%s: loop profile differs from the compile's" name;
  let reference = Tlscore.Pipeline.original ~source in
  List.iter
    (fun (key, factor) ->
      if factor > 1 then ignore (Tlscore.Unroll.apply reference key ~factor))
    c.Tlscore.Pipeline.unroll_factors;
  let selected = c.Tlscore.Pipeline.selected in
  let dep =
    profile_checked name "dep" reference ~input:ref_input ~watch:selected
  in
  List.iter
    (fun (key, dp) ->
      let mine = Option.map (dump_dep ~sorted:false) (P.dep_profile dep key) in
      if mine <> Some (dump_dep ~sorted:false dp) then
        fail "%s: dependence profile of %s differs from the compile's" name
          (key_str key))
    c.Tlscore.Pipeline.dep_profiles;
  let original = Tlscore.Pipeline.original ~source in
  let all =
    profile_checked name "all" original ~input:ref_input
      ~watch:(Profiler.Runner.all_loops original)
  in
  Printf.printf "%s loop=%s dep=%s all=%s art=%s\n" name (digests loop)
    (digests dep) (digests all)
    (Tlscore.Pipeline.artifact_digest c)

let () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      pin w.Workloads.Workload.name ~source:w.Workloads.Workload.source
        ~train:w.Workloads.Workload.train_input
        ~ref_input:w.Workloads.Workload.ref_input)
    Workloads.Registry.all;
  for seed = 1 to 100 do
    let source, input = Faults.Proggen.generate ~seed in
    pin (Printf.sprintf "proggen-%d" seed) ~source ~train:input
      ~ref_input:input
  done;
  if !failures > 0 then exit 1
