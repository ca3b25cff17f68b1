(* The paper's candidate filters and machine width (see selection.mli). *)
let min_coverage = 0.001
let min_epochs_per_instance = 1.5
let min_instrs_per_epoch = 15.0
let num_procs = 4

type candidate = {
  key : Profiler.Profile.loop_key;
  coverage : float;
  epochs_per_instance : float;
  instrs_per_epoch : float;
  benefit : float;
}

let candidates (prog : Ir.Prog.t) (profile : Profiler.Profile.t) =
  let all = Profiler.Runner.all_loops prog in
  List.filter_map
    (fun key ->
      let stats = Profiler.Profile.stats profile key in
      if stats.Profiler.Profile.instances = 0 then None
      else begin
        let coverage = Profiler.Profile.coverage profile key in
        let epochs_per_instance =
          float_of_int stats.Profiler.Profile.iterations
          /. float_of_int stats.Profiler.Profile.instances
        in
        let instrs_per_epoch =
          if stats.Profiler.Profile.iterations = 0 then 0.0
          else
            float_of_int stats.Profiler.Profile.dyn_instrs
            /. float_of_int stats.Profiler.Profile.iterations
        in
        (* A loop that runs mostly nested inside other loop instances
           would execute sequentially inside their speculative regions,
           so parallelizing it buys (almost) nothing. *)
        let mostly_nested =
          stats.Profiler.Profile.nested_instances * 2
          > stats.Profiler.Profile.instances
        in
        if
          coverage >= min_coverage
          && epochs_per_instance >= min_epochs_per_instance
          && instrs_per_epoch >= min_instrs_per_epoch
          && (not mostly_nested)
          && not (Regions.scalar_serialized prog key)
        then begin
          (* Achievable overlap: bounded by both the processor count and the
             average number of epochs available per instance. *)
          let overlap =
            Float.min (float_of_int num_procs) epochs_per_instance
          in
          let benefit = coverage *. (1.0 -. (1.0 /. overlap)) in
          Some { key; coverage; epochs_per_instance; instrs_per_epoch; benefit }
        end
        else None
      end)
    all
  |> List.sort (fun a b -> compare b.benefit a.benefit)

(* Static overlap within one function: bodies share a block. *)
let overlaps prog a b =
  String.equal a.Profiler.Profile.lk_func b.Profiler.Profile.lk_func
  &&
  let f = Ir.Prog.func prog a.Profiler.Profile.lk_func in
  let loops = Dataflow.Loops.find f in
  match
    ( Dataflow.Loops.loop_of loops a.Profiler.Profile.lk_header,
      Dataflow.Loops.loop_of loops b.Profiler.Profile.lk_header )
  with
  | Some la, Some lb ->
    List.exists (fun blk -> List.mem blk lb.Dataflow.Loops.body)
      la.Dataflow.Loops.body
  | _, _ -> false

let select prog profile =
  let cands = candidates prog profile in
  let chosen = ref [] in
  List.iter
    (fun c ->
      if not (List.exists (fun k -> overlaps prog c.key k) !chosen) then
        chosen := c.key :: !chosen)
    cands;
  List.rev !chosen
