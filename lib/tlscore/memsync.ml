type stats = {
  ms_groups : int;
  ms_static_groups : int;         (* groups with one static address *)
  ms_sync_loads : int;
  ms_sync_stores : int;           (* producer-side signals inserted *)
  ms_guarded_signals : int;       (* if-unsent signals at dataflow frontiers *)
  ms_clones : int;
  ms_instrs_added : int;
  ms_null_signals : int;          (* latch null-signals (pointer groups) *)
  ms_elided_nulls : int;
}

let zero_stats =
  {
    ms_groups = 0;
    ms_static_groups = 0;
    ms_sync_loads = 0;
    ms_sync_stores = 0;
    ms_guarded_signals = 0;
    ms_clones = 0;
    ms_instrs_added = 0;
    ms_null_signals = 0;
    ms_elided_nulls = 0;
  }

module Str_set = Set.Make (String)
module Int_set = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Group address analysis                                              *)
(* ------------------------------------------------------------------ *)

let address_operand (i : Ir.Instr.t) =
  match i.Ir.Instr.kind with
  | Ir.Instr.Load (_, a) | Ir.Instr.Store (a, _) | Ir.Instr.Sync_load (_, _, a)
    ->
    Some a
  | _ -> None

(* If every member access of the group addresses the same immediate (a
   global scalar), the group has one static address: the signal placement
   can then be decided by dataflow in the region function, with the
   address available everywhere.  Pointer-varying groups signal eagerly
   after each store instead. *)
let static_address prog resolve (g : Grouping.group) =
  let addr_of access =
    let fname, iid = resolve access in
    let f = Ir.Prog.func prog fname in
    match Option.bind (Ir.Edit.instr f iid) address_operand with
    | Some (Ir.Instr.Imm a) -> Some a
    | Some (Ir.Instr.Reg _) | None -> None
  in
  let members = g.Grouping.g_loads @ g.Grouping.g_stores in
  match members with
  | [] -> None
  | first :: rest -> begin
    match addr_of first with
    | None -> None
    | Some a ->
      if List.for_all (fun m -> addr_of m = Some a) rest then Some a else None
  end

(* ------------------------------------------------------------------ *)
(* May-store-later dataflow (paper §2.3 signal placement)              *)
(* ------------------------------------------------------------------ *)

(* Functions that may (transitively) execute one of the member stores. *)
let storing_functions (prog : Ir.Prog.t) store_sites =
  let direct =
    List.fold_left
      (fun acc (fname, _) -> Str_set.add fname acc)
      Str_set.empty store_sites
  in
  let result = ref direct in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (fname, f) ->
        if not (Str_set.mem fname !result) then
          Ir.Func.iter_instrs f (fun _ i ->
              match i.Ir.Instr.kind with
              | Ir.Instr.Call (_, callee, _)
                when Str_set.mem callee !result ->
                result := Str_set.add fname !result;
                changed := true
              | _ -> ()))
      prog.Ir.Prog.funcs
  done;
  !result

(* A store point in the region function: a direct member store, or a call
   that may reach one. *)
let is_store_point member_store_iids storing_funcs (i : Ir.Instr.t) =
  Int_set.mem i.Ir.Instr.iid member_store_iids
  ||
  match i.Ir.Instr.kind with
  | Ir.Instr.Call (_, callee, _) -> Str_set.mem callee storing_funcs
  | _ -> false

(* Block-level LATER: may a store point execute at or after the start of
   this block, within the current epoch (back edges excluded)? *)
let compute_later (f : Ir.Func.t) (region : Ir.Region.t) is_sp =
  let in_loop l = List.mem l region.Ir.Region.blocks in
  let has_store l =
    List.exists is_sp (Ir.Func.block f l).Ir.Func.instrs
  in
  let n = Ir.Func.num_blocks f in
  let later = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        let from_succs =
          List.exists
            (fun s ->
              in_loop s && s <> region.Ir.Region.header && later.(s))
            (Ir.Func.successors f l)
        in
        let next = has_store l || from_succs in
        if next <> later.(l) then begin
          later.(l) <- next;
          changed := true
        end)
      region.Ir.Region.blocks
  done;
  later

(* ------------------------------------------------------------------ *)
(* Must-store analysis (for eliding latch nulls of pointer groups)     *)
(* ------------------------------------------------------------------ *)

let all_paths_store (f : Ir.Func.t) (region : Ir.Region.t) store_blocks =
  let in_loop l = List.mem l region.Ir.Region.blocks in
  let preds = Ir.Func.predecessors f in
  let loops = Dataflow.Loops.find f in
  let latches =
    match Dataflow.Loops.loop_of loops region.Ir.Region.header with
    | Some l -> l.Dataflow.Loops.back_edges
    | None -> []
  in
  let n = Ir.Func.num_blocks f in
  let must_out = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        let gen = List.mem l store_blocks in
        let must_in =
          if l = region.Ir.Region.header then false
          else begin
            match List.filter in_loop preds.(l) with
            | [] -> false
            | ps -> List.for_all (fun p -> must_out.(p)) ps
          end
        in
        let next = must_in || gen in
        if next <> must_out.(l) then begin
          must_out.(l) <- next;
          changed := true
        end)
      region.Ir.Region.blocks
  done;
  latches <> [] && List.for_all (fun l -> must_out.(l)) latches

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

let apply ?(eager_signals = true) (prog : Ir.Prog.t) (region : Ir.Region.t)
    dep_profile ~threshold =
  let deps = Profiler.Profile.frequent_deps dep_profile ~threshold in
  if deps = [] then zero_stats
  else begin
    let groups = Grouping.groups deps in
    let accesses =
      List.concat_map
        (fun (g : Grouping.group) -> g.Grouping.g_loads @ g.Grouping.g_stores)
        groups
    in
    let cloning =
      Cloning.apply prog ~region_func:region.Ir.Region.func ~accesses
    in
    let region_f = Ir.Prog.func prog region.Ir.Region.func in
    let loops = Dataflow.Loops.find region_f in
    let latches =
      match Dataflow.Loops.loop_of loops region.Ir.Region.header with
      | Some l -> l.Dataflow.Loops.back_edges
      | None -> []
    in
    let sync_loads = ref 0
    and sync_stores = ref 0
    and guarded = ref 0
    and null_signals = ref 0
    and elided = ref 0
    and static_groups = ref 0 in
    let fresh what kind =
      {
        Ir.Instr.iid =
          Ir.Prog.fresh_iid prog ~in_func:region.Ir.Region.func ~what;
        kind;
      }
    in
    let mem_groups =
      List.map
        (fun (g : Grouping.group) ->
          let ch = Ir.Prog.fresh_channel prog in
          (* Consumer side: wait + checked load before every member load. *)
          let load_iids =
            List.map
              (fun a ->
                let fname, iid = cloning.Cloning.resolve a in
                let f = Ir.Prog.func prog fname in
                (match Ir.Edit.instr f iid with
                | Some { Ir.Instr.kind = Ir.Instr.Load (d, addr); _ } ->
                  Ir.Edit.insert_before f ~anchor:iid
                    [
                      {
                        Ir.Instr.iid =
                          Ir.Prog.fresh_iid prog ~in_func:fname
                            ~what:(Printf.sprintf "wait_mem ch%d" ch);
                        kind = Ir.Instr.Wait_mem ch;
                      };
                    ];
                  Ir.Edit.replace_kind f ~anchor:iid
                    (Ir.Instr.Sync_load (ch, d, addr));
                  incr sync_loads
                | Some _ ->
                  failwith "Memsync.apply: grouped consumer is not a load"
                | None -> failwith "Memsync.apply: consumer not found");
                iid)
              g.Grouping.g_loads
          in
          let store_sites =
            List.map (fun a -> cloning.Cloning.resolve a) g.Grouping.g_stores
          in
          (match static_address prog cloning.Cloning.resolve g with
          | Some addr when not eager_signals ->
            (* Lazy ablation: one guarded signal per latch, value leaves at
               the very end of the epoch. *)
            incr static_groups;
            List.iter
              (fun latch ->
                incr guarded;
                Ir.Edit.append region_f latch
                  [
                    fresh
                      (Printf.sprintf "signal_mem_if_unsent ch%d" ch)
                      (Ir.Instr.Signal_mem_if_unsent (ch, Ir.Instr.Imm addr));
                  ])
              latches
          | Some addr ->
            (* Static-address group: dataflow placement in the region
               function.  Stores inside clones are covered by signals at
               the call sites, so the forwarded value leaves as soon as
               the last store point of the path is done. *)
            incr static_groups;
            let member_store_iids =
              List.fold_left
                (fun acc (fname, iid) ->
                  if String.equal fname region.Ir.Region.func then
                    Int_set.add iid acc
                  else acc)
                Int_set.empty store_sites
            in
            let storing =
              storing_functions prog
                (List.filter
                   (fun (fname, _) ->
                     not (String.equal fname region.Ir.Region.func))
                   store_sites)
            in
            let is_sp = is_store_point member_store_iids storing in
            let later = compute_later region_f region is_sp in
            let preds = Ir.Func.predecessors region_f in
            let in_loop l = List.mem l region.Ir.Region.blocks in
            (* Final store points: no store point can follow. *)
            List.iter
              (fun l ->
                let b = Ir.Func.block region_f l in
                let instrs = Array.of_list b.Ir.Func.instrs in
                let n = Array.length instrs in
                let succs_later =
                  List.exists
                    (fun s ->
                      in_loop s && s <> region.Ir.Region.header && later.(s))
                    (Ir.Func.successors region_f l)
                in
                for idx = 0 to n - 1 do
                  if is_sp instrs.(idx) then begin
                    let later_in_block = ref false in
                    for j = idx + 1 to n - 1 do
                      if is_sp instrs.(j) then later_in_block := true
                    done;
                    if (not !later_in_block) && not succs_later then begin
                      incr sync_stores;
                      Ir.Edit.insert_after region_f
                        ~anchor:instrs.(idx).Ir.Instr.iid
                        [
                          fresh
                            (Printf.sprintf "signal_mem ch%d" ch)
                            (Ir.Instr.Signal_mem (ch, Ir.Instr.Imm addr));
                        ]
                    end
                  end
                done)
              region.Ir.Region.blocks;
            (* Frontier blocks: LATER just became false; a path arriving
               from a non-storing branch has not signaled yet. *)
            List.iter
              (fun l ->
                if
                  l <> region.Ir.Region.header
                  && (not later.(l))
                  && List.exists
                       (fun p -> in_loop p && later.(p))
                       preds.(l)
                then begin
                  incr guarded;
                  Ir.Edit.prepend region_f l
                    [
                      fresh
                        (Printf.sprintf "signal_mem_if_unsent ch%d" ch)
                        (Ir.Instr.Signal_mem_if_unsent (ch, Ir.Instr.Imm addr));
                    ]
                end)
              region.Ir.Region.blocks;
            (* No store point reachable at all: forward at epoch start. *)
            if not later.(region.Ir.Region.header) then begin
              incr guarded;
              Ir.Edit.prepend region_f region.Ir.Region.header
                [
                  fresh
                    (Printf.sprintf "signal_mem_if_unsent ch%d" ch)
                    (Ir.Instr.Signal_mem_if_unsent (ch, Ir.Instr.Imm addr));
                ]
            end
          | None ->
            (* Pointer-varying group: signal eagerly after each member
               store (the signal address buffer preserves correctness if
               a later store re-writes the address), NULL at the latch on
               paths that may not produce. *)
            List.iter
              (fun (fname, iid) ->
                let f = Ir.Prog.func prog fname in
                match Ir.Edit.instr f iid with
                | Some { Ir.Instr.kind = Ir.Instr.Store (addr, _); _ } ->
                  incr sync_stores;
                  Ir.Edit.insert_after f ~anchor:iid
                    [
                      {
                        Ir.Instr.iid =
                          Ir.Prog.fresh_iid prog ~in_func:fname
                            ~what:(Printf.sprintf "signal_mem ch%d" ch);
                        kind = Ir.Instr.Signal_mem (ch, addr);
                      };
                    ]
                | Some _ ->
                  failwith "Memsync.apply: grouped producer is not a store"
                | None -> failwith "Memsync.apply: producer not found")
              store_sites;
            let all_local =
              List.for_all
                (fun (fname, _) -> String.equal fname region.Ir.Region.func)
                store_sites
            in
            let store_blocks =
              List.filter_map
                (fun (fname, iid) ->
                  if String.equal fname region.Ir.Region.func then
                    Option.map fst (Ir.Edit.find_instr region_f iid)
                  else None)
                store_sites
            in
            (* NULL at the latch on paths that may not produce.  (Unlike
               static-address groups, nothing useful can be forwarded
               earlier: the group's address is unknown on non-storing
               paths, and an early NULL would make consumers speculate on
               still-uncommitted distance-2 values — measurably worse than
               releasing them at the latch.) *)
            if all_local && all_paths_store region_f region store_blocks then
              incr elided
            else
              List.iter
                (fun latch ->
                  incr null_signals;
                  Ir.Edit.append region_f latch
                    [
                      fresh
                        (Printf.sprintf "signal_null ch%d" ch)
                        (Ir.Instr.Signal_null_if_unsent ch);
                    ])
                latches);
          {
            Ir.Region.mg_id = ch;
            mg_loads = List.sort compare load_iids;
            mg_stores = List.sort compare (List.map snd store_sites);
          })
        groups
    in
    region.Ir.Region.mem_groups <- mem_groups;
    {
      ms_groups = List.length groups;
      ms_static_groups = !static_groups;
      ms_sync_loads = !sync_loads;
      ms_sync_stores = !sync_stores;
      ms_guarded_signals = !guarded;
      ms_clones = cloning.Cloning.clones_created;
      ms_instrs_added = cloning.Cloning.instrs_added;
      ms_null_signals = !null_signals;
      ms_elided_nulls = !elided;
    }
  end
