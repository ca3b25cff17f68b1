type placement = Hoisted | Eager | At_latch

type scalar_info = {
  si_reg : Ir.Instr.reg;
  si_channel : Ir.Instr.channel;
  si_placement : placement;
}

(* Definition sites of [r] within the loop body: (block, position, instr). *)
let def_sites (f : Ir.Func.t) body r =
  List.concat_map
    (fun l ->
      let b = Ir.Func.block f l in
      List.mapi (fun idx (i : Ir.Instr.t) -> (l, idx, i)) b.Ir.Func.instrs
      |> List.filter_map (fun (l, idx, i) ->
             if List.mem r (Ir.Instr.defs i) then Some (l, idx, i) else None))
    body

(* Is [block] inside a loop strictly nested within [outer]? *)
let in_nested_loop loops (outer : Dataflow.Loops.loop) block =
  List.exists
    (fun (l : Dataflow.Loops.loop) ->
      l.Dataflow.Loops.header <> outer.Dataflow.Loops.header
      && List.mem l.Dataflow.Loops.header outer.Dataflow.Loops.body
      && List.mem block l.Dataflow.Loops.body)
    loops

(* The forwarded value of [r] can be recomputed at the top of the epoch
   when its (single) definition is a pure register computation whose
   operands are the waited scalar itself, loop invariants, or registers
   computed earlier in the same block by an equally pure chain.  This is
   the induction-variable case; hoisting the recomputation (plus an
   immediate signal) shrinks the critical forwarding path to
   wait+chain+signal (the scheduling optimization of Zhai et al. [32]).

   Returns the chain of defining instructions in program order. *)
let max_hoist_chain = 8

exception Not_hoistable

let find_hoist_chain (f : Ir.Func.t) body defined_in_loop r
    (sites_of : Ir.Instr.reg -> (Ir.Instr.label * int * Ir.Instr.t) list)
    (b : Ir.Instr.label) (idx_r : int) (site : Ir.Instr.t) =
  let pure (i : Ir.Instr.t) =
    match i.Ir.Instr.kind with
    | Ir.Instr.Bin _ | Ir.Instr.Mov _ -> true
    | _ -> false
  in
  let collected : (int, Ir.Instr.t) Hashtbl.t = Hashtbl.create 8 in
  let rec add (bl, idx, (ins : Ir.Instr.t)) =
    if bl <> b || not (pure ins) then raise Not_hoistable;
    if not (Hashtbl.mem collected idx) then begin
      if Hashtbl.length collected >= max_hoist_chain then raise Not_hoistable;
      Hashtbl.replace collected idx ins;
      List.iter
        (fun u ->
          if u <> r && List.mem u defined_in_loop then begin
            (* The reaching definition of a temporary must be the latest
               one earlier in this block (registers may have one def per
               unrolled body copy). *)
            let in_block_before =
              List.filter (fun (bl_u, idx_u, _) -> bl_u = b && idx_u < idx)
                (sites_of u)
            in
            match
              List.sort (fun (_, i, _) (_, j, _) -> compare j i) in_block_before
            with
            | latest :: _ -> add latest
            | [] -> raise Not_hoistable
          end)
        (Ir.Instr.uses ins)
    end
  in
  ignore body;
  ignore f;
  match add (b, idx_r, site) with
  | () ->
    Some
      (Hashtbl.fold (fun idx ins acc -> (idx, ins) :: acc) collected []
      |> List.sort compare |> List.map snd)
  | exception Not_hoistable -> None

type plan = {
  p_reg : Ir.Instr.reg;
  p_channel : Ir.Instr.channel;
  p_placement : placement;
  p_sites : (Ir.Instr.label * int * Ir.Instr.t) list;
  p_chain : Ir.Instr.t list;   (* defining chain, for [Hoisted] *)
}

(* Non-mutating analysis shared by {!create} and region selection: which
   registers are loop-carried and how their signals would be placed.  A
   loop whose carried scalar cannot be hoisted is serialized by its scalar
   chain, so even ideal memory-value prediction cannot make it profitable;
   the paper's selection criterion (minimize time under ideal prediction)
   would not choose it. *)
let analyze (prog : Ir.Prog.t) (key : Profiler.Profile.loop_key) =
  let fname = key.Profiler.Profile.lk_func in
  let header = key.Profiler.Profile.lk_header in
  let f = Ir.Prog.func prog fname in
  let loops = Dataflow.Loops.find f in
  let loop =
    match Dataflow.Loops.loop_of loops header with
    | Some l -> l
    | None ->
      failwith
        (Printf.sprintf "Regions.analyze: no loop at %s/L%d" fname header)
  in
  let dom = Dataflow.Dominance.compute f in
  let liveness = Dataflow.Liveness.compute f in
  let live_at_header = Dataflow.Liveness.live_in liveness header in
  let defined_in_loop =
    Dataflow.Liveness.defs_in_blocks f loop.Dataflow.Loops.body
  in
  let carried =
    List.filter (fun r -> List.mem r defined_in_loop) live_at_header
  in
  let latches = loop.Dataflow.Loops.back_edges in
  ignore prog;
  (* Capture original definition sites before any insertion. *)
  let plans =
    List.map
      (fun r ->
        let sites = def_sites f loop.Dataflow.Loops.body r in
        let blocks =
          List.sort_uniq compare (List.map (fun (l, _, _) -> l) sites)
        in
        let sites_of u = def_sites f loop.Dataflow.Loops.body u in
        (* Every defining block must run exactly once per epoch: dominate
           all latches and sit outside nested loops. *)
        let once_per_epoch b =
          List.for_all
            (fun latch -> Dataflow.Dominance.dominates dom b latch)
            latches
          && not (in_nested_loop loops loop b)
        in
        (* Hoisting composes the defining chains of ALL sites in execution
           order (blocks totally ordered by dominance — the unrolled-loop
           case has one site per body copy): the emitted copies thread the
           scalar through fresh registers, yielding the end-of-epoch
           value at the top of the epoch. *)
        let try_hoist_all () =
          let ordered_blocks =
            List.sort
              (fun a b ->
                if a = b then 0
                else if Dataflow.Dominance.dominates dom a b then -1
                else 1)
              blocks
          in
          let rec totally_ordered = function
            | a :: (b :: _ as rest) ->
              Dataflow.Dominance.dominates dom a b && totally_ordered rest
            | [] | [ _ ] -> true
          in
          if not (totally_ordered ordered_blocks) then None
          else begin
            let chains =
              List.map
                (fun b ->
                  (* Sites within a block, in program order. *)
                  let block_sites =
                    List.filter (fun (bl, _, _) -> bl = b) sites
                    |> List.sort (fun (_, i, _) (_, j, _) -> compare i j)
                  in
                  List.map
                    (fun (_, idx, site) ->
                      find_hoist_chain f loop.Dataflow.Loops.body
                        defined_in_loop r sites_of b idx site)
                    block_sites)
                ordered_blocks
              |> List.concat
            in
            if List.for_all Option.is_some chains then
              Some (List.concat_map Option.get chains)
            else None
          end
        in
        let placement, chain =
          if blocks <> [] && List.for_all once_per_epoch blocks then begin
            match try_hoist_all () with
            | Some chain -> (Hoisted, chain)
            | None -> if List.length blocks = 1 then (Eager, []) else (At_latch, [])
          end
          else (At_latch, [])
        in
        {
          p_reg = r;
          p_channel = -1;   (* allocated by [create] *)
          p_placement = placement;
          p_sites = sites;
          p_chain = chain;
        })
      carried
  in
  (loop, latches, plans)

(* Would parallelizing this loop be serialized by a carried scalar whose
   signal cannot be hoisted to the epoch top? *)
let scalar_serialized (prog : Ir.Prog.t) (key : Profiler.Profile.loop_key) =
  let _, _, plans = analyze prog key in
  List.exists
    (fun p ->
      match p.p_placement with
      | Hoisted -> false
      | Eager | At_latch -> true)
    plans

let create (prog : Ir.Prog.t) (key : Profiler.Profile.loop_key) =
  let fname = key.Profiler.Profile.lk_func in
  let header = key.Profiler.Profile.lk_header in
  let f = Ir.Prog.func prog fname in
  let loop, latches, plans0 = analyze prog key in
  let plans =
    List.map (fun p -> { p with p_channel = Ir.Prog.fresh_channel prog }) plans0
  in
  let fresh_sync what kind =
    {
      Ir.Instr.iid = Ir.Prog.fresh_iid prog ~in_func:fname ~what;
      kind;
    }
  in
  (* Header prologue: waits (all scalars), then hoisted recomputations with
     their immediate signals. *)
  let waits =
    List.map
      (fun p ->
        fresh_sync
          (Printf.sprintf "wait_scalar ch%d" p.p_channel)
          (Ir.Instr.Wait_scalar (p.p_channel, p.p_reg)))
      plans
  in
  (* Hoisted recomputation: copy the defining chain at the top of the
     epoch into fresh registers (the originals still execute in place) and
     signal the precomputed value immediately. *)
  let hoisted =
    List.concat_map
      (fun p ->
        match p.p_placement with
        | Hoisted ->
          let fresh_map = Hashtbl.create 8 in
          let fresh_of reg =
            match Hashtbl.find_opt fresh_map reg with
            | Some fr -> fr
            | None ->
              let fr =
                Ir.Func.fresh_reg
                  ~name:(Printf.sprintf "%s_next" (Ir.Func.reg_name f reg))
                  f
              in
              Hashtbl.replace fresh_map reg fr;
              fr
          in
          let map_operand = function
            | Ir.Instr.Imm n -> Ir.Instr.Imm n
            | Ir.Instr.Reg u -> begin
              match Hashtbl.find_opt fresh_map u with
              | Some fr -> Ir.Instr.Reg fr
              | None -> Ir.Instr.Reg u   (* the waited scalar or invariant *)
            end
          in
          let copies =
            List.map
              (fun (ins : Ir.Instr.t) ->
                let kind =
                  match ins.Ir.Instr.kind with
                  | Ir.Instr.Bin (op, d, a, b) ->
                    let a' = map_operand a and b' = map_operand b in
                    Ir.Instr.Bin (op, fresh_of d, a', b')
                  | Ir.Instr.Mov (d, a) ->
                    let a' = map_operand a in
                    Ir.Instr.Mov (fresh_of d, a')
                  | _ -> assert false
                in
                fresh_sync "hoisted def" kind)
              p.p_chain
          in
          copies
          @ [
              fresh_sync
                (Printf.sprintf "signal_scalar ch%d" p.p_channel)
                (Ir.Instr.Signal_scalar
                   (p.p_channel, Ir.Instr.Reg (fresh_of p.p_reg)));
            ]
        | Eager | At_latch -> [])
      plans
  in
  Ir.Edit.prepend f header (waits @ hoisted);
  (* Non-hoisted signals. *)
  List.iter
    (fun p ->
      let mk_signal () =
        fresh_sync
          (Printf.sprintf "signal_scalar ch%d" p.p_channel)
          (Ir.Instr.Signal_scalar (p.p_channel, Ir.Instr.Reg p.p_reg))
      in
      match p.p_placement with
      | Hoisted -> ()
      | Eager ->
        (* Single defining block: place after the last definition. *)
        let last =
          List.fold_left
            (fun acc (_, idx, i) ->
              match acc with
              | Some (best_idx, _) when best_idx >= idx -> acc
              | _ -> Some (idx, i.Ir.Instr.iid))
            None p.p_sites
        in
        (match last with
        | Some (_, iid) -> Ir.Edit.insert_after f ~anchor:iid [ mk_signal () ]
        | None ->
          List.iter (fun l -> Ir.Edit.append f l [ mk_signal () ]) latches)
      | At_latch ->
        List.iter (fun l -> Ir.Edit.append f l [ mk_signal () ]) latches)
    plans;
  let scalar_channels =
    List.map
      (fun p -> { Ir.Region.sc_id = p.p_channel; sc_reg = p.p_reg })
      plans
  in
  let region =
    {
      Ir.Region.id = Ir.Prog.fresh_region_id prog;
      func = fname;
      header;
      blocks = loop.Dataflow.Loops.body;
      scalar_channels;
      mem_groups = [];
    }
  in
  prog.Ir.Prog.regions <- prog.Ir.Prog.regions @ [ region ];
  let infos =
    List.map
      (fun p ->
        {
          si_reg = p.p_reg;
          si_channel = p.p_channel;
          si_placement = p.p_placement;
        })
      plans
  in
  (region, infos)
