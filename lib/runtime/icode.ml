(* Flat pre-resolved instruction encoding (DESIGN §17).  See icode.mli
   for the layout table; the encoder, verifier, and decoder here are the
   single source of truth for it. *)

module I = Ir.Instr

type func = {
  fn_cfunc : Code.cfunc;
  code : int array;
  block_off : int array;
}

type prog = {
  funcs : func array;
  names : string array;
  ret_opts : I.reg option array;
}

let opcode_mask = 0xff
let flag_a = 0x100
let flag_b = 0x200

(* Opcodes 0..15 are binops in constructor order. *)
let op_mov = 16
let op_load = 17
let op_store = 18
let op_call = 19
let op_print = 20
let op_input = 21
let op_input_len = 22
let op_wait_scalar = 23
let op_signal_scalar = 24
let op_wait_mem = 25
let op_sync_load = 26
let op_signal_mem = 27
let op_signal_mem_unsent = 28
let op_signal_null = 29
let op_signal_null_unsent = 30
let op_jmp = 31
let op_br = 32
let op_ret = 33

let binop_index : I.binop -> int = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4 | Band -> 5
  | Bor -> 6 | Bxor -> 7 | Shl -> 8 | Shr -> 9 | Eq -> 10 | Ne -> 11
  | Lt -> 12 | Le -> 13 | Gt -> 14 | Ge -> 15

let binop_of_index : I.binop array =
  [| Add; Sub; Mul; Div; Rem; Band; Bor; Bxor; Shl; Shr; Eq; Ne; Lt; Le;
     Gt; Ge |]

(* Must mirror Ir.Instr.eval_binop exactly (div/rem-by-zero guards,
   6-bit shift masks) — the round-trip property test cross-checks it
   against the variant evaluator over random operands. *)
let[@inline] eval_binop_i op a b =
  match op with
  | 0 -> a + b
  | 1 -> a - b
  | 2 -> a * b
  | 3 -> if b = 0 then 0 else a / b
  | 4 -> if b = 0 then 0 else a mod b
  | 5 -> a land b
  | 6 -> a lor b
  | 7 -> a lxor b
  | 8 -> a lsl (b land 63)
  | 9 -> a asr (b land 63)
  | 10 -> if a = b then 1 else 0
  | 11 -> if a <> b then 1 else 0
  | 12 -> if a < b then 1 else 0
  | 13 -> if a <= b then 1 else 0
  | 14 -> if a > b then 1 else 0
  | _ -> if a >= b then 1 else 0

(* Top-level recursion, so an executed call allocates nothing. *)
let rec bind_from code regs callee_regs params base n k =
  if k < n then
    match params with
    | preg :: ps ->
      let m = Array.unsafe_get code (base + (2 * k)) in
      let v = Array.unsafe_get code (base + (2 * k) + 1) in
      callee_regs.(preg) <- (if m <> 0 then v else Array.unsafe_get regs v);
      bind_from code regs callee_regs ps base n (k + 1)
    | [] -> ()

let bind_args code regs callee_regs params base n =
  bind_from code regs callee_regs params base n 0

(* ------------------------------------------------------------------ *)
(* Encoding *)

let width_of_kind : I.kind -> int = function
  | Bin _ | Sync_load _ -> 5
  | Mov _ | Load _ | Store _ | Input _ | Wait_scalar _ | Signal_scalar _
  | Signal_mem _ | Signal_mem_if_unsent _ ->
    4
  | Call (_, _, args) -> 5 + (2 * List.length args)
  | Print _ | Input_len _ | Wait_mem _ | Signal_null _
  | Signal_null_if_unsent _ ->
    3

let width_of_term : I.terminator -> int = function
  | Jmp _ -> 3
  | Br _ -> 6
  | Ret _ -> 2

(* (immediate-flag, slot-value) of an operand. *)
let slot_of_operand : I.operand -> int * int = function
  | Reg r -> (0, r)
  | Imm v -> (1, v)

type 'a interner = {
  tbl : ('a, int) Hashtbl.t;
  mutable rev : 'a list;  (* newest first *)
}

let interner () = { tbl = Hashtbl.create 8; rev = [] }

let intern it key =
  match Hashtbl.find_opt it.tbl key with
  | Some i -> i
  | None ->
    let i = Hashtbl.length it.tbl in
    Hashtbl.add it.tbl key i;
    it.rev <- key :: it.rev;
    i

let interned it = Array.of_list (List.rev it.rev)

let encode_func ~resolve ~names ~ret_opts (cf : Code.cfunc) : func =
  let nb = Array.length cf.cf_blocks in
  let block_off = Array.make nb 0 in
  let total = ref 0 in
  for b = 0 to nb - 1 do
    block_off.(b) <- !total;
    let blk = cf.cf_blocks.(b) in
    Array.iter
      (fun (i : I.t) -> total := !total + width_of_kind i.kind)
      blk.instrs;
    total := !total + width_of_term blk.term
  done;
  let code = Array.make !total 0 in
  let pc = ref 0 in
  let emit v =
    code.(!pc) <- v;
    incr pc
  in
  let emit_instr (i : I.t) =
    let iid = i.iid in
    match i.kind with
    | Bin (op, d, a, b) ->
      let ma, va = slot_of_operand a and mb, vb = slot_of_operand b in
      emit (binop_index op lor (ma lsl 8) lor (mb lsl 9));
      emit iid; emit d; emit va; emit vb
    | Mov (d, a) ->
      let ma, va = slot_of_operand a in
      emit (op_mov lor (ma lsl 8));
      emit iid; emit d; emit va
    | Load (d, a) ->
      let ma, va = slot_of_operand a in
      emit (op_load lor (ma lsl 8));
      emit iid; emit d; emit va
    | Store (a, v) ->
      let ma, va = slot_of_operand a and mv, vv = slot_of_operand v in
      emit (op_store lor (ma lsl 8) lor (mv lsl 9));
      emit iid; emit va; emit vv
    | Call (ret, name, args) ->
      let fidx =
        match resolve name with
        | Some id -> id
        | None -> -intern names name - 1
      in
      emit op_call;
      emit iid;
      emit fidx;
      emit (intern ret_opts ret);
      emit (List.length args);
      List.iter
        (fun a ->
          let m, v = slot_of_operand a in
          emit m; emit v)
        args
    | Print a ->
      let ma, va = slot_of_operand a in
      emit (op_print lor (ma lsl 8));
      emit iid; emit va
    | Input (d, a) ->
      let ma, va = slot_of_operand a in
      emit (op_input lor (ma lsl 8));
      emit iid; emit d; emit va
    | Input_len d ->
      emit op_input_len;
      emit iid; emit d
    | Wait_scalar (ch, d) ->
      emit op_wait_scalar;
      emit iid; emit ch; emit d
    | Signal_scalar (ch, a) ->
      let ma, va = slot_of_operand a in
      emit (op_signal_scalar lor (ma lsl 8));
      emit iid; emit ch; emit va
    | Wait_mem ch ->
      emit op_wait_mem;
      emit iid; emit ch
    | Sync_load (ch, d, a) ->
      let ma, va = slot_of_operand a in
      emit (op_sync_load lor (ma lsl 8));
      emit iid; emit ch; emit d; emit va
    | Signal_mem (ch, a) ->
      let ma, va = slot_of_operand a in
      emit (op_signal_mem lor (ma lsl 8));
      emit iid; emit ch; emit va
    | Signal_mem_if_unsent (ch, a) ->
      let ma, va = slot_of_operand a in
      emit (op_signal_mem_unsent lor (ma lsl 8));
      emit iid; emit ch; emit va
    | Signal_null ch ->
      emit op_signal_null;
      emit iid; emit ch
    | Signal_null_if_unsent ch ->
      emit op_signal_null_unsent;
      emit iid; emit ch
  in
  let emit_term : I.terminator -> unit = function
    | Jmp l ->
      emit op_jmp;
      emit l;
      emit block_off.(l)
    | Br (c, la, lb) ->
      let mc, vc = slot_of_operand c in
      emit (op_br lor (mc lsl 8));
      emit vc; emit la; emit lb; emit block_off.(la); emit block_off.(lb)
    | Ret v ->
      (match v with
      | None -> emit op_ret; emit 0
      | Some o ->
        let m, v = slot_of_operand o in
        emit (op_ret lor flag_a lor (m lsl 9));
        emit v)
  in
  Array.iter
    (fun (blk : Code.cblock) ->
      Array.iter emit_instr blk.instrs;
      emit_term blk.term)
    cf.cf_blocks;
  assert (!pc = !total);
  { fn_cfunc = cf; code; block_off }

let encode (code : Code.t) : prog =
  let cfuncs =
    Hashtbl.fold (fun _ cf acc -> cf :: acc) code.Code.funcs []
    |> List.sort (fun (a : Code.cfunc) b ->
           compare a.cf_id b.cf_id)
  in
  List.iteri
    (fun i (cf : Code.cfunc) ->
      if cf.cf_id <> i then
        failwith
          (Printf.sprintf "Icode: non-dense cf_id %d at position %d (%s)"
             cf.cf_id i cf.cf_name))
    cfuncs;
  let names = interner () in
  let ret_opts = interner () in
  let resolve name =
    match Hashtbl.find_opt code.Code.funcs name with
    | Some cf -> Some cf.Code.cf_id
    | None -> None
  in
  let funcs =
    Array.of_list (List.map (encode_func ~resolve ~names ~ret_opts) cfuncs)
  in
  { funcs; names = interned names; ret_opts = interned ret_opts }

(* ------------------------------------------------------------------ *)
(* Verification — the license for unchecked reads in the dispatcher. *)

let verify (p : prog) : (unit, string) result =
  let nfuncs = Array.length p.funcs in
  let nnames = Array.length p.names in
  let nrets = Array.length p.ret_opts in
  let err = ref None in
  let fail fn b pc msg =
    if !err = None then
      err :=
        Some
          (Printf.sprintf "%s: block %d at +%d: %s"
             fn.fn_cfunc.Code.cf_name b pc msg)
  in
  let check_func fi (f : func) =
    let cf = f.fn_cfunc in
    if cf.Code.cf_id <> fi then
      fail f 0 0 (Printf.sprintf "cf_id %d at index %d" cf.cf_id fi);
    let nregs = cf.Code.cf_nregs in
    let len = Array.length f.code in
    let nb = Array.length f.block_off in
    if nb <> Array.length cf.cf_blocks then
      fail f 0 0 "block_off length does not match block count";
    if nb > 0 && f.block_off.(0) <> 0 then fail f 0 0 "block 0 not at offset 0";
    for b = 1 to nb - 1 do
      if f.block_off.(b) <= f.block_off.(b - 1) then
        fail f b f.block_off.(b) "block offsets not strictly increasing"
    done;
    let reg b pc v =
      if v < 0 || v >= nregs then
        fail f b pc (Printf.sprintf "out-of-range register %d (nregs %d)" v nregs)
    in
    let operand b pc w bit v = if w land bit = 0 then reg b pc v in
    let chan b pc ch =
      if ch < 0 then fail f b pc (Printf.sprintf "negative channel %d" ch)
    in
    let iid b pc v =
      if v < 0 then fail f b pc (Printf.sprintf "negative iid %d" v)
    in
    let target b pc slot l off =
      if l < 0 || l >= nb then
        fail f b pc (Printf.sprintf "dangling branch target %d (%s)" l slot)
      else if off <> f.block_off.(l) then
        fail f b pc
          (Printf.sprintf "branch offset %d does not match block %d at %d" off
             l f.block_off.(l))
    in
    for b = 0 to nb - 1 do
      let stop = if b + 1 < nb then f.block_off.(b + 1) else len in
      let pc = ref f.block_off.(b) in
      let terminated = ref false in
      while (not !terminated) && !err = None do
        if !pc >= stop then (
          fail f b !pc "block has no terminator";
          terminated := true)
        else begin
          let w = f.code.(!pc) in
          let op = w land opcode_mask in
          let width =
            if op < op_mov then 5
            else if op = op_sync_load then 5
            else if op = op_mov || op = op_load || op = op_store
                    || op = op_input || op = op_wait_scalar
                    || op = op_signal_scalar || op = op_signal_mem
                    || op = op_signal_mem_unsent then 4
            else if op = op_print || op = op_input_len || op = op_wait_mem
                    || op = op_signal_null || op = op_signal_null_unsent
                    || op = op_jmp then 3
            else if op = op_br then 6
            else if op = op_ret then 2
            else if op = op_call then
              if !pc + 4 < stop then 5 + (2 * f.code.(!pc + 4)) else max_int
            else (
              fail f b !pc (Printf.sprintf "invalid opcode %d" op);
              max_int)
          in
          if !err = None then
            if width = max_int || !pc + width > stop then (
              if !err = None then
                fail f b !pc
                  (Printf.sprintf "opcode %d overruns block end %d" op stop))
            else begin
              let s k = f.code.(!pc + k) in
              (if op < op_mov then begin
                 iid b !pc (s 1);
                 reg b !pc (s 2);
                 operand b !pc w flag_a (s 3);
                 operand b !pc w flag_b (s 4)
               end
               else if op = op_mov || op = op_load || op = op_input then begin
                 iid b !pc (s 1);
                 reg b !pc (s 2);
                 operand b !pc w flag_a (s 3)
               end
               else if op = op_store then begin
                 iid b !pc (s 1);
                 operand b !pc w flag_a (s 2);
                 operand b !pc w flag_b (s 3)
               end
               else if op = op_call then begin
                 iid b !pc (s 1);
                 let fidx = s 2 in
                 if fidx >= nfuncs || -fidx - 1 >= nnames then
                   fail f b !pc (Printf.sprintf "call index %d out of range" fidx);
                 let ridx = s 3 in
                 if ridx < 0 || ridx >= nrets then
                   fail f b !pc
                     (Printf.sprintf "call ret index %d out of range" ridx)
                 else
                   (match p.ret_opts.(ridx) with
                   | Some r -> reg b !pc r
                   | None -> ());
                 let nargs = s 4 in
                 if nargs < 0 then fail f b !pc "negative call arity";
                 for a = 0 to nargs - 1 do
                   let m = s (5 + (2 * a)) in
                   if m <> 0 && m <> 1 then
                     fail f b !pc (Printf.sprintf "bad call arg mode %d" m);
                   if m = 0 then reg b !pc (s (6 + (2 * a)))
                 done
               end
               else if op = op_print then begin
                 iid b !pc (s 1);
                 operand b !pc w flag_a (s 2)
               end
               else if op = op_input_len then begin
                 iid b !pc (s 1);
                 reg b !pc (s 2)
               end
               else if op = op_wait_scalar then begin
                 iid b !pc (s 1);
                 chan b !pc (s 2);
                 reg b !pc (s 3)
               end
               else if op = op_signal_scalar || op = op_signal_mem
                       || op = op_signal_mem_unsent then begin
                 iid b !pc (s 1);
                 chan b !pc (s 2);
                 operand b !pc w flag_a (s 3)
               end
               else if op = op_wait_mem || op = op_signal_null
                       || op = op_signal_null_unsent then begin
                 iid b !pc (s 1);
                 chan b !pc (s 2)
               end
               else if op = op_sync_load then begin
                 iid b !pc (s 1);
                 chan b !pc (s 2);
                 reg b !pc (s 3);
                 operand b !pc w flag_a (s 4)
               end
               else if op = op_jmp then target b !pc "jmp" (s 1) (s 2)
               else if op = op_br then begin
                 operand b !pc w flag_a (s 1);
                 target b !pc "br-then" (s 2) (s 4);
                 target b !pc "br-else" (s 3) (s 5)
               end
               else if op = op_ret then begin
                 if w land flag_a <> 0 && w land flag_b = 0 then reg b !pc (s 1)
               end);
              if op >= op_jmp then begin
                terminated := true;
                if !pc + width <> stop then
                  fail f b !pc "terminator does not end the block"
              end;
              pc := !pc + width
            end
        end
      done
    done
  in
  Array.iteri check_func p.funcs;
  match !err with Some e -> Error e | None -> Ok ()

let of_code code =
  let p = encode code in
  (match verify p with
  | Ok () -> ()
  | Error e -> failwith ("Icode.of_code: encoder produced malformed icode: " ^ e));
  p

(* ------------------------------------------------------------------ *)
(* Decoding — the test seam for the round-trip property. *)

let decode_block (p : prog) (f : func) (b : I.label) :
    I.t list * I.terminator =
  let code = f.code in
  let operand w bit v : I.operand =
    if w land bit <> 0 then Imm v else Reg v
  in
  let rec go pc acc =
    let w = code.(pc) in
    let op = w land opcode_mask in
    if op = op_jmp then (List.rev acc, I.Jmp code.(pc + 1))
    else if op = op_br then
      ( List.rev acc,
        I.Br (operand w flag_a code.(pc + 1), code.(pc + 2), code.(pc + 3)) )
    else if op = op_ret then
      ( List.rev acc,
        I.Ret
          (if w land flag_a = 0 then None
           else Some (operand w flag_b code.(pc + 1))) )
    else
      let iid = code.(pc + 1) in
      let kind, width =
        if op < op_mov then
          ( I.Bin
              ( binop_of_index.(op),
                code.(pc + 2),
                operand w flag_a code.(pc + 3),
                operand w flag_b code.(pc + 4) ),
            5 )
        else if op = op_mov then
          (I.Mov (code.(pc + 2), operand w flag_a code.(pc + 3)), 4)
        else if op = op_load then
          (I.Load (code.(pc + 2), operand w flag_a code.(pc + 3)), 4)
        else if op = op_store then
          ( I.Store (operand w flag_a code.(pc + 2), operand w flag_b code.(pc + 3)),
            4 )
        else if op = op_call then begin
          let fidx = code.(pc + 2) in
          let name =
            if fidx >= 0 then
              p.funcs.(fidx).fn_cfunc.Code.cf_name
            else p.names.(-fidx - 1)
          in
          let nargs = code.(pc + 4) in
          let args =
            List.init nargs (fun a ->
                let m = code.(pc + 5 + (2 * a)) in
                let v = code.(pc + 6 + (2 * a)) in
                if m <> 0 then I.Imm v else I.Reg v)
          in
          (I.Call (p.ret_opts.(code.(pc + 3)), name, args), 5 + (2 * nargs))
        end
        else if op = op_print then (I.Print (operand w flag_a code.(pc + 2)), 3)
        else if op = op_input then
          (I.Input (code.(pc + 2), operand w flag_a code.(pc + 3)), 4)
        else if op = op_input_len then (I.Input_len code.(pc + 2), 3)
        else if op = op_wait_scalar then
          (I.Wait_scalar (code.(pc + 2), code.(pc + 3)), 4)
        else if op = op_signal_scalar then
          (I.Signal_scalar (code.(pc + 2), operand w flag_a code.(pc + 3)), 4)
        else if op = op_wait_mem then (I.Wait_mem code.(pc + 2), 3)
        else if op = op_sync_load then
          ( I.Sync_load
              (code.(pc + 2), code.(pc + 3), operand w flag_a code.(pc + 4)),
            5 )
        else if op = op_signal_mem then
          (I.Signal_mem (code.(pc + 2), operand w flag_a code.(pc + 3)), 4)
        else if op = op_signal_mem_unsent then
          ( I.Signal_mem_if_unsent (code.(pc + 2), operand w flag_a code.(pc + 3)),
            4 )
        else if op = op_signal_null then (I.Signal_null code.(pc + 2), 3)
        else if op = op_signal_null_unsent then
          (I.Signal_null_if_unsent code.(pc + 2), 3)
        else failwith (Printf.sprintf "Icode.decode_block: invalid opcode %d" op)
      in
      go (pc + width) ({ I.iid; kind } :: acc)
  in
  go f.block_off.(b) []
