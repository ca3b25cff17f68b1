(* The flat icode encoding (DESIGN §17) earns its unchecked array reads
   two ways, both exercised here:

   - a QCheck round-trip property over the Proggen corpus: every block
     of every compiled function must decode back to exactly the
     instruction list and terminator it was lowered from, and the
     integer binop evaluator must agree with the variant one on random
     operands (including the div/rem-zero and shift-mask edges);
   - negative-path tests on the verifier: doctored arrays with a
     dangling branch target, an out-of-range operand slot, or an
     opcode/arity mismatch must be rejected with a message naming the
     defect — [Icode.verify] is the license for the dispatcher's
     unchecked reads, so it has to actually catch these. *)

module I = Ir.Instr
module Icode = Runtime.Icode

let check_bool = Alcotest.(check bool)

let compile_src src input =
  Tlscore.Pipeline.compile ~lint:false ~source:src ~profile_input:input
    ~memory_sync:
      (Tlscore.Pipeline.Profiled { dep_input = input; threshold = 0.05 })
    ()

(* ------------------------------------------------------------------ *)
(* Round-trip: encode then decode_block reproduces every block exactly *)
(* ------------------------------------------------------------------ *)

let roundtrip_code (code : Runtime.Code.t) =
  let p = Icode.of_code code in
  Array.for_all
    (fun (f : Icode.func) ->
      let cf = f.Icode.fn_cfunc in
      let ok = ref true in
      Array.iteri
        (fun b (blk : Runtime.Code.cblock) ->
          let instrs, term = Icode.decode_block p f b in
          if instrs <> Array.to_list blk.Runtime.Code.instrs then ok := false;
          if term <> blk.Runtime.Code.term then ok := false)
        cf.Runtime.Code.cf_blocks;
      !ok)
    p.Icode.funcs

let proggen_roundtrip =
  QCheck.Test.make ~count:100
    ~name:"proggen: icode decodes back to the exact instruction lists"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let source, input = Faults.Proggen.generate ~seed in
      let compiled = compile_src source input in
      roundtrip_code compiled.Tlscore.Pipeline.code)

let binops =
  [ I.Add; I.Sub; I.Mul; I.Div; I.Rem; I.Band; I.Bor; I.Bxor; I.Shl;
    I.Shr; I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge ]

let eval_binop_i_agrees =
  QCheck.Test.make ~count:2000
    ~name:"eval_binop_i agrees with the variant evaluator"
    QCheck.(triple (int_bound 15) int int)
    (fun (opi, a, b) ->
      let op = List.nth binops opi in
      Icode.eval_binop_i (Icode.binop_index op) a b = I.eval_binop op a b)

let eval_binop_i_edges () =
  (* The cases a uniform operand draw is unlikely to land on. *)
  List.iter
    (fun (op, a, b) ->
      Alcotest.(check int)
        "edge case"
        (I.eval_binop op a b)
        (Icode.eval_binop_i (Icode.binop_index op) a b))
    [
      (I.Div, 17, 0); (I.Rem, 17, 0); (I.Div, min_int, -1);
      (I.Shl, 1, 63); (I.Shl, 1, 64); (I.Shr, min_int, 65);
      (I.Shl, -1, 130); (I.Shr, -8, 2);
    ]

(* ------------------------------------------------------------------ *)
(* Verifier negative paths on doctored arrays                          *)
(* ------------------------------------------------------------------ *)

(* A fixed program with everything the doctoring needs at predictable
   spots: a call with arguments, a loop branch, binops on registers. *)
let victim_src =
  "int g;\n\
   int work(int x, int y) { return x * y + g; }\n\
   void main() {\n\
  \  int i; int v;\n\
  \  for (i = 0; i < 8; i = i + 1) { v = work(v, i + 1); g = v; }\n\
  \  print(v);\n\
   }"

let victim_prog () =
  let compiled = compile_src victim_src [||] in
  Icode.encode compiled.Tlscore.Pipeline.code

(* Widths mirror the layout table in icode.mli — kept in the test on
   purpose, so an encoder width change that forgets the docs fails
   loudly here. *)
let width_of_kind : I.kind -> int = function
  | I.Bin _ | I.Sync_load _ -> 5
  | I.Mov _ | I.Load _ | I.Store _ | I.Input _ | I.Wait_scalar _
  | I.Signal_scalar _ | I.Signal_mem _ | I.Signal_mem_if_unsent _ ->
    4
  | I.Call (_, _, args) -> 5 + (2 * List.length args)
  | I.Print _ | I.Input_len _ | I.Wait_mem _ | I.Signal_null _
  | I.Signal_null_if_unsent _ ->
    3

(* (flat offset, instruction) pairs of block [b], plus the offset of
   its terminator. *)
let instr_offsets (p : Icode.prog) (f : Icode.func) b =
  let instrs, _ = Icode.decode_block p f b in
  let pc = ref f.Icode.block_off.(b) in
  let offs =
    List.map
      (fun (i : I.t) ->
        let at = !pc in
        pc := !pc + width_of_kind i.I.kind;
        (at, i))
      instrs
  in
  (offs, !pc)

(* Find the first (func, block, offset, instr) satisfying [pred]. *)
let find_instr (p : Icode.prog) pred =
  let found = ref None in
  Array.iter
    (fun (f : Icode.func) ->
      Array.iteri
        (fun b _ ->
          if !found = None then
            let offs, _ = instr_offsets p f b in
            List.iter
              (fun (at, i) ->
                if !found = None && pred i then found := Some (f, b, at, i))
              offs)
        f.Icode.fn_cfunc.Runtime.Code.cf_blocks)
    p.Icode.funcs;
  match !found with
  | Some x -> x
  | None -> Alcotest.fail "victim program lacks the expected instruction"

let expect_error label (p : Icode.prog) fragment =
  match Icode.verify p with
  | Ok () -> Alcotest.fail (label ^ ": verifier accepted malformed icode")
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    check_bool
      (Printf.sprintf "%s: message %S mentions %S" label msg fragment)
      true (contains msg fragment)

let verifier_accepts_encoder_output () =
  match Icode.verify (victim_prog ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("fresh encoding rejected: " ^ e)

let dangling_branch_target () =
  let p = victim_prog () in
  (* Terminator of some multi-block function: take main's block 0.  Its
     terminator starts where the instructions end. *)
  let f =
    match
      Array.to_list p.Icode.funcs
      |> List.find_opt (fun (f : Icode.func) ->
             Array.length f.Icode.fn_cfunc.Runtime.Code.cf_blocks > 1)
    with
    | Some f -> f
    | None -> Alcotest.fail "victim program has no multi-block function"
  in
  let rec find_jump b =
    if b >= Array.length f.Icode.fn_cfunc.Runtime.Code.cf_blocks then
      Alcotest.fail "no jmp/br terminator found"
    else
      let _, term_at = instr_offsets p f b in
      match f.Icode.fn_cfunc.Runtime.Code.cf_blocks.(b).Runtime.Code.term with
      | I.Jmp _ -> (term_at + 1)          (* label slot of Jmp *)
      | I.Br _ -> (term_at + 2)           (* then-label slot of Br *)
      | I.Ret _ -> find_jump (b + 1)
  in
  let slot = find_jump 0 in
  f.Icode.code.(slot) <- 1000;
  expect_error "dangling branch" p "dangling branch target"

let branch_offset_mismatch () =
  let p = victim_prog () in
  let f =
    match
      Array.to_list p.Icode.funcs
      |> List.find_opt (fun (f : Icode.func) ->
             Array.length f.Icode.fn_cfunc.Runtime.Code.cf_blocks > 1)
    with
    | Some f -> f
    | None -> Alcotest.fail "victim program has no multi-block function"
  in
  let rec find_jmp_off b =
    if b >= Array.length f.Icode.fn_cfunc.Runtime.Code.cf_blocks then
      Alcotest.fail "no jmp/br terminator found"
    else
      let _, term_at = instr_offsets p f b in
      match f.Icode.fn_cfunc.Runtime.Code.cf_blocks.(b).Runtime.Code.term with
      | I.Jmp _ -> (term_at + 2)          (* pre-resolved offset slot *)
      | I.Br _ -> (term_at + 4)           (* then-offset slot *)
      | I.Ret _ -> find_jmp_off (b + 1)
  in
  let slot = find_jmp_off 0 in
  f.Icode.code.(slot) <- f.Icode.code.(slot) + 1;
  expect_error "stale branch offset" p "does not match block"

let out_of_range_operand () =
  let p = victim_prog () in
  let f, _, at, _ =
    find_instr p (fun i ->
        match i.I.kind with I.Bin _ -> true | _ -> false)
  in
  (* Destination register slot of a binop is at +2. *)
  f.Icode.code.(at + 2) <- f.Icode.fn_cfunc.Runtime.Code.cf_nregs + 5;
  expect_error "operand slot" p "out-of-range register"

let invalid_opcode () =
  let p = victim_prog () in
  let f, _, at, _ =
    find_instr p (fun i ->
        match i.I.kind with I.Bin _ -> true | _ -> false)
  in
  f.Icode.code.(at) <- 200;
  expect_error "invalid opcode" p "invalid opcode"

let call_arity_mismatch () =
  let p = victim_prog () in
  let f, _, at, _ =
    find_instr p (fun i ->
        match i.I.kind with I.Call _ -> true | _ -> false)
  in
  (* The argument-count slot of a call is at +4; inflating it makes the
     decoded width overrun the block. *)
  f.Icode.code.(at + 4) <- 4096;
  expect_error "call arity" p "overruns block end"

let opcode_width_mismatch () =
  let p = victim_prog () in
  let f, _, at, _ =
    find_instr p (fun i ->
        match i.I.kind with I.Bin _ -> true | _ -> false)
  in
  (* Rewrite a 5-slot binop into a 2-slot Ret: a terminator that does
     not end its block. *)
  f.Icode.code.(at) <- 33 (* op_ret *);
  expect_error "mid-block terminator" p "terminator does not end the block"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "icode"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest proggen_roundtrip;
          QCheck_alcotest.to_alcotest eval_binop_i_agrees;
          Alcotest.test_case "eval_binop_i edge cases" `Quick
            eval_binop_i_edges;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts fresh encoder output" `Quick
            verifier_accepts_encoder_output;
          Alcotest.test_case "dangling branch target" `Quick
            dangling_branch_target;
          Alcotest.test_case "stale branch offset" `Quick
            branch_offset_mismatch;
          Alcotest.test_case "out-of-range operand slot" `Quick
            out_of_range_operand;
          Alcotest.test_case "invalid opcode" `Quick invalid_opcode;
          Alcotest.test_case "call arity overruns block" `Quick
            call_arity_mismatch;
          Alcotest.test_case "terminator mid-block" `Quick
            opcode_width_mismatch;
        ] );
    ]
