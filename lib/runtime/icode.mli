(** Flat pre-resolved instruction encoding ("icode", DESIGN §17).

    Two interpreters graduate hundreds of millions of instructions per
    bench run: the TLS simulator's event engine ([Tls.Sim_event]) and the
    instrumented profiler ([Profiler.Runner]).  Decoding the boxed
    list/variant [Ir.Instr] representation per instruction dominated
    both.  This module lowers every [Code.cfunc] once into a single
    dense [int array] per function — integer opcodes, inline operand
    slots, pre-resolved branch and call targets, channel indices in
    place — so the hot loops dispatch on integers with no allocation, no
    pointer chasing, and no string hashing.  Anything non-integral
    (callee names for the unknown-function error path, interned
    [reg option] call destinations) lives in side tables indexed by slot
    values.  The sequential phase of the domain runtime ([Specrt])
    dispatches on it too.  The boxed [Thread] stays the sequential
    output oracle the encoder is checked against.

    {2 Layout}

    Blocks are laid out back-to-back in label order, block 0 first, so a
    program counter is a flat offset into [code] and the legacy
    [frame.pc = 0] entry convention still lands on the function entry.
    [block_off.(l)] is the offset of block [l]; branch slots carry both
    the label (region-exit logic keys on labels) and the pre-resolved
    offset.

    Each instruction starts with a word [w]: opcode in the low 8 bits,
    bit 8 ({!flag_a}) set when the first operand slot is an immediate,
    bit 9 ({!flag_b}) when the second is.  Operand fetch is branch-free
    of the variant: [let x = code.(pc + k) in
    if w land flag <> 0 then x else regs.(x)].

    Opcodes 0–15 are the sixteen binops in [Ir.Instr.binop] constructor
    order (Add Sub Mul Div Rem Band Bor Bxor Shl Shr Eq Ne Lt Le Gt Ge),
    so [op < 16] is the ALU fast path and [op = 2] (Mul) / [op = 3 | 4]
    (Div/Rem) select the latency class.  Slot layouts (width includes
    [w]; [iid] is always at [pc+1] for straight-line ops):

    {v
    op  kind                    slots                              width
    0-15 Bin                    w iid d a b                        5
    16  Mov                     w iid d a                          4
    17  Load                    w iid d addr                       4
    18  Store                   w iid addr v                       4
    19  Call                    w iid fidx ret nargs (mode val)*   5+2n
    20  Print                   w iid a                            3
    21  Input                   w iid d idx                        4
    22  Input_len               w iid d                            3
    23  Wait_scalar             w iid ch d                         4
    24  Signal_scalar           w iid ch a                         4
    25  Wait_mem                w iid ch                           3
    26  Sync_load               w iid ch d addr                    5
    27  Signal_mem              w iid ch a                         4
    28  Signal_mem_if_unsent    w iid ch a                         4
    29  Signal_null             w iid ch                           3
    30  Signal_null_if_unsent   w iid ch                           3
    31  Jmp                     w label off                        3
    32  Br                      w c la lb offa offb                6
    33  Ret                     w v                                2
    v}

    [Call.fidx] is the callee's pre-resolved [cf_id] ([>= 0]), or
    [-(i)-1] with [names.(i)] the callee name when the function is
    unknown — the error path reconstructs the exact legacy message.
    [Call.ret] indexes {!field-ret_opts}; argument pairs are
    [(1, imm)] or [(0, reg)].  For [Ret], bit 8 means "has a value" and
    bit 9 "the value is an immediate". *)

type func = {
  fn_cfunc : Code.cfunc;  (* the source snapshot (regions, decode) *)
  code : int array;               (* whole function, blocks in label order *)
  block_off : int array;          (* label -> flat offset; block_off.(0)=0 *)
}

type prog = {
  funcs : func array;                     (* indexed by [cf_id] *)
  names : string array;                   (* unknown-callee names *)
  ret_opts : Ir.Instr.reg option array;   (* interned call destinations *)
}

val opcode_mask : int  (* 0xff *)
val flag_a : int       (* 0x100: first operand slot is an immediate *)
val flag_b : int       (* 0x200: second operand slot is an immediate *)

(** Encode without verifying — the test seam for doctoring arrays. *)
val encode : Code.t -> prog

(** Structural well-formedness: opcode validity, instruction widths
    landing exactly on block boundaries, terminator per block, register
    operands within [cf_nregs], non-negative channels and iids, branch
    labels in range with offsets matching [block_off], call-site indices
    within the side tables.  This is what justifies unchecked array
    reads in the dispatcher. *)
val verify : prog -> (unit, string) result

(** [encode] + [verify], raising [Failure] on malformed output (an
    encoder bug, not a user error). *)
val of_code : Code.t -> prog

(** Reconstruct one block; the round-trip test seam.  Decoded
    instructions are structurally equal to the originals. *)
val decode_block :
  prog -> func -> Ir.Instr.label -> Ir.Instr.t list * Ir.Instr.terminator

(** Integer-coded {!Ir.Instr.eval_binop}: [eval_binop_i (binop_index op)]
    ≡ [eval_binop op], including the div/rem-by-zero guards and the
    6-bit shift masks. *)
val eval_binop_i : int -> int -> int -> int

val binop_index : Ir.Instr.binop -> int

(** [bind_args code regs callee_regs params base nargs] binds a call
    site's [nargs] inline (mode, value) argument pairs, starting at
    [code.(base)], to the callee's [params] pairwise, reading register
    operands from the caller's [regs]: extra arguments are dropped and
    unbound parameters keep their value ([Thread]'s call
    semantics).  Allocates nothing. *)
val bind_args :
  int array -> int array -> int array -> Ir.Instr.reg list -> int -> int ->
  unit
