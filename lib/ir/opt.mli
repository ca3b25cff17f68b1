(** Classic scalar optimizations on the register IR: constant folding,
    block-local copy/constant propagation, and liveness-based dead-code
    elimination of pure instructions.

    The passes never touch memory accesses, calls, I/O, or TLS
    synchronization instructions, and they preserve instruction ids of
    surviving instructions, so a transformed program's region and sync
    tables stay valid across them.  [Tlscore.Pipeline.compile] does not
    run them. *)

(** Fold [Bin] instructions whose operands are both immediates.  Returns
    the number of instructions folded. *)
val constant_fold : Func.t -> int

(** Block-local propagation of [Mov] sources (registers and immediates)
    into later uses.  Returns the number of operands rewritten. *)
val propagate_copies : Func.t -> int

(** Remove pure instructions ([Bin]/[Mov]) whose results are dead.
    Returns the number of instructions removed. *)
val eliminate_dead_code : Func.t -> int

(** Run all passes to a (bounded) fixpoint over every function.  Returns
    the total number of simplifications. *)
val run : Prog.t -> int
