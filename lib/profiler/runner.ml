(* The instrumented profiler: one tail-recursive dispatch loop over the
   flat icode encoding (DESIGN §17), with loop and dependence tracking
   inlined at the three events it observes — taken branches, returns,
   and loads/stores.

   No allocation per instruction: operands are fetched by top-level
   inlined helpers (a local closure would allocate per instruction),
   loop structure lives in label-indexed arrays built once per run, and
   writer tracking is skipped entirely when nothing is watched.  What
   still allocates is proportional to profile events, not instructions:
   call frames, loop instances, store marks while a watched instance is
   active, and dependence keys when a dependence is found.

   The boxed [Runtime.Thread] remains the sequential output oracle; the
   golden profile test checks this loop's output and instruction count
   against it. *)

module Icode = Runtime.Icode

(* Loop structure and per-loop profile slots of one function, indexed
   by block label.  [stats] and [dps] hold the records of [Profile.t]'s
   tables; each is created and inserted into its table the first time
   it is needed (a loop's first entry; a watched loop's first close or
   first dependence), which fixes the tables' iteration order. *)
type floops = {
  fn : Icode.func;
  is_header : bool array;
  body : bool array array;          (* header -> body membership; [||]
                                       for non-headers *)
  keys : Profile.loop_key array;    (* header -> its key *)
  watched : bool array;             (* header -> key is in [watch] *)
  stats : Profile.loop_stats array; (* header -> stats, or [no_stats] *)
  dps : Profile.dep_profile array;  (* header -> profile, or [no_dp] *)
}

(* One activation: the interpreter frame and its profiling state. *)
type frame = {
  fl : floops;
  regs : int array;
  mutable ret_pc : int;            (* resume offset after a callee returns *)
  ret_to : int;                    (* caller register for the return
                                      value; -1 for none *)
  call_iid : Ir.Instr.iid;         (* call site that created it; -1 at the
                                      root *)
  level : int;                     (* depth below the root frame (0) *)
  parent : frame;                  (* the root is its own parent *)
  mutable active : active list;    (* loop instances, innermost first *)
  mutable ctx_level : int;         (* memoized [context] for one level *)
  mutable ctx : Ir.Instr.iid list;
}

(* One dynamic loop instance being tracked. *)
and active = {
  act_fl : floops;
  act_header : Ir.Instr.label;
  act_body : bool array;           (* label -> inside the loop *)
  act_stats : Profile.loop_stats;
  act_instance : int;              (* globally unique instance id *)
  mutable act_iteration : int;     (* 1-based *)
  act_entered_at : int;            (* icount at entry *)
  act_level : int;                 (* level of the frame it runs in *)
  act_watched : bool;
}

(* Last writer of a memory word: the store's id plus, for every watched
   instance active at store time, the (instance, iteration, context).
   Instance ids are unique, so a mark matches a loop instance by id
   alone. *)
type mark = {
  m_instance : int;
  m_iteration : int;
  m_ctx : Ir.Instr.iid list;
}

type writer = { mutable w_iid : Ir.Instr.iid; mutable w_marks : mark list }

(* Last consumer epoch a dependence or load was counted in. *)
type seen = { mutable s_instance : int; mutable s_iteration : int }

module Addr_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = (a * 0x2545F4914F6CDD1D) lsr 20
end)

type state = {
  profile : Profile.t;
  funcs : floops array;            (* indexed by [cf_id] *)
  names : string array;            (* unknown-callee names *)
  ret_regs : int array;            (* interned call destinations; -1 none *)
  mem : Runtime.Memory.t;
  input : int array;
  tracking : bool;                 (* some loop is watched *)
  max_steps : int;
  mutable output : int list;       (* reversed print stream *)
  mutable active_instances : int;  (* loop instances open across frames *)
  mutable watched_active : active list;  (* all watched, newest first *)
  writers : writer Addr_tbl.t;
  dep_seen : (Profile.dep, seen) Hashtbl.t;
  load_seen : (Profile.access, seen) Hashtbl.t;
  mutable next_instance : int;
}

exception Step_limit of { max_steps : int; icount : int }

let no_stats = Profile.fresh_loop_stats ()

let no_dp = Profile.fresh_dep_profile ()

let no_key = { Profile.lk_func = ""; lk_header = -1 }

let floops_of (fn : Icode.func) fname (f : Ir.Func.t) watch_set =
  let nb = Array.length fn.Icode.fn_cfunc.Runtime.Code.cf_blocks in
  let fl =
    {
      fn;
      is_header = Array.make nb false;
      body = Array.make nb [||];
      keys = Array.make nb no_key;
      watched = Array.make nb false;
      stats = Array.make nb no_stats;
      dps = Array.make nb no_dp;
    }
  in
  List.iter
    (fun (l : Dataflow.Loops.loop) ->
      let h = l.Dataflow.Loops.header in
      let key = { Profile.lk_func = fname; lk_header = h } in
      let body = Array.make nb false in
      List.iter (fun b -> body.(b) <- true) l.Dataflow.Loops.body;
      fl.is_header.(h) <- true;
      fl.body.(h) <- body;
      fl.keys.(h) <- key;
      fl.watched.(h) <- Hashtbl.mem watch_set key)
    (Dataflow.Loops.find f);
  fl

let stats_for st fl h =
  let s = fl.stats.(h) in
  if s != no_stats then s
  else begin
    let s = Profile.fresh_loop_stats () in
    Hashtbl.replace st.profile.Profile.loops fl.keys.(h) s;
    fl.stats.(h) <- s;
    s
  end

let dep_profile_for st (a : active) =
  let fl = a.act_fl and h = a.act_header in
  let dp = fl.dps.(h) in
  if dp != no_dp then dp
  else begin
    let dp = Profile.fresh_dep_profile () in
    Hashtbl.replace st.profile.Profile.deps fl.keys.(h) dp;
    fl.dps.(h) <- dp;
    dp
  end

(* Call iids of the frames strictly inside level [lvl], outermost call
   first. *)
let rec context_walk (f : frame) lvl acc =
  if f.level <= lvl then acc else context_walk f.parent lvl (f.call_iid :: acc)

(* Call-site context of the current location relative to a loop entered
   at frame level [lvl].  A frame's ancestry never changes, so the last
   answer is kept on the frame. *)
let context (f : frame) lvl =
  if f.level = lvl then []
  else if f.ctx_level = lvl then f.ctx
  else begin
    let c = context_walk f lvl [] in
    f.ctx_level <- lvl;
    f.ctx <- c;
    c
  end

(* ------------------------------------------------------------------ *)
(* Loop instances *)

let rec remove_instance (a : active) = function
  | [] -> []
  | x :: rest -> if x == a then rest else x :: remove_instance a rest

let close_instance st icount (a : active) =
  st.active_instances <- st.active_instances - 1;
  let s = a.act_stats in
  s.Profile.iterations <- s.Profile.iterations + a.act_iteration;
  s.Profile.dyn_instrs <- s.Profile.dyn_instrs + (icount - a.act_entered_at);
  if a.act_watched then begin
    let dp = dep_profile_for st a in
    dp.Profile.total_epochs <- dp.Profile.total_epochs + a.act_iteration;
    st.watched_active <- remove_instance a st.watched_active
  end

let open_instance st icount (f : frame) h =
  let fl = f.fl in
  let s = stats_for st fl h in
  s.Profile.instances <- s.Profile.instances + 1;
  if st.active_instances > 0 then
    s.Profile.nested_instances <- s.Profile.nested_instances + 1;
  st.active_instances <- st.active_instances + 1;
  let a =
    {
      act_fl = fl;
      act_header = h;
      act_body = fl.body.(h);
      act_stats = s;
      act_instance = st.next_instance;
      act_iteration = 1;
      act_entered_at = icount;
      act_level = f.level;
      act_watched = fl.watched.(h);
    }
  in
  st.next_instance <- st.next_instance + 1;
  if a.act_watched then st.watched_active <- a :: st.watched_active;
  f.active <- a :: f.active

let rec all_contain target = function
  | [] -> true
  | (a : active) :: rest ->
    Array.unsafe_get a.act_body target
    && all_contain target rest

(* Close, in list order, the instances whose body does not contain
   [target]; return the rest in order. *)
let rec close_outside st icount target = function
  | [] -> []
  | (a : active) :: rest ->
    if Array.unsafe_get a.act_body target then
      a :: close_outside st icount target rest
    else begin
      close_instance st icount a;
      close_outside st icount target rest
    end

(* Count an iteration of the instance of the loop headed by [h], or
   enter the loop if no instance of it is active in [f]. *)
let rec iterate_or_open st icount f h = function
  | [] -> open_instance st icount f h
  | (a : active) :: rest ->
    if a.act_header = h then a.act_iteration <- a.act_iteration + 1
    else iterate_or_open st icount f h rest

(* A taken Jmp/Br of frame [f] to [target], [icount] already counting
   it: leave the loops that do not contain the target, then count an
   iteration of, or enter, the loop it heads. *)
let goto st icount (f : frame) target =
  if not (all_contain target f.active) then
    f.active <- close_outside st icount target f.active;
  if Array.unsafe_get f.fl.is_header target then
    iterate_or_open st icount f target f.active

let rec close_all st icount = function
  | [] -> ()
  | a :: rest ->
    close_instance st icount a;
    close_all st icount rest

(* ------------------------------------------------------------------ *)
(* Dependence tracking *)

let rec marks_of (f : frame) = function
  | [] -> []
  | (a : active) :: rest ->
    {
      m_instance = a.act_instance;
      m_iteration = a.act_iteration;
      m_ctx = context f a.act_level;
    }
    :: marks_of f rest

(* A store with no watched instance active leaves no mark any load could
   match, so it just forgets the previous writer. *)
let record_store st (f : frame) iid addr =
  match st.watched_active with
  | [] -> Addr_tbl.remove st.writers addr
  | watched -> (
    let marks = marks_of f watched in
    match Addr_tbl.find st.writers addr with
    | w ->
      w.w_iid <- iid;
      w.w_marks <- marks
    | exception Not_found ->
      Addr_tbl.add st.writers addr { w_iid = iid; w_marks = marks })

let bump tbl key =
  match Hashtbl.find tbl key with
  | c -> Hashtbl.replace tbl key (c + 1)
  | exception Not_found -> Hashtbl.replace tbl key 1

(* True the first time [key] is seen in epoch [a]; later calls in the
   same epoch return false. *)
let first_in_epoch tbl key (a : active) =
  match Hashtbl.find tbl key with
  | s ->
    if s.s_instance = a.act_instance && s.s_iteration = a.act_iteration then
      false
    else begin
      s.s_instance <- a.act_instance;
      s.s_iteration <- a.act_iteration;
      true
    end
  | exception Not_found ->
    Hashtbl.replace tbl key
      { s_instance = a.act_instance; s_iteration = a.act_iteration };
    true

let record_dep st (f : frame) iid (w : writer) m (a : active) =
  let dp = dep_profile_for st a in
  let consumer = { Profile.a_iid = iid; a_ctx = context f a.act_level } in
  let producer = { Profile.a_iid = w.w_iid; a_ctx = m.m_ctx } in
  let dep = { Profile.producer; consumer } in
  if first_in_epoch st.dep_seen dep a then bump dp.Profile.dep_epochs dep;
  if first_in_epoch st.load_seen consumer a then
    bump dp.Profile.load_dep_epochs consumer;
  bump dp.Profile.distances (a.act_iteration - m.m_iteration)

(* The writer's mark for instance [a], if any, names a dependence when
   it was left by an earlier epoch. *)
let rec match_mark st f iid w (a : active) = function
  | [] -> ()
  | m :: rest ->
    if m.m_instance <> a.act_instance then match_mark st f iid w a rest
    else if m.m_iteration < a.act_iteration then record_dep st f iid w m a

let rec match_marks st f iid w = function
  | [] -> ()
  | (a : active) :: rest ->
    match_mark st f iid w a w.w_marks;
    match_marks st f iid w rest

let record_load st (f : frame) iid addr =
  match st.watched_active with
  | [] -> ()
  | watched -> (
    match Addr_tbl.find st.writers addr with
    | w -> match_marks st f iid w watched
    | exception Not_found -> ())

(* ------------------------------------------------------------------ *)
(* Dispatch *)

(* Operand fetch: the slot at [k] is an immediate when [bit] of [w] is
   set, else a register index.  Unchecked reads are licensed by
   [Icode.verify]. *)
let[@inline] operand code regs w bit k =
  let x = Array.unsafe_get code k in
  if w land bit <> 0 then x else Array.unsafe_get regs x

let[@inline] set code regs k v =
  Array.unsafe_set regs (Array.unsafe_get code k) v

(* Execute from offset [pc] of frame [f] (whose code and registers are
   [code] and [regs]) until the root frame returns; [icount] counts the
   instructions executed so far.  Opcodes and slot layouts are
   [Runtime.Icode]'s. *)
let rec exec st (f : frame) code regs pc icount =
  if icount > st.max_steps then
    raise (Step_limit { max_steps = st.max_steps; icount });
  let w = Array.unsafe_get code pc in
  let op = w land 0xff in
  if op < 16 then begin
    set code regs (pc + 2)
      (Icode.eval_binop_i op
         (operand code regs w 0x100 (pc + 3))
         (operand code regs w 0x200 (pc + 4)));
    exec st f code regs (pc + 5) (icount + 1)
  end
  else
    match op with
    | 16 (* Mov *) ->
      set code regs (pc + 2) (operand code regs w 0x100 (pc + 3));
      exec st f code regs (pc + 4) (icount + 1)
    | 17 (* Load *) ->
      let addr = operand code regs w 0x100 (pc + 3) in
      if st.tracking then
        record_load st f (Array.unsafe_get code (pc + 1)) addr;
      set code regs (pc + 2) (Runtime.Memory.get st.mem addr);
      exec st f code regs (pc + 4) (icount + 1)
    | 18 (* Store *) ->
      let addr = operand code regs w 0x100 (pc + 2) in
      if st.tracking then
        record_store st f (Array.unsafe_get code (pc + 1)) addr;
      Runtime.Memory.store st.mem addr (operand code regs w 0x200 (pc + 3));
      exec st f code regs (pc + 4) (icount + 1)
    | 19 (* Call *) ->
      let fidx = Array.unsafe_get code (pc + 2) in
      if fidx < 0 then
        failwith ("Thread: call to unknown function " ^ st.names.(-fidx - 1));
      let callee = Array.unsafe_get st.funcs fidx in
      let callee_regs =
        Array.make callee.fn.Icode.fn_cfunc.Runtime.Code.cf_nregs 0
      in
      let nargs = Array.unsafe_get code (pc + 4) in
      Icode.bind_args code regs callee_regs
        callee.fn.Icode.fn_cfunc.Runtime.Code.cf_params (pc + 5) nargs;
      f.ret_pc <- pc + 5 + (2 * nargs);
      let cf =
        {
          fl = callee;
          regs = callee_regs;
          ret_pc = 0;
          ret_to =
            Array.unsafe_get st.ret_regs (Array.unsafe_get code (pc + 3));
          call_iid = Array.unsafe_get code (pc + 1);
          level = f.level + 1;
          parent = f;
          active = [];
          ctx_level = -1;
          ctx = [];
        }
      in
      exec st cf callee.fn.Icode.code callee_regs 0 (icount + 1)
    | 20 (* Print *) ->
      st.output <- operand code regs w 0x100 (pc + 2) :: st.output;
      exec st f code regs (pc + 3) (icount + 1)
    | 21 (* Input *) ->
      let idx = operand code regs w 0x100 (pc + 3) in
      set code regs (pc + 2)
        (if idx >= 0 && idx < Array.length st.input then st.input.(idx) else 0);
      exec st f code regs (pc + 4) (icount + 1)
    | 22 (* Input_len *) ->
      set code regs (pc + 2) (Array.length st.input);
      exec st f code regs (pc + 3) (icount + 1)
    | 26 (* Sync_load: an untracked plain load, sequentially *) ->
      set code regs (pc + 3)
        (Runtime.Memory.get st.mem (operand code regs w 0x100 (pc + 4)));
      exec st f code regs (pc + 5) (icount + 1)
    (* The other sync instructions are no-ops sequentially (a scalar
       wait is the identity). *)
    | 23 | 24 | 27 | 28 -> exec st f code regs (pc + 4) (icount + 1)
    | 25 | 29 | 30 -> exec st f code regs (pc + 3) (icount + 1)
    | 31 (* Jmp *) ->
      let icount = icount + 1 in
      goto st icount f (Array.unsafe_get code (pc + 1));
      exec st f code regs (Array.unsafe_get code (pc + 2)) icount
    | 32 (* Br *) ->
      let icount = icount + 1 in
      let k = if operand code regs w 0x100 (pc + 1) <> 0 then 0 else 1 in
      goto st icount f (Array.unsafe_get code (pc + 2 + k));
      exec st f code regs (Array.unsafe_get code (pc + 4 + k)) icount
    | _ (* Ret *) ->
      let icount = icount + 1 in
      let v =
        if w land 0x100 = 0 then 0 else operand code regs w 0x200 (pc + 1)
      in
      close_all st icount f.active;
      if f.level = 0 then icount
      else begin
        let p = f.parent in
        if f.ret_to >= 0 then p.regs.(f.ret_to) <- v;
        exec st p p.fl.fn.Icode.code p.regs p.ret_pc icount
      end

let all_loops (prog : Ir.Prog.t) =
  List.concat_map
    (fun (fname, f) ->
      List.map
        (fun (l : Dataflow.Loops.loop) ->
          { Profile.lk_func = fname; lk_header = l.header })
        (Dataflow.Loops.find f))
    prog.Ir.Prog.funcs

let run ?(max_steps = 200_000_000) (prog : Ir.Prog.t) ~input ~watch =
  let code = Runtime.Code.of_prog prog in
  let ic = Icode.of_code code in
  let watch_set = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace watch_set k ()) watch;
  let funcs =
    Array.of_list
      (List.mapi
         (fun id (fname, f) -> floops_of ic.Icode.funcs.(id) fname f watch_set)
         prog.Ir.Prog.funcs)
  in
  let tracking = watch <> [] in
  let st =
    {
      profile =
        {
          Profile.loops = Hashtbl.create 64;
          deps = Hashtbl.create 8;
          total_instrs = 0;
          output = [];
        };
      funcs;
      names = ic.Icode.names;
      ret_regs =
        Array.map (function Some r -> r | None -> -1) ic.Icode.ret_opts;
      mem = Runtime.Memory.create ();
      input;
      tracking;
      max_steps;
      output = [];
      active_instances = 0;
      watched_active = [];
      (* untouched when nothing is watched *)
      writers = Addr_tbl.create (if tracking then 4096 else 1);
      dep_seen = Hashtbl.create 256;
      load_seen = Hashtbl.create 256;
      next_instance = 0;
    }
  in
  Runtime.Memory.store_all st.mem code.Runtime.Code.initial_stores;
  let main = funcs.((Runtime.Code.func code "main").Runtime.Code.cf_id) in
  let regs = Array.make main.fn.Icode.fn_cfunc.Runtime.Code.cf_nregs 0 in
  let rec root =
    {
      fl = main;
      regs;
      ret_pc = 0;
      ret_to = -1;
      call_iid = -1;
      level = 0;
      parent = root;
      active = [];
      ctx_level = -1;
      ctx = [];
    }
  in
  let icount = exec st root main.fn.Icode.code regs 0 0 in
  {
    st.profile with
    Profile.total_instrs = icount;
    output = List.rev st.output;
  }
