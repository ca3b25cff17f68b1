type loop_key = { lk_func : string; lk_header : Ir.Instr.label }

type access = { a_iid : Ir.Instr.iid; a_ctx : Ir.Instr.iid list }

type dep = { producer : access; consumer : access }

type loop_stats = {
  mutable instances : int;
  mutable iterations : int;
  mutable dyn_instrs : int;
  mutable nested_instances : int;
}

type dep_profile = {
  mutable total_epochs : int;
  dep_epochs : (dep, int) Hashtbl.t;
  load_dep_epochs : (access, int) Hashtbl.t;
  distances : (int, int) Hashtbl.t;
}

type t = {
  loops : (loop_key, loop_stats) Hashtbl.t;
  deps : (loop_key, dep_profile) Hashtbl.t;
  mutable total_instrs : int;
  output : int list;
}

let fresh_loop_stats () =
  { instances = 0; iterations = 0; dyn_instrs = 0; nested_instances = 0 }

let fresh_dep_profile () =
  {
    total_epochs = 0;
    dep_epochs = Hashtbl.create 64;
    load_dep_epochs = Hashtbl.create 64;
    distances = Hashtbl.create 16;
  }

let stats t key =
  match Hashtbl.find_opt t.loops key with
  | Some s -> s
  | None -> fresh_loop_stats ()

let coverage t key =
  if t.total_instrs = 0 then 0.0
  else float_of_int (stats t key).dyn_instrs /. float_of_int t.total_instrs

let dep_profile t key = Hashtbl.find_opt t.deps key

let frequent_deps dp ~threshold =
  if dp.total_epochs = 0 then []
  else begin
    let needed =
      int_of_float (ceil (threshold *. float_of_int dp.total_epochs))
    in
    let needed = max needed 1 in
    Hashtbl.fold
      (fun dep count acc -> if count >= needed then dep :: acc else acc)
      dp.dep_epochs []
    |> List.sort compare
  end

let frequent_loads dp ~threshold =
  if dp.total_epochs = 0 then []
  else begin
    let needed =
      int_of_float (ceil (threshold *. float_of_int dp.total_epochs))
    in
    let needed = max needed 1 in
    Hashtbl.fold
      (fun acc_load count acc -> if count >= needed then acc_load :: acc else acc)
      dp.load_dep_epochs []
    |> List.sort compare
  end

let distance_histogram dp =
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) dp.distances []
  |> List.sort compare

let pp_access a =
  match a.a_ctx with
  | [] -> Printf.sprintf "i%d" a.a_iid
  | ctx ->
    Printf.sprintf "i%d@[%s]" a.a_iid
      (String.concat ">" (List.map string_of_int ctx))

let to_dot ?(threshold = 0.05) dp =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dependences {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  let needed =
    max 1 (int_of_float (ceil (threshold *. float_of_int dp.total_epochs)))
  in
  let vertices = Hashtbl.create 32 in
  let vertex a =
    let name = pp_access a in
    if not (Hashtbl.mem vertices name) then begin
      Hashtbl.replace vertices name ();
      Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" name)
    end;
    name
  in
  Hashtbl.iter
    (fun d count ->
      let p = vertex d.producer and c = vertex d.consumer in
      let pct =
        if dp.total_epochs = 0 then 0.0
        else 100.0 *. float_of_int count /. float_of_int dp.total_epochs
      in
      let style = if count >= needed then "solid" else "dashed" in
      Buffer.add_string buf
        (Printf.sprintf
           "  \"%s\" -> \"%s\" [label=\"%.0f%%\", style=%s];\n" p c pct
           style))
    dp.dep_epochs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
