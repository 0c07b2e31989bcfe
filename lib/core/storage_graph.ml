type t = {
  parents : int array;  (* index 1..n; parents.(0) unused (-1) *)
  weights : Aux_graph.weight array;  (* weight of edge into v *)
  child_lists : int list array;  (* index 0..n, ascending children *)
  recreation : float array;  (* index 0..n, R0 = 0 *)
}

let n_versions t = Array.length t.parents - 1

let build_internal n (choices : (int * int * Aux_graph.weight) array) =
  (* choices.(v-1) = (parent, v, weight); validate arborescence. *)
  let parents = Array.make (n + 1) (-1) in
  let weights =
    Array.make (n + 1) ({ delta = 0.0; phi = 0.0 } : Aux_graph.weight)
  in
  let seen = Array.make (n + 1) false in
  let error = ref None in
  Array.iter
    (fun (p, v, w) ->
      if !error = None then begin
        if v < 1 || v > n then
          error := Some (Printf.sprintf "version %d out of range" v)
        else if seen.(v) then
          error := Some (Printf.sprintf "version %d has two parents" v)
        else if p < 0 || p > n then
          error := Some (Printf.sprintf "parent %d out of range" p)
        else if p = v then
          error := Some (Printf.sprintf "version %d is its own parent" v)
        else begin
          seen.(v) <- true;
          parents.(v) <- p;
          weights.(v) <- w
        end
      end)
    choices;
  (match !error with
  | Some _ -> ()
  | None ->
      for v = 1 to n do
        if not seen.(v) then
          error := Some (Printf.sprintf "version %d has no parent" v)
      done);
  match !error with
  | Some e -> Error e
  | None -> (
      (* Cycle check: walk up from each vertex, marking the path; a
         revisit of an in-progress vertex is a cycle. Iterative to
         stay safe on very deep chains. *)
      let state = Array.make (n + 1) `White in
      state.(0) <- `Black;
      let acyclic = ref true in
      for start = 1 to n do
        if state.(start) = `White && !acyclic then begin
          (* Ascend, graying the path. *)
          let path = ref [] in
          let v = ref start in
          while state.(!v) = `White do
            state.(!v) <- `Gray;
            path := !v :: !path;
            v := parents.(!v)
          done;
          if state.(!v) = `Gray then acyclic := false;
          List.iter (fun u -> state.(u) <- `Black) !path
        end
      done;
      if not !acyclic then Error "parent choices contain a cycle"
      else begin
        let child_lists = Array.make (n + 1) [] in
        for v = n downto 1 do
          child_lists.(parents.(v)) <- v :: child_lists.(parents.(v))
        done;
        (* Recreation costs by preorder from the root (iterative). *)
        let recreation = Array.make (n + 1) 0.0 in
        let stack = ref [ 0 ] in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | v :: rest ->
              stack := rest;
              List.iter
                (fun c ->
                  recreation.(c) <- recreation.(v) +. weights.(c).phi;
                  stack := c :: !stack)
                child_lists.(v)
        done;
        Ok { parents; weights; child_lists; recreation }
      end)

let of_parent_edges ~n choices =
  if List.length choices <> n then
    Error
      (Printf.sprintf "expected %d parent choices, got %d" n
         (List.length choices))
  else build_internal n (Array.of_list choices)

let of_parents g ~parents =
  let n = Aux_graph.n_versions g in
  let lookup (p, v) =
    if v < 1 || v > n then
      Error (Printf.sprintf "version %d out of range" v)
    else if p = 0 then
      match Aux_graph.materialization g v with
      | Some w -> Ok (0, v, w)
      | None ->
          Error (Printf.sprintf "materialization of %d is not revealed" v)
    else if p < 1 || p > n then
      Error (Printf.sprintf "parent %d out of range" p)
    else
      match Aux_graph.delta g ~src:p ~dst:v with
      | Some w -> Ok (p, v, w)
      | None -> Error (Printf.sprintf "delta %d -> %d is not revealed" p v)
  in
  let rec collect acc = function
    | [] -> of_parent_edges ~n (List.rev acc)
    | c :: rest -> (
        match lookup c with
        | Ok e -> collect (e :: acc) rest
        | Error _ as e -> e)
  in
  collect [] parents

let parent t v =
  if v < 1 || v > n_versions t then invalid_arg "Storage_graph.parent";
  t.parents.(v)

let edge_weight t v =
  if v < 1 || v > n_versions t then invalid_arg "Storage_graph.edge_weight";
  t.weights.(v)

let is_materialized t v = parent t v = 0

let materialized_versions t =
  let n = n_versions t in
  let rec go v acc =
    if v < 1 then acc else go (v - 1) (if t.parents.(v) = 0 then v :: acc else acc)
  in
  go n []

let children t v =
  if v < 0 || v > n_versions t then invalid_arg "Storage_graph.children";
  t.child_lists.(v)

let depth t v =
  let rec go v acc = if v = 0 then acc else go t.parents.(v) (acc + 1) in
  if v < 1 || v > n_versions t then invalid_arg "Storage_graph.depth";
  go t.parents.(v) 0

let storage_cost t =
  let acc = ref 0.0 in
  for v = 1 to n_versions t do
    acc := !acc +. t.weights.(v).delta
  done;
  !acc

let recreation_costs t = Array.copy t.recreation

let recreation_cost t v =
  if v < 1 || v > n_versions t then invalid_arg "Storage_graph.recreation_cost";
  t.recreation.(v)

let sum_recreation t =
  let acc = ref 0.0 in
  for v = 1 to n_versions t do
    acc := !acc +. t.recreation.(v)
  done;
  !acc

let max_recreation t =
  let acc = ref 0.0 in
  for v = 1 to n_versions t do
    if t.recreation.(v) > !acc then acc := t.recreation.(v)
  done;
  !acc

let weighted_recreation t ~freqs =
  if Array.length freqs < n_versions t + 1 then
    invalid_arg "Storage_graph.weighted_recreation: freqs too short";
  let acc = ref 0.0 in
  for v = 1 to n_versions t do
    acc := !acc +. (freqs.(v) *. t.recreation.(v))
  done;
  !acc

let to_parents t =
  List.init (n_versions t) (fun i -> (t.parents.(i + 1), i + 1))

let pp ppf t =
  Format.fprintf ppf
    "@[<v>storage graph: %d versions, %d materialized@,\
     C = %.1f, sum R = %.1f, max R = %.1f@]"
    (n_versions t)
    (List.length (materialized_versions t))
    (storage_cost t) (sum_recreation t) (max_recreation t)
