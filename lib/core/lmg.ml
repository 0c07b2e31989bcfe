(* Mutable tree state for the greedy loop: parent and in-edge Δ per
   version, the children of every vertex as a doubly linked list in the
   order they were attached, exact recreation costs, and subtree
   weights (node counts, or frequency sums in the workload-aware
   variant).

   Subtree weights are kept current across swaps rather than rebuilt
   per round. [subtree x] is [freq x] plus its children's subtree
   weights, summed oldest child first; a swap at [v] changes it only
   on the root paths of v's old and new parent, and those are
   recomputed the same way, so the float sums are exactly what a full
   post-order pass would give. *)

type state = {
  n : int;
  parent : int array;
  delta : float array;  (* Δ of the edge into each version *)
  first_child : int array;  (* oldest child, -1 when none *)
  last_child : int array;  (* newest child *)
  next_sibling : int array;  (* next newer sibling, -1 at the end *)
  prev_sibling : int array;
  recreation : float array;
  freq : float array;  (* all-ones when unweighted *)
  subtree : float array;  (* Σ freq over the subtree; unused at the root *)
  stack : int array;  (* scratch for subtree walks *)
}

let add_child st p c =
  st.parent.(c) <- p;
  st.next_sibling.(c) <- -1;
  st.prev_sibling.(c) <- st.last_child.(p);
  if st.last_child.(p) < 0 then st.first_child.(p) <- c
  else st.next_sibling.(st.last_child.(p)) <- c;
  st.last_child.(p) <- c

let remove_child st p c =
  let prev = st.prev_sibling.(c) and next = st.next_sibling.(c) in
  if prev < 0 then st.first_child.(p) <- next else st.next_sibling.(prev) <- next;
  if next < 0 then st.last_child.(p) <- prev else st.prev_sibling.(next) <- prev

let recompute_subtree st x =
  let s = ref st.freq.(x) and c = ref st.first_child.(x) in
  while !c >= 0 do
    s := !s +. st.subtree.(!c);
    c := st.next_sibling.(!c)
  done;
  st.subtree.(x) <- !s

(* Recompute [x] and every ancestor below the root, bottom up. *)
let recompute_path st x =
  let x = ref x in
  while !x <> 0 do
    recompute_subtree st !x;
    x := st.parent.(!x)
  done

let init_state g base ~freqs =
  let n = Aux_graph.n_versions g in
  let freq =
    match freqs with
    | Some f ->
        if Array.length f < n + 1 then invalid_arg "Lmg: freqs too short";
        Array.copy f
    | None -> Array.make (n + 1) 1.0
  in
  let st =
    {
      n;
      parent = Array.make (n + 1) (-1);
      delta = Array.make (n + 1) 0.0;
      first_child = Array.make (n + 1) (-1);
      last_child = Array.make (n + 1) (-1);
      next_sibling = Array.make (n + 1) (-1);
      prev_sibling = Array.make (n + 1) (-1);
      recreation = Storage_graph.recreation_costs base;
      freq;
      subtree = Array.make (n + 1) 0.0;
      stack = Array.make (n + 1) 0;
    }
  in
  for v = 1 to n do
    add_child st (Storage_graph.parent base v) v;
    st.delta.(v) <- (Storage_graph.edge_weight base v).delta
  done;
  (* Breadth-first order from the root, then subtree weights in the
     reverse of it: every child is done before its parent. *)
  let order = st.stack in
  let len = ref 1 in
  order.(0) <- 0;
  let i = ref 0 in
  while !i < !len do
    let c = ref st.first_child.(order.(!i)) in
    while !c >= 0 do
      order.(!len) <- !c;
      incr len;
      c := st.next_sibling.(!c)
    done;
    incr i
  done;
  for k = !len - 1 downto 1 do
    recompute_subtree st order.(k)
  done;
  st

(* Is [u] in the subtree of [v]? Walks u's root path. *)
let is_descendant st ~anc:v u =
  let x = ref u in
  while !x <> v && !x <> 0 do
    x := st.parent.(!x)
  done;
  !x = v

(* Apply the swap: re-parent [v] to [u] over an edge ⟨delta, phi⟩,
   shifting the recreation cost of every vertex in v's subtree by the
   same amount, then bring the subtree weights on both changed root
   paths up to date: the old parent's first, then the new parent's. *)
let apply_swap st ~u ~v ~delta ~phi =
  let shift = st.recreation.(u) +. phi -. st.recreation.(v) in
  let old_parent = st.parent.(v) in
  remove_child st old_parent v;
  add_child st u v;
  st.delta.(v) <- delta;
  st.stack.(0) <- v;
  let top = ref 1 in
  while !top > 0 do
    decr top;
    let x = st.stack.(!top) in
    st.recreation.(x) <- st.recreation.(x) +. shift;
    let c = ref st.first_child.(x) in
    while !c >= 0 do
      st.stack.(!top) <- !c;
      incr top;
      c := st.next_sibling.(!c)
    done
  done;
  recompute_path st old_parent;
  recompute_path st u

(* A version keeps its base edge unless it was swapped, and a swap
   always installs its SPT edge, whose parent differs from the base's. *)
let to_storage_graph st ~base ~spt =
  let choices =
    List.init st.n (fun i ->
        let v = i + 1 in
        let from = if st.parent.(v) = Storage_graph.parent base v then base else spt in
        (st.parent.(v), v, Storage_graph.edge_weight from v))
  in
  match Storage_graph.of_parent_edges ~n:st.n choices with
  | Ok sg -> sg
  | Error e -> invalid_arg ("Lmg: internal tree corrupt: " ^ e)

let solve g ~base ~spt ~budget ?freqs () =
  Solver_obs.timed ~algo:"lmg" @@ fun () ->
  let st = init_state g base ~freqs in
  let storage = ref (Storage_graph.storage_cost base) in
  (* Each version's SPT in-edge, unboxed. *)
  let spt_parent = Array.make (st.n + 1) 0 in
  let spt_delta = Array.make (st.n + 1) 0.0 and spt_phi = Array.make (st.n + 1) 0.0 in
  (* Candidate pool ξ: the versions whose SPT in-edge differs from the
     current tree, in descending order; one is removed, order kept,
     when its swap is taken. *)
  let cand = Array.make st.n 0 and k = ref 0 in
  for v = st.n downto 1 do
    let w = Storage_graph.edge_weight spt v in
    spt_parent.(v) <- Storage_graph.parent spt v;
    spt_delta.(v) <- w.delta;
    spt_phi.(v) <- w.phi;
    if spt_parent.(v) <> st.parent.(v) then begin
      cand.(!k) <- v;
      incr k
    end
  done;
  let { parent; delta; recreation; subtree; _ } = st in
  let rounds = ref 0 in
  let considered = ref 0 in
  let accepted = ref 0 in
  let continue = ref true in
  while !continue && !k > 0 do
    incr rounds;
    considered := !considered + !k;
    (* Score every candidate; keep the best applicable one, the
       earliest on a tie. The descendant walk runs only for a
       candidate that would otherwise become the new best. *)
    let best = ref (-1) and best_rho = ref 0.0 in
    for i = 0 to !k - 1 do
      let v = cand.(i) in
      let u = spt_parent.(v) in
      let gain = subtree.(v) *. (recreation.(v) -. (recreation.(u) +. spt_phi.(v))) in
      let cost = spt_delta.(v) -. delta.(v) in
      if gain > 0.0 && !storage +. cost <= budget && u <> parent.(v) then begin
        let rho = if cost <= 0.0 then infinity else gain /. cost in
        if (!best < 0 || not (!best_rho >= rho)) && not (is_descendant st ~anc:v u)
        then begin
          best := i;
          best_rho := rho
        end
      end
    done;
    if !best < 0 then continue := false
    else begin
      let b = !best in
      let v = cand.(b) in
      incr accepted;
      storage := !storage +. (spt_delta.(v) -. delta.(v));
      apply_swap st ~u:spt_parent.(v) ~v ~delta:spt_delta.(v) ~phi:spt_phi.(v);
      Array.blit cand (b + 1) cand b (!k - b - 1);
      decr k
    end
  done;
  Solver_obs.count ~algo:"lmg" "dsvc_solver_iterations_total" !rounds
    ~help:"Main-loop iterations (heap pops, rounds), by algorithm";
  Solver_obs.count ~algo:"lmg" "dsvc_solver_swaps_considered_total" !considered
    ~help:"Candidate swaps scored by the greedy loop";
  Solver_obs.count ~algo:"lmg" "dsvc_solver_swaps_accepted_total" !accepted
    ~help:"Candidate swaps actually applied by the greedy loop";
  to_storage_graph st ~base ~spt

let solve_p5 g ~base ~spt ~sum_bound ?freqs ?(iterations = 40) () =
  let measure sg =
    match freqs with
    | Some f -> Storage_graph.weighted_recreation sg ~freqs:f
    | None -> Storage_graph.sum_recreation sg
  in
  if measure spt > sum_bound then
    Error
      (Printf.sprintf
         "sum-recreation bound %.1f is below the SPT optimum %.1f" sum_bound
         (measure spt))
  else begin
    let lo = ref (Storage_graph.storage_cost base) in
    let hi = ref (Storage_graph.storage_cost spt) in
    let best = ref None in
    (* Check the cheap end first: the base tree may already satisfy
       the bound. *)
    if measure base <= sum_bound then best := Some base
    else begin
      for _ = 1 to iterations do
        let mid = (!lo +. !hi) /. 2.0 in
        let sg = solve g ~base ~spt ~budget:mid ?freqs () in
        if measure sg <= sum_bound then begin
          (match !best with
          | Some b when Storage_graph.storage_cost b <= Storage_graph.storage_cost sg
            ->
              ()
          | _ -> best := Some sg);
          hi := mid
        end
        else lo := mid
      done;
      (* The SPT itself is always a fallback. *)
      if !best = None then best := Some spt
    end;
    match !best with Some sg -> Ok sg | None -> assert false
  end
