(* Reference LMG for the oracle test in test_heuristics.ml: the
   straightforward form of the greedy loop, with children kept as
   lists, a full DFS per round that rebuilds every subtree weight and
   Euler-tour interval, and the candidate pool as a list. [Lmg.solve]
   must return the same parents, tie for tie. *)

open Versioning_core

type state = {
  n : int;
  parent : int array;
  weight : Aux_graph.weight array;
  children : int list array;
  recreation : float array;
  freq : float array;
  subtree : float array;
  tin : int array;
  tout : int array;
}

let init_state g base ~freqs =
  let n = Aux_graph.n_versions g in
  let parent = Array.make (n + 1) (-1) in
  let weight =
    Array.make (n + 1) ({ delta = 0.0; phi = 0.0 } : Aux_graph.weight)
  in
  let children = Array.make (n + 1) [] in
  for v = 1 to n do
    parent.(v) <- Storage_graph.parent base v;
    weight.(v) <- Storage_graph.edge_weight base v;
    children.(parent.(v)) <- v :: children.(parent.(v))
  done;
  let freq =
    match freqs with Some f -> Array.copy f | None -> Array.make (n + 1) 1.0
  in
  {
    n;
    parent;
    weight;
    children;
    recreation = Storage_graph.recreation_costs base;
    freq;
    subtree = Array.make (n + 1) 0.0;
    tin = Array.make (n + 1) 0;
    tout = Array.make (n + 1) 0;
  }

(* One iterative DFS: subtree weights and Euler-tour intervals. *)
let refresh_subtrees st =
  for v = 0 to st.n do
    st.subtree.(v) <- (if v = 0 then 0.0 else st.freq.(v))
  done;
  let clock = ref 0 in
  let stack = ref [ `Enter 0 ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | `Enter v :: rest ->
        incr clock;
        st.tin.(v) <- !clock;
        stack :=
          List.fold_left (fun acc c -> `Enter c :: acc) (`Exit v :: rest)
            st.children.(v)
    | `Exit v :: rest ->
        st.tout.(v) <- !clock;
        if v <> 0 then
          st.subtree.(st.parent.(v)) <-
            st.subtree.(st.parent.(v)) +. st.subtree.(v);
        stack := rest
  done

let is_descendant st ~anc v =
  st.tin.(anc) <= st.tin.(v) && st.tout.(v) <= st.tout.(anc)

let apply_swap st ~u ~v ~(w : Aux_graph.weight) =
  let shift = st.recreation.(u) +. w.phi -. st.recreation.(v) in
  let old_parent = st.parent.(v) in
  st.children.(old_parent) <-
    List.filter (fun c -> c <> v) st.children.(old_parent);
  st.parent.(v) <- u;
  st.weight.(v) <- w;
  st.children.(u) <- v :: st.children.(u);
  let stack = ref [ v ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
        stack := rest;
        st.recreation.(x) <- st.recreation.(x) +. shift;
        List.iter (fun c -> stack := c :: !stack) st.children.(x)
  done

let solve g ~base ~spt ~budget ?freqs () =
  let st = init_state g base ~freqs in
  let storage = ref (Storage_graph.storage_cost base) in
  let candidates = ref [] in
  for v = 1 to st.n do
    let pu = Storage_graph.parent spt v in
    if pu <> st.parent.(v) then
      candidates := (pu, v, Storage_graph.edge_weight spt v) :: !candidates
  done;
  let continue = ref true in
  while !continue && !candidates <> [] do
    refresh_subtrees st;
    let best = ref None in
    List.iter
      (fun (u, v, (w : Aux_graph.weight)) ->
        let gain =
          st.subtree.(v) *. (st.recreation.(v) -. (st.recreation.(u) +. w.phi))
        in
        let cost = w.delta -. st.weight.(v).delta in
        if
          gain > 0.0
          && !storage +. cost <= budget
          && u <> st.parent.(v)
          && not (is_descendant st ~anc:v u)
        then begin
          let rho = if cost <= 0.0 then infinity else gain /. cost in
          match !best with
          | Some (rho', _, _, _, _) when rho' >= rho -> ()
          | _ -> best := Some (rho, u, v, w, cost)
        end)
      !candidates;
    match !best with
    | None -> continue := false
    | Some (_, u, v, w, cost) ->
        apply_swap st ~u ~v ~w;
        storage := !storage +. cost;
        candidates := List.filter (fun (_, v', _) -> v' <> v) !candidates
  done;
  List.init st.n (fun i -> (st.parent.(i + 1), i + 1))
