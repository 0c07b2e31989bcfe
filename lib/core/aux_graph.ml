module Digraph = Versioning_graph.Digraph

type weight = { delta : float; phi : float }

(* [mat.(v)] mirrors the single [0 → v] edge of [g], so materialization
   lookups need not scan vertex 0's out-bucket (one edge per version).
   Every edge is added in this module, and a version's materialization
   is revealed at most once, so the mirror is exact. *)
type t = { n : int; g : weight Digraph.t; mat : weight option array }

let create ~n_versions =
  if n_versions < 0 then invalid_arg "Aux_graph.create";
  {
    n = n_versions;
    g = Digraph.create ~n:(n_versions + 1);
    mat = Array.make (n_versions + 1) None;
  }

let n_versions t = t.n
let graph t = t.g

let check_version t v name =
  if v < 1 || v > t.n then
    invalid_arg (Printf.sprintf "Aux_graph.%s: version %d out of range" name v)

let check_cost c name =
  if c < 0.0 || Float.is_nan c then
    invalid_arg ("Aux_graph." ^ name ^ ": negative cost")

let add_materialization t ~version ~delta ~phi =
  check_version t version "add_materialization";
  check_cost delta "add_materialization";
  check_cost phi "add_materialization";
  if t.mat.(version) <> None then
    invalid_arg
      (Printf.sprintf
         "Aux_graph.add_materialization: version %d already revealed" version);
  let w = { delta; phi } in
  Digraph.add_edge t.g ~src:0 ~dst:version w;
  t.mat.(version) <- Some w

let add_delta t ~src ~dst ~delta ~phi =
  check_version t src "add_delta";
  check_version t dst "add_delta";
  if src = dst then invalid_arg "Aux_graph.add_delta: src = dst";
  check_cost delta "add_delta";
  check_cost phi "add_delta";
  Digraph.add_edge t.g ~src ~dst { delta; phi }

let materialization t v =
  check_version t v "materialization";
  t.mat.(v)

let delta t ~src ~dst =
  check_version t src "delta";
  check_version t dst "delta";
  Option.map
    (fun (e : weight Digraph.edge) -> e.label)
    (Digraph.find_edge t.g ~src ~dst)

let has_all_materializations t =
  let ok = ref true in
  for v = 1 to t.n do
    if t.mat.(v) = None then ok := false
  done;
  !ok

let weight_equal (a : weight) (b : weight) = a.delta = b.delta && a.phi = b.phi

let is_symmetric t =
  let ok = ref true in
  Digraph.iter_edges t.g (fun e ->
      if e.src >= 1 then begin
        let mirrored =
          List.exists
            (fun (r : weight Digraph.edge) ->
              r.dst = e.src && weight_equal r.label e.label)
            (Digraph.out_edges t.g e.dst)
        in
        if not mirrored then ok := false
      end);
  !ok

let is_proportional t =
  let ok = ref true in
  Digraph.iter_edges t.g (fun e -> if e.label.delta <> e.label.phi then ok := false);
  !ok

let symmetrize t =
  let t' =
    { n = t.n; g = Digraph.create ~n:(t.n + 1); mat = Array.copy t.mat }
  in
  Digraph.iter_edges t.g (fun e ->
      Digraph.add_edge t'.g ~src:e.src ~dst:e.dst e.label);
  Digraph.iter_edges t.g (fun e ->
      if e.src >= 1 then begin
        let mirrored =
          List.exists
            (fun (r : weight Digraph.edge) ->
              r.dst = e.src && weight_equal r.label e.label)
            (Digraph.out_edges t.g e.dst)
        in
        if not mirrored then
          Digraph.add_edge t'.g ~src:e.dst ~dst:e.src e.label
      end);
  t'

let scenario t =
  match (is_symmetric t, is_proportional t) with
  | true, true -> `Undirected_prop
  | _, true -> `Directed_prop
  | _, false -> `Directed_indep


let triangle_violation t =
  (* first-revealed weight per ordered pair, diagonal at (v, v) *)
  let w = Hashtbl.create (Digraph.n_edges t.g) in
  Digraph.iter_edges t.g (fun e ->
      let key = if e.src = 0 then (e.dst, e.dst) else (e.src, e.dst) in
      if not (Hashtbl.mem w key) then Hashtbl.replace w key e.label.delta);
  let get p q = Hashtbl.find_opt w (p, q) in
  let violation = ref None in
  (* path rule: delta(p,w) <= delta(p,q) + delta(q,w) *)
  Hashtbl.iter
    (fun (p, q) d_pq ->
      if !violation = None && p <> q then
        for x = 1 to t.n do
          if !violation = None && x <> p && x <> q then
            match (get q x, get p x) with
            | Some d_qx, Some d_px ->
                if d_px > d_pq +. d_qx +. 1e-9 then violation := Some (p, q, x)
            | _ -> ()
        done)
    w;
  (* diagonal rule: |delta(p,p) - delta(p,q)| <= delta(q,q) <= delta(p,p) + delta(p,q) *)
  if !violation = None then
    Hashtbl.iter
      (fun (p, q) d_pq ->
        if !violation = None && p <> q then
          match (get p p, get q q) with
          | Some d_pp, Some d_qq ->
              if
                d_qq > d_pp +. d_pq +. 1e-9
                || d_qq < Float.abs (d_pp -. d_pq) -. 1e-9
              then violation := Some (0, p, q)
          | _ -> ())
      w;
  !violation
