module Digraph = Versioning_graph.Digraph

(* Chu–Liu/Edmonds with synchronous rounds.

   Each round selects the cheapest in-edge of every active non-root
   vertex (ties toward the smaller source id, then the earlier edge).
   If the selection is acyclic it is the arborescence of that level;
   otherwise every selected cycle is contracted into a fresh supernode
   and edge weights entering a cycle are reduced by the weight of the
   selected in-edge of their target (the classic reduced costs).

   The surviving edges live in parallel arrays, compacted in place each
   round; [orig] names the input edge each one stands for. An edge's
   endpoint at any level is the active vertex containing its input
   endpoint, so the unwind needs no per-level copies: the edge chosen
   into a supernode displaces exactly the cycle edge of the member
   that contains its input target, and every other member keeps its
   cycle edge.

   Parallel-edge prune: a rebuilt edge is dropped when an earlier edge
   of the same (src, dst) pair is no more expensive. Parallel edges
   share every later reduction (same target) and keep their relative
   order, and float subtraction is monotone, so the earlier edge always
   wins their tie and the dropped one could never be selected. Only
   edges rebuilt this round have a new supernode endpoint, so only
   they can have become parallel; input parallel reveals are left to
   the selection's tie rule. *)

let weight = Storage_graph.storage_cost

let solve g =
  Solver_obs.timed ~algo:"mca" @@ fun () ->
  let dg = Aux_graph.graph g in
  let n_orig = Digraph.n_vertices dg in
  let root = 0 in
  (* Each contraction round removes at least one vertex net of the
     supernode it adds, so ids stay below 2 * n_orig + 1. *)
  let max_ids = (2 * n_orig) + 1 in
  (* Input edges in the order rounds scan them: the reverse of
     [Digraph.iter_edges]. *)
  let input =
    Array.of_list (Digraph.fold_edges dg ~init:[] ~f:(fun acc e -> e :: acc))
  in
  let n_edges = Array.length input in
  let src = Array.map (fun (e : _ Digraph.edge) -> e.src) input in
  let dst = Array.map (fun (e : _ Digraph.edge) -> e.dst) input in
  let w =
    Array.map (fun (e : _ Digraph.edge) -> e.label.Aux_graph.delta) input
  in
  let orig = Array.init n_edges Fun.id in
  let m = ref n_edges in
  (* Active vertices, in the order cycles are searched for. *)
  let act = Array.init max_ids Fun.id and n_act = ref n_orig in
  let act' = Array.make max_ids 0 in
  (* Per-vertex scratch, reset over the active vertices only. *)
  let best = Array.make max_ids (-1) in
  let color = Array.make max_ids 0 in
  let comp = Array.make max_ids 0 in
  let path = Array.make max_ids 0 in
  (* Set when a vertex is contracted: the weight and input edge of its
     selected in-edge, and the supernode that absorbed it. *)
  let red = Array.make max_ids 0.0 in
  let cyc_in = Array.make max_ids (-1) in
  let super = Array.make max_ids (-1) in
  let pairs = Hashtbl.create 64 in
  let next_id = ref n_orig in
  let round = ref 0 in
  (* (supernode, members), newest first *)
  let history = ref [] in
  let finished = ref false and error = ref None in
  while not (!finished || Option.is_some !error) do
    for i = 0 to !n_act - 1 do
      best.(act.(i)) <- -1
    done;
    for i = 0 to !m - 1 do
      let d = dst.(i) in
      if d <> root then begin
        let b = best.(d) in
        if b < 0 || w.(i) < w.(b) || (w.(i) = w.(b) && src.(i) < src.(b)) then
          best.(d) <- i
      end
    done;
    for i = 0 to !n_act - 1 do
      let v = act.(i) in
      if v <> root && best.(v) < 0 then
        error :=
          Some "some version has no revealed in-edge: no valid solution exists"
    done;
    if Option.is_none !error then begin
      (* Find cycles among selected edges by pointer-chasing; colors:
         0 unvisited / 1 on current path / 2 done. *)
      for i = 0 to !n_act - 1 do
        color.(act.(i)) <- 0
      done;
      color.(root) <- 2;
      let cycles = ref [] in
      for i = 0 to !n_act - 1 do
        let start = act.(i) in
        if color.(start) = 0 then begin
          let len = ref 0 and v = ref start in
          while color.(!v) = 0 do
            color.(!v) <- 1;
            path.(!len) <- !v;
            incr len;
            v := src.(best.(!v))
          done;
          if color.(!v) = 1 then begin
            let from = ref (!len - 1) in
            while path.(!from) <> !v do
              decr from
            done;
            cycles := Array.sub path !from (!len - !from) :: !cycles
          end;
          for p = 0 to !len - 1 do
            color.(path.(p)) <- 2
          done
        end
      done;
      if !cycles = [] then finished := true
      else begin
        (* Contract every cycle. *)
        for i = 0 to !n_act - 1 do
          comp.(act.(i)) <- act.(i)
        done;
        let n' = ref 0 in
        List.iter
          (fun members ->
            let s = !next_id in
            incr next_id;
            Array.iter
              (fun v ->
                comp.(v) <- s;
                super.(v) <- s;
                red.(v) <- w.(best.(v));
                cyc_in.(v) <- orig.(best.(v)))
              members;
            history := (s, members) :: !history;
            act'.(!n') <- s;
            incr n')
          !cycles;
        for i = 0 to !n_act - 1 do
          let v = act.(i) in
          if comp.(v) = v then begin
            act'.(!n') <- v;
            incr n'
          end
        done;
        Array.blit act' 0 act 0 !n';
        n_act := !n';
        incr round;
        (* Compact in place: drop edges inside a cycle, keep the rest in
           order, rebuilding (and pruning) those touching a cycle. *)
        Hashtbl.reset pairs;
        let j = ref 0 in
        for i = 0 to !m - 1 do
          let s0 = src.(i) and d0 = dst.(i) in
          let s = comp.(s0) and d = comp.(d0) in
          if s <> d then begin
            let wi = if d <> d0 then w.(i) -. red.(d0) else w.(i) in
            let keep =
              (s = s0 && d = d0)
              ||
              let key = (s * max_ids) + d in
              match Hashtbl.find_opt pairs key with
              | Some e when w.(e) <= wi -> false
              | _ ->
                  Hashtbl.replace pairs key !j;
                  true
            in
            if keep then begin
              src.(!j) <- s;
              dst.(!j) <- d;
              w.(!j) <- wi;
              orig.(!j) <- orig.(i);
              incr j
            end
          end
        done;
        m := !j
      end
    end
  done;
  Solver_obs.count ~algo:"mca" "dsvc_solver_iterations_total" (!round + 1)
    ~help:"Main-loop iterations (heap pops, rounds), by algorithm";
  Solver_obs.count ~algo:"mca" "dsvc_solver_cycles_contracted_total"
    (!next_id - n_orig)
    ~help:"Cycles contracted by Chu-Liu/Edmonds rounds";
  match !error with
  | Some e -> Error e
  | None ->
      (* [chosen.(v)]: the input edge selected into [v]. Expand the
         supernodes newest first, so each one's entry is set before its
         members are. *)
      let chosen = Array.make max_ids (-1) in
      for i = 0 to !n_act - 1 do
        let v = act.(i) in
        if v <> root then chosen.(v) <- orig.(best.(v))
      done;
      List.iter
        (fun (s, members) ->
          let e = chosen.(s) in
          let u = ref input.(e).dst in
          while super.(!u) <> s do
            u := super.(!u)
          done;
          Array.iter
            (fun v -> chosen.(v) <- (if v = !u then e else cyc_in.(v)))
            members)
        !history;
      let choices =
        List.init (n_orig - 1) (fun i ->
            let e = input.(chosen.(i + 1)) in
            (e.src, e.dst, e.label))
      in
      Storage_graph.of_parent_edges ~n:(n_orig - 1) choices
