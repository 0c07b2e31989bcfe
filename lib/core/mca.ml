module Digraph = Versioning_graph.Digraph

(* Chu–Liu/Edmonds with synchronous rounds.

   Each round selects the cheapest in-edge of every active non-root
   vertex (ties toward the smaller source id, then the earlier edge).
   If the selection is acyclic it is the arborescence of that level;
   otherwise every selected cycle is contracted into a fresh supernode
   and edge weights entering a cycle are reduced by the weight of the
   selected in-edge of their target (the classic reduced costs).

   The surviving edges live in parallel arrays, compacted in place each
   round by the same single pass that makes the next round's
   selection; [orig] names the input edge each one stands for. An edge's
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

(* The prune's (src, dst) key -> edge index map: open addressing with
   linear probing over int arrays, so lookups allocate nothing. A slot
   is live only when its stamp is the current one; [clear] bumps the
   stamp instead of touching the arrays. Capacity doubles at half load,
   so it follows the most edges rebuilt in one round, not the edge
   count. *)
module Pairs = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable stamps : int array;
    mutable bits : int;
    mutable used : int;
    mutable stamp : int;
  }

  let create () =
    let bits = 6 in
    {
      keys = Array.make (1 lsl bits) 0;
      vals = Array.make (1 lsl bits) 0;
      stamps = Array.make (1 lsl bits) 0;
      bits;
      used = 0;
      stamp = 1;
    }

  let clear t =
    t.stamp <- t.stamp + 1;
    t.used <- 0

  (* Multiplicative hashing: the top [bits] bits of the 63-bit product. *)
  let slot t key = (key * 0x1E3779B97F4A7C15) lsr (63 - t.bits)

  let rec probe t key h =
    if t.stamps.(h) <> t.stamp || t.keys.(h) = key then h
    else probe t key ((h + 1) land (Array.length t.keys - 1))

  (* Index stored under [key], or -1. *)
  let find t key =
    let h = probe t key (slot t key) in
    if t.stamps.(h) = t.stamp then t.vals.(h) else -1

  let rec replace t key v =
    let h = probe t key (slot t key) in
    if t.stamps.(h) = t.stamp then t.vals.(h) <- v
    else begin
      t.keys.(h) <- key;
      t.vals.(h) <- v;
      t.stamps.(h) <- t.stamp;
      t.used <- t.used + 1;
      if 2 * t.used > Array.length t.keys then begin
        let keys = t.keys and vals = t.vals and stamps = t.stamps in
        let size = 2 * Array.length keys in
        t.keys <- Array.make size 0;
        t.vals <- Array.make size 0;
        t.stamps <- Array.make size 0;
        t.bits <- t.bits + 1;
        t.used <- 0;
        Array.iteri
          (fun i s -> if s = t.stamp then replace t keys.(i) vals.(i))
          stamps
      end
    end
end

let solve g =
  Solver_obs.timed ~algo:"mca" @@ fun () ->
  let dg = Aux_graph.graph g in
  let n_orig = Digraph.n_vertices dg in
  let root = 0 in
  (* Each contraction round removes at least one vertex net of the
     supernode it adds, so ids stay below 2 * n_orig + 1. *)
  let max_ids = (2 * n_orig) + 1 in
  (* Input edges in the order rounds scan them: the reverse of
     [Digraph.iter_edges], filled from the back (no list of E cells). *)
  let n_edges = Digraph.n_edges dg in
  let input =
    Array.make n_edges
      { Digraph.src = 0; dst = 0; label = Aux_graph.{ delta = 0.0; phi = 0.0 } }
  in
  let k = ref n_edges in
  Digraph.iter_edges dg (fun e ->
      decr k;
      input.(!k) <- e);
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
  let pairs = Pairs.create () in
  let next_id = ref n_orig in
  let round = ref 0 in
  (* (supernode, members), newest first *)
  let history = ref [] in
  let finished = ref false and error = ref None in
  (* One pass over the surviving edges: drop those inside a cycle, keep
     the rest in order, rebuilding (and pruning) those touching one, and
     select each active vertex's cheapest in-edge over the compacted
     order: ties toward the smaller source id, then the earlier edge.
     With [comp] the identity it is the first round's plain selection. *)
  let compact_and_select () =
    for i = 0 to !n_act - 1 do
      best.(act.(i)) <- -1
    done;
    Pairs.clear pairs;
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
          let e = Pairs.find pairs key in
          if e >= 0 && w.(e) <= wi then false
          else begin
            Pairs.replace pairs key !j;
            true
          end
        in
        if keep then begin
          src.(!j) <- s;
          dst.(!j) <- d;
          w.(!j) <- wi;
          orig.(!j) <- orig.(i);
          if d <> root then begin
            let b = best.(d) in
            if b < 0 || wi < w.(b) || (wi = w.(b) && s < src.(b)) then
              best.(d) <- !j
          end;
          incr j
        end
      end
    done;
    m := !j
  in
  for v = 0 to n_orig - 1 do
    comp.(v) <- v
  done;
  compact_and_select ();
  while not (!finished || Option.is_some !error) do
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
        compact_and_select ()
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
