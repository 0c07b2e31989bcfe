(* Layer probes for the traced run. Layers the benchmark cannot reach
   from its own calls (they run inside the server, or inside one
   Repo call) are timed here through their public functions, in
   process, on the workload's own seeded data: a repository directory
   holding the workload's versions, plus the contents behind it.

   Every probe runs with the Obs gate on and reads the program's own
   counters through [Metrics.snapshot_values]. Each one does a fixed
   amount of single-caller work, so its counters repeat exactly for a
   seed. *)

open Versioning_store
open Versioning_core
module Metrics = Versioning_obs.Metrics
module Obs = Versioning_obs.Obs
module Trace = Versioning_obs.Trace
module Line_diff = Versioning_delta.Line_diff
module Prng = Versioning_util.Prng

let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)
let now = Unix.gettimeofday

let counter name ?label () =
  Served.sum ?label (Metrics.snapshot_values ()) name

(* Counter movement over [f]. *)
let delta ?label name f =
  let before = counter name ?label () in
  let r = f () in
  (r, counter name ?label () -. before)

let mean_time ~reps f =
  let t0 = now () in
  for i = 0 to reps - 1 do
    f i
  done;
  (now () -. t0) /. float_of_int reps

type emit = string -> string -> float -> unit
(** [emit name unit value] *)

(* Single-caller Zipf(1.0) replay through a fresh 16-slot checkout
   cache: cache outcome ratios, chain length and bytes per checkout,
   and the exact counters behind them. *)
let chain_walk (emit : emit) repo ~stream ~expect =
  let s0 = Repo.cache_stats repo in
  let get_bytes0 = counter "dsvc_store_get_bytes_total" () in
  let decodes0 = counter "dsvc_delta_line_decode_total" () in
  let bad = ref 0 in
  Array.iter
    (fun v ->
      match Repo.checkout repo v with
      | Ok c when Digest.string c = expect.(v) -> ()
      | _ -> incr bad)
    stream;
  let s1 = Repo.cache_stats repo in
  let n = float_of_int (Array.length stream) in
  let hits = s1.Repo.hits - s0.Repo.hits
  and partial = s1.Repo.partial_hits - s0.Repo.partial_hits
  and misses = s1.Repo.misses - s0.Repo.misses in
  let get_bytes = counter "dsvc_store_get_bytes_total" () -. get_bytes0 in
  let decodes = counter "dsvc_delta_line_decode_total" () -. decodes0 in
  emit "repo.cache_hit_ratio" "ratio" (float_of_int hits /. n);
  emit "repo.partial_hit_ratio" "ratio" (float_of_int partial /. n);
  emit "repo.deltas_per_checkout" "count" (decodes /. n);
  emit "object_store.read_bytes_per_checkout" "B" (get_bytes /. n);
  emit "count.cache_hits" "count" (float_of_int hits);
  emit "count.cache_partial_hits" "count" (float_of_int partial);
  emit "count.cache_misses" "count" (float_of_int misses);
  emit "count.get_bytes" "B" get_bytes;
  !bad

(* Object_store.get over every object the plan references, and
   Line_diff decode+apply over deltas built from the seeded contents. *)
let blob_and_delta (emit : emit) repo ~contents ~parents =
  let store = Repo.object_store repo in
  let digests = Array.of_list (Repo.referenced_digests repo) in
  let get_s =
    mean_time ~reps:(Array.length digests) (fun i ->
        ignore (ok "get" (Object_store.get store digests.(i))))
  in
  let pairs =
    Array.to_list parents
    |> List.mapi (fun v ps ->
           match ps with p :: _ -> Some (contents.(p), contents.(v)) | [] -> None)
    |> List.filter_map Fun.id
    |> List.filteri (fun i _ -> i < 200)
    |> Array.of_list
  in
  let encoded =
    Array.map (fun (a, b) -> Line_diff.encode (Line_diff.diff a b)) pairs
  in
  let apply_s =
    mean_time ~reps:(Array.length pairs) (fun i ->
        ignore (Line_diff.apply (fst pairs.(i)) (Line_diff.decode encoded.(i))))
  in
  emit "object_store.get_ms" "ms" (get_s *. 1000.0);
  emit "line_diff.apply_ms" "ms" (apply_s *. 1000.0);
  apply_s

(* Commits of a seeded edit chain on top of the head, split into the
   parent replay, the diff, the blob put (into a scratch store with the
   same fsync path) and the rest of [Repo.commit]. Returns how many
   commits did not read back. *)
let commit_path (emit : emit) repo ~chain ~scratch =
  let scratch = ok "scratch store" (Object_store.create ~dir:scratch) in
  let k = Array.length chain in
  let replay = ref 0.0 and diff = ref 0.0 and put = ref 0.0 and total = ref 0.0 in
  let bad = ref 0 in
  let put_bytes = ref 0.0 in
  Array.iteri
    (fun i content ->
      let parent = Option.get (Repo.head repo) in
      let t0 = now () in
      let pc = ok "replay" (Repo.checkout_uncached repo parent) in
      let t1 = now () in
      let enc = Line_diff.encode (Line_diff.diff pc content) in
      let t2 = now () in
      ignore (ok "put" (Object_store.put scratch enc));
      let t3 = now () in
      let r, b =
        delta "dsvc_store_put_bytes_total" (fun () ->
            Repo.commit repo ~message:(Printf.sprintf "p%d" i) content)
      in
      let t4 = now () in
      replay := !replay +. (t1 -. t0);
      diff := !diff +. (t2 -. t1);
      put := !put +. (t3 -. t2);
      total := !total +. (t4 -. t3);
      put_bytes := !put_bytes +. b;
      match r with
      | Ok id when Repo.checkout_uncached repo id = Ok content -> ()
      | _ -> incr bad)
    chain;
  let per x = !x *. 1000.0 /. float_of_int k in
  emit "repo.commit_replay_ms" "ms" (per replay);
  emit "line_diff.diff_ms" "ms" (per diff);
  emit "object_store.put_ms" "ms" (per put);
  emit "object_store.write_bytes_per_commit" "B" (!put_bytes /. float_of_int k);
  emit "count.put_bytes" "B" !put_bytes;
  emit "repo.commit_rest_ms" "ms" (per total -. per replay -. per diff -. per put);
  !bad

(* Server.handle_safe on a cached checkout, with Obs on minus Obs off.
   The Obs-on side first fills the trace ring, so it is measured past
   the step-up a fresh process shows. *)
let obs_request (emit : emit) repo ~version =
  let req =
    {
      Http.meth = "GET";
      path = Printf.sprintf "/checkout/%d" version;
      query = [];
      headers = [];
      body = "";
      version = "HTTP/1.1";
    }
  in
  let call _ = ignore (Server.handle_safe repo req) in
  let off = Obs.with_enabled false (fun () -> mean_time ~reps:2000 call) in
  let on =
    Obs.with_enabled true (fun () ->
        ignore (mean_time ~reps:5000 call);
        mean_time ~reps:2000 call)
  in
  emit "obs.request_ms" "ms" ((on -. off) *. 1000.0);
  on -. off

(* One Repo.optimize (balanced, jobs 2) with its phase split from the
   program's own spans, and the pool's busy share. *)
let optimize_phases (emit : emit) repo =
  let spans_before = Trace.span_count () in
  let busy0 = counter "dsvc_pool_worker_busy_seconds_sum" ()
  and idle0 = counter "dsvc_pool_worker_idle_seconds_sum" () in
  let t0 = now () in
  ignore (ok "optimize" (Repo.optimize repo ~jobs:2 (Repo.Budgeted_sum 1.5)));
  let total = now () -. t0 in
  let spans =
    let all = Trace.spans () in
    let fresh = Trace.span_count () - spans_before in
    List.filteri (fun i _ -> i >= List.length all - fresh) all
  in
  let dur name =
    List.fold_left
      (fun acc (s : Trace.span) -> if s.name = name then acc +. s.dur else acc)
      0.0 spans
  in
  let reveal = dur "optimize.graph_construction" and solve = dur "optimize.solve" in
  let busy = counter "dsvc_pool_worker_busy_seconds_sum" () -. busy0
  and idle = counter "dsvc_pool_worker_idle_seconds_sum" () -. idle0 in
  emit "optimize.reveal_s" "s" reveal;
  emit "optimize.solve_s" "s" solve;
  emit "optimize.rest_s" "s" (total -. reveal -. solve);
  emit "pool.busy_ratio" "ratio"
    (if busy +. idle > 0.0 then busy /. (busy +. idle) else 0.0)

type cycle = {
  plans : (string * Storage_graph.t) list;
  times : (string * float) list;  (** seconds per solver *)
}

(* The solver cycle of the solve_large workload: MCA; SPT; LMG at
   β = 1.5 × C_MCA; MP at θ = 2 × max R_SPT; GitH(10, 50). Each call
   runs under its own benchmark span. *)
let solver_cycle ~op g =
  let times = ref [] in
  let timed name f =
    let t0 = now () in
    let r = Span.with_span ~op ~layer:"solver" name f in
    times := (name, now () -. t0) :: !times;
    r
  in
  let mca = timed "Mca.solve" (fun () -> ok "mca" (Mca.solve g)) in
  let spt = timed "Spt.solve" (fun () -> ok "spt" (Spt.solve g)) in
  let lmg =
    timed "Lmg.solve" (fun () ->
        Lmg.solve g ~base:mca ~spt
          ~budget:(1.5 *. Storage_graph.storage_cost mca)
          ())
  in
  let mp =
    timed "Mp.solve" (fun () ->
        match
          (Mp.solve g ~theta:(2.0 *. Storage_graph.max_recreation spt)).Mp.tree
        with
        | Some t -> t
        | None -> failwith "mp: infeasible")
  in
  let gith =
    timed "Gith.solve" (fun () ->
        ok "gith" (Gith.solve ~jobs:1 g ~window:10 ~max_depth:50))
  in
  {
    plans = [ ("mca", mca); ("spt", spt); ("lmg", lmg); ("mp", mp); ("gith", gith) ];
    times = List.rev !times;
  }

let check_plans g cycle =
  List.filter_map
    (fun (name, plan) ->
      match Solution_check.check g plan with
      | Ok _ -> None
      | Error es -> Some (name ^ ": " ^ String.concat "; " es))
    cycle.plans

(* Per-solver seconds and the exact solver counters of one cycle. *)
let solvers (emit : emit) g =
  let counts =
    [
      ("solver.edges_relaxed", "dsvc_solver_edges_relaxed_total");
      ("solver.lmg_swaps_considered", "dsvc_solver_swaps_considered_total");
      ("solver.gith_candidates_scanned", "dsvc_solver_candidates_scanned_total");
      ("solver.mca_cycles_contracted", "dsvc_solver_cycles_contracted_total");
    ]
  in
  let before = List.map (fun (_, c) -> counter c ()) counts in
  let cycle = solver_cycle ~op:(Span.new_op ()) g in
  List.iter2
    (fun (name, c) b -> emit name "count" (counter c () -. b))
    counts before;
  List.iter
    (fun (name, t) ->
      let short = String.lowercase_ascii (List.hd (String.split_on_char '.' name)) in
      emit (Printf.sprintf "solver.%s_s" short) "s" t)
    cycle.times;
  let t0 = now () in
  let errors = check_plans g cycle in
  emit "solution_check_s" "s" (now () -. t0);
  errors
