(* LMG, MP, LAST, GitH, Skip_delta: constraints respected, guarantees
   hold, and qualitative dominance relations from the paper. *)

open Versioning_core
module Prng = Versioning_util.Prng

let setup g =
  let base = Fixtures.ok (Solver.min_storage_tree g) in
  let spt = Fixtures.ok (Spt.solve g) in
  (base, spt)

(* ---- LMG ---- *)

let test_lmg_budget_respected () =
  let rng = Prng.create ~seed:41 in
  for _ = 1 to 40 do
    let g = Fixtures.random_graph ~n_min:5 ~n_max:20 ~density:0.4 rng in
    let base, spt = setup g in
    let cmin = Storage_graph.storage_cost base in
    let cmax = Storage_graph.storage_cost spt in
    let budget = cmin +. Prng.float rng (Float.max 1.0 (cmax -. cmin)) in
    let sg = Lmg.solve g ~base ~spt ~budget () in
    Fixtures.check_valid g sg;
    Alcotest.(check bool) "within budget" true
      (Storage_graph.storage_cost sg <= budget +. 1e-9);
    Alcotest.(check bool) "no worse than base on sumR" true
      (Storage_graph.sum_recreation sg
      <= Storage_graph.sum_recreation base +. 1e-9)
  done

let test_lmg_budget_monotone () =
  let rng = Prng.create ~seed:43 in
  let g = Fixtures.random_graph ~n_min:15 ~n_max:25 ~density:0.4 rng in
  let base, spt = setup g in
  let cmin = Storage_graph.storage_cost base in
  let results =
    List.map
      (fun f -> Storage_graph.sum_recreation (Lmg.solve g ~base ~spt ~budget:(f *. cmin) ()))
      [ 1.0; 1.5; 2.0; 4.0 ]
  in
  let rec decreasing = function
    | a :: (b :: _ as tl) -> a +. 1e-9 >= b && decreasing tl
    | _ -> true
  in
  Alcotest.(check bool) "sumR non-increasing in budget" true
    (decreasing results)

let test_lmg_generous_budget_reaches_spt () =
  (* With an unbounded budget LMG should push sumR down to (or near)
     the SPT optimum. *)
  let rng = Prng.create ~seed:47 in
  for _ = 1 to 20 do
    let g = Fixtures.random_graph ~n_min:5 ~n_max:12 rng in
    let base, spt = setup g in
    let sg = Lmg.solve g ~base ~spt ~budget:infinity () in
    Alcotest.(check bool) "close to SPT optimum" true
      (Storage_graph.sum_recreation sg
      <= 1.05 *. Storage_graph.sum_recreation spt +. 1e-9)
  done

let test_lmg_tight_budget_is_base () =
  let g = Fixtures.figure1 () in
  let base, spt = setup g in
  let sg =
    Lmg.solve g ~base ~spt ~budget:(Storage_graph.storage_cost base) ()
  in
  Alcotest.(check (list (pair int int))) "no swaps fit"
    (Storage_graph.to_parents base) (Storage_graph.to_parents sg)

let test_lmg_workload_aware_never_worse () =
  let rng = Prng.create ~seed:53 in
  for _ = 1 to 20 do
    let g = Fixtures.random_graph ~n_min:10 ~n_max:20 ~density:0.4 rng in
    let n = Aux_graph.n_versions g in
    let base, spt = setup g in
    let freqs = Array.make (n + 1) 0.01 in
    freqs.(n) <- 1000.0;
    (* one hot version *)
    let budget = 1.3 *. Storage_graph.storage_cost base in
    let blind = Lmg.solve g ~base ~spt ~budget () in
    let aware = Lmg.solve g ~base ~spt ~budget ~freqs () in
    let wb = Storage_graph.weighted_recreation blind ~freqs in
    let wa = Storage_graph.weighted_recreation aware ~freqs in
    Alcotest.(check bool) "aware never much worse" true (wa <= wb +. 1e-6)
  done

let test_lmg_workload_aware_wins () =
  (* Crafted instance: two chains off V1; the budget affords exactly
     one materialization swap. Count-based LMG prefers the long chain
     (more descendants); frequency-aware LMG must prefer the hot leaf
     on the short chain. *)
  let g = Aux_graph.create ~n_versions:5 in
  for v = 1 to 5 do
    Aux_graph.add_materialization g ~version:v ~delta:100. ~phi:100.
  done;
  (* chain A: 1 -> 2 -> 3 -> 4; chain B: 1 -> 5 *)
  List.iter
    (fun (s, d) -> Aux_graph.add_delta g ~src:s ~dst:d ~delta:10. ~phi:10.)
    [ (1, 2); (2, 3); (3, 4); (1, 5) ];
  let base, spt = setup g in
  let budget = Storage_graph.storage_cost base +. 90.0 in
  let freqs = [| 0.; 0.01; 0.01; 0.01; 0.01; 1000. |] in
  let blind = Lmg.solve g ~base ~spt ~budget () in
  let aware = Lmg.solve g ~base ~spt ~budget ~freqs () in
  Alcotest.(check bool) "aware materializes the hot version" true
    (Storage_graph.is_materialized aware 5);
  Alcotest.(check bool) "aware beats blind on weighted recreation" true
    (Storage_graph.weighted_recreation aware ~freqs
    < Storage_graph.weighted_recreation blind ~freqs -. 1e-6)

let test_lmg_p5 () =
  let rng = Prng.create ~seed:59 in
  for _ = 1 to 20 do
    let g = Fixtures.random_graph ~n_min:5 ~n_max:15 rng in
    let base, spt = setup g in
    let spt_sum = Storage_graph.sum_recreation spt in
    let bound = spt_sum *. 1.5 in
    let sg = Fixtures.ok (Lmg.solve_p5 g ~base ~spt ~sum_bound:bound ()) in
    Alcotest.(check bool) "sum bound met" true
      (Storage_graph.sum_recreation sg <= bound +. 1e-6);
    (* infeasible bound reports an error *)
    match Lmg.solve_p5 g ~base ~spt ~sum_bound:(spt_sum /. 2.0) () with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "bound below SPT optimum must fail"
  done

(* Oracle: [Lmg.solve] keeps subtree weights current across swaps and
   tests descendants lazily; [Lmg_reference] rebuilds everything per
   round. Small integer weights give many ρ ties, and the SPT parents
   are mostly internal, so this reaches the descendant walk and the
   root-path recomputes that large DC graphs (all SPT parents 0)
   never do. The weighted runs catch a changed summation order. *)
let test_lmg_matches_reference () =
  let rng = Prng.create ~seed:61 in
  for _ = 1 to 500 do
    let g = Fixtures.random_graph ~n_min:5 ~n_max:30 ~density:0.3 rng in
    let n = Aux_graph.n_versions g in
    let base = Fixtures.ok (Mca.solve g) in
    let spt = Fixtures.ok (Spt.solve g) in
    (* Multiples of 0.1 tie often in exact arithmetic but round by
       summation order, so a changed order changes a plan. *)
    let weights =
      Array.init (n + 1) (fun _ -> 0.1 *. float (Prng.int_in rng 1 9))
    in
    List.iter
      (fun factor ->
        let budget = factor *. Storage_graph.storage_cost base in
        List.iter
          (fun freqs ->
            let sg = Lmg.solve g ~base ~spt ~budget ?freqs () in
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "n=%d budget=%g×C weighted=%b" n factor
                 (Option.is_some freqs))
              (Lmg_reference.solve g ~base ~spt ~budget ?freqs ())
              (Storage_graph.to_parents sg))
          [ None; Some weights ])
      [ 1.05; 1.3; 2.0; 10.0 ]
  done

(* A swap's recreation shift can round a subtree's R below its new
   parent's: here 1 − 1e16 rounds to −1e16, so moving V2 (R = 1e16)
   under V1 (R = 1) leaves R2 = R3 = 0. V1's SPT in-edge then comes from
   its own descendant V3 with a positive gain, and only the descendant
   test keeps it from closing a cycle. *)
let test_lmg_descendant_guard () =
  let g = Aux_graph.create ~n_versions:3 in
  Aux_graph.add_materialization g ~version:1 ~delta:10. ~phi:1.;
  Aux_graph.add_materialization g ~version:2 ~delta:10. ~phi:1e16;
  Aux_graph.add_materialization g ~version:3 ~delta:10. ~phi:2e16;
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:5. ~phi:0.;
  Aux_graph.add_delta g ~src:2 ~dst:3 ~delta:5. ~phi:0.;
  Aux_graph.add_delta g ~src:3 ~dst:1 ~delta:5. ~phi:0.;
  let tree parents = Fixtures.ok (Storage_graph.of_parents g ~parents) in
  let base = tree [ (0, 1); (0, 2); (2, 3) ] in
  let spt = tree [ (3, 1); (1, 2); (0, 3) ] in
  let budget = Storage_graph.storage_cost base in
  let sg = Lmg.solve g ~base ~spt ~budget () in
  Fixtures.check_valid g sg;
  Alcotest.(check (list (pair int int))) "only V2 moves"
    [ (0, 1); (1, 2); (2, 3) ]
    (Storage_graph.to_parents sg);
  Alcotest.(check (list (pair int int))) "same as the reference"
    (Lmg_reference.solve g ~base ~spt ~budget ())
    (Storage_graph.to_parents sg)

(* ---- MP ---- *)

let test_mp_theta_respected () =
  (* MP is a heuristic: a tight theta can defeat it even when feasible
     (the paper runs it with generous bounds). The hard guarantees:
     any returned tree respects theta, and an unconstraining theta
     always succeeds. *)
  let rng = Prng.create ~seed:61 in
  let succeeded = ref 0 in
  for _ = 1 to 40 do
    let g = Fixtures.random_graph ~n_min:5 ~n_max:20 ~density:0.4 rng in
    let dist = Spt.distances g in
    let maxd = Array.fold_left Float.max 0.0 dist in
    let theta = maxd *. (1.5 +. Prng.float rng 2.0) in
    (match Mp.solve g ~theta with
    | { Mp.tree = Some sg; infeasible = [] } ->
        incr succeeded;
        Fixtures.check_valid g sg;
        Alcotest.(check bool) "max recreation within theta" true
          (Storage_graph.max_recreation sg <= theta +. 1e-9)
    | _ -> ());
    (* unconstraining theta always spans *)
    match Mp.solve g ~theta:1e12 with
    | { Mp.tree = Some sg; _ } -> Fixtures.check_valid g sg
    | _ -> Alcotest.fail "unconstrained MP must span"
  done;
  Alcotest.(check bool) "mostly succeeds at loose theta" true (!succeeded >= 30)

let test_mp_infeasible () =
  let g = Fixtures.figure1 () in
  (* No version can be recreated in under 9700. *)
  match Mp.solve g ~theta:100.0 with
  | { Mp.tree = None; infeasible } ->
      Alcotest.(check int) "all versions infeasible" 5 (List.length infeasible)
  | _ -> Alcotest.fail "expected infeasibility"

let test_mp_tight_theta_is_spt () =
  (* At theta = max SPT distance a solution exists (the SPT), but the
     greedy may or may not find it; when it does, the bound holds. *)
  let rng = Prng.create ~seed:67 in
  for _ = 1 to 20 do
    let g = Fixtures.random_graph ~n_min:4 ~n_max:10 rng in
    let dist = Spt.distances g in
    let maxd = Array.fold_left Float.max 0.0 dist in
    match Mp.solve g ~theta:maxd with
    | { Mp.tree = Some sg; _ } ->
        Alcotest.(check bool) "theta attained" true
          (Storage_graph.max_recreation sg <= maxd +. 1e-9)
    | { Mp.tree = None; infeasible } ->
        Alcotest.(check bool) "reports the stuck versions" true
          (infeasible <> [])
  done

let test_mp_storage_above_mca () =
  let rng = Prng.create ~seed:71 in
  for _ = 1 to 20 do
    let g = Fixtures.random_graph ~n_min:4 ~n_max:12 rng in
    let base = Fixtures.ok (Solver.min_storage_tree g) in
    let dist = Spt.distances g in
    let maxd = Array.fold_left Float.max 0.0 dist in
    match Mp.solve g ~theta:(2.0 *. maxd) with
    | { Mp.tree = Some sg; _ } ->
        Alcotest.(check bool) "storage lower-bounded by MCA" true
          (Storage_graph.storage_cost sg
          >= Storage_graph.storage_cost base -. 1e-9)
    | _ -> Alcotest.fail "feasible"
  done

let test_mp_p4 () =
  let rng = Prng.create ~seed:73 in
  for _ = 1 to 15 do
    let g = Fixtures.random_graph ~n_min:5 ~n_max:12 rng in
    let base = Fixtures.ok (Solver.min_storage_tree g) in
    let spt = Fixtures.ok (Spt.solve g) in
    let budget =
      Storage_graph.storage_cost base
      +. (0.5 *. (Storage_graph.storage_cost spt -. Storage_graph.storage_cost base))
    in
    (* MP's unconstrained storage is its floor: if that fits the
       budget, the binary search must succeed within budget. *)
    let unconstrained =
      match Mp.solve g ~theta:1e12 with
      | { Mp.tree = Some sg; _ } -> Storage_graph.storage_cost sg
      | _ -> infinity
    in
    match Mp.solve_p4 g ~budget () with
    | Ok sg ->
        Alcotest.(check bool) "budget respected" true
          (Storage_graph.storage_cost sg <= budget +. 1e-9)
    | Error _ ->
        Alcotest.(check bool) "only fails when even unconstrained MP is over budget"
          true
          (unconstrained > budget)
  done

(* ---- LAST ---- *)

let test_last_guarantees_undirected () =
  let rng = Prng.create ~seed:79 in
  for _ = 1 to 30 do
    let g = Aux_graph.symmetrize (Fixtures.random_graph ~n_min:5 ~n_max:15 rng) in
    let base = Fixtures.ok (Mst.prim g) in
    let alpha = 1.5 +. Prng.float rng 2.0 in
    let sg = Last.solve g ~base ~alpha in
    Fixtures.check_valid g sg;
    let dist = Spt.distances g in
    for v = 1 to Aux_graph.n_versions g do
      Alcotest.(check bool) "alpha bound" true
        (Storage_graph.recreation_cost sg v <= (alpha *. dist.(v)) +. 1e-6)
    done;
    let bound = (1.0 +. (2.0 /. (alpha -. 1.0))) *. Mst.weight base in
    Alcotest.(check bool) "storage bound" true
      (Storage_graph.storage_cost sg <= bound +. 1e-6)
  done

let test_last_directed_validity () =
  let rng = Prng.create ~seed:83 in
  for _ = 1 to 20 do
    let g = Fixtures.random_graph ~n_min:5 ~n_max:15 rng in
    let base = Fixtures.ok (Solver.min_storage_tree g) in
    let sg = Last.solve g ~base ~alpha:2.0 in
    Fixtures.check_valid g sg
  done

let test_last_alpha_validation () =
  let g = Fixtures.figure1 () in
  let base = Fixtures.ok (Solver.min_storage_tree g) in
  Alcotest.check_raises "alpha <= 1 rejected"
    (Invalid_argument "Last.solve: alpha must exceed 1") (fun () ->
      ignore (Last.solve g ~base ~alpha:1.0))

let test_last_large_alpha_is_mst () =
  (* With a huge alpha nothing is grafted: LAST returns the base tree's
     storage cost. *)
  let rng = Prng.create ~seed:89 in
  let g = Aux_graph.symmetrize (Fixtures.random_graph ~n_min:8 ~n_max:15 rng) in
  let base = Fixtures.ok (Mst.prim g) in
  let sg = Last.solve g ~base ~alpha:1e9 in
  Alcotest.check Fixtures.float_eq "storage equals MST" (Mst.weight base)
    (Storage_graph.storage_cost sg)

(* ---- GitH ---- *)

let test_gith_validity_and_depth () =
  let rng = Prng.create ~seed:97 in
  for _ = 1 to 30 do
    let g = Fixtures.random_graph ~n_min:5 ~n_max:20 rng in
    let max_depth = 1 + Prng.int rng 6 in
    let window = 1 + Prng.int rng 8 in
    let sg = Fixtures.ok (Gith.solve g ~window ~max_depth) in
    Fixtures.check_valid g sg;
    for v = 1 to Aux_graph.n_versions g do
      Alcotest.(check bool) "depth bounded" true
        (Storage_graph.depth sg v <= max_depth)
    done
  done

let test_gith_largest_materialized () =
  let g = Fixtures.figure1 () in
  let sg = Fixtures.ok (Gith.solve g ~window:0 ~max_depth:50) in
  (* The largest version (V5, 10120) is considered first and
     materialized. *)
  Alcotest.(check bool) "largest version materialized" true
    (Storage_graph.is_materialized sg 5)

let test_gith_window_effect () =
  (* A wider window can only see more candidates, so unbounded-window
     storage is never worse than window=1 given same depth. *)
  let rng = Prng.create ~seed:101 in
  let better = ref 0 in
  for _ = 1 to 20 do
    let g = Fixtures.random_graph ~n_min:10 ~n_max:25 ~density:0.5 rng in
    let wide = Fixtures.ok (Gith.solve g ~window:0 ~max_depth:20) in
    let narrow = Fixtures.ok (Gith.solve g ~window:1 ~max_depth:20) in
    if Storage_graph.storage_cost wide < Storage_graph.storage_cost narrow -. 1e-9
    then incr better
  done;
  Alcotest.(check bool) "wide window usually helps" true (!better >= 10)

let test_gith_missing_materialization () =
  let g = Aux_graph.create ~n_versions:2 in
  Aux_graph.add_materialization g ~version:1 ~delta:10. ~phi:10.;
  (* version 2: no materialization, no delta -> error *)
  match Gith.solve g ~window:0 ~max_depth:10 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* ---- Skip_delta ---- *)

let test_skip_base_values () =
  List.iter
    (fun (r, expected) ->
      Alcotest.(check int) (Printf.sprintf "base of %d" r) expected
        (Skip_delta.skip_base r))
    [ (1, 0); (2, 0); (3, 2); (4, 0); (5, 4); (6, 4); (7, 6); (8, 0); (12, 8) ];
  Alcotest.check_raises "r = 0 rejected"
    (Invalid_argument "Skip_delta.skip_base: r must be positive") (fun () ->
      ignore (Skip_delta.skip_base 0))

let test_chain_length_log () =
  (* chain length is the popcount, hence <= log2 r + 1 *)
  for r = 1 to 512 do
    let len = Skip_delta.chain_length r in
    let log2 = int_of_float (Float.log2 (float_of_int r)) + 1 in
    Alcotest.(check bool) "O(log n) chains" true (len <= log2)
  done

let test_skip_solve () =
  let n = 8 in
  let g = Aux_graph.create ~n_versions:n in
  for v = 1 to n do
    Aux_graph.add_materialization g ~version:v ~delta:100. ~phi:100.
  done;
  (* reveal exactly the skip edges *)
  let order = Array.init n (fun i -> i + 1) in
  List.iter
    (fun (p, v) ->
      if p <> 0 then Aux_graph.add_delta g ~src:p ~dst:v ~delta:7. ~phi:7.)
    (Skip_delta.parents ~order);
  let sg = Fixtures.ok (Skip_delta.solve g ~order) in
  Fixtures.check_valid g sg;
  (* storage: 1 materialization + 7 deltas *)
  Alcotest.check Fixtures.float_eq "storage" (100. +. (7. *. 7.))
    (Storage_graph.storage_cost sg);
  (* chain depth of version 8 (position 7 = 0b111) is 3 *)
  Alcotest.(check int) "depth is popcount" 3 (Storage_graph.depth sg 8)

let test_skip_solve_missing_edge () =
  let g = Aux_graph.create ~n_versions:3 in
  for v = 1 to 3 do
    Aux_graph.add_materialization g ~version:v ~delta:10. ~phi:10.
  done;
  match Skip_delta.solve g ~order:[| 1; 2; 3 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing skip edges must fail"

let suite =
  [
    Alcotest.test_case "lmg budget respected" `Quick test_lmg_budget_respected;
    Alcotest.test_case "lmg monotone in budget" `Quick test_lmg_budget_monotone;
    Alcotest.test_case "lmg generous budget -> spt" `Quick
      test_lmg_generous_budget_reaches_spt;
    Alcotest.test_case "lmg tight budget = base" `Quick
      test_lmg_tight_budget_is_base;
    Alcotest.test_case "lmg workload-aware never worse" `Quick
      test_lmg_workload_aware_never_worse;
    Alcotest.test_case "lmg workload-aware wins" `Quick
      test_lmg_workload_aware_wins;
    Alcotest.test_case "lmg p5 binary search" `Quick test_lmg_p5;
    Alcotest.test_case "lmg matches reference" `Quick test_lmg_matches_reference;
    Alcotest.test_case "lmg descendant guard" `Quick test_lmg_descendant_guard;
    Alcotest.test_case "mp theta respected" `Quick test_mp_theta_respected;
    Alcotest.test_case "mp infeasible" `Quick test_mp_infeasible;
    Alcotest.test_case "mp tight theta" `Quick test_mp_tight_theta_is_spt;
    Alcotest.test_case "mp storage >= mca" `Quick test_mp_storage_above_mca;
    Alcotest.test_case "mp p4 binary search" `Quick test_mp_p4;
    Alcotest.test_case "last guarantees (undirected)" `Quick
      test_last_guarantees_undirected;
    Alcotest.test_case "last directed validity" `Quick
      test_last_directed_validity;
    Alcotest.test_case "last alpha validation" `Quick test_last_alpha_validation;
    Alcotest.test_case "last huge alpha = mst" `Quick
      test_last_large_alpha_is_mst;
    Alcotest.test_case "gith validity + depth" `Quick
      test_gith_validity_and_depth;
    Alcotest.test_case "gith materializes largest" `Quick
      test_gith_largest_materialized;
    Alcotest.test_case "gith window effect" `Quick test_gith_window_effect;
    Alcotest.test_case "gith missing materialization" `Quick
      test_gith_missing_materialization;
    Alcotest.test_case "skip_base values" `Quick test_skip_base_values;
    Alcotest.test_case "skip chains are log" `Quick test_chain_length_log;
    Alcotest.test_case "skip solve" `Quick test_skip_solve;
    Alcotest.test_case "skip missing edge" `Quick test_skip_solve_missing_edge;
  ]
