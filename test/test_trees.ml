(* SPT, MST, MCA: optimality, determinism, and cross-validation
   against brute force. *)

open Versioning_core
module Prng = Versioning_util.Prng

(* ---- SPT ---- *)

let test_spt_figure1 () =
  let g = Fixtures.figure1 () in
  let spt = Fixtures.ok (Spt.solve g) in
  (* Direct checks of the shortest paths in Figure 3. *)
  Alcotest.check Fixtures.float_eq "R1" 10000.0 (Storage_graph.recreation_cost spt 1);
  (* V2: min(10100, 10000+200) = 10100 *)
  Alcotest.check Fixtures.float_eq "R2" 10100.0 (Storage_graph.recreation_cost spt 2);
  (* V5: min(10120, via V3 9700+550 = 10250, ...) = 10120 *)
  Alcotest.check Fixtures.float_eq "R5" 10120.0 (Storage_graph.recreation_cost spt 5);
  (* distances agree with the tree *)
  let dist = Spt.distances g in
  for v = 1 to 5 do
    Alcotest.check Fixtures.float_eq
      (Printf.sprintf "distance %d" v)
      dist.(v)
      (Storage_graph.recreation_cost spt v)
  done

let test_spt_lower_bounds_everything () =
  (* No solution can beat the SPT on any version's recreation cost. *)
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 40 do
    let g = Fixtures.random_graph ~n_min:3 ~n_max:8 rng in
    let dist = Spt.distances g in
    List.iter
      (fun sg ->
        for v = 1 to Aux_graph.n_versions g do
          Alcotest.(check bool) "spt is a lower bound" true
            (Storage_graph.recreation_cost sg v >= dist.(v) -. 1e-9)
        done)
      (List.filter_map
         (fun r -> match r with Ok sg -> Some sg | Error _ -> None)
         [ Mca.solve g; Gith.solve g ~window:5 ~max_depth:10 ])
  done

let test_spt_unreachable () =
  let g = Aux_graph.create ~n_versions:2 in
  Aux_graph.add_materialization g ~version:1 ~delta:1. ~phi:1.;
  (* version 2 has no in-edges at all *)
  let e = Fixtures.err (Spt.solve g) in
  Alcotest.(check string) "error names the version"
    "version 2 cannot be recreated from the root" e

(* ---- MST / MCA ---- *)

let brute_force_min_storage g =
  let n = Aux_graph.n_versions g in
  let best = ref infinity in
  let parents = Array.make (n + 1) 0 in
  let rec go v =
    if v > n then begin
      let choice = List.init n (fun i -> (parents.(i + 1), i + 1)) in
      match Storage_graph.of_parents g ~parents:choice with
      | Ok sg -> best := Float.min !best (Storage_graph.storage_cost sg)
      | Error _ -> ()
    end
    else
      for p = 0 to n do
        if p <> v then begin
          parents.(v) <- p;
          go (v + 1)
        end
      done
  in
  go 1;
  !best

let test_mca_brute_force () =
  let rng = Prng.create ~seed:17 in
  for _ = 1 to 60 do
    let g = Fixtures.random_graph ~n_min:2 ~n_max:6 rng in
    let sg = Fixtures.ok (Mca.solve g) in
    Fixtures.check_valid g sg;
    Alcotest.check Fixtures.float_eq "MCA optimal"
      (brute_force_min_storage g)
      (Storage_graph.storage_cost sg)
  done

let test_mca_figure1 () =
  let g = Fixtures.figure1 () in
  let sg = Fixtures.ok (Mca.solve g) in
  (* Figure 1(iii) is the minimum-storage solution: C = 11450. *)
  Alcotest.check Fixtures.float_eq "paper MCA cost" 11450.0
    (Storage_graph.storage_cost sg)

let test_mca_determinism () =
  let rng = Prng.create ~seed:23 in
  let g = Fixtures.random_graph ~n_min:5 ~n_max:10 rng in
  let a = Fixtures.ok (Mca.solve g) in
  let b = Fixtures.ok (Mca.solve g) in
  Alcotest.(check (list (pair int int))) "same tree"
    (Storage_graph.to_parents a) (Storage_graph.to_parents b)

let test_mca_unreachable () =
  let g = Aux_graph.create ~n_versions:2 in
  Aux_graph.add_materialization g ~version:1 ~delta:1. ~phi:1.;
  match Mca.solve g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unreachable error"

let test_mca_cycle_contraction () =
  (* Force a 2-cycle of cheap deltas plus expensive materializations:
     the naive greedy picks the cycle; Edmonds must contract it. *)
  let g = Aux_graph.create ~n_versions:2 in
  Aux_graph.add_materialization g ~version:1 ~delta:100. ~phi:100.;
  Aux_graph.add_materialization g ~version:2 ~delta:90. ~phi:90.;
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:1. ~phi:1.;
  Aux_graph.add_delta g ~src:2 ~dst:1 ~delta:1. ~phi:1.;
  let sg = Fixtures.ok (Mca.solve g) in
  (* Optimum: materialize 2 (90) + delta 2->1 (1) = 91. *)
  Alcotest.check Fixtures.float_eq "cycle resolved optimally" 91.0
    (Storage_graph.storage_cost sg)

let test_mca_nested_cycles () =
  (* A 3-cycle where every materialization is expensive. *)
  let g = Aux_graph.create ~n_versions:3 in
  List.iter
    (fun (v, c) -> Aux_graph.add_materialization g ~version:v ~delta:c ~phi:c)
    [ (1, 100.); (2, 101.); (3, 102.) ];
  List.iter
    (fun (s, d, c) -> Aux_graph.add_delta g ~src:s ~dst:d ~delta:c ~phi:c)
    [ (1, 2, 1.); (2, 3, 2.); (3, 1, 3.); (2, 1, 5.) ];
  let sg = Fixtures.ok (Mca.solve g) in
  (* materialize 1 (100) + 1->2 (1) + 2->3 (2) = 103 *)
  Alcotest.check Fixtures.float_eq "nested optimal" 103.0
    (Storage_graph.storage_cost sg);
  Alcotest.(check (list int)) "root choice" [ 1 ]
    (Storage_graph.materialized_versions sg)

(* Parallel edges: MCA selects the cheapest in-edge and, among equal
   weights from one source, the edge listed first in its scan order —
   the reverse of reveal order. The Φ of the chosen edge shows which
   one won. *)
let mca_choice g =
  let sg = Fixtures.ok (Mca.solve g) in
  Fixtures.check_valid g sg;
  ( Storage_graph.to_parents sg,
    List.init (Aux_graph.n_versions g) (fun i ->
        (Storage_graph.edge_weight sg (i + 1)).Aux_graph.phi) )

let choice = Alcotest.(pair (list (pair int int)) (list (float 0.)))

let test_mca_parallel_reveals () =
  let g = Aux_graph.create ~n_versions:2 in
  Aux_graph.add_materialization g ~version:1 ~delta:100. ~phi:100.;
  Aux_graph.add_materialization g ~version:2 ~delta:100. ~phi:100.;
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:5. ~phi:7.;
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:5. ~phi:9.;
  Alcotest.check choice "equal weights: last reveal wins"
    ([ (0, 1); (1, 2) ], [ 100.; 9. ])
    (mca_choice g);
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:4. ~phi:11.;
  Alcotest.check choice "a cheaper parallel reveal wins"
    ([ (0, 1); (1, 2) ], [ 100.; 11. ])
    (mca_choice g)

(* 1 -> 2 and 1 -> 3 only become parallel once the 2-cycle {2, 3} is
   contracted; both are reduced by 1. *)
let contracted_pair ~w12 ~w13 =
  let g = Aux_graph.create ~n_versions:3 in
  Aux_graph.add_materialization g ~version:1 ~delta:10. ~phi:10.;
  Aux_graph.add_materialization g ~version:2 ~delta:100. ~phi:100.;
  Aux_graph.add_materialization g ~version:3 ~delta:100. ~phi:100.;
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:w12 ~phi:12.;
  Aux_graph.add_delta g ~src:1 ~dst:3 ~delta:w13 ~phi:13.;
  Aux_graph.add_delta g ~src:2 ~dst:3 ~delta:1. ~phi:23.;
  Aux_graph.add_delta g ~src:3 ~dst:2 ~delta:1. ~phi:32.;
  g

let test_mca_parallel_after_contraction () =
  (* equal reduced weights: 1 -> 3 is listed first and wins *)
  Alcotest.check choice "tie after contraction"
    ([ (0, 1); (3, 2); (1, 3) ], [ 10.; 32.; 13. ])
    (mca_choice (contracted_pair ~w12:6. ~w13:6.));
  (* the later-listed edge is strictly cheaper: it must survive *)
  Alcotest.check choice "later cheaper edge after contraction"
    ([ (0, 1); (1, 2); (2, 3) ], [ 10.; 12.; 23. ])
    (mca_choice (contracted_pair ~w12:5.5 ~w13:6.));
  Alcotest.check choice "earlier cheaper edge after contraction"
    ([ (0, 1); (3, 2); (1, 3) ], [ 10.; 32.; 13. ])
    (mca_choice (contracted_pair ~w12:6. ~w13:5.5))

let test_mst_prim_equals_kruskal () =
  let rng = Prng.create ~seed:29 in
  for _ = 1 to 60 do
    let g = Aux_graph.symmetrize (Fixtures.random_graph ~n_min:2 ~n_max:9 rng) in
    let p = Fixtures.ok (Mst.prim g) in
    let k = Fixtures.ok (Mst.kruskal g) in
    Fixtures.check_valid g p;
    Fixtures.check_valid g k;
    Alcotest.check Fixtures.float_eq "equal weight" (Mst.weight p) (Mst.weight k)
  done

let test_mst_undirected_equals_mca () =
  (* On a symmetric graph, the MCA weight can never beat the MST
     weight (any arborescence is a spanning tree). *)
  let rng = Prng.create ~seed:31 in
  for _ = 1 to 30 do
    let g = Aux_graph.symmetrize (Fixtures.random_graph ~n_min:2 ~n_max:7 rng) in
    let mst = Fixtures.ok (Mst.prim g) in
    let mca = Fixtures.ok (Mca.solve g) in
    Alcotest.(check bool) "mst <= mca on symmetric" true
      (Mst.weight mst <= Mst.weight mca +. 1e-9);
    Alcotest.(check bool) "mca <= mst (it is a spanning tree too)" true
      (Mst.weight mca <= Mst.weight mst +. 1e-9)
  done

let test_mst_disconnected () =
  let g = Aux_graph.create ~n_versions:2 in
  Aux_graph.add_materialization g ~version:1 ~delta:1. ~phi:1.;
  (match Mst.prim g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "prim should fail");
  match Mst.kruskal g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kruskal should fail"

let suite =
  [
    Alcotest.test_case "spt figure 1" `Quick test_spt_figure1;
    Alcotest.test_case "spt lower-bounds everything" `Quick
      test_spt_lower_bounds_everything;
    Alcotest.test_case "spt unreachable" `Quick test_spt_unreachable;
    Alcotest.test_case "mca = brute force" `Quick test_mca_brute_force;
    Alcotest.test_case "mca figure 1" `Quick test_mca_figure1;
    Alcotest.test_case "mca determinism" `Quick test_mca_determinism;
    Alcotest.test_case "mca unreachable" `Quick test_mca_unreachable;
    Alcotest.test_case "mca cycle contraction" `Quick test_mca_cycle_contraction;
    Alcotest.test_case "mca nested cycles" `Quick test_mca_nested_cycles;
    Alcotest.test_case "mca parallel reveals" `Quick test_mca_parallel_reveals;
    Alcotest.test_case "mca parallel after contraction" `Quick
      test_mca_parallel_after_contraction;
    Alcotest.test_case "prim = kruskal" `Quick test_mst_prim_equals_kruskal;
    Alcotest.test_case "mst = mca on symmetric" `Quick
      test_mst_undirected_equals_mca;
    Alcotest.test_case "mst disconnected" `Quick test_mst_disconnected;
  ]
