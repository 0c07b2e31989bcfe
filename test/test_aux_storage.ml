open Versioning_core
module Prng = Versioning_util.Prng

(* ---- Aux_graph ---- *)

let test_construction () =
  let g = Fixtures.figure1 () in
  Alcotest.(check int) "versions" 5 (Aux_graph.n_versions g);
  Alcotest.(check bool) "all materializations" true
    (Aux_graph.has_all_materializations g);
  (match Aux_graph.materialization g 3 with
  | Some w -> Alcotest.(check (float 0.)) "diag 3" 9700.0 w.Aux_graph.delta
  | None -> Alcotest.fail "missing diagonal");
  (match Aux_graph.delta g ~src:1 ~dst:3 with
  | Some w ->
      Alcotest.(check (float 0.)) "delta" 1000.0 w.Aux_graph.delta;
      Alcotest.(check (float 0.)) "phi" 3000.0 w.Aux_graph.phi
  | None -> Alcotest.fail "missing delta");
  Alcotest.(check bool) "unrevealed is None" true
    (Aux_graph.delta g ~src:4 ~dst:1 = None)

let test_validation () =
  let g = Aux_graph.create ~n_versions:2 in
  Alcotest.(check bool) "incomplete materializations" false
    (Aux_graph.has_all_materializations g);
  Alcotest.check_raises "version out of range"
    (Invalid_argument "Aux_graph.add_materialization: version 3 out of range")
    (fun () -> Aux_graph.add_materialization g ~version:3 ~delta:1. ~phi:1.);
  Aux_graph.add_materialization g ~version:1 ~delta:5. ~phi:5.;
  Alcotest.check_raises "double reveal"
    (Invalid_argument
       "Aux_graph.add_materialization: version 1 already revealed") (fun () ->
      Aux_graph.add_materialization g ~version:1 ~delta:5. ~phi:5.);
  Alcotest.check_raises "self delta" (Invalid_argument "Aux_graph.add_delta: src = dst")
    (fun () -> Aux_graph.add_delta g ~src:1 ~dst:1 ~delta:1. ~phi:1.);
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Aux_graph.add_delta: negative cost") (fun () ->
      Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:(-1.) ~phi:1.)

let test_scenarios () =
  let g = Fixtures.figure1 () in
  Alcotest.(check bool) "figure1 is directed" false (Aux_graph.is_symmetric g);
  Alcotest.(check bool) "figure1 is not proportional" false
    (Aux_graph.is_proportional g);
  (match Aux_graph.scenario g with
  | `Directed_indep -> ()
  | _ -> Alcotest.fail "expected Directed_indep");
  let sym = Aux_graph.symmetrize g in
  Alcotest.(check bool) "symmetrize symmetric" true (Aux_graph.is_symmetric sym);
  (* original untouched *)
  Alcotest.(check bool) "input unchanged" false (Aux_graph.is_symmetric g);
  (* symmetrize is idempotent on edge count *)
  let sym2 = Aux_graph.symmetrize sym in
  Alcotest.(check int) "idempotent"
    (Versioning_graph.Digraph.n_edges (Aux_graph.graph sym))
    (Versioning_graph.Digraph.n_edges (Aux_graph.graph sym2))

let test_proportional_detection () =
  let g = Aux_graph.create ~n_versions:2 in
  Aux_graph.add_materialization g ~version:1 ~delta:5. ~phi:5.;
  Aux_graph.add_materialization g ~version:2 ~delta:6. ~phi:6.;
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:2. ~phi:2.;
  Alcotest.(check bool) "proportional" true (Aux_graph.is_proportional g);
  match Aux_graph.scenario g with
  | `Directed_prop -> ()
  | _ -> Alcotest.fail "expected Directed_prop"

(* ---- Storage_graph ---- *)

let test_figure1_solutions () =
  let g = Fixtures.figure1 () in
  (* Figure 1(iii): only V1 materialized; the paper computes
     C = 11450 and R5 = 13550. *)
  let sg =
    Fixtures.ok
      (Storage_graph.of_parents g
         ~parents:[ (0, 1); (1, 2); (1, 3); (2, 4); (3, 5) ])
  in
  Alcotest.check Fixtures.float_eq "C (paper: 11450)" 11450.0
    (Storage_graph.storage_cost sg);
  Alcotest.check Fixtures.float_eq "R5 (paper: 13550)" 13550.0
    (Storage_graph.recreation_cost sg 5);
  Alcotest.check Fixtures.float_eq "R1 = full recreation" 10000.0
    (Storage_graph.recreation_cost sg 1);
  Alcotest.(check (list int)) "materialized" [ 1 ]
    (Storage_graph.materialized_versions sg);
  Alcotest.(check int) "depth of V5" 2 (Storage_graph.depth sg 5);
  Alcotest.(check int) "depth of V1" 0 (Storage_graph.depth sg 1);
  Alcotest.(check (list int)) "children of V1" [ 2; 3 ]
    (Storage_graph.children sg 1);
  (* Figure 1(ii): everything materialized, C = 49720. *)
  let all =
    Fixtures.ok
      (Storage_graph.of_parents g
         ~parents:[ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5) ])
  in
  Alcotest.check Fixtures.float_eq "C all materialized (paper: 49720)" 49720.0
    (Storage_graph.storage_cost all);
  Alcotest.check Fixtures.float_eq "sumR = C here" 49720.0
    (Storage_graph.sum_recreation all)

let test_invalid_solutions () =
  let g = Fixtures.figure1 () in
  let expect_err parents =
    Fixtures.err (Storage_graph.of_parents g ~parents)
  in
  (* missing version *)
  Alcotest.(check bool) "missing version" true
    (String.length (expect_err [ (0, 1); (1, 2); (1, 3); (2, 4) ]) > 0);
  (* two parents *)
  Alcotest.(check bool) "duplicate" true
    (String.length
       (expect_err [ (0, 1); (1, 2); (3, 2); (1, 3); (2, 4); (3, 5) ])
    > 0);
  (* cycle: 4 <- 5 <- 4 is impossible here, build 2 <- 3 <- 2 style *)
  let e = expect_err [ (0, 1); (3, 2); (2, 3); (2, 4); (3, 5) ] in
  Alcotest.(check bool) "cycle reported" true
    (String.length e > 0);
  (* unrevealed edge *)
  let e = expect_err [ (0, 1); (1, 2); (1, 3); (1, 4); (3, 5) ] in
  Alcotest.(check bool) "unrevealed edge rejected" true
    (String.length e > 0);
  (* of several violations, the first in list order is reported *)
  Alcotest.(check string) "first violation wins" "parent 99 out of range"
    (expect_err [ (0, 1); (99, 2); (1, 77); (4, 3) ])

let test_weighted_recreation () =
  let g = Fixtures.figure1 () in
  let sg =
    Fixtures.ok
      (Storage_graph.of_parents g
         ~parents:[ (0, 1); (1, 2); (1, 3); (2, 4); (3, 5) ])
  in
  let freqs = [| 0.; 0.; 1.; 0.; 0.; 2. |] in
  (* R2 = 10200, R5 = 13550 *)
  Alcotest.check Fixtures.float_eq "weighted"
    ((1. *. 10200.) +. (2. *. 13550.))
    (Storage_graph.weighted_recreation sg ~freqs);
  Alcotest.check_raises "short freqs rejected"
    (Invalid_argument "Storage_graph.weighted_recreation: freqs too short")
    (fun () -> ignore (Storage_graph.weighted_recreation sg ~freqs:[| 0. |]))

let test_to_parents_roundtrip () =
  let g = Fixtures.figure1 () in
  let parents = [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 5) ] in
  let sg = Fixtures.ok (Storage_graph.of_parents g ~parents) in
  Alcotest.(check (list (pair int int))) "roundtrip" parents
    (Storage_graph.to_parents sg)

let test_random_consistency () =
  let rng = Prng.create ~seed:21 in
  for _ = 1 to 50 do
    let g = Fixtures.random_graph ~n_min:3 ~n_max:10 rng in
    match Mca.solve g with
    | Ok sg -> Fixtures.check_valid g sg
    | Error _ -> ()
  done

(* ---- the materialization index ---- *)

(* The reference: vertex 0's out-bucket, first edge into [v]. *)
let scanned_materialization g v =
  List.find_map
    (fun (e : Aux_graph.weight Versioning_graph.Digraph.edge) ->
      if e.dst = v then Some e.label else None)
    (Versioning_graph.Digraph.out_edges (Aux_graph.graph g) 0)

let index_matches_scan g =
  let n = Aux_graph.n_versions g in
  let all = ref true and same = ref true in
  for v = 1 to n do
    let scanned = scanned_materialization g v in
    if scanned = None then all := false;
    if Aux_graph.materialization g v <> scanned then same := false
  done;
  !same && Aux_graph.has_all_materializations g = !all

(* A random graph where some versions lack a materialization and some
   pairs carry parallel reveals. *)
let sparse_graph seed =
  let rng = Prng.create ~seed in
  let n = Prng.int_in rng 1 12 in
  let g = Aux_graph.create ~n_versions:n in
  for v = 1 to n do
    if Prng.bernoulli rng 0.8 then begin
      let c = float_of_int (Prng.int_in rng 50 150) in
      Aux_graph.add_materialization g ~version:v ~delta:c
        ~phi:(c +. float_of_int (Prng.int rng 3))
    end
  done;
  for _ = 1 to Prng.int rng (3 * n) do
    let s = Prng.int_in rng 1 n and d = Prng.int_in rng 1 n in
    if s <> d then
      Aux_graph.add_delta g ~src:s ~dst:d
        ~delta:(float_of_int (Prng.int_in rng 1 40))
        ~phi:(float_of_int (Prng.int_in rng 1 40))
  done;
  (g, rng)

let qcheck_index_matches_scan =
  QCheck.Test.make ~name:"materialization index = root-bucket scan" ~count:200
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let g, rng = sparse_graph seed in
      let n = Aux_graph.n_versions g in
      let sub =
        Versioning_workload.Subgraph.bfs_sample g
          ~n:(Prng.int_in rng 1 n) rng
      in
      let views = [ g; Aux_graph.symmetrize g; sub ] in
      List.for_all index_matches_scan views
      && (* a repeated reveal is still rejected; a first one lands *)
      List.for_all
        (fun g ->
          let ok = ref true in
          for v = 1 to Aux_graph.n_versions g do
            match Aux_graph.materialization g v with
            | Some _ -> (
                match
                  Aux_graph.add_materialization g ~version:v ~delta:1. ~phi:1.
                with
                | () -> ok := false
                | exception Invalid_argument _ -> ())
            | None ->
                Aux_graph.add_materialization g ~version:v ~delta:7. ~phi:8.;
                if
                  Aux_graph.materialization g v
                  <> Some { Aux_graph.delta = 7.; phi = 8. }
                then ok := false
          done;
          !ok && index_matches_scan g && Aux_graph.has_all_materializations g)
        views)

let suite =
  [
    Alcotest.test_case "aux construction" `Quick test_construction;
    Alcotest.test_case "aux validation" `Quick test_validation;
    Alcotest.test_case "scenarios" `Quick test_scenarios;
    Alcotest.test_case "proportional detection" `Quick
      test_proportional_detection;
    Alcotest.test_case "figure 1 solutions" `Quick test_figure1_solutions;
    Alcotest.test_case "invalid solutions" `Quick test_invalid_solutions;
    Alcotest.test_case "weighted recreation" `Quick test_weighted_recreation;
    Alcotest.test_case "to_parents roundtrip" `Quick test_to_parents_roundtrip;
    Alcotest.test_case "random consistency" `Quick test_random_consistency;
    QCheck_alcotest.to_alcotest qcheck_index_matches_scan;
  ]
