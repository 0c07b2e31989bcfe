(* The domain pool: deterministic results at any [jobs], exception
   propagation, and byte-identical parallel vs sequential plans for
   the phases that fan out over it (cost generation, Repo.optimize)
   plus the checkout materialization cache. *)

open Versioning_core
open Versioning_workload
module Pool = Versioning_util.Pool
module Prng = Versioning_util.Prng
module Digraph = Versioning_graph.Digraph
module Repo = Versioning_store.Repo

let ok = Fixtures.ok

let temp_dir () =
  let path = Filename.temp_file "dsvc_pool" "" in
  Sys.remove path;
  path

(* ---- the pool itself ---- *)

let test_parallel_init_matches_sequential () =
  let f i = (i * 31) lxor (i / 7) in
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d jobs=%d" n jobs)
            (Array.init n f)
            (Pool.parallel_init ~jobs n f))
        [ 0; 1; 2; 7; 100; 1000 ])
    [ 1; 2; 8 ]

let test_parallel_map_matches_sequential () =
  let input = Array.init 500 (fun i -> Printf.sprintf "item-%d" i) in
  let f s = String.length s + Hashtbl.hash s in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        (Array.map f input)
        (Pool.parallel_map ~jobs f input))
    [ 1; 2; 8 ]

let test_parallel_init_negative () =
  Alcotest.check_raises "negative length"
    (Invalid_argument "Pool.parallel_init: negative length") (fun () ->
      ignore (Pool.parallel_init ~jobs:2 (-1) (fun i -> i)))

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "raises at jobs=%d" jobs)
        true
        (match
           Pool.parallel_init ~jobs 1000 (fun i ->
               if i = 613 then raise (Boom i) else i)
         with
        | _ -> false
        | exception Boom 613 -> true))
    [ 1; 2; 8 ]

let test_default_jobs_bounds () =
  let d = Pool.default_jobs () in
  Alcotest.(check bool) "within clamp" true (d >= 1 && d <= 128);
  Alcotest.(check bool) "recommended positive" true (Pool.recommended_jobs () >= 1)

(* ---- parallel phases produce identical results ---- *)

let edge_list g =
  List.map
    (fun (e : Aux_graph.weight Digraph.edge) ->
      (e.src, e.dst, e.label.Aux_graph.delta, e.label.Aux_graph.phi))
    (Digraph.edges (Aux_graph.graph g))

let gen_aux ~jobs =
  let rng = Prng.create ~seed:77 in
  let history =
    History_gen.generate (History_gen.flat_params ~n_commits:150) rng
  in
  Cost_gen.generate ~jobs history
    { Cost_gen.default_params with max_hops = 4; reveal_cap = 10 }
    rng

let test_cost_gen_parallel_identical () =
  let seq = gen_aux ~jobs:1 in
  List.iter
    (fun jobs ->
      let par = gen_aux ~jobs in
      Alcotest.(check int)
        (Printf.sprintf "edge count jobs=%d" jobs)
        (Digraph.n_edges (Aux_graph.graph seq))
        (Digraph.n_edges (Aux_graph.graph par));
      Alcotest.(check bool)
        (Printf.sprintf "edges identical jobs=%d" jobs)
        true
        (edge_list seq = edge_list par))
    [ 2; 4 ]

(* A small repository with branchy content, built identically twice. *)
let build_repo () =
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  let rng = Prng.create ~seed:11 in
  let history =
    History_gen.generate (History_gen.flat_params ~n_commits:40) rng
  in
  let data =
    Dataset_gen.generate ~name:"pool" history
      { Dataset_gen.default_params with initial_rows = 40; max_hops = 1 }
      rng
  in
  let entries =
    List.init 40 (fun i ->
        let v = i + 1 in
        ( Printf.sprintf "v%d" v,
          (if v = 1 then [] else [ v - 1 ]),
          data.Dataset_gen.contents.(v) ))
  in
  ignore (ok (Repo.import_versions repo entries));
  (dir, repo)

let test_optimize_parallel_identical () =
  let dir1, repo1 = build_repo () in
  let dir2, repo2 = build_repo () in
  List.iter
    (fun strategy ->
      ignore (ok (Repo.optimize repo1 ~jobs:1 strategy));
      ignore (ok (Repo.optimize repo2 ~jobs:4 strategy));
      Alcotest.(check (list (pair int int)))
        "identical storage plan"
        (Repo.storage_parents repo1)
        (Repo.storage_parents repo2);
      for v = 1 to 40 do
        Alcotest.(check string)
          (Printf.sprintf "content v%d" v)
          (ok (Repo.checkout repo1 v))
          (ok (Repo.checkout repo2 v))
      done)
    [ Repo.Min_storage; Repo.Git_window (8, 16); Repo.Budgeted_sum 1.5 ];
  Repo.close repo1;
  Repo.close repo2;
  ignore (Sys.command (Printf.sprintf "rm -rf %s %s" dir1 dir2))

(* ---- the checkout materialization cache ---- *)

let test_cache_hits_and_content () =
  let dir, repo = build_repo () in
  let reference = Array.init 41 (fun v -> if v = 0 then "" else ok (Repo.checkout_uncached repo v)) in
  (* cold pass fills, second pass is pure hits, contents unchanged *)
  for v = 1 to 40 do
    Alcotest.(check string) "cold" reference.(v) (ok (Repo.checkout repo v))
  done;
  let s1 = Repo.cache_stats repo in
  for v = 26 to 40 do
    Alcotest.(check string) "warm" reference.(v) (ok (Repo.checkout repo v))
  done;
  let s2 = Repo.cache_stats repo in
  Alcotest.(check int) "warm tail all hits" (s1.Repo.hits + 15) s2.Repo.hits;
  (* a chain scan pays each delta once: versions 2..40 are partial
     hits off the previous version's cached content *)
  Alcotest.(check bool) "partial hits on the chain walk" true
    (s2.Repo.partial_hits >= 30);
  Repo.close repo;
  ignore (Sys.command ("rm -rf " ^ dir))

let test_cache_bound_and_disable () =
  let dir, repo = build_repo () in
  Repo.set_cache_slots repo 2;
  for v = 1 to 40 do
    ignore (ok (Repo.checkout repo v))
  done;
  (* correctness does not depend on the bound *)
  for v = 1 to 40 do
    Alcotest.(check string)
      (Printf.sprintf "bounded cache v%d" v)
      (ok (Repo.checkout_uncached repo v))
      (ok (Repo.checkout repo v))
  done;
  (* slots = 0 disables: repeat checkouts never hit *)
  Repo.set_cache_slots repo 0;
  let s0 = Repo.cache_stats repo in
  for _ = 1 to 3 do
    ignore (ok (Repo.checkout repo 40))
  done;
  let s1 = Repo.cache_stats repo in
  Alcotest.(check int) "no hits when disabled" s0.Repo.hits s1.Repo.hits;
  Alcotest.(check int) "no partial hits when disabled" s0.Repo.partial_hits
    s1.Repo.partial_hits;
  Alcotest.(check int) "all misses when disabled" (s0.Repo.misses + 3) s1.Repo.misses;
  Alcotest.check_raises "negative bound rejected"
    (Invalid_argument "Repo.set_cache_slots: negative bound") (fun () ->
      Repo.set_cache_slots repo (-1));
  Repo.close repo;
  ignore (Sys.command ("rm -rf " ^ dir))

let test_cache_survives_optimize () =
  (* optimize re-plans storage but never changes contents; cached
     strings stay valid and verify still passes afterwards *)
  let dir, repo = build_repo () in
  let before = Array.init 41 (fun v -> if v = 0 then "" else ok (Repo.checkout repo v)) in
  ignore (ok (Repo.optimize repo ~jobs:2 Repo.Min_storage));
  for v = 1 to 40 do
    Alcotest.(check string)
      (Printf.sprintf "v%d after optimize" v)
      before.(v)
      (ok (Repo.checkout repo v))
  done;
  (match Repo.verify repo with
  | Ok () -> ()
  | Error es -> Alcotest.failf "verify: %s" (String.concat "; " es));
  Repo.close repo;
  ignore (Sys.command ("rm -rf " ^ dir))

let suite =
  [
    Alcotest.test_case "parallel_init = sequential" `Quick
      test_parallel_init_matches_sequential;
    Alcotest.test_case "parallel_map = sequential" `Quick
      test_parallel_map_matches_sequential;
    Alcotest.test_case "negative length rejected" `Quick
      test_parallel_init_negative;
    Alcotest.test_case "exceptions propagate" `Quick test_exception_propagation;
    Alcotest.test_case "default jobs bounds" `Quick test_default_jobs_bounds;
    Alcotest.test_case "cost_gen parallel identical" `Quick
      test_cost_gen_parallel_identical;
    Alcotest.test_case "optimize parallel identical" `Quick
      test_optimize_parallel_identical;
    Alcotest.test_case "cache hits and content" `Quick
      test_cache_hits_and_content;
    Alcotest.test_case "cache bound and disable" `Quick
      test_cache_bound_and_disable;
    Alcotest.test_case "cache survives optimize" `Quick
      test_cache_survives_optimize;
  ]
