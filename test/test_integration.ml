(* End-to-end integration: generated workloads flow through diffing,
   optimization, and the store, and the cross-algorithm invariants of
   the paper hold on real (generated) data. *)

open Versioning_core
open Versioning_workload
module Prng = Versioning_util.Prng
module Csv = Versioning_delta.Csv

let small_dataset seed =
  let rng = Prng.create ~seed in
  let h = History_gen.generate (History_gen.flat_params ~n_commits:50) rng in
  Dataset_gen.generate h
    {
      Dataset_gen.default_params with
      initial_rows = 50;
      initial_cols = 5;
      max_hops = 3;
      reveal_cap = 10;
    }
    rng

let test_pipeline_invariants () =
  (* On generated data: SPT <= every algorithm per version; MCA <=
     every algorithm on storage; bounds of every heuristic hold. *)
  for seed = 1 to 5 do
    let d = small_dataset seed in
    let g = d.Dataset_gen.aux in
    let n = Aux_graph.n_versions g in
    let base = Fixtures.ok (Solver.min_storage_tree g) in
    let spt = Fixtures.ok (Spt.solve g) in
    let dist = Spt.distances g in
    let cmin = Storage_graph.storage_cost base in
    let solutions =
      List.filter_map
        (fun (name, r) ->
          match r with Ok sg -> Some (name, sg) | Error _ -> None)
        [
          ("mca", Ok base);
          ("spt", Ok spt);
          ("lmg", Ok (Lmg.solve g ~base ~spt ~budget:(1.5 *. cmin) ()));
          ("last", Ok (Last.solve g ~base ~alpha:2.0));
          ("gith", Gith.solve g ~window:10 ~max_depth:20);
          ( "mp",
            match Mp.solve g ~theta:(3.0 *. Array.fold_left Float.max 0. dist) with
            | { Mp.tree = Some sg; _ } -> Ok sg
            | { Mp.tree = None; _ } -> Error "infeasible" );
        ]
    in
    List.iter
      (fun (name, sg) ->
        Fixtures.check_valid g sg;
        Alcotest.(check bool) (name ^ " storage >= MCA") true
          (Storage_graph.storage_cost sg >= cmin -. 1e-6);
        for v = 1 to n do
          Alcotest.(check bool) (name ^ " recreation >= SPT") true
            (Storage_graph.recreation_cost sg v >= dist.(v) -. 1e-6)
        done)
      solutions
  done

let test_store_roundtrip_generated_history () =
  (* Import every generated version into the store, re-plan with each
     strategy, and confirm byte-exact retrieval throughout. *)
  let d = small_dataset 42 in
  let n = Array.length d.Dataset_gen.contents - 1 in
  let dir = Filename.temp_file "dsvc_integration" "" in
  Sys.remove dir;
  let repo = Fixtures.ok (Versioning_store.Repo.init ~path:dir) in
  let entries =
    List.init n (fun i ->
        let v = i + 1 in
        let parents =
          match History_gen.first_parent d.Dataset_gen.history v with
          | None -> []
          | Some p -> [ p ]
        in
        (Printf.sprintf "version %d" v, parents, d.Dataset_gen.contents.(v)))
  in
  let ids = Fixtures.ok (Versioning_store.Repo.import_versions repo entries) in
  Alcotest.(check int) "all imported" n (List.length ids);
  let check_all () =
    for v = 1 to n do
      Alcotest.(check string)
        (Printf.sprintf "content %d" v)
        d.Dataset_gen.contents.(v)
        (Fixtures.ok (Versioning_store.Repo.checkout repo v))
    done
  in
  check_all ();
  List.iter
    (fun strategy ->
      let _ = Fixtures.ok (Versioning_store.Repo.optimize repo strategy) in
      check_all ();
      match Versioning_store.Repo.verify repo with
      | Ok () -> ()
      | Error ps ->
          Alcotest.failf "verify failed after optimize: %s"
            (String.concat "; " ps))
    [
      Versioning_store.Repo.Min_storage;
      Versioning_store.Repo.Budgeted_sum 1.3;
      Versioning_store.Repo.Git_window (8, 20);
    ]

let test_contents_parse_as_tables () =
  let d = small_dataset 7 in
  Array.iteri
    (fun v c ->
      if v >= 1 then begin
        let t = Csv.parse c in
        Alcotest.(check bool) "rectangular" true (Csv.is_rect t);
        Alcotest.(check bool) "has header + rows" true (Csv.n_rows t >= 1)
      end)
    d.Dataset_gen.contents

let test_dedup_vs_delta_storage () =
  (* The related-work comparison (§6): chunk-level dedup vs the
     paper's delta plans on the same version collection. Delta chains
     capture fine-grained redundancy that fixed chunks miss, so MCA
     should never lose; dedup must still beat storing everything. *)
  let d = small_dataset 11 in
  let n = Array.length d.Dataset_gen.contents - 1 in
  let raw_total = ref 0 in
  let store = Versioning_delta.Chunker.store_create () in
  let recipes =
    List.init n (fun i ->
        let c = d.Dataset_gen.contents.(i + 1) in
        raw_total := !raw_total + String.length c;
        Versioning_delta.Chunker.store_add store c)
  in
  (* every version rebuilds from its recipe *)
  List.iteri
    (fun i recipe ->
      Alcotest.(check string) "dedup rebuild"
        d.Dataset_gen.contents.(i + 1)
        (Result.get_ok (Versioning_delta.Chunker.store_get store recipe)))
    recipes;
  let dedup_bytes = Versioning_delta.Chunker.store_bytes store in
  let base = Fixtures.ok (Solver.min_storage_tree d.Dataset_gen.aux) in
  let mca_bytes = Storage_graph.storage_cost base in
  Alcotest.(check bool) "dedup beats raw" true (dedup_bytes < !raw_total);
  Alcotest.(check bool) "delta plan beats dedup" true
    (mca_bytes < float_of_int dedup_bytes)

let test_online_follows_history () =
  (* Feed the generated history to the online policy in commit order,
     revealing each version's parent delta - the DATAHUB arrival
     pattern. *)
  let d = small_dataset 13 in
  let g = d.Dataset_gen.aux in
  let n = Aux_graph.n_versions g in
  let t = Online.create (Online.Min_delta) in
  for v = 1 to n do
    let materialization =
      Option.get (Aux_graph.materialization g v)
    in
    let candidates =
      match History_gen.first_parent d.Dataset_gen.history v with
      | None -> []
      | Some p -> (
          match Aux_graph.delta g ~src:p ~dst:v with
          | Some w -> [ (p, w) ]
          | None -> [])
    in
    ignore (Result.get_ok (Online.add_version t ~materialization ~candidates))
  done;
  let sg = Online.to_storage_graph t in
  Alcotest.(check int) "all placed" n (Storage_graph.n_versions sg);
  (* online with parent-only candidates cannot beat offline MCA with
     the full reveal set *)
  let base = Fixtures.ok (Solver.min_storage_tree g) in
  Alcotest.(check bool) "online >= offline optimum" true
    (Online.storage_cost t >= Storage_graph.storage_cost base -. 1e-6)

(* ---- pinned plans ----

   Every solver's decisions, tie-breaks included, on two seeded
   1500-version DC cost graphs: the MD5 of the plan's (parent, child)
   pairs with its C and ΣR. Solver rewrites must leave these unchanged;
   a deliberate change of policy regenerates them. *)

let dc_graph seed =
  let rng = Prng.create ~seed in
  let history =
    History_gen.generate (History_gen.flat_params ~n_commits:1500) rng
  in
  Cost_gen.generate ~jobs:1 history
    {
      Cost_gen.default_params with
      max_hops = 5;
      reveal_cap = 12;
      size_jitter = 0.002;
    }
    rng

(* The solve_large cycle: LMG at 1.5 × C_MCA, MP at 2 × max R_SPT,
   GitH(10, 50). *)
let cycle g =
  let mca = Fixtures.ok (Mca.solve g) in
  let spt = Fixtures.ok (Spt.solve g) in
  let lmg =
    Lmg.solve g ~base:mca ~spt ~budget:(1.5 *. Storage_graph.storage_cost mca) ()
  in
  let mp =
    Option.get
      (Mp.solve g ~theta:(2.0 *. Storage_graph.max_recreation spt)).Mp.tree
  in
  let gith = Fixtures.ok (Gith.solve g ~window:10 ~max_depth:50) in
  [ ("mca", mca); ("spt", spt); ("lmg", lmg); ("mp", mp); ("gith", gith) ]

let plan_digest sg =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun (p, c) -> Printf.sprintf "%d,%d" p c)
             (Storage_graph.to_parents sg))))

let pinned =
  [
    ( 1,
      [
        ("mca", "b198f7c946b5e8ddca058b35ff5d3cf3", 564594.68838211603, 151360943.75071314);
        ("spt", "14d15fbf6db221b1488b9d0d02149646", 14308471.559020301, 14308471.559020301);
        ("lmg", "4e661a5e52ad2c9f7cdecb862d133c6b", 844483.72576516843, 19178787.938208573);
        ("mp", "f2a0b4a1453d086045c7b79570905254", 835882.57635450282, 21739052.992990538);
        ("gith", "eda5bb88f751e7b4fd7e2e2f51f3d6fa", 9588122.3666552044, 15112299.755409973);
      ] );
    ( 2,
      [
        ("mca", "8168f1b9c6990b24c1600eb90c670aa3", 571918.24878108443, 185958997.3788819);
        ("spt", "14d15fbf6db221b1488b9d0d02149646", 14708247.289166529, 14708247.289166529);
        ("lmg", "8d6c084aa318483ac40eb86fed4fe664", 850606.63337948138, 19881921.220748533);
        ("mp", "0ccaacc4310ce9c3db056bb2d5861f88", 878748.60319896054, 22156455.295927726);
        ("gith", "59e2e1ead18eef8abb54593e4cbc0849", 10260358.535460202, 15312920.948377967);
      ] );
  ]

let test_solver_plans_pinned () =
  List.iter
    (fun (seed, expected) ->
      let g = dc_graph seed in
      let plans = cycle g in
      List.iter
        (fun (name, digest, c, sum_r) ->
          let sg = List.assoc name plans in
          let label what = Printf.sprintf "seed %d %s %s" seed name what in
          Fixtures.check_valid g sg;
          Alcotest.(check string) (label "plan") digest (plan_digest sg);
          Alcotest.(check (float 0.)) (label "C") c (Storage_graph.storage_cost sg);
          Alcotest.(check (float 0.)) (label "sum R") sum_r
            (Storage_graph.sum_recreation sg);
          (* the plan rebuilt from its parent choices alone *)
          let back =
            Fixtures.ok
              (Storage_graph.of_parents g ~parents:(Storage_graph.to_parents sg))
          in
          Alcotest.(check string) (label "of_parents plan") digest (plan_digest back);
          Alcotest.(check (float 0.)) (label "of_parents C") c
            (Storage_graph.storage_cost back))
        expected)
    pinned

(* The cost graphs above have almost no weight ties. Small integer
   weights have many, so these pins catch a changed tie-break: one
   digest per solver over 300 random graphs. *)
let pinned_ties =
  [
    ("mca", "c2942031ca2bd987b30e83627f58add9");
    ("spt", "0e1ab333b6d2f7f47104b721eb036850");
    ("lmg", "5a640932fd6dbc3b082f6e469e8a200b");
    ("mp", "a2bfcc1a96e14c2dcbe82ad371283d51");
    ("gith", "2f06b568e5e35178b2809fc39dfab6a0");
  ]

let test_tie_breaks_pinned () =
  let rng = Prng.create ~seed:5 in
  let acc = Hashtbl.create 5 in
  for _ = 1 to 300 do
    let g = Fixtures.random_graph ~n_min:5 ~n_max:30 ~density:0.3 rng in
    List.iter
      (fun (name, sg) ->
        Fixtures.check_valid g sg;
        Hashtbl.replace acc name
          (plan_digest sg :: Option.value ~default:[] (Hashtbl.find_opt acc name)))
      (cycle g)
  done;
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) name expected
        (Digest.to_hex (Digest.string (String.concat "" (Hashtbl.find acc name)))))
    pinned_ties

(* Chu-Liu/Edmonds' round structure on the first pinned graph. *)
let test_mca_counters_pinned () =
  let module Obs = Versioning_obs.Obs in
  let module Metrics = Versioning_obs.Metrics in
  let g = dc_graph 1 in
  let value name =
    Option.value ~default:0.0 (List.assoc_opt name (Metrics.snapshot_values ()))
  in
  let cycles = {|dsvc_solver_cycles_contracted_total{algo="mca"}|} in
  let rounds = {|dsvc_solver_iterations_total{algo="mca"}|} in
  Obs.with_enabled true @@ fun () ->
  let c0 = value cycles and r0 = value rounds in
  ignore (Fixtures.ok (Mca.solve g));
  Alcotest.(check (float 0.)) "cycles contracted" 1322. (value cycles -. c0);
  Alcotest.(check (float 0.)) "rounds" 218. (value rounds -. r0)

(* LMG on the first pinned graph at the cycle's budget, unweighted and
   with seeded access frequencies: the weighted plan (its float subtree
   sums must not drift) and the greedy loop's work counters. *)
let pinned_lmg =
  [
    (false, "4e661a5e52ad2c9f7cdecb862d133c6b", 32., 47472., 31.);
    (true, "27aade6a2c5ea6f584bc764a1f991ab3", 32., 47472., 31.);
  ]

let test_lmg_counters_pinned () =
  let module Obs = Versioning_obs.Obs in
  let module Metrics = Versioning_obs.Metrics in
  let g = dc_graph 1 in
  let mca = Fixtures.ok (Mca.solve g) in
  let spt = Fixtures.ok (Spt.solve g) in
  let budget = 1.5 *. Storage_graph.storage_cost mca in
  let rng = Prng.create ~seed:17 in
  let freqs =
    Array.init (Aux_graph.n_versions g + 1) (fun _ -> Prng.float rng 10.0)
  in
  let value name =
    Option.value ~default:0.0
      (List.assoc_opt
         (Printf.sprintf {|dsvc_solver_%s_total{algo="lmg"}|} name)
         (Metrics.snapshot_values ()))
  in
  let names = [ "iterations"; "swaps_considered"; "swaps_accepted" ] in
  Obs.with_enabled true @@ fun () ->
  List.iter
    (fun (weighted, digest, rounds, considered, accepted) ->
      let before = List.map value names in
      let freqs = if weighted then Some freqs else None in
      let sg = Lmg.solve g ~base:mca ~spt ~budget ?freqs () in
      let label what = Printf.sprintf "weighted=%b %s" weighted what in
      Fixtures.check_valid g sg;
      Alcotest.(check string) (label "plan") digest (plan_digest sg);
      List.iter2
        (fun (name, expected) b ->
          Alcotest.(check (float 0.)) (label name) expected (value name -. b))
        (List.combine names [ rounds; considered; accepted ])
        before)
    pinned_lmg

let suite =
  [
    Alcotest.test_case "pipeline invariants" `Quick test_pipeline_invariants;
    Alcotest.test_case "store roundtrip on generated history" `Quick
      test_store_roundtrip_generated_history;
    Alcotest.test_case "contents parse as tables" `Quick
      test_contents_parse_as_tables;
    Alcotest.test_case "dedup vs delta storage" `Quick
      test_dedup_vs_delta_storage;
    Alcotest.test_case "online follows history" `Quick
      test_online_follows_history;
    Alcotest.test_case "solver plans pinned" `Quick test_solver_plans_pinned;
    Alcotest.test_case "tie-breaks pinned" `Quick test_tie_breaks_pinned;
    Alcotest.test_case "mca counters pinned" `Quick test_mca_counters_pinned;
    Alcotest.test_case "lmg counters pinned" `Quick test_lmg_counters_pinned;
  ]
