(* dsvc benchmark: one workload per process, inputs from --seed.

     perfbench --dsvc PATH --workload NAME --seed N --seconds S --trace 0|1

   Prints a per-metric table (value, unit, sample count) on stderr and,
   as the last line of stdout, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. Exits
   1 when any output check failed. Scratch state lives under
   .perfbench/ in the working directory; traced runs also leave a
   Chrome trace and a per-layer self-time table in .perfbench/out/.
   WORKLOADS.md describes the workloads and metrics. *)

open Versioning_store
module Prng = Versioning_util.Prng
module Obs = Versioning_obs.Obs
module Storage_graph = Versioning_core.Storage_graph
module Aux_graph = Versioning_core.Aux_graph

let now = Unix.gettimeofday
let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let mkdir_p d = ok ("mkdir " ^ d) (Versioning_util.Fsutil.mkdir_p d)

(* ---- statistics ---- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* nearest-rank percentile *)
let pct a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

let sum a = Array.fold_left ( +. ) 0.0 a
let mean a = sum a /. float_of_int (max 1 (Array.length a))
let median a = pct a 50.0

(* ---- result ---- *)

type out = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable metrics : (string * (float * string * int)) list;  (** newest first *)
}

let out = { attempted = 0; failed = 0; problems = []; metrics = [] }

let set ?(samples = 1) name unit v =
  out.metrics <- (name, (v, unit, samples)) :: List.remove_assoc name out.metrics

let problem msg =
  out.attempted <- out.attempted + 1;
  out.failed <- out.failed + 1;
  out.problems <- msg :: out.problems

(* One output check: counts as an attempted operation, and as a failed
   one when [good] is false. *)
let check what good =
  if good then out.attempted <- out.attempted + 1 else problem what

let add_flow (f : Served.flow) =
  out.attempted <- out.attempted + f.Served.attempted;
  out.failed <- out.failed + f.Served.failed;
  if f.Served.failed > 0 then
    out.problems <- Printf.sprintf "%d failed operations" f.Served.failed :: out.problems

(* Latency metrics of the workload's main operation. *)
let emit_op ~lat ~window_s =
  let n = Array.length lat in
  set ~samples:n "op_p50_ms" "ms" (median lat *. 1000.0);
  Printf.eprintf
    "operation latency: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; %.1f operations/s over %d\n%!"
    (median lat *. 1000.0) (pct lat 90.0 *. 1000.0) (pct lat 99.0 *. 1000.0)
    (float_of_int n /. window_s) n

let emit_ratios ~storage ~recreation ~version_bytes =
  set "storage_ratio" "ratio" (storage /. version_bytes);
  set "recreation_ratio" "ratio" (recreation /. version_bytes)

(* The first and second half of a measured window should agree. A
   window is given as groups of time-ordered latency series: a group
   is one server instance (a series per client) or one stretch of
   in-process cycles. In each group the first halves of its series are
   pooled against the second halves, and the ratio of the two medians
   taken. A window still on a warm-up climb moves every group's ratio;
   a change in the shared host's speed moves only the group running at
   the time. So the check fails when every group's ratio lies outside
   [halves_limit] either way; the median ratio is reported. *)
let halves_limit = 1.3

let halves group =
  let group = List.filter (fun lat -> Array.length lat >= 2) group in
  let part first =
    Array.concat
      (List.map
         (fun lat ->
           let n = Array.length lat in
           if first then Array.sub lat 0 (n / 2) else Array.sub lat (n / 2) (n - (n / 2)))
         group)
  in
  if group = [] then nan else median (part false) /. median (part true)

let check_halves groups =
  let rs = List.filter (fun r -> not (Float.is_nan r)) (List.map halves groups) in
  if rs = [] then prerr_endline "halves: window too short to split"
  else begin
    let r = median (Array.of_list rs) in
    let outside r = r > halves_limit || r < 1.0 /. halves_limit in
    Printf.eprintf "halves: second/first p50 = %.3f, per group %s (limit %.2f)\n%!" r
      (String.concat " " (List.map (Printf.sprintf "%.3f") rs))
      halves_limit;
    check
      (Printf.sprintf "first and second half agree: every group's p50 ratio outside 1/%.2f..%.2f"
         halves_limit halves_limit)
      (not (List.for_all outside rs));
    set "halves.p50_ratio" "ratio" r
  end

(* ---- per-layer attribution ---- *)

let layers =
  [ "request"; "obs"; "repo"; "object_store"; "line_diff"; "fsutil"; "solver" ]

let out_dir = Filename.concat ".perfbench" "out"

(* Self-time table of the traced window: [rows] attribute seconds of
   the total to layers (with where each number came from); whatever
   they leave is the unattributed remainder. Rows of one layer add up. *)
let attribution ?(shares = true) ~name ~total ~ops rows =
  let per_op s = s *. 1000.0 /. float_of_int (max 1 ops) in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s: per-layer self time over %d traced operations (%.3f ms/op)\n"
    name ops (per_op total);
  Printf.bprintf b "  %-14s %12s %8s  %s\n" "layer" "ms/op" "share" "source";
  let attributed = ref 0.0 in
  List.iter
    (fun (layer, s, source) ->
      attributed := !attributed +. s;
      Printf.bprintf b "  %-14s %12.4f %7.1f%%  %s\n" layer (per_op s)
        (100.0 *. s /. total) source)
    rows;
  let rest = total -. !attributed in
  Printf.bprintf b "  %-14s %12.4f %7.1f%%  total minus the rows above\n"
    "unattributed" (per_op rest) (100.0 *. rest /. total);
  if shares then begin
    List.iter
      (fun layer ->
        let s =
          List.fold_left
            (fun acc (l, s, _) -> if l = layer then acc +. s else acc)
            0.0 rows
        in
        set ("self." ^ layer ^ "_share") "ratio" (s /. total))
      layers;
    set "self.unattributed_share" "ratio" (rest /. total)
  end;
  Buffer.contents b

(* ---- served workloads ---- *)

(* Delta-chain shape of a repository's plan: the longest chain, from
   Repo.stats, and the mean number of deltas a checkout replays. *)
let chain_shape repo =
  let parent = Hashtbl.create 512 in
  List.iter (fun (p, c) -> Hashtbl.replace parent c p) (Repo.storage_parents repo);
  let rec depth v =
    match Hashtbl.find_opt parent v with Some p when p > 0 -> 1 + depth p | _ -> 0
  in
  let total = Hashtbl.fold (fun v _ acc -> acc + depth v) parent 0 in
  ((Repo.stats repo).Repo.max_chain, float_of_int total /. float_of_int (max 1 (Hashtbl.length parent)))

type served = {
  server : Served.server;
  expect : Digest.t array;  (** by version id *)
  chain : int * float;  (** longest and mean delta chain, as imported *)
}

let start_served ~dsvc ~dir data =
  rm_rf dir;
  let repo = ok "init" (Repo.init ~path:dir) in
  let ids = ok "import" (Repo.import_versions repo (Inputs.import_entries data)) in
  if ids <> List.init (List.length ids) (fun i -> i + 1) then
    failwith "import: unexpected version ids";
  let chain = chain_shape repo in
  Repo.close repo;
  let server = ok "serve" (Served.start ~dsvc ~dir ~log:(dir ^ ".log")) in
  let c = Served.connect server in
  ignore (ok "first request" (Client.stats c));
  Client.close c;
  { server; expect = Inputs.digests data.Inputs.contents; chain }

(* A fresh server's cost per request climbs until its 8192-span trace
   ring is full, because every request filters the whole ring: over
   the first ~10k requests of any kind, a cached checkout goes from
   about 0.2 to 0.5 ms and a cold one from 0.6 to 1.3 ms on the 2-vCPU
   host. 2 clients x 6000 checkouts of cached versions pass that at the
   lowest cost. Records the p50 of one client's first 500 and last 200. *)
let warm_steady s ~hot =
  let per_client = 6000 in
  let streams =
    Array.init 2 (fun i -> Array.init per_client (fun j -> hot.((i + j) mod Array.length hot)))
  in
  let flows =
    Served.parallel_checkouts ~server:s.server ~streams ~expect:s.expect
      ~stop:(fun i -> i >= per_client)
  in
  Array.iter add_flow flows;
  let lat = Served.to_array flows.(0).Served.lat in
  let n = Array.length lat in
  set ~samples:500 "warmup.early_p50_ms" "ms" (median (Array.sub lat 0 500) *. 1000.0);
  set ~samples:200 "warmup.late_p50_ms" "ms" (median (Array.sub lat (n - 200) 200) *. 1000.0)

let scrape s =
  let c = Served.connect s.server in
  let r = ok "GET /metrics" (Served.scrape c) in
  Client.close c;
  r

let diff_metric before after ?label name =
  Served.sum ?label after name -. Served.sum ?label before name

let route r = Printf.sprintf "route=\"%s\"" r

(* Request-path split for one route: server handler time against the
   client-side latency of the same requests. *)
let emit_request_path ~before ~after ~route:r ~client_lat =
  let h_sum = diff_metric before after ~label:(route r) "dsvc_server_request_seconds_sum" in
  let h_n = diff_metric before after ~label:(route r) "dsvc_server_request_seconds_count" in
  let handler = h_sum /. Float.max 1.0 h_n in
  set ~samples:(int_of_float h_n) "server.handler_ms" "ms" (handler *. 1000.0);
  set ~samples:(Array.length client_lat) "server.outside_handler_ms" "ms"
    ((mean client_lat -. handler) *. 1000.0)

(* Commit latency from the due time, open loop. *)
let emit_writer lat =
  let n = Array.length lat in
  set ~samples:n "writer.p50_ms" "ms" (median lat *. 1000.0);
  set ~samples:n "writer.p90_ms" "ms" (pct lat 90.0 *. 1000.0)

let emit_reader lat ~window_s =
  let n = Array.length lat in
  set ~samples:n "reader.p50_ms" "ms" (median lat *. 1000.0);
  set ~samples:n "reader.p99_ms" "ms" (pct lat 99.0 *. 1000.0);
  set ~samples:n "reader.ops_s" "1/s" (float_of_int n /. window_s)

let final_checks s =
  let c = Served.connect s.server in
  check "GET /verify" (Result.is_ok (Client.verify c));
  let stats = ok "GET /stats" (Client.stats c) in
  Client.close c;
  let field k = float_of_string (List.assoc k stats) in
  (field "storage_bytes", field "sum_recreation")

(* A reader (closed loop over [hot]) beside an open-loop writer
   committing [chain] at [rate]/s; returns both flows, the commit ids
   and the writer's send lag. *)
let ingest s ~hot ~chain ~rate rng =
  let reader_stream = Array.init 100_000 (fun _ -> hot.(Prng.int rng (Array.length hot))) in
  let done_ = Atomic.make false in
  let reader = Served.flow () and writer = Served.flow () in
  let lag = Served.samples () in
  let ids = Array.make (Array.length chain) 0 in
  let t_start = now () +. 0.01 in
  (* the reader in a domain of its own, as in [Served.parallel_checkouts] *)
  let rd =
    Domain.spawn (fun () ->
        let c = Served.connect s.server in
        Served.checkout_loop ~client:c ~stream:reader_stream ~expect:s.expect
          ~stop:(fun _ -> Atomic.get done_)
          reader;
        Client.close c)
  in
  let c = Served.connect s.server in
  Served.commit_loop ~client:c ~contents:chain ~rate ~t_start writer ~lag ~ids;
  Client.close c;
  Atomic.set done_ true;
  Domain.join rd;
  (reader, writer, ids, lag, now () -. t_start)

(* Read back every commit and check it against its seeded content. *)
let read_back s ~ids ~chain =
  let c = Served.connect s.server in
  Array.iteri
    (fun i id ->
      if id > 0 then
        check
          (Printf.sprintf "commit %d reads back" id)
          (match Client.checkout c (string_of_int id) with
          | Ok body -> body = chain.(i)
          | Error _ -> false))
    ids;
  Client.close c

(* ---- layer probes (traced runs) ---- *)

let n_writer_probe = 20

(* Per-unit costs the probes measured, for the self-time tables. *)
type probe_facts = { apply_s : float; obs_s : float }

(* The probe suite on a closed repository directory holding the
   workload's versions: a short served ingest session (reader beside
   an open-loop writer), then the in-process probes. The workload's
   own traced numbers, set afterwards, replace the probe's wherever
   the workload exercises that layer. *)
let probe_suite ~dsvc ~dir ~(data : Inputs.dataset) ~seed =
  let rng = Prng.create ~seed:(seed + 7919) in
  let n = Array.length data.Inputs.contents - 1 in
  let ids = Array.init n (fun i -> i + 1) in
  let hot = Array.sub (Inputs.ranks_of rng ids) 0 (min 8 n) in
  let head_table = data.Inputs.tables.(n) in
  (* served *)
  let server = ok "serve" (Served.start ~dsvc ~dir ~log:(dir ^ ".probe.log")) in
  let chain = Inputs.edit_chain rng head_table ~k:n_writer_probe in
  let s = { server; expect = Inputs.digests data.Inputs.contents; chain = (0, 0.0) } in
  Fun.protect ~finally:(fun () -> Served.stop server) (fun () ->
      warm_steady s ~hot;
      let before = scrape s in
      let reader, writer, cids, lag, window = ingest s ~hot ~chain ~rate:20.0 rng in
      let after = scrape s in
      add_flow reader;
      add_flow writer;
      read_back s ~ids:cids ~chain;
      let rl = Served.to_array reader.Served.lat in
      emit_reader rl ~window_s:window;
      emit_writer (Served.to_array writer.Served.lat);
      emit_request_path ~before ~after ~route:"/checkout/:name" ~client_lat:rl;
      let lag = Served.to_array lag in
      set ~samples:(Array.length lag) "gen.commit_lag_p99_ms" "ms" (pct lag 99.0 *. 1000.0));
  (* in process *)
  Obs.enable ();
  let repo = ok "open" (Repo.open_repo ~path:dir) in
  let max_chain, mean_chain = chain_shape repo in
  set "repo.max_chain" "count" (float_of_int max_chain);
  set "repo.mean_chain" "count" mean_chain;
  let emit name unit v = set name unit v in
  let expect = Inputs.digests data.Inputs.contents in
  let ranks = Inputs.ranks_of rng ids in
  let stream = Inputs.zipf_stream rng ranks ~exponent:1.0 ~length:2000 in
  let bad = Probes.chain_walk emit repo ~stream ~expect in
  check "probe checkouts match their seeded contents" (bad = 0);
  let apply_s =
    Probes.blob_and_delta emit repo ~contents:data.Inputs.contents
      ~parents:data.Inputs.parents
  in
  let head_content = ok "head" (Repo.checkout repo (Option.get (Repo.head repo))) in
  let head_rows = Array.of_list (List.filter (( <> ) "") (String.split_on_char '\n' head_content)) in
  let chain = Inputs.edit_chain rng head_rows ~k:20 in
  let scratch = Filename.concat dir ".probe-objects" in
  let bad = Probes.commit_path emit repo ~chain ~scratch in
  check "probe commits read back" (bad = 0);
  let obs_s = Probes.obs_request emit repo ~version:hot.(0) in
  ignore (ok "optimize" (Repo.optimize repo ~jobs:2 Repo.Min_storage));
  let tasks0 = Probes.counter "dsvc_pool_tasks_total" () in
  Probes.optimize_phases emit repo;
  set "count.pool_tasks" "count" (Probes.counter "dsvc_pool_tasks_total" () -. tasks0);
  let g, _ = ok "reveal" (Repo.reveal_graph repo ~jobs:2 ()) in
  set "reveal.pairs" "count"
    (float_of_int
       (Versioning_graph.Digraph.n_edges (Aux_graph.graph g) - Aux_graph.n_versions g));
  let errors = Probes.solvers emit g in
  check ("probe plans are Solution_check-valid: " ^ String.concat "; " errors) (errors = []);
  check "probe repo verifies" (Result.is_ok (Repo.verify repo));
  Repo.close repo;
  Obs.disable ();
  { apply_s; obs_s }

(* ---- workloads ---- *)

type ctx = { dsvc : string; seed : int; seconds : float; trace : bool; work : string }

let report_trace ctx name ~program table =
  mkdir_p out_dir;
  let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" name ctx.seed) in
  ok "trace" (Versioning_util.Fsutil.write_file (base ^ ".trace.json") (Span.chrome_json ~program (Span.spans ())));
  ok "layers" (Versioning_util.Fsutil.write_file (base ^ ".layers.txt") table);
  prerr_string table;
  Printf.eprintf "trace: %s.trace.json\n%!" base

(* ---- checkout_cold ---- *)

(* A run builds [instances] independent repository + server pairs, each
   from its own sub-seed of the run seed. Building one is a set-up pass
   (setup_s is their median). Each is then warmed and measured for a
   fixed number of checkouts, and the latencies are pooled, so a run's
   figures average over several server processes and input draws
   rather than riding on one. In a traced run the last instance is
   traced and kept on disk for the probe suite. *)
let instances = 2

let n_cold = 400

(* Zipf checkouts each client sends after the warm-up and before
   timing, to fill the checkout cache. *)
let cold_fill = 500

(* Cold checkouts per second of both clients together, past the warm-up,
   on the 2-vCPU host the benchmark was built on. It sizes the fixed
   number of measured checkouts, so that an instance's window lasts
   about its share of --seconds; a faster server finishes sooner. *)
let cold_rate = 1500.0

type instance = {
  shape : int * float;  (** longest and mean delta chain, as imported *)
  probe : (string * Inputs.dataset) option;
      (** the traced instance's repository and contents, for the probes *)
  lat : float array list;  (** per client, in time order *)
  window : float;
  before : (string * float) list;  (** GET /metrics around the window *)
  after : (string * float) list;
  storage : float;
  recreation : float;
  version_bytes : float;
  rss : float;
}

(* Spans on for the traced instance's measured window only. *)
let traced_if traced f =
  Span.enabled := traced;
  Fun.protect ~finally:(fun () -> Span.enabled := false) f

(* checkout_cold: 2 closed-loop clients, Zipf(1.0) over 400 LC
   versions, the working set far beyond the 16-slot cache. *)
let checkout_cold ctx =
  let base = Prng.create ~seed:ctx.seed in
  let per_client = int_of_float (cold_rate *. ctx.seconds /. float_of_int instances /. 2.0) in
  let setup = Array.make instances 0.0 in
  let checkouts s streams =
    let n = Array.length streams.(0) in
    let flows =
      Served.parallel_checkouts ~server:s.server ~streams ~expect:s.expect ~stop:(fun i -> i >= n)
    in
    Array.iter add_flow flows;
    flows
  in
  let runs =
    List.init instances (fun k ->
        let rng = Prng.split base in
        let dir = Filename.concat ctx.work (Printf.sprintf "checkout_cold-%d" k) in
        let t0 = now () in
        let data = Inputs.dataset Inputs.Lc ~n:n_cold rng in
        let ranks = Inputs.ranks_of rng (Array.init n_cold (fun i -> i + 1)) in
        let draws length =
          Array.init 2 (fun _ -> Inputs.zipf_stream rng ranks ~exponent:1.0 ~length)
        in
        let fill = draws cold_fill and streams = draws per_client in
        let s = start_served ~dsvc:ctx.dsvc ~dir data in
        setup.(k) <- now () -. t0;
        warm_steady s ~hot:(Array.sub ranks 0 8);
        ignore (checkouts s fill : Served.flow array);
        let traced = ctx.trace && k = instances - 1 in
        let before = scrape s in
        let t0 = now () in
        let flows = traced_if traced (fun () -> checkouts s streams) in
        let window = now () -. t0 in
        let after = scrape s in
        let storage, recreation = final_checks s in
        let rss = Served.server_rss_mb s.server in
        Served.stop s.server;
        if not traced then rm_rf dir;
        {
          shape = s.chain;
          probe = (if traced then Some (dir, data) else None);
          lat = Array.to_list (Array.map (fun f -> Served.to_array f.Served.lat) flows);
          window;
          before;
          after;
          storage;
          recreation;
          version_bytes = float_of_int (Inputs.total_bytes data.Inputs.contents);
          rss;
        })
  in
  let total f runs = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  set ~samples:instances "setup_s" "s" (median setup);
  set ~samples:instances "rss_mb" "MB" (median (Array.of_list (List.map (fun r -> r.rss) runs)));
  emit_ratios ~storage:(total (fun r -> r.storage) runs)
    ~recreation:(total (fun r -> r.recreation) runs)
    ~version_bytes:(total (fun r -> r.version_bytes) runs);
  let max_chain = List.fold_left (fun acc r -> max acc (fst r.shape)) 0 runs in
  let mean_chain = total (fun r -> snd r.shape) runs /. float_of_int instances in
  Printf.eprintf "delta chains as imported: longest %d, mean %.1f deltas\n%!" max_chain mean_chain;
  List.iteri
    (fun k r -> Printf.eprintf "instance %d: p50 %.3f ms\n%!" k (median (Array.concat r.lat) *. 1000.0))
    runs;
  let untraced = if ctx.trace then List.filteri (fun i _ -> i < instances - 1) runs else runs in
  let lat = Array.concat (List.concat_map (fun r -> r.lat) untraced) in
  emit_op ~lat ~window_s:(total (fun r -> r.window) untraced);
  (* the traced instance too: its spans cost the same all through its
     window, and a traced run keeps two groups this way *)
  check_halves (List.map (fun r -> r.lat) runs);
  if ctx.trace then begin
    let r = List.nth runs (instances - 1) in
    let traced = Array.concat r.lat in
    let dir, data = Option.get r.probe in
    let facts = probe_suite ~dsvc:ctx.dsvc ~dir ~data ~seed:ctx.seed in
    (* the traced instance's own request path and chain walk *)
    set "repo.max_chain" "count" (float_of_int max_chain);
    set "repo.mean_chain" "count" mean_chain;
    set "trace.overhead_ratio" "ratio" (mean traced /. mean lat);
    emit_reader traced ~window_s:r.window;
    emit_request_path ~before:r.before ~after:r.after ~route:"/checkout/:name" ~client_lat:traced;
    let d = diff_metric r.before r.after in
    let ops = float_of_int (Array.length traced) in
    let cache c = d ~label:(Printf.sprintf "result=\"%s\"" c) "dsvc_store_checkout_cache_total" in
    set "repo.cache_hit_ratio" "ratio" (cache "hit" /. ops);
    set "repo.partial_hit_ratio" "ratio" (cache "partial" /. ops);
    let decodes = d "dsvc_delta_line_decode_total" in
    set "repo.deltas_per_checkout" "count" (decodes /. ops);
    set "object_store.read_bytes_per_checkout" "B" (d "dsvc_store_get_bytes_total" /. ops);
    let total = sum traced in
    let handler = d ~label:(route "/checkout/:name") "dsvc_server_request_seconds_sum" in
    report_trace ctx "checkout_cold" ~program:[]
      (attribution ~name:"checkout_cold" ~total ~ops:(Array.length traced)
         [
           ("request", total -. handler -. (ops *. facts.obs_s),
            "client latency minus server handler time (GET /metrics) minus Obs");
           ("object_store", d "dsvc_store_get_seconds_sum", "dsvc_store_get_seconds (server)");
           ("line_diff", decodes *. facts.apply_s, "server delta decodes x probe decode+apply time");
           ("obs", ops *. facts.obs_s, "probe: handle_safe Obs on minus off");
         ])
  end

(* ---- solve_large ---- *)

let self_rss_mb () = Served.peak_rss_mb "self"

(* Lower this process's peak-RSS mark to its current RSS (Linux:
   "5" written to /proc/self/clear_refs), so the next reading is the
   peak of what runs in between. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | oc ->
      output_string oc "5";
      close_out oc
  | exception Sys_error e -> failwith ("reset peak RSS: " ^ e)

(* [f ()] in a forked child, its result marshalled back. The child's
   heap starts from this process's small one, so its peak RSS is [f]'s
   own rather than a high-water mark the runtime kept from earlier
   work (it does not hand freed memory back to the system). *)
let child = ref None

let in_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      (try
         Unix.close r;
         let oc = Unix.out_channel_of_descr w in
         let v = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
         Marshal.to_channel oc v [];
         close_out oc
       with _ -> ());
      Unix._exit 0
  | pid ->
      child := Some pid;
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Marshal.from_channel ic with End_of_file | Failure _ -> Error "child died" in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      child := None;
      v

(* Stop a child still running, when the run is interrupted. *)
let stop_child () =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    !child

let n_large = 8000

(* A run pools [large_graphs] solver graphs, each one 8000-version DC
   history drawn from its own sub-seed of the run seed, so its figures
   average over several histories rather than riding on one. *)
let large_graphs = 10

(* Seconds per solver cycle on one such graph, on the 2-vCPU host the
   benchmark was built on. It sizes the fixed number of cycles per
   graph (at least 1), so that a run lasts about --seconds. *)
let cycle_s = 1.6

(* [n] timed solver cycles on [g], one operation each. A cycle ends
   with a full GC inside its timed span: its collection work counts
   towards it, and the peak heap is one cycle's rather than an accident
   of GC pacing. *)
let solver_cycles g ~n =
  let lat = Array.make n 0.0 in
  let cs =
    List.init n (fun i ->
        let op = Span.new_op () in
        let t0 = now () in
        let c =
          Span.with_span ~op ~layer:"bench" "cycle" (fun () ->
              let c = Probes.solver_cycle ~op g in
              Gc.full_major ();
              c)
        in
        lat.(i) <- now () -. t0;
        c)
  in
  (lat, cs)

type graph_run = {
  setup : float;  (** generating the graph *)
  version_bytes : float;
  storage : float;  (** of the LMG plan *)
  recreation : float;
  lat : float array;
  peak_rss : float;  (** over the cycles, graph included *)
  cycles : int;
  bad : string list;  (** one entry per cycle with an invalid plan *)
}

(* Build one graph (a set-up pass) and run [n] cycles on it. Every plan
   is checked after the timed cycles. *)
let solve_graph rng ~n =
  let t0 = now () in
  let g = Inputs.cost_graph Inputs.Dc ~n:n_large ~max_hops:5 ~reveal_cap:12 rng in
  let setup = now () -. t0 in
  let version_bytes = ref 0.0 in
  for v = 1 to Aux_graph.n_versions g do
    version_bytes :=
      !version_bytes +. (Option.get (Aux_graph.materialization g v)).Aux_graph.delta
  done;
  reset_peak_rss ();
  let lat, cs = solver_cycles g ~n in
  let peak_rss = self_rss_mb () in
  let bad =
    List.filter_map
      (fun c -> match Probes.check_plans g c with [] -> None | es -> Some (String.concat "; " es))
      cs
  in
  let lmg = List.assoc "lmg" (List.hd cs).Probes.plans in
  ( g,
    {
      setup;
      version_bytes = !version_bytes;
      storage = Storage_graph.storage_cost lmg;
      recreation = Storage_graph.sum_recreation lmg;
      lat;
      peak_rss;
      cycles = n;
      bad;
    } )

(* solve_large: each graph is solved in a fresh child process, as a
   user running the solvers once would. A traced run stays in process:
   the same cycles without spans, then again with them. *)
let solve_large ctx =
  let base = Prng.create ~seed:ctx.seed in
  let per_graph secs =
    max 1 (int_of_float (Float.round (secs /. float_of_int large_graphs /. cycle_s)))
  in
  let n = per_graph (if ctx.trace then ctx.seconds /. 2.0 else ctx.seconds) in
  let traced = ref [] and traced_cycles = ref [] and last = ref None in
  let runs =
    List.init large_graphs (fun _ ->
        let rng = Prng.split base in
        let r =
          if not ctx.trace then ok "solve in a child" (in_child (fun () -> snd (solve_graph rng ~n)))
          else begin
            last := None;
            Gc.full_major ();
            let g, r = solve_graph rng ~n in
            Span.enabled := true;
            Obs.enable ();
            let lat, cs =
              Fun.protect
                ~finally:(fun () ->
                  Obs.disable ();
                  Span.enabled := false)
                (fun () -> solver_cycles g ~n)
            in
            traced := lat :: !traced;
            traced_cycles := cs @ !traced_cycles;
            last := Some g;
            r
          end
        in
        out.attempted <- out.attempted + r.cycles - List.length r.bad;
        List.iter problem r.bad;
        r)
  in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  let col f = Array.of_list (List.map f runs) in
  set ~samples:large_graphs "setup_s" "s" (median (col (fun r -> r.setup)));
  set ~samples:large_graphs "rss_mb" "MB" (median (col (fun r -> r.peak_rss)));
  emit_ratios ~storage:(total (fun r -> r.storage)) ~recreation:(total (fun r -> r.recreation))
    ~version_bytes:(total (fun r -> r.version_bytes));
  let lat = Array.concat (List.map (fun (r : graph_run) -> r.lat) runs) in
  emit_op ~lat ~window_s:(sum lat);
  (* two groups, the first and the last graphs' cycles in time order:
     graphs drawn alike should cost alike *)
  let m = Array.length lat / 2 in
  check_halves [ [ Array.sub lat 0 m ]; [ Array.sub lat m (Array.length lat - m) ] ];
  if ctx.trace then begin
    let g = Option.get !last in
    let tl = Array.concat !traced and cycles = !traced_cycles in
    (* probes on a small seeded repository of the same shape *)
    let dir = Filename.concat ctx.work "solve_large_probe" in
    rm_rf dir;
    let data = Inputs.dataset Inputs.Dc ~n:64 (Prng.create ~seed:ctx.seed) in
    let repo = ok "init" (Repo.init ~path:dir) in
    ignore (ok "import" (Repo.import_versions repo (Inputs.import_entries data)));
    Repo.close repo;
    ignore (probe_suite ~dsvc:ctx.dsvc ~dir ~data ~seed:ctx.seed : probe_facts);
    (* the workload's own solver numbers: mean seconds per call over the
       traced cycles; exact counters of one cycle on the last graph *)
    let ops = List.length cycles in
    List.iter
      (fun name ->
        let short = String.lowercase_ascii (List.hd (String.split_on_char '.' name)) in
        let total =
          List.fold_left (fun acc c -> acc +. List.assoc name c.Probes.times) 0.0 cycles
        in
        set ~samples:ops (Printf.sprintf "solver.%s_s" short) "s" (total /. float_of_int (max 1 ops)))
      [ "Mca.solve"; "Spt.solve"; "Lmg.solve"; "Mp.solve"; "Gith.solve" ];
    Obs.enable ();
    ignore (Probes.solvers (fun name unit v -> if unit = "count" || name = "solution_check_s" then set name unit v) g);
    Obs.disable ();
    set "trace.overhead_ratio" "ratio" (mean tl /. mean lat);
    let self = Span.self_by_layer (Span.spans ()) in
    let solver = Option.value (List.assoc_opt "solver" self) ~default:0.0 in
    report_trace ctx "solve_large" ~program:[]
      (attribution ~name:"solve_large" ~total:(sum tl) ~ops:(Array.length tl)
         [ ("solver", solver, "benchmark spans around each solver call") ])
  end

(* ---- main ---- *)

let workloads =
  [ ("checkout_cold", checkout_cold); ("solve_large", solve_large) ]

let end_to_end =
  [ "setup_s"; "op_p50_ms"; "storage_ratio"; "recreation_ratio"; "rss_mb" ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~trace =
  let metrics = List.rev out.metrics in
  let shown =
    List.filter
      (fun (name, _) ->
        let e2e = List.mem name end_to_end in
        if trace then not e2e else e2e)
      metrics
  in
  Printf.eprintf "%-40s %16s %-6s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (name, (v, unit, n)) -> Printf.eprintf "%-40s %16.6g %-6s %d\n" name v unit n)
    shown;
  Printf.eprintf "attempted %d, failed %d\n%!" out.attempted out.failed;
  List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) (List.rev out.problems);
  let correct =
    out.failed = 0 && List.for_all (fun (_, (v, _, _)) -> Float.is_finite v) shown
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 out.attempted) out.failed
    (String.concat ", "
       (List.map
          (fun (name, (v, unit, _)) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          shown));
  correct

let () =
  let dsvc = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--dsvc", Arg.Set_string dsvc, "PATH dsvc executable to serve with");
      ("--workload", Arg.Set_string workload, "NAME checkout_cold or solve_large");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --dsvc PATH --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !dsvc = "" || not (Sys.file_exists !dsvc) then begin
    prerr_endline "perfbench: --dsvc must name the dsvc executable";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* stop every server this run started, also when interrupted *)
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             Served.stop_all ();
             stop_child ();
             exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  Obs.disable ();
  let work = Filename.concat ".perfbench" "work" in
  rm_rf work;
  mkdir_p work;
  let ctx =
    { dsvc = !dsvc; seed = !seed; seconds = float_of_int !seconds; trace = !trace = 1; work }
  in
  (match run ctx with
  | () -> ()
  | exception e ->
      Served.stop_all ();
      problem ("benchmark aborted: " ^ Printexc.to_string e));
  rm_rf work;
  let correct = print_result ~trace:ctx.trace in
  exit (if correct then 0 else 1)
