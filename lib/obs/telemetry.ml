(* Per-version workload telemetry (DESIGN.md §15).

   Counting is unconditional but clock-free: the decayed frequency is
   indexed by the ledger's own event counter, so two runs replaying
   the same accesses produce byte-identical ledgers. Everything that
   needs a clock goes through [clock], which yields nothing while the
   Obs gate is off.

   No file I/O here (lib/obs never opens files — lint.toml R1): the
   ledger renders to and parses from strings, and [Repo] persists
   them through Fsutil. *)

type entry = {
  mutable checkouts : int;
  mutable cache_hits : int;
  mutable freq : float;
  mutable freq_at : int;
  mutable observations : int;
  mutable seconds : float;
  mutable bytes : float;
  mutable exemplar : string;
}

type sample = {
  version : int;
  s_seconds : float;
  s_bytes : float;
  s_predicted : float;
}

type t = {
  decay : float;
  max_entries : int;
  mutable events : int;
  table : (int, entry) Hashtbl.t;
  recent : sample Ringbuf.t;
}

let default_decay = 0.995
let default_max_entries = 4096
let default_ring = 512

let create ?(decay = default_decay) ?(max_entries = default_max_entries)
    ?(ring = default_ring) () =
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg "Telemetry.create: decay must be in (0, 1]";
  if max_entries < 1 then
    invalid_arg "Telemetry.create: max_entries must be positive";
  if ring < 0 then invalid_arg "Telemetry.create: ring must be non-negative";
  {
    decay;
    max_entries;
    events = 0;
    table = Hashtbl.create 64;
    recent = Ringbuf.create ring;
  }

let events t = t.events
let decay t = t.decay
let is_empty t = t.events = 0 && Hashtbl.length t.table = 0
let entry t v = Hashtbl.find_opt t.table v

let entries t =
  Hashtbl.fold (fun v e acc -> (v, e) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let samples t = List.rev (Ringbuf.to_list t.recent)
let ring t = Ringbuf.capacity t.recent

(* The decayed weight of [e] as of event index [at]. *)
let settled t e ~at = e.freq *. (t.decay ** float_of_int (at - e.freq_at))

let freq_of t v =
  match Hashtbl.find_opt t.table v with
  | None -> 0.0
  | Some e -> settled t e ~at:t.events

let hot t ~k =
  entries t
  |> List.sort (fun (va, a) (vb, b) ->
         match compare (settled t b ~at:t.events) (settled t a ~at:t.events) with
         | 0 -> compare va vb
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

(* Evict the coldest entry (lowest settled frequency, ties to the
   highest id) when a new version would push the table past its
   bound. O(entries), paid only at the bound. *)
let evict_coldest t =
  let victim =
    Hashtbl.fold
      (fun v e acc ->
        let f = settled t e ~at:t.events in
        match acc with
        | Some (_, bf) when bf < f || (bf = f && fst (Option.get acc) > v) ->
            acc
        | _ -> Some (v, f))
      t.table None
  in
  match victim with Some (v, _) -> Hashtbl.remove t.table v | None -> ()

let bump_checkout t v ~cached =
  t.events <- t.events + 1;
  match Hashtbl.find_opt t.table v with
  | Some e ->
      e.checkouts <- e.checkouts + 1;
      if cached then e.cache_hits <- e.cache_hits + 1;
      e.freq <- settled t e ~at:t.events +. 1.0;
      e.freq_at <- t.events
  | None ->
      if Hashtbl.length t.table >= t.max_entries then evict_coldest t;
      Hashtbl.replace t.table v
        {
          checkouts = 1;
          cache_hits = (if cached then 1 else 0);
          freq = 1.0;
          freq_at = t.events;
          observations = 0;
          seconds = 0.0;
          bytes = 0.0;
          exemplar = "";
        }

let clock () = if Obs.enabled () then Some (Unix.gettimeofday ()) else None

(* Relative calibration error |observed − predicted| / predicted. *)
let calibration_buckets = [| 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.0; 4.0 |]

let record_recreation t v ~seconds ~bytes ~predicted ?(trace = "") () =
  (match Hashtbl.find_opt t.table v with
  | Some e ->
      e.observations <- e.observations + 1;
      e.seconds <- e.seconds +. seconds;
      e.bytes <- e.bytes +. bytes;
      if trace > e.exemplar then e.exemplar <- trace
  | None -> ());
  Ringbuf.push t.recent
    { version = v; s_seconds = seconds; s_bytes = bytes; s_predicted = predicted };
  Metrics.observe "dsvc_obs_recreation_seconds" seconds
    ~help:"Observed checkout recreation wall-clock";
  Metrics.observe "dsvc_obs_recreation_bytes" bytes
    ~buckets:Metrics.size_buckets
    ~help:"Observed bytes materialized along the delta chain";
  if predicted > 0.0 then
    Metrics.observe "dsvc_obs_calibration_error"
      (Float.abs (bytes -. predicted) /. predicted)
      ~buckets:calibration_buckets
      ~help:"Relative error of observed recreation bytes vs the plan's \u{03a6}"

let drift t ~costs =
  let n = List.length costs in
  if n = 0 || is_empty t then 0.0
  else begin
    let weights = List.map (fun (v, _) -> freq_of t v) costs in
    let wsum = List.fold_left ( +. ) 0.0 weights in
    let phisum = List.fold_left (fun acc (_, phi) -> acc +. phi) 0.0 costs in
    if wsum <= 0.0 || phisum <= 0.0 then 0.0
    else begin
      let uniform = 1.0 /. float_of_int n in
      let num =
        List.fold_left2
          (fun acc (_, phi) w ->
            acc +. (Float.abs ((w /. wsum) -. uniform) *. phi))
          0.0 costs weights
      in
      num /. (uniform *. phisum)
    end
  end

(* ---- merge ---- *)

let copy_entry e =
  {
    checkouts = e.checkouts;
    cache_hits = e.cache_hits;
    freq = e.freq;
    freq_at = e.freq_at;
    observations = e.observations;
    seconds = e.seconds;
    bytes = e.bytes;
    exemplar = e.exemplar;
  }

(* Commutative union. Each side's frequency is first settled to its
   own event horizon; the merged weight is their sum, stamped at the
   merged event count — so merge (a, b) = merge (b, a) exactly. *)
let merge a b =
  let t =
    create ~decay:(Float.max a.decay b.decay)
      ~max_entries:(max a.max_entries b.max_entries)
      ~ring:(max (ring a) (ring b)) ()
  in
  t.events <- a.events + b.events;
  let add side e0 =
    let settled_freq = settled side e0 ~at:side.events in
    fun acc ->
      match acc with
      | None ->
          let e = copy_entry e0 in
          e.freq <- settled_freq;
          e.freq_at <- t.events;
          Some e
      | Some e ->
          e.checkouts <- e.checkouts + e0.checkouts;
          e.cache_hits <- e.cache_hits + e0.cache_hits;
          e.freq <- e.freq +. settled_freq;
          e.observations <- e.observations + e0.observations;
          e.seconds <- e.seconds +. e0.seconds;
          e.bytes <- e.bytes +. e0.bytes;
          if e0.exemplar > e.exemplar then e.exemplar <- e0.exemplar;
          Some e
  in
  let fold side =
    List.iter
      (fun (v, e) ->
        match add side e (Hashtbl.find_opt t.table v) with
        | Some e -> Hashtbl.replace t.table v e
        | None -> ())
      (entries side)
  in
  fold a;
  fold b;
  while Hashtbl.length t.table > t.max_entries do
    evict_coldest t
  done;
  (* Deterministic sample union: sort the concatenation (samples carry
     no wall-clock order across ledgers); the first [ring] of it become
     the merged ring, newest first. *)
  List.sort compare (samples a @ samples b)
  |> List.rev
  |> List.iter (Ringbuf.push t.recent);
  t

(* ---- rendering / parsing ----

   A [Linefile], like the repository metadata:

     telemetry 1
     decay <%h> <max_entries> <ring>
     events <int>
     v <id> <checkouts> <cache_hits> <freq %h> <freq_at> <obs> <sec %h> <bytes %h> <exemplar|->
     s <version> <seconds %h> <bytes %h> <predicted %h>
     end

   Floats are hex so parse ∘ render is the identity. *)

(* Exemplars are trace ids (hex), but a hostile value must not corrupt
   the line format. *)
let clean_token s =
  let ok = String.for_all (fun c -> c > ' ' && c <> '\x7f') s in
  if s <> "" && ok then s else "-"

let render t =
  let fh = Linefile.hex in
  Linefile.render "telemetry 1" @@ fun line ->
  line (Printf.sprintf "decay %s %d %d" (fh t.decay) t.max_entries (ring t));
  line (Printf.sprintf "events %d" t.events);
  List.iter
    (fun (v, e) ->
      line
        (Printf.sprintf "v %d %d %d %s %d %d %s %s %s" v e.checkouts
           e.cache_hits (fh e.freq) e.freq_at e.observations (fh e.seconds)
           (fh e.bytes) (clean_token e.exemplar)))
    (entries t);
  Ringbuf.to_list t.recent
  |> List.iter (fun s ->
         line
           (Printf.sprintf "s %d %s %s %s" s.version (fh s.s_seconds)
              (fh s.s_bytes) (fh s.s_predicted)))

let parse content =
  let open Linefile in
  let t = ref (create ()) in
  let parse_line = function
    | [ "decay"; d; m; r ] -> (
        match (float d, int m, int r) with
        | Ok d, Ok m, Ok r when d > 0.0 && d <= 1.0 && m >= 1 && r >= 0 ->
            t :=
              {
                (create ~decay:d ~max_entries:m ~ring:r ()) with
                events = !t.events;
              };
            Ok ()
        | _ -> Error "bad decay line")
    | [ "events"; n ] -> (
        match int n with
        | Ok n when n >= 0 ->
            !t.events <- n;
            Ok ()
        | _ -> Error "bad events line")
    | [ "v"; v; co; ch; fr; fa; ob; se; by; ex ] -> (
        match (int v, int co, int ch, float fr, int fa, int ob, float se, float by)
        with
        | Ok v, Ok co, Ok ch, Ok fr, Ok fa, Ok ob, Ok se, Ok by ->
            Hashtbl.replace !t.table v
              {
                checkouts = co;
                cache_hits = ch;
                freq = fr;
                freq_at = fa;
                observations = ob;
                seconds = se;
                bytes = by;
                exemplar = (if ex = "-" then "" else ex);
              };
            Ok ()
        | _ -> Error "bad version line")
    | [ "s"; v; se; by; pr ] -> (
        match (int v, float se, float by, float pr) with
        | Ok v, Ok se, Ok by, Ok pr ->
            Ringbuf.push !t.recent
              { version = v; s_seconds = se; s_bytes = by; s_predicted = pr };
            Ok ()
        | _ -> Error "bad sample line")
    | fields -> unknown fields
  in
  Result.map
    (fun () -> !t)
    (Linefile.parse ~what:"telemetry ledger" ~magic:"telemetry" parse_line
       content)

let equal a b = render a = render b

(* ---- metric export ---- *)

let export ?registry t ~repo ~drift:d =
  let labels = [ ("repo", repo) ] in
  let totals =
    Hashtbl.fold
      (fun _ e (co, ch) -> (co + e.checkouts, ch + e.cache_hits))
      t.table (0, 0)
  in
  let checkouts, hits = totals in
  Metrics.gauge ?registry "dsvc_obs_ledger_versions" ~labels
    ~help:"Versions the access ledger tracks"
    (float_of_int (Hashtbl.length t.table));
  Metrics.gauge ?registry "dsvc_obs_ledger_events" ~labels
    ~help:"Accesses the ledger has counted"
    (float_of_int t.events);
  Metrics.gauge ?registry "dsvc_obs_ledger_checkouts" ~labels
    ~help:"Checkouts recorded in the ledger"
    (float_of_int checkouts);
  if checkouts > 0 then
    Metrics.gauge ?registry "dsvc_obs_cache_hit_ratio" ~labels
      ~help:"Whole-checkout cache hits / checkouts, from the ledger"
      (float_of_int hits /. float_of_int checkouts);
  Metrics.gauge ?registry "dsvc_store_drift_score" ~labels
    ~help:
      "Cost-weighted total-variation distance between observed and \
       uniform access distributions"
    d
