(* Seeded workload inputs. Everything a run feeds the program is built
   here, during set-up, from the --seed argument: version histories,
   CSV contents along them, edit chains for commits, Zipf access
   streams and solver graphs. The same seed gives byte-identical
   inputs. *)

open Versioning_workload
module Prng = Versioning_util.Prng
module Zipf = Versioning_util.Zipf

type shape = Lc | Dc

(* Version DAG in the paper's two shapes; ids 1..n, index 0 unused. *)
let history shape ~n rng =
  History_gen.generate
    (match shape with
    | Lc -> History_gen.linear_params ~n_commits:n
    | Dc -> History_gen.flat_params ~n_commits:n)
    rng

(* A CSV table kept near [rows] rows of [cols] 9-character cells
   (~16 KB at 200 x 8), so version size does not drift with history
   depth and every seed costs about the same to store and replay. *)
let rows = 200
let cols = 8
let cell rng =
  String.init 9 (fun _ -> Char.chr (Char.code 'a' + Prng.int rng 26))

let row rng = String.concat "," (List.init cols (fun _ -> cell rng))

let render rows = String.concat "\n" (Array.to_list rows) ^ "\n"

(* One version's edit of its parent: [edits] row operations, mostly
   cell updates, with inserts and deletes that pull the row count back
   towards [rows]. *)
let edit rng parent ~edits =
  let t = ref (Array.copy parent) in
  for _ = 1 to edits do
    let n = Array.length !t in
    let p = Prng.int rng 100 in
    let grow = n < rows - 10 || (p < 15 && n <= rows + 10) in
    let shrink = n > rows + 10 || (p >= 15 && p < 30 && n >= rows - 10) in
    if grow then begin
      let at = Prng.int rng (n + 1) in
      t :=
        Array.concat
          [ Array.sub !t 0 at; [| row rng |]; Array.sub !t at (n - at) ]
    end
    else if shrink then begin
      let at = Prng.int rng n in
      t := Array.append (Array.sub !t 0 at) (Array.sub !t (at + 1) (n - at - 1))
    end
    else begin
      let at = Prng.int rng n in
      let fields = Array.of_list (String.split_on_char ',' !t.(at)) in
      fields.(Prng.int rng cols) <- cell rng;
      !t.(at) <- String.concat "," (Array.to_list fields)
    end
  done;
  !t

(* A bulk rewrite of one column in every row: every line changes, so
   the prototype stores such a version in full rather than as a delta. *)
let rewrite_column rng parent =
  let j = Prng.int rng cols in
  Array.map
    (fun r ->
      let fields = Array.of_list (String.split_on_char ',' r) in
      fields.(j) <- cell rng;
      String.concat "," (Array.to_list fields))
    parent

(* Longest commit-order delta chain a history gets: a version whose
   first-parent chain would grow past it is a column rewrite instead,
   stored in full. 60 is the depth the LC repositories this workload
   models reach (chains "up to ~60 deep"); without a cap, a 400-version
   line would be one 400-deep chain. *)
let max_chain = 60

type dataset = {
  parents : int list array;  (** index 1..n *)
  contents : string array;  (** index 1..n; index 0 is "" *)
  tables : string array array;  (** the rows behind [contents] *)
}

let edits_per_version = 6

(* Contents along a history: a root is a fresh table, every other
   version edits its first parent (merges keep the first parent's
   rows, as a user-performed merge in the prototype does). *)
let dataset shape ~n rng =
  let parents = (history shape ~n rng).History_gen.parents in
  let tables = Array.make (n + 1) [||] in
  (* deltas between each version and its nearest full ancestor *)
  let depth = Array.make (n + 1) 0 in
  for v = 1 to n do
    match parents.(v) with
    | [] -> tables.(v) <- Array.init rows (fun _ -> row rng)
    | p :: _ when depth.(p) + 1 > max_chain -> tables.(v) <- rewrite_column rng tables.(p)
    | p :: _ ->
        tables.(v) <- edit rng tables.(p) ~edits:edits_per_version;
        depth.(v) <- depth.(p) + 1
  done;
  let contents = Array.map (fun t -> if t = [||] then "" else render t) tables in
  { parents; contents; tables }

let import_entries (d : dataset) =
  List.init
    (Array.length d.contents - 1)
    (fun i ->
      let v = i + 1 in
      (Printf.sprintf "v%d" v, d.parents.(v), d.contents.(v)))

let total_bytes contents =
  Array.fold_left (fun acc c -> acc + String.length c) 0 contents

(* A chain of [k] successive edits starting from [table]: the contents
   an ingest writer commits, each one an edit of the previous. *)
let edit_chain rng table ~k =
  let cur = ref table in
  Array.init k (fun _ ->
      cur := edit rng !cur ~edits:edits_per_version;
      render !cur)

(* Zipf(exponent) draws over [ranks] (rank 1 first). Shuffle the ids
   once with [ranks_of] so every client shares one hot set, spread
   over the history. *)
let ranks_of rng ids =
  let ids = Array.copy ids in
  Prng.shuffle rng ids;
  ids

let zipf_stream rng ranks ~exponent ~length =
  let z = Zipf.create ~n:(Array.length ranks) ~exponent in
  Array.init length (fun _ -> ranks.(Zipf.sample z rng - 1))

let digests contents = Array.map Digest.string contents

(* Content-free ⟨Δ, Φ⟩ instance for the solver workload. *)
let cost_graph shape ~n ~max_hops ~reveal_cap rng =
  Cost_gen.generate ~jobs:1 (history shape ~n rng)
    { Cost_gen.default_params with max_hops; reveal_cap; size_jitter = 0.002 }
    rng
