type op =
  | Keep of int
  | Delete of int
  | Insert of string array

type t = { script : op list }

(* A document is its '\n'-separated pieces: n newlines yield n+1
   pieces, so a trailing newline is represented by a final empty piece
   and [join] is an exact inverse. *)
let split s = Array.of_list (String.split_on_char '\n' s)
let join lines = String.concat "\n" (Array.to_list lines)

let diff a b =
  let la = split a and lb = split b in
  let raw = Myers.diff ~equal:String.equal la lb in
  let script =
    List.map
      (function
        | Myers.Keep k -> Keep k
        | Myers.Delete k -> Delete k
        | Myers.Insert (off, k) -> Insert (Array.sub lb off k))
      raw
  in
  { script }

(* Two passes: the first checks the script against the source and
   sizes the result, so every overrun is reported before anything is
   built; the second blits kept and inserted lines, sharing the line
   strings rather than copying them. *)
let apply_lines la { script } =
  let src = Array.length la in
  let pos = ref 0 and len = ref 0 in
  List.iter
    (function
      | Keep k ->
          if !pos + k > src then invalid_arg "Line_diff.apply: source too short";
          pos := !pos + k;
          len := !len + k
      | Delete k ->
          if !pos + k > src then invalid_arg "Line_diff.apply: source too short";
          pos := !pos + k
      | Insert lines -> len := !len + Array.length lines)
    script;
  if !pos <> src then
    invalid_arg "Line_diff.apply: script does not consume the whole source";
  (* An empty result is the empty document, whose one piece is "":
     [split (join out) = out] must hold for every result. *)
  let out = Array.make (max !len 1) "" in
  let pos = ref 0 and at = ref 0 in
  List.iter
    (function
      | Keep k ->
          Array.blit la !pos out !at k;
          pos := !pos + k;
          at := !at + k
      | Delete k -> pos := !pos + k
      | Insert lines ->
          Array.blit lines 0 out !at (Array.length lines);
          at := !at + Array.length lines)
    script;
  out

let apply a d = join (apply_lines (split a) d)

let ops { script } = script

let invert a { script } =
  let la = split a in
  let pos = ref 0 in
  let inv =
    List.map
      (fun op ->
        match op with
        | Keep k ->
            pos := !pos + k;
            Keep k
        | Delete k ->
            let payload = Array.sub la !pos k in
            pos := !pos + k;
            Insert payload
        | Insert lines -> Delete (Array.length lines))
      script
  in
  { script = inv }

let n_changed_lines { script } =
  List.fold_left
    (fun acc op ->
      match op with
      | Keep _ -> acc
      | Delete k -> acc + k
      | Insert lines -> acc + Array.length lines)
    0 script

let encode { script } =
  let buf = Buffer.create 256 in
  List.iter
    (fun op ->
      match op with
      | Keep k -> Buffer.add_string buf (Printf.sprintf "K %d\n" k)
      | Delete k -> Buffer.add_string buf (Printf.sprintf "D %d\n" k)
      | Insert lines ->
          Buffer.add_string buf (Printf.sprintf "I %d\n" (Array.length lines));
          Array.iter
            (fun l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n')
            lines)
    script;
  let out = Buffer.contents buf in
  (* Observability only: the store's payload path and the graph
     construction's size probes both funnel through here. *)
  if Versioning_obs.Obs.enabled () then begin
    Versioning_obs.Metrics.counter "dsvc_delta_line_encode_total"
      ~help:"Line-diff scripts serialized (includes size probes)";
    Versioning_obs.Metrics.counter "dsvc_delta_line_encode_bytes_total"
      ~by:(float_of_int (String.length out))
      ~help:"Serialized line-diff bytes produced"
  end;
  out

let decode s =
  if Versioning_obs.Obs.enabled () then
    Versioning_obs.Metrics.counter "dsvc_delta_line_decode_total"
      ~help:"Line-diff scripts parsed back from storage";
  let lines = String.split_on_char '\n' s in
  let fail msg = invalid_arg ("Line_diff.decode: " ^ msg) in
  let parse_header line =
    match String.split_on_char ' ' line with
    | [ tag; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> (tag, n)
        | _ -> fail "bad count")
    | _ -> fail "bad header"
  in
  let rec take k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | [] -> fail "truncated insert payload"
      | l :: tl -> take (k - 1) (l :: acc) tl
  in
  let rec go acc = function
    | [] | [ "" ] -> List.rev acc
    | line :: rest -> (
        match parse_header line with
        | "K", n -> go (Keep n :: acc) rest
        | "D", n -> go (Delete n :: acc) rest
        | "I", n ->
            let payload, rest = take n [] rest in
            go (Insert (Array.of_list payload) :: acc) rest
        | _ -> fail "unknown op")
  in
  { script = go [] lines }

let size t = String.length (encode t)
let symmetric_size t a = size t + size (invert a t)

let equal t1 t2 =
  let op_eq o1 o2 =
    match (o1, o2) with
    | Keep a, Keep b | Delete a, Delete b -> a = b
    | Insert a, Insert b -> a = b
    | _ -> false
  in
  List.length t1.script = List.length t2.script
  && List.for_all2 op_eq t1.script t2.script
