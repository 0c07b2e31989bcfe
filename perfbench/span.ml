(* The benchmark's own span recorder. While enabled, every public call
   the benchmark makes into the program is wrapped in a span carrying
   its layer, its parent span and an operation id shared by all spans
   of one operation. Spans stay in memory and are written out as
   Chrome trace JSON when the run ends. Disabled (the end-to-end
   runs), [with_span] is a plain call. *)

type t = {
  id : int;
  parent : int;  (** 0 = none *)
  op : int;
  name : string;
  layer : string;
  tid : int;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1
let next_op = Atomic.make 1

let new_op () = Atomic.fetch_and_add next_op 1

(* open spans per domain, innermost first: the default parent *)
let open_spans : (int, int list) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* [with_span ~op ~layer name f] runs [f] in a span whose parent is
   the innermost span open in this domain (the benchmark runs one
   thread per domain). *)
let with_span ~op ~layer name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let tid = (Domain.self () :> int) in
    let parent =
      locked (fun () ->
          let stack = Option.value (Hashtbl.find_opt open_spans tid) ~default:[] in
          Hashtbl.replace open_spans tid (id :: stack);
          match stack with p :: _ -> p | [] -> 0)
    in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      locked (fun () ->
          Hashtbl.replace open_spans tid
            (List.tl (Hashtbl.find open_spans tid));
          recorded := { id; parent; op; name; layer; tid; t0; t1 } :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

let spans () = List.rev !recorded

let json_string s = "\"" ^ Versioning_obs.Metrics.json_escape s ^ "\""

(* Chrome trace_event JSON: the benchmark's spans as process 1 and,
   when given, the program's own in-process spans ([Trace.spans]) as
   process 2. *)
let chrome_json ?(program = []) spans =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let event ~pid ~tid ~name ~cat ~ts ~dur args =
    if not !first then Buffer.add_char b ',';
    first := false;
    Printf.bprintf b
      "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
      (json_string name) (json_string cat) pid tid (ts *. 1e6) (dur *. 1e6)
      args
  in
  List.iter
    (fun s ->
      event ~pid:1 ~tid:s.tid ~name:s.name ~cat:s.layer ~ts:s.t0
        ~dur:(s.t1 -. s.t0)
        (Printf.sprintf "\"id\":%d,\"parent\":%d,\"op\":%d" s.id s.parent s.op))
    spans;
  List.iter
    (fun (s : Versioning_obs.Trace.span) ->
      event ~pid:2 ~tid:s.domain ~name:s.name ~cat:"program" ~ts:s.start
        ~dur:s.dur
        (Printf.sprintf "\"id\":%d,\"parent\":%d" s.id
           (Option.value s.parent ~default:0)))
    program;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Self time of each span: its duration minus the part of it covered
   by its children (children are assumed not to overlap each other,
   which holds for the benchmark's sequential calls). Returns total
   self seconds per layer. *)
let self_by_layer spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    spans;
  let by = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let self = Float.max 0.0 (s.t1 -. s.t0 -. covered) in
      Hashtbl.replace by s.layer
        (self +. Option.value (Hashtbl.find_opt by s.layer) ~default:0.0))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by [] |> List.sort compare
