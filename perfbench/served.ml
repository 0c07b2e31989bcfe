(* The served side: `dsvc serve` as its own process on an ephemeral
   port, driven through [Client] from load-generator threads of this
   process, and scraped through GET /metrics. *)

open Versioning_store

type server = { pid : int; port : int; out : in_channel }

(* Every server still running, so an aborted run can stop them all. *)
let live : server list ref = ref []

(* The server inherits this process's environment minus any DSVC_*
   knob, so it runs with the defaults users get; only its flight
   record (dumped at shutdown) is pointed next to its log. *)
let server_env ~flight =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not (String.length kv >= 5 && String.sub kv 0 5 = "DSVC_"))
  |> List.cons ("DSVC_FLIGHT_PATH=" ^ flight)
  |> Array.of_list

let start ~dsvc ~dir ~log =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env dsvc
      [| dsvc; "serve"; "-C"; dir; "-p"; "0" |]
      (server_env ~flight:(log ^ ".flight.json")) null out_w err
  in
  List.iter Unix.close [ out_w; err; null ];
  let out = Unix.in_channel_of_descr out_r in
  (* "dsvc server listening on 127.0.0.1:PORT" *)
  match input_line out with
  | line -> (
      match String.rindex_opt line ':' with
      | Some i -> (
          match
            int_of_string_opt
              (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          with
          | Some port ->
              let s = { pid; port; out } in
              live := s :: !live;
              Ok s
          | None -> Error ("unexpected server output: " ^ line))
      | None -> Error ("unexpected server output: " ^ line))
  | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      close_in out;
      Error ("dsvc serve exited before listening; see " ^ log)

(* Peak resident set of a live process, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" Fun.id
            /. 1024.0
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let server_rss_mb s = peak_rss_mb (string_of_int s.pid)

let stop s =
  if List.memq s !live then begin
    live := List.filter (fun x -> x != s) !live;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid);
    close_in_noerr s.out
  end

let stop_all () = List.iter stop !live

let connect s = Client.connect ~host:"127.0.0.1" ~port:s.port ()

(* GET /metrics as [(sample, value)] pairs, keyed like
   [Metrics.snapshot_values] ("name{labels}"). *)
let scrape client =
  match Client.request client ~meth:"GET" ~path:"/metrics" () with
  | Error e -> Error e
  | Ok (_, body) ->
      Ok
        (String.split_on_char '\n' body
        |> List.filter_map (fun l ->
               if l = "" || l.[0] = '#' then None
               else
                 match String.rindex_opt l ' ' with
                 | None -> None
                 | Some i ->
                     Option.map
                       (fun v -> (String.sub l 0 i, v))
                       (float_of_string_opt
                          (String.sub l (i + 1) (String.length l - i - 1)))))

(* Sum of the samples of one family, optionally restricted to series
   whose label set contains [label] (e.g. {|route="/commit"|}). *)
let sum ?label samples name =
  List.fold_left
    (fun acc (k, v) ->
      let fam, labels =
        match String.index_opt k '{' with
        | Some i -> (String.sub k 0 i, String.sub k i (String.length k - i))
        | None -> (k, "")
      in
      let has l =
        let n = String.length l and m = String.length labels in
        let rec at i = i + n <= m && (String.sub labels i n = l || at (i + 1)) in
        at 0
      in
      if fam = name && match label with None -> true | Some l -> has l then
        acc +. v
      else acc)
    0.0 samples

(* A growable float buffer for latency samples. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 4096 0.0; n = 0 }

let push s x =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let to_array s = Array.sub s.a 0 s.n

type flow = {
  lat : samples;  (** seconds *)
  mutable attempted : int;
  mutable failed : int;
}

let flow () = { lat = samples (); attempted = 0; failed = 0 }

(* Closed loop: one client issuing checkouts from [stream] (cycled)
   until [stop n] holds after n requests. Each body is checked against the seeded
   content's digest after the latency is taken. *)
let checkout_loop ~client ~stream ~expect ~stop flow =
  let i = ref 0 in
  while not (stop !i) do
    let v = stream.(!i mod Array.length stream) in
    incr i;
    let op = Span.new_op () in
    let t0 = Unix.gettimeofday () in
    let r =
      Span.with_span ~op ~layer:"client" "Client.checkout" (fun () ->
          Client.checkout client (string_of_int v))
    in
    let dt = Unix.gettimeofday () -. t0 in
    flow.attempted <- flow.attempted + 1;
    match r with
    | Ok body when Digest.string body = expect.(v) -> push flow.lat dt
    | Ok _ | Error _ -> flow.failed <- flow.failed + 1
  done

(* Open loop: commit [contents.(i)] when it falls due at
   [t_start + i / rate], whatever the server's pace; latency runs from
   the due time, and [lag] records how late each send started. *)
let commit_loop ~client ~contents ~rate ~t_start flow ~lag ~ids =
  Array.iteri
    (fun i content ->
      let due = t_start +. (float_of_int i /. rate) in
      let now = Unix.gettimeofday () in
      if now < due then Unix.sleepf (due -. now);
      push lag (Float.max 0.0 (Unix.gettimeofday () -. due));
      let op = Span.new_op () in
      let r =
        Span.with_span ~op ~layer:"client" "Client.commit" (fun () ->
            Client.commit client ~message:(Printf.sprintf "w%d" i) content)
      in
      let dt = Unix.gettimeofday () -. due in
      flow.attempted <- flow.attempted + 1;
      match r with
      | Ok id ->
          ids.(i) <- id;
          push flow.lat dt
      | Error _ -> flow.failed <- flow.failed + 1)
    contents

(* Run [k] closed-loop checkout clients side by side until [stop].
   Each client runs in a domain of its own, as separate client
   processes would: the program's ambient trace context is per domain,
   so clients sharing one domain would send each other's trace ids. *)
let parallel_checkouts ~server ~streams ~expect ~stop =
  let flows = Array.map (fun _ -> flow ()) streams in
  let domains =
    Array.mapi
      (fun i stream ->
        Domain.spawn (fun () ->
            let client = connect server in
            checkout_loop ~client ~stream ~expect ~stop flows.(i);
            Client.close client))
      streams
  in
  Array.iter Domain.join domains;
  flows
