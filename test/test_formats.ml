(* The two shared obs primitives: the bounded ring (checked against a
   plain list model) and the trailer-checked line codec behind every
   durable text file. The golden strings below are the exact bytes the
   four formats rendered before they moved onto [Linefile]; any format
   drift fails here. *)

open Versioning_store
module Ringbuf = Versioning_obs.Ringbuf
module Telemetry = Versioning_obs.Telemetry
module Timeseries = Versioning_obs.Timeseries
module Faults = Versioning_util.Faults

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let temp_dir () =
  let path = Filename.temp_file "dsvc_fmt" "" in
  Sys.remove path;
  path

let read_file p = In_channel.with_open_bin p In_channel.input_all

let write_file p s =
  (* lint: raw-write-ok fixtures plant exact (often corrupt) bytes; an
     atomic durable write would defeat the test *)
  Out_channel.with_open_bin p (fun oc -> output_string oc s)

let dsvc_file dir name = Filename.concat (Filename.concat dir ".dsvc") name

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- Ringbuf against a list model ---- *)

(* The model: every element ever pushed, oldest first; the ring keeps
   the last [cap] of them. *)
let drop n l = List.filteri (fun i _ -> i >= n) l

let check_against_model cap pushes probe =
  let r = Ringbuf.create cap in
  let all = ref [] in
  let agree () =
    let pushed = List.length !all in
    let kept = drop (pushed - min pushed cap) (List.rev !all) in
    let since n = drop (max 0 (n - (pushed - List.length kept))) kept in
    let newest l = match List.rev l with x :: _ -> Some x | [] -> None in
    Ringbuf.to_list r = kept
    && Ringbuf.pushed r = pushed
    && Ringbuf.newest r = newest kept
    && Ringbuf.find_newest (fun x -> x mod 3 = probe) r
       = newest (List.filter (fun x -> x mod 3 = probe) kept)
    && List.for_all
         (fun n -> Ringbuf.since r n = since n)
         [ 0; probe; pushed - 1; pushed; pushed + 1; pushed / 2 ]
  in
  agree ()
  && List.for_all
       (fun x ->
         Ringbuf.push r x;
         all := x :: !all;
         agree ())
       pushes

let qcheck_ringbuf_model =
  QCheck.Test.make ~count:300 ~name:"ringbuf matches the list model"
    QCheck.(
      triple (oneof [ always 0; always 1; int_range 0 9 ])
        (list_of_size Gen.(int_range 0 40) small_nat)
        (int_range 0 2))
    (fun (cap, pushes, probe) -> check_against_model cap pushes probe)

let test_ringbuf_edges () =
  let r = Ringbuf.create 0 in
  Ringbuf.push r 1;
  Alcotest.(check (list int)) "capacity 0 drops every push" [] (Ringbuf.to_list r);
  Alcotest.(check int) "but counts it" 1 (Ringbuf.pushed r);
  let r = Ringbuf.create 3 in
  List.iter (Ringbuf.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "wrap keeps the newest" [ 3; 4; 5 ] (Ringbuf.to_list r);
  Alcotest.(check (list int)) "since past the wrap" [ 4; 5 ] (Ringbuf.since r 3);
  Ringbuf.clear r;
  Alcotest.(check (list int)) "clear empties" [] (Ringbuf.to_list r);
  Alcotest.(check int) "clear resets the count" 0 (Ringbuf.pushed r);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Ringbuf.create: negative capacity") (fun () ->
      ignore (Ringbuf.create (-1)))

(* ---- golden scenarios: deterministic inputs for each format ---- *)

let telemetry_ledger () =
  let t = Telemetry.create ~decay:0.99 ~max_entries:3 ~ring:2 () in
  Telemetry.bump_checkout t 1 ~cached:false;
  Telemetry.bump_checkout t 2 ~cached:true;
  Telemetry.bump_checkout t 1 ~cached:true;
  Telemetry.record_recreation t 1 ~seconds:0.125 ~bytes:4096. ~predicted:3000.
    ~trace:"abc123" ();
  Telemetry.record_recreation t 2 ~seconds:0.5 ~bytes:10. ~predicted:0. ();
  Telemetry.bump_checkout t 3 ~cached:false;
  Telemetry.bump_checkout t 4 ~cached:false;
  Telemetry.record_recreation t 4 ~seconds:1e-3 ~bytes:7. ~predicted:7.
    ~trace:"bad token" ();
  t

let telemetry_merged () =
  let other = Telemetry.create ~ring:3 () in
  Telemetry.bump_checkout other 1 ~cached:false;
  Telemetry.record_recreation other 1 ~seconds:0.25 ~bytes:100. ~predicted:90.
    ~trace:"ff00" ();
  Telemetry.record_recreation other 9 ~seconds:2.0 ~bytes:1. ~predicted:1. ();
  Telemetry.merge (telemetry_ledger ()) other

let timeseries_store () =
  let t = Timeseries.create ~step:1.0 ~cap:3 ~max_series:4 () in
  for i = 0 to 500 do
    Timeseries.record t ~now:(float_of_int i *. 0.7) ~metric:"dsvc_a"
      (float_of_int (i mod 17) /. 3.0)
  done;
  Timeseries.record t ~now:5.0 ~metric:{|dsvc_b{route="/x y"}|} 2.5;
  Timeseries.record t ~now:5.5 ~metric:{|dsvc_b{route="/x y"}|} nan;
  Timeseries.record t ~now:6.0 ~metric:{|dsvc_b{route="/x y"}|} (-1.25);
  t

let meta_input =
  {|dsvc 1
head dev
next 5
gen 7
branch main 3
branch dev 4
branch empty 0
tag v1 1
tag beta 3
tag alpha 2
version 4 1700000003.500000 3 four
version 1 1700000000.000000 - first commit
version 3 1700000002.250000 2 \"quoted\" back\\slash
version 2 1700000001.000000 1,3 two  parents
stored 1 full aaaa
stored 2 delta 1 bbbb
stored 3 delta 2 cccc
stored 4 full dddd
end
|}

(* Adopt [meta_input], tag once (forcing a re-render), return the file. *)
let meta_rendered () =
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  ignore (ok (Repo.adopt_meta repo meta_input));
  ok (Repo.tag repo "rc" ~at:2 ());
  let s = read_file (dsvc_file dir "meta") in
  Repo.close repo;
  s

(* A chain repo whose optimize is killed right after the journal
   write: returns the directory, the contents and the journal bytes. *)
let journal_written () =
  Faults.reset ();
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  let base = List.init 30 (fun i -> Printf.sprintf "line %d" i) in
  let contents =
    List.init 4 (fun v ->
        String.concat "\n" (base @ [ Printf.sprintf "version %d" (v + 1) ]))
  in
  List.iter (fun c -> ignore (ok (Repo.commit repo c))) contents;
  Faults.arm ~site:"optimize.after_journal" Faults.Crash;
  (try ignore (Repo.optimize repo Repo.Min_recreation)
   with Faults.Injected _ -> ());
  Faults.reset ();
  Repo.close repo;
  (dir, contents, read_file (dsvc_file dir "journal"))

(* ---- golden bytes, rendered by the pre-Linefile code ---- *)

let golden_telemetry =
  "telemetry 1\n\
   decay 0x1.fae147ae147aep-1 3 2\n\
   events 5\n\
   v 1 2 1 0x1.fae7d566cf41fp+0 3 1 0x1p-3 0x1p+12 abc123\n\
   v 3 1 0 0x1p+0 4 0 0x0p+0 0x0p+0 -\n\
   v 4 1 0 0x1p+0 5 1 0x1.0624dd2f1a9fcp-10 0x1.cp+2 -\n\
   s 2 0x1p-1 0x1.4p+3 0x0p+0\n\
   s 4 0x1.0624dd2f1a9fcp-10 0x1.cp+2 0x1.cp+2\n\
   end\n"

let golden_telemetry_merged =
  "telemetry 1\n\
   decay 0x1.fd70a3d70a3d7p-1 4096 3\n\
   events 6\n\
   v 1 3 1 0x1.7868ba1336be8p+1 6 2 0x1.8p-2 0x1.064p+12 ff00\n\
   v 3 1 0 0x1.fae147ae147aep-1 6 0 0x0p+0 0x0p+0 -\n\
   v 4 1 0 0x1p+0 6 1 0x1.0624dd2f1a9fcp-10 0x1.cp+2 -\n\
   s 4 0x1.0624dd2f1a9fcp-10 0x1.cp+2 0x1.cp+2\n\
   s 2 0x1p-1 0x1.4p+3 0x0p+0\n\
   s 1 0x1p-2 0x1.9p+6 0x1.68p+6\n\
   end\n"

let golden_timeseries =
  "timeseries 1\n\
   conf 0x1p+0 3\n\
   m 0 348 1 0x1.aaaaaaaaaaaabp+0 0x1.aaaaaaaaaaaabp+0 0x1.aaaaaaaaaaaabp+0 0x1.aaaaaaaaaaaabp+0 dsvc_a\n\
   m 0 349 1 0x1p+1 0x1p+1 0x1p+1 0x1p+1 dsvc_a\n\
   m 0 350 1 0x1.2aaaaaaaaaaabp+1 0x1.2aaaaaaaaaaabp+1 0x1.2aaaaaaaaaaabp+1 0x1.2aaaaaaaaaaabp+1 dsvc_a\n\
   m 1 33 14 0x1.12aaaaaaaaaaap+5 0x0p+0 0x1.5555555555555p+2 0x1.8p+1 dsvc_a\n\
   m 1 34 14 0x1.2aaaaaaaaaaaap+5 0x0p+0 0x1.5555555555555p+2 0x1p+1 dsvc_a\n\
   m 1 35 1 0x1.2aaaaaaaaaaabp+1 0x1.2aaaaaaaaaaabp+1 0x1.2aaaaaaaaaaabp+1 0x1.2aaaaaaaaaaabp+1 dsvc_a\n\
   m 2 1 143 0x1.81fffffffffffp+8 0x0p+0 0x1.5555555555555p+2 0x1.1555555555555p+2 dsvc_a\n\
   m 2 2 143 0x1.7baaaaaaaaaabp+8 0x0p+0 0x1.5555555555555p+2 0x1p+0 dsvc_a\n\
   m 2 3 72 0x1.7955555555557p+7 0x0p+0 0x1.5555555555555p+2 0x1.2aaaaaaaaaaabp+1 dsvc_a\n\
   m 0 5 1 0x1.4p+1 0x1.4p+1 0x1.4p+1 0x1.4p+1 dsvc_b{route=\"/x y\"}\n\
   m 0 6 1 -0x1.4p+0 -0x1.4p+0 -0x1.4p+0 -0x1.4p+0 dsvc_b{route=\"/x y\"}\n\
   m 1 0 2 0x1.4p+0 -0x1.4p+0 0x1.4p+1 -0x1.4p+0 dsvc_b{route=\"/x y\"}\n\
   m 2 0 2 0x1.4p+0 -0x1.4p+0 0x1.4p+1 -0x1.4p+0 dsvc_b{route=\"/x y\"}\n\
   end\n"

let golden_meta =
  "dsvc 1\n\
   head dev\n\
   next 5\n\
   gen 8\n\
   branch main 3\n\
   branch dev 4\n\
   branch empty 0\n\
   tag rc 2\n\
   tag v1 1\n\
   tag beta 3\n\
   tag alpha 2\n\
   version 4 1700000003.500000 3 four\n\
   version 3 1700000002.250000 2 \\\"quoted\\\" back\\\\slash\n\
   version 2 1700000001.000000 1,3 two  parents\n\
   version 1 1700000000.000000 - first commit\n\
   stored 2 delta 1 bbbb\n\
   stored 3 delta 2 cccc\n\
   stored 1 full aaaa\n\
   stored 4 full dddd\n\
   end\n"

let golden_journal =
  "journal 1\n\
   old 2 delta 1 8fbbb79126336918a73ad044097f2be6\n\
   old 3 delta 2 8fbf21912636530da73e324409820843\n\
   old 1 full 27baa2c3ff3c894be2e18b2fa8fc95ed\n\
   old 4 delta 3 8fa7579126221ceea74f304409907810\n\
   new 2 full 27baa3c3ff3c8afee2e1882fa8fc90d4\n\
   new 3 full 27baa4c3ff3c8cb1e2e1892fa8fc9287\n\
   new 1 full 27baa2c3ff3c894be2e18b2fa8fc95ed\n\
   new 4 full 27baa5c3ff3c8e64e2e1862fa8fc8d6e\n\
   end\n"

let golden name expected actual =
  Alcotest.(check string) (name ^ " bytes unchanged") expected actual

let test_golden_telemetry () =
  golden "telemetry" golden_telemetry (Telemetry.render (telemetry_ledger ()));
  golden "merged telemetry" golden_telemetry_merged
    (Telemetry.render (telemetry_merged ()));
  List.iter
    (fun g -> golden "telemetry reparse" g (Telemetry.render (ok (Telemetry.parse g))))
    [ golden_telemetry; golden_telemetry_merged ]

let test_golden_timeseries () =
  golden "timeseries" golden_timeseries (Timeseries.render (timeseries_store ()));
  golden "timeseries reparse" golden_timeseries
    (Timeseries.render (ok (Timeseries.parse golden_timeseries)))

let test_golden_meta () =
  golden "meta" golden_meta (meta_rendered ());
  (* the old bytes load (file order itself is pinned by the re-render
     above: tags and branches render in the order they were parsed) *)
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  Alcotest.(check bool) "adopted" true (ok (Repo.adopt_meta repo golden_meta));
  Alcotest.(check (list (pair string int)))
    "tags" [ ("alpha", 2); ("beta", 3); ("rc", 2); ("v1", 1) ]
    (Repo.tags repo);
  Alcotest.(check (list (pair string int)))
    "branch order" [ ("main", 3); ("dev", 4) ] (Repo.branches repo);
  Alcotest.(check (list int))
    "versions newest first" [ 4; 3; 2; 1 ]
    (List.map (fun c -> c.Repo.id) (Repo.log repo));
  Alcotest.(check (list string))
    "messages unescaped" [ "four"; {|"quoted" back\slash|}; "two  parents"; "first commit" ]
    (List.map (fun c -> c.Repo.message) (Repo.log repo));
  Repo.close repo

let test_golden_journal () =
  let dir, contents, journal = journal_written () in
  golden "journal" golden_journal journal;
  (* the journal written before the move is recovered on open *)
  let repo = ok (Repo.open_repo ~path:dir) in
  Alcotest.(check bool) "journal resolved" false (Repo.journal_pending repo);
  List.iteri
    (fun i c ->
      Alcotest.(check string) "content survives" c (ok (Repo.checkout repo (i + 1))))
    contents;
  Repo.close repo

(* ---- every format rejects the same three corruptions ---- *)

(* A journal naming objects that do not exist reconstructs neither map,
   so recovery keeps it on disk; a journal that fails to parse is
   treated as torn and removed. [journal_pending] after open therefore
   tells parsed from rejected. *)
let unreconstructible_journal = "journal 1\nold 1 full 00\nnew 1 full 00\nend\n"

let journal_loads content =
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  ignore (ok (Repo.commit repo "alpha"));
  Repo.close repo;
  write_file (dsvc_file dir "journal") content;
  let repo = ok (Repo.open_repo ~path:dir) in
  let kept = Repo.journal_pending repo in
  Repo.close repo;
  if kept then Ok () else Error "journal rejected"

let meta_loads content =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  let r = Repo.adopt_meta repo content in
  Repo.close repo;
  Result.map ignore r

let unit_of r = Result.map ignore r

(* name, error prefix ([None]: only rejection is observable), a valid
   file, its loader *)
let formats =
  [
    ( "meta", Some "corrupt repository metadata: ", golden_meta, meta_loads );
    ("journal", None, unreconstructible_journal, journal_loads);
    ( "telemetry",
      Some "corrupt telemetry ledger: ",
      golden_telemetry,
      fun s -> unit_of (Telemetry.parse s) );
    ( "timeseries",
      Some "corrupt timeseries ledger: ",
      golden_timeseries,
      fun s -> unit_of (Timeseries.parse s) );
  ]

let corruptions valid =
  let body = String.sub valid 0 (String.length valid - String.length "end\n") in
  let header_end = String.index valid '\n' + 1 in
  [
    ("missing trailer", body, "missing end marker");
    ("content after end", valid ^ "\nstray 1\n", "content after end marker");
    ( "unknown line",
      String.sub valid 0 header_end ^ "bogus 1 2\n"
      ^ String.sub valid header_end (String.length valid - header_end),
      "unknown line: bogus 1 2" );
  ]

let test_rejections () =
  List.iter
    (fun (name, prefix, valid, load) ->
      (match load valid with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: valid file rejected: %s" name e);
      (match load (valid ^ "\n\n") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: blank lines after end rejected: %s" name e);
      List.iter
        (fun (case, content, reason) ->
          match (load content, prefix) with
          | Ok (), _ -> Alcotest.failf "%s: %s accepted" name case
          | Error _, None -> ()
          | Error e, Some prefix ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s reads %S" name case e)
                true
                (String.starts_with ~prefix e && contains e reason))
        (corruptions valid))
    formats

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_ringbuf_model;
    Alcotest.test_case "ringbuf edges" `Quick test_ringbuf_edges;
    Alcotest.test_case "telemetry golden bytes" `Quick test_golden_telemetry;
    Alcotest.test_case "timeseries golden bytes" `Quick test_golden_timeseries;
    Alcotest.test_case "meta golden bytes" `Quick test_golden_meta;
    Alcotest.test_case "journal golden bytes" `Quick test_golden_journal;
    Alcotest.test_case "every format rejects corruption" `Quick test_rejections;
  ]
