(* Robustness: corrupted persistent state must surface as [Error]
   (or a detected verify failure), never as a crash or silent
   misbehaviour. *)

open Versioning_store
module Faults = Versioning_util.Faults
module Prng = Versioning_util.Prng

let temp_dir () =
  let path = Filename.temp_file "dsvc_rob" "" in
  Sys.remove path;
  path

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let meta_path dir = Filename.concat (Filename.concat dir ".dsvc") "meta"

let mk_repo () =
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  let _ = ok (Repo.commit repo ~message:"one" "alpha\nbeta") in
  let _ = ok (Repo.commit repo ~message:"two" "alpha\nbeta\ngamma") in
  ok (Repo.tag repo "v1" ~at:1 ());
  dir

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  (* lint: raw-write-ok this helper deliberately clobbers store files
     with corrupt bytes; an atomic durable write would defeat the test *)
  let oc = open_out_bin p in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let test_meta_truncation () =
  (* every prefix-truncation of the metadata either loads (a prefix
     can be a valid file) or errors cleanly *)
  let dir = mk_repo () in
  let meta = read_file (meta_path dir) in
  for len = 0 to String.length meta - 1 do
    write_file (meta_path dir) (String.sub meta 0 len);
    match Repo.open_repo ~path:dir with
    | Ok repo ->
        (* a loadable prefix must still behave: log never raises *)
        ignore (Repo.log repo)
    | Error _ -> ()
  done

let test_meta_line_mutations () =
  let dir = mk_repo () in
  let meta = read_file (meta_path dir) in
  let lines = String.split_on_char '\n' meta in
  let rng = Prng.create ~seed:331 in
  (* mutate each line in several ways *)
  List.iteri
    (fun i _ ->
      let mutate kind =
        let mutated =
          List.mapi
            (fun j l ->
              if i <> j then l
              else
                match kind with
                | `Garbage -> "!!garbage!!"
                | `Shuffle ->
                    let arr =
                      Array.of_seq (String.to_seq l)
                    in
                    Prng.shuffle rng arr;
                    String.of_seq (Array.to_seq arr)
                | `Double -> l ^ " " ^ l)
            lines
        in
        write_file (meta_path dir) (String.concat "\n" mutated);
        match Repo.open_repo ~path:dir with
        | Ok repo -> ignore (Repo.stats repo)
        | Error _ -> ()
      in
      mutate `Garbage;
      mutate `Shuffle;
      mutate `Double)
    lines;
  (* restore and confirm the original still loads *)
  write_file (meta_path dir) meta;
  ignore (ok (Repo.open_repo ~path:dir))

let test_dangling_stored_reference () =
  (* metadata referencing a nonexistent object: checkout errors,
     verify reports *)
  let dir = mk_repo () in
  let meta = read_file (meta_path dir) in
  let bogus = String.make 32 'a' in
  let mutated =
    String.split_on_char '\n' meta
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | [ "stored"; id; "full"; _ ] ->
               Printf.sprintf "stored %s full %s" id bogus
           | _ -> l)
    |> String.concat "\n"
  in
  write_file (meta_path dir) mutated;
  let repo = ok (Repo.open_repo ~path:dir) in
  (match Repo.checkout repo 1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling object must fail checkout");
  match Repo.verify repo with
  | Error problems -> Alcotest.(check bool) "reported" true (problems <> [])
  | Ok () -> Alcotest.fail "verify must flag dangling objects"

let test_cyclic_stored_chain () =
  (* hand-corrupted metadata can make version 1 a delta of version 2
     and vice versa; checkout must detect the cycle *)
  let dir = mk_repo () in
  let meta = read_file (meta_path dir) in
  let digest_of_stored l =
    match String.split_on_char ' ' l with
    | [ "stored"; _; "full"; d ] | [ "stored"; _; "delta"; _; d ] -> Some d
    | _ -> None
  in
  let some_digest =
    String.split_on_char '\n' meta |> List.filter_map digest_of_stored |> List.hd
  in
  let mutated =
    String.split_on_char '\n' meta
    |> List.filter (fun l ->
           match String.split_on_char ' ' l with
           | "stored" :: _ -> false
           | [ "end" ] | [ "" ] -> false
           | _ -> true)
    |> fun rest ->
    rest
    @ [
        Printf.sprintf "stored 1 delta 2 %s" some_digest;
        Printf.sprintf "stored 2 delta 1 %s" some_digest;
        "end";
        "";
      ]
    |> String.concat "\n"
  in
  write_file (meta_path dir) mutated;
  let repo = ok (Repo.open_repo ~path:dir) in
  let cycle = Error "delta chain contains a cycle" in
  List.iter
    (fun v ->
      Alcotest.(check (result string string))
        (Printf.sprintf "checkout %d" v) cycle (Repo.checkout repo v);
      Alcotest.(check (result string string))
        (Printf.sprintf "checkout_uncached %d" v) cycle
        (Repo.checkout_uncached repo v))
    [ 1; 2 ];
  (match Repo.reveal_graph repo () with
  | Error e -> Alcotest.(check string) "reveal_graph" "delta chain contains a cycle" e
  | Ok _ -> Alcotest.fail "cycle must fail reveal_graph");
  match Repo.verify repo with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verify must flag the cycle"

let test_archive_fuzz () =
  (* random byte flips in a packed archive never crash unpack *)
  let rng = Prng.create ~seed:337 in
  let entries =
    [
      { Archive.path = "a.csv"; content = "x,y\n1,2\n3,4" };
      { Archive.path = "dir/b"; content = String.make 64 'q' };
    ]
  in
  let packed = Result.get_ok (Archive.pack entries) in
  for _ = 1 to 500 do
    let b = Bytes.of_string packed in
    let pos = Prng.int rng (Bytes.length b) in
    Bytes.set b pos (Char.chr (Prng.int rng 256));
    match Archive.unpack (Bytes.to_string b) with
    | Ok entries' ->
        (* a lucky mutation may still parse; it must still be
           internally consistent *)
        ignore (Result.map (List.map (fun e -> e.Archive.path)) (Ok entries'))
    | Error _ -> ()
  done

let test_graph_io_fuzz () =
  let rng = Prng.create ~seed:347 in
  let g = Versioning_core.Graph_io.to_string (Fixtures.figure1 ()) in
  for _ = 1 to 500 do
    let b = Bytes.of_string g in
    let pos = Prng.int rng (Bytes.length b) in
    Bytes.set b pos (Char.chr (Prng.int rng 256));
    match Versioning_core.Graph_io.of_string (Bytes.to_string b) with
    | Ok g' -> ignore (Versioning_core.Aux_graph.n_versions g')
    | Error _ -> ()
  done

(* ---- fault injection ----

   These drive the crash-safety machinery end to end: injected write
   failures, torn metadata, crashes between optimize phases, and media
   corruption — each followed by recovery via [open_repo] / [fsck]. *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let journal_path dir = Filename.concat (Filename.concat dir ".dsvc") "journal"

let object_path dir digest =
  Filename.concat
    (Filename.concat
       (Filename.concat (Filename.concat dir ".dsvc") "objects")
       (String.sub digest 0 2))
    (String.sub digest 2 30)

let flip_byte path pos =
  let b = Bytes.of_string (read_file path) in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  write_file path (Bytes.to_string b)

(* four versions with heavily shared lines, so commits delta-chain *)
let mk_chain_repo () =
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  let base = List.init 30 (fun i -> Printf.sprintf "line %d" i) in
  let contents =
    List.init 4 (fun v ->
        String.concat "\n" (base @ [ Printf.sprintf "version %d" (v + 1) ]))
  in
  List.iter (fun c -> ignore (ok (Repo.commit repo c))) contents;
  (dir, repo, contents)

let check_contents dir expected =
  let repo = ok (Repo.open_repo ~path:dir) in
  List.iteri
    (fun i c ->
      Alcotest.(check string)
        (Printf.sprintf "version %d byte-identical" (i + 1))
        c
        (ok (Repo.checkout repo (i + 1))))
    expected

let test_commit_save_failure_rolls_back () =
  Faults.reset ();
  let dir, repo, _ = mk_chain_repo () in
  let head_before = Repo.head repo in
  let log_before = List.length (Repo.log repo) in
  Faults.arm ~site:"repo.save" (Faults.Fail "injected: disk full");
  (match Repo.commit repo ~message:"doomed" "entirely new content" with
  | Ok _ -> Alcotest.fail "commit must fail when the metadata save fails"
  | Error e -> Alcotest.(check bool) "error surfaced" true (contains e "disk full"));
  (* in-memory state rolled back: the failed commit left no trace *)
  Alcotest.(check (option int)) "head unchanged" head_before (Repo.head repo);
  Alcotest.(check int) "log unchanged" log_before (List.length (Repo.log repo));
  (* no temp file leaked next to the metadata *)
  let leaked =
    Sys.readdir (Filename.concat dir ".dsvc")
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check (list string)) "no temp files" [] leaked;
  (* the handle stays usable *)
  let id = ok (Repo.commit repo ~message:"after" "recovered content") in
  Alcotest.(check string) "later commit works" "recovered content"
    (ok (Repo.checkout repo id))

let test_torn_meta_write () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  Faults.arm ~site:"repo.save" (Faults.Torn 0.5);
  (try
     ignore (Repo.commit repo ~message:"torn" "content lost to the crash");
     Alcotest.fail "torn write must simulate a crash"
   with Faults.Injected _ -> ());
  (* the on-disk metadata is now a prefix: it must refuse to load *)
  (match Repo.open_repo ~path:dir with
  | Ok _ -> Alcotest.fail "torn metadata must not load"
  | Error e ->
      Alcotest.(check bool) "detected as corrupt" true (contains e "corrupt"));
  (* fsck --repair falls back to the backup generation *)
  let result = ok (Repo.fsck ~path:dir ~repair:true) in
  Alcotest.(check bool) "backup restore reported" true
    (List.exists (fun a -> contains a "backup") result.Repo.actions);
  Alcotest.(check (list string)) "consistent after repair" []
    result.Repo.problems;
  (* every pre-crash version is back, byte-identical *)
  check_contents dir contents

let test_crash_between_optimize_phases () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  Faults.arm ~site:"optimize.after_journal" Faults.Crash;
  (try
     ignore (Repo.optimize repo Repo.Min_storage);
     Alcotest.fail "injected crash must fire"
   with Faults.Injected _ -> ());
  (* killed between object-write and metadata-swap: journal on disk *)
  Alcotest.(check bool) "journal present" true
    (Sys.file_exists (journal_path dir));
  (* open_repo recovers the interrupted optimize *)
  let repo' = ok (Repo.open_repo ~path:dir) in
  (match Repo.verify repo' with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify after recovery: %s" (String.concat "; " ps));
  let result = ok (Repo.fsck ~path:dir ~repair:true) in
  Alcotest.(check (list string)) "fsck clean" [] result.Repo.problems;
  Alcotest.(check bool) "journal resolved" false
    (Sys.file_exists (journal_path dir));
  check_contents dir contents

let test_crash_before_journal_keeps_old_plan () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  Faults.arm ~site:"optimize.after_objects" Faults.Crash;
  (try
     ignore (Repo.optimize repo Repo.Min_recreation);
     Alcotest.fail "injected crash must fire"
   with Faults.Injected _ -> ());
  (* no journal was written: the old metadata is authoritative and the
     new objects are strays *)
  Alcotest.(check bool) "no journal" false (Sys.file_exists (journal_path dir));
  let repo' = ok (Repo.open_repo ~path:dir) in
  (match Repo.verify repo' with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify: %s" (String.concat "; " ps));
  let result = ok (Repo.fsck ~path:dir ~repair:true) in
  Alcotest.(check (list string)) "fsck clean" [] result.Repo.problems;
  check_contents dir contents

let test_corrupt_blob_detected_on_checkout () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  ignore repo;
  (* version 1 is stored in full: flip one byte in the middle of its
     object file *)
  let digest = Content_hash.hex (List.hd contents) in
  flip_byte (object_path dir digest) 20;
  let repo = ok (Repo.open_repo ~path:dir) in
  (match Repo.checkout repo 1 with
  | Ok _ -> Alcotest.fail "corrupted blob must fail checkout"
  | Error e ->
      Alcotest.(check bool) "digest mismatch reported" true
        (contains e "corrupt" || contains e "digest"));
  (* verify and plain fsck both flag it *)
  (match Repo.verify repo with
  | Ok () -> Alcotest.fail "verify must flag corruption"
  | Error _ -> ());
  let result = ok (Repo.fsck ~path:dir ~repair:false) in
  Alcotest.(check bool) "fsck reports problems" true (result.Repo.problems <> [])

let test_corrupt_mid_chain_blob () =
  Faults.reset ();
  let dir, _, contents = mk_chain_repo () in
  (* versions 2..4 are deltas down one chain: corrupt version 2's, which
     version 4's replay reads after the full base *)
  let delta_of_2 =
    String.split_on_char '\n' (read_file (meta_path dir))
    |> List.find_map (fun l ->
           match String.split_on_char ' ' l with
           | [ "stored"; "2"; "delta"; "1"; d ] -> Some d
           | _ -> None)
    |> Option.get
  in
  flip_byte (object_path dir delta_of_2) 5;
  let repo = ok (Repo.open_repo ~path:dir) in
  let cached = ok (Repo.checkout repo 1) in
  Alcotest.(check string) "full base still reads" (List.hd contents) cached;
  let uncached_err =
    match Repo.checkout_uncached repo 4 with
    | Error e -> e
    | Ok _ -> Alcotest.fail "corrupt mid-chain blob must fail checkout_uncached"
  in
  Alcotest.(check bool) "digest mismatch reported" true
    (contains uncached_err "corrupt" || contains uncached_err "digest");
  let before = Repo.cache_stats repo in
  (* twice: a version cached by the first failure would hit the second
     time *)
  for _ = 1 to 2 do
    Alcotest.(check (result string string)) "checkout reports the same error"
      (Error uncached_err) (Repo.checkout repo 4)
  done;
  let after = Repo.cache_stats repo in
  Alcotest.(check int) "no hit: version 4 never cached" before.Repo.hits
    after.Repo.hits;
  Alcotest.(check int) "both replays started from cached version 1"
    (before.Repo.partial_hits + 2) after.Repo.partial_hits

let test_repair_restores_all_versions () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  (* remember the delta object version 2 is stored as before optimize *)
  let old_meta = read_file (meta_path dir) in
  let old_v2_digest =
    String.split_on_char '\n' old_meta
    |> List.find_map (fun l ->
           match String.split_on_char ' ' l with
           | [ "stored"; "2"; "delta"; _; d ] | [ "stored"; "2"; "full"; d ] ->
               Some d
           | _ -> None)
    |> Option.get
  in
  (* crash after the metadata swap: journal still pending, old objects
     not yet collected *)
  Faults.arm ~site:"optimize.after_swap" Faults.Crash;
  (try
     ignore (Repo.optimize repo Repo.Min_recreation);
     Alcotest.fail "injected crash must fire"
   with Faults.Injected _ -> ());
  Alcotest.(check bool) "journal present" true
    (Sys.file_exists (journal_path dir));
  (* damage BOTH plans: version 3's full object (new plan) and version
     2's delta object (old plan) — neither plan alone reconstructs
     everything, but their union does *)
  flip_byte (object_path dir (Content_hash.hex (List.nth contents 2))) 25;
  flip_byte (object_path dir old_v2_digest) 3;
  (* open_repo can't roll forward or back; the journal is kept *)
  let repo' = ok (Repo.open_repo ~path:dir) in
  ignore repo';
  Alcotest.(check bool) "journal kept for repair" true
    (Sys.file_exists (journal_path dir));
  (* repair recovers every version across both plans *)
  let result = ok (Repo.fsck ~path:dir ~repair:true) in
  Alcotest.(check (list string)) "no problems after repair" []
    result.Repo.problems;
  Alcotest.(check bool) "corrupt objects quarantined" true
    (List.exists (fun a -> contains a "quarantined") result.Repo.actions);
  Alcotest.(check bool) "versions re-materialized" true
    (List.exists (fun a -> contains a "re-materialized") result.Repo.actions);
  Alcotest.(check bool) "journal resolved" false
    (Sys.file_exists (journal_path dir));
  check_contents dir contents

let test_lock_excludes_other_process () =
  let dir, repo, _ = mk_chain_repo () in
  ignore repo;
  (* this process holds the lock; a separate process must be refused.
     A spawned probe, not a fork: fork is unavailable once the domain
     pool has spawned, and POSIX record locks don't exclude within a
     process anyway. *)
  let probe =
    Filename.concat (Filename.dirname Sys.executable_name) "lock_probe.exe"
  in
  let pid =
    Unix.create_process probe [| probe; dir |] Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED 1 -> Alcotest.fail "second process acquired a held lock"
  | _, Unix.WEXITED 2 -> Alcotest.fail "open failed with the wrong error"
  | _ -> Alcotest.fail "probe died abnormally"

let test_ref_name_validation () =
  let _, repo, _ = mk_chain_repo () in
  (* names that would corrupt the line-oriented metadata are refused *)
  (match Repo.create_branch repo "bad name" () with
  | Error e -> Alcotest.(check bool) "space refused" true (contains e "invalid")
  | Ok () -> Alcotest.fail "branch name with a space must be refused");
  (match Repo.tag repo "bad\nname" () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tag name with a newline must be refused");
  (match Repo.tag repo "" () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty tag name must be refused");
  ok (Repo.create_branch repo "fine-name.1" ());
  Alcotest.(check string) "valid name accepted" "fine-name.1"
    (Repo.current_branch repo)

let suite =
  [
    Alcotest.test_case "meta truncation" `Quick test_meta_truncation;
    Alcotest.test_case "meta line mutations" `Quick test_meta_line_mutations;
    Alcotest.test_case "dangling object" `Quick test_dangling_stored_reference;
    Alcotest.test_case "cyclic stored chain" `Quick test_cyclic_stored_chain;
    Alcotest.test_case "archive fuzz" `Quick test_archive_fuzz;
    Alcotest.test_case "graph io fuzz" `Quick test_graph_io_fuzz;
    Alcotest.test_case "commit save failure rolls back" `Quick
      test_commit_save_failure_rolls_back;
    Alcotest.test_case "torn meta write" `Quick test_torn_meta_write;
    Alcotest.test_case "crash between optimize phases" `Quick
      test_crash_between_optimize_phases;
    Alcotest.test_case "crash before journal" `Quick
      test_crash_before_journal_keeps_old_plan;
    Alcotest.test_case "corrupt blob on checkout" `Quick
      test_corrupt_blob_detected_on_checkout;
    Alcotest.test_case "corrupt mid-chain blob" `Quick
      test_corrupt_mid_chain_blob;
    Alcotest.test_case "repair restores all versions" `Quick
      test_repair_restores_all_versions;
    Alcotest.test_case "lock excludes other process" `Quick
      test_lock_excludes_other_process;
    Alcotest.test_case "ref name validation" `Quick test_ref_name_validation;
  ]
