module Line_diff = Versioning_delta.Line_diff
module Prng = Versioning_util.Prng

let test_roundtrip_basic () =
  let a = "one\ntwo\nthree" and b = "one\n2\nthree\nfour" in
  let d = Line_diff.diff a b in
  Alcotest.(check string) "apply" b (Line_diff.apply a d)

let test_trailing_newline_distinct () =
  let a = "x\ny" and b = "x\ny\n" in
  let d = Line_diff.diff a b in
  Alcotest.(check string) "trailing newline preserved" b (Line_diff.apply a d);
  let d' = Line_diff.diff b a in
  Alcotest.(check string) "and removed" a (Line_diff.apply b d')

let test_empty_documents () =
  let d = Line_diff.diff "" "" in
  Alcotest.(check string) "empty to empty" "" (Line_diff.apply "" d);
  let d = Line_diff.diff "" "a\nb" in
  Alcotest.(check string) "empty to doc" "a\nb" (Line_diff.apply "" d);
  let d = Line_diff.diff "a\nb" "" in
  Alcotest.(check string) "doc to empty" "" (Line_diff.apply "a\nb" d);
  (* a script that keeps no piece still yields the empty document's
     one piece, so the next delta in a chain sees what [split ""] sees *)
  Alcotest.(check (array string)) "no piece kept" [| "" |]
    (Line_diff.apply_lines [| "a" |] (Line_diff.decode "D 1\n"))

let test_invert () =
  let a = "a\nb\nc\nd" and b = "a\nX\nc" in
  let d = Line_diff.diff a b in
  let inv = Line_diff.invert a d in
  Alcotest.(check string) "inverse recovers a" a (Line_diff.apply b inv)

let test_changed_lines () =
  let d = Line_diff.diff "a\nb\nc" "a\nB\nc" in
  Alcotest.(check int) "1 del + 1 ins" 2 (Line_diff.n_changed_lines d);
  let d = Line_diff.diff "a" "a" in
  Alcotest.(check int) "identical" 0 (Line_diff.n_changed_lines d)

let test_encode_decode () =
  let a = "alpha\nbeta\ngamma\ndelta" and b = "alpha\nBETA\ngamma\nepsilon\nzeta" in
  let d = Line_diff.diff a b in
  let d' = Line_diff.decode (Line_diff.encode d) in
  Alcotest.(check bool) "decode . encode = id" true (Line_diff.equal d d');
  Alcotest.(check string) "decoded applies" b (Line_diff.apply a d')

let test_decode_malformed () =
  Alcotest.check_raises "garbage header"
    (Invalid_argument "Line_diff.decode: bad header") (fun () ->
      ignore (Line_diff.decode "nonsense\n"));
  Alcotest.check_raises "truncated payload"
    (Invalid_argument "Line_diff.decode: truncated insert payload") (fun () ->
      ignore (Line_diff.decode "I 5\nonly one line\n"))

let test_apply_wrong_source () =
  let d = Line_diff.diff "a\nb\nc\nd\ne" "a\nb" in
  Alcotest.check_raises "source too short"
    (Invalid_argument "Line_diff.apply: source too short") (fun () ->
      ignore (Line_diff.apply "a" d));
  Alcotest.check_raises "source not consumed"
    (Invalid_argument
       "Line_diff.apply: script does not consume the whole source")
    (fun () -> ignore (Line_diff.apply "a\nb\nc\nd\ne\nf" d))

let test_size_positive () =
  let d = Line_diff.diff "a\nb" "a\nc" in
  Alcotest.(check bool) "size > 0" true (Line_diff.size d > 0);
  Alcotest.(check bool) "symmetric >= one way" true
    (Line_diff.symmetric_size d "a\nb" >= Line_diff.size d)

let gen_doc rng =
  let n = Prng.int rng 40 in
  String.concat "\n"
    (List.init n (fun _ -> Printf.sprintf "line-%d" (Prng.int rng 12)))

let test_random_roundtrips () =
  let rng = Prng.create ~seed:77 in
  for _ = 1 to 500 do
    let a = gen_doc rng and b = gen_doc rng in
    let d = Line_diff.diff a b in
    if Line_diff.apply a d <> b then Alcotest.fail "round trip failed";
    let inv = Line_diff.invert a d in
    if Line_diff.apply b inv <> a then Alcotest.fail "invert failed";
    let d' = Line_diff.decode (Line_diff.encode d) in
    if not (Line_diff.equal d d') then Alcotest.fail "codec failed"
  done

(* Chain replay on line arrays (one split, every delta, one join) must
   be indistinguishable from folding [apply] over strings: same
   document on a valid chain, same [Invalid_argument] message when a
   delta mid-chain was built against another source. *)

let gen_doc =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        ( 6,
          map2
            (fun lines nl -> String.concat "\n" lines ^ if nl then "\n" else "")
            (list_size (int_bound 12) (map (Printf.sprintf "r%d") (int_bound 6)))
            bool );
      ])

let replay_strings base ds =
  try Ok (List.fold_left Line_diff.apply base ds)
  with Invalid_argument m -> Error m

let replay_lines base ds =
  try
    Ok (Line_diff.join (List.fold_left Line_diff.apply_lines (Line_diff.split base) ds))
  with Invalid_argument m -> Error m

let rec chain_deltas = function
  | a :: (b :: _ as rest) -> Line_diff.diff a b :: chain_deltas rest
  | _ -> []

let arb_chain =
  QCheck.make
    ~print:QCheck.Print.(list (fun s -> Printf.sprintf "%S" s))
    QCheck.Gen.(
      map2 (fun base rest -> base :: rest) gen_doc
        (list_size (int_range 1 20) gen_doc))

let qcheck_replay_matches_fold =
  QCheck.Test.make ~name:"line-array replay = fold of apply" ~count:300
    arb_chain (fun docs ->
      let ds = chain_deltas docs in
      let expected = Ok (List.nth docs (List.length docs - 1)) in
      replay_strings (List.hd docs) ds = expected
      && replay_lines (List.hd docs) ds = expected)

let qcheck_wrong_source_same_error =
  QCheck.Test.make ~name:"wrong-source delta mid-chain: same error" ~count:300
    QCheck.(triple arb_chain small_nat bool)
    (fun (docs, at, longer) ->
      let ds = Array.of_list (chain_deltas docs) in
      let at = at mod Array.length ds in
      let src = List.nth docs at in
      (* a source with one line more (overrun) or one fewer (not
         consumed) than the document the chain reaches at [at] *)
      let pieces = Line_diff.split src in
      let wrong =
        if longer || Array.length pieces < 2 then src ^ "\nextra"
        else Line_diff.join (Array.sub pieces 0 (Array.length pieces - 1))
      in
      ds.(at) <- Line_diff.diff wrong (List.nth docs (at + 1));
      let ds = Array.to_list ds in
      let got = replay_lines (List.hd docs) ds in
      Result.is_error got && got = replay_strings (List.hd docs) ds)

let suite =
  [
    Alcotest.test_case "roundtrip basic" `Quick test_roundtrip_basic;
    Alcotest.test_case "trailing newline" `Quick test_trailing_newline_distinct;
    Alcotest.test_case "empty documents" `Quick test_empty_documents;
    Alcotest.test_case "invert" `Quick test_invert;
    Alcotest.test_case "changed lines" `Quick test_changed_lines;
    Alcotest.test_case "encode / decode" `Quick test_encode_decode;
    Alcotest.test_case "decode malformed" `Quick test_decode_malformed;
    Alcotest.test_case "apply wrong source" `Quick test_apply_wrong_source;
    Alcotest.test_case "sizes" `Quick test_size_positive;
    Alcotest.test_case "random roundtrips" `Quick test_random_roundtrips;
    QCheck_alcotest.to_alcotest qcheck_replay_matches_fold;
    QCheck_alcotest.to_alcotest qcheck_wrong_source_same_error;
  ]
