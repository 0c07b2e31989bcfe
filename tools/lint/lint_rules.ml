(* The dsvc-lint rule engine: parses .ml files into a Parsetree with
   compiler-libs and enforces the repository's static invariants.

   R1-raw-write        raw file-writing primitives confined to Fsutil
   R2-unsafe-index     unsafe_* reads: allowlisted files only, each
                       use justified by an adjacent lint: unsafe-ok
   R3-domain-spawn     Domain.spawn confined to the Pool module
   R3-fork             Unix.fork confined to the lock probe
   R4-catch-all        `with _ ->` / dropped-exception handlers need
                       a lint: swallow-ok justification
   R5-nondet           nondeterminism sources banned in solver and
                       generator tiers (deterministic-plan invariant)
   R6-toplevel-mutable module-level mutable state in any module
                       reachable from a Pool-parallel call site

   The interprocedural rules live in their own modules on top of the
   Callgraph/Effects engine and run from [check_tree]:

   R7-no-blocking-in-reactor   rule_reactor.ml   (reactor-ok)
   R8-unreleased-lock /
   R8-double-acquire /
   R8-lock-order               rule_locks.ml     (lock-ok)
   R9-shared-state             rule_shared.ml    (shared-ok)

   Diagnostics carry file:line:col and a rule id; suppression comments
   ([lint: <key> <reason>]) on the same line or the line above silence
   a single finding, and lint.toml carries the per-file allowlists. *)

type diagnostic = Lint_diag.t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

let compare_diag = Lint_diag.compare_diag
let to_string = Lint_diag.to_string

(* ------------------------------------------------------------------ *)
(* Comment scanning: suppressions live in comments, which the parser
   discards, so a small scanner recovers them with line spans. It
   understands nested comments, string literals (inside and outside
   comments — the OCaml lexer does too), {|quoted|} strings and char
   literals well enough for syntactically valid source. *)
(* ------------------------------------------------------------------ *)

type suppression = { key : string; s_line : int; e_line : int }

let scan_comments src =
  let n = String.length src in
  let res = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let advance () =
    if !i < n then begin
      if src.[!i] = '\n' then incr line;
      incr i
    end
  in
  let skip_string () =
    (* at the opening quote *)
    let b = Buffer.create 16 in
    Buffer.add_char b src.[!i];
    advance ();
    while !i < n && src.[!i] <> '"' do
      if src.[!i] = '\\' && !i + 1 < n then begin
        Buffer.add_char b src.[!i];
        advance ();
        Buffer.add_char b src.[!i];
        advance ()
      end
      else begin
        Buffer.add_char b src.[!i];
        advance ()
      end
    done;
    if !i < n then begin
      Buffer.add_char b src.[!i];
      advance ()
    end;
    Buffer.contents b
  in
  let skip_quoted_string () =
    (* at '{'; only consumes a {id|...|id} form, else just the brace *)
    let j = ref (!i + 1) in
    while
      !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
    do
      incr j
    done;
    if !j < n && src.[!j] = '|' then begin
      let id = String.sub src (!i + 1) (!j - !i - 1) in
      let close = "|" ^ id ^ "}" in
      let len = String.length close in
      while !i <= !j do
        advance ()
      done;
      let closed = ref false in
      while (not !closed) && !i < n do
        if !i + len <= n && String.sub src !i len = close then begin
          for _ = 1 to len do
            advance ()
          done;
          closed := true
        end
        else advance ()
      done
    end
    else advance ()
  in
  let skip_comment () =
    (* at the '(' of an opening "(*" *)
    let start = !line in
    let b = Buffer.create 64 in
    advance ();
    advance ();
    let depth = ref 1 in
    while !i < n && !depth > 0 do
      if !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = '*' then begin
        incr depth;
        Buffer.add_string b "(*";
        advance ();
        advance ()
      end
      else if !i + 1 < n && src.[!i] = '*' && src.[!i + 1] = ')' then begin
        decr depth;
        if !depth > 0 then Buffer.add_string b "*)";
        advance ();
        advance ()
      end
      else if src.[!i] = '"' then Buffer.add_string b (skip_string ())
      else begin
        Buffer.add_char b src.[!i];
        advance ()
      end
    done;
    res := (Buffer.contents b, start, !line) :: !res
  in
  while !i < n do
    match src.[!i] with
    | '"' -> ignore (skip_string ())
    | '(' when !i + 1 < n && src.[!i + 1] = '*' -> skip_comment ()
    | '{' -> skip_quoted_string ()
    | '\'' ->
        (* char literal or type variable *)
        if !i + 2 < n && src.[!i + 2] = '\'' && src.[!i + 1] <> '\\' then begin
          advance ();
          advance ();
          advance ()
        end
        else if !i + 1 < n && src.[!i + 1] = '\\' then begin
          advance ();
          advance ();
          while !i < n && src.[!i] <> '\'' do
            advance ()
          done;
          advance ()
        end
        else advance ()
    | _ -> advance ()
  done;
  List.rev !res

(* "lint: <key>" anywhere in a comment, key of the form [a-z-]+. *)
let suppression_of_comment (text, s_line, e_line) =
  let marker = "lint:" in
  let mn = String.length marker and n = String.length text in
  let rec find i =
    if i + mn > n then None
    else if String.sub text i mn = marker then Some (i + mn)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j ->
      let j = ref j in
      while !j < n && text.[!j] = ' ' do
        incr j
      done;
      let k = ref !j in
      while
        !k < n
        && match text.[!k] with 'a' .. 'z' | '-' -> true | _ -> false
      do
        incr k
      done;
      if !k > !j then Some { key = String.sub text !j (!k - !j); s_line; e_line }
      else None

let suppressions src = List.filter_map suppression_of_comment (scan_comments src)

(* ------------------------------------------------------------------ *)
(* AST helpers                                                         *)
(* ------------------------------------------------------------------ *)

open Parsetree

(* lint: swallow-ok Longident.flatten fatals on Lapply paths, which
   cannot name an identifier any rule tracks; an empty path is right *)
let flatten lid = try Longident.flatten lid with _ -> []

let loc_pos (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let last_of path = match List.rev path with [] -> "" | x :: _ -> x

let has_module m path = List.mem m path

(* Is [name] referenced as a plain identifier anywhere in [body]? *)
let var_used name body =
  let used = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident v; _ } when v = name ->
              used := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body;
  !used

(* Peel wrappers off a top-level binding body to find what value the
   module actually retains. *)
let rec peel e =
  match e.pexp_desc with
  | Pexp_constraint (e, _)
  | Pexp_coerce (e, _, _)
  | Pexp_open (_, e)
  | Pexp_sequence (_, e)
  | Pexp_let (_, _, e) ->
      peel e
  | _ -> e

let mutable_ctors =
  [
    ("Hashtbl", "create");
    ("Buffer", "create");
    ("Queue", "create");
    ("Stack", "create");
    ("Array", "make");
    ("Array", "init");
    ("Array", "create_float");
    ("Bytes", "create");
    ("Bytes", "make");
    ("Weak", "create");
    ("Ringbuf", "create");
  ]

let is_mutable_ctor path =
  last_of path = "ref"
  || List.exists
       (fun (m, f) -> has_module m path && last_of path = f)
       mutable_ctors

let nondet_idents =
  [
    (("Random", "self_init"), "seeds from the environment");
    (("Random", "make_self_init"), "seeds from the environment");
    (("Sys", "time"), "wall-clock dependent");
    (("Unix", "gettimeofday"), "wall-clock dependent");
    (("Unix", "time"), "wall-clock dependent");
    (("Hashtbl", "hash"), "polymorphic hash is representation-dependent");
    (("Hashtbl", "seeded_hash"), "polymorphic hash is representation-dependent");
    (("Hashtbl", "hash_param"), "polymorphic hash is representation-dependent");
  ]

let raw_open_idents = [ "open_out"; "open_out_bin"; "open_out_gen" ]

let out_channel_openers =
  [ "open_bin"; "open_text"; "open_gen"; "with_open_bin"; "with_open_text";
    "with_open_gen" ]

let write_flags = [ "O_WRONLY"; "O_RDWR"; "O_CREAT"; "O_APPEND"; "O_TRUNC" ]

(* ------------------------------------------------------------------ *)
(* Per-file analysis                                                   *)
(* ------------------------------------------------------------------ *)

type facts = {
  fdiags : diagnostic list;  (* R1-R5, suppression-filtered *)
  fmodule : string;
  frefs : string list;  (* module names referenced by this file *)
  fuses_pool : bool;  (* contains a Pool.parallel_* call site *)
  fmutables : diagnostic list;  (* R6 candidates, suppression-filtered *)
}

let module_name_of_file file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

let r5_default_scope = [ "lib/core/"; "lib/workload/" ]

let analyze ~config ~filename source =
  let sup = suppressions source in
  let suppressed key line =
    List.exists
      (fun s -> s.key = key && s.s_line <= line && line <= s.e_line + 1)
      sup
  in
  let diags = ref [] and mutables = ref [] in
  let refs = ref [] and uses_pool = ref false in
  let add ?(store = diags) ~rule ~sup_key loc msg =
    let line, col = loc_pos loc in
    if sup_key = "" || not (suppressed sup_key line) then
      store := { file = filename; line; col; rule; msg } :: !store
  in
  let record_path path =
    List.iter
      (fun c ->
        if c <> "" && c.[0] >= 'A' && c.[0] <= 'Z' then refs := c :: !refs)
      path
  in
  let r5_active =
    Lint_config.in_scope config ~rule:"R5-nondet" ~file:filename
      ~default:r5_default_scope
  in
  let check_ident path loc =
    let last = last_of path in
    (* R1: raw write primitives *)
    if
      List.mem last raw_open_idents
      || (has_module "Out_channel" path && List.mem last out_channel_openers)
    then
      if not (Lint_config.allowed config ~rule:"R1-raw-write" ~file:filename)
      then
        add ~rule:"R1-raw-write" ~sup_key:"raw-write-ok" loc
          (Printf.sprintf
             "raw file-writing primitive %s: route persistent writes \
              through Fsutil.write_file_atomic (or Fsutil.write_file for \
              exports)"
             (String.concat "." path));
    (* R2: unsafe indexing *)
    if
      String.length last > 7
      && String.sub last 0 7 = "unsafe_"
      && (has_module "String" path || has_module "Bytes" path
        || has_module "Array" path || has_module "Bigarray" path)
    then begin
      if Lint_config.allowed config ~rule:"R2-unsafe-index" ~file:filename then
        add ~rule:"R2-unsafe-index" ~sup_key:"unsafe-ok" loc
          (Printf.sprintf
             "%s needs an adjacent (* lint: unsafe-ok <bounds proof> *) \
              comment"
             (String.concat "." path))
      else
        (* outside the allowlist no comment can justify it *)
        add ~rule:"R2-unsafe-index" ~sup_key:"" loc
          (Printf.sprintf
             "%s is forbidden outside the audited delta fast paths \
              (lint.toml [R2-unsafe-index])"
             (String.concat "." path))
    end;
    (* R3: domain spawns and forks *)
    if has_module "Domain" path && last = "spawn" then begin
      if not (Lint_config.allowed config ~rule:"R3-domain-spawn" ~file:filename)
      then
        add ~rule:"R3-domain-spawn" ~sup_key:"" loc
          "Domain.spawn outside the Pool module: all parallelism goes \
           through Versioning_util.Pool"
    end;
    if has_module "Unix" path && last = "fork" then begin
      if not (Lint_config.allowed config ~rule:"R3-fork" ~file:filename) then
        add ~rule:"R3-fork" ~sup_key:"" loc
          "Unix.fork is illegal once domains may have spawned; use a \
           spawned probe executable instead"
    end;
    (* R5: nondeterminism sources in deterministic tiers *)
    if r5_active then
      List.iter
        (fun ((m, f), why) ->
          if has_module m path && last = f then
            add ~rule:"R5-nondet" ~sup_key:"nondet-ok" loc
              (Printf.sprintf
                 "%s in a deterministic-plan module (%s); derive from the \
                  seeded Prng or plumb the value in"
                 (String.concat "." path) why))
        nondet_idents;
    (* R6 roots: Pool call sites *)
    if
      has_module "Pool" path
      && (last = "parallel_init" || last = "parallel_map")
    then uses_pool := true
  in
  let expr_hook it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        let path = flatten txt in
        record_path path;
        check_ident path loc
    | Pexp_construct ({ txt; _ }, _) -> record_path (flatten txt)
    | Pexp_field (_, { txt; _ }) | Pexp_setfield (_, { txt; _ }, _) ->
        record_path (flatten txt)
    | Pexp_record (fields, _) ->
        List.iter (fun ({ Location.txt; _ }, _) -> record_path (flatten txt)) fields
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        let path = flatten txt in
        (* R1: Unix.openfile with write flags *)
        if has_module "Unix" path && last_of path = "openfile" then begin
          let found_write = ref false in
          let scan =
            {
              Ast_iterator.default_iterator with
              expr =
                (fun it e ->
                  (match e.pexp_desc with
                  | Pexp_construct ({ txt; _ }, _)
                    when List.mem (last_of (flatten txt)) write_flags ->
                      found_write := true
                  | _ -> ());
                  Ast_iterator.default_iterator.expr it e);
            }
          in
          List.iter (fun (_, a) -> scan.expr scan a) args;
          if
            !found_write
            && not
                 (Lint_config.allowed config ~rule:"R1-raw-write"
                    ~file:filename)
          then
            add ~rule:"R1-raw-write" ~sup_key:"raw-write-ok" loc
              "Unix.openfile with write flags: route writes through \
               Fsutil.write_file_atomic"
        end;
        (* R5: polymorphic compare applied to float literals *)
        if r5_active && (match txt with Longident.Lident "compare" -> true | _ -> false)
        then begin
          let is_float_lit (_, a) =
            match a.pexp_desc with
            | Pexp_constant (Pconst_float _) -> true
            | _ -> false
          in
          if List.exists is_float_lit args then
            add ~rule:"R5-nondet" ~sup_key:"nondet-ok" loc
              "polymorphic compare on floats: use Float.compare (NaN \
               ordering is unspecified under polymorphic compare)"
        end
    | Pexp_try (_, cases) ->
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_any ->
                add ~rule:"R4-catch-all" ~sup_key:"swallow-ok" c.pc_lhs.ppat_loc
                  "catch-all `with _ ->` swallows every exception \
                   (including Out_of_memory and Stack_overflow); match \
                   specific exceptions or justify with (* lint: \
                   swallow-ok <reason> *)"
            | Ppat_var { txt = v; _ } when not (var_used v c.pc_rhs) ->
                add ~rule:"R4-catch-all" ~sup_key:"swallow-ok" c.pc_lhs.ppat_loc
                  (Printf.sprintf
                     "handler binds %s but drops it; log it, re-raise it, \
                      or justify with (* lint: swallow-ok <reason> *)"
                     v)
            | _ -> ())
          cases
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let pat_hook it p =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) -> record_path (flatten txt)
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let typ_hook it t =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> record_path (flatten txt)
    | _ -> ());
    Ast_iterator.default_iterator.typ it t
  in
  let module_expr_hook it m =
    (match m.pmod_desc with
    | Pmod_ident { txt; _ } -> record_path (flatten txt)
    | _ -> ());
    Ast_iterator.default_iterator.module_expr it m
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr = expr_hook;
      pat = pat_hook;
      typ = typ_hook;
      module_expr = module_expr_hook;
    }
  in
  (* R6: module-level mutable state. Collected for every file; the
     cross-file pass keeps only modules reachable from Pool regions. *)
  let rec scan_structure items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let body = peel vb.pvb_expr in
                match body.pexp_desc with
                | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
                  when is_mutable_ctor (flatten txt) ->
                    add ~store:mutables ~rule:"R6-toplevel-mutable"
                      ~sup_key:"mutable-ok" vb.pvb_loc
                      (Printf.sprintf
                         "module-level mutable state (%s) in a module \
                          reachable from a Pool-parallel region; make it \
                          domain-local or justify with (* lint: mutable-ok \
                          <reason> *)"
                         (String.concat "." (flatten txt)))
                | _ -> ())
              vbs
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ }
          ->
            scan_structure sub
        | _ -> ())
      items
  in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  (match Parse.implementation lexbuf with
  | ast ->
      iter.structure iter ast;
      scan_structure ast
  | exception e ->
      let line, col, detail =
        match Location.error_of_exn e with
        | Some (`Ok err) ->
            let main = err.Location.main in
            let l, c = loc_pos main.Location.loc in
            (l, c, Format.asprintf "%t" main.Location.txt)
        | _ -> (1, 0, Printexc.to_string e)
      in
      add ~rule:"parse-error" ~sup_key:""
        {
          Location.loc_start =
            { Lexing.pos_fname = filename; pos_lnum = line; pos_bol = 0;
              pos_cnum = col };
          loc_end =
            { Lexing.pos_fname = filename; pos_lnum = line; pos_bol = 0;
              pos_cnum = col };
          loc_ghost = false;
        }
        ("cannot parse: " ^ detail));
  {
    fdiags = List.rev !diags;
    fmodule = module_name_of_file filename;
    frefs = List.sort_uniq compare !refs;
    fuses_pool = !uses_pool;
    fmutables = List.rev !mutables;
  }

(* ------------------------------------------------------------------ *)
(* Cross-file passes: R6 reachability, then the callgraph rules        *)
(* ------------------------------------------------------------------ *)

(* Suppression key for a tree-rule diagnostic, by rule-id prefix. *)
let tree_sup_key rule =
  let has_prefix p =
    String.length rule >= String.length p
    && String.sub rule 0 (String.length p) = p
  in
  if has_prefix "R7-" then Some "reactor-ok"
  else if has_prefix "R8-" then Some "lock-ok"
  else if has_prefix "R9-" then Some "shared-ok"
  else None

let check_callgraph ~config files =
  let names key default =
    Lint_config.names_for config ~rule:"R7-no-blocking-in-reactor" ~key
      ~default
  in
  let register = names "register" Callgraph.default_register in
  let defer = names "defer" Callgraph.default_defer in
  let order =
    Lint_config.names_for config ~rule:"R8-lock-order" ~key:"order"
      ~default:[]
  in
  let g = Callgraph.build ~register ~defer files in
  let eff = Effects.compute g in
  let diags =
    Rule_reactor.check g eff
    @ Rule_locks.check g eff ~order
    @ Rule_shared.check g
  in
  (* suppression comments filter here: the per-file pass never saw
     these rules *)
  let sups = Hashtbl.create 32 in
  List.iter (fun (file, src) -> Hashtbl.replace sups file (suppressions src))
    files;
  List.filter
    (fun (d : Lint_diag.t) ->
      match tree_sup_key d.rule with
      | None -> true
      | Some key ->
          let file_sups =
            match Hashtbl.find_opt sups d.file with
            | Some s -> s
            | None -> []
          in
          not
            (List.exists
               (fun s ->
                 s.key = key && s.s_line <= d.line && d.line <= s.e_line + 1)
               file_sups))
    diags

let check_tree ~config files =
  let facts =
    List.map (fun (file, src) -> analyze ~config ~filename:file src) files
  in
  let by_name = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.add by_name f.fmodule f) facts;
  let reachable = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem reachable name) then begin
      Hashtbl.add reachable name ();
      List.iter
        (fun f -> List.iter visit f.frefs)
        (Hashtbl.find_all by_name name)
    end
  in
  List.iter (fun f -> if f.fuses_pool then visit f.fmodule) facts;
  List.concat_map
    (fun f ->
      f.fdiags
      @ (if Hashtbl.mem reachable f.fmodule then f.fmutables else []))
    facts
  @ check_callgraph ~config files
  |> List.sort compare_diag

let check_source ~config ~filename source =
  check_tree ~config [ (filename, source) ]
