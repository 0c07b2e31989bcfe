(* Trailer-checked line files (see the interface). The framing and the
   "corrupt <what>:" error prefix live here once; each format keeps
   only its per-line cases. *)

let render header body =
  let buf = Buffer.create 1024 in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  line header;
  body line;
  line "end";
  Buffer.contents buf

let unknown fields = Error ("unknown line: " ^ String.concat " " fields)

let parse ~what ~magic line content =
  let fail msg = Error (Printf.sprintf "corrupt %s: %s" what msg) in
  (* Split off the trailer first: its absence means the write was torn,
     and nothing of a torn file may be adopted. *)
  let rec body acc = function
    | [] -> fail "truncated (missing end marker)"
    | "end" :: rest ->
        if List.for_all (fun l -> l = "") rest then Ok (List.rev acc)
        else fail "content after end marker"
    | l :: rest -> body (l :: acc) rest
  in
  let rec go = function
    | [] -> Ok ()
    | "" :: tl -> go tl
    | l :: tl -> (
        match String.split_on_char ' ' l with
        | m :: _ when m = magic -> go tl
        | fields -> ( match line fields with Ok () -> go tl | Error e -> fail e))
  in
  Result.bind (body [] (String.split_on_char '\n' content)) go

let hex = Printf.sprintf "%h"
let int s = Option.to_result ~none:() (int_of_string_opt s)
let float s = Option.to_result ~none:() (float_of_string_opt s)
