(* Bounded FIFO over an option array. The element pushed as number
   [i] (0-based) lives in slot [i mod capacity]; the retained elements
   are push indices [pushed - length .. pushed - 1]. No locking: every
   owner guards its ring with the mutex it already has. *)

type 'a t = { slots : 'a option array; mutable pushed : int }

let create cap =
  if cap < 0 then invalid_arg "Ringbuf.create: negative capacity";
  { slots = Array.make cap None; pushed = 0 }

let capacity r = Array.length r.slots
let length r = min r.pushed (capacity r)
let pushed r = r.pushed

let push r x =
  let cap = capacity r in
  if cap > 0 then r.slots.(r.pushed mod cap) <- Some x;
  r.pushed <- r.pushed + 1

let get r i =
  match r.slots.(i mod capacity r) with Some x -> x | None -> assert false

(* Push indices [max n oldest .. pushed - 1], built back to front. *)
let since r n =
  let first = max n (r.pushed - length r) in
  let rec go i acc = if i < first then acc else go (i - 1) (get r i :: acc) in
  go (r.pushed - 1) []

let to_list r = since r 0

let find_newest p r =
  let oldest = r.pushed - length r in
  let rec go i =
    if i < oldest then None
    else
      let x = get r i in
      if p x then Some x else go (i - 1)
  in
  go (r.pushed - 1)

let newest r = find_newest (fun _ -> true) r

let clear r =
  Array.fill r.slots 0 (capacity r) None;
  r.pushed <- 0
