type t = int

let compare = Int.compare
let equal = Int.equal
let pp ppf t = Fmt.pf ppf "#%d" t
let to_int t = t
let of_int i = i

module Map = Map.Make (Int)
module Set = Set.Make (Int)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = to_int
end)
