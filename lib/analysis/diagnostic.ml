type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  file : string option;
  position : (int * int) option;
  message : string;
}

let make ?file ?position ~code ~severity message =
  { code; severity; file; position; message }

let is_error d = d.severity = Error

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let compare a b =
  let c = String.compare a.code b.code in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.position b.position in
    if c <> 0 then c else String.compare a.message b.message

let count ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) ds

let pp ppf d =
  (match (d.file, d.position) with
  | Some f, Some (l, c) -> Fmt.pf ppf "%s:%d:%d: " f l c
  | Some f, None -> Fmt.pf ppf "%s: " f
  | None, Some (l, c) -> Fmt.pf ppf "%d:%d: " l c
  | None, None -> ());
  Fmt.pf ppf "%s[%s]: %s" (severity_to_string d.severity) d.code d.message

let to_json d : Tdp_obs.Json.t =
  let module J = Tdp_obs.Json in
  J.Obj
    (List.filter_map Fun.id
       [ Some ("code", J.String d.code);
         Some ("severity", J.String (severity_to_string d.severity));
         Option.map (fun f -> ("file", J.String f)) d.file;
         Option.map (fun (l, _) -> ("line", J.Int l)) d.position;
         Option.map (fun (_, c) -> ("col", J.Int c)) d.position;
         Some ("message", J.String d.message)
       ])
