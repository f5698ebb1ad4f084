(** Structured diagnostics with stable codes.

    Every finding of the {!Lint} passes is a value of this type: a
    stable code ([TDP001]…), a severity, an optional source file and
    position, and a human-readable message.  Diagnostics render either
    as a classic one-line compiler message ([file:line:col: severity
    [code]: message]) or as one JSON object per line for machine
    consumption (CI gates, editors). *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** stable identifier, e.g. ["TDP001"] *)
  severity : severity;
  file : string option;
  position : (int * int) option;  (** 1-based line, column *)
  message : string;
}

val make :
  ?file:string -> ?position:int * int -> code:string -> severity:severity -> string -> t

val is_error : t -> bool
val severity_to_string : severity -> string

(** Orders by code, then position, then message — a stable order for
    reports and golden tests. *)
val compare : t -> t -> int

(** [errors, warnings, infos] counts. *)
val count : t list -> int * int * int

(** [file:line:col: severity[code]: message]; the location prefix
    shrinks to what is known. *)
val pp : t Fmt.t

(** JSON object with fields [code], [severity], [file], [line], [col]
    (location fields only when known) and [message]. *)
val to_json : t -> Tdp_obs.Json.t
